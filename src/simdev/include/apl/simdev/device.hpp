// SIMT device simulator support: execution geometry and the warp-granular
// memory-transaction model behind the cudasim backends.
//
// The cudasim backends execute user kernels on the host but through the
// real GPU execution strategy of OP2/OPS (grid of thread blocks, per-block
// shared-memory staging, per-element coloring inside a block — Sec. II-B
// and Fig. 7). For *timing*, what distinguishes a GPU is how a warp's 32
// lane addresses coalesce into 128-byte memory transactions; the counter
// here computes, for each warp-wide access, how many distinct aligned
// segments the lanes touch. Fig. 7's three strategies differ exactly in
// this count: SoA coalesces perfectly, AoS multiplies transactions by the
// component count, and shared-memory staging pays AoS cost once per block
// instead of once per access.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace apl::simdev {

/// Execution geometry + memory system of the simulated device.
struct DeviceConfig {
  int warp_size = 32;
  int block_size = 128;           ///< threads per block
  std::size_t segment_bytes = 128;///< memory transaction granularity
  std::size_t shared_bytes = 48 * 1024;  ///< shared memory per block
};

/// Accumulates warp-level memory transactions.
class TransactionCounter {
public:
  explicit TransactionCounter(const DeviceConfig& cfg) : cfg_(cfg) {}

  /// Records one warp-wide access: each active lane touches
  /// `bytes_per_lane` bytes at its entry of `lane_addresses` (byte
  /// addresses; use element_index * stride semantics from the caller).
  /// Counts the number of distinct `segment_bytes`-aligned segments.
  void warp_access(std::span<const std::uintptr_t> lane_addresses,
                   std::size_t bytes_per_lane, bool is_write);

  std::uint64_t transactions() const { return transactions_; }
  std::uint64_t bytes() const { return transactions_ * cfg_.segment_bytes; }
  std::uint64_t useful_bytes() const { return useful_bytes_; }
  std::uint64_t write_transactions() const { return write_transactions_; }

  /// Fraction of transferred bytes the kernel asked for (1.0 == perfectly
  /// coalesced); apl::LoopStats::device_efficiency is the same ratio over
  /// a loop's launches.
  double efficiency() const {
    return bytes() > 0
               ? static_cast<double>(useful_bytes_) / static_cast<double>(bytes())
               : 1.0;
  }

  void reset() { transactions_ = write_transactions_ = useful_bytes_ = 0; }

private:
  DeviceConfig cfg_;
  std::uint64_t transactions_ = 0;
  std::uint64_t write_transactions_ = 0;
  std::uint64_t useful_bytes_ = 0;
};

}  // namespace apl::simdev
