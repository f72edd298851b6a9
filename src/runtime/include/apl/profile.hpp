// Per-parallel-loop performance recorder.
//
// The OP2/OPS back-ends record, for every named par_loop, its call count,
// wall time and the number of bytes the loop usefully moves (the quantity
// the paper's Table I divides by time to report achieved GB/s). The benches
// read these records to print the paper's breakdown tables, and the
// machine models in src/perf consume the byte counts for projection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace apl {

/// Monotonic wall-clock in seconds (the timebase ScopedLoopTimer uses).
double now_seconds();

/// Accumulated statistics for one named parallel loop. Byte counts are
/// split by access pattern into bytes_direct (streaming), bytes_gather
/// (indirect reads through a map) and bytes_scatter (indirect
/// writes/increments through a map) — the split the paper's Table I
/// analysis rests on.
struct LoopStats {
  std::uint64_t calls = 0;
  double seconds = 0.0;        ///< total wall time across calls
  std::uint64_t bytes_direct = 0;
  std::uint64_t bytes_gather = 0;
  std::uint64_t bytes_scatter = 0;
  double flops = 0.0;          ///< from the per-loop flop hint, if any
  std::uint64_t elements = 0;  ///< total elements/grid-points iterated
  std::uint64_t halo_bytes = 0;      ///< bytes exchanged for this loop (mpi)
  std::uint64_t colors = 0;          ///< total plan colors executed
  double model_seconds = 0.0;  ///< device-model time (cudasim backend)

  std::uint64_t bytes() const {
    return bytes_direct + bytes_gather + bytes_scatter;
  }

  /// The loop's authoritative timebase. Backends that execute on a modelled
  /// device (cudasim) accumulate model_seconds; the host wall time of the
  /// SIMT simulation is meaningless for bandwidth, so whenever a device
  /// model contributed, model time wins. Pure host backends leave
  /// model_seconds at zero and report wall time. One rule everywhere —
  /// report() and the bench tables all divide by this, so a table can
  /// never silently mix timebases across its rows.
  double effective_seconds() const {
    return model_seconds > 0 ? model_seconds : seconds;
  }
  double gb_per_s() const {
    const double t = effective_seconds();
    return t > 0 ? static_cast<double>(bytes()) / t * 1e-9 : 0.0;
  }
};

/// Registry of LoopStats keyed by loop name. One instance per backend
/// context; a process-global instance serves the default contexts.
///
/// Lifetime rule: a LoopStats& obtained from stats() stays valid until
/// clear() — node insertion never moves map values, but clear() destroys
/// them all. Code that must survive a clear() while timing (anything
/// holding a timer across user callbacks) uses ScopedLoopTimer, which
/// re-resolves the entry by name when it closes.
class Profile {
public:
  Profile() = default;
  /// Copies snapshot the stats only (each instance owns a fresh mutex).
  /// Copy while no team is mid-flush — the same single-threaded window
  /// every other non-add_seconds() member requires.
  Profile(const Profile& other) : stats_(other.stats_) {}
  Profile& operator=(const Profile& other) {
    stats_ = other.stats_;
    return *this;
  }

  LoopStats& stats(const std::string& loop_name) { return stats_[loop_name]; }
  const std::map<std::string, LoopStats>& all() const { return stats_; }
  void clear() { stats_.clear(); }

  /// Thread-safe seconds accumulation — the one entry point team workers
  /// may call concurrently (the tile executor's run_slice path times each
  /// slice from whichever member ran it). Everything else on Profile
  /// stays single-threaded by the executor contract: the submitting
  /// thread is blocked in the team barrier while workers run, so reads
  /// and the per-loop call/traffic accounting never overlap with this.
  void add_seconds(const std::string& loop_name, double dt) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_[loop_name].seconds += dt;
  }

  /// Human-readable table, one row per loop (calls, time, GB moved, GB/s,
  /// halo traffic, plan colors). Time is effective_seconds(); rows whose
  /// time came from a device model are flagged with '*'. Safe on an empty
  /// profile and on zero-call / zero-time rows.
  std::string report() const;

  static Profile& global();

private:
  std::map<std::string, LoopStats> stats_;
  std::mutex mutex_;  ///< guards add_seconds() against concurrent members
};

/// RAII accumulator: adds elapsed time (and one call) to a loop's stats on
/// destruction. clear()-safe: the entry is looked up by name at
/// destruction, so a clear() during the timed section just means the
/// elapsed time lands in a fresh entry instead of a dangling one. User
/// kernels (which run inside the timed section) may legitimately reset
/// profiles.
class ScopedLoopTimer {
public:
  ScopedLoopTimer(Profile& p, std::string loop_name);
  ~ScopedLoopTimer();
  ScopedLoopTimer(const ScopedLoopTimer&) = delete;
  ScopedLoopTimer& operator=(const ScopedLoopTimer&) = delete;

private:
  Profile* profile_;
  std::string name_;
  double start_;
};

}  // namespace apl
