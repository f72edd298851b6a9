// Lazy loop-chain execution with cross-loop cache-blocked tiling.
//
// With Context::set_lazy(true), ops::par_loop enqueues a LoopRecord (name,
// range, argument descriptors with their stencils and access modes, and a
// type-erased executor) into the shared chain engine's queue, which runs
// at the flush points apl/chain.hpp lists.
//
// At a flush the engine runs run-time dependency analysis over the queued
// chain (following the loop-chaining abstraction of paper Sec. IV and the
// OPS tiling work of Reguly et al.): every pair of loops touching the same
// dataset through declared stencils induces a skew constraint, and the
// chain is executed tile-by-tile over the outermost grid dimension with
// per-loop skewed tile edges, so one tile's working set stays
// cache-resident across *all* queued loops instead of each loop streaming
// every dataset from DRAM. With tiling disabled the flush replays the
// queue verbatim (bit-comparable validation baseline).
//
// The engine walks a schedule as flattened (op, tile) steps — one per
// record of a verbatim op, one per tile edge of a tiled segment — with
// cancel and preemption taking effect between them (apl/chain.hpp).
//
// Correctness rests on the OPS structural restriction that kernels write
// only the centre point. With per-loop skews s[l] (monotone non-increasing
// along the chain) and tile edges B_t, loop l executes rows
// [B_t + s[l], B_t+1 + s[l]) in tile t:
//   flow  (w writes X, later r reads X at offsets [a,b]):  s[w] >= s[r] + b
//   anti  (r reads X at [a,b], later w writes X):          s[r] >= s[w] - a
//   waw/order:                                             s[l] >= s[l+1]
// so every value is produced before a later loop consumes it and old
// values are never overwritten before an earlier loop has read them.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apl/chain.hpp"
#include "ops/arg.hpp"
#include "ops/core.hpp"

namespace ops {

class Context;

/// One queued parallel loop: everything the dependency analysis needs
/// (range + arg descriptors), plus a type-erased executor that runs the
/// kernel over any sub-range of the recorded range.
struct LoopRecord {
  std::string name;
  const Block* block = nullptr;
  Range range;
  std::vector<ArgInfo> infos;
  std::function<void(const Range&)> run;
  /// Stores the loop's global reductions in the callers' targets
  /// (apl::exec::commit, when apl/chain.hpp says); a no-op for a loop
  /// without one.
  std::function<void()> commit;
};

/// Lazy-engine statistics (apl/chain.hpp), reported by the tiling bench
/// and exposed through Context::chain_stats(). OPS chains never run color
/// rounds or verbatim-fallback chains, so `rounds` and `verbatim` stay 0.
using ChainStats = apl::chain::Stats;

/// Per-loop tile skews for a chain of loops over one block, tiled along
/// dimension `dim`: result[l] is the offset added to every tile edge for
/// loop l. Monotone non-increasing along the chain; the gap between two
/// skews covers the stencil extents of every dependence between the two
/// loops (see file header). Exposed for the dependency-analysis tests.
std::vector<index_t> compute_skews(const Context& ctx,
                                   const std::vector<LoopRecord>& chain,
                                   int dim);

/// Version of the serialized chain-schedule IR. Bump whenever the wire
/// layout of ChainSchedule sections changes; old cache entries are then
/// misses, never misreads.
inline constexpr std::uint32_t kChainIrVersion = 1;

/// Compiled execution schedule of one flushed chain: the output of the
/// dependency analysis (grouping, skews, tile segmentation, traffic
/// projection) with the analysis itself stripped away. Executing a
/// schedule walks `ops` through a dispatch table and touches only the
/// live LoopRecords' executors — a deserialized schedule therefore runs
/// without redoing any analysis.
struct ChainSchedule {
  enum class OpKind : std::uint32_t {
    kVerbatim = 1,      ///< run records over their full recorded ranges
    kTiledSegment = 2,  ///< skewed cache-blocked tiling of a segment
  };

  /// One schedule instruction. For kVerbatim, records
  /// groups[group][first .. first+count) run untiled. For kTiledSegment,
  /// the same records run tile-by-tile along dimension `dim` with tile
  /// edges in [lo, hi) of height h and per-record skews `skews`.
  struct Op {
    OpKind kind = OpKind::kVerbatim;
    std::int32_t group = 0;  ///< index into `groups`
    std::int32_t first = 0;  ///< first record (position within the group)
    std::int32_t count = 0;  ///< number of records covered
    std::int32_t dim = 0;    ///< tiled dimension (kTiledSegment)
    index_t lo = 0;          ///< tile-edge range start (skew-shifted coords)
    index_t hi = 0;          ///< tile-edge range end
    index_t h = 0;           ///< tile height (rows per tile)
    std::uint64_t tiles = 0;       ///< tiles this op contributes to stats
    std::uint64_t tiled_bytes = 0; ///< projected DRAM traffic contribution
    std::vector<index_t> skews;    ///< per-record tile-edge offsets
  };

  /// Record indices of the flushed chain, grouped by block in order of
  /// first appearance; every op names records through one group.
  std::vector<std::vector<std::int32_t>> groups;
  std::vector<Op> ops;
  /// Combined cache signature (topology x program x config x IR version)
  /// this schedule was planned under; 0 until planned through plan_for.
  std::uint64_t signature = 0;
};

/// A chain flush interrupted at a tile boundary (apl::cancel deadline /
/// user cancel / preemption): the records, their schedule and the first
/// (op, tile) step that did not run. Parked on the context; the next
/// flush point completes exactly the remaining steps (apl/chain.hpp).
using ChainResume = apl::chain::Resume<LoopRecord, ChainSchedule>;

/// Request for a chain schedule — the one public spelling for obtaining
/// one. `label` names the schedule in traces, diagnostics and cache file
/// names; `chain` is the queued loop chain to plan.
struct PlanRequest {
  std::string label = "chain";
  const std::vector<LoopRecord>* chain = nullptr;
};

/// Serializes a schedule into the section-framed Plan IR payload stored
/// in the on-disk plan cache (signature is carried by the container key,
/// not the payload).
std::vector<std::uint8_t> encode_schedule(const ChainSchedule& sched);

/// Decodes and validates an IR payload against the live chain it will
/// drive. Returns nullopt (with a "chain-ir: ..." diagnostic in *diag)
/// on any structural violation: group/record coverage, block mixing,
/// op ranges, skew monotonicity, tile heights.
std::optional<ChainSchedule> decode_schedule(
    std::span<const std::uint8_t> payload, const Context& ctx,
    const std::vector<LoopRecord>& chain, std::string* diag);

namespace detail {

/// Runs the dependency analysis over a flushed chain and compiles the
/// result into a schedule: grouping by block, skew computation, tile
/// segmentation, dry-pass traffic projection and the tiled-vs-verbatim
/// profitability decision. Internal — runtime call sites obtain
/// schedules through Context::plan_for, which consults the plan cache
/// first; reach for this only from tests and benches.
ChainSchedule analyze_chain(const Context& ctx,
                            const std::vector<LoopRecord>& chain);

/// One walk's step sequence over an OPS schedule (apl/chain.hpp): the
/// flattened (op, tile) pairs of its ops, each run through the op
/// dispatch table in lazy.cpp.
class ChainSteps {
 public:
  ChainSteps(const ChainSchedule& sched, const std::vector<LoopRecord>& chain);
  std::size_t size() const { return first_.back(); }
  void run(std::size_t step, apl::chain::Stats& stats) const;

 private:
  const ChainSchedule& sched_;
  const std::vector<LoopRecord>& chain_;
  std::vector<std::size_t> first_;  ///< first step of each op, then the total
};

}  // namespace detail

}  // namespace ops
