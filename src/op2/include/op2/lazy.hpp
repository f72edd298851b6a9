// Lazy loop-chain execution with inspector/executor sparse tiling for
// unstructured meshes.
//
// With Context::set_lazy(true), op2::par_loop enqueues a LoopRecord into
// the shared chain engine's queue (apl/chain.hpp lists the flush points;
// here an attached checkpointer or kAccess guarding also drains the queue
// and runs the loop eagerly).
//
// At a flush the *inspector* walks the queued loops' maps and access
// descriptors and grows sparse tiles by wavefront over the shared dats
// (the unstructured analogue of the OPS skewed tiling, following the
// loop-chaining / sparse-tiling line of work the paper builds on): each
// loop l in the chain is split into ntiles contiguous element slices with
// monotone boundaries B[l][0..ntiles], chosen so that every cross-loop
// dependence (a later loop touching an entry an earlier loop wrote, or
// overwriting an entry an earlier loop read) lands in the same or a later
// tile. The *executor* then runs tiles in ascending order, and within a
// tile the loops in chain order — so values written by loop k and read by
// loop k+1 stay cache-resident instead of round-tripping through memory.
//
// On top of the tile order the inspector lays a *layered coloring*: a
// tile's color is one more than the highest color among earlier tiles it
// conflicts with, so colors are simultaneously conflict-free (same-color
// tiles share no written entry) and order-preserving (colors strictly
// increase along every dependence). Colors are therefore execution
// *rounds*: when the context has a tile team (set_tile_team, or the
// threads backend), the executor runs rounds in ascending color order,
// distributes each round's tiles over apl::ThreadPool::run_team, and
// barriers between rounds — still bitwise-identical to the serial walk
// (see the legality argument in DESIGN.md §15).
//
// Correctness (the fusion legality rule): because each loop's slices are
// contiguous and their boundaries monotone, every loop still visits its
// elements in ascending order overall, and the wavefront constraint
//     tile(l, e)  >=  tile(k, e')      for every dependent pair (k<l)
// guarantees each dependence source executes no later than its sink (same
// tile ⇒ chain order decides, exactly as in eager execution). The tiled
// schedule is therefore a *reordering-free* re-schedule: sequential tiled
// execution leaves every dat bitwise identical to eager sequential
// execution, which is what the testkit differential matrix asserts. The
// one value tiling reassociates is a global reduction: each tile is its
// work unit (apl::exec::split) and accumulates its own partials, folded
// in ascending tile order once the chain completes, so the result is
// identical across the serial walk and every team size and within a ULP
// bound of eager execution.
//
// Tile schedules compile into the Plan IR (section-framed payload, kind
// "op2chain", versioned by op2::kPlanIrVersion) and persist in
// apl::plan_cache::Store keyed by topology x program x config — warm
// starts skip inspection entirely (proved by trace spans: a warm flush
// emits chain_hit:, never chain_analyze:). The engine's steps here are
// records (verbatim), tiles (serial walk) or color rounds (team); cancel
// and preemption take effect between them (apl/chain.hpp). Execution
// emits one kChain span per flush and a kTile span per tile slice.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apl/chain.hpp"
#include "op2/arg.hpp"
#include "op2/mesh.hpp"

namespace op2 {

class Context;

/// One queued parallel loop: everything the inspector needs (target set +
/// argument descriptors), plus type-erased executors sharing the loop's
/// frozen arguments. `run_full` replays the loop through the context's
/// full eager backend dispatch (used by unfused schedules); `run_slice`
/// runs elements [lo, hi) of tile `tile` in ascending order (used by tiled
/// schedules; slices of different tiles may run concurrently). For a loop
/// with a global reduction, `split` gives each of a fused walk's tiles
/// its own partials and `commit` stores the result in the caller's target
/// (apl::exec, when apl/chain.hpp says); both are no-ops otherwise.
struct LoopRecord {
  std::string name;
  const Set* set = nullptr;
  index_t n = 0;  ///< core_size at enqueue time
  std::vector<ArgInfo> infos;
  std::function<void()> run_full;
  std::function<void(index_t lo, index_t hi, index_t tile)> run_slice;
  std::function<void(index_t ntiles)> split;
  std::function<void()> commit;
};

/// Lazy-engine statistics (apl/chain.hpp), exposed through
/// Context::chain_stats(), gated by bench_report --check-op2-tiling and
/// reported per iteration by perfbench.
using ChainStats = apl::chain::Stats;

/// Compiled execution schedule of one flushed chain — the inspector's
/// output with the inspection itself stripped away. When `fused` is
/// false the chain replays verbatim (run_full per record, the
/// profitability fallback). When true, tile t runs, for each loop l in
/// chain order, the element slice [bounds[l][t], bounds[l][t+1]).
///
/// `colors` is a layered conflict-free coloring of the tiles: same-color
/// tiles share no written entry, and colors strictly increase along
/// every cross-tile dependence (the writer's color is always lower than
/// its readers' and overwriters'). Colors are therefore execution
/// rounds — the threaded executor runs color c's tiles concurrently
/// after all colors < c have finished, which the ordering property makes
/// bitwise-identical to the serial ascending-tile walk. Global reductions
/// accumulate per tile and fold in ascending tile order, so they too are
/// identical across the serial walk and every team size (and within the
/// reassociation ULP bound of eager execution).
struct TileSchedule {
  bool fused = false;
  index_t ntiles = 0;
  std::int32_t ncolors = 0;
  std::vector<index_t> loop_n;  ///< per-record core sizes (validation)
  std::vector<std::vector<index_t>> bounds;  ///< [loop][ntiles+1], monotone
  std::vector<std::int32_t> colors;          ///< [ntiles]
  /// Traffic projection the fused-vs-verbatim decision was made on.
  std::uint64_t eager_bytes = 0;
  std::uint64_t fused_bytes = 0;
  /// Combined cache signature (topology x program x config x IR version)
  /// this schedule was planned under; 0 until planned through plan_for.
  std::uint64_t signature = 0;
};

/// Request for a chain tile schedule — the one public spelling for
/// obtaining one (Context::plan_for overload, mirroring the colored-plan
/// and OPS chain-schedule requests). `label` names the schedule in
/// traces, diagnostics and cache file names.
struct ChainPlanRequest {
  std::string label = "op2chain";
  const std::vector<LoopRecord>* chain = nullptr;
};

/// A chain flush interrupted at a step boundary (apl::cancel deadline /
/// user cancel / preemption): the not-yet-executed remainder, parked on
/// the context until the next flush point completes exactly the
/// remaining steps. `next` is the next tile (fused), record (unfused) or
/// color round (when `rounds`: the chain parked at a round boundary of
/// the threaded executor and resumes round-wise, degrading to
/// serial-within-rounds if the team has been disabled meanwhile).
using ChainResume = apl::chain::Resume<LoopRecord, TileSchedule>;

/// Serializes a tile schedule into the section-framed Plan IR payload
/// stored in the on-disk plan cache (kind "op2chain"; the signature is
/// carried by the container key, not the payload).
std::vector<std::uint8_t> encode_tile_schedule(const TileSchedule& sched);

/// Decodes and validates an IR payload against the live chain it will
/// drive. Returns nullopt (with an "op2chain-ir: ..." diagnostic in
/// *diag) on any structural violation: record-count or per-loop size
/// mismatch, non-monotone or non-covering slice boundaries, color range.
std::optional<TileSchedule> decode_tile_schedule(
    std::span<const std::uint8_t> payload,
    const std::vector<LoopRecord>& chain, std::string* diag);

/// Race/dependency audit of a tile schedule against its live chain
/// (apl::verify::kPlan). Replays the wavefront constraints and returns ""
/// when the schedule is dependence-preserving, otherwise a diagnostic
/// naming the exact loop, dat and element of the first violation:
/// slice coverage, boundary monotonicity, every cross-loop dependence
/// landing in a same-or-later tile, and round legality — the color
/// strictly increases along every cross-tile conflict, which subsumes
/// same-color independence and is exactly what licenses the threaded
/// color-round executor.
std::string audit_tile_schedule(const Context& ctx,
                                const std::vector<LoopRecord>& chain,
                                const TileSchedule& sched);

namespace detail {

/// The inspector: walks the queued loops' maps and access descriptors
/// and builds the sparse tile schedule by wavefront growth (see file
/// header). Internal — runtime call sites obtain schedules through
/// Context::plan_for, which consults the plan cache first; reach for
/// this only from tests and benches.
TileSchedule build_tile_schedule(const Context& ctx,
                                 const std::vector<LoopRecord>& chain);

/// One walk's step sequence over an op2 schedule (apl/chain.hpp): whole
/// records for a verbatim schedule, tiles for the serial fused walk, or
/// color rounds for the team — `step` is the step kind's executor.
struct ChainSteps {
  ChainSteps(Context& c, const TileSchedule& s,
             const std::vector<LoopRecord>& records, bool by_round);
  std::size_t size() const { return count; }
  void run(std::size_t i, apl::chain::Stats& stats) const {
    step(*this, i, stats);
  }

  Context& ctx;
  const TileSchedule& sched;
  const std::vector<LoopRecord>& chain;
  std::vector<std::vector<index_t>> rounds;  ///< tiles per color (rounds)
  std::size_t count = 0;
  void (*step)(const ChainSteps&, std::size_t, apl::chain::Stats&) = nullptr;
};

}  // namespace detail

}  // namespace op2
