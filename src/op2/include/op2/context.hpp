// The OP2 context: owner of the mesh declaration and of all run-time
// machinery (backend selection, plan cache, per-loop profile, flop hints,
// apl::verify checking, checkpointing hooks).
//
// An application declares its sets, maps and dats once against a Context
// ("all data is handed over to the library"), then expresses computation
// as par_loop calls; everything else — layout, coloring, halo movement,
// checkpoint placement — is the library's business.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apl/chain.hpp"
#include "apl/exec.hpp"
#include "apl/profile.hpp"
#include "op2/arg.hpp"
#include "op2/lazy.hpp"
#include "op2/mesh.hpp"
#include "op2/plan.hpp"

namespace apl {
class ThreadPool;
}

namespace op2 {

class Checkpointer;

/// Per-loop device-model report filled in by the cudasim backend.
struct DeviceReport {
  std::uint64_t transactions = 0;
  std::uint64_t useful_bytes = 0;
  double efficiency = 1.0;  ///< useful / transferred bytes
};

/// The unified execution API (backend selection, apl::verify checking,
/// lazy mode, profile, flop hints) and the lazy chain engine (queue, flush
/// points, resume, chain stats) are the apl::chain::Engine base's
/// (apl/chain.hpp), shared with ops::Context. This family supplies the
/// sparse-tiling inspector and its step table (op2/lazy.hpp);
/// set_tiling() and set_tile_size() control the fusion.
class Context : public apl::chain::Engine<Context, LoopRecord, TileSchedule> {
public:
  Context() = default;

  // ---- declaration API (mirrors op_decl_set / op_decl_map / op_decl_dat)
  Set& decl_set(index_t size, const std::string& name);
  /// Distributed backend: declares a set whose first `core_size` elements
  /// are executed and the remainder are halo storage.
  Set& decl_set(index_t size, index_t core_size, const std::string& name);
  Map& decl_map(const Set& from, const Set& to, index_t arity,
                std::span<const index_t> table, const std::string& name);
  template <class T>
  Dat<T>& decl_dat(const Set& set, index_t dim, std::span<const T> init,
                   const std::string& name) {
    auto dat = std::make_unique<Dat<T>>(
        static_cast<index_t>(dats_.size()), set, dim, init, name);
    Dat<T>& ref = *dat;
    ref.attach_context(this, pending_flag());
    dats_.push_back(std::move(dat));
    topology_hash_.reset();
    return ref;
  }

  // ---- lookup
  const Set& set(index_t id) const { return *sets_.at(id); }
  const Map& map(index_t id) const { return *maps_.at(id); }
  DatBase& dat(index_t id) { return *dats_.at(id); }
  const DatBase& dat(index_t id) const { return *dats_.at(id); }
  index_t num_sets() const { return static_cast<index_t>(sets_.size()); }
  index_t num_maps() const { return static_cast<index_t>(maps_.size()); }
  index_t num_dats() const { return static_cast<index_t>(dats_.size()); }
  DatBase* find_dat(const std::string& name);
  Map* find_map(const std::string& name);

  // ---- execution configuration (beyond the apl::exec::ExecContext base)
  /// Elements per plan block (default 4096): the threads backend's unit
  /// of work and cudasim's staged thread block.
  index_t block_size() const { return block_size_; }
  void set_block_size(index_t b);
  /// cudasim: stage indirect data through shared memory (Fig. 7
  /// STAGE_NOSOA) instead of accessing global memory directly.
  bool staging() const { return staging_; }
  void set_staging(bool on) { staging_ = on; }

  // ---- lazy loop-chain execution (op2/lazy.hpp); the queue, flush and
  // resume surface is the shared chain engine's (apl/chain.hpp).
  /// Allow/forbid cross-loop sparse tiling; with tiling off (or when the
  /// traffic model vetoes fusion) lazy chains replay verbatim.
  bool tiling() const { return tiling_; }
  void set_tiling(bool on) {
    tiling_ = on;
    invalidate_plans();
  }
  /// Elements per tile; <= 0 sizes tiles automatically from the chain's
  /// cache footprint. An explicit size also overrides the profitability
  /// fallback (tests force tiny tiles on tiny meshes).
  index_t tile_size() const { return tile_size_; }
  void set_tile_size(index_t elems) {
    tile_size_ = elems;
    invalidate_plans();
  }
  /// Team for the threaded color-round tile executor. Non-owning; the
  /// pool must outlive every flush of this context, and must not be a
  /// pool the calling thread is itself a task worker of (the round
  /// barrier would wait on itself). nullptr (the default) makes the team
  /// backend-driven: the process pool when backend() == kThreads, serial
  /// rounds otherwise. Schedules do not depend on the executor, so
  /// changing the team never invalidates cached plans.
  void set_tile_team(apl::ThreadPool* pool) { tile_team_ = pool; }
  /// True when fused chains run through the color-round team executor.
  bool tile_team_enabled() const {
    return tile_team_ != nullptr ||
           backend() == apl::exec::Backend::kThreads;
  }
  /// The team rounds distribute over: the explicit override, else the
  /// process-wide pool (sized by OPAL_NUM_THREADS).
  apl::ThreadPool& tile_team() const;

  /// The tile schedule of a queued chain (kind "op2chain"), through the
  /// chain engine's memo, then the plan cache, then the inspector. Guarded
  /// mode (apl::verify::kPlan) race-audits every schedule it memoizes.
  const TileSchedule& plan_for(const ChainPlanRequest& req);

  // ---- run-time services used by par_loop
  /// The one public plan entry point: returns the (memoized) execution
  /// plan for the request, building it on demand. With the persistent
  /// plan cache enabled (OPAL_PLAN_CACHE), a first touch per process
  /// tries the on-disk Plan IR before running the inspector, and a fresh
  /// build is persisted for the next process. In guarded mode
  /// (apl::verify::kPlan) every returned plan — built or deserialized —
  /// passes the race audit first.
  const Plan& plan_for(const PlanRequest& req);

  /// Signature of everything plans depend on structurally: sets (size,
  /// core split), map tables, dat layouts. Cached; any declaration,
  /// permutation or layout change invalidates it. Per-rank contexts hash
  /// their own partition, which is what makes plan-cache keys
  /// partition-aware in the distributed layer.
  std::uint64_t topology_hash() const;
  DeviceReport& device_report(const std::string& loop_name) {
    return device_reports_[loop_name];
  }
  const std::map<std::string, DeviceReport>& device_reports() const {
    return device_reports_;
  }

  /// Number of distinct elements `map` reaches — the unique-data volume an
  /// indirect argument moves (cached; used for useful-byte accounting).
  index_t unique_targets(const Map& map) const;

  // ---- checkpointing hook (see op2/checkpoint.hpp)
  void attach_checkpointer(Checkpointer* c) { checkpointer_ = c; }
  Checkpointer* checkpointer() const { return checkpointer_; }

  // ---- fault injection (see apl/fault.hpp)
  /// Applies any pending corrupt_map trigger from the global Injector by
  /// overwriting one map table entry with an out-of-range index. Called at
  /// par_loop entry; guarded bounds checking is what then reports the
  /// damage with a named diagnostic.
  void apply_injected_faults();

  /// Guarded bounds validation (apl::verify::kBounds): every entry of `m`
  /// must land inside its target set. Run at declaration time and again
  /// after permutations rewrite tables; a no-op when the check is off.
  /// `when` names the phase in the diagnostic (e.g. "decl_map").
  void verify_map_bounds(const Map& m, const std::string& when);

  // ---- mesh transformations (paper Sec. IV/VI optimisations)
  /// Renumbers a set: old element e becomes perm[e]. All dats on the set
  /// are reordered and every map into or out of the set is rewritten, so
  /// the change is invisible to the application. Cached plans and
  /// unique-target counts are invalidated.
  void apply_permutation(const Set& set, std::span<const index_t> perm);
  /// Converts every dat to the given layout (AoS <-> SoA, Fig. 7).
  void convert_layout(Layout layout);

  /// Invalidates all cached plans (called after renumbering/layout change).
  void invalidate_plans();

private:
  // ---- the chain engine's family hooks (apl/chain.hpp, op2/lazy.cpp)
  friend class apl::chain::Engine<Context, LoopRecord, TileSchedule>;
  static constexpr apl::chain::Names kChainNames{
      "op2",        "chain_flush:op2chain", "chain_resume:op2chain",
      "op2::flush", "op2::tile",            "op2::round"};
  const TileSchedule& plan_chain(const std::vector<LoopRecord>& chain) {
    ChainPlanRequest req;
    req.chain = &chain;
    return plan_for(req);
  }
  bool begin_chain(const TileSchedule& sched,
                   const std::vector<LoopRecord>& chain,
                   apl::chain::Stats& stats, apl::trace::Span& span);
  detail::ChainSteps chain_steps(const TileSchedule& sched,
                                 const std::vector<LoopRecord>& chain,
                                 bool rounds);
  void account_chain(const TileSchedule& sched,
                     const std::vector<LoopRecord>& chain);

  struct PlanKey {
    std::string loop;
    index_t set_id;
    std::vector<ArgInfo> args;
    index_t block_size;
    bool operator==(const PlanKey&) const = default;
  };

  std::vector<std::unique_ptr<Set>> sets_;
  std::vector<std::unique_ptr<Map>> maps_;
  std::vector<std::unique_ptr<DatBase>> dats_;
  index_t block_size_ = 4096;
  bool staging_ = true;
  std::vector<std::pair<PlanKey, std::unique_ptr<Plan>>> plans_;
  std::map<std::string, DeviceReport> device_reports_;
  mutable std::map<index_t, index_t> unique_targets_cache_;
  mutable std::optional<std::uint64_t> topology_hash_;
  Checkpointer* checkpointer_ = nullptr;

  // Lazy loop-chain configuration (op2/lazy.hpp).
  bool tiling_ = true;
  index_t tile_size_ = 0;
  apl::ThreadPool* tile_team_ = nullptr;  ///< non-owning executor override
};

/// Out-of-line: needs the complete Context type.
template <class T>
DatBase& Dat<T>::declare_like(Context& ctx, const Set& set) const {
  return ctx.decl_dat<T>(set, dim_, std::span<const T>{}, name_);
}

}  // namespace op2
