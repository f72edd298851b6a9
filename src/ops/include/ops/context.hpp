// The OPS context: owner of blocks, stencils, datasets, inter-block halos
// and run-time configuration.
//
// Execution configuration (backend, apl::verify checking, lazy mode,
// profile, flop hints) and the lazy chain engine (queue, flush points,
// resume, chain stats) come from the apl::chain::Engine base
// (apl/chain.hpp), shared with op2::Context. This family supplies the
// cross-loop cache-blocked tiling analysis and its step table
// (ops/lazy.hpp).
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
#include "ops/arg.hpp"
#include "ops/core.hpp"
#include "ops/lazy.hpp"

namespace ops {

class Checkpointer;

class Context : public apl::chain::Engine<Context, LoopRecord, ChainSchedule> {
public:
  Context() = default;

  // ---- declarations (ops_decl_block / _stencil / _dat)
  Block& decl_block(int ndim, const std::string& name);
  Stencil& decl_stencil(int ndim,
                        std::vector<std::array<int, kMaxDim>> points,
                        const std::string& name);
  /// Common stencils by name: "point" (centre only) and symmetric
  /// box/cross stencils built on demand.
  Stencil& stencil_point(int ndim);

  template <class T>
  Dat<T>& decl_dat(const Block& block, index_t dim,
                   std::array<index_t, kMaxDim> size,
                   std::array<index_t, kMaxDim> d_m,
                   std::array<index_t, kMaxDim> d_p,
                   const std::string& name) {
    auto dat = std::make_unique<Dat<T>>(static_cast<index_t>(dats_.size()),
                                        block, dim, size, d_m, d_p, name);
    Dat<T>& ref = *dat;
    ref.attach_context(this, pending_flag());
    dats_.push_back(std::move(dat));
    topology_hash_.reset();
    return ref;
  }

  const Block& block(index_t id) const { return *blocks_.at(id); }
  const Stencil& stencil(index_t id) const { return *stencils_.at(id); }
  DatBase& dat(index_t id) { return *dats_.at(id); }
  const DatBase& dat(index_t id) const { return *dats_.at(id); }
  index_t num_blocks() const { return static_cast<index_t>(blocks_.size()); }
  index_t num_stencils() const {
    return static_cast<index_t>(stencils_.size());
  }
  index_t num_dats() const { return static_cast<index_t>(dats_.size()); }
  DatBase* find_dat(const std::string& name);

  // ---- lazy loop-chain tiling (ops/lazy.hpp)
  /// Cross-loop cache-blocked tiling of flushed chains (default on). With
  /// tiling off a flush replays the queue verbatim — the bit-comparable
  /// validation baseline.
  bool tiling() const { return tiling_; }
  void set_tiling(bool on) { tiling_ = on; }
  /// Tile height (grid rows per tile along the outermost dimension);
  /// 0 picks a height whose chain working set fits the cache budget.
  index_t tile_rows() const { return tile_rows_; }
  void set_tile_rows(index_t rows) { tile_rows_ = rows; }
  /// The compiled schedule of a queued chain (kind "ops"), through the
  /// chain engine's memo, then the plan cache, then detail::analyze_chain.
  /// The reference stays valid for the lifetime of the context.
  const ChainSchedule& plan_for(const PlanRequest& req);

  /// Signature of the declared topology (blocks, stencils, dataset
  /// shapes) — one input of the plan-cache key. Memoized; any later
  /// declaration invalidates it.
  std::uint64_t topology_hash() const;

  // ---- checkpointing (ops/checkpoint.hpp)
  void attach_checkpointer(Checkpointer* ck) { checkpointer_ = ck; }
  Checkpointer* checkpointer() const { return checkpointer_; }

private:
  // ---- the chain engine's family hooks (apl/chain.hpp, ops/lazy.cpp)
  friend class apl::chain::Engine<Context, LoopRecord, ChainSchedule>;
  static constexpr apl::chain::Names kChainNames{
      "ops",        "chain_flush", "chain_resume",
      "ops::flush", "ops::tile",   "ops::round"};
  const ChainSchedule& plan_chain(const std::vector<LoopRecord>& chain) {
    return plan_for({"chain", &chain});
  }
  bool begin_chain(const ChainSchedule& sched,
                   const std::vector<LoopRecord>& chain,
                   apl::chain::Stats& stats, apl::trace::Span& span);
  detail::ChainSteps chain_steps(const ChainSchedule& sched,
                                 const std::vector<LoopRecord>& chain,
                                 bool rounds);
  void account_chain(const ChainSchedule& sched,
                     const std::vector<LoopRecord>& chain);

  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<std::unique_ptr<Stencil>> stencils_;
  std::vector<std::unique_ptr<DatBase>> dats_;
  std::map<int, index_t> point_stencils_;  ///< ndim -> stencil id
  mutable std::optional<std::uint64_t> topology_hash_;
  bool tiling_ = true;
  index_t tile_rows_ = 0;
  Checkpointer* checkpointer_ = nullptr;
};

/// Out-of-line (needs the complete Context).
template <class T>
DatBase& Dat<T>::declare_like(Context& ctx, const Block& block,
                              std::array<index_t, kMaxDim> size) const {
  return ctx.decl_dat<T>(block, dim_, size, d_m_, d_p_, name_);
}

/// Centre-point dataset argument — the common case of a dat read/written
/// only at the iteration point, mirroring op2::arg's direct form so both
/// layers spell simple arguments the same way. The explicit-stencil
/// overload lives in ops/arg.hpp.
template <class T>
ArgDat<T> arg(Dat<T>& dat, Access acc) {
  apl::require(dat.context() != nullptr, "ops::arg: dat '", dat.name(),
               "' was not declared through a Context");
  return arg(dat, dat.context()->stencil_point(dat.block().ndim()), acc);
}

}  // namespace ops
