// The distributed-memory layer of OP2 (paper Sec. II-B):
//
//   "using the up-front definition of the mesh and the access-execute
//    description of computations, they automatically perform partitioning
//    across processes and use standard halo exchanges, exchanging halo
//    messages on-demand based on the type of access and the stencils."
//
// A Distributed wraps a fully declared Context: it partitions one base set
// (naive block / RCB / k-way graph-growing, the PT-Scotch/ParMetis stand-
// in), derives consistent partitions for every other set through the maps,
// and builds one private Context per rank — owned elements first, ghost
// copies of remotely-owned map targets after. par_loop then runs the loop
// on every rank over its owned elements only:
//
//   * an indirect read of a dat whose halo is stale triggers an exchange
//     (owners push current values to ghost holders) — the on-demand,
//     dirty-bit-driven messaging of the paper;
//   * indirect increments accumulate into zeroed ghost slots and are
//     flushed to the owners after the loop;
//   * a global reduction's work unit is the rank (apl::exec::split): the
//     per-rank partials combine through the simulated communicator's
//     allreduce (apl::mpisim::allreduce_commit).
//
// Each rank's loop goes through the ordinary op2::par_loop, so the
// node-level backend composes underneath (rank contexts on apl::exec::Backend::kThreads
// give the paper's MPI+OpenMP hybrid; apl::exec::Backend::kCudaSim gives MPI+CUDA).
// All message traffic flows through apl::mpisim::Comm and is metered for
// the scaling projections of Figs. 4 and 6.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "apl/graph/partition.hpp"
#include "apl/mpisim/comm.hpp"
#include "apl/mpisim/ladder.hpp"
#include "op2/context.hpp"
#include "op2/par_loop.hpp"

namespace op2 {

/// Decodes a partition-cache payload (one "OWNR" section: the base set's
/// element -> rank vector) and validates it against the `n` elements and
/// `nranks` ranks it must cover. Returns std::nullopt with `*diag` naming
/// the defect otherwise; the caller then repartitions fresh.
std::optional<std::vector<index_t>> decode_partition(
    std::span<const std::uint8_t> payload, index_t n, int nranks,
    std::string* diag);

class Distributed final : public apl::mpisim::Ladder {
public:
  /// Partitions `base_set` of `ctx` with `method` across `nranks` ranks and
  /// derives every other set's partition through the maps. `coords` (a dat
  /// on base_set) is required for RCB and ignored otherwise. The global
  /// context stays intact; rank replicas carry the scattered data.
  Distributed(Context& ctx, int nranks, apl::graph::PartitionMethod method,
              const Set& base_set, const DatBase* coords = nullptr);

  int num_ranks() const { return comm_.size(); }
  apl::mpisim::Comm& comm() override { return comm_; }
  const apl::mpisim::Comm& comm() const { return comm_; }
  Context& rank_context(int r) { return *rank_ctx_[r]; }
  Context& global_context() { return *global_; }

  /// Node-level backend the rank loops execute with (hybrid composition).
  void set_node_backend(apl::exec::Backend b);

  /// Lazy loop-chain execution with sparse tiling on every rank context
  /// (op2/lazy.hpp). No distributed-specific flush plumbing is needed:
  /// halo exchanges, increment flushes, ghost zeroing, fetch/scatter and
  /// checkpoints all reach rank data through the DatBase pack/unpack/add
  /// hooks, each of which drains the owning rank's queued chain first —
  /// in particular an exchange flushes the *reader* rank's chain before
  /// overwriting its ghost slots, and an increment flush materializes the
  /// producing rank's queued kInc loop before shipping the ghost-slot
  /// sums. Rank-level reductions flush at the rank par_loop itself (the
  /// result is read back immediately), so program order is preserved
  /// exactly as in the replicated case.
  void set_lazy(bool on);
  void set_tiling(bool on);
  void set_tile_size(index_t elems);

  index_t owned_count(const Set& global_set, int rank) const;
  index_t ghost_count(const Set& global_set, int rank) const;
  /// Total ghost entries across ranks — the per-iteration halo volume.
  index_t total_ghosts(const Set& global_set) const;

  /// Runs a parallel loop over the distributed `global_set`. Arguments
  /// reference *global* dats; the wrapper resolves per-rank replicas.
  /// Restrictions (checked): indirect args must be kRead or kInc, and a dat
  /// may not be both indirectly read and indirectly incremented in the
  /// same loop.
  template <class Kernel, class... Args>
  void par_loop(const std::string& name, const Set& global_set,
                Kernel&& kernel, Args... args);

  /// Copies a dat's authoritative (owner) values back into the global
  /// context's dat, e.g. for verification or output.
  void fetch(DatBase& global_dat);

  /// Pushes the global context's current dat contents out to the ranks
  /// (owned values and ghosts), e.g. after host-side re-initialization.
  void scatter(DatBase& global_dat);

  // Checkpointing and rank-failure recovery (checkpoint, recover,
  // shrink_recover, recover_auto, recover_outcome, shrinks_done) are
  // apl::mpisim::Ladder's; shrinking repartitions the mesh over the
  // survivors, reusing the plan/partition cache when warm.

private:
  struct SetDist {
    std::vector<index_t> owner;                 ///< global element -> rank
    std::vector<std::vector<index_t>> owned;    ///< rank -> global ids
    std::vector<std::vector<index_t>> ghosts;   ///< rank -> global ids
    std::vector<std::vector<index_t>> local_of; ///< rank -> global -> local
  };

  void partition_sets(apl::graph::PartitionMethod method, const Set& base,
                      const DatBase* coords);
  void build_rank_contexts();
  // ---- apl::mpisim::Ladder hooks
  void dump_global(apl::io::File& file) override;
  /// Named expected-vs-found diagnostic for a checkpoint whose dat layout
  /// does not match this mesh (e.g. restoring another app's snapshot),
  /// instead of a generic size-mismatch deep inside the scatter.
  void validate_layout(const apl::io::File& file,
                       const std::string& origin) const override;
  void restore_global(const apl::io::File& file) override;
  void rebuild_ranks(bool shrunk) override;
  std::uint64_t replica_bytes() const override;
  void validate_args(const std::string& name,
                     const std::vector<ArgInfo>& infos) const;
  /// Owners push current values of dat `d` into every ghost copy.
  void exchange_halo(index_t dat_id, apl::LoopStats* stats);
  /// Guarded halo consistency (apl::verify::kHalo): proves every ghost
  /// copy a loop is about to read bitwise-matches its owner's current
  /// value, i.e. the dirty-bit tracking exchanged it since the owner last
  /// wrote. Reports the first stale (rank, element) pair otherwise.
  void verify_halo_coherence(const std::string& loop, index_t dat_id);
  /// Ghost-slot increments of dat `d` are sent to and added at the owners.
  void flush_increments(index_t dat_id, apl::LoopStats* stats);
  void zero_ghosts(index_t dat_id);

  Context* global_;
  apl::mpisim::Comm comm_;
  std::vector<SetDist> set_dist_;                 ///< by global set id
  std::vector<std::unique_ptr<Context>> rank_ctx_;
  std::vector<char> halo_dirty_;                  ///< by global dat id
  // Partition inputs, remembered so shrink_recover can re-derive the
  // distribution at the survivor count from the global mesh alone.
  apl::graph::PartitionMethod method_;
  index_t base_set_id_;
  index_t coords_id_ = -1;
  std::optional<apl::exec::Backend> node_backend_;
  // Lazy-engine settings, remembered because shrink_recover rebuilds the
  // rank contexts.
  bool rank_lazy_ = false;
  bool rank_tiling_ = true;
  index_t rank_tile_size_ = 0;

  // ---- typed helpers for the par_loop template ---------------------------

  template <class T>
  ArgDat<T> rank_arg(const ArgDat<T>& a, int r) {
    Dat<T>* local = static_cast<Dat<T>*>(
        &rank_ctx_[r]->dat(a.dat->id()));
    const Map* local_map =
        a.map ? &rank_ctx_[r]->map(a.map->id()) : nullptr;
    return ArgDat<T>{local, local_map, a.idx, a.acc};
  }

  /// A rank's view of a global: the rank's work unit (apl::exec::thaw).
  template <class T>
  ArgGbl<T> rank_arg(const ArgGbl<T>& g, int /*r*/) {
    return g;
  }
};

// ---- par_loop ---------------------------------------------------------------

template <class Kernel, class... Args>
void Distributed::par_loop(const std::string& name, const Set& global_set,
                           Kernel&& kernel, Args... args) {
  std::vector<ArgInfo> infos{args.info()...};
  validate_args(name, infos);
  apl::LoopStats& stats = global_->profile().stats(name);

  // On-demand halo exchanges for indirectly read dats with stale ghosts.
  for (const ArgInfo& a : infos) {
    if (!a.is_gbl && a.indirect() && a.acc == apl::exec::Access::kRead &&
        halo_dirty_[a.dat_id]) {
      exchange_halo(a.dat_id, &stats);
      halo_dirty_[a.dat_id] = 0;
    }
  }
  // Guarded halo consistency: after the exchange decisions, every ghost
  // copy about to be read must match its owner's current value.
  if (global_->verifying(apl::verify::kHalo)) [[unlikely]] {
    std::vector<index_t> checked;
    for (const ArgInfo& a : infos) {
      if (!a.is_gbl && a.indirect() && a.acc == apl::exec::Access::kRead &&
          std::find(checked.begin(), checked.end(), a.dat_id) ==
              checked.end()) {
        verify_halo_coherence(name, a.dat_id);
        checked.push_back(a.dat_id);
      }
    }
  }
  // Zero ghost slots of indirectly incremented dats (accumulators).
  for (const ArgInfo& a : infos) {
    if (!a.is_gbl && a.indirect() && a.acc == apl::exec::Access::kInc) {
      zero_ghosts(a.dat_id);
    }
  }

  // A reduction's work unit is the rank: its partials allreduce in rank
  // order once every rank has run.
  auto units = std::make_tuple(apl::exec::hold(args)...);
  apl::exec::split_all(units, static_cast<std::size_t>(num_ranks()));
  {
    apl::ScopedLoopTimer timer(global_->profile(), name);
    for (int r = 0; r < num_ranks(); ++r) {
      // Attribute the rank's sub-invocation spans (its par_loop, color
      // rounds) to rank r in the trace.
      apl::trace::RankScope rank_scope(r);
      Context& rc = *rank_ctx_[r];
      const Set& rset = rc.set(global_set.id());
      std::apply(
          [&](auto&... u) {
            op2::par_loop(
                rc, name, rset, kernel,
                rank_arg(apl::exec::thaw(u, static_cast<std::size_t>(r)),
                         r)...);
          },
          units);
    }
  }
  // Logical per-loop traffic (useful bytes) against the global mesh.
  // Re-resolved: the user kernel ran above and may have cleared profiles
  // (ScopedLoopTimer lifetime rule, apl/profile.hpp).
  apl::LoopStats& stats_after = global_->profile().stats(name);
  detail::account_traffic(*global_, name, global_set, infos, stats_after);

  // Reductions and increment flushes. A dat may appear in several Inc args
  // (e.g. both endpoints of an edge); its ghost slots are flushed once.
  std::apply(
      [&](auto&... u) { (apl::mpisim::allreduce_commit(comm_, u), ...); },
      units);
  std::vector<index_t> flushed;
  for (const ArgInfo& a : infos) {
    if (a.is_gbl) continue;
    if (a.indirect() && a.acc == apl::exec::Access::kInc) {
      if (std::find(flushed.begin(), flushed.end(), a.dat_id) ==
          flushed.end()) {
        flush_increments(a.dat_id, &stats_after);
        flushed.push_back(a.dat_id);
      }
      halo_dirty_[a.dat_id] = 1;
    } else if (writes(a.acc)) {
      halo_dirty_[a.dat_id] = 1;
    }
  }
}

}  // namespace op2
