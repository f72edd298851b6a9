// The permanent-failure rungs of the resilience ladder, owned once for
// every distributed front end (op2::Distributed, ops::Distributed). The
// transient rung is retry_exchange (retry.hpp); this class takes over when
// a rank is gone for good:
//
//   recover_auto consults apl::resilience::policy() and picks a rung —
//   revive rollback, shrink-and-continue (bounded by the shrink budget),
//   replicated single-rank fallback, or a named LadderExhausted error.
//   recover_outcome reports the same as data.
//
// Both recovery rungs run one skeleton: load the checkpoint, validate its
// layout, then revive or shrink the communicator, restore the global
// dats, rebuild the rank replicas, and account the replica bytes as
// recovery traffic (the Traffic ledger and a "<recover>" profile row).
// Loading and validation come first, so a missing or mismatched
// checkpoint fails while the communicator, its failed-rank set and the
// rank replicas are exactly as the failure left them.
//
// The ladder also writes the checkpoints it restores (dats, step, rank
// count). A front end derives from Ladder and supplies its family name
// ("op2", "ops": the prefix of ladder messages) and the hooks below, which
// run only while checkpointing or recovering.
#pragma once

#include <cstdint>
#include <string>

#include "apl/io/ckpt.hpp"
#include "apl/mpisim/comm.hpp"
#include "apl/profile.hpp"
#include "apl/resilience.hpp"

namespace apl::mpisim {

class Ladder {
 public:
  /// Collective checkpoint: gathers authoritative owner values of every
  /// dat into the global context and writes one crash-safe snapshot
  /// tagged with the caller's `step` and the writing rank count.
  void checkpoint(io::CheckpointStore& store, std::int64_t step);
  /// Collective rollback after a rank failure: revives all ranks, discards
  /// in-flight messages, restores every dat from the last good checkpoint
  /// and re-scatters it. Returns the step recorded at checkpoint time.
  std::int64_t recover(io::CheckpointStore& store);
  /// Shrink-and-continue recovery (ULFM-style): removes the failed ranks,
  /// redistributes over the survivors, restores every dat from the last
  /// good checkpoint, and resumes — bitwise-identical to a failure-free
  /// run at that rank count. Returns the step recorded at checkpoint time.
  std::int64_t shrink_recover(io::CheckpointStore& store);
  /// The degradation ladder: takes the policy's rung for a permanent rank
  /// loss. Never hangs.
  std::int64_t recover_auto(io::CheckpointStore& store);
  /// recover_auto with the result *as data*: the rung reached, the resume
  /// step, the ledger deltas (retries/shrinks/backoff/MTTR) this recovery
  /// cost, and — on failure — the named error kind instead of a throw.
  /// LadderExhausted and recovery errors are absorbed into the Outcome;
  /// anything non-resilience (e.g. a fresh injected Kill) still throws.
  resilience::Outcome recover_outcome(io::CheckpointStore& store);
  /// Shrink-and-continue recoveries performed so far.
  int shrinks_done() const { return shrinks_done_; }

  virtual Comm& comm() = 0;

 protected:
  /// `profile` receives the "<recover>" rows; it must outlive the ladder.
  Ladder(const char* family, Profile& profile)
      : family_(family), profile_(&profile) {}
  ~Ladder() = default;

 private:
  /// Writes every global dat, gathered from the ranks, into `file`.
  virtual void dump_global(io::File& file) = 0;
  /// Throws a named expected-vs-found error when `file`'s dat layout does
  /// not fit this mesh, ending the message with `origin` (the writing and
  /// restoring rank counts, when the checkpoint recorded its count).
  virtual void validate_layout(const io::File& file,
                               const std::string& origin) const = 0;
  /// Loads the checkpointed dats into the global context.
  virtual void restore_global(const io::File& file) = 0;
  /// Re-establishes the rank replicas from the global dats: re-scatters
  /// into the existing ones, or (`shrunk`) re-derives the distribution at
  /// the survivor count and builds fresh rank contexts.
  virtual void rebuild_ranks(bool shrunk) = 0;
  /// Bytes the rank replicas hold: the recovery traffic of a rebuild.
  virtual std::uint64_t replica_bytes() const = 0;

  std::int64_t restore(io::CheckpointStore& store, bool shrink);

  const char* family_;
  Profile* profile_;
  int shrinks_done_ = 0;
};

}  // namespace apl::mpisim
