// Simulated distributed-memory runtime.
//
// The paper's MPI backends partition the mesh up front and exchange halos
// on demand, driven by the access-execute loop descriptions. Here the same
// algorithms run inside one process: a Comm holds R ranks; the op2/ops mpi
// backends keep fully private per-rank data and move bytes only through
// Comm::send/recv, so the communication structure (who talks to whom, how
// many bytes, how many messages) is exactly what a real MPI run would
// produce. The Traffic ledger feeds the alpha-beta network model for the
// scaling projections (Figs. 4 and 6).
//
// Resilience semantics (PR 7): every message carries the communicator
// epoch, a process-unique sequence number, and a payload checksum. The
// fault injector can drop, duplicate, or corrupt individual sends; the
// exchange ledger (begin/finish/abort_exchange) detects all three and
// reports them as apl::fault::CommFault — the transient failure class the
// resilience policy answers with a bounded retry. `shrink()` implements
// ULFM-style shrinking recovery: survivors are densely re-ranked, the
// epoch advances, and messages from dead epochs are rejected on receipt.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <type_traits>
#include <vector>

#include "apl/error.hpp"
#include "apl/exec.hpp"
#include "apl/fault.hpp"

namespace apl::mpisim {

/// Per-run communication ledger.
class Traffic {
public:
  void record(int src, int dst, std::uint64_t bytes) {
    ++messages_;
    total_bytes_ += bytes;
    per_rank_sent_[src] += bytes;
    peers_[src].insert_or_assign(dst, true);
  }
  void record_allreduce(std::uint64_t bytes) {
    ++allreduces_;
    total_bytes_ += bytes;
  }
  /// Recovery: bytes moved to re-establish rank state from the last good
  /// checkpoint (scatter + halo refresh after a rank failure), plus the
  /// wall-clock seconds the recovery took — the numerator of MTTR.
  void record_recovery(std::uint64_t bytes, double seconds = 0.0) {
    ++recoveries_;
    recovery_bytes_ += bytes;
    recovery_seconds_ += seconds;
    total_bytes_ += bytes;
  }
  /// A transient-fault retry of one exchange, with the simulated backoff
  /// delay the policy imposed (recorded, not slept).
  void record_retry(double backoff_seconds) {
    ++retries_;
    retry_backoff_seconds_ += backoff_seconds;
  }
  /// A permanent failure answered by shrinking the communicator.
  void record_shrink() { ++shrinks_; }

  std::uint64_t messages() const { return messages_; }
  std::uint64_t allreduces() const { return allreduces_; }
  std::uint64_t recoveries() const { return recoveries_; }
  std::uint64_t recovery_bytes() const { return recovery_bytes_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t shrinks() const { return shrinks_; }
  double retry_backoff_seconds() const { return retry_backoff_seconds_; }
  double recovery_seconds() const { return recovery_seconds_; }
  /// Mean time to repair: recovery seconds per recovery event (0 when the
  /// run never recovered).
  double mttr() const {
    return recoveries_ == 0 ? 0.0
                            : recovery_seconds_ / static_cast<double>(recoveries_);
  }
  std::uint64_t total_bytes() const { return total_bytes_; }
  /// Heaviest sender's byte count — the rank that bounds exchange time.
  std::uint64_t max_rank_bytes() const;
  /// Max number of distinct destinations any rank sends to.
  int max_rank_peers() const;
  /// Re-keys the per-rank tallies after a communicator shrink:
  /// old_to_new[r] is the survivor's new rank, or -1 for a dead rank,
  /// whose tallies are dropped (its bytes stay in the run totals).
  void remap_ranks(const std::vector<int>& old_to_new);
  void reset();

private:
  std::uint64_t messages_ = 0;
  std::uint64_t allreduces_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t recovery_bytes_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t shrinks_ = 0;
  double retry_backoff_seconds_ = 0.0;
  double recovery_seconds_ = 0.0;
  std::uint64_t total_bytes_ = 0;
  std::map<int, std::uint64_t> per_rank_sent_;
  std::map<int, std::map<int, bool>> peers_;
};

/// A communicator of `size` simulated ranks with mailbox-style message
/// queues. Usage follows a phased SPMD pattern: a loop over ranks posts
/// sends, a second loop receives — matching MPI_Isend/Irecv + Waitall.
class Comm {
public:
  explicit Comm(int size) : size_(size), mailboxes_(size) {
    apl::require(size > 0, "mpisim: communicator size must be positive");
  }

  int size() const { return size_; }
  /// Communicator generation: starts at 0, advances on every shrink().
  int epoch() const { return epoch_; }

  /// Posts a message; bytes are copied into the destination mailbox. The
  /// fault injector may drop, duplicate, or corrupt it in flight.
  void send(int src, int dst, int tag, std::span<const std::uint8_t> bytes);

  /// Pops the matching message; throws if none was posted (a deterministic
  /// simulation must never wait). Stale-epoch messages matching (src, tag)
  /// are purged and counted, never delivered. Throws fault::CommFault on a
  /// checksum mismatch, a duplicated delivery, or a message known dropped.
  std::vector<std::uint8_t> recv(int dst, int src, int tag);

  /// True if a current-epoch matching message is queued.
  bool has_message(int dst, int src, int tag) const;

  /// Messages rejected (purged on receipt) because they were posted under
  /// an older epoch than the receiver's.
  std::uint64_t stale_rejected() const { return stale_rejected_; }

  // ---- rank failure (apl::fault) -------------------------------------------
  /// Marks a rank dead: any subsequent send/recv/allreduce touching it
  /// throws apl::fault::RankFailure until revive_all() or shrink().
  void fail_rank(int rank);
  bool rank_failed(int rank) const { return failed_.count(rank) != 0; }
  const std::set<int>& failed_ranks() const { return failed_; }
  /// Recovery: revives every failed rank and clears in-flight messages and
  /// any partial allreduce — the collective rollback re-establishes all
  /// communication state from the checkpoint.
  void revive_all();
  /// ULFM-style shrinking recovery: removes every failed rank, densely
  /// re-ranks the survivors in old-rank order, advances the epoch (so any
  /// in-flight message becomes stale and is rejected on receipt), and
  /// drops dead ranks from the Traffic per-rank tallies. Returns the
  /// old-rank -> new-rank map, -1 for the dead. Requires >= 1 survivor.
  std::vector<int> shrink();
  /// Called by the halo-exchange layers at the start of each collective
  /// exchange; consults the fault injector (fail_rank=r@exchange_m), marks
  /// the scheduled rank dead, and opens a fresh exchange ledger.
  void begin_exchange();
  /// Closes the exchange ledger: throws fault::CommFault if any message of
  /// this exchange was dropped in flight or posted but never consumed (a
  /// duplicate or a silently-skipped receive) — the signal the retrying
  /// caller needs, since a mailbox-scan receiver never deadlocks on loss.
  void finish_exchange();
  /// Abandons the current exchange before a retry: purges every
  /// current-epoch message and resets the ledger. The caller re-posts.
  void abort_exchange();

  enum class ReduceOp { kSum, kMin, kMax };

  /// Allreduce of doubles: all ranks must contribute before any result is
  /// read; the phased callers guarantee this by construction. All
  /// contributions to one reduction must use the same op.
  void allreduce_begin(int rank, std::span<const double> contribution,
                       ReduceOp op = ReduceOp::kSum);
  std::vector<double> allreduce_end();

  Traffic& traffic() { return traffic_; }
  const Traffic& traffic() const { return traffic_; }

private:
  struct Message {
    int src;
    int tag;
    int epoch;
    std::uint64_t seq;  // process-unique: a duplicate shares its original's
    std::uint64_t crc;  // FNV-1a of the payload at send time
    std::vector<std::uint8_t> bytes;
  };

  void check_alive(int rank) const;
  void enqueue(int dst, Message m);
  void reset_ledger();

  int size_;
  int epoch_ = 0;
  std::set<int> failed_;
  std::vector<std::vector<Message>> mailboxes_;
  std::vector<double> reduce_accum_;
  ReduceOp reduce_op_ = ReduceOp::kSum;
  int reduce_contributions_ = 0;
  Traffic traffic_;
  // Exchange ledger (reset by begin/abort_exchange): what was placed into
  // mailboxes, what was taken out, and what the injector ate.
  std::uint64_t next_seq_ = 0;
  std::uint64_t enqueued_ = 0;
  std::uint64_t consumed_ = 0;
  std::uint64_t stale_rejected_ = 0;
  std::set<std::uint64_t> consumed_seqs_;
  struct DroppedKey {
    int dst, src, tag;
    bool operator<(const DroppedKey& o) const {
      if (dst != o.dst) return dst < o.dst;
      if (src != o.src) return src < o.src;
      return tag < o.tag;
    }
  };
  std::set<DroppedKey> dropped_;
};

/// Finishes a distributed global reduction: `partials` holds one
/// `dim`-wide row per rank (rank-major); they combine through one
/// allreduce in rank order, and the result folds into `out` under the
/// loop's access mode (kInc adds, kMin/kMax keep the extreme).
template <class T>
void allreduce_into(Comm& comm, exec::Access acc,
                    const std::vector<T>& partials, int dim, T* out) {
  using Op = Comm::ReduceOp;
  const Op op = acc == exec::Access::kInc   ? Op::kSum
                : acc == exec::Access::kMin ? Op::kMin
                                            : Op::kMax;
  std::vector<double> contrib(dim);
  for (int r = 0; r < comm.size(); ++r) {
    for (int d = 0; d < dim; ++d) {
      contrib[d] =
          static_cast<double>(partials[static_cast<std::size_t>(r) * dim + d]);
    }
    comm.allreduce_begin(r, contrib, op);
  }
  const std::vector<double> result = comm.allreduce_end();
  for (int d = 0; d < dim; ++d) {
    const T v = static_cast<T>(result[d]);
    switch (acc) {
      case exec::Access::kInc: out[d] += v; break;
      case exec::Access::kMin: out[d] = std::min(out[d], v); break;
      case exec::Access::kMax: out[d] = std::max(out[d], v); break;
      default: break;
    }
  }
}

/// Finishes a distributed loop's global argument: a reduction split into
/// one work unit per rank (apl::exec::split) allreduces its partials into
/// the caller's target; every other argument ignores it.
template <class Arg>
void allreduce_commit(Comm&, Arg&) {}
template <class Gbl>
void allreduce_commit(Comm& comm, exec::GblSnapshot<Gbl>& s) {
  if (!s.reduces()) return;
  allreduce_into(comm, s.g.acc, s.partials, s.g.dim, s.g.data);
}

}  // namespace apl::mpisim
