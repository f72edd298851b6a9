// apl::chain — the lazy loop-chain engine behind op2::Context and
// ops::Context (DESIGN.md §7, §15).
//
// With set_lazy(true) par_loop queues a loop record instead of running
// it. The queue runs at a *flush point*: an explicit flush(), a loop
// carrying a global reduction (its caller reads the result as soon as
// par_loop returns), raw data access (the dats watch pending_flag()), a
// halo exchange, or turning lazy off. The engine owns, once for both
// families, the queue, the exception-safe flush guard, the Stats, the
// memoized schedule lookup, the walk over a schedule's steps with a
// cancel check at every boundary, the parked Resume of an interrupted
// walk, profile accounting deferred to chain completion, and when a
// reduction commits (only once its chain completes inside the par_loop
// that owns the target; the partials themselves are apl::exec's
// freeze/split/thaw/commit, shared with every other parallel schedule).
// A family keeps its inspector, Plan IR codec and audit, and supplies
// (privately, befriending the engine) kChainNames, plan_chain,
// begin_chain, chain_steps and account_chain — see Engine. chain_steps
// returns the step sequence of one walk: size() and run(step, stats),
// dispatched through the family's step table.
//
// The cancel rule, the same for both families: a flush whose token is
// already cancelled or preempted throws before touching the queue or a
// parked remainder, so nothing runs and the stats stay as they were. An
// interruption seen after at least one step parks the remainder; the
// next flush point completes exactly the steps that did not run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apl/cancel.hpp"
#include "apl/exec.hpp"
#include "apl/io/plan_cache.hpp"
#include "apl/signature.hpp"
#include "apl/trace.hpp"

namespace apl::chain {

/// Lazy-engine statistics (op2::ChainStats, ops::ChainStats).
struct Stats {
  std::uint64_t flushes = 0;    ///< chains executed
  std::uint64_t loops = 0;      ///< loops executed through chains
  std::uint64_t tiles = 0;      ///< tiles executed (1 per loop if unfused)
  std::uint64_t rounds = 0;     ///< color rounds run by a team (op2 only)
  std::uint64_t verbatim = 0;   ///< chains replayed unfused (op2 only)
  std::uint64_t max_chain = 0;  ///< longest chain seen
  /// Modeled DRAM traffic: every loop streaming all its arguments (eager
  /// execution) vs. each dataset entry entering cache once per tile.
  std::uint64_t eager_bytes = 0;
  std::uint64_t tiled_bytes = 0;

  double traffic_saved_fraction() const {
    return eager_bytes == 0
               ? 0.0
               : 1.0 - static_cast<double>(tiled_bytes) /
                           static_cast<double>(eager_bytes);
  }
};

/// The eager traffic model of one loop over `n` elements: each dataset
/// argument streams through once per read and once per write.
template <class Info>
std::uint64_t streaming_bytes(const std::vector<Info>& infos,
                              std::uint64_t n) {
  std::uint64_t bytes = 0;
  for (const Info& a : infos) {
    if (a.is_gbl) continue;
    const int passes =
        (exec::reads(a.acc) ? 1 : 0) + (exec::writes(a.acc) ? 1 : 0);
    bytes += n * static_cast<std::uint64_t>(a.dim) * a.elem_bytes * passes;
  }
  return bytes;
}

/// A chain interrupted at a step boundary: its records, its schedule and
/// the first step that did not run; `rounds` says which step sequence
/// parked (op2 color rounds vs tiles). The records' globals are
/// snapshots and a parked reduction is dropped, not committed, so a
/// resume never writes through a caller's global; state a kernel
/// captures by reference must still outlive it. Drivers that discard the
/// job instead (apl::serve retries from a checkpoint) discard the
/// context, resume and all.
template <class Record, class Schedule>
struct Resume {
  std::vector<Record> chain;
  Schedule schedule;
  std::size_t next = 0;
  bool rounds = false;
};

/// One family's trace span names and cancellation-point labels.
struct Names {
  const char* family;       ///< "op2" / "ops", in preemption messages
  const char* flush_span;   ///< kChain span of a fresh chain
  const char* resume_span;  ///< kChain span of a parked remainder
  const char* flush_point;  ///< checked before a flush touches anything
  const char* tile_point;   ///< checked between tiles / records
  const char* round_point;  ///< checked between color rounds
};

// ---- the engine ------------------------------------------------------------

/// The family hooks `Self` supplies:
///   static constexpr Names kChainNames;
///   const Schedule& plan_chain(const std::vector<Record>&);   // plan_for
///   bool begin_chain(sched, chain, Stats&, trace::Span& chain_span);
///     charges a fresh chain's stats, labels its span, returns whether
///     the walk runs color rounds;
///   Steps chain_steps(sched, chain, bool rounds);
///   void account_chain(sched, chain);   // per-loop profile rows
template <class Self, class Record, class Schedule>
class Engine : public exec::ExecContext {
 public:
  /// Queues a record (par_loop under lazy mode). A record carrying a
  /// global reduction is a flush point: the chain, this loop included,
  /// runs before par_loop returns, and only then — still inside the
  /// par_loop that owns the target — does `commit` store the result. A
  /// chain that parks or throws instead never writes the target: its
  /// resume completes the dats and drops the reduction with the records.
  void enqueue(Record rec) {
    const bool reduction = std::any_of(
        rec.infos.begin(), rec.infos.end(), [](const auto& a) {
          return a.is_gbl && a.acc != exec::Access::kRead;
        });
    const auto commit = reduction ? rec.commit : nullptr;
    queue_.push_back(std::move(rec));
    update_pending();
    if (!reduction) return;
    flush();
    commit();
  }
  /// True while a chain is being walked (par_loop then runs eagerly as a
  /// chain member instead of re-enqueueing itself).
  bool chain_executing() const { return executing_; }
  std::size_t chain_length() const { return queue_.size(); }
  /// True when an interrupted chain is parked awaiting the next flush.
  bool chain_resumable() const { return resume_ != nullptr; }
  const Stats& chain_stats() const { return stats_; }

  /// Turning lazy off flushes (the base behaviour); either way the dats'
  /// pending flag stays coherent.
  void set_lazy(bool on) override {
    ExecContext::set_lazy(on);
    update_pending();
  }

 protected:
  Engine() = default;
  ~Engine() override = default;

  /// The flag every declared dat watches: true exactly when a flush
  /// would run work.
  const bool* pending_flag() const { return &pending_; }

  /// Completes a parked remainder, then walks the queued chain. Reentrant
  /// calls (a chain member touching a dat) are no-ops.
  void do_flush() override {
    if (executing_ || (queue_.empty() && resume_ == nullptr)) return;
    interrupt_before_flush();
    executing_ = true;
    update_pending();
    struct Guard {
      Engine* e;
      ~Guard() {
        e->executing_ = false;
        e->update_pending();
      }
    } guard{this};

    if (resume_ != nullptr) {
      const std::unique_ptr<Resume<Record, Schedule>> r = std::move(resume_);
      trace::Span span(trace::kChain, Self::kChainNames.resume_span);
      span.set_elements(r->chain.size());
      span.set_index(static_cast<std::int64_t>(r->next));
      // The stats were charged when the chain first ran.
      walk(r->schedule, r->chain, r->next, r->rounds);
      self().account_chain(r->schedule, r->chain);
      if (queue_.empty()) return;
      interrupt_before_flush();
    }

    std::vector<Record> chain = std::move(queue_);
    queue_.clear();
    trace::Span span(trace::kChain, Self::kChainNames.flush_span);
    span.set_elements(chain.size());
    ++stats_.flushes;
    stats_.loops += chain.size();
    stats_.max_chain = std::max<std::uint64_t>(stats_.max_chain, chain.size());
    const Schedule& sched = self().plan_chain(chain);
    walk(sched, chain, 0, self().begin_chain(sched, chain, stats_, span));
    self().account_chain(sched, chain);
  }

  /// The memoized schedule lookup: the combined signature of `key`
  /// (topology x program x config x version) hits the in-memory memo, else
  /// the persistent plan cache, else `build(span)` inside a
  /// "chain_analyze:<label>" kPlan span. `check` (the family's guarded
  /// audit) sees every schedule before it is memoized; if it throws,
  /// nothing is. Plan seconds exclude the check.
  template <class Decode, class Build, class Encode, class Check>
  const Schedule& memo_plan(const plan_cache::Key& key,
                            std::uint64_t elements, Decode&& decode,
                            Build&& build, Encode&& encode, Check&& check) {
    const double t0 = now_seconds();
    signature::Hasher sig;
    sig.mix(key.topology);
    sig.mix(key.program);
    sig.mix(key.config);
    sig.pod(key.version);
    const std::uint64_t id = sig.value();
    if (const auto it = plans_.find(id); it != plans_.end()) {
      add_plan_seconds(now_seconds() - t0);
      return *it->second;
    }
    std::unique_ptr<Schedule> sched = plan_cache::load_or_build<Schedule>(
        plan_cache::Store::current(), key, "chain_hit:", elements,
        std::forward<Decode>(decode),
        [&] {
          trace::Span span(trace::kPlan, "chain_analyze:" + key.label);
          span.set_elements(elements);
          return build(span);
        },
        std::forward<Encode>(encode));
    sched->signature = id;
    add_plan_seconds(now_seconds() - t0);
    check(*sched);
    return *plans_.emplace(id, std::move(sched)).first->second;
  }

  /// Drops every memoized schedule (renumbering, layout or tiling change).
  void forget_plans() { plans_.clear(); }

 private:
  Self& self() { return static_cast<Self&>(*this); }

  void update_pending() {
    pending_ = lazy() && !executing_ && (!queue_.empty() || resume_ != nullptr);
  }

  /// A cancel point that also throws on a pending preemption request
  /// (`at()` completes the message).
  template <class At>
  static void interrupt_point(const char* where, At&& at) {
    cancel::point(where);
    if (cancel::yield_requested()) {
      throw cancel::Cancelled(cancel::Reason::kPreempt,
                              std::string(Self::kChainNames.family) +
                                  " chain preempted " + at());
    }
  }
  void interrupt_before_flush() {
    interrupt_point(Self::kChainNames.flush_point, [] {
      return std::string("before its flush started (nothing ran)");
    });
  }

  /// Runs steps [next, size), checking the token at every boundary after
  /// the first; an interruption parks the remainder, then propagates.
  void walk(const Schedule& sched, std::vector<Record>& chain,
            std::size_t next, bool rounds) {
    const Names& n = Self::kChainNames;
    const auto steps = self().chain_steps(sched, chain, rounds);
    for (std::size_t i = next; i < steps.size(); ++i) {
      if (i > next) {
        try {
          interrupt_point(rounds ? n.round_point : n.tile_point, [&] {
            return std::string("at ") + (rounds ? "round" : "tile") +
                   " boundary " + std::to_string(i) +
                   " (remainder parked, next flush resumes)";
          });
        } catch (...) {
          resume_.reset(new Resume<Record, Schedule>{std::move(chain), sched,
                                                     i, rounds});
          throw;
        }
      }
      steps.run(i, stats_);
    }
  }

  std::vector<Record> queue_;
  std::unique_ptr<Resume<Record, Schedule>> resume_;
  std::map<std::uint64_t, std::unique_ptr<Schedule>> plans_;
  Stats stats_;
  bool executing_ = false;
  bool pending_ = false;
};

}  // namespace apl::chain
