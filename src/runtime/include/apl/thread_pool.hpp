// Persistent worker pool backing the `threads` backends of OP2 and OPS,
// and — in task mode — the workers of the apl::serve job scheduler.
//
// The pool plays the role OpenMP plays in the original libraries: a fixed
// team of workers that executes the colored blocks of an execution plan.
// Work is distributed statically (contiguous chunks) because OP2/OPS plans
// already balance block sizes; dynamic stealing would only perturb the
// locality the plans were built for.
//
// Two usage modes share the same workers:
//
//   * team mode   — run_team / parallel_for broadcast one body to every
//                   member and barrier until all finish. Concurrent
//                   run_team calls (e.g. two served jobs both on the
//                   threads backend) are serialized through a team lease,
//                   so the broadcast state is never shared between teams.
//                   The submitting thread's execution scopes (cancel token,
//                   fault injector, resilience policy, plan-cache store,
//                   trace rank — see apl/scope.hpp) are snapshotted and
//                   installed in every team member for the duration of the
//                   body, so a cancellation point or an armed fault inside
//                   the body behaves identically on every member. A body
//                   that throws (on any member) completes the barrier and
//                   the first exception is rethrown on the calling thread.
//   * task mode   — submit() enqueues independent fire-and-forget tasks
//                   executed one per worker (FIFO). This is what a job
//                   scheduler multiplexes tenants over. A pool constructed
//                   with size 1 has no background workers; submit() then
//                   degrades to inline execution on the calling thread
//                   (synchronous, but never silently dropped), so task-mode
//                   users work unchanged on single-core hosts. Tasks do NOT
//                   inherit the submitter's scopes: a task is independent
//                   work whose owner (e.g. apl::serve) installs its own
//                   scopes inside the task body.
//
// Shutdown semantics: drain() closes the task queue — subsequent
// submit() calls are rejected with the typed Drained error, never
// silently accepted — and blocks until every queued and running task has
// finished. Destruction after drain() is race-free (workers observe stop
// under the mutex and are joined); destroying a pool with tasks still
// queued drains them first rather than dropping them silently.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "apl/error.hpp"

namespace apl::scope {
class Snapshot;
}

namespace apl {

class ThreadPool {
public:
  /// Thrown by submit() once the pool is drained: enqueued work is
  /// rejected loudly instead of disappearing into a queue nobody will
  /// ever service.
  class Drained : public Error {
   public:
    explicit Drained(const std::string& what) : Error(what) {}
  };

  /// Creates `num_threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size() + 1; }

  /// Runs body(thread_id) on every team member (the calling thread is
  /// member 0) and returns when all have finished. Thread-safe: concurrent
  /// callers take turns (the team is a shared resource, not partitioned).
  /// Every worker member runs the body under the submitting thread's
  /// captured execution scopes (apl::scope::Snapshot), so cancellation
  /// points, fault injection, the resilience policy, trace attribution and
  /// the plan-cache store resolve identically on all members. If the body
  /// throws on any member, the barrier still completes and the first
  /// exception is rethrown here.
  void run_team(const std::function<void(std::size_t)>& body);

  /// Splits [0, n) into size() contiguous chunks and runs
  /// body(begin, end) on each team member.
  void parallel_for(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& body);

  // ---- task mode -----------------------------------------------------------

  /// Enqueues an independent task for asynchronous execution on a
  /// background worker (FIFO). Throws Drained after drain() instead of
  /// accepting work that would never run. A pool with no background
  /// workers (size 1) runs the task inline on the calling thread before
  /// returning — synchronous, but the task-mode contract (every accepted
  /// task runs exactly once; tasks_pending()/drain() stay coherent)
  /// holds without OPAL_SERVE_WORKERS-style tuning on 1-core hosts.
  /// Tasks must not throw; a queued task that does terminates the process
  /// (it has no caller to propagate to), so wrap fallible work in its own
  /// try/catch.
  void submit(std::function<void()> task);

  /// Closes the task queue and blocks until every queued and running
  /// task has completed. After drain() returns, submit() throws Drained
  /// and destruction is race-free; team mode keeps working. Idempotent.
  void drain();
  bool drained() const;

  /// Tasks accepted but not yet finished (queued + running).
  std::size_t tasks_pending() const;

  /// Process-wide pool, sized from OPAL_NUM_THREADS (default: hardware).
  static ThreadPool& global();

private:
  void worker_loop(std::size_t id);

  std::vector<std::thread> workers_;
  mutable std::mutex mutex_;
  std::mutex team_mutex_;  ///< serializes concurrent run_team callers
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::condition_variable drain_cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  const scope::Snapshot* team_snapshot_ = nullptr;
  std::exception_ptr team_error_;
  std::size_t generation_ = 0;
  std::size_t remaining_ = 0;
  std::deque<std::function<void()>> tasks_;
  std::size_t tasks_running_ = 0;
  bool drained_ = false;
  bool stop_ = false;
};

}  // namespace apl
