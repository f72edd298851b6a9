#include "apl/thread_pool.hpp"

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "apl/cancel.hpp"
#include "apl/fault.hpp"
#include "apl/resilience.hpp"
#include "apl/trace.hpp"

namespace {

TEST(ThreadPool, RunTeamVisitsEveryMember) {
  apl::ThreadPool pool(4);
  ASSERT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> visits(4);
  pool.run_team([&](std::size_t tid) { visits[tid].fetch_add(1); });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, RunTeamIsReusable) {
  apl::ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int rep = 0; rep < 50; ++rep) {
    pool.run_team([&](std::size_t) { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 150);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  apl::ThreadPool pool(4);
  const std::size_t n = 10001;
  std::vector<int> hits(n, 0);
  pool.parallel_for(n, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(n));
  for (std::size_t i = 0; i < n; i += 997) EXPECT_EQ(hits[i], 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  apl::ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForFewerItemsThanThreads) {
  apl::ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  apl::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  int x = 0;
  pool.run_team([&](std::size_t tid) {
    EXPECT_EQ(tid, 0u);
    ++x;
  });
  EXPECT_EQ(x, 1);
}

TEST(ThreadPool, GlobalPoolExists) {
  // Must not crash and must be usable.
  std::atomic<int> c{0};
  apl::ThreadPool::global().run_team([&](std::size_t) { c.fetch_add(1); });
  EXPECT_EQ(c.load(), static_cast<int>(apl::ThreadPool::global().size()));
}

// ---- task mode (the apl::serve worker substrate) ----------------------------

TEST(ThreadPoolTasks, SubmittedTasksAllRunAndDrainWaits) {
  apl::ThreadPool pool(3);  // 2 background task executors
  std::atomic<int> ran{0};
  for (int i = 0; i < 40; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  pool.drain();
  EXPECT_EQ(ran.load(), 40);
  EXPECT_EQ(pool.tasks_pending(), 0u);
  EXPECT_TRUE(pool.drained());
}

TEST(ThreadPoolTasks, SubmitAfterDrainThrowsDrained) {
  apl::ThreadPool pool(2);
  pool.drain();
  pool.drain();  // idempotent
  EXPECT_THROW(pool.submit([] {}), apl::ThreadPool::Drained);
}

TEST(ThreadPoolTasks, PoolWithoutBackgroundWorkersRunsTasksInline) {
  // A size-1 pool has no background workers; submit() must degrade to
  // inline execution instead of rejecting the work (apl::serve on a
  // 1-core host) or accepting tasks nobody ever runs.
  apl::ThreadPool pool(1);
  int ran = 0;
  pool.submit([&] { ++ran; });
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(pool.tasks_pending(), 0u);
  pool.drain();  // nothing queued, must not hang
  EXPECT_THROW(pool.submit([] {}), apl::ThreadPool::Drained);
}

TEST(ThreadPoolTasks, InlineTaskThrowDoesNotCorruptAccounting) {
  apl::ThreadPool pool(1);
  EXPECT_THROW(pool.submit([] { throw std::runtime_error("task failed"); }),
               std::runtime_error);
  // The running-task count must have been unwound, or drain() hangs.
  EXPECT_EQ(pool.tasks_pending(), 0u);
  pool.drain();
}

TEST(ThreadPoolTasks, TeamModeStillWorksAfterDrain) {
  apl::ThreadPool pool(3);
  pool.submit([] {});
  pool.drain();
  std::atomic<int> c{0};
  pool.run_team([&](std::size_t) { c.fetch_add(1); });
  EXPECT_EQ(c.load(), 3);
}

TEST(ThreadPoolTasks, DestructionDrainsQueuedTasksInsteadOfDroppingThem) {
  std::atomic<int> ran{0};
  {
    apl::ThreadPool pool(2);
    for (int i = 0; i < 25; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
    // No explicit drain: the destructor must not drop queued tasks.
  }
  EXPECT_EQ(ran.load(), 25);
}

TEST(ThreadPoolTasks, TasksAndTeamWorkInterleave) {
  // A served job on the threads backend does exactly this: run_team
  // broadcasts from inside a task while other tasks queue behind it.
  apl::ThreadPool task_pool(3);
  apl::ThreadPool team_pool(2);
  std::atomic<int> team_runs{0};
  for (int i = 0; i < 8; ++i) {
    task_pool.submit([&] {
      team_pool.run_team([&](std::size_t) { team_runs.fetch_add(1); });
    });
  }
  task_pool.drain();
  EXPECT_EQ(team_runs.load(), 16);  // 8 broadcasts x 2 members
}

// ---------------------------------------------------------------------------
// Scope propagation (apl/scope.hpp): team workers must observe the
// submitting thread's thread-local execution scopes.
// ---------------------------------------------------------------------------

TEST(ThreadPoolScopes, CancelPointFiresInsideTeamWorkers) {
  // Regression: cancel tokens are thread-local, so before the scope
  // snapshot a cancellation point inside a run_team body was a silent
  // no-op on every worker member. Members other than 0 must now see the
  // caller's token and throw — and the exception must surface on the
  // calling thread instead of terminating the worker.
  apl::ThreadPool pool(4);
  apl::cancel::Token token;
  apl::cancel::Scope scope(&token);
  token.cancel(apl::cancel::Reason::kUser);
  std::atomic<int> worker_points{0};
  EXPECT_THROW(
      pool.run_team([&](std::size_t tid) {
        if (tid == 0) return;  // only exercise the off-thread members
        worker_points.fetch_add(1);
        apl::cancel::point("test::team");
      }),
      apl::cancel::Cancelled);
  EXPECT_EQ(worker_points.load(), 3);
}

TEST(ThreadPoolScopes, WorkersObserveSubmitterScopes) {
  apl::ThreadPool pool(3);
  apl::cancel::Token token;
  apl::fault::Injector injector;
  apl::resilience::Policy policy;
  policy.max_retries = 77;  // recognizable
  apl::cancel::Scope cancel_scope(&token);
  apl::fault::Injector::Scope fault_scope(&injector);
  apl::resilience::ScopedPolicy policy_scope(&policy);
  apl::trace::RankScope rank_scope(5);

  std::mutex mu;
  int token_hits = 0, injector_hits = 0, policy_hits = 0, rank_hits = 0;
  pool.run_team([&](std::size_t) {
    const bool token_ok = apl::cancel::current() == &token;
    const bool injector_ok = &apl::fault::Injector::current() == &injector;
    const bool policy_ok = apl::resilience::policy().max_retries == 77;
    const bool rank_ok = apl::trace::Recorder::current_rank() == 5;
    std::lock_guard<std::mutex> lock(mu);
    token_hits += token_ok;
    injector_hits += injector_ok;
    policy_hits += policy_ok;
    rank_hits += rank_ok;
  });
  EXPECT_EQ(token_hits, 3);
  EXPECT_EQ(injector_hits, 3);
  EXPECT_EQ(policy_hits, 3);
  EXPECT_EQ(rank_hits, 3);
}

TEST(ThreadPoolScopes, WorkersUninstallScopesAfterTheBody) {
  // The snapshot is for the body's duration only: a later team on the
  // same workers (no scopes installed on the submitter) must see clean
  // thread-locals, or one job's cancel token would leak into the next.
  apl::ThreadPool pool(3);
  {
    apl::cancel::Token token;
    apl::cancel::Scope scope(&token);
    pool.run_team([](std::size_t) {});
  }
  std::atomic<int> clean{0};
  pool.run_team([&](std::size_t) {
    if (apl::cancel::current() == nullptr) clean.fetch_add(1);
  });
  EXPECT_EQ(clean.load(), 3);
}

TEST(ThreadPoolScopes, TeamBodyExceptionPropagatesToCaller) {
  apl::ThreadPool pool(4);
  std::atomic<int> ran{0};
  // Whichever member throws, the barrier completes (every member ran)
  // and exactly one exception reaches the caller.
  EXPECT_THROW(pool.run_team([&](std::size_t tid) {
    ran.fetch_add(1);
    if (tid != 0) throw std::runtime_error("worker body failed");
  }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 4);
  // The pool is still usable afterwards.
  std::atomic<int> again{0};
  pool.run_team([&](std::size_t) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 4);
}

TEST(ThreadPoolScopes, TasksDoNotInheritSubmitterScopes) {
  // Task mode stays scope-free by design: apl::serve installs each job's
  // scopes inside the task body, and inheriting the submitter's would
  // bleed one tenant's cancel token into another's worker.
  apl::ThreadPool pool(2);
  apl::cancel::Token token;
  apl::cancel::Scope scope(&token);
  std::atomic<bool> saw_token{true};
  pool.submit([&] { saw_token.store(apl::cancel::current() != nullptr); });
  pool.drain();
  EXPECT_FALSE(saw_token.load());
}

}  // namespace
