#include "apl/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "apl/config.hpp"
#include "apl/error.hpp"
#include "apl/scope.hpp"

namespace apl {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads - 1);
  for (std::size_t i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  // Never drop accepted tasks silently: finish them, then stop the team.
  drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_team(const std::function<void(std::size_t)>& body) {
  if (workers_.empty()) {
    body(0);
    return;
  }
  // Captured on the submitting thread, installed on every worker: the
  // team must observe the caller's cancel/fault/policy/plan-cache/trace
  // scopes, not the workers' (empty) thread-locals. The snapshot lives on
  // this stack frame, which outlives the barrier by construction.
  const scope::Snapshot snapshot = scope::Snapshot::capture();
  // One team at a time: a second caller (another job on the threads
  // backend) waits here instead of clobbering the broadcast state.
  std::lock_guard<std::mutex> team_lease(team_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &body;
    team_snapshot_ = &snapshot;
    team_error_ = nullptr;
    remaining_ = workers_.size();
    ++generation_;
  }
  start_cv_.notify_all();
  try {
    body(0);  // member 0 already runs under the caller's scopes
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (team_error_ == nullptr) team_error_ = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return remaining_ == 0; });
  job_ = nullptr;
  team_snapshot_ = nullptr;
  // Propagate the first failure (any member, including member 0) on the
  // calling thread — only after the barrier, so no member is still
  // running the body when the caller unwinds.
  if (team_error_ != nullptr) {
    std::exception_ptr err = std::exchange(team_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t team = size();
  if (n == 0) return;
  run_team([&](std::size_t tid) {
    const std::size_t chunk = (n + team - 1) / team;
    const std::size_t begin = std::min(n, tid * chunk);
    const std::size_t end = std::min(n, begin + chunk);
    if (begin < end) body(begin, end);
  });
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (drained_ || stop_) {
      throw Drained(
          "ThreadPool: drained — newly submitted work is rejected, not "
          "silently dropped");
    }
    if (!workers_.empty()) {
      tasks_.push_back(std::move(task));
      start_cv_.notify_one();
      return;
    }
    // No background workers (a 1-thread pool on a 1-core host): degrade
    // to inline execution on the calling thread instead of rejecting the
    // work. Accounted as a running task so tasks_pending() and drain()
    // keep their meaning for concurrent observers.
    ++tasks_running_;
  }
  struct Finish {
    ThreadPool* pool;
    ~Finish() {
      std::lock_guard<std::mutex> lock(pool->mutex_);
      if (--pool->tasks_running_ == 0 && pool->tasks_.empty()) {
        pool->drain_cv_.notify_all();
      }
    }
  } finish{this};  // decrements even if the task throws
  task();
}

void ThreadPool::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_ = true;
  drain_cv_.wait(lock,
                 [this] { return tasks_.empty() && tasks_running_ == 0; });
}

bool ThreadPool::drained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return drained_;
}

std::size_t ThreadPool::tasks_pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tasks_.size() + tasks_running_;
}

void ThreadPool::worker_loop(std::size_t id) {
  std::size_t seen_generation = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    const scope::Snapshot* snapshot = nullptr;
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] {
        return stop_ || (job_ != nullptr && generation_ != seen_generation) ||
               !tasks_.empty();
      });
      if (stop_) return;
      if (job_ != nullptr && generation_ != seen_generation) {
        // Team work first: the whole team barriers on it.
        seen_generation = generation_;
        job = job_;
        snapshot = team_snapshot_;
      } else {
        task = std::move(tasks_.front());
        tasks_.pop_front();
        ++tasks_running_;
      }
    }
    if (job != nullptr) {
      try {
        // The submitting thread's scopes, for exactly the body's duration
        // (uninstalled before the barrier count drops, so the caller can
        // never observe remaining_ == 0 with a scope still installed).
        scope::Snapshot::Install install(*snapshot);
        (*job)(id);
      } catch (...) {
        // A throwing body must not unwind into std::thread (that would
        // std::terminate); park the first exception for the caller.
        std::lock_guard<std::mutex> lock(mutex_);
        if (team_error_ == nullptr) team_error_ = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mutex_);
      if (--remaining_ == 0) done_cv_.notify_all();
    } else {
      task();
      std::lock_guard<std::mutex> lock(mutex_);
      if (--tasks_running_ == 0 && tasks_.empty()) drain_cv_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const auto n = apl::config::int_value("OPAL_NUM_THREADS")) {
      require(*n >= 1, "OPAL_NUM_THREADS must be >= 1, got ", *n);
      return static_cast<std::size_t>(*n);
    }
    return std::size_t{0};
  }());
  return pool;
}

}  // namespace apl
