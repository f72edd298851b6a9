// Admission control: overload is answered with *typed* backpressure at
// the front door (QueueFull, JobTooLarge, ShuttingDown), never by
// unbounded queueing, and the OPAL_SERVE_* knobs configure the server
// through the typed config registry.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "apl/serve/serve.hpp"
#include "serve_test_util.hpp"

namespace {

using apl::serve::JobSpec;
using apl::serve::Server;
using apl::serve::State;

/// A job that parks on a flag the test releases — the deterministic way
/// to hold a worker slot (and the queue) exactly as long as the test
/// wants.
JobSpec blocker_job(const std::string& name, std::atomic<bool>* release) {
  JobSpec spec;
  spec.name = name;
  spec.work = [release](apl::serve::JobContext&) {
    while (!release->load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return std::string("released");
  };
  return spec;
}

TEST(ServeAdmission, QueueFullIsTypedBackpressure) {
  Server::Options opts;
  opts.workers = 1;
  opts.queue_depth = 1;
  Server server(opts);

  std::atomic<bool> release{false};
  const auto id1 = server.submit(blocker_job("holder", &release));
  // Depth 1 and one non-terminal job: the next admission must bounce.
  EXPECT_THROW(server.submit(blocker_job("bounced", &release)),
               apl::serve::QueueFull);
  EXPECT_EQ(server.stats().rejected_queue_full, 1u);
  EXPECT_EQ(server.active_jobs(), 1);

  release.store(true);
  EXPECT_EQ(server.wait(id1).state, State::kDone);
  // Terminal jobs free their slot: admission works again.
  std::atomic<bool> release2{true};
  const auto id2 = server.submit(blocker_job("after", &release2));
  EXPECT_EQ(server.wait(id2).state, State::kDone);
  EXPECT_EQ(server.stats().admitted, 2u);
}

TEST(ServeAdmission, PerfModelSizeGateRejectsTooLarge) {
  Server::Options opts;
  opts.workers = 1;
  opts.max_projected_seconds = 1e-12;  // nothing real fits
  Server server(opts);

  // The proxy-app builders fill projected_seconds from the perf model.
  JobSpec big = apl::serve::make_airfoil_job("big", apl::serve::AirfoilJob{});
  ASSERT_GT(big.projected_seconds, 0.0);
  try {
    server.submit(std::move(big));
    FAIL() << "expected JobTooLarge";
  } catch (const apl::serve::JobTooLarge& e) {
    // The message names both the projection and the limit.
    EXPECT_NE(std::string(e.what()).find("projected"), std::string::npos);
  }
  EXPECT_EQ(server.stats().rejected_too_large, 1u);

  // A spec with no projection (0 = unknown) passes the gate: the gate
  // sheds known-oversized work, it does not demand a perf model.
  std::atomic<bool> release{true};
  const auto id = server.submit(blocker_job("unknown-cost", &release));
  EXPECT_EQ(server.wait(id).state, State::kDone);
}

TEST(ServeAdmission, TwoRankAirfoilJobCompletes) {
  // Multi-rank Airfoil jobs partition by RCB, which needs coordinates;
  // the job must run to completion, not fail in set-up.
  Server::Options opts;
  opts.workers = 1;
  Server server(opts);
  apl::serve::AirfoilJob shape;
  shape.nranks = 2;
  const auto id = server.submit(apl::serve::make_airfoil_job("rcb2", shape));
  const auto rep = server.wait(id);
  EXPECT_EQ(rep.state, State::kDone) << rep.error;
}

TEST(ServeAdmission, DrainedServerRefusesNewJobs) {
  Server server(Server::Options{});
  server.drain();
  std::atomic<bool> release{true};
  EXPECT_THROW(server.submit(blocker_job("late", &release)),
               apl::serve::ShuttingDown);
}

TEST(ServeAdmission, UnknownJobIsTyped) {
  Server server(Server::Options{});
  EXPECT_THROW(server.status(12345), apl::serve::UnknownJob);
  EXPECT_THROW(server.wait(12345), apl::serve::UnknownJob);
}

/// Scoped env override (restores on exit) for the from_env test.
struct EnvVar {
  EnvVar(const char* key, const char* value) : key_(key) {
    const char* old = std::getenv(key);
    if (old != nullptr) saved_ = old;
    ::setenv(key, value, 1);
  }
  ~EnvVar() {
    if (saved_) {
      ::setenv(key_, saved_->c_str(), 1);
    } else {
      ::unsetenv(key_);
    }
  }
  const char* key_;
  std::optional<std::string> saved_;
};

TEST(ServeAdmission, OptionsFromEnvReadsServeKnobs) {
  EnvVar workers("OPAL_SERVE_WORKERS", "5");
  EnvVar queue("OPAL_SERVE_QUEUE", "7");
  EnvVar retries("OPAL_SERVE_RETRIES", "3");
  EnvVar deadline("OPAL_SERVE_DEADLINE", "2.5");
  EnvVar watchdog("OPAL_SERVE_WATCHDOG", "0.25");
  const Server::Options opts = Server::Options::from_env();
  EXPECT_EQ(opts.workers, 5);
  EXPECT_EQ(opts.queue_depth, 7);
  EXPECT_EQ(opts.retry_budget, 3);
  EXPECT_DOUBLE_EQ(opts.default_deadline_seconds, 2.5);
  EXPECT_DOUBLE_EQ(opts.watchdog_period_seconds, 0.25);
}

}  // namespace
