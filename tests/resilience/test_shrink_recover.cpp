// Shrink-and-continue rank recovery (PR 7 tentpole). The fault matrix:
// every rank of a distributed run is killed at every exchange ordinal, the
// survivors shrink the communicator, repartition, restore from the last
// checkpoint, and the continuation must be BITWISE identical to a
// failure-free run at the surviving rank count restored from the same
// checkpoint — for OP2 (Airfoil) and a lazy-chained OPS CloverLeaf.
// Transient message faults (drop/duplicate/corrupt) must instead be
// absorbed by bounded retry with zero result change, and an exhausted
// degradation ladder must surface as the named LadderExhausted error —
// never a hang, never a raw crash.
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "airfoil/airfoil.hpp"
#include "apl/fault.hpp"
#include "apl/io/ckpt.hpp"
#include "apl/mpisim/ladder.hpp"
#include "apl/resilience.hpp"
#include "cloverleaf/cloverleaf_ops.hpp"
#include "op2/dist.hpp"
#include "ops/dist.hpp"
#include "../support/expect_error.hpp"

namespace {

using apl::fault::Config;
using apl::fault::Injector;
using apl::io::CheckpointStore;
using apl::resilience::LadderExhausted;
using apl::resilience::Outcome;
using apl::resilience::Rung;

std::string temp_base(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class ShrinkRecoverTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Injector::global().disarm();
    apl::resilience::reset_policy();
  }
};

// ---- OP2: Airfoil fault matrix --------------------------------------------

airfoil::Airfoil::Options airfoil_opts() {
  airfoil::Airfoil::Options o;
  o.nx = 8;
  o.ny = 4;
  return o;
}

TEST_F(ShrinkRecoverTest, AirfoilKillMatrixShrinksBitIdentical) {
  const std::string base = temp_base("shrink_airfoil_matrix");
  const int nranks = 4;
  const int total = 6;

  // Dry run counts the exchanges of a fault-free run (the injector's
  // exchange ordinal ticks whenever it is armed, even with no trigger).
  std::int64_t num_exchanges = 0;
  {
    airfoil::Airfoil app(airfoil_opts());
    app.enable_distributed(nranks, apl::graph::PartitionMethod::kBlock);
    Injector::global().arm(Config{});
    for (int it = 0; it < total; ++it) app.iteration();
    num_exchanges = Injector::global().exchanges_seen();
    Injector::global().disarm();
  }
  ASSERT_GT(num_exchanges, 2);

  // One faulted run per (rank, exchange) cell. The driver checkpoints at
  // steps 0 and 3 while unfailed, so a kill restores from whichever save
  // was last — both mid-flight restore paths get exercised.
  std::map<int, std::vector<double>> q_ref;  // by restored step
  int cells_failed = 0;
  for (int victim = 0; victim < nranks; ++victim) {
    for (std::int64_t m = 0; m < num_exchanges; ++m) {
      CheckpointStore(base).remove_files();
      airfoil::Airfoil app(airfoil_opts());
      app.enable_distributed(nranks, apl::graph::PartitionMethod::kBlock);
      op2::Distributed& dist = *app.distributed();
      CheckpointStore store(base);

      Config cfg;
      cfg.fail_rank = victim;
      cfg.fail_at_exchange = m;
      Injector::global().arm(cfg);
      int it = 0;
      int restored_step = -1;
      while (it < total) {
        if (restored_step < 0 && (it == 0 || it == 3)) {
          dist.checkpoint(store, it);
        }
        try {
          app.iteration();
          ++it;
        } catch (const apl::fault::RankFailure& e) {
          ASSERT_EQ(e.rank(), victim) << "victim " << victim << " @" << m;
          ASSERT_LT(restored_step, 0) << "second failure in one cell";
          restored_step = static_cast<int>(dist.recover_auto(store));
          it = restored_step;
        }
      }
      Injector::global().disarm();
      if (restored_step < 0) continue;  // ordinal past this run's exchanges
      ++cells_failed;
      ASSERT_EQ(dist.num_ranks(), nranks - 1);
      ASSERT_EQ(dist.shrinks_done(), 1);
      EXPECT_EQ(dist.comm().traffic().shrinks(), 1u);
      EXPECT_GE(dist.comm().traffic().mttr(), 0.0);

      // Reference: a failure-free run at the surviving rank count restored
      // from the same checkpoint (cached — the checkpoint contents only
      // depend on the restored step, not on the kill site).
      if (q_ref.find(restored_step) == q_ref.end()) {
        airfoil::Airfoil ref(airfoil_opts());
        ref.enable_distributed(nranks - 1,
                               apl::graph::PartitionMethod::kBlock);
        const auto s0 =
            static_cast<int>(ref.distributed()->recover(store));
        ASSERT_EQ(s0, restored_step);
        for (int i = s0; i < total; ++i) ref.iteration();
        q_ref[restored_step] = ref.solution();
      }
      ASSERT_EQ(app.solution(), q_ref[restored_step])
          << "victim " << victim << " killed at exchange " << m
          << " (restored from step " << restored_step << ")";
    }
  }
  // Every victim rank must actually have died somewhere in the sweep.
  EXPECT_GE(cells_failed, nranks);
  CheckpointStore(base).remove_files();
}

// ---- OPS: lazy-chained CloverLeaf fault matrix ----------------------------

cloverleaf::Options clover_opts() {
  cloverleaf::Options o;
  o.nx = 12;
  o.ny = 12;
  o.lazy = true;  // rank contexts run the PR 1 chaining engine
  return o;
}

TEST_F(ShrinkRecoverTest, CloverLeafLazyKillMatrixShrinksBitIdentical) {
  const std::string base = temp_base("shrink_clover_matrix");
  const int nranks = 4;
  const int total = 4;

  std::int64_t num_exchanges = 0;
  {
    cloverleaf::CloverOps app(clover_opts());
    app.enable_distributed(nranks);
    Injector::global().arm(Config{});
    app.run(total);
    num_exchanges = Injector::global().exchanges_seen();
    Injector::global().disarm();
  }
  ASSERT_GT(num_exchanges, 2);

  // The full matrix would be slow at CloverLeaf's exchange density; kill
  // every rank at a stride of ordinals covering begin, middle and end.
  const std::int64_t stride = std::max<std::int64_t>(1, num_exchanges / 7);
  std::map<int, std::vector<double>> d_ref;
  int cells_failed = 0;
  for (int victim = 0; victim < nranks; ++victim) {
    for (std::int64_t m = 0; m < num_exchanges; m += stride) {
      CheckpointStore(base).remove_files();
      cloverleaf::CloverOps app(clover_opts());
      app.enable_distributed(nranks);
      ops::Distributed& dist = *app.distributed();
      CheckpointStore store(base);

      Config cfg;
      cfg.fail_rank = victim;
      cfg.fail_at_exchange = m;
      Injector::global().arm(cfg);
      int it = 0;
      int restored_step = -1;
      while (it < total) {
        if (restored_step < 0 && (it == 0 || it == 2)) {
          dist.checkpoint(store, it);
        }
        try {
          app.step();
          ++it;
        } catch (const apl::fault::RankFailure& e) {
          ASSERT_EQ(e.rank(), victim) << "victim " << victim << " @" << m;
          ASSERT_LT(restored_step, 0) << "second failure in one cell";
          restored_step = static_cast<int>(dist.recover_auto(store));
          it = restored_step;
          app.set_steps_taken(it);  // xy/yx advection parity
        }
      }
      Injector::global().disarm();
      if (restored_step < 0) continue;
      ++cells_failed;
      ASSERT_EQ(dist.num_ranks(), nranks - 1);
      ASSERT_EQ(dist.shrinks_done(), 1);

      if (d_ref.find(restored_step) == d_ref.end()) {
        cloverleaf::CloverOps ref(clover_opts());
        ref.enable_distributed(nranks - 1);
        const auto s0 =
            static_cast<int>(ref.distributed()->recover(store));
        ASSERT_EQ(s0, restored_step);
        ref.set_steps_taken(s0);
        for (int i = s0; i < total; ++i) ref.step();
        d_ref[restored_step] = ref.density();
      }
      ASSERT_EQ(app.density(), d_ref[restored_step])
          << "victim " << victim << " killed at exchange " << m
          << " (restored from step " << restored_step << ")";
    }
  }
  EXPECT_GE(cells_failed, nranks);
  CheckpointStore(base).remove_files();
}

// ---- transient faults: absorbed by bounded retry --------------------------

TEST_F(ShrinkRecoverTest, TransientFaultsRetryWithZeroResultChange) {
  const int nranks = 3;
  const int total = 5;

  airfoil::Airfoil ref(airfoil_opts());
  ref.enable_distributed(nranks, apl::graph::PartitionMethod::kBlock);
  for (int i = 0; i < total; ++i) ref.iteration();
  const auto q_ref = ref.solution();

  for (const char* trigger : {"drop_msg", "dup_msg", "corrupt_msg"}) {
    airfoil::Airfoil app(airfoil_opts());
    app.enable_distributed(nranks, apl::graph::PartitionMethod::kBlock);
    Config cfg = apl::fault::parse_config(std::string(trigger) + "=40");
    Injector::global().arm(cfg);
    for (int i = 0; i < total; ++i) app.iteration();
    Injector::global().disarm();
    const auto& t = app.distributed()->comm().traffic();
    EXPECT_GE(t.retries(), 1u) << trigger;
    EXPECT_GT(t.retry_backoff_seconds(), 0.0) << trigger;
    EXPECT_EQ(t.shrinks(), 0u) << trigger;
    EXPECT_EQ(app.solution(), q_ref) << trigger;
  }
}

TEST_F(ShrinkRecoverTest, OpsTransientFaultsRetryWithZeroResultChange) {
  const int nranks = 4;
  const int total = 3;

  cloverleaf::CloverOps ref(clover_opts());
  ref.enable_distributed(nranks);
  ref.run(total);
  const auto d_ref = ref.density();

  for (const char* trigger : {"drop_msg", "dup_msg", "corrupt_msg"}) {
    cloverleaf::CloverOps app(clover_opts());
    app.enable_distributed(nranks);
    Config cfg = apl::fault::parse_config(std::string(trigger) + "=25");
    Injector::global().arm(cfg);
    app.run(total);
    Injector::global().disarm();
    const auto& t = app.distributed()->comm().traffic();
    EXPECT_GE(t.retries(), 1u) << trigger;
    EXPECT_EQ(app.density(), d_ref) << trigger;
  }
}

// ---- the degradation ladder, rung by rung ---------------------------------

TEST_F(ShrinkRecoverTest, RetryBudgetZeroEscalatesToLadderExhausted) {
  apl::resilience::Policy p;
  p.max_retries = 0;  // first transient fault exhausts the retry rung
  apl::resilience::set_policy(p);

  airfoil::Airfoil app(airfoil_opts());
  app.enable_distributed(3, apl::graph::PartitionMethod::kBlock);
  Config cfg;
  cfg.drop_msg = 10;
  Injector::global().arm(cfg);
  EXPECT_THROW(
      {
        for (int i = 0; i < 4; ++i) app.iteration();
      },
      LadderExhausted);
}

// ---- the permanent-failure rungs, on both families -------------------------
//
// op2::Distributed and ops::Distributed take the same ladder, so each rung
// runs once per family: Airfoil over op2, lazy-chained CloverLeaf over ops.

/// A distributed proxy app and the ladder of its Distributed.
class FamilyApp {
 public:
  virtual ~FamilyApp() = default;
  virtual void iterate() = 0;
  /// Rewinds the app's own step counter after a rollback to `step`.
  virtual void resume_at(int step) = 0;
  virtual std::vector<double> solution() = 0;
  virtual apl::mpisim::Ladder& ladder() = 0;
};

template <class App>
class AppOf final : public FamilyApp {
 public:
  /// `big` declares a larger mesh, whose checkpoints do not fit the
  /// default one.
  AppOf(int nranks, bool big);
  void iterate() override;
  void resume_at(int step) override;
  std::vector<double> solution() override;
  apl::mpisim::Ladder& ladder() override { return *app_.distributed(); }

 private:
  App app_;
};

template <>
AppOf<airfoil::Airfoil>::AppOf(int nranks, bool big)
    : app_(big ? airfoil::Airfoil::Options{} : airfoil_opts()) {
  app_.enable_distributed(nranks, apl::graph::PartitionMethod::kBlock);
}
template <>
void AppOf<airfoil::Airfoil>::iterate() {
  app_.iteration();
}
template <>
void AppOf<airfoil::Airfoil>::resume_at(int) {}
template <>
std::vector<double> AppOf<airfoil::Airfoil>::solution() {
  return app_.solution();
}

cloverleaf::Options clover_opts(bool big) {
  cloverleaf::Options o = clover_opts();
  if (big) o.nx = o.ny = 24;
  return o;
}
template <>
AppOf<cloverleaf::CloverOps>::AppOf(int nranks, bool big)
    : app_(clover_opts(big)) {
  app_.enable_distributed(nranks);
}
template <>
void AppOf<cloverleaf::CloverOps>::iterate() {
  app_.step();
}
template <>
void AppOf<cloverleaf::CloverOps>::resume_at(int step) {
  app_.set_steps_taken(step);  // xy/yx advection parity
}
template <>
std::vector<double> AppOf<cloverleaf::CloverOps>::solution() {
  return app_.density();
}

struct Family {
  const char* name;
  std::unique_ptr<FamilyApp> (*make)(int nranks, bool big);
};
void PrintTo(const Family& f, std::ostream* os) { *os << f.name; }

template <class App>
std::unique_ptr<FamilyApp> make_app(int nranks, bool big) {
  return std::make_unique<AppOf<App>>(nranks, big);
}

class ShrinkRecoverFamily : public ::testing::TestWithParam<Family> {
 protected:
  void TearDown() override {
    Injector::global().disarm();
    apl::resilience::reset_policy();
  }
  std::unique_ptr<FamilyApp> make(int nranks, bool big = false) const {
    return GetParam().make(nranks, big);
  }
  /// A fresh checkpoint base name, unique per family and test.
  std::string base(const std::string& what) const {
    const std::string b =
        temp_base(std::string("ladder_") + GetParam().name + "_" + what);
    CheckpointStore(b).remove_files();
    return b;
  }
};

/// Runs `run` to step `total`, checkpointing at step 0, and answers the
/// first rank failure with recover_outcome (after `on_failure`, if any).
/// Returns that outcome; rung kNone when nothing failed.
Outcome run_with_recovery(FamilyApp& run, CheckpointStore& store, int total,
                          const std::function<void()>& on_failure = {}) {
  Outcome out;
  bool recovered = false;
  int it = 0;
  while (it < total) {
    if (it == 0 && !recovered) run.ladder().checkpoint(store, 0);
    try {
      run.iterate();
      ++it;
    } catch (const apl::fault::RankFailure&) {
      if (recovered) throw;
      if (on_failure) on_failure();
      out = run.ladder().recover_outcome(store);
      if (!out.ok) return out;
      recovered = true;
      it = static_cast<int>(out.resume_step);
      run.resume_at(it);
    }
  }
  return out;
}

void expect_exhausted(const Outcome& out) {
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.rung, Rung::kExhausted);
  EXPECT_EQ(out.error_kind, "LadderExhausted") << out.error;
  EXPECT_EQ(out.shrinks, 0);
  EXPECT_EQ(out.resume_step, -1);
}

TEST_P(ShrinkRecoverFamily, PolicyFailForbidsRecovery) {
  apl::resilience::Policy p;
  p.rank_failure = apl::resilience::OnRankFailure::kFail;
  apl::resilience::set_policy(p);

  CheckpointStore store(base("policy_fail"));
  const auto run = make(3);
  run->ladder().checkpoint(store, 0);

  Config cfg;
  cfg.fail_rank = 1;
  cfg.fail_at_exchange = 2;
  Injector::global().arm(cfg);
  bool failed = false;
  try {
    for (int i = 0; i < 4; ++i) run->iterate();
  } catch (const apl::fault::RankFailure&) {
    failed = true;
    EXPECT_THROW(run->ladder().recover_auto(store), LadderExhausted);
    expect_exhausted(run->ladder().recover_outcome(store));
  }
  EXPECT_TRUE(failed);
  store.remove_files();
}

TEST_P(ShrinkRecoverFamily, PolicyReviveTakesTheRollbackPath) {
  apl::resilience::Policy p;
  p.rank_failure = apl::resilience::OnRankFailure::kRevive;
  apl::resilience::set_policy(p);

  CheckpointStore store(base("policy_revive"));
  const int total = 5;
  const auto ref = make(3);
  for (int i = 0; i < total; ++i) ref->iterate();

  const auto run = make(3);
  Config cfg;
  cfg.fail_rank = 1;
  cfg.fail_at_exchange = 3;
  Injector::global().arm(cfg);
  const Outcome out = run_with_recovery(*run, store, total);
  EXPECT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.rung, Rung::kRevive);
  EXPECT_EQ(out.shrinks, 0);
  EXPECT_EQ(out.resume_step, 0);
  EXPECT_EQ(run->ladder().comm().size(), 3);  // revive keeps the communicator
  EXPECT_EQ(run->ladder().shrinks_done(), 0);
  EXPECT_EQ(run->solution(), ref->solution());
  store.remove_files();
}

TEST_P(ShrinkRecoverFamily, ShrinkBudgetSpentFallsBackToSingleRank) {
  apl::resilience::Policy p;
  p.max_shrinks = 0;  // jump straight to the last rung
  apl::resilience::set_policy(p);

  CheckpointStore store(base("fallback"));
  const int total = 5;
  const auto run = make(3);
  Config cfg;
  cfg.fail_rank = 0;
  cfg.fail_at_exchange = 2;
  Injector::global().arm(cfg);
  const Outcome out = run_with_recovery(*run, store, total);
  Injector::global().disarm();
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.rung, Rung::kFallback);
  EXPECT_EQ(out.shrinks, 1);
  EXPECT_EQ(out.resume_step, 0);
  EXPECT_EQ(run->ladder().comm().size(), 1);  // replicated single-rank

  // Still bitwise against a single-rank run restored from the checkpoint.
  const auto ref = make(1);
  const auto s0 = static_cast<int>(ref->ladder().recover(store));
  ref->resume_at(s0);
  for (int i = s0; i < total; ++i) ref->iterate();
  EXPECT_EQ(run->solution(), ref->solution());

  // The ladder is now truly exhausted: the last rank's death leaves no
  // survivor to shrink onto, and the fallback has been reached.
  Config again;
  again.fail_rank = 0;
  again.fail_at_exchange = 1;
  Injector::global().arm(again);
  bool failed = false;
  try {
    for (int i = 0; i < 3; ++i) run->iterate();
  } catch (const apl::fault::RankFailure&) {
    failed = true;
    EXPECT_THROW(run->ladder().recover_auto(store), LadderExhausted);
    expect_exhausted(run->ladder().recover_outcome(store));
  }
  EXPECT_TRUE(failed);
  store.remove_files();
}

TEST_P(ShrinkRecoverFamily, MismatchedCheckpointLayoutNamesTheCulprit) {
  // A checkpoint written by a *larger mesh* than the app restoring it.
  CheckpointStore store(base("layout_mismatch"));
  make(2, /*big=*/true)->ladder().checkpoint(store, 0);
  const auto small = make(2);
  try {
    small->ladder().recover(store);
    FAIL() << "mismatched checkpoint layout was accepted";
  } catch (const apl::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("checkpoint layout mismatch"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("expected"), std::string::npos) << msg;
    EXPECT_NE(msg.find("found"), std::string::npos) << msg;
  }
  store.remove_files();
}

// A shrink that cannot restore must fail before it shrinks: the
// communicator, the failed-rank set and the rank replicas stay as they
// were, so the ladder can still be taken with a good checkpoint.
TEST_P(ShrinkRecoverFamily, FailedShrinkLeavesTheLadderUsable) {
  CheckpointStore bad(base("shrink_bad"));
  make(3, /*big=*/true)->ladder().checkpoint(bad, 0);

  CheckpointStore store(base("shrink_good"));
  const int total = 4;
  const auto run = make(3);
  Config cfg;
  cfg.fail_rank = 1;
  cfg.fail_at_exchange = 2;
  Injector::global().arm(cfg);
  const Outcome out = run_with_recovery(*run, store, total, [&] {
    apl::mpisim::Comm& comm = run->ladder().comm();
    const int nranks = comm.size();
    const std::set<int> failed = comm.failed_ranks();
    EXPECT_APL_ERROR("checkpoint layout mismatch",
                     run->ladder().shrink_recover(bad));
    EXPECT_EQ(comm.size(), nranks);
    EXPECT_EQ(comm.failed_ranks(), failed);
  });
  Injector::global().disarm();
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.rung, Rung::kShrink);
  EXPECT_EQ(out.shrinks, 1);
  EXPECT_EQ(out.resume_step, 0);
  EXPECT_EQ(run->ladder().comm().size(), 2);

  const auto ref = make(2);
  const auto s0 = static_cast<int>(ref->ladder().recover(store));
  ref->resume_at(s0);
  for (int i = s0; i < total; ++i) ref->iterate();
  EXPECT_EQ(run->solution(), ref->solution());
  store.remove_files();
  bad.remove_files();
}

INSTANTIATE_TEST_SUITE_P(
    Families, ShrinkRecoverFamily,
    ::testing::Values(Family{"op2", &make_app<airfoil::Airfoil>},
                      Family{"ops", &make_app<cloverleaf::CloverOps>}),
    [](const ::testing::TestParamInfo<Family>& info) {
      return std::string(info.param.name);
    });

}  // namespace
