// The OP2 lazy chain engine (DESIGN.md §15): queueing and flush points,
// lazy-vs-eager bitwise agreement (fused and unfused), chain statistics,
// the threaded color-round executor, including its cancel/preempt
// contract at round boundaries, and fused reductions (per-tile partials:
// identical across the serial walk and every team, ULP-bounded against
// eager, and never written to a target whose chain parked). The
// tile-boundary cancel contract both families share is
// tests/chain/test_lazy_cancel.cpp.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../support/op2_lazy_sys.hpp"
#include "airfoil/airfoil.hpp"
#include "apl/cancel.hpp"
#include "apl/testkit/compare.hpp"
#include "apl/thread_pool.hpp"
#include "op2/op2.hpp"

namespace {

using namespace op2_lazy_sys;

/// The testkit oracle's reassociation budget (OracleOptions::max_ulps).
constexpr std::int64_t kMaxUlps = 4096;

// ---- queueing and flush points ---------------------------------------------

TEST(Op2Lazy, QueuesUntilFlushThenMatchesEager) {
  const std::vector<double> ref = eager_reference();

  auto s = build_sys();
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);
  enqueue_program(*s);
  EXPECT_EQ(s->ctx.chain_length(), 9u) << "par_loop executed eagerly";
  s->ctx.flush();
  EXPECT_EQ(s->ctx.chain_length(), 0u);
  EXPECT_TRUE(bitwise_equal(ref, state_of(*s)))
      << "lazy-tiled diverged from eager";
}

TEST(Op2Lazy, UnfusedReplayMatchesEager) {
  const std::vector<double> ref = eager_reference();
  auto s = build_sys();
  s->ctx.set_tiling(false);
  s->ctx.set_lazy(true);
  enqueue_program(*s);
  s->ctx.flush();
  EXPECT_TRUE(bitwise_equal(ref, state_of(*s)));
  EXPECT_GE(s->ctx.chain_stats().verbatim, 1u);
}

TEST(Op2Lazy, RawAccessIsAFlushPoint) {
  const std::vector<double> ref = eager_reference();
  auto s = build_sys();
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);
  enqueue_program(*s);
  ASSERT_EQ(s->ctx.chain_length(), 9u);
  // No explicit flush: reading the dat must drain the queue first.
  const std::vector<double> got = state_of(*s);
  EXPECT_EQ(s->ctx.chain_length(), 0u);
  EXPECT_TRUE(bitwise_equal(ref, got));
}

/// The lazy program followed by a sum over x: serial tile walk when
/// `team` is null, else the color rounds of that team.
double lazy_sum(apl::ThreadPool* team, std::size_t* queued = nullptr) {
  auto s = build_sys();
  if (team != nullptr) s->ctx.set_tile_team(team);
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);
  enqueue_program(*s);
  if (queued != nullptr) *queued = s->ctx.chain_length();
  double sum = 0.0;
  op2::par_loop(
      s->ctx, "sum", *s->nodes,
      [](op2::Acc<double> v, op2::Acc<double> g) { g[0] += v[0]; },
      op2::arg(*s->x, Access::kRead),
      op2::arg_gbl(&sum, 1, Access::kInc));
  // The caller reads `sum` right after par_loop returns, so the chain —
  // including the reduction — must already have run.
  EXPECT_EQ(s->ctx.chain_length(), 0u);
  return sum;
}

TEST(Op2Lazy, ReductionIsAFlushPoint) {
  std::size_t queued = 0;
  const double sum = lazy_sum(nullptr, &queued);
  EXPECT_EQ(queued, 9u);

  auto ref = build_sys();
  enqueue_program(*ref);
  double ref_sum = 0.0;
  op2::par_loop(
      ref->ctx, "sum", *ref->nodes,
      [](op2::Acc<double> v, op2::Acc<double> g) { g[0] += v[0]; },
      op2::arg(*ref->x, Access::kRead),
      op2::arg_gbl(&ref_sum, 1, Access::kInc));
  // Per-tile partials reassociate the sum against eager (ULP-bounded) but
  // not against the team, which folds the same partials in the same order.
  EXPECT_LE(apl::testkit::ulp_distance(sum, ref_sum), kMaxUlps);
  apl::ThreadPool pool(2);
  const double team_sum = lazy_sum(&pool);
  EXPECT_EQ(std::memcmp(&sum, &team_sum, sizeof(double)), 0);
}

TEST(Op2Lazy, ChainStatsAccumulate) {
  auto s = build_sys();
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);
  enqueue_program(*s);
  s->ctx.flush();
  const op2::ChainStats& st = s->ctx.chain_stats();
  EXPECT_EQ(st.flushes, 1u);
  EXPECT_EQ(st.loops, 9u);
  EXPECT_EQ(st.max_chain, 9u);
  EXPECT_EQ(st.verbatim, 0u) << "forced tile size should keep fusion";
  EXPECT_GT(st.tiles, 1u);
  EXPECT_GT(st.eager_bytes, 0u);
  // The whole point: cross-loop reuse makes the fused projection smaller.
  EXPECT_LT(st.tiled_bytes, st.eager_bytes);
  EXPECT_GT(st.traffic_saved_fraction(), 0.0);
}

// ---- threaded color-round execution (DESIGN.md §15) -------------------------

TEST(LazyThreads, TeamRoundsMatchSerialBitwise) {
  const std::vector<double> ref = eager_reference();
  for (std::size_t team : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    apl::ThreadPool pool(team);  // declared first: outlives the context
    auto s = build_sys();
    s->ctx.set_tile_team(&pool);
    s->ctx.set_tile_size(5);
    s->ctx.set_lazy(true);
    enqueue_program(*s);
    s->ctx.flush();
    EXPECT_TRUE(bitwise_equal(ref, state_of(*s)))
        << "team of " << team << " diverged from serial";
    const op2::ChainStats& st = s->ctx.chain_stats();
    EXPECT_EQ(st.verbatim, 0u) << "chain fell back to verbatim replay";
    EXPECT_GT(st.rounds, 0u) << "fused chain did not go through rounds";
    EXPECT_LE(st.rounds, st.tiles) << "more rounds than tiles";
  }
}

TEST(LazyThreads, RoundsCountedOnlyOnTeamPath) {
  auto s = build_sys();
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);
  enqueue_program(*s);
  s->ctx.flush();
  EXPECT_GT(s->ctx.chain_stats().tiles, 0u);
  EXPECT_EQ(s->ctx.chain_stats().rounds, 0u)
      << "serial tile walk should not report color rounds";
}

TEST(LazyThreads, ProfileAndTrafficMatchSerialExactly) {
  // Accounting contract: per-loop calls, traffic-class bytes and element
  // counts are credited once per loop at chain completion, on the
  // submitting thread — so a team-executed flush must report *exactly*
  // the serial totals, however the tiles were distributed.
  auto serial = build_sys();
  serial->ctx.set_tile_size(5);
  serial->ctx.set_lazy(true);
  enqueue_program(*serial);
  serial->ctx.flush();

  apl::ThreadPool pool(4);
  auto teamed = build_sys();
  teamed->ctx.set_tile_team(&pool);
  teamed->ctx.set_tile_size(5);
  teamed->ctx.set_lazy(true);
  enqueue_program(*teamed);
  teamed->ctx.flush();

  const auto& sp = serial->ctx.profile().all();
  const auto& tp = teamed->ctx.profile().all();
  ASSERT_EQ(sp.size(), tp.size());
  for (const auto& [name, sstats] : sp) {
    ASSERT_TRUE(tp.contains(name)) << name;
    const apl::LoopStats& tstats = tp.at(name);
    EXPECT_EQ(sstats.calls, tstats.calls) << name;
    EXPECT_EQ(sstats.elements, tstats.elements) << name;
    EXPECT_EQ(sstats.bytes_direct, tstats.bytes_direct) << name;
    EXPECT_EQ(sstats.bytes_gather, tstats.bytes_gather) << name;
    EXPECT_EQ(sstats.bytes_scatter, tstats.bytes_scatter) << name;
  }
  EXPECT_EQ(serial->ctx.chain_stats().eager_bytes,
            teamed->ctx.chain_stats().eager_bytes);
  EXPECT_EQ(serial->ctx.chain_stats().tiled_bytes,
            teamed->ctx.chain_stats().tiled_bytes);
}

std::atomic<int>* g_round_ticks = nullptr;
apl::cancel::Token* g_round_token = nullptr;
void (*g_round_fire)() = nullptr;

/// Enqueues enqueue_program's nine loops, with a relax kernel that ticks
/// an atomic (it may run on any team member — scope propagation is what
/// lets it see the token at all) and calls `fire` on the 45th of its 120
/// invocations.
void enqueue_round_program(LazySys& s, void (*fire)()) {
  g_round_fire = fire;
  for (int step = 0; step < 3; ++step) {
    op2::par_loop(
        s.ctx, "relax", *s.nodes,
        [](op2::Acc<double> v) {
          v[0] = 0.5 * v[0] + 0.25;
          if (g_round_ticks->fetch_add(1) + 1 == 45) g_round_fire();
        },
        op2::arg(*s.x, Access::kRW));
    op2::par_loop(
        s.ctx, "gather", *s.edges,
        [](op2::Acc<double> w, op2::Acc<double> a, op2::Acc<double> b) {
          w[0] = a[0] + b[0];
        },
        op2::arg(*s.y, Access::kWrite),
        op2::arg(*s.x, *s.e2n, 0, Access::kRead),
        op2::arg(*s.x, *s.e2n, 1, Access::kRead));
    op2::par_loop(
        s.ctx, "scatter", *s.edges,
        [](op2::Acc<double> w, op2::Acc<double> a, op2::Acc<double> b) {
          a[0] += 0.125 * w[0];
          b[0] += 0.125 * w[0];
        },
        op2::arg(*s.y, Access::kRead),
        op2::arg(*s.x, *s.e2n, 0, Access::kInc),
        op2::arg(*s.x, *s.e2n, 1, Access::kInc));
  }
}

TEST(LazyThreads, CancelParksAtRoundBoundaryAndResumeCompletes) {
  const std::vector<double> ref = eager_reference();

  apl::cancel::Token tok;
  apl::cancel::Scope scope(&tok);
  apl::ThreadPool pool(2);
  auto s = build_sys();
  s->ctx.set_tile_team(&pool);
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);

  // A deadline that expires mid-chain, inside some round: the round-
  // boundary check on the submitting thread fires before the next round
  // starts, parking the remainder round-wise.
  std::atomic<int> ticks{0};
  g_round_ticks = &ticks;
  g_round_token = &tok;
  enqueue_round_program(
      *s, [] { g_round_token->cancel(apl::cancel::Reason::kDeadline); });
  try {
    s->ctx.flush();
    FAIL() << "flush ignored the cancelled token";
  } catch (const apl::cancel::Cancelled& c) {
    EXPECT_EQ(c.reason(), apl::cancel::Reason::kDeadline);
    EXPECT_NE(std::string(c.what()).find("op2::round"), std::string::npos)
        << c.what();
  }
  ASSERT_TRUE(s->ctx.chain_resumable());
  EXPECT_LT(ticks.load(), 120) << "chain ran to completion despite cancel";

  tok.reset();
  s->ctx.flush();
  EXPECT_FALSE(s->ctx.chain_resumable());
  EXPECT_EQ(ticks.load(), 120);
  EXPECT_TRUE(bitwise_equal(ref, state_of(*s)))
      << "round-wise resumed chain diverged from eager";
}

TEST(LazyThreads, WorkerPreemptParksMidChainAtRoundBoundaryThenResumes) {
  const std::vector<double> ref = eager_reference();

  apl::cancel::Token tok;
  apl::cancel::Scope scope(&tok);
  apl::ThreadPool pool(2);
  auto s = build_sys();
  s->ctx.set_tile_team(&pool);
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);

  // The running round finishes; the remainder parks at the *round*
  // boundary.
  std::atomic<int> ticks{0};
  g_round_ticks = &ticks;
  g_round_token = &tok;
  enqueue_round_program(*s, [] { g_round_token->request_preempt(); });
  try {
    s->ctx.flush();
    FAIL() << "flush ignored the preemption request";
  } catch (const apl::cancel::Cancelled& c) {
    EXPECT_EQ(c.reason(), apl::cancel::Reason::kPreempt);
    EXPECT_NE(std::string(c.what()).find("round boundary"),
              std::string::npos)
        << c.what();
  }
  ASSERT_TRUE(s->ctx.chain_resumable());
  const int at_park = ticks.load();
  EXPECT_GE(at_park, 45) << "preempt fired before the trigger";
  EXPECT_LT(at_park, 120) << "chain ran to completion despite preemption";

  tok.clear_preempt();
  s->ctx.flush();
  EXPECT_FALSE(s->ctx.chain_resumable());
  EXPECT_EQ(ticks.load(), 120);
  EXPECT_TRUE(bitwise_equal(ref, state_of(*s)))
      << "preempted+resumed round execution diverged from eager";
}

TEST(LazyThreads, ThreadsBackendUsesRoundsWithoutExplicitTeam) {
  // backend kThreads alone enables the team path (the process pool).
  const std::vector<double> ref = eager_reference();
  auto s = build_sys();
  s->ctx.set_backend(apl::exec::Backend::kThreads);
  ASSERT_TRUE(s->ctx.tile_team_enabled());
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);
  enqueue_program(*s);
  s->ctx.flush();
  EXPECT_GT(s->ctx.chain_stats().rounds, 0u);
  EXPECT_TRUE(bitwise_equal(ref, state_of(*s)));
}

// ---- fused reductions on the team (DESIGN.md §15) -------------------------

/// Every reduction kind one loop can carry, from non-identity starting
/// values: a dim-2 sum, a min, a max and an integer count.
struct Reductions {
  double sum2[2] = {0.25, -1.5};
  double lo = 10.0;
  double hi = -10.0;
  int count = 3;
};

bool same_bits(const Reductions& a, const Reductions& b) {
  return std::memcmp(a.sum2, b.sum2, sizeof a.sum2) == 0 &&
         std::memcmp(&a.lo, &b.lo, sizeof a.lo) == 0 &&
         std::memcmp(&a.hi, &b.hi, sizeof a.hi) == 0 && a.count == b.count;
}

/// enqueue_program, then one loop reducing x into every kind: eagerly,
/// lazily on the serial tile walk (`team` null), or on a team's rounds.
Reductions reduce_after_program(apl::ThreadPool* team, bool lazy) {
  auto s = build_sys();
  if (team != nullptr) s->ctx.set_tile_team(team);
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(lazy);
  enqueue_program(*s);
  Reductions r;
  op2::par_loop(
      s->ctx, "reduce", *s->nodes,
      [](op2::Acc<double> v, op2::Acc<double> sum2, op2::Acc<double> lo,
         op2::Acc<double> hi, op2::Acc<int> count) {
        sum2[0] += v[0];
        sum2[1] += v[0] * v[0];
        lo[0] = std::min(lo[0], v[0]);
        hi[0] = std::max(hi[0], v[0]);
        count[0] += v[0] > 0.6 ? 2 : 1;
      },
      op2::arg(*s->x, Access::kRead), op2::arg_gbl(r.sum2, 2, Access::kInc),
      op2::arg_gbl(&r.lo, 1, Access::kMin),
      op2::arg_gbl(&r.hi, 1, Access::kMax),
      op2::arg_gbl(&r.count, 1, Access::kInc));
  if (lazy) {
    EXPECT_EQ(s->ctx.chain_stats().verbatim, 0u);
    EXPECT_EQ(s->ctx.chain_stats().rounds > 0, team != nullptr);
  }
  return r;
}

TEST(LazyReduction, EveryKindIdenticalAcrossSerialWalkAndTeams) {
  const Reductions eager = reduce_after_program(nullptr, false);
  const Reductions serial = reduce_after_program(nullptr, true);
  for (std::size_t team : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    apl::ThreadPool pool(team);
    EXPECT_TRUE(same_bits(serial, reduce_after_program(&pool, true)))
        << "team of " << team << " diverged from the serial tile walk";
  }
  // Against eager only the floating-point sums reassociate; min, max and
  // the integer count are exact.
  EXPECT_LE(apl::testkit::ulp_distance(serial.sum2[0], eager.sum2[0]),
            kMaxUlps);
  EXPECT_LE(apl::testkit::ulp_distance(serial.sum2[1], eager.sum2[1]),
            kMaxUlps);
  EXPECT_EQ(std::memcmp(&serial.lo, &eager.lo, sizeof eager.lo), 0);
  EXPECT_EQ(std::memcmp(&serial.hi, &eager.hi, sizeof eager.hi), 0);
  EXPECT_EQ(serial.count, eager.count);
}

TEST(LazyReduction, AirfoilRmsIdenticalAcrossTeams) {
  airfoil::Airfoil::Options opts;
  opts.nx = 120;  // auto tile sizing fuses every chain at this size
  opts.ny = 60;
  constexpr int kIters = 3;
  airfoil::Airfoil eager(opts);
  const double eager_rms = eager.run(kIters);
  const std::vector<double> q_ref = eager.solution();

  auto lazy_rms = [&](apl::ThreadPool* team) {
    airfoil::Airfoil app(opts);
    // Guarded kAccess runs loops eagerly; this test asserts chain
    // internals (as build_sys does).
    app.ctx().set_verify(app.ctx().verify_checks() & ~apl::verify::kAccess);
    if (team != nullptr) app.ctx().set_tile_team(team);
    app.ctx().set_lazy(true);
    const double rms = app.run(kIters);
    EXPECT_TRUE(bitwise_equal(q_ref, app.solution()))
        << "q diverged from eager";
    const op2::ChainStats& st = app.ctx().chain_stats();
    EXPECT_EQ(st.verbatim, 0u);
    EXPECT_EQ(st.rounds > 0, team != nullptr)
        << "Airfoil's reduction chains must run on the team";
    return rms;
  };
  const double serial = lazy_rms(nullptr);
  EXPECT_LE(apl::testkit::ulp_distance(serial, eager_rms), kMaxUlps);
  for (std::size_t team : {std::size_t{2}, std::size_t{4}}) {
    apl::ThreadPool pool(team);
    const double teamed = lazy_rms(&pool);
    EXPECT_EQ(std::memcmp(&serial, &teamed, sizeof serial), 0)
        << "rms on a team of " << team << " diverged from the serial walk";
  }
}

constexpr double kSentinel = -7.25;
/// When set, sum_into's kernel counts its invocations here and cancels
/// g_round_token on the 10th.
std::atomic<int>* g_sum_calls = nullptr;

void sum_into(LazySys& s, double* target) {
  op2::par_loop(
      s.ctx, "sum", *s.nodes,
      [](op2::Acc<double> v, op2::Acc<double> g) {
        g[0] += v[0];
        if (g_sum_calls != nullptr && g_sum_calls->fetch_add(1) + 1 == 10) {
          g_round_token->cancel(apl::cancel::Reason::kDeadline);
        }
      },
      op2::arg(*s.x, Access::kRead), op2::arg_gbl(target, 1, Access::kInc));
}

TEST(LazyReduction, ParkedChainNeverWritesItsTarget) {
  // A parked reduction chain outlives its par_loop, and with it, often,
  // the target (a local of the caller that caught Cancelled). Its resume
  // must complete the dats and drop the reduction. The target here stays
  // alive on the heap, so a stray write shows without a sanitizer.
  const std::vector<double> ref = eager_reference();
  for (std::size_t team : {std::size_t{0}, std::size_t{2}}) {
    apl::cancel::Token tok;
    apl::cancel::Scope scope(&tok);
    std::unique_ptr<apl::ThreadPool> pool;
    if (team > 0) pool = std::make_unique<apl::ThreadPool>(team);
    auto s = build_sys();
    if (pool != nullptr) s->ctx.set_tile_team(pool.get());
    s->ctx.set_tile_size(5);
    s->ctx.set_lazy(true);
    enqueue_program(*s);

    std::atomic<int> calls{0};
    g_sum_calls = &calls;
    g_round_token = &tok;
    auto target = std::make_unique<double>(kSentinel);
    try {
      sum_into(*s, target.get());
      FAIL() << "par_loop ignored the cancelled token (team " << team << ")";
    } catch (const apl::cancel::Cancelled&) {
    }
    EXPECT_EQ(*target, kSentinel) << "parked chain wrote its target";
    ASSERT_TRUE(s->ctx.chain_resumable());
    EXPECT_LT(calls.load(), kNodes);

    tok.reset();
    s->ctx.flush();
    EXPECT_FALSE(s->ctx.chain_resumable());
    EXPECT_EQ(calls.load(), kNodes) << "resume skipped reduction elements";
    EXPECT_EQ(*target, kSentinel) << "resumed chain wrote its target";
    EXPECT_TRUE(bitwise_equal(ref, state_of(*s)))
        << "team " << team << ": resumed dats diverged from eager";
    g_sum_calls = nullptr;
  }
}

TEST(LazyReduction, CancelAtRoundBoundaryThenResumeMatchesEager) {
  const std::vector<double> ref = eager_reference();
  auto eager = build_sys();
  enqueue_program(*eager);
  double ref_sum = 0.0;
  sum_into(*eager, &ref_sum);

  apl::cancel::Token tok;
  apl::cancel::Scope scope(&tok);
  apl::ThreadPool pool(2);
  auto s = build_sys();
  s->ctx.set_tile_team(&pool);
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);
  std::atomic<int> ticks{0};
  g_round_ticks = &ticks;
  g_round_token = &tok;
  enqueue_round_program(
      *s, [] { g_round_token->cancel(apl::cancel::Reason::kDeadline); });

  // The reduction flushes the chain; the deadline expires inside a round
  // (relax's 45th tick) and the remainder parks at the next round
  // boundary.
  auto target = std::make_unique<double>(kSentinel);
  try {
    sum_into(*s, target.get());
    FAIL() << "par_loop ignored the cancelled token";
  } catch (const apl::cancel::Cancelled& c) {
    EXPECT_NE(std::string(c.what()).find("op2::round"), std::string::npos)
        << c.what();
  }
  ASSERT_TRUE(s->ctx.chain_resumable());
  EXPECT_EQ(*target, kSentinel);

  tok.reset();
  s->ctx.flush();
  EXPECT_EQ(ticks.load(), 120);
  EXPECT_EQ(*target, kSentinel) << "resumed chain wrote its target";
  EXPECT_TRUE(bitwise_equal(ref, state_of(*s)))
      << "round-wise resumed reduction chain diverged from eager";

  // The context stays usable: a fresh one-loop chain replays verbatim, so
  // its sum matches eager bitwise.
  double sum = 0.0;
  sum_into(*s, &sum);
  EXPECT_EQ(std::memcmp(&sum, &ref_sum, sizeof sum), 0);
}

}  // namespace
