// The OP2 lazy chain engine (DESIGN.md §15): queueing and flush points,
// lazy-vs-eager bitwise agreement (fused and unfused), chain statistics,
// and the threaded color-round executor, including its cancel/preempt
// contract at round boundaries. The tile-boundary cancel contract both
// families share is tests/chain/test_lazy_cancel.cpp.
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../support/op2_lazy_sys.hpp"
#include "apl/cancel.hpp"
#include "apl/thread_pool.hpp"
#include "op2/op2.hpp"

namespace {

using namespace op2_lazy_sys;

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

TEST(Op2Lazy, ReductionIsAFlushPoint) {
  auto s = build_sys();
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);
  enqueue_program(*s);
  ASSERT_EQ(s->ctx.chain_length(), 9u);
  double sum = 0.0;
  op2::par_loop(
      s->ctx, "sum", *s->nodes,
      [](op2::Acc<double> v, op2::Acc<double> g) { g[0] += v[0]; },
      op2::arg(*s->x, Access::kRead),
      op2::arg_gbl(&sum, 1, Access::kInc));
  // The caller reads `sum` right after par_loop returns, so the chain —
  // including the reduction — must already have run.
  EXPECT_EQ(s->ctx.chain_length(), 0u);

  auto ref = build_sys();
  enqueue_program(*ref);
  double ref_sum = 0.0;
  op2::par_loop(
      ref->ctx, "sum", *ref->nodes,
      [](op2::Acc<double> v, op2::Acc<double> g) { g[0] += v[0]; },
      op2::arg(*ref->x, Access::kRead),
      op2::arg_gbl(&ref_sum, 1, Access::kInc));
  EXPECT_EQ(std::memcmp(&sum, &ref_sum, sizeof(double)), 0);
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

}  // namespace
