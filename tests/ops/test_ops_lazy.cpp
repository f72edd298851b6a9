// Lazy loop-chain engine tests: flush points (reduction read, raw data
// access, explicit flush, halo transfer), dependency-analysis skews, and
// bit-equivalence of tiled execution against eager execution.
#include <array>
#include <vector>

#include <gtest/gtest.h>

#include "apl/cancel.hpp"
#include "apl/testkit/fixtures.hpp"
#include "ops/ops.hpp"

namespace {

using ops::Access;
using ops::Range;

// Declarations come from the shared testkit fixture; `unew` keeps this
// file's historical name for t, `n` the square extent.
struct Heat2D : apl::testkit::HeatGrid {
  ops::Dat<double>* unew = nullptr;
  ops::index_t n;

  explicit Heat2D(ops::index_t size = 32) : HeatGrid(size, size), n(size) {
    unew = t;
    // Guarded kAccess deliberately bypasses the lazy engine (the whole-dat
    // snapshot/diff is meaningless inside a fused chain). These tests
    // assert chain internals, so drop that one check if OPAL_VERIFY armed
    // it; every other guard stays on.
    ctx.set_verify(ctx.verify_checks() & ~apl::verify::kAccess);
  }

  void init() {
    ops::par_loop(ctx, "init", *grid, Range::dim2(-1, n + 1, -1, n + 1),
                  [](ops::Acc<double> u, const int* idx) {
                    u(0, 0) = idx[0] < 0 ? 1.0 : 0.1 * idx[1];
                  },
                  ops::arg(*u, Access::kWrite), ops::arg_idx());
  }

  /// One Jacobi sweep + copy-back: a 2-loop chain with a flow dependence
  /// (jacobi writes unew, copy reads it) and an anti dependence (jacobi
  /// reads u at +-1, copy overwrites u).
  void sweep() {
    ops::par_loop(ctx, "jacobi", *grid, Range::dim2(0, n, 0, n),
                  [](ops::Acc<double> u, ops::Acc<double> out) {
                    out(0, 0) =
                        0.25 * (u(1, 0) + u(-1, 0) + u(0, 1) + u(0, -1));
                  },
                  ops::arg(*u, *five, Access::kRead),
                  ops::arg(*unew, Access::kWrite));
    ops::par_loop(ctx, "copy", *grid, Range::dim2(0, n, 0, n),
                  [](ops::Acc<double> out, ops::Acc<double> u) {
                    u(0, 0) = out(0, 0);
                  },
                  ops::arg(*unew, Access::kRead),
                  ops::arg(*u, Access::kWrite));
  }
};

// ---- flush points -----------------------------------------------------------

TEST(OpsLazy, LoopsQueueUntilFlush) {
  Heat2D h;
  h.ctx.set_lazy(true);
  h.init();
  h.sweep();
  EXPECT_EQ(h.ctx.chain_length(), 3u);  // nothing has executed yet
  h.ctx.flush();
  EXPECT_EQ(h.ctx.chain_length(), 0u);
  EXPECT_EQ(h.ctx.chain_stats().loops, 3u);
  EXPECT_EQ(h.ctx.chain_stats().max_chain, 3u);
}

TEST(OpsLazy, ReductionReadFlushes) {
  Heat2D h;
  h.ctx.set_lazy(true);
  h.init();
  double sum = 0.0;
  ops::par_loop(h.ctx, "sum", *h.grid, Range::dim2(0, h.n, 0, h.n),
                [](ops::Acc<double> u, double* s) { s[0] += u(0, 0); },
                ops::arg(*h.u, Access::kRead),
                ops::arg_gbl(&sum, 1, Access::kInc));
  // The chain — init included — must have run before par_loop returned,
  // so the reduction value is complete here.
  EXPECT_EQ(h.ctx.chain_length(), 0u);
  Heat2D eager;
  eager.init();
  double want = 0.0;
  ops::par_loop(eager.ctx, "sum", *eager.grid,
                Range::dim2(0, eager.n, 0, eager.n),
                [](ops::Acc<double> u, double* s) { s[0] += u(0, 0); },
                ops::arg(*eager.u, Access::kRead),
                ops::arg_gbl(&want, 1, Access::kInc));
  EXPECT_EQ(sum, want);
}

TEST(OpsLazy, RawAccessFlushes) {
  Heat2D h;
  h.ctx.set_lazy(true);
  h.init();
  h.sweep();
  ASSERT_GT(h.ctx.chain_length(), 0u);
  // Reading through at() is a flush point: the queued chain executes
  // first and the value matches eager execution.
  Heat2D eager;
  eager.init();
  eager.sweep();
  EXPECT_EQ(*h.u->at(3, 4), *eager.u->at(3, 4));
  EXPECT_EQ(h.ctx.chain_length(), 0u);
}

TEST(OpsLazy, ToVectorFlushes) {
  Heat2D h;
  h.ctx.set_lazy(true);
  h.init();
  ASSERT_EQ(h.ctx.chain_length(), 1u);
  const std::vector<double> v = h.u->to_vector();
  EXPECT_EQ(h.ctx.chain_length(), 0u);
  Heat2D eager;
  eager.init();
  EXPECT_EQ(v, eager.u->to_vector());
}

TEST(OpsLazy, TurningLazyOffFlushes) {
  Heat2D h;
  h.ctx.set_lazy(true);
  h.init();
  ASSERT_EQ(h.ctx.chain_length(), 1u);
  h.ctx.set_lazy(false);
  EXPECT_EQ(h.ctx.chain_length(), 0u);
}

TEST(OpsLazy, FrozenGblReadUsesEnqueueTimeValue) {
  Heat2D h;
  h.ctx.set_lazy(true);
  double scale = 3.0;  // stack value read by the queued loop
  ops::par_loop(h.ctx, "fill", *h.grid, Range::dim2(0, h.n, 0, h.n),
                [](ops::Acc<double> u, const double* s) { u(0, 0) = s[0]; },
                ops::arg(*h.u, Access::kWrite),
                ops::arg_gbl(&scale, 1, Access::kRead));
  scale = -1.0;  // mutated after enqueue; the loop must see 3.0
  h.ctx.flush();
  EXPECT_EQ(*h.u->at(0, 0), 3.0);
}

// ---- dependency analysis ----------------------------------------------------

ops::LoopRecord record_of(const ops::Block& blk, const Range& r,
                          std::vector<ops::ArgInfo> infos) {
  ops::LoopRecord rec;
  rec.name = "synthetic";
  rec.block = &blk;
  rec.range = r;
  rec.infos = std::move(infos);
  return rec;
}

TEST(OpsLazy, FlowDependenceSkewsWriterAhead) {
  Heat2D h;
  ops::Stencil& up2 = h.ctx.decl_stencil(
      2, {{{0, 0, 0}}, {{0, 2, 0}}}, "up2");
  const Range r = Range::dim2(0, h.n, 0, h.n);
  const ops::ArgInfo write_u{h.u->id(), h.ctx.stencil_point(2).id(),
                             Access::kWrite, 1, sizeof(double), false, false};
  const ops::ArgInfo read_u{h.u->id(), up2.id(), Access::kRead,
                            1, sizeof(double), false, false};
  std::vector<ops::LoopRecord> chain;
  chain.push_back(record_of(*h.grid, r, {write_u}));
  chain.push_back(record_of(*h.grid, r, {read_u}));
  const auto skews = ops::compute_skews(h.ctx, chain, 1);
  // The reader reaches +2 rows ahead of its centre: by the time the
  // reader's tile rows run, the writer must already have produced those
  // rows — the writer's skew leads by at least 2.
  ASSERT_EQ(skews.size(), 2u);
  EXPECT_GE(skews[0] - skews[1], 2);
}

TEST(OpsLazy, AntiDependenceSkewsReaderAhead) {
  Heat2D h;
  ops::Stencil& down2 = h.ctx.decl_stencil(
      2, {{{0, 0, 0}}, {{0, -2, 0}}}, "down2");
  const Range r = Range::dim2(0, h.n, 0, h.n);
  const ops::ArgInfo read_u{h.u->id(), down2.id(), Access::kRead,
                            1, sizeof(double), false, false};
  const ops::ArgInfo write_u{h.u->id(), h.ctx.stencil_point(2).id(),
                             Access::kWrite, 1, sizeof(double), false, false};
  std::vector<ops::LoopRecord> chain;
  chain.push_back(record_of(*h.grid, r, {read_u}));
  chain.push_back(record_of(*h.grid, r, {write_u}));
  const auto skews = ops::compute_skews(h.ctx, chain, 1);
  // The reader looks 2 rows behind its centre into values the later
  // writer overwrites: the reader's skew must lead by at least 2 so it
  // consumes the old values before they are clobbered.
  ASSERT_EQ(skews.size(), 2u);
  EXPECT_GE(skews[0] - skews[1], 2);
}

TEST(OpsLazy, IndependentLoopsNeedNoSkew) {
  Heat2D h;
  const Range r = Range::dim2(0, h.n, 0, h.n);
  const ops::ArgInfo write_u{h.u->id(), h.ctx.stencil_point(2).id(),
                             Access::kWrite, 1, sizeof(double), false, false};
  const ops::ArgInfo write_v{h.unew->id(), h.ctx.stencil_point(2).id(),
                             Access::kWrite, 1, sizeof(double), false, false};
  std::vector<ops::LoopRecord> chain;
  chain.push_back(record_of(*h.grid, r, {write_u}));
  chain.push_back(record_of(*h.grid, r, {write_v}));
  const auto skews = ops::compute_skews(h.ctx, chain, 1);
  EXPECT_EQ(skews[0], skews[1]);
}

// ---- tiled execution equivalence -------------------------------------------

std::vector<double> run_sweeps(bool lazy, bool tiling, ops::index_t tile_rows,
                               int sweeps) {
  Heat2D h;
  if (lazy) {
    h.ctx.set_lazy(true);
    h.ctx.set_tiling(tiling);
    h.ctx.set_tile_rows(tile_rows);
  }
  h.init();
  for (int s = 0; s < sweeps; ++s) h.sweep();
  return h.u->to_vector();  // flush point
}

TEST(OpsLazy, TiledChainBitIdenticalToEager) {
  const auto eager = run_sweeps(false, false, 0, 5);
  // RAW pairs (jacobi -> copy) must never be reordered across tile
  // boundaries: with 2-row tiles every dependence crosses tiles many
  // times, and the result must still be bit-identical.
  EXPECT_EQ(run_sweeps(true, true, 2, 5), eager);
  EXPECT_EQ(run_sweeps(true, true, 7, 5), eager);   // non-divising height
  EXPECT_EQ(run_sweeps(true, true, 0, 5), eager);   // auto height
  EXPECT_EQ(run_sweeps(true, false, 0, 5), eager);  // verbatim replay
}

TEST(OpsLazy, TilingReportsTrafficSavings) {
  Heat2D h(256);
  h.ctx.set_lazy(true);
  h.ctx.set_tile_rows(16);
  h.init();
  for (int s = 0; s < 4; ++s) h.sweep();
  h.ctx.flush();
  const ops::ChainStats& st = h.ctx.chain_stats();
  EXPECT_GT(st.tiles, st.loops);  // genuinely tiled
  // A 9-loop chain over two dats re-uses each tile's working set across
  // loops, so the tiled traffic model must come in under streaming.
  EXPECT_LT(st.tiled_bytes, st.eager_bytes);
  EXPECT_GT(st.traffic_saved_fraction(), 0.2);
}

// ---- cancellation -----------------------------------------------------------

TEST(OpsLazy, CancelledFlushKeepsQueueAndContextUsable) {
  Heat2D eager;
  eager.init();
  for (int s = 0; s < 3; ++s) eager.sweep();

  Heat2D h;
  h.ctx.set_lazy(true);
  h.ctx.set_tile_rows(4);
  h.init();
  for (int s = 0; s < 3; ++s) h.sweep();
  ASSERT_EQ(h.ctx.chain_length(), 7u);
  {
    apl::cancel::Token token;
    apl::cancel::Scope scope(&token);
    token.cancel(apl::cancel::Reason::kUser);
    EXPECT_THROW(h.ctx.flush(), apl::cancel::Cancelled);
  }
  // The cancel took effect before the chain started: nothing ran and
  // nothing was dropped.
  EXPECT_EQ(h.ctx.chain_length(), 7u);
  EXPECT_EQ(h.ctx.chain_stats().flushes, 0u);
  EXPECT_FALSE(h.ctx.chain_executing());

  apl::cancel::Token fresh;
  apl::cancel::Scope scope(&fresh);
  h.ctx.flush();
  EXPECT_EQ(h.ctx.chain_length(), 0u);
  EXPECT_EQ(h.ctx.chain_stats().loops, 7u);
  EXPECT_EQ(h.u->to_vector(), eager.u->to_vector());
}

}  // namespace
