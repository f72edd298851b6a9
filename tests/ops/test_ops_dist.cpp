// Distributed OPS: block-decomposed execution must match the sequential
// backend, including boundary-condition loops that write into physical
// halos, global-index kernels, and reductions; halo traffic must scale
// with the cut perimeter.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "apl/io/ckpt.hpp"
#include "apl/profile.hpp"
#include "apl/testkit/fixtures.hpp"
#include "ops/ops.hpp"

namespace {

using ops::Access;
using ops::index_t;

// Block/stencil/field declarations come from the shared testkit fixture;
// this adds the one-sided boundary stencils the BC kernels need.
struct Diffusion : apl::testkit::HeatGrid {
  explicit Diffusion(index_t nx = 20, index_t ny = 14) : HeatGrid(nx, ny) {
    // One-sided stencils for the boundary kernels (real OPS applications
    // declare these so range validation can stay conservative).
    xp = &ctx.decl_stencil(2, {{{1, 0, 0}}}, "xp");
    xm = &ctx.decl_stencil(2, {{{-1, 0, 0}}}, "xm");
    yp = &ctx.decl_stencil(2, {{{0, 1, 0}}}, "yp");
    ym = &ctx.decl_stencil(2, {{{0, -1, 0}}}, "ym");
  }

  /// u := smooth initial field, everywhere including physical halos.
  template <class Exec>
  void init(Exec&& loop) {
    loop("init", ops::Range::dim2(-1, nx + 1, -1, ny + 1),
         [](ops::Acc<double> u, const int* idx) {
           u(0, 0) = std::sin(0.37 * idx[0]) * std::cos(0.23 * idx[1]);
         },
         ops::arg(*u, Access::kWrite), ops::arg_idx());
  }

  /// One explicit step with reflective boundaries written into the halo.
  template <class Exec>
  double step(Exec&& loop) {
    // Reflective BC: halo row/column copies the adjacent interior values.
    // Reads go through the stencil, the write through the centre point —
    // the same dat appears as two arguments, the standard OPS idiom for
    // update_halo-style kernels.
    loop("bc_x", ops::Range::dim2(-1, 0, 0, ny),
         [](ops::Acc<double> ur, ops::Acc<double> uw) { uw(0, 0) = ur(1, 0); },
         ops::arg(*u, *xp, Access::kRead),
         ops::arg(*u, Access::kWrite));
    loop("bc_x2", ops::Range::dim2(nx, nx + 1, 0, ny),
         [](ops::Acc<double> ur, ops::Acc<double> uw) {
           uw(0, 0) = ur(-1, 0);
         },
         ops::arg(*u, *xm, Access::kRead),
         ops::arg(*u, Access::kWrite));
    loop("bc_y", ops::Range::dim2(-1, nx + 1, -1, 0),
         [](ops::Acc<double> ur, ops::Acc<double> uw) { uw(0, 0) = ur(0, 1); },
         ops::arg(*u, *yp, Access::kRead),
         ops::arg(*u, Access::kWrite));
    loop("bc_y2", ops::Range::dim2(-1, nx + 1, ny, ny + 1),
         [](ops::Acc<double> ur, ops::Acc<double> uw) {
           uw(0, 0) = ur(0, -1);
         },
         ops::arg(*u, *ym, Access::kRead),
         ops::arg(*u, Access::kWrite));
    loop("diff", ops::Range::dim2(0, nx, 0, ny),
         [](ops::Acc<double> u, ops::Acc<double> t) {
           t(0, 0) = u(0, 0) + 0.2 * (u(1, 0) + u(-1, 0) + u(0, 1) +
                                      u(0, -1) - 4 * u(0, 0));
         },
         ops::arg(*u, *five, Access::kRead),
         ops::arg(*t, Access::kWrite));
    double sum = 0;
    loop("copy", ops::Range::dim2(0, nx, 0, ny),
         [](ops::Acc<double> t, ops::Acc<double> u, double* s) {
           u(0, 0) = t(0, 0);
           s[0] += t(0, 0);
         },
         ops::arg(*t, Access::kRead),
         ops::arg(*u, Access::kWrite),
         ops::arg_gbl(&sum, 1, Access::kInc));
    return sum;
  }

  std::vector<double> interior() const {
    std::vector<double> out;
    for (index_t j = 0; j < ny; ++j) {
      for (index_t i = 0; i < nx; ++i) out.push_back(*u->at(i, j));
    }
    return out;
  }

  ops::Stencil* xp;
  ops::Stencil* xm;
  ops::Stencil* yp;
  ops::Stencil* ym;
};

std::pair<std::vector<double>, double> run_seq(int steps) {
  Diffusion d;
  auto loop = [&](const char* name, const ops::Range& r, auto&& k,
                  auto... args) {
    ops::par_loop(d.ctx, name, *d.grid, r, k, args...);
  };
  d.init(loop);
  double last = 0;
  for (int s = 0; s < steps; ++s) last = d.step(loop);
  return {d.interior(), last};
}

std::pair<std::vector<double>, double> run_dist(
    int steps, int nranks, ops::Backend node_backend = ops::Backend::kSeq,
    std::uint64_t* halo_bytes = nullptr, ops::Distributed** out = nullptr) {
  Diffusion d;
  ops::Distributed dist(d.ctx, nranks);
  dist.set_node_backend(node_backend);
  auto loop = [&](const char* name, const ops::Range& r, auto&& k,
                  auto... args) {
    dist.par_loop(name, *d.grid, r, k, args...);
  };
  d.init(loop);
  double last = 0;
  for (int s = 0; s < steps; ++s) last = d.step(loop);
  dist.fetch(*d.u);
  if (halo_bytes) *halo_bytes = dist.comm().traffic().total_bytes();
  (void)out;
  return {d.interior(), last};
}

class OpsDist : public ::testing::TestWithParam<int> {};

TEST_P(OpsDist, MatchesSequential) {
  const auto [ref, sum_ref] = run_seq(6);
  const auto [got, sum] = run_dist(6, GetParam());
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-13) << i;
  }
  EXPECT_NEAR(sum, sum_ref, 1e-11 * (1 + std::abs(sum_ref)));
}

INSTANTIATE_TEST_SUITE_P(Ranks, OpsDist, ::testing::Values(1, 2, 3, 4, 6));

TEST(OpsDist, HybridThreadsMatches) {
  const auto [ref, sum_ref] = run_seq(4);
  const auto [got, sum] = run_dist(4, 4, ops::Backend::kThreads);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-13) << i;
  }
  EXPECT_NEAR(sum, sum_ref, 1e-11 * (1 + std::abs(sum_ref)));
}

TEST(OpsDist, SingleRankSendsNothing) {
  std::uint64_t bytes = ~0ull;
  run_dist(3, 1, ops::Backend::kSeq, &bytes);
  EXPECT_EQ(bytes, 0u);
}

TEST(OpsDist, HaloTrafficGrowsSublinearlyWithRanks) {
  std::uint64_t b2 = 0, b6 = 0;
  run_dist(4, 2, ops::Backend::kSeq, &b2);
  run_dist(4, 6, ops::Backend::kSeq, &b6);
  EXPECT_GT(b6, b2);
  EXPECT_LT(b6, b2 * 6);
}

TEST(OpsDist, ProcessGridIsNearSquare) {
  Diffusion d(24, 24);
  ops::Distributed dist(d.ctx, 6);
  const auto grid = dist.process_grid(*d.grid);
  EXPECT_EQ(grid[0] * grid[1], 6);
  EXPECT_GE(grid[0], 2);  // 2x3 or 3x2, not 1x6
}

TEST(OpsDist, HaloPointsMatchPerimeter) {
  Diffusion d(32, 32);
  ops::Distributed dist(d.ctx, 4);  // 2x2 grid
  const std::size_t pts = dist.halo_points(*d.u);
  // 2x2 decomposition of 32x32 with depth-1 halos: two 16-high cuts per
  // column pair (x strips) + full-width y strips including x halos.
  EXPECT_GT(pts, 100u);
  EXPECT_LT(pts, 400u);
}

TEST(OpsDist, OnDemandExchangeSkipsCleanDats) {
  Diffusion d;
  ops::Distributed dist(d.ctx, 4);
  auto loop = [&](const char* name, const ops::Range& r, auto&& k,
                  auto... args) {
    dist.par_loop(name, *d.grid, r, k, args...);
  };
  d.init(loop);
  const auto before = dist.comm().traffic().messages();
  // A zero-point-only loop must not trigger any exchange (the reduction
  // uses the allreduce path, not point-to-point messages).
  double sum = 0;
  dist.par_loop("sum", *d.grid, ops::Range::dim2(0, d.nx, 0, d.ny),
                [](ops::Acc<double> u, double* s) { s[0] += u(0, 0); },
                ops::arg(*d.u, Access::kRead),
                ops::arg_gbl(&sum, 1, Access::kInc));
  EXPECT_EQ(dist.comm().traffic().messages(), before);
}

// ---- profile surfacing ------------------------------------------------------

// Distributed traffic must land in the global Profile, not just the Comm
// ledger: halo bytes per loop, full byte/element accounting (so GB/s is
// nonzero on the dist path), and rollback-recovery traffic under the
// "<recover>" pseudo-loop — all visible in report().
TEST(OpsDist, HaloAndRecoveryTrafficReachProfile) {
  Diffusion d;
  ops::Distributed dist(d.ctx, 4);
  auto loop = [&](const char* name, const ops::Range& r, auto&& k,
                  auto... args) {
    dist.par_loop(name, *d.grid, r, k, args...);
  };
  d.init(loop);
  for (int s = 0; s < 3; ++s) d.step(loop);

  apl::Profile& prof = d.ctx.profile();
  const apl::LoopStats& diff = prof.stats("diff");
  EXPECT_EQ(diff.calls, 3u);
  EXPECT_GT(diff.elements, 0u);
  EXPECT_GT(diff.bytes(), 0u) << "dist path must account loop traffic";
  EXPECT_GT(diff.seconds, 0.0);
  EXPECT_GT(diff.halo_bytes, 0u)
      << "the 5-point stencil on 4 ranks must exchange halos";

  const std::string base = ::testing::TempDir() + "ops_dist_recover.ckpt";
  apl::io::CheckpointStore store(base);
  store.remove_files();  // stale slots from an earlier run
  dist.checkpoint(store, 1);
  dist.recover(store);
  const apl::LoopStats& rec = prof.stats("<recover>");
  EXPECT_EQ(rec.calls, 1u);
  EXPECT_GT(rec.halo_bytes, 0u) << "recovery must record restored bytes";

  const std::string rep = prof.report();
  EXPECT_NE(rep.find("halo(MB)"), std::string::npos) << rep;
  EXPECT_NE(rep.find("<recover>"), std::string::npos) << rep;
  store.remove_files();
}

}  // namespace
