// ops::par_loop semantics: kernel accessor correctness, reductions,
// arg_idx, cross-backend equivalence on a heat-equation sweep, the
// apl::verify::kStencil checker.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "apl/testkit/fixtures.hpp"
#include "apl/thread_pool.hpp"
#include "ops/ops.hpp"

namespace {

using ops::Access;
using ops::index_t;

// Declarations (block, 5pt stencil, u/t field pair) come from the shared
// testkit fixture; `unew` keeps this file's historical name for t.
struct HeatFixture : apl::testkit::HeatGrid {
  ops::Dat<double>* unew = nullptr;

  explicit HeatFixture(index_t nx = 16, index_t ny = 12) : HeatGrid(nx, ny) {
    unew = t;
    // Initialize interior + halos with a smooth field via arg_idx.
    ops::par_loop(ctx, "init", *grid,
                  ops::Range::dim2(-1, nx + 1, -1, ny + 1),
                  [](ops::Acc<double> u, const int* idx) {
                    u(0, 0) = std::sin(0.3 * idx[0]) + std::cos(0.2 * idx[1]);
                  },
                  ops::arg(*u, Access::kWrite),
                  ops::arg_idx());
  }

  void sweep() {
    ops::par_loop(ctx, "jacobi", *grid, ops::Range::dim2(0, nx, 0, ny),
                  [](ops::Acc<double> u, ops::Acc<double> out) {
                    out(0, 0) = 0.25 * (u(1, 0) + u(-1, 0) + u(0, 1) +
                                        u(0, -1));
                  },
                  ops::arg(*u, *five, Access::kRead),
                  ops::arg(*unew, Access::kWrite));
    ops::par_loop(ctx, "copy", *grid, ops::Range::dim2(0, nx, 0, ny),
                  [](ops::Acc<double> out, ops::Acc<double> u) {
                    u(0, 0) = out(0, 0);
                  },
                  ops::arg(*unew, Access::kRead),
                  ops::arg(*u, Access::kWrite));
  }

  std::vector<double> interior() const {
    std::vector<double> out;
    for (index_t j = 0; j < ny; ++j) {
      for (index_t i = 0; i < nx; ++i) out.push_back(*u->at(i, j));
    }
    return out;
  }
};

TEST(OpsParLoop, StencilReadsNeighbours) {
  HeatFixture h(6, 5);
  // Set a delta at (2,2) and diffuse once: neighbours get 0.25.
  ops::par_loop(h.ctx, "zero", *h.grid, ops::Range::dim2(-1, 7, -1, 6),
                [](ops::Acc<double> u) { u(0, 0) = 0.0; },
                ops::arg(*h.u, Access::kWrite));
  *h.u->at(2, 2) = 1.0;
  h.sweep();
  EXPECT_DOUBLE_EQ(*h.u->at(2, 2), 0.0);
  EXPECT_DOUBLE_EQ(*h.u->at(3, 2), 0.25);
  EXPECT_DOUBLE_EQ(*h.u->at(1, 2), 0.25);
  EXPECT_DOUBLE_EQ(*h.u->at(2, 3), 0.25);
  EXPECT_DOUBLE_EQ(*h.u->at(2, 1), 0.25);
  EXPECT_DOUBLE_EQ(*h.u->at(3, 3), 0.0);
}

TEST(OpsParLoop, ArgIdxReportsGlobalIndices) {
  HeatFixture h(4, 3);
  std::vector<int> seen;
  double checksum = 0;
  ops::par_loop(h.ctx, "idx", *h.grid, ops::Range::dim2(1, 3, 2, 3),
                [&](const int* idx, double* sum) {
                  seen.push_back(idx[0]);
                  seen.push_back(idx[1]);
                  sum[0] += idx[0] * 10 + idx[1];
                },
                ops::arg_idx(),
                ops::arg_gbl(&checksum, 1, Access::kInc));
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 2, 2}));
  EXPECT_DOUBLE_EQ(checksum, 12 + 22);
}

// arg_idx under the threads backend: every worker must see its own grid
// indices. The checked path (apl::verify::kStencil) hands the kernel a
// pointer per point; a kernel that reads idx[0], works a while, then reads
// idx[1] exposes any index buffer the workers share.
TEST(OpsParLoop, ArgIdxIsPerWorkerOnThreadsBackend) {
  if (apl::ThreadPool::global().size() < 2) {
    GTEST_SKIP() << "needs a thread pool of at least two workers";
  }
  apl::testkit::HeatGrid g(64, 512);
  g.ctx.set_backend(ops::Backend::kThreads);
  g.ctx.set_verify(g.ctx.verify_checks() | apl::verify::kStencil);
  ops::par_loop(g.ctx, "init", *g.grid, g.interior(),
                [](ops::Acc<double> u, const int* idx) {
                  const int i = idx[0];
                  volatile int spin = 0;
                  for (int s = 0; s < 200; ++s) spin = spin + 1;
                  u(0, 0) = 1000.0 * i + idx[1];
                },
                ops::arg(*g.u, Access::kWrite), ops::arg_idx());
  int wrong = 0;
  for (index_t j = 0; j < g.ny; ++j) {
    for (index_t i = 0; i < g.nx; ++i) {
      if (*g.u->at(i, j) != 1000.0 * i + j) ++wrong;
    }
  }
  EXPECT_EQ(wrong, 0) << "points saw another worker's indices";
}

TEST(OpsParLoop, Reductions) {
  HeatFixture h;
  double sum = 0, mn = 1e300, mx = -1e300;
  ops::par_loop(h.ctx, "reduce", *h.grid,
                ops::Range::dim2(0, h.nx, 0, h.ny),
                [](ops::Acc<double> u, double* s, double* lo, double* hi) {
                  s[0] += u(0, 0);
                  lo[0] = std::min(lo[0], u(0, 0));
                  hi[0] = std::max(hi[0], u(0, 0));
                },
                ops::arg(*h.u, Access::kRead),
                ops::arg_gbl(&sum, 1, Access::kInc),
                ops::arg_gbl(&mn, 1, Access::kMin),
                ops::arg_gbl(&mx, 1, Access::kMax));
  double want = 0;
  for (double v : h.interior()) want += v;
  EXPECT_NEAR(sum, want, 1e-12 * std::abs(want));
  EXPECT_LE(mn, mx);
  EXPECT_LT(mx, 2.1);
}

class OpsBackends : public ::testing::TestWithParam<ops::Backend> {};

TEST_P(OpsBackends, HeatSweepMatchesSeq) {
  HeatFixture ref;
  for (int s = 0; s < 5; ++s) ref.sweep();
  HeatFixture h;
  h.ctx.set_backend(GetParam());
  for (int s = 0; s < 5; ++s) h.sweep();
  const auto a = ref.interior();
  const auto b = h.interior();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << i;
  }
}

TEST_P(OpsBackends, ReductionsMatchSeq) {
  HeatFixture h;
  h.ctx.set_backend(GetParam());
  double sum = 0;
  ops::par_loop(h.ctx, "sum", *h.grid, ops::Range::dim2(0, h.nx, 0, h.ny),
                [](ops::Acc<double> u, double* s) { s[0] += u(0, 0); },
                ops::arg(*h.u, Access::kRead),
                ops::arg_gbl(&sum, 1, Access::kInc));
  double want = 0;
  for (double v : h.interior()) want += v;
  EXPECT_NEAR(sum, want, 1e-12 * (1 + std::abs(want)));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, OpsBackends,
                         ::testing::Values(ops::Backend::kSeq,
                                           ops::Backend::kThreads,
                                           ops::Backend::kCudaSim),
                         [](const auto& info) {
                           return ops::to_string(info.param);
                         });

TEST(OpsParLoop, StencilCheckerCatchesUndeclaredAccess) {
  HeatFixture h;
  h.ctx.set_verify(h.ctx.verify_checks() | apl::verify::kStencil);
  // Kernel reads offset (1,1) which the 5-point stencil does not declare.
  EXPECT_THROW(
      ops::par_loop(h.ctx, "evil", *h.grid, ops::Range::dim2(0, 4, 0, 4),
                    [](ops::Acc<double> u, ops::Acc<double> out) {
                      out(0, 0) = u(1, 1);
                    },
                    ops::arg(*h.u, *h.five, Access::kRead),
                    ops::arg(*h.unew,
                             Access::kWrite)),
      apl::Error);
  // A well-behaved kernel passes.
  EXPECT_NO_THROW(
      ops::par_loop(h.ctx, "good", *h.grid, ops::Range::dim2(0, 4, 0, 4),
                    [](ops::Acc<double> u, ops::Acc<double> out) {
                      out(0, 0) = u(1, 0) + u(0, -1);
                    },
                    ops::arg(*h.u, *h.five, Access::kRead),
                    ops::arg(*h.unew,
                             Access::kWrite)));
}

TEST(OpsParLoop, OneDimensionalLoop) {
  ops::Context ctx;
  ops::Block& line = ctx.decl_block(1, "line");
  auto& f = ctx.decl_dat<double>(line, 1, {10, 1, 1}, {1, 0, 0}, {1, 0, 0},
                                 "f");
  ops::Stencil& s3 =
      ctx.decl_stencil(1, {{{0, 0, 0}}, {{1, 0, 0}}, {{-1, 0, 0}}}, "3pt");
  ops::par_loop(ctx, "iota", line, ops::Range::dim1(-1, 11),
                [](ops::Acc<double> f, const int* idx) {
                  f(0) = idx[0];
                },
                ops::arg(f, Access::kWrite),
                ops::arg_idx());
  double sum = 0;
  ops::par_loop(ctx, "lap", line, ops::Range::dim1(0, 10),
                [](ops::Acc<double> f, double* s) {
                  s[0] += f(1) - 2 * f(0) + f(-1);
                },
                ops::arg(f, s3, Access::kRead),
                ops::arg_gbl(&sum, 1, Access::kInc));
  EXPECT_NEAR(sum, 0.0, 1e-12);  // second difference of a linear ramp
}

TEST(OpsParLoop, MultiComponentAccess) {
  ops::Context ctx;
  ops::Block& grid = ctx.decl_block(2, "grid");
  auto& v =
      ctx.decl_dat<double>(grid, 2, {4, 4, 1}, {1, 1, 0}, {1, 1, 0}, "v");
  ops::par_loop(ctx, "setv", grid, ops::Range::dim2(0, 4, 0, 4),
                [](ops::Acc<double> v, const int* idx) {
                  v.at(0, 0, 0) = idx[0];
                  v.at(1, 0, 0) = idx[1];
                },
                ops::arg(v, Access::kWrite),
                ops::arg_idx());
  EXPECT_DOUBLE_EQ(v.at(3, 2)[0], 3.0);
  EXPECT_DOUBLE_EQ(v.at(3, 2)[1], 2.0);
  // Neighbour component access through a stencil.
  ops::Stencil& right = ctx.decl_stencil(2, {{{0, 0, 0}}, {{1, 0, 0}}}, "r");
  double total = 0;
  ops::par_loop(ctx, "gatherv", grid, ops::Range::dim2(0, 3, 0, 4),
                [](ops::Acc<double> v, double* s) {
                  s[0] += v.at(0, 1, 0) - v.at(0, 0, 0);  // dx of comp 0
                },
                ops::arg(v, right, Access::kRead),
                ops::arg_gbl(&total, 1, Access::kInc));
  EXPECT_DOUBLE_EQ(total, 3 * 4);  // gradient 1 at 12 points
}

TEST(OpsParLoop, ProfileAccountsBytes) {
  HeatFixture h(8, 8);
  h.ctx.profile().clear();
  h.sweep();
  const auto& jac = h.ctx.profile().all().at("jacobi");
  EXPECT_EQ(jac.elements, 64u);
  // u read + unew written: 2 doubles per point.
  EXPECT_EQ(jac.bytes_direct, 64u * 2 * sizeof(double));
}

}  // namespace
