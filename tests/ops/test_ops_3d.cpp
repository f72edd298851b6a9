// 3D OPS coverage: the abstraction supports 1D/2D/3D blocks (paper
// Sec. II-A); these tests exercise the third dimension through a 3D
// Jacobi sweep across backends.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "ops/ops.hpp"

namespace {

using ops::Access;
using ops::index_t;

struct Heat3D {
  explicit Heat3D(index_t n = 10) : n(n) {
    grid = &ctx.decl_block(3, "grid3d");
    seven = &ctx.decl_stencil(3,
                              {{{0, 0, 0}},
                               {{1, 0, 0}},
                               {{-1, 0, 0}},
                               {{0, 1, 0}},
                               {{0, -1, 0}},
                               {{0, 0, 1}},
                               {{0, 0, -1}}},
                              "7pt");
    u = &ctx.decl_dat<double>(*grid, 1, {n, n, n}, {1, 1, 1}, {1, 1, 1},
                              "u");
    t = &ctx.decl_dat<double>(*grid, 1, {n, n, n}, {1, 1, 1}, {1, 1, 1},
                              "t");
    ops::par_loop(ctx, "init3d", *grid,
                  ops::Range::dim3(-1, n + 1, -1, n + 1, -1, n + 1),
                  [](ops::Acc<double> u, const int* idx) {
                    u(0, 0, 0) = std::sin(0.4 * idx[0]) +
                                 std::cos(0.3 * idx[1]) +
                                 std::sin(0.2 * idx[2]);
                  },
                  ops::arg(*u, Access::kWrite),
                  ops::arg_idx());
  }

  void sweep() {
    ops::par_loop(ctx, "jacobi3d", *grid, ops::Range::dim3(0, n, 0, n, 0, n),
                  [](ops::Acc<double> u, ops::Acc<double> t) {
                    t(0, 0, 0) = (u(1, 0, 0) + u(-1, 0, 0) + u(0, 1, 0) +
                                  u(0, -1, 0) + u(0, 0, 1) + u(0, 0, -1)) /
                                 6.0;
                  },
                  ops::arg(*u, *seven, Access::kRead),
                  ops::arg(*t, Access::kWrite));
    ops::par_loop(ctx, "copy3d", *grid, ops::Range::dim3(0, n, 0, n, 0, n),
                  [](ops::Acc<double> t, ops::Acc<double> u) {
                    u(0, 0, 0) = t(0, 0, 0);
                  },
                  ops::arg(*t, Access::kRead),
                  ops::arg(*u, Access::kWrite));
  }

  std::vector<double> interior() const {
    std::vector<double> out;
    for (index_t k = 0; k < n; ++k) {
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < n; ++i) out.push_back(*u->at(i, j, k));
      }
    }
    return out;
  }

  index_t n;
  ops::Context ctx;
  ops::Block* grid;
  ops::Stencil* seven;
  ops::Dat<double>* u;
  ops::Dat<double>* t;
};

TEST(Ops3D, AllocationAndAddressing) {
  Heat3D h(6);
  EXPECT_EQ(h.u->alloc_size()[2], 8);
  *h.u->at(2, 3, 4) = 42.0;
  EXPECT_EQ(*h.u->at(2, 3, 4), 42.0);
  *h.u->at(-1, -1, -1) = 7.0;  // halo corner addressable
  EXPECT_EQ(*h.u->at(-1, -1, -1), 7.0);
}

TEST(Ops3D, StencilReachesAllSixNeighbours) {
  Heat3D h(5);
  ops::par_loop(h.ctx, "zero", *h.grid,
                ops::Range::dim3(-1, 6, -1, 6, -1, 6),
                [](ops::Acc<double> u) { u(0, 0, 0) = 0.0; },
                ops::arg(*h.u, Access::kWrite));
  *h.u->at(2, 2, 2) = 6.0;
  h.sweep();
  EXPECT_DOUBLE_EQ(*h.u->at(1, 2, 2), 1.0);
  EXPECT_DOUBLE_EQ(*h.u->at(3, 2, 2), 1.0);
  EXPECT_DOUBLE_EQ(*h.u->at(2, 1, 2), 1.0);
  EXPECT_DOUBLE_EQ(*h.u->at(2, 3, 2), 1.0);
  EXPECT_DOUBLE_EQ(*h.u->at(2, 2, 1), 1.0);
  EXPECT_DOUBLE_EQ(*h.u->at(2, 2, 3), 1.0);
  EXPECT_DOUBLE_EQ(*h.u->at(2, 2, 2), 0.0);
}

class Ops3DBackends : public ::testing::TestWithParam<ops::Backend> {};

TEST_P(Ops3DBackends, MatchesSeq) {
  Heat3D ref;
  for (int s = 0; s < 4; ++s) ref.sweep();
  Heat3D h;
  h.ctx.set_backend(GetParam());
  for (int s = 0; s < 4; ++s) h.sweep();
  const auto a = ref.interior();
  const auto b = h.interior();
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], b[i]);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, Ops3DBackends,
                         ::testing::Values(ops::Backend::kSeq,
                                           ops::Backend::kThreads,
                                           ops::Backend::kCudaSim),
                         [](const auto& info) {
                           return ops::to_string(info.param);
                         });

TEST(Ops3D, ReductionOverVolume) {
  Heat3D h(8);
  double sum = 0, mx = -1e300;
  ops::par_loop(h.ctx, "reduce3d", *h.grid,
                ops::Range::dim3(0, 8, 0, 8, 0, 8),
                [](ops::Acc<double> u, double* s, double* m) {
                  s[0] += u(0, 0, 0);
                  m[0] = std::max(m[0], u(0, 0, 0));
                },
                ops::arg(*h.u, Access::kRead),
                ops::arg_gbl(&sum, 1, Access::kInc),
                ops::arg_gbl(&mx, 1, Access::kMax));
  double want = 0;
  for (double v : h.interior()) want += v;
  EXPECT_NEAR(sum, want, 1e-10 * (1 + std::abs(want)));
  EXPECT_LE(mx, 3.0);
}

TEST(Ops3D, StencilCheckerWorksIn3D) {
  Heat3D h(5);
  h.ctx.set_verify(h.ctx.verify_checks() | apl::verify::kStencil);
  EXPECT_THROW(
      ops::par_loop(h.ctx, "evil3d", *h.grid,
                    ops::Range::dim3(0, 3, 0, 3, 0, 3),
                    [](ops::Acc<double> u, ops::Acc<double> t) {
                      t(0, 0, 0) = u(1, 1, 1);  // diagonal: undeclared
                    },
                    ops::arg(*h.u, *h.seven, Access::kRead),
                    ops::arg(*h.t, Access::kWrite)),
      apl::Error);
}

}  // namespace
