// Quickstart: solving the 2D heat equation with the OPS structured-mesh
// API in ~60 lines of application code.
//
//   $ ./quickstart
//
// Declares one block, one dataset with a 1-deep halo, a 5-point stencil,
// and runs Jacobi sweeps as ops::par_loop calls. Switching the backend
// (seq / threads / cudasim) changes nothing in the application,
// and neither does turning on lazy execution: par_loop then queues loops
// and the chain runs — tiled for cache residency — at the next flush
// point (here: the residual reduction each sweep).
#include <cstdio>

#include "apl/exec.hpp"
#include "ops/ops.hpp"

int main() {
  const ops::index_t n = 64;
  ops::Context ctx;
  ops::Block& grid = ctx.decl_block(2, "grid");
  ops::Stencil& five = ctx.decl_stencil(
      2, {{{0, 0, 0}}, {{1, 0, 0}}, {{-1, 0, 0}}, {{0, 1, 0}}, {{0, -1, 0}}},
      "5pt");
  auto& u = ctx.decl_dat<double>(grid, 1, {n, n, 1}, {1, 1, 0}, {1, 1, 0},
                                 "u");
  auto& unew = ctx.decl_dat<double>(grid, 1, {n, n, 1}, {1, 1, 0}, {1, 1, 0},
                                    "unew");

  // Boundary condition: u = 1 on the left edge, 0 elsewhere (fixed).
  ops::par_loop(ctx, "init", grid, ops::Range::dim2(-1, n + 1, -1, n + 1),
                [n](ops::Acc<double> u, const int* idx) {
                  u(0, 0) = idx[0] < 0 ? 1.0 : 0.0;
                },
                ops::arg(u, ops::Access::kWrite),
                ops::arg_idx());

  // One-line backend switch; APL_BACKEND=seq|threads|cudasim wins
  // (any other name throws apl::Error).
  ctx.set_backend(
      apl::exec::backend_from_env(apl::exec::Backend::kThreads));
  ctx.set_lazy(true);  // queue loops; flush points execute the chain tiled
  double change = 1.0;
  int sweeps = 0;
  while (change > 1e-8 && sweeps < 20000) {
    ops::par_loop(ctx, "jacobi", grid, ops::Range::dim2(0, n, 0, n),
                  [](ops::Acc<double> u, ops::Acc<double> out) {
                    out(0, 0) =
                        0.25 * (u(1, 0) + u(-1, 0) + u(0, 1) + u(0, -1));
                  },
                  ops::arg(u, five, ops::Access::kRead),
                  ops::arg(unew, ops::Access::kWrite));
    change = 0.0;
    ops::par_loop(ctx, "copy", grid, ops::Range::dim2(0, n, 0, n),
                  [](ops::Acc<double> out, ops::Acc<double> u, double* c) {
                    c[0] += std::abs(out(0, 0) - u(0, 0));
                    u(0, 0) = out(0, 0);
                  },
                  ops::arg(unew, ops::Access::kRead),
                  ops::arg(u, ops::Access::kWrite),
                  ops::arg_gbl(&change, 1, ops::Access::kInc));
    ++sweeps;
  }
  std::printf("converged after %d sweeps (residual %.2e)\n", sweeps, change);
  std::printf("steady-state u(1,%d) = %.4f (analytic: decays from the hot "
              "left wall)\n",
              n / 2, *u.at(1, n / 2));
  std::printf("\nper-loop profile:\n%s", ctx.profile().report().c_str());
  return 0;
}
