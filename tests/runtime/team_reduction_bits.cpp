// Prints the bits of threads-backend global reductions, op2 and ops, so
// that runs under different team sizes can be compared byte for byte:
//
//   OPAL_NUM_THREADS=N team_reduction_bits
//
// stdout carries one line per reduction (hex bit patterns), then the rms
// and a digest of every solution bit of a renumbered MiniHydra stepped on
// the threads backend at the context's default plan block size; stderr
// names the team size the process pool actually has.
// tests/runtime/team_bits.cmake runs it at 1, 2 and 4 members and fails
// unless stdout is identical. The inputs are irrational-looking values, so
// a kInc sum reassociated by a different partition of the work changes its
// low bits.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "apl/signature.hpp"
#include "apl/testkit/fixtures.hpp"
#include "apl/thread_pool.hpp"
#include "minihydra/minihydra.hpp"
#include "op2/op2.hpp"
#include "ops/ops.hpp"

namespace {

using apl::exec::Access;
using apl::exec::Backend;

void print(const std::string& label, const double* v, int n) {
  std::printf("%s", label.c_str());
  for (int i = 0; i < n; ++i) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v[i]);
    std::printf(" %016llx", static_cast<unsigned long long>(bits));
  }
  std::printf("\n");
}

double wave(int i) { return std::sin(0.37 * i) + 1e-3 * std::cos(1.7 * i); }

void op2_reductions() {
  const apl::testkit::GridMesh mesh = apl::testkit::make_grid(41, 29);
  op2::Context ctx;
  ctx.set_backend(Backend::kThreads);
  ctx.set_block_size(4);  // many blocks per color
  op2::Set& edges = ctx.decl_set(mesh.num_edges(), "edges");
  op2::Set& nodes = ctx.decl_set(mesh.num_nodes(), "nodes");
  op2::Map& e2n = ctx.decl_map(edges, nodes, 2, mesh.edge2node, "e2n");
  std::vector<double> qi(static_cast<std::size_t>(mesh.num_nodes()) * 3);
  for (std::size_t i = 0; i < qi.size(); ++i) qi[i] = wave(static_cast<int>(i));
  op2::Dat<double>& q = ctx.decl_dat<double>(nodes, 3, qi, "q");

  double sum[3] = {0.0, 0.0, 0.0};
  double mn = 1e300, mx = -1e300;
  op2::par_loop(
      ctx, "direct", nodes,
      [](op2::Acc<double> q, op2::Acc<double> s, op2::Acc<double> lo,
         op2::Acc<double> hi) {
        for (int d = 0; d < 3; ++d) s[d] += q[d] * q[d] / 3.0;
        lo[0] = std::min(lo[0], q[0] - q[1]);
        hi[0] = std::max(hi[0], q[1] * q[2]);
      },
      op2::arg(q, Access::kRead), op2::arg_gbl(sum, 3, Access::kInc),
      op2::arg_gbl(&mn, 1, Access::kMin), op2::arg_gbl(&mx, 1, Access::kMax));
  print("op2 direct inc3", sum, 3);
  print("op2 direct min", &mn, 1);
  print("op2 direct max", &mx, 1);

  double flux[3] = {0.0, 0.0, 0.0};
  double emn = 1e300, emx = -1e300;
  op2::par_loop(
      ctx, "indirect", edges,
      [](op2::Acc<double> a, op2::Acc<double> b, op2::Acc<double> s,
         op2::Acc<double> lo, op2::Acc<double> hi) {
        for (int d = 0; d < 3; ++d) s[d] += (a[d] - b[d]) * (a[d] + b[d]) / 7.0;
        lo[0] = std::min(lo[0], a[2] - b[0]);
        hi[0] = std::max(hi[0], a[1] + b[2]);
      },
      op2::arg(q, e2n, 0, Access::kRead), op2::arg(q, e2n, 1, Access::kRead),
      op2::arg_gbl(flux, 3, Access::kInc), op2::arg_gbl(&emn, 1, Access::kMin),
      op2::arg_gbl(&emx, 1, Access::kMax));
  print("op2 indirect inc3", flux, 3);
  print("op2 indirect min", &emn, 1);
  print("op2 indirect max", &emx, 1);
}

// nx x ny x nz points on an ndim block; ny == 1 on a 2D block makes x the
// parallel dimension, as on a 1D block.
void ops_reductions(const std::string& tag, int ndim, ops::index_t nx,
                    ops::index_t ny, ops::index_t nz) {
  ops::Context ctx;
  ctx.set_backend(Backend::kThreads);
  ops::Block& grid = ctx.decl_block(ndim, "grid");
  auto& u = ctx.decl_dat<double>(grid, 1, {nx, ny, nz}, {0, 0, 0}, {0, 0, 0},
                                 "u");
  const ops::Range all = ops::Range{{0, 0, 0}, {nx, ny, nz}};
  ops::par_loop(ctx, "init", grid, all,
                [](ops::Acc<double> u, const int* idx) {
                  u(0, 0, 0) = wave(idx[0] + 41 * idx[1] + 1013 * idx[2]);
                },
                ops::arg(u, Access::kWrite), ops::arg_idx());
  double sum = 0.0, mn = 1e300;
  ops::par_loop(ctx, "reduce", grid, all,
                [](ops::Acc<double> u, double* s, double* lo) {
                  s[0] += u(0, 0, 0) * u(0, 0, 0) / 3.0;
                  lo[0] = std::min(lo[0], u(0, 0, 0));
                },
                ops::arg(u, Access::kRead), ops::arg_gbl(&sum, 1, Access::kInc),
                ops::arg_gbl(&mn, 1, Access::kMin));
  print(tag + " inc", &sum, 1);
  print(tag + " min", &mn, 1);
}

// Colored indirect increments end to end: 240x120 cells give ~57k edges,
// so the edge loops' plans have several 4096-element blocks per color.
void hydra_solution() {
  minihydra::MiniHydra::Options opts;
  opts.nx = 240;
  opts.ny = 120;
  minihydra::MiniHydra app(opts);
  app.renumber();
  app.ctx().set_backend(Backend::kThreads);
  const double rms = app.run(2);
  print("hydra rms", &rms, 1);
  const std::vector<double> q = app.solution();
  apl::signature::Hasher h;
  h.span(std::span<const double>(q));
  std::printf("hydra solution %zu values digest %016llx\n", q.size(),
              static_cast<unsigned long long>(h.value()));
}

}  // namespace

int main() {
  std::fprintf(stderr, "team %zu\n", apl::ThreadPool::global().size());
  op2_reductions();
  ops_reductions("ops 1d", 1, 40000, 1, 1);
  ops_reductions("ops 2d one row", 2, 40000, 1, 1);
  ops_reductions("ops 2d", 2, 37, 600, 1);
  ops_reductions("ops 3d", 3, 37, 23, 20);
  hydra_solution();
  return 0;
}
