// Lazy loop-chain execution with cache-blocked tiling (paper Sec. IV):
// eager vs lazy-tiled runs of (a) the CloverLeaf timestep chain and (b) a
// long two-field stencil chain on the multi-block channel geometry.
//
// Eager execution streams every dataset through DRAM once per loop.
// Queuing the chain and executing it tile-by-tile with skewed tile edges
// keeps each tile's working set cache-resident across all loops, so each
// dataset enters from DRAM roughly once per *chain* instead of once per
// *loop*. The figure reports the modeled DRAM traffic both ways (the
// honesty rule: counted bytes, not guessed speedups) and checks that the
// tiled results are bitwise equal to eager.
//
// Guarded kAccess (OPAL_VERIFY=access) deliberately bypasses the lazy
// engine, so the lazy contexts drop that one check; every other guard
// stays on.
#include <cstdio>
#include <cstring>
#include <vector>

#include "cloverleaf/cloverleaf_ops.hpp"
#include "common.hpp"
#include "ops/ops.hpp"

namespace bench {
namespace {

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void drop_access_check(ops::Context& ctx) {
  ctx.set_verify(ctx.verify_checks() & ~apl::verify::kAccess);
}

/// Prints the lazy run's chain stats and checks the tiled fields against
/// eager and the modeled traffic saving.
void report(Checks& c, const char* what, const ops::ChainStats& st,
            bool bitwise) {
  std::printf("  chains %llu (longest %llu loops), loops %llu -> tiles %llu\n"
              "  modeled DRAM traffic %.2f GB eager -> %.2f GB tiled\n\n",
              static_cast<unsigned long long>(st.flushes),
              static_cast<unsigned long long>(st.max_chain),
              static_cast<unsigned long long>(st.loops),
              static_cast<unsigned long long>(st.tiles),
              static_cast<double>(st.eager_bytes) * 1e-9,
              static_cast<double>(st.tiled_bytes) * 1e-9);
  c.expect(bitwise, "%s fields eager == lazy-tiled bitwise", what);
  c.expect(st.traffic_saved_fraction() > 0,
           "%s modeled traffic saved %.1f%% > 0", what,
           100.0 * st.traffic_saved_fraction());
}

// ---- (a) CloverLeaf ---------------------------------------------------------

void tiling_cloverleaf(Checks& c) {
  print_header(
      "CloverLeaf: eager vs lazy-tiled loop chains",
      "Sec. IV loop chaining / tiling (CloverLeaf timestep, OPS API)");

  cloverleaf::Options o;
  o.nx = o.ny = 512;  // ~20 fields x 516^2 x 8B >> cache: tiling has work to do
  const int steps = 5;

  cloverleaf::CloverOps eager(o);
  eager.run(steps);

  o.lazy = true;
  cloverleaf::CloverOps lazy(o);
  drop_access_check(lazy.ctx());
  lazy.run(steps);

  report(c, "CloverLeaf 512x512", lazy.ctx().chain_stats(),
         bitwise_equal(eager.density(), lazy.density()) &&
             bitwise_equal(eager.velocity_x(), lazy.velocity_x()));
}

// ---- (b) multi-block channel chain -----------------------------------------

struct Channel {
  ops::Context ctx;
  ops::Block* left;
  ops::Block* right;
  ops::Stencil* five;
  ops::Dat<double>*u_l, *t_l, *u_r, *t_r;
  ops::index_t nx, ny;

  Channel(ops::index_t nx_, ops::index_t ny_) : nx(nx_), ny(ny_) {
    left = &ctx.decl_block(2, "left");
    right = &ctx.decl_block(2, "right");
    five = &ctx.decl_stencil(2,
                             {{{0, 0, 0}},
                              {{1, 0, 0}},
                              {{-1, 0, 0}},
                              {{0, 1, 0}},
                              {{0, -1, 0}}},
                             "5pt");
    const auto dat = [&](ops::Block& b, const char* n) {
      return &ctx.decl_dat<double>(b, 1, {nx, ny, 1}, {1, 1, 0}, {1, 1, 0},
                                   n);
    };
    u_l = dat(*left, "u_l");
    t_l = dat(*left, "t_l");
    u_r = dat(*right, "u_r");
    t_r = dat(*right, "t_r");
    for (auto* u : {u_l, u_r}) {
      ops::par_loop(ctx, "init", u->block(),
                    ops::Range::dim2(-1, nx + 1, -1, ny + 1),
                    [](ops::Acc<double> u, const int* idx) {
                      u(0, 0) = 0.001 * (idx[0] + 7) * (idx[1] + 3);
                    },
                    ops::arg(*u, ops::Access::kWrite), ops::arg_idx());
    }
  }

  /// One sweep = diffuse + copy-back on both blocks: 4 loops. `sweeps`
  /// of them queue into one 4*sweeps-loop chain before the flush.
  void run(int sweeps) {
    for (int s = 0; s < sweeps; ++s) {
      for (auto [u, t] : {std::pair{u_l, t_l}, std::pair{u_r, t_r}}) {
        ops::par_loop(ctx, "diffuse", u->block(),
                      ops::Range::dim2(0, nx, 0, ny),
                      [](ops::Acc<double> u, ops::Acc<double> t) {
                        t(0, 0) = u(0, 0) + 0.2 * (u(1, 0) + u(-1, 0) +
                                                   u(0, 1) + u(0, -1) -
                                                   4 * u(0, 0));
                      },
                      ops::arg(*u, *five, ops::Access::kRead),
                      ops::arg(*t, ops::Access::kWrite));
        ops::par_loop(ctx, "copy", u->block(), ops::Range::dim2(0, nx, 0, ny),
                      [](ops::Acc<double> t, ops::Acc<double> u) {
                        u(0, 0) = t(0, 0);
                      },
                      ops::arg(*t, ops::Access::kRead),
                      ops::arg(*u, ops::Access::kWrite));
      }
    }
    ctx.flush();
  }
};

void tiling_channel(Checks& c) {
  print_header(
      "multi-block channel: 24-loop chain, eager vs lazy-tiled",
      "Sec. IV loop chaining across many cheap stencil loops");

  const ops::index_t nx = 1024, ny = 1024;
  const int sweeps = 6;  // 6 sweeps x 4 loops = a 24-loop chain per flush

  Channel eager(nx, ny);
  eager.run(sweeps);

  Channel lazy(nx, ny);
  drop_access_check(lazy.ctx);
  lazy.ctx.set_lazy(true);
  lazy.run(sweeps);

  report(c, "channel", lazy.ctx.chain_stats(),
         bitwise_equal(eager.u_l->to_vector(), lazy.u_l->to_vector()) &&
             bitwise_equal(eager.u_r->to_vector(), lazy.u_r->to_vector()));
}

}  // namespace

void tiling(Checks& c) {
  tiling_cloverleaf(c);
  tiling_channel(c);
}

}  // namespace bench
