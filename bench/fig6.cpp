// Fig. 6: CloverLeaf strong and weak scaling on Titan (Cray XK7),
// MPI (16-core Opteron per node) vs MPI+CUDA (one K20X per node),
// up to 8192 nodes.
//
// Method: the halo bytes a rank sends are priced per cell of boundary it
// shares with a neighbour, over the same process grid the live OPS
// decomposition uses; the constant is calibrated once against the live
// distributed runtime at 4 ranks and validated at 16. Compute is the
// instrumented per-loop profile priced on the XK7 CPU / K20X;
// communication is the Gemini alpha-beta model.
#include <cmath>
#include <cstdio>
#include <utility>

#include "cloverleaf/cloverleaf_ops.hpp"
#include "common.hpp"

namespace bench {
namespace {

/// The px x py process grid of `nodes` ranks: px is the largest divisor
/// of `nodes` not above round(sqrt(nodes)), as ops::Distributed picks it.
std::pair<int, int> process_grid(int nodes) {
  int px = static_cast<int>(std::round(std::sqrt(nodes)));
  while (nodes % px != 0) --px;
  return {px, nodes / px};
}

/// Mean boundary cells a rank shares with its neighbours when an n x n
/// domain is cut over `nodes` ranks. Every interior grid line of length n
/// is shared by the ranks on both of its sides, so an edge rank counts
/// fewer sides than an interior one.
double shared_boundary_per_rank(double n, int nodes) {
  const auto [px, py] = process_grid(nodes);
  return 2.0 * n * ((px - 1) + (py - 1)) / nodes;
}

/// Live halo bytes per rank per step of a `ranks`-rank OPS CloverLeaf.
double live_halo_bytes(const cloverleaf::Options& opts, int ranks) {
  cloverleaf::CloverOps live(opts);
  live.enable_distributed(ranks);
  live.run(1);
  live.distributed()->comm().traffic().reset();
  live.run(1);
  return static_cast<double>(
             live.distributed()->comm().traffic().total_bytes()) /
         ranks;
}

}  // namespace

void fig6(Checks& c) {
  print_header("Fig. 6 — CloverLeaf scaling on Titan (XK7)",
               "Reguly et al., CLUSTER'15, Fig. 6a/6b");

  cloverleaf::Options opts;
  opts.nx = opts.ny = 96;
  cloverleaf::CloverOps app(opts);
  const int steps = 5;
  app.run(steps);
  const auto& prof = app.ctx().profile();
  const double cells = static_cast<double>(opts.nx) * opts.ny;

  // Halo bytes per shared boundary cell (it folds in the exchanged-field
  // count, halo depth and per-step exchange frequency): calibrated at 4
  // ranks, validated at 16.
  const double n = opts.nx;
  const double live4 = live_halo_bytes(opts, 4);
  const double halo_k = live4 / shared_boundary_per_rank(n, 4);
  const double live16 = live_halo_bytes(opts, 16);
  const double model16 = halo_k * shared_boundary_per_rank(n, 16);
  std::printf("\nhalo model against the live OPS runtime (B/rank/step):\n");
  std::printf("   4 ranks: live %8.0f (calibration: %.1f B per shared "
              "boundary cell)\n",
              live4, halo_k);
  std::printf("  16 ranks: live %8.0f, model %8.0f\n", live16, model16);

  const apl::perf::Machine cpu = apl::perf::machine("xk7-cpu");
  const apl::perf::Machine gpu = apl::perf::machine("k20x");
  const apl::perf::Network net = apl::perf::network("gemini");
  const int iters = 87;

  const auto run_time = [&](const apl::perf::Machine& m, double total_cells,
                            int nodes) {
    const double per_node_scale = total_cells / nodes / cells;
    const double comp = projected_run_time(
        m, prof, iters / static_cast<double>(steps), per_node_scale);
    const double halo =
        nodes > 1 ? halo_k * shared_boundary_per_rank(std::sqrt(total_cells),
                                                      nodes)
                  : 0.0;
    const double comm =
        iters * (net.exchange_time(4, static_cast<std::uint64_t>(halo)) +
                 net.allreduce_time(nodes));
    return comp + comm;
  };

  const double strong_cells = 15360.0 * 15360.0;
  const auto strong = [&](const apl::perf::Machine& m, int nodes) {
    return run_time(m, strong_cells, nodes);
  };
  std::printf("\n--- Fig. 6a strong scaling (15360^2 cells, %d steps) ---\n",
              iters);
  std::printf("%6s | %12s %12s | ratio\n", "nodes", "MPI (CPU)", "MPI+CUDA");
  for (int nodes : {128, 256, 512, 1024, 2048, 4096, 8192}) {
    const double tc = strong(cpu, nodes), tg = strong(gpu, nodes);
    std::printf("%6d | %12.2f %12.2f | %5.2fx\n", nodes, tc, tg, tc / tg);
  }
  std::printf("efficiency 128->4096 nodes: CPU %.0f%%, GPU %.0f%%\n",
              100.0 * strong(cpu, 128) / (strong(cpu, 4096) * 32),
              100.0 * strong(gpu, 128) / (strong(gpu, 4096) * 32));

  const auto weak = [&](const apl::perf::Machine& m, int nodes) {
    return run_time(m, 3840.0 * 3840.0 * nodes, nodes);
  };
  std::printf("\n--- Fig. 6b weak scaling (3840^2 cells per node) ---\n");
  std::printf("%6s | %12s %12s\n", "nodes", "MPI (CPU)", "MPI+CUDA");
  for (int nodes : {1, 4, 16, 64, 256, 1024, 4096}) {
    std::printf("%6d | %12.2f %12.2f\n", nodes, weak(cpu, nodes),
                weak(gpu, nodes));
  }
  const double cpu_weak = weak(cpu, 4096) / weak(cpu, 1) - 1;
  std::printf("weak loss 1->4096 nodes: CPU %.1f%% (paper ~1%%), GPU %.1f%%"
              " (paper ~6%%)\n",
              100.0 * cpu_weak, 100.0 * (weak(gpu, 4096) / weak(gpu, 1) - 1));

  std::printf("\n");
  c.expect(std::abs(live16 / model16 - 1.0) <= 0.15,
           "16-rank halo live/model %.2f within +-15%% of 1",
           live16 / model16);
  c.expect(strong(gpu, 128) < strong(cpu, 128),
           "MPI+CUDA %.2f s beats MPI %.2f s at 128 nodes", strong(gpu, 128),
           strong(cpu, 128));
  c.expect(strong(gpu, 8192) > strong(cpu, 8192),
           "MPI+CUDA %.2f s loses to MPI %.2f s at 8192 nodes",
           strong(gpu, 8192), strong(cpu, 8192));
  c.expect(cpu_weak < 0.05, "CPU weak-scaling loss 1->4096 nodes %.1f%% < 5%%",
           100.0 * cpu_weak);
  c.paper_speedup("CPU strong scaling 128->4096 nodes",
                  strong(cpu, 128) / strong(cpu, 4096), 32);
}

}  // namespace bench
