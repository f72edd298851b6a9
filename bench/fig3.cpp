// Fig. 3: performance of Hydra (here: MiniHydra) on a single CPU node
// (Xeon E5-2640): Original / OP2 unopt (MPI), OP2 (MPI) with
// partitioning + renumbering, OP2 (MPI+OpenMP), OP2 (CUDA K40).
//
// The mesh is first shuffled (production meshes arrive with poor
// numbering, as Hydra's did), then RCM-renumbered. The gather locality
// change is measured by the cudasim transaction model and folded into the
// effective gather/scatter bandwidth of the unoptimized bars; the
// partition quality is measured by real k-way vs block halo volumes. The
// bars are model projections onto the E5-2640 and the K40.
//
// The paper's "Original and OP2 unopt are nearly identical" is the
// generated-vs-hand-written overhead: results are bitwise equal
// (MiniHydra.Op2MatchesHandWrittenOriginal), and its warm time ratio is a
// perfbench metric (ROADMAP), not a projection — so the model prints one
// bar for both.
#include <cstdio>
#include <utility>

#include "apl/graph/partition.hpp"
#include "common.hpp"
#include "minihydra/minihydra.hpp"

namespace bench {
namespace {

/// Useful and moved DRAM bytes of every cudasim launch so far.
std::pair<double, double> device_bytes(minihydra::MiniHydra& app) {
  double useful = 0, moved = 0;
  for (const auto& [name, rep] : app.ctx().device_reports()) {
    useful += static_cast<double>(rep.useful_bytes);
    moved += static_cast<double>(rep.transactions) * 128;
  }
  return {useful, moved};
}

/// DRAM-transaction efficiency of one cudasim iteration. Device reports
/// accumulate over the context's life, so the iteration's share is the
/// difference of the totals around it.
double gather_efficiency(minihydra::MiniHydra& app) {
  const auto [useful0, moved0] = device_bytes(app);
  app.ctx().set_backend(apl::exec::Backend::kCudaSim);
  app.run(1);
  app.ctx().set_backend(apl::exec::Backend::kSeq);
  const auto [useful1, moved1] = device_bytes(app);
  return moved1 > moved0 ? (useful1 - useful0) / (moved1 - moved0) : 1.0;
}

/// Halo cells of MiniHydra's cells cut into 12 ranks by `method`.
int halo_cells_at_12(const minihydra::MiniHydra::Options& opts,
                     apl::graph::PartitionMethod method) {
  minihydra::MiniHydra app(opts);
  op2::Distributed dist(app.ctx(), 12, method, app.ctx().set(0));
  return dist.total_ghosts(app.ctx().set(0));
}

}  // namespace

void fig3(Checks& c) {
  print_header("Fig. 3 — Hydra (MiniHydra) on a single CPU node",
               "Reguly et al., CLUSTER'15, Fig. 3");

  minihydra::MiniHydra::Options opts;
  opts.nx = 120;
  opts.ny = 60;
  const int iters = 5;

  // Production meshes arrive badly numbered: shuffle cells and nodes.
  minihydra::MiniHydra app(opts);
  app.ctx().apply_permutation(app.ctx().set(0),
                              random_perm(app.mesh().ncell, 11));
  app.ctx().apply_permutation(app.ctx().set(1),
                              random_perm(app.mesh().nnode, 13));

  // --- measured: locality before/after renumbering.
  const double eff_unopt = gather_efficiency(app);
  app.renumber();
  const double eff_opt = gather_efficiency(app);
  std::printf("\nDRAM-transaction efficiency (cudasim, %d cells): shuffled "
              "%.3f -> RCM %.3f\n",
              app.mesh().ncell, eff_unopt, eff_opt);

  // The projected profile: `iters` seq iterations of the renumbered mesh.
  app.ctx().profile().clear();
  app.run(iters);

  // --- projected Fig. 3 bars (E5-2640 node, paper scale ~2.5M edges).
  const double mesh_scale = 2.5e6 / app.mesh().nedge;
  const double iter_factor = 20.0 / iters;  // paper plots a 20-iteration run
  const apl::perf::Machine cpu = apl::perf::machine("e5-2640");
  // The unoptimized numbering moves useful bytes at the measured fraction
  // of the renumbered mesh's transaction efficiency.
  apl::perf::Machine cpu_unopt = cpu;
  cpu_unopt.bw_gather_gbs *= eff_unopt / eff_opt;
  cpu_unopt.bw_scatter_gbs *= eff_unopt / eff_opt;
  apl::perf::Machine hybrid = cpu;
  hybrid.loop_overhead_s *= 2.0;
  // Hydra-class kernels run at reduced GPU efficiency (low occupancy,
  // branchy kernels — the paper's explanation for the smaller GPU win).
  apl::perf::Machine k40_hydra = apl::perf::machine("k40");
  k40_hydra.bw_direct_gbs *= 0.75;
  k40_hydra.bw_gather_gbs *= 0.70;
  k40_hydra.bw_scatter_gbs *= 0.70;

  const auto& prof = app.ctx().profile();
  const double b_unopt =
      projected_run_time(cpu_unopt, prof, iter_factor, mesh_scale);
  const double b_opt = projected_run_time(cpu, prof, iter_factor, mesh_scale);
  const double b_hyb =
      projected_run_time(hybrid, prof, iter_factor, mesh_scale);
  const double b_gpu =
      projected_run_time(k40_hydra, prof, iter_factor, mesh_scale);

  std::printf("\nprojected Fig. 3 bars (E5-2640 / K40):\n");
  print_bar("Original / OP2 unopt (MPI)", b_unopt, "paper ~21 s (both)");
  print_bar("OP2 (MPI, part.+renumber)", b_opt, "paper ~15 s");
  print_bar("OP2 (MPI+OpenMP)", b_hyb, "paper ~16 s");
  print_bar("OP2 (CUDA K40)", b_gpu, "paper ~7 s");

  // --- measured: partition quality.
  const int block =
      halo_cells_at_12(opts, apl::graph::PartitionMethod::kBlock);
  const int kway = halo_cells_at_12(opts, apl::graph::PartitionMethod::kKway);
  std::printf("\npartitioning quality at 12 ranks: naive block %d halo "
              "cells; k-way (PT-Scotch stand-in) %d\n\n",
              block, kway);

  c.expect(b_opt < b_unopt, "part.+renumber %.3f s < unopt %.3f s", b_opt,
           b_unopt);
  c.expect(kway < block, "k-way halo %d < naive block halo %d at 12 ranks",
           kway, block);
  c.expect(b_gpu < b_opt, "K40 %.3f s < CPU node %.3f s", b_gpu, b_opt);
  c.paper_speedup("part.+renumber over unopt", b_unopt / b_opt, 1.4);
}

}  // namespace bench
