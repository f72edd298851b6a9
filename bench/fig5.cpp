// Fig. 5: CloverLeaf on CPUs and GPUs with different programming models.
//
// The OPS port runs for real on the host and its instrumented per-loop
// profile is projected per model: CPU models on a 32-core node, GPU
// models on the K40. The original pure-OpenMP code pays a NUMA penalty
// the OPS backend avoids. The OpenCL/OpenACC bars take the paper's own
// CUDA-relative ratios (we implement CUDA-sim, not OpenCL/OpenACC
// toolchains — EXPERIMENTS.md documents this substitution).
//
// The paper's headline — OPS within ~5% of the hand-coded original — is
// a host measurement, not a projection: the two run bitwise identical
// physics (examples/cloverleaf_sim), and their warm time ratio is a
// perfbench metric (ROADMAP).
#include <cstdio>

#include "cloverleaf/cloverleaf_ops.hpp"
#include "common.hpp"

namespace bench {

void fig5(Checks& c) {
  print_header("Fig. 5 — CloverLeaf across programming models",
               "Reguly et al., CLUSTER'15, Fig. 5");

  cloverleaf::Options opts;
  opts.nx = opts.ny = 256;
  const int steps = 10;
  cloverleaf::CloverOps app(opts);
  app.run(steps);

  // Projection to the paper's problem: 3840^2 cells, 87 steps equivalent.
  const double mesh_scale = (3840.0 * 3840.0) / (opts.nx * opts.ny);
  const double iter_factor = 87.0 / steps;
  const auto& prof = app.ctx().profile();
  const auto project = [&](const apl::perf::Machine& m) {
    return projected_run_time(m, prof, iter_factor, mesh_scale);
  };

  // Paper's CPU node (32 cores) ~ the XE6-class node; the NUMA-aware OPS
  // OpenMP backend ran 20% faster than the original there.
  apl::perf::Machine cpu = apl::perf::machine("e5-2697v2");
  cpu.bw_direct_gbs *= 1.1;  // 32-core node of the paper's Fig. 5 system
  apl::perf::Machine cpu_numa = cpu;
  cpu_numa.bw_direct_gbs *= 0.8;  // original pure-OpenMP NUMA penalty

  const double t_mpi = project(cpu);
  const double t_omp_orig = project(cpu_numa);
  const double t_cuda = project(apl::perf::machine("k40"));

  std::printf("\nprojected Fig. 5 bars, %dx%d profile (paper Original / OPS"
              " in parens):\n",
              opts.nx, opts.ny);
  print_bar("32 OpenMP, Original (NUMA)", t_omp_orig, "(57.4 / -)");
  print_bar("32 MPI; 32 OpenMP, OPS", t_mpi, "(44.6 / 45.6; - / 45.9)");
  print_bar("CUDA K40", t_cuda, "(14.1 / 15.0)");
  // Paper-calibrated programming-model ratios, not our measurements.
  print_bar("OpenCL (CPU), paper ratio", t_mpi * 61.54 / 44.60,
            "(61.5 / 63.4)");
  print_bar("OpenCL (GPU), paper ratio", t_cuda * 16.19 / 14.14,
            "(16.2 / 16.3)");
  print_bar("OpenACC, paper ratio", t_cuda * 21.67 / 14.14, "(21.7 / 19.8)");

  std::printf("\n");
  c.expect(t_cuda < t_mpi, "CUDA K40 %.1f s < 32 MPI %.1f s", t_cuda, t_mpi);
  c.paper_speedup("CUDA over 32 MPI", t_mpi / t_cuda, 3.2);
}

}  // namespace bench
