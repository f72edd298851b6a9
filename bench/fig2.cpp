// Fig. 2: Airfoil on single-node systems — Xeon E5-2697v2 CPU under
// several programming models, Xeon Phi 5110P and an NVIDIA K40.
//
// Bars reproduced: CPU (MPI), CPU (MPI vectorized), CPU (MPI+OpenMP),
// CPU (MPI+OpenMP vectorized), Xeon Phi (MPI+OpenMP vectorized), CUDA K40.
// Vectorization is modelled as it manifests in the paper's numbers:
// a scalar build loses most of its flop throughput (adt_calc's sqrt pipe)
// and part of its gather efficiency; the hybrid adds a small NUMA/fork
// overhead over pure MPI, matching the paper's "no improvement on a
// single node" observation. The profile is Table I's run.
#include <algorithm>
#include <cstdio>

#include "common.hpp"

namespace bench {
namespace {

apl::perf::Machine devectorized(apl::perf::Machine m) {
  m.flops_gf /= 6.0;       // scalar sqrt/div pipes (AVX sqrt is ~6x)
  m.bw_gather_gbs *= 0.7;  // no vector gathers
  return m;
}

}  // namespace

void fig2(Checks& c) {
  print_header("Fig. 2 — Airfoil single-node performance",
               "Reguly et al., CLUSTER'15, Fig. 2");

  const AirfoilRun& run = airfoil_paper_run();
  const apl::perf::Machine cpu = apl::perf::machine("e5-2697v2");
  apl::perf::Machine hybrid = cpu;
  hybrid.loop_overhead_s *= 2.0;  // OpenMP fork/join on top of MPI
  const auto project = [&](const apl::perf::Machine& m) {
    return projected_run_time(m, run.profile, run.iter_factor,
                              run.mesh_scale);
  };

  const double t_mpi = project(devectorized(cpu));
  const double t_mpi_vec = project(cpu);
  const double t_hyb = project(devectorized(hybrid));
  const double t_hyb_vec = project(hybrid);
  const double t_phi = project(apl::perf::machine("xeon-phi"));
  const double t_k40 = project(apl::perf::machine("k40"));

  std::printf("\n(projected, 2.8M cells x 1000 iterations; paper bars ~)\n");
  print_bar("CPU (MPI)", t_mpi, "paper ~36 s");
  print_bar("CPU (MPI vectorized)", t_mpi_vec, "paper ~28 s");
  print_bar("CPU (MPI+OpenMP)", t_hyb, "paper ~40 s");
  print_bar("CPU (MPI+OpenMP vectorized)", t_hyb_vec, "paper ~29 s");
  print_bar("Xeon Phi (MPI+OpenMP vect.)", t_phi, "paper ~38 s");
  print_bar("CUDA K40", t_k40, "paper ~10 s");

  std::printf("\n");
  c.expect(t_mpi_vec < t_mpi, "vectorized CPU %.1f s < scalar CPU %.1f s",
           t_mpi_vec, t_mpi);
  const double next_best =
      std::min({t_mpi, t_mpi_vec, t_hyb, t_hyb_vec, t_phi});
  c.expect(t_k40 < next_best, "K40 %.1f s is the lowest bar (next %.1f s)",
           t_k40, next_best);
  c.expect(t_phi >= t_mpi_vec, "Xeon Phi %.1f s not below vectorized CPU "
           "%.1f s (scatter-bound res_calc)", t_phi, t_mpi_vec);
  // The Table-I-calibrated K40 pays the full res_calc scatter penalty
  // across the whole run, hence a smaller win than the paper's.
  c.paper_speedup("K40 over vectorized CPU", t_mpi_vec / t_k40, 2.8);
}

}  // namespace bench
