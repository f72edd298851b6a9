// Table I: per-loop time (s) and achieved bandwidth (GB/s) breakdowns for
// the Airfoil benchmark in double precision on the E5-2697 v2, the Xeon
// Phi 5110P and the K40.
//
// Method: Airfoil runs for real (seq backend) on a host-sized mesh; the
// instrumented per-loop byte counts (split direct/gather/scatter from the
// access descriptors) are scaled to the paper's problem (2.8M cells,
// 1000 iterations) and priced by the calibrated machine models.
#include <cstdio>

#include "airfoil/airfoil.hpp"
#include "common.hpp"

namespace bench {

const AirfoilRun& airfoil_paper_run() {
  static const AirfoilRun run = [] {
    airfoil::Airfoil::Options opts;
    opts.nx = 160;
    opts.ny = 80;  // 12.8k cells on the host
    airfoil::Airfoil app(opts);
    const int iters = 10;
    app.run(iters);
    // Paper problem: ~2.8M cells x 1000 iterations (2 RK stages each).
    return AirfoilRun{app.ctx().profile(), 2.8e6 / (opts.nx * opts.ny),
                      1000.0 / iters};
  }();
  return run;
}

void table1(Checks& c) {
  print_header("Table I — Airfoil per-loop time and bandwidth breakdowns",
               "Reguly et al., CLUSTER'15, Table I");

  const AirfoilRun& run = airfoil_paper_run();
  const apl::perf::Machine machines[3] = {apl::perf::machine("e5-2697v2"),
                                          apl::perf::machine("xeon-phi"),
                                          apl::perf::machine("k40")};
  struct PaperRow {
    const char* kernel;
    double t[3], bw[3];
  };
  // The published Table I values for reference alongside ours.
  const PaperRow paper[4] = {
      {"save_soln", {2.9, 2.17, 0.81}, {62, 84, 213}},
      {"adt_calc", {5.6, 6.86, 2.63}, {57, 47, 115}},
      {"res_calc", {9.9, 27.2, 10.8}, {69, 25, 60}},
      {"update", {9.8, 8.77, 3.22}, {79, 89, 228}},
  };
  double gbs[4][3];

  std::printf(
      "\n%-12s | %27s | %27s | %27s\n", "kernel",
      "E5-2697v2  t(s)  GB/s", "Xeon Phi  t(s)  GB/s", "K40  t(s)  GB/s");
  for (int k = 0; k < 4; ++k) {
    const PaperRow& row = paper[k];
    const auto& stats = run.profile.all().at(row.kernel);
    const apl::perf::LoopProfile per_call =
        to_profile(row.kernel, stats)
            .scaled(run.mesh_scale / static_cast<double>(stats.calls));
    std::printf("%-12s |", row.kernel);
    for (int m = 0; m < 3; ++m) {
      const double t = apl::perf::projected_time(machines[m], per_call) *
                       static_cast<double>(stats.calls) * run.iter_factor;
      gbs[k][m] = apl::perf::projected_gbs(machines[m], per_call);
      std::printf("  ours %7.2f %6.0f |", t, gbs[k][m]);
    }
    std::printf("\n%-12s |", "  (paper)");
    for (int m = 0; m < 3; ++m) {
      std::printf("        %7.2f %6.0f |", row.t[m], row.bw[m]);
    }
    std::printf("\n");
  }

  std::printf("\n");
  for (int m = 0; m < 3; ++m) {
    // The indirect res_calc (gathers and colored scatters) reaches less
    // bandwidth than the direct save_soln and update on every machine.
    c.expect(gbs[2][m] < gbs[0][m] && gbs[2][m] < gbs[3][m],
             "%s res_calc %.0f GB/s < save_soln %.0f and update %.0f",
             machines[m].name.c_str(), gbs[2][m], gbs[0][m], gbs[3][m]);
  }
}

}  // namespace bench
