// Fig. 7: the CUDA memory-access strategies OP2's code generator can emit
// for one loop — AoS (NOSOA), SoA, and AoS staged through shared memory
// (STAGE_NOSOA) — here realized as the same par_loop executed under the
// three layout/staging configurations, with the warp-transaction model
// counting exactly what each strategy moves.
#include <cstdio>

#include "airfoil/airfoil.hpp"
#include "common.hpp"

namespace bench {
namespace {

struct LayoutResult {
  double transactions;
  double efficiency;
  double model_ms;
};

LayoutResult measure(op2::Layout layout, bool staging) {
  airfoil::Airfoil::Options opts;
  opts.nx = 120;
  opts.ny = 60;
  airfoil::Airfoil app(opts);
  app.ctx().set_backend(apl::exec::Backend::kCudaSim);
  app.ctx().set_staging(staging);
  app.ctx().convert_layout(layout);
  app.run(1);
  // res_calc is the Fig. 7 loop: 4-component q/res accessed indirectly.
  const auto& rep = app.ctx().device_reports().at("res_calc");
  const auto& stats = app.ctx().profile().all().at("res_calc");
  return {static_cast<double>(rep.transactions), rep.efficiency,
          stats.model_seconds * 1e3};
}

}  // namespace

void fig7(Checks& c) {
  print_header("Fig. 7 — CUDA memory-access strategies (AoS / SoA / staged)",
               "Reguly et al., CLUSTER'15, Fig. 7");

  const LayoutResult aos = measure(op2::Layout::kAoS, false);
  const LayoutResult soa = measure(op2::Layout::kSoA, false);
  const LayoutResult staged = measure(op2::Layout::kAoS, true);

  std::printf("\nres_calc under the three generated-code variants"
              " (one iteration, 7.2k cells):\n");
  std::printf("  %-26s %14s %12s %12s\n", "strategy", "transactions",
              "efficiency", "model time");
  std::printf("  %-26s %14.0f %11.0f%% %10.2fms\n", "NOSOA (plain AoS)",
              aos.transactions, 100 * aos.efficiency, aos.model_ms);
  std::printf("  %-26s %14.0f %11.0f%% %10.2fms\n",
              "STAGE_NOSOA (shared mem)", staged.transactions,
              100 * staged.efficiency, staged.model_ms);
  std::printf("  %-26s %14.0f %11.0f%% %10.2fms\n", "SOA", soa.transactions,
              100 * soa.efficiency, soa.model_ms);

  // SoA coalesces the plain AoS gathers; staging both coalesces AND
  // dedupes the block's reuse of shared cells, so it beats even SoA on
  // this reuse-heavy loop — which is why OP2 generates all three variants
  // and chooses per loop.
  std::printf("\n");
  c.expect(aos.transactions > soa.transactions &&
               soa.transactions > staged.transactions,
           "transactions AoS %.0f > SoA %.0f > staged %.0f",
           aos.transactions, soa.transactions, staged.transactions);
}

}  // namespace bench
