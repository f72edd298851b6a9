// The Airfoil mini-app end to end: transonic bump-channel flow on an
// unstructured quad mesh through the OP2 API, with a backend sweep and
// the per-loop profile — the workflow of the paper's Sec. IV.
//
//   $ ./airfoil_sim [iterations]
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "airfoil/airfoil.hpp"
#include "apl/fault.hpp"
#include "apl/io/ckpt.hpp"
#include "apl/timer.hpp"
#include "op2/dist.hpp"

int main(int argc, char** argv) {
  const int iters = argc > 1 ? std::atoi(argv[1]) : 200;
  airfoil::Airfoil::Options opts;
  opts.nx = 120;
  opts.ny = 60;
  opts.bump = 0.08;

  std::printf("Airfoil: %dx%d cells, mach %.2f, %d iterations\n", opts.nx,
              opts.ny, airfoil::Constants{}.mach, iters);

  for (const apl::exec::Backend backend :
       {apl::exec::Backend::kSeq, apl::exec::Backend::kThreads,
        apl::exec::Backend::kCudaSim}) {
    airfoil::Airfoil app(opts);
    app.ctx().set_backend(backend);
    apl::Timer t;
    const double rms = app.run(iters);
    std::printf("  backend %-8s: %6.2f s, final RMS residual %.3e\n",
                apl::exec::to_string(backend), t.seconds(), rms);
  }

  // Distributed run (4 simulated ranks, k-way partitioning) under the
  // resilience driver: checkpoint every 10 steps, and if a rank is killed
  // (OPAL_FAULTS="fail_rank=2@12") let the policy layer (OPAL_RESILIENCE)
  // retry, shrink the communicator, and resume from the last save. Then
  // print crest acceleration — the physics the bump is there for.
  airfoil::Airfoil app(opts);
  app.enable_distributed(4, apl::graph::PartitionMethod::kKway);
  op2::Distributed& dist = *app.distributed();
  apl::io::CheckpointStore store(
      (std::filesystem::temp_directory_path() / "airfoil_sim_ckpt").string());
  store.remove_files();
  for (int it = 0; it < iters;) {
    if (it % 10 == 0) dist.checkpoint(store, it);
    try {
      app.iteration();
      ++it;
    } catch (const apl::fault::RankFailure& e) {
      std::printf("  rank %d failed at iteration %d — recovering...\n",
                  e.rank(), it);
      // The structured path: the recovery verdict arrives as data (rung,
      // resume step, ledger deltas), not as exception text to parse.
      const apl::resilience::Outcome out = dist.recover_outcome(store);
      std::printf("  %s\n", out.summary().c_str());
      if (!out.ok) {
        std::fprintf(stderr, "unrecoverable: %s\n", out.error.c_str());
        return 1;
      }
      it = static_cast<int>(out.resume_step);
    }
  }
  const auto& tr = dist.comm().traffic();
  if (tr.retries() > 0 || tr.recoveries() > 0) {
    std::printf("  resilience: %llu retries, %llu shrinks, %llu recoveries "
                "(%.6f s, MTTR %.6f s), now %d ranks\n",
                static_cast<unsigned long long>(tr.retries()),
                static_cast<unsigned long long>(tr.shrinks()),
                static_cast<unsigned long long>(tr.recoveries()),
                tr.recovery_seconds(), tr.mttr(), dist.num_ranks());
  }
  const auto q = app.solution();
  const op2::index_t crest = opts.nx / 2;  // mid-bump, first cell row
  const double u_crest = q[4 * crest + 1] / q[4 * crest];
  const double u_inf = app.constants().qinf[1] / app.constants().qinf[0];
  std::printf("\ndistributed (%d ranks): halo traffic %llu bytes, "
              "u_crest/u_inf = %.3f (subsonic acceleration over the bump)\n",
              dist.num_ranks(),
              static_cast<unsigned long long>(tr.total_bytes()),
              u_crest / u_inf);
  std::printf("\nper-loop profile (distributed run):\n%s",
              app.ctx().profile().report().c_str());
  return 0;
}
