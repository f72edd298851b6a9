#include "apl/serve/jobs.hpp"

#include <cstdio>
#include <functional>
#include <vector>

#include "airfoil/airfoil.hpp"
#include "apl/fault.hpp"
#include "apl/mpisim/ladder.hpp"
#include "apl/perf/model.hpp"
#include "apl/resilience.hpp"
#include "apl/signature.hpp"
#include "cloverleaf/cloverleaf_ops.hpp"
#include "minihydra/minihydra.hpp"
#include "op2/io.hpp"

namespace apl::serve {

namespace {

constexpr const char* kProjectionMachine = "xe6-node";

/// Runs a single-context op2 job to `iters` with plain checkpoints (every
/// dat plus the step counter): resumes from the newest one on disk,
/// writes one every `ckpt_every` iterations and yields there on request.
void run_op2_checkpointed(JobContext& jc, op2::Context& ctx,
                          std::int64_t iters, int ckpt_every,
                          const std::function<void()>& iterate) {
  std::int64_t it = 0;
  if (jc.store().any_valid()) {
    const apl::io::File f = jc.store().load();
    op2::load_dats(ctx, f);
    const auto step = f.get<std::int64_t>("meta/step");
    it = step.empty() ? 0 : step[0];
    jc.note_resumed(it);
  }
  for (; it < iters; ++it) {
    if (ckpt_every > 0 && it % ckpt_every == 0) {
      apl::io::File f;
      op2::dump_dats(ctx, f);
      const std::vector<std::int64_t> stepv{it};
      f.put<std::int64_t>("meta/step", stepv, {1});
      jc.store().save(f);
      jc.note_checkpoint(it);
      jc.yield_if_requested(it);
    }
    iterate();
  }
}

/// Runs a distributed job to `steps` under the recovery ladder: resumes
/// from the newest collective checkpoint, writes one every `ckpt_every`
/// steps (yielding there on request), and absorbs rank failures through
/// recover_outcome — only an exhausted ladder escapes, as a named error.
/// `advance(s)` runs one step from `s` and returns the step reached;
/// `seek(s)` repositions the app after a resume or recovery.
void run_distributed(JobContext& jc, apl::mpisim::Ladder& ladder,
                     std::int64_t steps, int ckpt_every,
                     const std::function<std::int64_t(std::int64_t)>& advance,
                     const std::function<void(std::int64_t)>& seek) {
  std::int64_t s = 0;
  if (jc.store().any_valid()) {
    s = ladder.recover(jc.store());
    seek(s);
    jc.note_resumed(s);
  }
  while (s < steps) {
    if (ckpt_every > 0 && s % ckpt_every == 0) {
      ladder.checkpoint(jc.store(), s);
      jc.note_checkpoint(s);
      jc.yield_if_requested(s);
    }
    try {
      s = advance(s);
    } catch (const apl::fault::RankFailure&) {
      const apl::resilience::Outcome out = ladder.recover_outcome(jc.store());
      if (!out.ok) throw apl::resilience::LadderExhausted(out.summary());
      s = out.resume_step;
      seek(s);
    }
  }
}

/// Counted per-iteration workload of an Airfoil-family mesh, coarse by
/// design: the admission gate needs a monotone size signal, not a bench.
apl::perf::LoopProfile unstructured_iter_profile(const char* name,
                                                 double cells,
                                                 double vars_per_cell,
                                                 double loops_per_iter) {
  apl::perf::LoopProfile p;
  p.name = name;
  p.elements = cells;
  p.bytes_direct = cells * vars_per_cell * 8.0 * loops_per_iter;
  p.bytes_gather = cells * vars_per_cell * 8.0 * 0.5 * loops_per_iter;
  p.bytes_scatter = cells * vars_per_cell * 8.0 * 0.25 * loops_per_iter;
  p.flops = cells * 40.0 * loops_per_iter;
  return p;
}

}  // namespace

std::string digest(std::span<const double> values) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(values.data());
  const std::uint64_t h =
      apl::signature::fnv1a({bytes, values.size() * sizeof(double)});
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

JobSpec make_airfoil_job(const std::string& name, const AirfoilJob& cfg) {
  JobSpec spec;
  spec.name = name;
  const double cells = static_cast<double>(cfg.nx) * cfg.ny;
  spec.projected_seconds =
      apl::perf::projected_time(
          apl::perf::machine(kProjectionMachine),
          unstructured_iter_profile("airfoil_iter", cells, 4.0, 11.0)) *
      cfg.iters;
  spec.work = [cfg](JobContext& jc) {
    airfoil::Airfoil::Options opts;
    opts.nx = cfg.nx;
    opts.ny = cfg.ny;
    airfoil::Airfoil app(opts);
    if (cfg.lazy && cfg.nranks < 2) app.ctx().set_lazy(true);
    if (cfg.nranks >= 2) {
      app.enable_distributed(cfg.nranks, apl::graph::PartitionMethod::kRcb);
      op2::Distributed& dist = *app.distributed();
      if (cfg.lazy) dist.set_lazy(true);
      run_distributed(
          jc, dist, cfg.iters, cfg.ckpt_every,
          [&](std::int64_t it) {
            app.iteration();
            return it + 1;
          },
          [](std::int64_t) {});
    } else {
      run_op2_checkpointed(jc, app.ctx(), cfg.iters, cfg.ckpt_every,
                           [&] { app.iteration(); });
    }
    const std::vector<double> q = app.solution();
    return digest(q);
  };
  return spec;
}

JobSpec make_clover_job(const std::string& name, const CloverJob& cfg) {
  JobSpec spec;
  spec.name = name;
  const double cells = static_cast<double>(cfg.nx) * cfg.ny;
  spec.projected_seconds =
      apl::perf::projected_time(
          apl::perf::machine(kProjectionMachine),
          unstructured_iter_profile("clover_step", cells, 15.0, 30.0)) *
      cfg.steps;
  spec.work = [cfg](JobContext& jc) {
    cloverleaf::Options opts;
    opts.nx = cfg.nx;
    opts.ny = cfg.ny;
    opts.lazy = cfg.lazy;
    cloverleaf::CloverOps app(opts);
    app.enable_distributed(cfg.nranks < 2 ? 2 : cfg.nranks);
    run_distributed(
        jc, *app.distributed(), cfg.steps, cfg.ckpt_every,
        [&](std::int64_t) {
          app.step();
          return static_cast<std::int64_t>(app.steps_taken());
        },
        [&](std::int64_t s) { app.set_steps_taken(static_cast<int>(s)); });
    const std::vector<double> rho = app.density();
    return digest(rho);
  };
  return spec;
}

JobSpec make_minihydra_job(const std::string& name, const MiniHydraJob& cfg) {
  JobSpec spec;
  spec.name = name;
  const double cells = static_cast<double>(cfg.nx) * cfg.ny;
  spec.projected_seconds =
      apl::perf::projected_time(
          apl::perf::machine(kProjectionMachine),
          unstructured_iter_profile("minihydra_iter", cells, 15.0, 19.0)) *
      cfg.iters;
  spec.work = [cfg](JobContext& jc) {
    minihydra::MiniHydra::Options opts;
    opts.nx = cfg.nx;
    opts.ny = cfg.ny;
    minihydra::MiniHydra app(opts);
    run_op2_checkpointed(jc, app.ctx(), cfg.iters, cfg.ckpt_every,
                         [&] { app.iteration(); });
    const std::vector<double> q = app.solution();
    return digest(q);
  };
  return spec;
}

}  // namespace apl::serve
