// The three solver workloads: airfoil_tiled, hydra_colored, clover_tiled.
//
// One run, in order:
//   1. Reference: the same mesh and seed run eager on the seq backend for
//      1 + K iterations (K = iterations per job). Its state after the
//      first iteration is every job's restart state; its final fields and
//      last reduction are what every job is checked against.
//   2. Set-up: constructor (+ renumber), then the first cold iteration,
//      kSetups times spread over the run; the newest instance runs the jobs.
//   3. Jobs, for --seconds: restore the restart state (op2::load_dats, or
//      a copy of every OPS dataset), run K iterations, timing all but the
//      first (see kUntimedIters), then compare
//      fields and reduction with the reference (see agrees()). A job that
//      disagrees or throws fails all K of its iterations; after a throw a
//      fresh instance runs the next job.
// In a traced run, odd-numbered jobs run with the apl::trace recorder on;
// end-to-end and layer numbers come from the untraced jobs, span totals
// from the traced ones.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "airfoil/airfoil.hpp"
#include "apl/io/h5lite.hpp"
#include "apl/profile.hpp"
#include "apl/rng.hpp"
#include "apl/testkit/compare.hpp"
#include "apl/thread_pool.hpp"
#include "apl/trace.hpp"
#include "cloverleaf/cloverleaf_ops.hpp"
#include "common.hpp"
#include "minihydra/minihydra.hpp"
#include "op2/io.hpp"

namespace perfbench {

namespace {

/// Set-up runs once before the jobs and again at each of the kSetups - 1
/// inner marks of the job phase, so its samples span the whole run rather
/// than one stretch of host speed.
constexpr int kSetups = 8;
constexpr std::size_t kMinIters = 100;  ///< a p90 needs ten samples beyond it
/// The first iteration after a restore is not timed. A lazy CloverLeaf
/// step queues its chain and the next step's dt reduction runs it, so the
/// first step holds only part of a step's work and each later one holds
/// exactly one chain (the last runs in the job's closing flush).
constexpr int kUntimedIters = 1;
/// Reassociated reductions may differ by at most this many ULPs
/// (the testkit oracle's default OracleOptions::max_ulps).
constexpr std::int64_t kMaxUlps = 4096;
/// Explicit airfoil_tiled tile size (elements). Auto-sizing replays this
/// mesh's chains verbatim; an explicit size keeps them fused.
constexpr op2::index_t kAirfoilTileElems = 16384;

double now() { return apl::now_seconds(); }

/// Lazy-engine counters, cumulative (op2 or ops ChainStats).
struct ChainCounts {
  double flushes = 0, tiles = 0, rounds = 0, verbatim = 0;
  double eager_bytes = 0, tiled_bytes = 0;

  ChainCounts minus(const ChainCounts& o) const {
    return {flushes - o.flushes,         tiles - o.tiles,
            rounds - o.rounds,           verbatim - o.verbatim,
            eager_bytes - o.eager_bytes, tiled_bytes - o.tiled_bytes};
  }
  void add(const ChainCounts& o) {
    flushes += o.flushes;
    tiles += o.tiles;
    rounds += o.rounds;
    verbatim += o.verbatim;
    eager_bytes += o.eager_bytes;
    tiled_bytes += o.tiled_bytes;
  }
};

/// Profile totals over every loop, cumulative.
struct LoopTotals {
  double seconds = 0, halo_seconds = 0, bytes = 0, colors = 0;

  static LoopTotals of(const apl::Profile& p) {
    LoopTotals t;
    for (const auto& [name, s] : p.all()) {
      t.seconds += s.seconds;
      t.bytes += static_cast<double>(s.bytes());
      t.colors += static_cast<double>(s.colors);
      // CloverLeaf's update_halo loops are the ones named halo_*.
      if (name.rfind("halo_", 0) == 0) t.halo_seconds += s.seconds;
    }
    return t;
  }
  LoopTotals minus(const LoopTotals& o) const {
    return {seconds - o.seconds, halo_seconds - o.halo_seconds,
            bytes - o.bytes, colors - o.colors};
  }
  void add(const LoopTotals& o) {
    seconds += o.seconds;
    halo_seconds += o.halo_seconds;
    bytes += o.bytes;
    colors += o.colors;
  }
};

/// A solver's complete dataset state: op2 dats dumped through op2::io,
/// OPS datasets as raw bytes plus the step counter.
struct State {
  apl::io::File file;
  std::vector<std::vector<std::uint8_t>> raw;
  int step = 0;
};

/// One configured proxy-app instance as the harness drives it.
class Solver {
 public:
  virtual ~Solver() = default;
  /// One iteration()/step(); returns its reduction (rms, or CloverLeaf's dt).
  virtual double iterate() = 0;
  /// Executes whatever a lazy context still has queued (ctx.flush()).
  virtual void finish() = 0;
  virtual State save() = 0;
  virtual void restore(const State& s) = 0;
  virtual std::vector<double> fields() = 0;
  virtual apl::exec::ExecContext& exec() = 0;
  virtual ChainCounts chain() const = 0;
  /// Bytes of every declared dataset (computed from sizes).
  virtual double dataset_bytes() = 0;

  double construct_s = 0;
  double renumber_s = 0;
};

/// Airfoil and MiniHydra share the op2 surface the harness needs.
template <class App>
class Op2Solver final : public Solver {
 public:
  Op2Solver(const typename App::Options& o, bool measured, bool renumber,
            apl::exec::Backend backend, bool lazy) {
    const double t0 = now();
    app_ = std::make_unique<App>(o);
    construct_s = now() - t0;
    if (renumber) {
      const double t1 = now();
      if constexpr (requires(App& a) { a.renumber(); }) app_->renumber();
      renumber_s = now() - t1;
    }
    if (measured) {
      app_->ctx().set_backend(backend);
      app_->ctx().set_lazy(lazy);
    }
  }

  op2::Context& ctx() { return app_->ctx(); }
  double iterate() override { return app_->iteration(); }
  void finish() override { app_->ctx().flush(); }
  State save() override {
    State s;
    op2::dump_dats(app_->ctx(), s.file);
    return s;
  }
  void restore(const State& s) override { op2::load_dats(app_->ctx(), s.file); }
  std::vector<double> fields() override { return app_->solution(); }
  apl::exec::ExecContext& exec() override { return app_->ctx(); }
  ChainCounts chain() const override {
    const op2::ChainStats& s = app_->ctx().chain_stats();
    return {static_cast<double>(s.flushes),     static_cast<double>(s.tiles),
            static_cast<double>(s.rounds),      static_cast<double>(s.verbatim),
            static_cast<double>(s.eager_bytes), static_cast<double>(s.tiled_bytes)};
  }
  double dataset_bytes() override {
    const op2::Context& c = app_->ctx();
    double b = 0;
    for (op2::index_t d = 0; d < c.num_dats(); ++d) {
      b += static_cast<double>(c.dat(d).set().size()) *
           static_cast<double>(c.dat(d).entry_bytes());
    }
    return b;
  }

 private:
  std::unique_ptr<App> app_;
};

class CloverSolver final : public Solver {
 public:
  CloverSolver(cloverleaf::Options o, bool measured) {
    o.lazy = measured;
    const double t0 = now();
    app_ = std::make_unique<cloverleaf::CloverOps>(o);
    construct_s = now() - t0;
  }

  double iterate() override {
    app_->step();
    return app_->dt();
  }
  void finish() override { app_->ctx().flush(); }
  State save() override {
    ops::Context& c = app_->ctx();
    State s;
    for (ops::index_t d = 0; d < c.num_dats(); ++d) {
      const auto* p = static_cast<const std::uint8_t*>(c.dat(d).raw());
      s.raw.emplace_back(p, p + bytes_of(c.dat(d)));
    }
    s.step = app_->steps_taken();
    return s;
  }
  void restore(const State& s) override {
    ops::Context& c = app_->ctx();
    for (ops::index_t d = 0; d < c.num_dats(); ++d) {
      const auto& bytes = s.raw.at(static_cast<std::size_t>(d));
      std::memcpy(c.dat(d).raw(), bytes.data(), bytes.size());
    }
    app_->set_steps_taken(s.step);
  }
  std::vector<double> fields() override {
    std::vector<double> f = app_->density();
    const std::vector<double> u = app_->velocity_x();
    f.insert(f.end(), u.begin(), u.end());
    return f;
  }
  apl::exec::ExecContext& exec() override { return app_->ctx(); }
  ChainCounts chain() const override {
    const ops::ChainStats& s = app_->ctx().chain_stats();
    return {static_cast<double>(s.flushes), static_cast<double>(s.tiles), 0, 0,
            static_cast<double>(s.eager_bytes), static_cast<double>(s.tiled_bytes)};
  }
  double dataset_bytes() override {
    ops::Context& c = app_->ctx();
    double b = 0;
    for (ops::index_t d = 0; d < c.num_dats(); ++d) {
      b += static_cast<double>(bytes_of(c.dat(d)));
    }
    return b;
  }

 private:
  static std::size_t bytes_of(const ops::DatBase& d) {
    return d.alloc_points() * static_cast<std::size_t>(d.dim()) * d.elem_bytes();
  }

  std::unique_ptr<cloverleaf::CloverOps> app_;
};

struct Workload {
  std::string family;  ///< "op2" or "ops": the prefix of its layer metrics
  std::string mesh;
  int iters_per_job = 5;
  bool threads = false;
  bool reassociates = false;  ///< colored increments on the threads backend
  std::function<std::unique_ptr<Solver>(bool measured)> make;
};

/// The seed changes physical inputs only; mesh connectivity, and with it
/// the cost of an iteration, is the same for every seed.
Workload workload_for(const Options& opt, Result& r) {
  apl::SplitMix64 rng(opt.seed);
  Workload w;
  if (opt.workload == "airfoil_tiled") {
    airfoil::Airfoil::Options o;
    o.nx = 960;
    o.ny = 480;
    o.bump = rng.uniform(0.05, 0.10);
    r.env_num("bump", o.bump);
    w.family = "op2";
    w.mesh = "960x480 cells";
    w.threads = true;
    w.make = [o](bool measured) {
      auto s = std::make_unique<Op2Solver<airfoil::Airfoil>>(
          o, measured, false, apl::exec::Backend::kThreads, true);
      if (measured) s->ctx().set_tile_size(kAirfoilTileElems);
      return s;
    };
  } else if (opt.workload == "hydra_colored") {
    minihydra::MiniHydra::Options o;
    o.nx = 480;
    o.ny = 240;
    o.bump = rng.uniform(0.03, 0.08);
    r.env_num("bump", o.bump);
    w.family = "op2";
    w.mesh = "480x240 cells, RCM-renumbered";
    // This mesh grows unstably after about eight iterations, so a job
    // stops well before: four iterations from the restart state.
    w.iters_per_job = 4;
    w.threads = true;
    w.reassociates = true;
    w.make = [o](bool measured) {
      return std::make_unique<Op2Solver<minihydra::MiniHydra>>(
          o, measured, true, apl::exec::Backend::kThreads, false);
    };
  } else if (opt.workload == "clover_tiled") {
    cloverleaf::Options o;
    o.nx = 768;
    o.ny = 768;
    o.e_state2 = rng.uniform(2.0, 3.0);
    o.state2_xfrac = rng.uniform(0.3, 0.7);
    o.state2_yfrac = rng.uniform(0.1, 0.3);
    r.env_num("e_state2", o.e_state2);
    r.env_num("state2_xfrac", o.state2_xfrac);
    r.env_num("state2_yfrac", o.state2_yfrac);
    w.family = "ops";
    w.mesh = "768x768 cells";
    w.make = [o](bool measured) {
      return std::make_unique<CloverSolver>(o, measured);
    };
  } else {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  return w;
}

/// Whether a value reproduces its reference. Bitwise by default; on the
/// threads backend, whose colored increments and reductions reassociate,
/// within the testkit's ULP bound or the 1e-10 * (1 + |want|) bound the
/// repository's own backend tests use for it.
bool agrees(double want, double got, bool reassociates) {
  if (!reassociates) return apl::testkit::ulp_distance(want, got) == 0;
  return apl::testkit::ulp_distance(want, got) <= kMaxUlps ||
         std::abs(want - got) <= 1e-10 * (1.0 + std::abs(want));
}

/// Compares a job's fields with the reference; tracks the worst ULP gap.
bool fields_agree(const std::vector<double>& want,
                  const std::vector<double>& got, bool reassociates,
                  std::int64_t& worst_ulps) {
  if (want.size() != got.size()) return false;
  bool ok = true;
  for (std::size_t i = 0; i < want.size(); ++i) {
    worst_ulps = std::max(worst_ulps, apl::testkit::ulp_distance(want[i], got[i]));
    ok = ok && agrees(want[i], got[i], reassociates);
  }
  return ok;
}

/// Iteration and job samples plus layer deltas of one class of jobs.
struct Bucket {
  std::vector<double> iter_ms;
  std::vector<double> job_s;
  LoopTotals loops;
  ChainCounts chain;
  double plan_s = 0;
  double iters = 0;  ///< iterations run, timed or not: the layer divisor
};

}  // namespace

Result run_solver(const Options& opt) {
  Result r;
  const Workload w = workload_for(opt, r);
  const int k_iters = w.iters_per_job;

  // 1. Reference: eager seq on the same mesh and seed. Its state after
  //    the first iteration is where every job starts.
  State start;
  std::vector<double> ref_fields;
  std::vector<double> ref_iter_ms;
  double ref_reduction = 0;
  {
    std::unique_ptr<Solver> ref = w.make(false);
    ref->iterate();
    ref->finish();
    start = ref->save();
    for (int k = 0; k < k_iters; ++k) {
      const double t0 = now();
      ref_reduction = ref->iterate();
      ref_iter_ms.push_back((now() - t0) * 1e3);
    }
    ref->finish();
    ref_fields = ref->fields();
  }
  // Planted corruption lies far outside every tolerance agrees() allows.
  if (opt.plant == Plant::kFields || opt.plant == Plant::kAll) {
    for (double& v : ref_fields) v += 1e-6 * (1.0 + std::abs(v));
  }
  if (opt.plant == Plant::kReduction || opt.plant == Plant::kAll) {
    ref_reduction = -ref_reduction - 1.0;
  }

  // 2. Set-up: constructor (+ renumber) and the first cold iteration.
  std::vector<double> setup_s, construct_s, renumber_s, first_iter_s, plan_s;
  std::unique_ptr<Solver> app;
  const auto rebuild = [&] {
    app.reset();
    app = w.make(true);
    app->iterate();
    app->finish();
  };
  const auto set_up = [&] {
    app.reset();
    const double t0 = now();
    app = w.make(true);
    const double t1 = now();
    app->iterate();
    app->finish();
    const double t2 = now();
    setup_s.push_back(t2 - t0);
    construct_s.push_back(app->construct_s);
    renumber_s.push_back(app->renumber_s);
    first_iter_s.push_back(t2 - t1);
    plan_s.push_back(app->exec().plan_seconds());
  };
  set_up();

  // 3. Jobs: restore, K iterations (all but the first timed), check.
  auto& recorder = apl::trace::Recorder::global();
  Bucket plain, traced;
  TraceTotals spans;
  std::int64_t worst_ulps = 0;
  double worst_reduction_ulps = 0;
  const double t_start = now();
  double in_setup = 0;  // set-up time inside the job phase, not counted
  double rss = 0;
  std::string first_error;
  for (int job = 0;; ++job) {
    const double elapsed = now() - t_start - in_setup;
    const std::size_t iters = plain.iter_ms.size() + traced.iter_ms.size();
    if ((elapsed >= opt.seconds && iters >= kMinIters) ||
        elapsed >= 3 * opt.seconds) {
      break;
    }
    if (setup_s.size() < static_cast<std::size_t>(kSetups) &&
        elapsed >= opt.seconds * static_cast<double>(setup_s.size()) / kSetups) {
      const double s0 = now();
      set_up();
      in_setup += now() - s0;
    }
    const bool trace_job = opt.trace && job % 2 == 1;
    Bucket& b = trace_job ? traced : plain;
    const LoopTotals loops0 = LoopTotals::of(app->exec().profile());
    const ChainCounts chain0 = app->chain();
    const double plan0 = app->exec().plan_seconds();
    if (trace_job) recorder.set_enabled(true);

    const double j0 = now();
    double reduction = 0;
    bool threw = false;
    try {
      app->restore(start);
      for (int k = 0; k < k_iters; ++k) {
        const double i0 = now();
        reduction = app->iterate();
        if (k >= kUntimedIters) b.iter_ms.push_back((now() - i0) * 1e3);
      }
      if (opt.plant == Plant::kError) throw std::runtime_error("planted error");
      app->finish();
      b.job_s.push_back(now() - j0);
    } catch (const std::exception& e) {
      threw = true;
      if (first_error.empty()) first_error = e.what();
    }

    if (trace_job) {
      recorder.set_enabled(false);
      spans.add(drain_trace());
    }
    b.loops.add(LoopTotals::of(app->exec().profile()).minus(loops0));
    b.chain.add(app->chain().minus(chain0));
    b.plan_s += app->exec().plan_seconds() - plan0;
    b.iters += k_iters;

    r.attempted += static_cast<std::uint64_t>(k_iters);
    if (threw) {
      // The instance may be half-updated; the next job gets a fresh one.
      // Its build time counts toward the run, so failing jobs end it.
      r.failed += static_cast<std::uint64_t>(k_iters);
      rebuild();
      continue;
    }
    // Reductions may always be reassociated; fields only on the threads
    // backend (the testkit's policy, DESIGN.md).
    const bool ok =
        fields_agree(ref_fields, app->fields(), w.reassociates, worst_ulps) &&
        agrees(ref_reduction, reduction, true);
    worst_reduction_ulps = std::max(
        worst_reduction_ulps,
        static_cast<double>(apl::testkit::ulp_distance(ref_reduction, reduction)));
    if (!ok) r.failed += static_cast<std::uint64_t>(k_iters);
    // Peak RSS after a fixed amount of work: the reference, one set-up
    // and one job. Later set-ups replace the instance, and how the freed
    // one fragments the heap varied by a few MiB from run to run.
    if (job == 0) rss = peak_rss_mb();
  }
  const double measured_s = now() - t_start - in_setup;
  while (setup_s.size() < static_cast<std::size_t>(kSetups)) set_up();
  if (rss == 0) rss = peak_rss_mb();  // the first job threw

  // End-to-end metrics, from the untraced jobs. The gated times are the
  // fastest samples: noise from other tenants on the host only adds time
  // (README.md, "Gated statistics").
  const double iter_p50 = quantile(plain.iter_ms, 0.5);
  double job_sum = 0;
  for (double s : plain.job_s) job_sum += s;
  r.set("setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s");
  r.set("setup_s_median", median(setup_s), "s");
  r.set("iter_ms_min", quantile(plain.iter_ms, 0), "ms");
  r.set("iter_ms_p50", iter_p50, "ms");
  r.set("iter_ms_p90", quantile(plain.iter_ms, 0.9), "ms");
  r.set("job_latency_s_min", quantile(plain.job_s, 0), "s");
  r.set("job_latency_s_p50", quantile(plain.job_s, 0.5), "s");
  r.set("job_latency_s_p90", quantile(plain.job_s, 0.9), "s");
  r.set("jobs_per_s", job_sum > 0 ? static_cast<double>(plain.job_s.size()) / job_sum : 0, "1/s");
  r.set("peak_rss_mb", rss, "MiB");
  set_failure_metrics(r);

  // Layer metrics (reported by every run; run.py prints them when traced).
  const double n = std::max(1.0, plain.iters);
  const std::string f = w.family + ".";
  const double loop_ms = plain.loops.seconds * 1e3 / n;
  const double plan_ms = plain.plan_s * 1e3 / n;
  r.set("apps.construct_s", median(construct_s), "s");
  r.set("apps.first_iter_s", median(first_iter_s), "s");
  r.set("graph.renumber_s", median(renumber_s), "s");
  r.set(f + "plan_s", median(plan_s), "s");
  r.set(f + "loop_ms_per_iter", loop_ms, "ms");
  r.set(f + "achieved_gbs",
        plain.loops.seconds > 0 ? plain.loops.bytes / plain.loops.seconds * 1e-9 : 0,
        "GB/s");
  r.set(f + "tiles_per_iter", plain.chain.tiles / n, "count");
  r.set(f + "chain_flushes_per_iter", plain.chain.flushes / n, "count");
  r.set(f + "traffic_saved_fraction",
        plain.chain.eager_bytes > 0
            ? 1.0 - plain.chain.tiled_bytes / plain.chain.eager_bytes
            : 0,
        "fraction");
  if (w.family == "op2") {
    r.set("op2.bytes_per_iter", plain.loops.bytes / n, "B_computed");
    r.set("op2.colors_per_iter", plain.loops.colors / n, "count");
    r.set("op2.rounds_per_iter", plain.chain.rounds / n, "count");
    r.set("op2.verbatim_chains", plain.chain.verbatim / n, "count");
    r.set("op2.speedup_vs_eager_seq", iter_p50 > 0 ? median(ref_iter_ms) / iter_p50 : 0,
          "ratio");
  } else {
    r.set("ops.halo_loop_ms_per_iter", plain.loops.halo_seconds * 1e3 / n, "ms");
  }
  r.set("runtime.unattributed_ms_per_iter", iter_p50 - loop_ms - plan_ms, "ms");
  if (opt.trace) {
    const double traced_p50 = quantile(traced.iter_ms, 0.5);
    r.set("runtime.trace_overhead_fraction",
          iter_p50 > 0 ? traced_p50 / iter_p50 - 1.0 : 0, "fraction");
    // The breakdown: layer times plus the remainder add up to iter_ms_p50.
    r.breakdown["iter_ms_p50"] = iter_p50;
    double iter_sum = 0;
    for (double v : plain.iter_ms) iter_sum += v;
    r.breakdown["iter_ms_mean"] = iter_sum / std::max<double>(1.0, plain.iter_ms.size());
    r.breakdown["loop_ms_per_iter"] = loop_ms;
    r.breakdown["plan_ms_per_iter"] = plan_ms;
    r.breakdown["unattributed_ms_per_iter"] = iter_p50 - loop_ms - plan_ms;
    r.breakdown["unattributed_vs_mean_ms_per_iter"] =
        r.breakdown["iter_ms_mean"] - loop_ms - plan_ms;
    r.breakdown["traced_iter_ms_p50"] = traced_p50;
    const double tn = std::max(1.0, traced.iters);
    for (const auto& [cat, t] : spans.by_category) {
      r.breakdown["trace." + cat + "_spans_per_iter"] = static_cast<double>(t.count) / tn;
      r.breakdown["trace." + cat + "_ms_per_iter"] = t.seconds * 1e3 / tn;
    }
  }

  r.env_str("mesh", w.mesh);
  r.env_num("iters_per_job", k_iters);
  r.env_num("setups", static_cast<double>(setup_s.size()));
  r.env_num("team_size", w.threads ? static_cast<double>(apl::ThreadPool::global().size()) : 1);
  r.env_num("working_set_bytes", app->dataset_bytes());
  r.env_num("measured_s", measured_s);
  r.env_num("timed_iterations", static_cast<double>(plain.iter_ms.size()));
  r.env_num("jobs", static_cast<double>(plain.job_s.size()));
  r.env_num("max_field_ulps", static_cast<double>(worst_ulps));
  r.env_num("max_reduction_ulps", worst_reduction_ulps);
  if (!first_error.empty()) r.env_str("first_error", first_error);
  return r;
}

}  // namespace perfbench
