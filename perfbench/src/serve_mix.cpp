// serve_mix: apl::serve with up to three workers under a closed loop.
//
// One client thread keeps three tenants with one job outstanding each; a
// tenant submits its next job only after seeing the last one terminal.
// Each tenant draws its jobs from its own seeded stream over six weighted
// shapes:
// {Airfoil lazy node-level, CloverLeaf 2-rank distributed, MiniHydra} x
// {make_*_job default mesh, 2x nx and ny}. (A 2-rank Airfoil job is left
// out: make_airfoil_job partitions by RCB, but Airfoil declares its
// distribution without coordinates, so every such job fails.) Every job
// checkpoints; each tenant reuses its own plan-cache directory, so
// first-of-shape jobs write the cache and repeats read it. No faults.
//
// Every job's digest, set-up jobs included, is compared with a solo run
// of the same shape (the job body called directly, outside any server).
// Jobs that end in any state but kDone, disagree, or are rejected at
// submit count as failed.
//
// Untraced run: a closed-loop pass for --seconds, in kSegments segments
// on a fresh server each. A segment starts with its set-up (server start
// plus one job of every shape, run one after another), a setup_s sample.
// Traced run adds a pass of a fixed job count per tenant with the trace
// recorder on (so its counts repeat exactly for a seed), and a solo
// replay of each distributed shape through the app API to read its
// mpisim ledger.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "apl/io/ckpt.hpp"
#include "apl/profile.hpp"
#include "apl/rng.hpp"
#include "apl/serve/jobs.hpp"
#include "apl/serve/server.hpp"
#include "apl/trace.hpp"
#include "cloverleaf/cloverleaf_ops.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using apl::serve::JobReport;
using apl::serve::JobSpec;

constexpr int kMaxWorkers = 3;
constexpr int kTenants = 3;
constexpr int kSegments = 16;  ///< pass segments, one set-up sample each
constexpr int kTracedJobsPerTenant = 40;
constexpr auto kPoll = std::chrono::microseconds(100);

enum class Kind { kAirfoilLazy, kCloverDist, kMiniHydra };

struct Shape {
  const char* name;
  Kind kind;
  int scale;   ///< multiplies the make_*_job default nx and ny
  int weight;  ///< relative draw frequency
};

/// The weights keep the latency p50 and p90 inside a cluster of
/// same-shape jobs rather than on the edge between two, where a small
/// change in the drawn mix would move them a lot. Solo latencies rank
/// minihydra < airfoil_lazy < minihydra_2x < airfoil_lazy_2x ~
/// clover_dist < clover_dist_2x, so p50 falls among the ~11 ms jobs
/// (cumulative weight 3/9..7/9) and p90 among clover_dist_2x (7/9..1).
constexpr Shape kShapes[] = {
    {"airfoil_lazy", Kind::kAirfoilLazy, 1, 1}, {"airfoil_lazy_2x", Kind::kAirfoilLazy, 2, 2},
    {"clover_dist", Kind::kCloverDist, 1, 2},   {"clover_dist_2x", Kind::kCloverDist, 2, 2},
    {"minihydra", Kind::kMiniHydra, 1, 1},      {"minihydra_2x", Kind::kMiniHydra, 2, 1},
};
constexpr int kNumShapes = static_cast<int>(sizeof(kShapes) / sizeof(kShapes[0]));

int draw_shape(apl::SplitMix64& rng) {
  int total = 0;
  for (const Shape& s : kShapes) total += s.weight;
  int r = static_cast<int>(rng.below(static_cast<std::uint64_t>(total)));
  for (int i = 0; i < kNumShapes; ++i) {
    r -= kShapes[i].weight;
    if (r < 0) return i;
  }
  return kNumShapes - 1;
}

double now() { return apl::now_seconds(); }

/// Server workers: kMaxWorkers, or fewer on a host with fewer CPUs.
int workers() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, kMaxWorkers);
}

apl::serve::AirfoilJob airfoil_cfg(const Shape& s) {
  apl::serve::AirfoilJob c;
  c.nx *= s.scale;
  c.ny *= s.scale;
  c.lazy = true;
  return c;
}

apl::serve::CloverJob clover_cfg(const Shape& s) {
  apl::serve::CloverJob c;
  c.nx *= s.scale;
  c.ny *= s.scale;
  return c;
}

apl::serve::MiniHydraJob hydra_cfg(const Shape& s) {
  apl::serve::MiniHydraJob c;
  c.nx *= s.scale;
  c.ny *= s.scale;
  return c;
}

JobSpec make_job(const Shape& s) {
  switch (s.kind) {
    case Kind::kAirfoilLazy: return apl::serve::make_airfoil_job(s.name, airfoil_cfg(s));
    case Kind::kCloverDist: return apl::serve::make_clover_job(s.name, clover_cfg(s));
    case Kind::kMiniHydra: break;
  }
  return apl::serve::make_minihydra_job(s.name, hydra_cfg(s));
}

int iterations(const Shape& s) {
  switch (s.kind) {
    case Kind::kAirfoilLazy: return airfoil_cfg(s).iters;
    case Kind::kCloverDist: return clover_cfg(s).steps;
    case Kind::kMiniHydra: break;
  }
  return hydra_cfg(s).iters;
}

/// Point-to-point messages and bytes of one distributed shape, from its
/// own mpisim ledger: the shape replayed solo through the app API (the
/// checkpoints a job adds gather without messages).
struct Ledger {
  double messages = 0;
  double bytes = 0;
};
Ledger replay_ledger(const Shape& s) {
  if (s.kind != Kind::kCloverDist) return {};
  const apl::serve::CloverJob c = clover_cfg(s);
  cloverleaf::Options o;
  o.nx = c.nx;
  o.ny = c.ny;
  cloverleaf::CloverOps app(o);
  app.enable_distributed(c.nranks);
  for (int i = 0; i < c.steps; ++i) app.step();
  app.density();
  const apl::mpisim::Traffic& t = app.distributed()->comm().traffic();
  return {static_cast<double>(t.messages()), static_cast<double>(t.total_bytes())};
}

/// Digest of each shape from a solo run: the job body called directly.
std::vector<std::string> solo_digests(const std::string& dir) {
  std::vector<std::string> out;
  for (const Shape& s : kShapes) {
    apl::io::CheckpointStore store(dir + "/solo_" + s.name);
    apl::cancel::Token token;
    apl::serve::JobContext jc(s.name, store, token, 0);
    out.push_back(make_job(s).work(jc));
  }
  return out;
}

apl::serve::Server::Options server_options(const std::string& ckpt_root) {
  apl::serve::Server::Options so;
  so.workers = workers();
  so.queue_depth = 16;
  so.checkpoint_root = ckpt_root;
  return so;
}

/// Removes a finished job's checkpoint namespace (the server keeps them).
void remove_checkpoints(const std::string& root, apl::serve::JobId id) {
  // Other jobs write into the same directory meanwhile; their files are
  // skipped, and a vanished entry is not an error.
  const std::string prefix = "job" + std::to_string(id) + "_";
  std::error_code ec;
  std::vector<fs::path> doomed;
  for (const auto& e : fs::directory_iterator(root, ec)) {
    if (e.path().filename().string().rfind(prefix, 0) == 0) doomed.push_back(e.path());
  }
  for (const fs::path& p : doomed) fs::remove(p, ec);
}

struct Pass {
  std::vector<double> latency_s, queue_s, run_s, client_s, iter_ms;
  std::vector<int> shapes;  ///< shape of every completed job
  std::uint64_t attempted = 0, failed = 0, rejected = 0, done = 0;
  double wall_s = 0;

  /// Counts one terminal job: it passes if it is kDone with its shape's
  /// solo digest.
  void finish(const JobReport& rep, const std::string& want) {
    if (rep.state == apl::serve::State::kDone && rep.result == want) {
      ++done;
    } else {
      ++failed;
    }
  }
};

/// A closed-loop tenant: its job stream and plan-cache directory last the
/// whole run.
struct Tenant {
  apl::SplitMix64 rng;
  std::string plans;
  bool busy = false;
  apl::serve::JobId id = 0;
  int shape = 0;
  int submitted = 0;
  double submitted_at = 0;
};

std::vector<Tenant> make_tenants(const Options& opt, const std::string& dir) {
  std::vector<Tenant> tenants;
  for (int t = 0; t < kTenants; ++t) {
    tenants.push_back(Tenant{apl::SplitMix64(opt.seed * 1000003ull + static_cast<std::uint64_t>(t)),
                             dir + "/tenant" + std::to_string(t) + "/plans"});
  }
  return tenants;
}

/// Set-up after server start: one job of every shape, each run to
/// completion before the next is submitted. (Submitted together, six jobs
/// on three workers finished in 21 or 30 ms depending on which worker
/// happened to take which job.) These jobs are checked and counted like
/// the others.
void set_up_batch(apl::serve::Server& server, const std::string& ckpt_root,
                  const std::vector<std::string>& want, Pass& p) {
  for (int i = 0; i < kNumShapes; ++i) {
    ++p.attempted;
    apl::serve::JobId id = 0;
    try {
      id = server.submit(make_job(kShapes[i]));
    } catch (const apl::Error&) {
      ++p.rejected;
      ++p.failed;
      continue;
    }
    p.finish(server.wait(id), want[static_cast<std::size_t>(i)]);
    remove_checkpoints(ckpt_root, id);
  }
}

/// Runs the tenants' closed loop on `server` until every tenant has
/// stopped and its last job is terminal. jobs_per_tenant == 0: tenants
/// submit for `seconds`; otherwise each submits that many jobs in all.
void closed_loop(apl::serve::Server& server, const std::string& ckpt_root,
                 std::vector<Tenant>& tenants, const std::vector<std::string>& want,
                 double seconds, int jobs_per_tenant, Pass& p) {
  const double t0 = now();
  double last_seen = t0;
  const auto may_submit = [&](const Tenant& tn) {
    return jobs_per_tenant > 0 ? tn.submitted < jobs_per_tenant : now() - t0 < seconds;
  };
  for (;;) {
    bool active = false;
    for (Tenant& tn : tenants) {
      if (!tn.busy && may_submit(tn)) {
        tn.shape = draw_shape(tn.rng);
        JobSpec spec = make_job(kShapes[tn.shape]);
        spec.plan_cache_dir = tn.plans;
        ++p.attempted;
        ++tn.submitted;
        tn.submitted_at = now();
        try {
          tn.id = server.submit(std::move(spec));
          tn.busy = true;
        } catch (const apl::Error&) {
          ++p.rejected;
          ++p.failed;
        }
      }
      if (!tn.busy) {
        active = active || may_submit(tn);
        continue;
      }
      const JobReport rep = server.status(tn.id);
      if (!rep.terminal()) {
        active = true;
        continue;
      }
      const double seen = now();
      tn.busy = false;
      active = active || may_submit(tn);
      last_seen = seen;
      const double latency = seen - tn.submitted_at;
      p.latency_s.push_back(latency);
      p.queue_s.push_back(rep.queued_seconds);
      p.run_s.push_back(rep.run_seconds);
      p.client_s.push_back(latency - rep.queued_seconds - rep.run_seconds);
      p.iter_ms.push_back(rep.run_seconds * 1e3 / iterations(kShapes[tn.shape]));
      p.shapes.push_back(tn.shape);
      p.finish(rep, want[static_cast<std::size_t>(tn.shape)]);
      remove_checkpoints(ckpt_root, tn.id);
    }
    if (!active) break;
    std::this_thread::sleep_for(kPoll);
  }
  p.wall_s += last_seen - t0;
}

/// The fastest of each shape's samples, averaged with the shapes' draw
/// weights: the fastest run of a typical job of the mix. (A minimum over
/// the pooled jobs would time the cheapest shape alone.)
double mix_min(const Pass& p, const std::vector<double>& samples) {
  double sum = 0, weights = 0;
  for (int i = 0; i < kNumShapes; ++i) {
    std::vector<double> mine;
    for (std::size_t j = 0; j < p.shapes.size(); ++j) {
      if (p.shapes[j] == i) mine.push_back(samples[j]);
    }
    if (mine.empty()) continue;
    sum += kShapes[i].weight * *std::min_element(mine.begin(), mine.end());
    weights += kShapes[i].weight;
  }
  return weights > 0 ? sum / weights : 0;
}

}  // namespace

Result run_serve_mix(const Options& opt) {
  Result r;
  const std::string root = opt.workdir + "/serve_mix";
  fs::remove_all(root);
  fs::create_directories(root);

  std::vector<std::string> want = solo_digests(root);
  if (opt.plant != Plant::kNone) {
    for (std::string& d : want) d += "-planted";
  }

  // The pass runs in kSegments segments, each on a server of its own.
  // A segment's set-up (server start plus one job of every shape) is a
  // setup_s sample, so the samples span the run; the tenants, their job
  // streams and plan caches carry over from segment to segment.
  Pass a;
  std::vector<double> setup_s;
  double rss = 0;
  std::vector<Tenant> tenants = make_tenants(opt, root + "/pass");
  for (int seg = 0; seg < kSegments; ++seg) {
    const std::string ckpt_root = root + "/pass/ckpt" + std::to_string(seg);
    fs::create_directories(ckpt_root);
    const double t0 = now();
    apl::serve::Server server(server_options(ckpt_root));
    set_up_batch(server, ckpt_root, want, a);
    setup_s.push_back(now() - t0);
    // Peak RSS after a fixed job count, so it does not follow how many
    // jobs the host finished in --seconds.
    if (seg == 0) rss = peak_rss_mb();
    closed_loop(server, ckpt_root, tenants, want, opt.seconds / kSegments, 0, a);
  }
  r.attempted += a.attempted;
  r.failed += a.failed;

  double run_sum = 0;
  for (double v : a.run_s) run_sum += v;
  // As on the solver workloads, the gated times are the fastest samples
  // (README.md, "Gated statistics").
  r.set("setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s");
  r.set("setup_s_median", median(setup_s), "s");
  r.set("iter_ms_min", mix_min(a, a.iter_ms), "ms");
  r.set("iter_ms_p50", quantile(a.iter_ms, 0.5), "ms");
  r.set("iter_ms_p90", quantile(a.iter_ms, 0.9), "ms");
  r.set("job_latency_s_min", mix_min(a, a.latency_s), "s");
  r.set("job_latency_s_p50", quantile(a.latency_s, 0.5), "s");
  r.set("job_latency_s_p90", quantile(a.latency_s, 0.9), "s");
  r.set("jobs_per_s", a.wall_s > 0 ? static_cast<double>(a.done) / a.wall_s : 0, "1/s");
  r.set("peak_rss_mb", rss, "MiB");

  r.set("serve.queue_wait_s_p50", quantile(a.queue_s, 0.5), "s");
  r.set("serve.queue_wait_s_p90", quantile(a.queue_s, 0.9), "s");
  r.set("serve.run_s_p50", quantile(a.run_s, 0.5), "s");
  r.set("serve.client_overhead_s_p50", quantile(a.client_s, 0.5), "s");
  r.set("serve.worker_busy_fraction", a.wall_s > 0 ? run_sum / (workers() * a.wall_s) : 0,
        "fraction");
  r.set("serve.rejected", static_cast<double>(a.rejected), "count");

  if (opt.trace) {
    std::vector<Ledger> ledger;
    for (const Shape& s : kShapes) ledger.push_back(replay_ledger(s));

    auto& recorder = apl::trace::Recorder::global();
    drain_trace();
    recorder.set_enabled(true);
    Pass b;
    {
      const std::string ckpt_root = root + "/traced/ckpt";
      fs::create_directories(ckpt_root);
      std::vector<Tenant> fresh = make_tenants(opt, root + "/traced");
      apl::serve::Server server(server_options(ckpt_root));
      closed_loop(server, ckpt_root, fresh, want, 0, kTracedJobsPerTenant, b);
    }
    recorder.set_enabled(false);
    const TraceTotals t = drain_trace();
    r.attempted += b.attempted;
    r.failed += b.failed;

    const double jobs = std::max<double>(1.0, static_cast<double>(b.shapes.size()));
    double messages = 0, bytes = 0;
    for (int s : b.shapes) {
      messages += ledger[static_cast<std::size_t>(s)].messages;
      bytes += ledger[static_cast<std::size_t>(s)].bytes;
    }
    const auto halo = t.by_category.find(apl::trace::kHalo);
    const double halo_s = halo == t.by_category.end() ? 0 : halo->second.seconds;
    const double lookups = static_cast<double>(t.plan_hits + t.plan_stores);
    r.set("io.ckpt_per_job", static_cast<double>(t.ckpt_writes.count) / jobs, "count");
    r.set("io.ckpt_bytes_per_job", static_cast<double>(t.ckpt_writes.bytes) / jobs, "B");
    r.set("io.ckpt_s_per_job", t.ckpt_writes.seconds / jobs, "s");
    r.set("io.plan_cache_hits", static_cast<double>(t.plan_hits), "count");
    r.set("io.plan_cache_misses", static_cast<double>(t.plan_stores), "count");
    r.set("io.plan_cache_hit_ratio", lookups > 0 ? static_cast<double>(t.plan_hits) / lookups : 0,
          "fraction");
    r.set("mpisim.messages_per_job", messages / jobs, "count");
    r.set("mpisim.bytes_per_job", bytes / jobs, "B");
    r.set("mpisim.halo_s_per_job", halo_s / jobs, "s");
    const double untraced = quantile(a.iter_ms, 0.5);
    r.set("runtime.trace_overhead_fraction",
          untraced > 0 ? quantile(b.iter_ms, 0.5) / untraced - 1.0 : 0, "fraction");
    r.breakdown["traced_jobs"] = jobs;
    r.breakdown["traced_job_latency_s_p50"] = quantile(b.latency_s, 0.5);
    for (const auto& [cat, tot] : t.by_category) {
      r.breakdown["trace." + cat + "_spans_per_job"] = static_cast<double>(tot.count) / jobs;
      r.breakdown["trace." + cat + "_s_per_job"] = tot.seconds / jobs;
    }
  }

  set_failure_metrics(r);

  r.env_num("server_workers", workers());
  r.env_num("tenants", kTenants);
  r.env_num("setups", static_cast<double>(setup_s.size()));
  for (int i = 0; i < kNumShapes; ++i) {
    std::vector<double> lat;
    for (std::size_t j = 0; j < a.shapes.size(); ++j) {
      if (a.shapes[j] == i) lat.push_back(a.latency_s[j]);
    }
    r.env_num(std::string("latency_s_p50_") + kShapes[i].name, quantile(lat, 0.5));
    r.env_num(std::string("jobs_") + kShapes[i].name, static_cast<double>(lat.size()));
  }
  r.env_num("jobs", static_cast<double>(a.latency_s.size()));
  r.env_num("measured_s", a.wall_s);
  r.env_str("mesh", "make_*_job defaults and 2x nx,ny");
  fs::remove_all(root);
  return r;
}

}  // namespace perfbench
