// bench_report: the CI correctness gates. Each mode runs one probe,
// prints its table, and exits 0 when the probe's ok() predicate holds,
// 1 when it does not. Timings in the tables are short cold runs, printed
// for context only; host speed is measured by perfbench/.
//
//   bench_report --check-trace FILE     # validate a Chrome trace dump
//   bench_report --check-plan-cache     # cold->warm plan cache gate
//   bench_report --check-resilience    # kill + transient recovery gate
//   bench_report --check-serve         # multi-tenant service soak gate
//   bench_report --check-op2-tiling    # eager vs lazy-tiled Airfoil gate
//
// Anything else (no arguments, an unknown flag) prints usage and exits 2.
//
// --check-trace reuses apl::trace::validate_chrome_json, so the ci.sh
// trace stage exercises exactly the schema the tests assert.
// --check-plan-cache runs Airfoil and the CloverLeaf lazy chain cold
// (populating a scratch plan cache) then warm, and fails unless the warm
// run loads every plan from the cache, spends less time in plan analysis,
// and matches the cold output bitwise.
// --check-resilience runs a distributed Airfoil through one transient
// message fault (absorbed by retry) and one rank kill (answered by a
// communicator shrink), and fails unless the continuation is bitwise
// identical to a failure-free run at the surviving rank count restored
// from the same checkpoint. The table carries the recovery-overhead and
// MTTR columns either way.
// --check-serve runs a tenant mix (all three proxy apps plus a crash, a
// hang and a rank-death tenant) through one apl::serve server and fails
// unless the healthy tenants reproduce their solo digests bitwise, the
// crash is retried, the hang is stopped by the watchdog, and nothing
// else fails. The table carries throughput and latency columns either
// way.
// --check-op2-tiling runs the same Airfoil mesh eager and lazy-tiled
// (op2 sparse tiling, DESIGN.md §15) and fails unless every chain fused
// (zero verbatim replays), the inspector projected a traffic saving, and
// the tiled solution matches the eager one bitwise. It then reruns
// Airfoil through the threaded color-round executor on a 2-member team
// and fails unless its reduction chains ran real rounds, q stayed
// bitwise equal to eager and rms to the serial tiled walk.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "airfoil/airfoil.hpp"
#include "apl/exec.hpp"
#include "apl/fault.hpp"
#include "apl/io/ckpt.hpp"
#include "apl/io/plan_cache.hpp"
#include "op2/dist.hpp"
#include "apl/profile.hpp"
#include "apl/serve/serve.hpp"
#include "apl/thread_pool.hpp"
#include "apl/trace.hpp"
#include "cloverleaf/cloverleaf_ops.hpp"
#include "ops/ops.hpp"

namespace {

struct Args {
  std::string check_trace;
  bool check_plan_cache = false;
  bool check_resilience = false;
  bool check_serve = false;
  bool check_op2_tiling = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --check-trace FILE\n"
               "       %s --check-plan-cache\n"
               "       %s --check-resilience\n"
               "       %s --check-serve\n"
               "       %s --check-op2-tiling\n",
               argv0, argv0, argv0, argv0, argv0);
  return 2;
}

// ---- plan cache: cold vs warm plan-analysis time ---------------------------

/// One cold->warm differential against a scratch plan cache directory.
struct CacheProbe {
  double cold_plan_seconds = 0.0;
  double warm_plan_seconds = 0.0;
  std::uint64_t cold_stores = 0;
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_misses = 0;
  std::uint64_t warm_corrupt = 0;
  bool bitwise_identical = false;

  double speedup() const {
    return warm_plan_seconds > 0.0 ? cold_plan_seconds / warm_plan_seconds
                                   : 0.0;
  }
  /// The acceptance gate: every warm plan came off disk (or the in-memory
  /// memo), nothing was rebuilt or rejected, and results did not move.
  bool ok() const {
    return cold_stores > 0 && warm_hits > 0 && warm_misses == 0 &&
           warm_corrupt == 0 && bitwise_identical &&
           warm_plan_seconds < cold_plan_seconds;
  }
};

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Runs `run` cold (fresh scratch cache, populating) and warm (replaying
/// from it), best-of-`kReps` on each side — plan analysis is sub-ms, so a
/// single sample is at the mercy of scheduler noise. `run` returns
/// {solution bits, plan seconds}.
template <typename RunFn>
CacheProbe probe_plan_cache(const std::string& tag, RunFn run) {
  constexpr int kReps = 3;
  auto& store = apl::plan_cache::Store::global();
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("bench_plan_cache_" + tag))
          .string();

  CacheProbe p;
  p.bitwise_identical = true;
  std::vector<double> cold_bits, bits;
  double s = 0.0;
  for (int r = 0; r < kReps; ++r) {
    std::filesystem::remove_all(dir);
    store.set_directory(dir);  // resets stats
    run(bits, s);
    p.cold_plan_seconds =
        r == 0 ? s : std::min(p.cold_plan_seconds, s);
    if (r == 0) cold_bits = bits;
    p.bitwise_identical = p.bitwise_identical && bits_equal(cold_bits, bits);
  }
  p.cold_stores = store.stats().stores;

  store.reset_stats();
  for (int r = 0; r < kReps; ++r) {
    run(bits, s);
    p.warm_plan_seconds =
        r == 0 ? s : std::min(p.warm_plan_seconds, s);
    p.bitwise_identical = p.bitwise_identical && bits_equal(cold_bits, bits);
  }
  // Stats accumulate over kReps warm runs; normalize to one run's worth.
  p.warm_hits = store.stats().hits / kReps;
  p.warm_misses = store.stats().misses;
  p.warm_corrupt = store.stats().corrupt;

  store.set_directory("");
  std::filesystem::remove_all(dir);
  return p;
}

// The probe meshes are larger than the apps' defaults: plan analysis
// scales with topology (coloring is O(edges), the tile dry-pass O(tiles)),
// while the warm path's hash+load+decode floor is near-constant, so a
// small mesh under-reports the warm win. Iteration counts stay minimal —
// plans are built once regardless.
CacheProbe probe_airfoil() {
  return probe_plan_cache("airfoil", [&](std::vector<double>& bits,
                                         double& plan_s) {
    airfoil::Airfoil::Options opts;
    opts.nx = 240;
    opts.ny = 120;
    airfoil::Airfoil app(opts);
    app.ctx().set_backend(apl::exec::Backend::kThreads);
    app.run(2);
    bits = app.solution();
    plan_s = app.ctx().plan_seconds();
  });
}

CacheProbe probe_clover_lazy() {
  return probe_plan_cache("clover", [&](std::vector<double>& bits,
                                        double& plan_s) {
    cloverleaf::Options opts;
    opts.nx = 192;
    opts.ny = 192;
    opts.lazy = true;
    cloverleaf::CloverOps app(opts);
    app.run(2);
    app.ctx().flush();
    bits = app.density();
    plan_s = app.ctx().plan_seconds();
  });
}

// ---- resilience: recovery overhead and MTTR of a faulted run ---------------

/// One faulted distributed Airfoil run: a transient message fault early on
/// (absorbed by the policy's bounded retry) and a rank kill mid-run
/// (answered by a communicator shrink + checkpoint restore). The ledger's
/// recovery accounting becomes the table's overhead/MTTR columns.
struct ResilienceProbe {
  double run_seconds = 0.0;       // faulted run, end to end
  double recovery_seconds = 0.0;  // time inside recovery (MTTR numerator)
  double mttr = 0.0;
  double overhead_fraction = 0.0;  // recovery share of the faulted run
  std::uint64_t retries = 0;
  std::uint64_t shrinks = 0;
  std::uint64_t recoveries = 0;
  int ranks_before = 0;
  int ranks_after = 0;
  bool bitwise_identical = false;

  /// The acceptance gate: the retry rung and the shrink rung both fired,
  /// and the continuation matched the failure-free reference bitwise.
  bool ok() const {
    return retries > 0 && shrinks == 1 && recoveries >= 1 &&
           ranks_after == ranks_before - 1 && bitwise_identical;
  }
};

ResilienceProbe probe_resilience() {
  constexpr int kRanks = 4;
  constexpr int kIters = 10;
  ResilienceProbe p;
  p.ranks_before = kRanks;
  const std::string base =
      (std::filesystem::temp_directory_path() / "bench_resilience_ckpt")
          .string();
  apl::io::CheckpointStore(base).remove_files();

  airfoil::Airfoil app{};
  app.enable_distributed(kRanks, apl::graph::PartitionMethod::kBlock);
  op2::Distributed& dist = *app.distributed();
  apl::io::CheckpointStore store(base);

  apl::fault::Config cfg;
  cfg.drop_msg = 30;  // transient: one dropped message, retried
  cfg.fail_rank = 2;  // permanent: rank 2 dies at the 12th exchange
  cfg.fail_at_exchange = 12;
  apl::fault::Injector::global().arm(cfg);
  const double t0 = apl::now_seconds();
  int it = 0;
  int restored_step = -1;
  while (it < kIters) {
    if (restored_step < 0 && it % 4 == 0) dist.checkpoint(store, it);
    try {
      app.iteration();
      ++it;
    } catch (const apl::fault::RankFailure&) {
      restored_step = static_cast<int>(dist.recover_auto(store));
      it = restored_step;
    }
  }
  apl::fault::Injector::global().disarm();
  p.run_seconds = apl::now_seconds() - t0;

  const auto& t = dist.comm().traffic();
  p.recovery_seconds = t.recovery_seconds();
  p.mttr = t.mttr();
  p.retries = t.retries();
  p.shrinks = t.shrinks();
  p.recoveries = t.recoveries();
  p.ranks_after = dist.num_ranks();
  p.overhead_fraction =
      p.run_seconds > 0.0 ? p.recovery_seconds / p.run_seconds : 0.0;

  if (restored_step >= 0) {
    // Failure-free reference at the surviving rank count, restored from
    // the same checkpoint: the shrunk continuation must match it bitwise.
    airfoil::Airfoil ref{};
    ref.enable_distributed(kRanks - 1, apl::graph::PartitionMethod::kBlock);
    const auto s0 = static_cast<int>(ref.distributed()->recover(store));
    for (int i = s0; i < kIters; ++i) ref.iteration();
    p.bitwise_identical = bits_equal(app.solution(), ref.solution());
  }
  store.remove_files();
  return p;
}

void print_resilience(const ResilienceProbe& p) {
  std::printf(
      "resilience       %d->%d ranks, %llu retries, %llu shrinks, "
      "recovery %.6fs of %.6fs (%.1f%%), MTTR %.6fs, bitwise %s\n",
      p.ranks_before, p.ranks_after,
      static_cast<unsigned long long>(p.retries),
      static_cast<unsigned long long>(p.shrinks), p.recovery_seconds,
      p.run_seconds, 100.0 * p.overhead_fraction, p.mttr,
      p.bitwise_identical ? "identical" : "DIVERGED");
}

// ---- serve: multi-tenant throughput, latency and isolation ------------------

/// One server soak: a mixed tenant population (all three proxy apps) plus
/// a chaos subset (crash / hang / rank death) through one apl::serve
/// server. The gate demands bitwise isolation for the healthy tenants and
/// the named verdicts for the chaos ones; the columns record service
/// throughput and per-job latency.
struct ServeProbe {
  int jobs = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t retries = 0;
  std::uint64_t watchdog_kills = 0;
  double makespan_seconds = 0.0;
  double throughput_jobs_per_second = 0.0;
  double mean_latency_seconds = 0.0;  // admission -> terminal, completed jobs
  double max_latency_seconds = 0.0;
  bool digests_match = false;         // healthy tenants == solo, bitwise
  bool hang_stopped = false;          // watchdog ended the hung tenant

  bool ok() const {
    return digests_match && hang_stopped && failed == 0 && retries >= 1 &&
           watchdog_kills >= 1 && completed > 0;
  }
};

/// Runs a job body outside any server (reference digest).
std::string serve_solo(const apl::serve::JobSpec& spec) {
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("bench_serve_solo_" + spec.name))
          .string();
  apl::io::CheckpointStore store(base);
  store.remove_files();
  apl::cancel::Token token;
  apl::cancel::Scope scope(&token);  // as the server would install it
  apl::serve::JobContext jc(spec.name, store, token, 0);
  std::string digest = spec.work(jc);
  store.remove_files();
  return digest;
}

ServeProbe probe_serve() {
  namespace serve = apl::serve;
  ServeProbe p;

  const serve::AirfoilJob airfoil_shape{};
  const serve::CloverJob clover_shape{};
  const serve::MiniHydraJob hydra_shape{};
  const std::string airfoil_solo =
      serve_solo(serve::make_airfoil_job("ref-a", airfoil_shape));
  const std::string clover_solo =
      serve_solo(serve::make_clover_job("ref-c", clover_shape));
  const std::string hydra_solo =
      serve_solo(serve::make_minihydra_job("ref-h", hydra_shape));

  // The same airfoil run as the only tenant of an otherwise idle
  // single-worker server must reproduce the solo digest: everything the
  // service wraps around a body (token, injector, policy, plan scopes,
  // checkpoint namespace) leaves the result untouched.
  {
    serve::Server::Options opts;
    opts.workers = 1;
    serve::Server server(opts);
    const auto id = server.submit(
        serve::make_airfoil_job("overhead", airfoil_shape));
    const serve::JobReport rep = server.wait(id);
    p.digests_match = rep.state == serve::State::kDone &&
                      rep.result == airfoil_solo;
  }

  // The soak proper: healthy tenants of every app family sharing the
  // server with a crash, a hang and a rank death.
  serve::Server::Options opts;
  opts.workers = 3;
  opts.watchdog_period_seconds = 0.02;
  opts.stall_seconds = 0.3;
  serve::Server server(opts);

  std::vector<std::pair<serve::JobId, const std::string*>> expect;
  const double t0 = apl::now_seconds();
  for (int i = 0; i < 2; ++i) {
    const std::string tag = std::to_string(i);
    expect.emplace_back(server.submit(serve::make_airfoil_job(
                            "airfoil-" + tag, airfoil_shape)),
                        &airfoil_solo);
    expect.emplace_back(server.submit(serve::make_clover_job(
                            "clover-" + tag, clover_shape)),
                        &clover_solo);
    expect.emplace_back(server.submit(serve::make_minihydra_job(
                            "hydra-" + tag, hydra_shape)),
                        &hydra_solo);
  }
  serve::JobSpec crash = serve::make_airfoil_job("crash", airfoil_shape);
  crash.faults = "kill_at_loop=40";
  expect.emplace_back(server.submit(std::move(crash)), &airfoil_solo);
  serve::JobSpec hang = serve::make_airfoil_job("hang", airfoil_shape);
  hang.faults = "hang_at_loop=40";
  hang.retries = 0;
  const serve::JobId hang_id = server.submit(std::move(hang));
  serve::JobSpec rankloss = serve::make_clover_job("rankloss", clover_shape);
  rankloss.faults = "fail_rank=1@6";
  expect.emplace_back(server.submit(std::move(rankloss)), &clover_solo);

  server.drain();
  p.makespan_seconds = apl::now_seconds() - t0;
  p.jobs = static_cast<int>(expect.size()) + 1;

  for (const auto& [id, solo] : expect) {
    const serve::JobReport rep = server.status(id);
    p.digests_match = p.digests_match &&
                      rep.state == serve::State::kDone && rep.result == *solo;
    const double latency = rep.queued_seconds + rep.run_seconds;
    p.mean_latency_seconds += latency;
    p.max_latency_seconds = std::max(p.max_latency_seconds, latency);
  }
  const serve::JobReport hang_rep = server.status(hang_id);
  p.hang_stopped =
      hang_rep.state == serve::State::kCancelled &&
      hang_rep.cancel_reason == apl::cancel::Reason::kStalled;

  const serve::ServerStats st = server.stats();
  p.completed = st.completed;
  p.failed = st.failed;
  p.cancelled = st.cancelled;
  p.retries = st.retries;
  p.watchdog_kills = st.watchdog_kills;
  if (!expect.empty()) {
    p.mean_latency_seconds /= static_cast<double>(expect.size());
  }
  if (p.makespan_seconds > 0.0) {
    p.throughput_jobs_per_second =
        static_cast<double>(p.completed) / p.makespan_seconds;
  }
  return p;
}

void print_serve(const ServeProbe& p) {
  std::printf(
      "serve            %d tenants: %llu done / %llu failed / %llu "
      "cancelled, %llu retries, %llu watchdog kills, %.2f jobs/s, "
      "latency mean %.3fs max %.3fs, digests %s\n",
      p.jobs, static_cast<unsigned long long>(p.completed),
      static_cast<unsigned long long>(p.failed),
      static_cast<unsigned long long>(p.cancelled),
      static_cast<unsigned long long>(p.retries),
      static_cast<unsigned long long>(p.watchdog_kills),
      p.throughput_jobs_per_second, p.mean_latency_seconds,
      p.max_latency_seconds, p.digests_match ? "identical" : "DIVERGED");
}

// ---- op2 tiling: eager vs lazy-tiled Airfoil, fused-chain columns ----------

/// One eager-vs-lazy differential on the same Airfoil mesh, sized so the
/// auto tile sizing genuinely fuses (a fused chain's working set is
/// several times the tile cache budget). The gate is the tentpole's
/// contract: order-preserving sparse tiling is bitwise-invisible.
struct Op2TilingProbe {
  double eager_seconds = 0.0;
  double tiled_seconds = 0.0;
  double threaded_seconds = 0.0;
  op2::ChainStats chain;
  std::uint64_t rounds = 0;  ///< color rounds of the team-of-2 run
  bool bitwise_identical = false;
  bool threaded_bitwise = false;  ///< team q == eager, rms == serial walk

  double speedup() const {
    return tiled_seconds > 0.0 ? eager_seconds / tiled_seconds : 0.0;
  }
  /// The acceptance gate: chains formed and every one fused (no verbatim
  /// fallback), the inspector projected a real traffic saving, the tiled
  /// bits match the eager bits exactly, and the threaded color-round
  /// executor ran real rounds and stayed bitwise-identical too.
  bool ok() const {
    return chain.flushes > 0 && chain.verbatim == 0 && chain.max_chain >= 2 &&
           chain.tiled_bytes < chain.eager_bytes && bitwise_identical &&
           rounds > 0 && threaded_bitwise;
  }
};

Op2TilingProbe probe_op2_tiling() {
  constexpr int kIters = 5;
  airfoil::Airfoil::Options opts;
  opts.nx = 120;  // ~864 KiB fused working set: several tiles per chain
  opts.ny = 60;
  Op2TilingProbe p;

  airfoil::Airfoil eager(opts);
  double t0 = apl::now_seconds();
  eager.run(kIters);
  p.eager_seconds = apl::now_seconds() - t0;
  const std::vector<double> ref = eager.solution();

  airfoil::Airfoil tiled(opts);
  tiled.ctx().set_lazy(true);
  t0 = apl::now_seconds();
  const double tiled_rms = tiled.run(kIters);
  tiled.ctx().flush();
  p.tiled_seconds = apl::now_seconds() - t0;
  p.chain = tiled.ctx().chain_stats();
  p.bitwise_identical = bits_equal(ref, tiled.solution());

  // Threaded gate, on a 2-member team (meaningful round structure even
  // on a 1-core host): Airfoil's own reduction chains must go through
  // real color rounds, q must match eager bitwise, and rms — per-tile
  // partials folded in tile order — the serial tiled walk bitwise.
  apl::ThreadPool team(2);
  airfoil::Airfoil threaded(opts);
  threaded.ctx().set_tile_team(&team);
  threaded.ctx().set_lazy(true);
  t0 = apl::now_seconds();
  const double threaded_rms = threaded.run(kIters);
  threaded.ctx().flush();
  p.threaded_seconds = apl::now_seconds() - t0;
  p.rounds = threaded.ctx().chain_stats().rounds;
  p.threaded_bitwise =
      bits_equal(ref, threaded.solution()) &&
      std::memcmp(&tiled_rms, &threaded_rms, sizeof tiled_rms) == 0;
  return p;
}

void print_op2_tiling(const Op2TilingProbe& p) {
  std::printf(
      "op2 tiling       eager %.6fs -> tiled %.6fs (%.2fx), %llu chains "
      "(max %llu loops) -> %llu tiles, %llu verbatim, traffic saved "
      "%.1f%%, bitwise %s\n",
      p.eager_seconds, p.tiled_seconds, p.speedup(),
      static_cast<unsigned long long>(p.chain.flushes),
      static_cast<unsigned long long>(p.chain.max_chain),
      static_cast<unsigned long long>(p.chain.tiles),
      static_cast<unsigned long long>(p.chain.verbatim),
      100.0 * p.chain.traffic_saved_fraction(),
      p.bitwise_identical ? "identical" : "DIVERGED");
  std::printf(
      "op2 tiling       team-of-2 %.6fs, %llu color rounds, threaded "
      "bitwise %s\n",
      p.threaded_seconds, static_cast<unsigned long long>(p.rounds),
      p.threaded_bitwise ? "identical" : "DIVERGED");
}

void print_probe(const std::string& name, const CacheProbe& p) {
  std::printf(
      "%-16s plan analysis cold %.6fs -> warm %.6fs (%.1fx), "
      "%llu stored, warm %llu hit / %llu miss / %llu corrupt, bitwise %s\n",
      name.c_str(), p.cold_plan_seconds, p.warm_plan_seconds, p.speedup(),
      static_cast<unsigned long long>(p.cold_stores),
      static_cast<unsigned long long>(p.warm_hits),
      static_cast<unsigned long long>(p.warm_misses),
      static_cast<unsigned long long>(p.warm_corrupt),
      p.bitwise_identical ? "identical" : "DIVERGED");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](std::string& dst) {
      if (i + 1 >= argc) std::exit(usage(argv[0]));
      dst = argv[++i];
    };
    if (a == "--check-trace") {
      next(args.check_trace);
    } else if (a == "--check-plan-cache") {
      args.check_plan_cache = true;
    } else if (a == "--check-resilience") {
      args.check_resilience = true;
    } else if (a == "--check-serve") {
      args.check_serve = true;
    } else if (a == "--check-op2-tiling") {
      args.check_op2_tiling = true;
    } else {
      return usage(argv[0]);
    }
  }

  if (!args.check_trace.empty()) {
    std::ifstream is(args.check_trace);
    if (!is) {
      std::fprintf(stderr, "bench_report: cannot open '%s'\n",
                   args.check_trace.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string err = apl::trace::validate_chrome_json(buf.str());
    if (!err.empty()) {
      std::fprintf(stderr, "bench_report: %s: %s\n", args.check_trace.c_str(),
                   err.c_str());
      return 1;
    }
    std::printf("%s: valid Chrome trace\n", args.check_trace.c_str());
    return 0;
  }

  if (args.check_plan_cache) {
    // CI gate: short runs, but the same invariants the tests assert —
    // zero warm misses and bitwise-identical output on both families.
    const CacheProbe air = probe_airfoil();
    const CacheProbe clv = probe_clover_lazy();
    print_probe("airfoil", air);
    print_probe("cloverleaf_lazy", clv);
    if (!air.ok() || !clv.ok()) {
      std::fprintf(stderr,
                   "bench_report: plan cache cold->warm check FAILED\n");
      return 1;
    }
    std::printf("plan cache cold->warm check passed\n");
    return 0;
  }

  if (args.check_resilience) {
    const ResilienceProbe res = probe_resilience();
    print_resilience(res);
    if (!res.ok()) {
      std::fprintf(stderr, "bench_report: resilience check FAILED\n");
      return 1;
    }
    std::printf("resilience retry+shrink check passed\n");
    return 0;
  }

  if (args.check_serve) {
    const ServeProbe srv = probe_serve();
    print_serve(srv);
    if (!srv.ok()) {
      std::fprintf(stderr, "bench_report: serve soak check FAILED\n");
      return 1;
    }
    std::printf("serve multi-tenant soak check passed\n");
    return 0;
  }

  if (args.check_op2_tiling) {
    const Op2TilingProbe tp = probe_op2_tiling();
    print_op2_tiling(tp);
    if (!tp.ok()) {
      std::fprintf(stderr,
                   "bench_report: op2 tiling eager-vs-tiled check FAILED\n");
      return 1;
    }
    std::printf("op2 sparse-tiling bitwise check passed\n");
    return 0;
  }

  return usage(argv[0]);
}
