// Shared plumbing of the perfbench binary: options, sample statistics,
// trace aggregation and the result record every workload fills in.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// What the benchmark's own test plants so it can prove that a wrong or
/// failing result is counted as failed: a corrupted reference (solver
/// fields, solver reduction, or all references, serve digests included),
/// or an exception inside every solver job.
enum class Plant { kNone, kFields, kReduction, kAll, kError };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Plant plant = Plant::kNone;
  std::string workdir;  ///< scratch directory for checkpoints and caches
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `attempted`/`failed` count iterations
/// (solver workloads) or jobs (serve_mix); `env` values are JSON literals.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> env;
  std::map<std::string, double> breakdown;  ///< traced run: layer sums

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void env_num(const std::string& key, double v);
  void env_str(const std::string& key, const std::string& v);
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Sets failed_frac and ok_frac (its complement) from attempted/failed.
void set_failure_metrics(Result& r);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Last-level cache size the OS reports for cpu0, in bytes (0 if unknown).
std::uint64_t llc_bytes();

/// Spans of the global apl::trace recorder, summed per category.
struct SpanTotals {
  std::uint64_t count = 0;
  double seconds = 0;
  std::uint64_t bytes = 0;
};
/// Drains the recorder: returns the per-category totals of everything
/// recorded since the last drain (and, per name prefix, the counts the
/// serve workload needs), then clears the buffer.
struct TraceTotals {
  std::map<std::string, SpanTotals> by_category;
  std::uint64_t plan_hits = 0;    ///< plan/chain/partition loads served from disk
  std::uint64_t plan_stores = 0;  ///< entries written after a miss
  SpanTotals ckpt_writes;         ///< CheckpointStore::save spans
  void add(const TraceTotals& o);
};
TraceTotals drain_trace();

/// Sets the environment fields common to every workload.
void record_common_env(const Options& opt, Result& r);

Result run_solver(const Options& opt);
Result run_serve_mix(const Options& opt);
Result run_calibration(const Options& opt);

}  // namespace perfbench
