// Host bandwidth calibration: the denominators of every *.bw_fraction.
//
// Three microkernels over one array of at least 4x the reported
// last-level cache, run on nproc threads (each owns a contiguous chunk):
//   stream  — a[i] = a[i] * s + c            (8 B read + 8 B written)
//   gather  — sum += a[h(i) mod n]           (8 B useful per access)
//   scatter — a[h(i) mod n] += 1             (8 B useful per access, each
//             thread within its own n/nproc slice)
// h is a 64-bit mix of the access number, so indices need no second array.
// Bytes are useful payload bytes, the same accounting apl::Profile uses.
// Each kernel runs three times; the median is reported. run.py runs this
// in its own process so its footprint never shows in a workload's
// peak_rss_mb.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "apl/profile.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kMinArrayBytes = 64ull << 20;
constexpr std::uint64_t kMaxArrayBytes = 2ull << 30;
constexpr std::uint64_t kRandomAccessesPerThread = 1ull << 22;
constexpr int kReps = 3;

std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Runs body(thread, lo, hi) over [0, n) split into `threads` chunks and
/// returns the wall seconds.
template <class Body>
double timed_parallel(unsigned threads, std::uint64_t n, Body body) {
  std::vector<std::thread> team;
  const double t0 = apl::now_seconds();
  for (unsigned t = 0; t < threads; ++t) {
    const std::uint64_t lo = n * t / threads;
    const std::uint64_t hi = n * (t + 1) / threads;
    team.emplace_back([&body, t, lo, hi] { body(t, lo, hi); });
  }
  for (std::thread& th : team) th.join();
  return apl::now_seconds() - t0;
}

}  // namespace

Result run_calibration(const Options&) {
  Result r;
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  const std::uint64_t llc = llc_bytes();
  const std::uint64_t bytes =
      std::clamp<std::uint64_t>(4 * llc, kMinArrayBytes, kMaxArrayBytes);
  const std::uint64_t n = bytes / sizeof(double);
  std::unique_ptr<double[]> a(new double[n]);
  // First touch from the same threads that later stream the chunks.
  timed_parallel(threads, n, [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t i = lo; i < hi; ++i) a[i] = 1.0;
  });

  std::vector<double> stream, gather, scatter;
  std::vector<double> sums(threads, 0.0);
  for (int rep = 0; rep < kReps; ++rep) {
    const double s = 1.0 + 1e-9 * rep;
    const double ts = timed_parallel(threads, n, [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
      for (std::uint64_t i = lo; i < hi; ++i) a[i] = a[i] * s + 1e-12;
    });
    stream.push_back(16.0 * static_cast<double>(n) / ts * 1e-9);

    const std::uint64_t accesses = kRandomAccessesPerThread * threads;
    const double tg = timed_parallel(threads, accesses, [&](unsigned t, std::uint64_t lo, std::uint64_t hi) {
      double sum = 0;
      for (std::uint64_t i = lo; i < hi; ++i) sum += a[mix(i + rep) % n];
      sums[t] += sum;
    });
    gather.push_back(8.0 * static_cast<double>(accesses) / tg * 1e-9);

    // Each thread scatters into its own slice of the array, so no two
    // threads ever write the same entry.
    const std::uint64_t slice = n / threads;
    const double tc = timed_parallel(threads, accesses, [&](unsigned t, std::uint64_t lo, std::uint64_t hi) {
      double* base = a.get() + slice * t;
      for (std::uint64_t i = lo; i < hi; ++i) base[mix(i ^ 0x5bd1e995ull) % slice] += 1.0;
    });
    scatter.push_back(8.0 * static_cast<double>(accesses) / tc * 1e-9);
  }
  double checksum = 0;
  for (double v : sums) checksum += v;

  r.attempted = 1;
  r.set("perf.host_stream_gbs", median(stream), "GB/s");
  r.set("perf.host_gather_gbs", median(gather), "GB/s");
  r.set("perf.host_scatter_gbs", median(scatter), "GB/s");
  r.env_num("calibration_threads", threads);
  r.env_num("calibration_array_bytes", static_cast<double>(bytes));
  r.env_num("calibration_llc_bytes", static_cast<double>(llc));
  r.env_num("calibration_checksum", checksum);
  return r;
}

}  // namespace perfbench
