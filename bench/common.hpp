// Shared helpers for paper_figures, one function per reproduced table or
// figure.
//
// Every figure follows the same honesty rule (DESIGN.md §6): the real
// backends execute the real algorithms on the host and *count* work
// (bytes by access class, flops, elements, halo bytes, transactions);
// the apl::perf machine models convert counts to projected times on the
// paper's named 2015 hardware. No host wall-clock time is printed: speed
// on this host is perfbench's job. Each figure's shape is computed and
// checked (Checks::expect), so a figure whose shape breaks fails its run.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "apl/perf/machines.hpp"
#include "apl/perf/model.hpp"
#include "apl/profile.hpp"
#include "apl/rng.hpp"

namespace bench {

/// The computed checks of one run. A shape check prints its numbers and
/// `holds` or `VIOLATED`; any violation fails the run. A speed-up the
/// paper claims prints `reproduced` or `not reproduced` beside ours and
/// never fails the run (EXPERIMENTS.md lists each miss under Known
/// deviations).
struct Checks {
  int checks = 0, violated = 0, not_reproduced = 0;

  /// A shape the reproduction must show.
  __attribute__((format(printf, 3, 4))) void expect(bool ok, const char* fmt,
                                                    ...) {
    std::printf("  check: ");
    va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
    std::printf(": %s\n", ok ? "holds" : "VIOLATED");
    ++checks;
    if (!ok) ++violated;
  }

  /// A speed-up the paper reports (near-optimal scaling over N nodes is
  /// ~Nx): reproduced when our gain (speed-up - 1) is within 25% of the
  /// paper's.
  void paper_speedup(const char* what, double ours, double paper) {
    const bool ok = ours - 1 >= 0.75 * (paper - 1) &&
                    ours - 1 <= 1.25 * (paper - 1);
    std::printf("  paper: %s %.2fx (paper ~%.1fx, gain within 25%%): %s\n",
                what, ours, paper, ok ? "reproduced" : "not reproduced");
    if (!ok) ++not_reproduced;
  }
};

// One function per subcommand of paper_figures.
void table1(Checks& c);
void fig2(Checks& c);
void fig3(Checks& c);
void fig4(Checks& c);
void fig5(Checks& c);
void fig6(Checks& c);
void fig7(Checks& c);
void fig8(Checks& c);
void tiling(Checks& c);
void ablations(Checks& c);

/// The run Table I and Fig. 2 project: Airfoil 160x80 for 10 iterations
/// on the seq backend, made once per process, with the factors that carry
/// it to the paper's 2.8M cells x 1000 iterations.
struct AirfoilRun {
  apl::Profile profile;
  double mesh_scale = 1.0;
  double iter_factor = 1.0;
};
const AirfoilRun& airfoil_paper_run();

/// Converts one loop's accumulated stats into a model input.
inline apl::perf::LoopProfile to_profile(const std::string& name,
                                         const apl::LoopStats& s) {
  apl::perf::LoopProfile p;
  p.name = name;
  p.bytes_direct = static_cast<double>(s.bytes_direct);
  p.bytes_gather = static_cast<double>(s.bytes_gather);
  p.bytes_scatter = static_cast<double>(s.bytes_scatter);
  p.flops = s.flops;
  p.elements = static_cast<double>(s.elements);
  return p;
}

/// Total time of a run on machine `m`: each loop is priced per call (so
/// the small-workload efficiency term sees per-launch sizes), with the
/// mesh scaled by `mesh_scale` and the call count by `iter_factor` —
/// translating the host-sized instrumentation run to the paper's problem
/// size and iteration count.
inline double projected_run_time(const apl::perf::Machine& m,
                                 const apl::Profile& prof,
                                 double iter_factor = 1.0,
                                 double mesh_scale = 1.0) {
  double t = 0.0;
  for (const auto& [name, s] : prof.all()) {
    if (s.calls == 0) continue;
    const double calls = static_cast<double>(s.calls);
    const apl::perf::LoopProfile per_call =
        to_profile(name, s).scaled(mesh_scale / calls);
    t += apl::perf::projected_time(m, per_call) * calls * iter_factor;
  }
  return t;
}

/// A seeded shuffle of 0..n-1: production meshes arrive badly numbered.
template <class Index>
std::vector<Index> random_perm(Index n, std::uint64_t seed) {
  std::vector<Index> p(n);
  std::iota(p.begin(), p.end(), Index{0});
  apl::SplitMix64 rng(seed);
  for (Index i = n - 1; i > 0; --i) {
    std::swap(p[i], p[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  }
  return p;
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("================================================================\n");
}

inline void print_bar(const char* label, double seconds, const char* note) {
  std::printf("  %-34s %10.3f s   %s\n", label, seconds, note);
}

}  // namespace bench
