#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <thread>

#include "apl/trace.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool starts_with(std::string_view s, std::string_view p) {
  return s.substr(0, p.size()) == p;
}

}  // namespace

void Result::env_num(const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  env[key] = buf;
}

void Result::env_str(const std::string& key, const std::string& v) {
  env[key] = json_string(v);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void set_failure_metrics(Result& r) {
  const double frac = r.attempted ? static_cast<double>(r.failed) /
                                        static_cast<double>(r.attempted)
                                  : 1.0;
  r.set("failed_frac", frac, "fraction");
  r.set("ok_frac", 1.0 - frac, "fraction");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t llc_bytes() {
  // The highest cache index of cpu0 is the last level.
  std::uint64_t best = 0;
  for (int idx = 0; idx < 8; ++idx) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(idx) + "/size");
    std::string s;
    if (!(in >> s) || s.empty()) continue;
    std::uint64_t mult = 1;
    if (s.back() == 'K') mult = 1024;
    if (s.back() == 'M') mult = 1024 * 1024;
    if (mult != 1) s.pop_back();
    best = std::stoull(s) * mult;
  }
  return best;
}

void TraceTotals::add(const TraceTotals& o) {
  for (const auto& [cat, t] : o.by_category) {
    SpanTotals& mine = by_category[cat];
    mine.count += t.count;
    mine.seconds += t.seconds;
    mine.bytes += t.bytes;
  }
  plan_hits += o.plan_hits;
  plan_stores += o.plan_stores;
  ckpt_writes.count += o.ckpt_writes.count;
  ckpt_writes.seconds += o.ckpt_writes.seconds;
  ckpt_writes.bytes += o.ckpt_writes.bytes;
}

TraceTotals drain_trace() {
  auto& rec = apl::trace::Recorder::global();
  TraceTotals t;
  for (const apl::trace::Event& e : rec.snapshot()) {
    SpanTotals& s = t.by_category[e.cat];
    ++s.count;
    s.seconds += e.dur;
    s.bytes += e.bytes;
    const std::string_view name = e.name;
    if (std::string_view(e.cat) == apl::trace::kPlan) {
      if (name.find("_hit:") != std::string_view::npos) ++t.plan_hits;
      if (starts_with(name, "plan_store:")) ++t.plan_stores;
    }
    if (starts_with(name, "ckpt_save:")) {
      ++t.ckpt_writes.count;
      t.ckpt_writes.seconds += e.dur;
      t.ckpt_writes.bytes += e.bytes;
    }
  }
  rec.clear();
  return t;
}

void record_common_env(const Options& opt, Result& r) {
  r.env_str("workload", opt.workload);
  r.env_num("seed", static_cast<double>(opt.seed));
  r.env_num("seconds", opt.seconds);
  r.env_num("traced", opt.trace ? 1 : 0);
  r.env_num("nproc", std::thread::hardware_concurrency());
  r.env_num("llc_bytes", static_cast<double>(llc_bytes()));
  r.env_str("compiler", PERFBENCH_COMPILER);
  r.env_str("cxx_flags", PERFBENCH_FLAGS);
  r.env_str("build_type", PERFBENCH_BUILD_TYPE);
}

}  // namespace perfbench
