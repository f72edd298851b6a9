// perfbench: the binary behind the repository's seeded benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--plant-wrong-reference <what>]
//   perfbench --workload host_calibration --workdir <dir>
//
// Runs one workload through the proxy apps' public APIs and prints one
// JSON object on stdout: attempted/failed counts, every metric with its
// unit, the environment, and (traced runs) the layer breakdown. The
// wrapper perfbench/run.py builds this binary, runs it, and turns its
// output into the benchmark's result line.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <airfoil_tiled|hydra_colored|"
               "clover_tiled|serve_mix|host_calibration> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> "
               "[--plant-wrong-reference <fields|reduction|all|error>]\n");
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(const perfbench::Result& r) {
  std::string out = "{\"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
           number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}, \"env\": {";
  first = true;
  for (const auto& [key, v] : r.env) {
    out += (first ? "\"" : ", \"") + key + "\": " + v;
    first = false;
  }
  out += "}, \"breakdown\": {";
  first = true;
  for (const auto& [key, v] : r.breakdown) {
    out += (first ? "\"" : ", \"") + key + "\": " + number(v);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--workdir" && has_value) {
      opt.workdir = argv[++i];
    } else if (a == "--plant-wrong-reference" && has_value) {
      const std::string what = argv[++i];
      if (what == "fields") {
        opt.plant = perfbench::Plant::kFields;
      } else if (what == "reduction") {
        opt.plant = perfbench::Plant::kReduction;
      } else if (what == "all") {
        opt.plant = perfbench::Plant::kAll;
      } else if (what == "error") {
        opt.plant = perfbench::Plant::kError;
      } else {
        usage();
        return 2;
      }
    } else {
      usage();
      return 2;
    }
  }
  if (opt.workload.empty() || opt.workdir.empty() || !(opt.seconds > 0)) {
    usage();
    return 2;
  }

  try {
    std::filesystem::create_directories(opt.workdir);
    perfbench::Result r;
    if (opt.workload == "serve_mix") {
      r = perfbench::run_serve_mix(opt);
    } else if (opt.workload == "host_calibration") {
      r = perfbench::run_calibration(opt);
    } else {
      r = perfbench::run_solver(opt);
    }
    perfbench::record_common_env(opt, r);
    print_result(r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
