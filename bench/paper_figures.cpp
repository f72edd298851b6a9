// paper_figures <figure>: regenerates one table or figure of Reguly et
// al., CLUSTER'15 (or `all` of them, in order) and checks its shape.
// Exit status: 0 when every check holds, 1 when one is VIOLATED or a
// figure throws, 2 on a usage error. A paper claim printed as
// `not reproduced` leaves the exit status alone.
#include <cstdio>
#include <exception>
#include <string>
#include <utility>

#include "common.hpp"

namespace {

constexpr std::pair<const char*, void (*)(bench::Checks&)> kFigures[] = {
    {"table1", bench::table1}, {"fig2", bench::fig2},
    {"fig3", bench::fig3},     {"fig4", bench::fig4},
    {"fig5", bench::fig5},     {"fig6", bench::fig6},
    {"fig7", bench::fig7},     {"fig8", bench::fig8},
    {"tiling", bench::tiling}, {"ablations", bench::ablations},
};

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc == 2 ? argv[1] : "";
  bool known = name == "all";
  for (const auto& [figure, run] : kFigures) known = known || name == figure;
  if (!known) {
    std::fprintf(stderr, "usage: paper_figures <figure>\n  figure:");
    for (const auto& [figure, run] : kFigures) {
      std::fprintf(stderr, " %s", figure);
    }
    std::fprintf(stderr, " all\n");
    return 2;
  }

  bench::Checks checks;
  try {
    for (const auto& [figure, run] : kFigures) {
      if (name == "all" || name == figure) run(checks);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "paper_figures %s: %s\n", name.c_str(), e.what());
    return 1;
  }
  std::printf("\n%s: %d checks, %d VIOLATED; %d paper claims not "
              "reproduced\n",
              name.c_str(), checks.checks, checks.violated,
              checks.not_reproduced);
  return checks.violated == 0 ? 0 : 1;
}
