// CloverLeaf 2D end to end: the energetic-corner deck, field summaries in
// the original code's report format, and the OPS-vs-hand-coded check.
//
//   $ ./cloverleaf_sim [steps]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "cloverleaf/cloverleaf_ops.hpp"
#include "cloverleaf/cloverleaf_ref.hpp"

int main(int argc, char** argv) {
  const int steps = argc > 1 ? std::atoi(argv[1]) : 50;
  cloverleaf::Options opts;
  opts.nx = opts.ny = 64;

  cloverleaf::CloverOps app(opts);
  std::printf("CloverLeaf 2D: %dx%d cells, %d steps\n\n", opts.nx, opts.ny,
              steps);
  std::printf("%6s %10s %12s %12s %12s %12s\n", "step", "dt", "mass",
              "internal e", "kinetic e", "pressure");
  for (int s = 0; s <= steps; s += 10) {
    const auto fs = app.field_summary();
    std::printf("%6d %10.3e %12.6f %12.6f %12.6f %12.6f\n", s, fs.dt,
                fs.mass, fs.internal_energy, fs.kinetic_energy, fs.pressure);
    if (s < steps) app.run(std::min(10, steps - s));
  }

  // The Fig. 5 premise, demonstrated: the hand-coded implementation lands
  // on the same bits.
  cloverleaf::CloverRef ref(opts);
  ref.run(steps);
  const auto a = app.field_summary();
  const auto b = ref.field_summary();
  std::printf("\nOPS vs hand-coded after %d steps:\n", steps);
  std::printf("  mass      %.15e  vs  %.15e\n", a.mass, b.mass);
  std::printf("  kinetic   %.15e  vs  %.15e\n", a.kinetic_energy,
              b.kinetic_energy);
  std::printf("  identical: %s\n",
              (a.mass == b.mass && a.kinetic_energy == b.kinetic_energy)
                  ? "yes (bitwise)"
                  : "NO");
  return 0;
}
