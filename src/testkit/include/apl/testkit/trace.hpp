// Execution traces and the generic trace comparator the differential
// oracle is built on. A trace records, per executed loop, the reduction
// outputs, plus snapshots of every dat — after every loop for combos whose
// intermediate states are observable, or once at the end for combos where
// observing midway would change execution (lazy chains flush on reads;
// checkpoint replay fast-forwards).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apl/testkit/compare.hpp"

namespace apl::testkit {

struct Trace {
  /// [snapshot][dat][flat value]; one snapshot per loop, or a single final
  /// one when per_loop is false.
  std::vector<std::vector<std::vector<double>>> snaps;
  /// [loop] -> reduction outputs (empty for non-reduction loops). Always
  /// recorded per loop: reduction values are defined at the loop even for
  /// lazy/checkpointed combos (reductions are flush/replay points).
  std::vector<std::vector<double>> reds;
  bool per_loop = true;
};

/// Which floating-point accumulations a combination may reassociate, and
/// so which values get the ULP tolerance; everything else must still
/// match bitwise.
enum class Reorders {
  kNone,
  /// Global reductions only (per-tile partials of a fused lazy walk):
  /// every dat, tainted or not, stays bitwise.
  kReductions,
  /// Reductions and the dats data-dependent on scatters (parallel
  /// partials, indirect-increment commit order, rank partials).
  kAll,
};

/// How one oracle combination relates to the baseline.
struct ComboMeta {
  std::string name;
  Reorders reorders = Reorders::kNone;
  bool final_only = false;
};

/// Compares `var` against `base`. `taint[d]` marks dats whose values are
/// data-dependent on reorderable accumulation; `map_index(dat, flat)`
/// translates a baseline flat value index into the variant's (identity
/// except for the renumbering combo). Returns the first divergence.
template <class MapIndex>
std::optional<Divergence> compare_traces(
    const Trace& base, const Trace& var, const ComboMeta& combo,
    const std::vector<std::string>& dat_names,
    const std::vector<int>& dat_dims, const std::vector<char>& taint,
    const std::vector<std::string>& loop_names, std::int64_t max_ulps,
    MapIndex&& map_index) {
  auto fail = [&](int loop, const std::string& dat, std::int64_t elem,
                  int comp, double want, double got) {
    Divergence d;
    d.combo = combo.name;
    d.loop = loop;
    d.loop_name = loop >= 0 && loop < static_cast<int>(loop_names.size())
                      ? loop_names[loop]
                      : "";
    d.dat = dat;
    d.element = elem;
    d.component = comp;
    d.want = want;
    d.got = got;
    d.ulps = ulp_distance(want, got);
    d.message = format_divergence(d);
    return d;
  };

  // Reduction outputs: comparable at every loop in every combo.
  for (std::size_t l = 0; l < base.reds.size(); ++l) {
    const auto& want = base.reds[l];
    if (l >= var.reds.size() || var.reds[l].size() != want.size()) {
      return fail(static_cast<int>(l), "<reduction>", -1, 0, 0, 0);
    }
    for (std::size_t c = 0; c < want.size(); ++c) {
      if (!values_agree(want[c], var.reds[l][c],
                        combo.reorders != Reorders::kNone, max_ulps)) {
        return fail(static_cast<int>(l), "<reduction>", -1,
                    static_cast<int>(c), want[c], var.reds[l][c]);
      }
    }
  }

  // Dat snapshots: per loop when both traces have them, else final state.
  auto compare_snapshot = [&](const std::vector<std::vector<double>>& want,
                              const std::vector<std::vector<double>>& got,
                              int loop) -> std::optional<Divergence> {
    for (std::size_t d = 0; d < want.size(); ++d) {
      const bool reassoc =
          combo.reorders == Reorders::kAll &&
          d < taint.size() && taint[d];
      const int dim = dat_dims[d];
      for (std::size_t i = 0; i < want[d].size(); ++i) {
        const std::size_t vi = map_index(static_cast<int>(d), i);
        const double w = want[d][i];
        const double g = vi < got[d].size() ? got[d][vi] : 0.0;
        if (!values_agree(w, g, reassoc, max_ulps)) {
          return fail(loop, dat_names[d],
                      static_cast<std::int64_t>(i) / dim,
                      static_cast<int>(i) % dim, w, g);
        }
      }
    }
    return std::nullopt;
  };

  if (base.per_loop && var.per_loop && !combo.final_only) {
    for (std::size_t l = 0; l < base.snaps.size(); ++l) {
      if (l >= var.snaps.size()) break;
      if (auto d = compare_snapshot(base.snaps[l], var.snaps[l],
                                    static_cast<int>(l))) {
        return d;
      }
    }
  } else if (!base.snaps.empty() && !var.snaps.empty()) {
    return compare_snapshot(base.snaps.back(), var.snaps.back(), -1);
  }
  return std::nullopt;
}

inline std::size_t identity_index(int /*dat*/, std::size_t flat) {
  return flat;
}

}  // namespace apl::testkit
