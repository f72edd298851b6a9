// Guarded-execution helpers for OPS (apl::verify::kAccess).
//
// OPS kernels may only write the centre point, so the stencil checker
// (apl::verify::kStencil, the StencilCheck each ops::Acc carries)
// already polices *where* a kernel touches a dataset. kAccess adds the
// orthogonal contract: an argument declared kRead must not be written at
// all. Unlike OP2's canary-probe protocol — which must disambiguate
// per-element reads and writes on aliased indirect data — a structured
// loop owns its whole range, so the guard simply snapshots each kRead
// argument's allocation before the loop and bitwise-diffs it after,
// reporting the first modified grid point (or global component) by name.
#pragma once

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apl/verify.hpp"
#include "ops/arg.hpp"
#include "ops/context.hpp"

namespace ops::detail {

// `written_dats` lists every dat id some argument of the loop declares
// written: a kRead alias of such a dat (the update_halo idiom — same dat
// passed once read-through-a-mirror-stencil and once written-at-centre)
// legitimately changes under the kernel and is exempt from the diff.
template <class T>
std::vector<T> guard_snapshot(const ArgDat<T>& a,
                              const std::vector<index_t>& written_dats) {
  if (a.acc != Access::kRead) return {};
  if (std::find(written_dats.begin(), written_dats.end(), a.dat->id()) !=
      written_dats.end()) {
    return {};
  }
  const std::span<const T> s = std::as_const(*a.dat).storage();
  return std::vector<T>(s.begin(), s.end());
}
template <class T>
std::vector<T> guard_snapshot(const ArgGbl<T>& g,
                              const std::vector<index_t>&) {
  if (g.acc != Access::kRead || g.data == nullptr) return {};
  return std::vector<T>(g.data, g.data + g.dim);
}
inline std::vector<int> guard_snapshot(const ArgIdx&,
                                       const std::vector<index_t>&) {
  return {};
}

template <class T>
void guard_diff(Context& ctx, const std::string& loop, int ordinal,
                const ArgDat<T>& a, const std::vector<T>& snap) {
  if (snap.empty()) return;
  const std::span<const T> now = std::as_const(*a.dat).storage();
  const DatBase& d = *a.dat;
  for (std::size_t f = 0; f < now.size(); ++f) {
    if (std::memcmp(&now[f], &snap[f], sizeof(T)) == 0) continue;
    const auto alloc = d.alloc_size();
    const std::size_t dim = static_cast<std::size_t>(d.dim());
    const std::size_t point = f / dim;
    const index_t plane = static_cast<index_t>(alloc[0]) * alloc[1];
    const index_t i = static_cast<index_t>(point % alloc[0]) - d.d_m()[0];
    const index_t j =
        static_cast<index_t>(point / alloc[0]) % alloc[1] - d.d_m()[1];
    const index_t k = static_cast<index_t>(point / plane) - d.d_m()[2];
    ctx.verify_report().fail(
        loop, apl::verify::kAccess,
        "arg " + std::to_string(ordinal) + ": dat '" + d.name() +
            "' is declared kRead but the kernel wrote grid point (" +
            std::to_string(i) + "," + std::to_string(j) + "," +
            std::to_string(k) + ") component " +
            std::to_string(static_cast<index_t>(f % dim)));
  }
}
template <class T>
void guard_diff(Context& ctx, const std::string& loop, int ordinal,
                const ArgGbl<T>& g, const std::vector<T>& snap) {
  if (snap.empty()) return;
  for (index_t c = 0; c < g.dim; ++c) {
    if (std::memcmp(&g.data[c], &snap[c], sizeof(T)) != 0) {
      ctx.verify_report().fail(
          loop, apl::verify::kAccess,
          "arg " + std::to_string(ordinal) +
              ": global is declared kRead but the kernel modified component " +
              std::to_string(c));
    }
  }
}
inline void guard_diff(Context&, const std::string&, int, const ArgIdx&,
                       const std::vector<int>&) {}

}  // namespace ops::detail
