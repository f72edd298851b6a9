// OPS parallel-loop argument descriptors: dataset-through-stencil,
// global (constant or reduction), and the current-index pseudo-argument.
#pragma once


#include "ops/acc.hpp"
#include "ops/core.hpp"

namespace ops {

/// Type-erased argument description (plan keys, traffic, halo logic).
struct ArgInfo {
  index_t dat_id = -1;
  index_t stencil_id = -1;
  Access acc = Access::kRead;
  index_t dim = 0;
  std::size_t elem_bytes = 0;
  bool is_gbl = false;
  bool is_idx = false;

  bool operator==(const ArgInfo&) const = default;
};

template <class T>
struct ArgDat {
  Dat<T>* dat;
  const Stencil* stencil;
  Access acc;
  /// Stencil validation under apl::verify::kStencil (armed by par_loop).
  StencilCheck chk{};
  bool checked = false;

  ArgInfo info() const {
    return {dat->id(), stencil->id(), acc, dat->dim(), sizeof(T), false,
            false};
  }
};

template <class T>
struct ArgGbl {
  T* data;
  index_t dim;
  Access acc;

  ArgInfo info() const { return {-1, -1, acc, dim, sizeof(T), true, false}; }
};

/// The kernel receives the current grid indices as `const int*`
/// (ops_arg_idx) — used by initialization kernels. `offset` shifts the
/// reported indices into global coordinates under the distributed layer.
struct ArgIdx {
  std::array<int, kMaxDim> offset{};

  ArgInfo info() const {
    return {-1, -1, Access::kRead, 0, 0, false, true};
  }
};

/// Dataset accessed through a declared stencil.
template <class T>
ArgDat<T> arg(Dat<T>& dat, const Stencil& stencil, Access acc) {
  apl::require(stencil.ndim() == dat.block().ndim(), "ops::arg: stencil '",
               stencil.name(), "' is ", stencil.ndim(), "D but dat '",
               dat.name(), "' lives on a ", dat.block().ndim(), "D block");
  apl::require(!writes(acc) || stencil.is_zero_point(), "ops::arg: dat '",
               dat.name(), "' is written through stencil '", stencil.name(),
               "' — OPS kernels may only write the centre point");
  return {&dat, &stencil, acc};
}

template <class T>
ArgGbl<T> arg_gbl(T* data, index_t dim, Access acc) {
  apl::require(acc == Access::kRead || acc == Access::kInc ||
                   acc == Access::kMin || acc == Access::kMax,
               "ops::arg_gbl: access must be read or a reduction");
  return {data, dim, acc};
}

inline ArgIdx arg_idx() { return {}; }

}  // namespace ops
