// Stencil accessors for OPS kernels.
//
// A kernel receives one Acc per argument, positioned at the current grid
// point: acc(i, j, k) reads/writes the point at relative offset (i, j, k)
// (trailing offsets default to 0, so 1D/2D kernels stay terse), and
// acc.at(d, i, j, k) addresses component d of a multi-component dataset —
// the C++ forms of OPS's OPS_ACC / OPS_ACC_MD macros.
//
// Under apl::verify::kStencil every access is validated against the
// declared stencil ("OPS can automatically check whether the used
// stencils match the declared ones", paper Sec. II-C).
#pragma once

#include <cstddef>
#include <string>

#include "apl/verify.hpp"
#include "ops/core.hpp"

namespace ops {

/// Per-argument stencil validation state (shared across grid points),
/// armed by par_loop under apl::verify::kStencil. A violation is recorded
/// in `report` (the context's verify report), then thrown.
struct StencilCheck {
  const Stencil* stencil;
  const char* loop;
  const char* dat;
  apl::verify::Report* report;
};

template <class T>
class Acc {
public:
  Acc(T* p, std::ptrdiff_t sx, std::ptrdiff_t sy, std::ptrdiff_t sz,
      index_t dim, const StencilCheck* check = nullptr)
      : p_(p), sx_(sx), sy_(sy), sz_(sz), dim_(dim), check_(check) {}

  /// Component 0 at relative offset (i, j, k).
  T& operator()(int i, int j = 0, int k = 0) const {
    verify(i, j, k);
    return p_[i * sx_ + j * sy_ + k * sz_];
  }
  /// Component d at relative offset (i, j, k) (multi-component datasets).
  T& at(int d, int i, int j = 0, int k = 0) const {
    verify(i, j, k);
    return p_[i * sx_ + j * sy_ + k * sz_ + d];
  }

  index_t dim() const { return dim_; }

private:
  void verify(int i, int j, int k) const {
    if (check_ == nullptr) return;
    if (check_->stencil->contains(i, j, k)) return;
    check_->report->fail(
        check_->loop, apl::verify::kStencil,
        std::string("dat '") + check_->dat + "' accessed at offset (" +
            std::to_string(i) + "," + std::to_string(j) + "," +
            std::to_string(k) + ") outside declared stencil '" +
            check_->stencil->name() + "'");
  }

  T* p_;
  std::ptrdiff_t sx_, sy_, sz_;
  index_t dim_;
  const StencilCheck* check_;
};

}  // namespace ops
