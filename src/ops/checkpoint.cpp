#include "ops/checkpoint.hpp"

#include <algorithm>
#include <cstring>


namespace ops {

// raw() is a flush point, so with the lazy engine active the payload
// reflects every loop enqueued so far; the checkpointer only packs while
// par_loop runs it eagerly (wants_eager), so there it is a plain copy.
std::vector<std::uint8_t> pack_dat(DatBase& dat) {
  const std::size_t n = dat.alloc_points() *
                        static_cast<std::size_t>(dat.dim()) * dat.elem_bytes();
  std::vector<std::uint8_t> out(n);
  std::memcpy(out.data(), dat.raw(), n);
  return out;
}

void unpack_dat(DatBase& dat, std::span<const std::uint8_t> bytes) {
  const std::size_t n = dat.alloc_points() *
                        static_cast<std::size_t>(dat.dim()) * dat.elem_bytes();
  apl::require(bytes.size() == n, "checkpoint restore: dat '", dat.name(),
               "' size mismatch (", bytes.size(), " vs ", n, " bytes)");
  std::memcpy(dat.raw(), bytes.data(), n);
}

std::vector<apl::ckpt::ArgAccess> Checkpointer::project(
    const std::vector<ArgInfo>& args) {
  std::vector<apl::ckpt::ArgAccess> out;
  out.reserve(args.size());
  for (const ArgInfo& a : args) {
    if (a.is_idx) continue;  // index pseudo-argument: no data access
    apl::ckpt::ArgAccess p;
    p.acc = a.acc;
    p.dim = a.dim;
    if (a.is_gbl) {
      p.is_gbl = true;
    } else {
      p.dat_id = a.dat_id;
      p.aux = a.stencil_id;
    }
    out.push_back(p);
  }
  return out;
}

void Checkpointer::request_checkpoint() {
  // A checkpoint request is a flush point: the queued chain executes
  // before the state machine arms, so entry-point selection and packed
  // payloads refer to a well-defined program position.
  ctx_->flush();
  SaveReplay::request_checkpoint();
}

Access Checkpointer::classify_write(index_t dat_id, Access acc,
                                    const Range& range, int ndim) {
  if (dat_id >= static_cast<index_t>(dirty_.size())) {
    dirty_.resize(static_cast<std::size_t>(dat_id) + 1);
  }
  DirtyBox& box = dirty_[dat_id];
  Access out = acc;
  if (acc == Access::kWrite && box.valid) {
    for (int k = 0; k < ndim; ++k) {
      if (range.lo[k] > box.lo[k] || range.hi[k] < box.hi[k]) {
        out = Access::kRW;
        break;
      }
    }
  }
  if (writes(acc) && !range.empty()) {
    if (!box.valid) {
      box.valid = true;
      box.lo = range.lo;
      box.hi = range.hi;
    } else {
      for (int k = 0; k < ndim; ++k) {
        box.lo[k] = std::min(box.lo[k], range.lo[k]);
        box.hi[k] = std::max(box.hi[k], range.hi[k]);
      }
    }
  }
  return out;
}

}  // namespace ops
