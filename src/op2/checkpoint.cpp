#include "op2/checkpoint.hpp"

namespace op2 {

std::vector<apl::ckpt::ArgAccess> Checkpointer::project(
    const std::vector<ArgInfo>& args) {
  std::vector<apl::ckpt::ArgAccess> out;
  out.reserve(args.size());
  for (const ArgInfo& a : args) {
    apl::ckpt::ArgAccess p;
    p.acc = a.acc;
    p.dim = a.dim;
    if (a.is_gbl) {
      p.is_gbl = true;
    } else {
      p.dat_id = a.dat_id;
      // Fold (map, component) into aux so two loops differing only in the
      // indirection compare unequal, exactly like comparing ArgInfo.
      p.aux = a.map_id < 0 ? -1 : a.map_id * 256 + a.idx;
    }
    out.push_back(p);
  }
  return out;
}

}  // namespace op2
