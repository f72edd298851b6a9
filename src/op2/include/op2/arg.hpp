// Parallel-loop argument descriptors.
//
// `arg(dat, map, idx, access)` mirrors op_arg_dat: the dataset, the
// mapping (nullptr/omitted for direct access on the iteration set), which
// component of the mapping, and the access mode. `arg_gbl` mirrors
// op_arg_gbl for global constants and reductions. The typed descriptors
// drive kernel invocation; ArgInfo is their type-erased shadow used for
// plan construction, traffic accounting, halo logic and the loop-chain
// recorder.
#pragma once

#include <cstdint>

#include "apl/error.hpp"
#include "op2/acc.hpp"
#include "op2/mesh.hpp"

namespace op2 {

/// Type-erased description of one loop argument.
struct ArgInfo {
  index_t dat_id = -1;   ///< -1 for globals
  index_t map_id = -1;   ///< -1 for direct
  index_t idx = 0;
  apl::exec::Access acc = apl::exec::Access::kRead;
  index_t dim = 0;
  std::size_t elem_bytes = 0;
  bool is_gbl = false;

  bool indirect() const { return map_id >= 0; }
  bool operator==(const ArgInfo&) const = default;
};

/// Typed dataset argument.
template <class T>
struct ArgDat {
  Dat<T>* dat;
  const Map* map;  ///< nullptr == direct (OP_ID)
  index_t idx;
  apl::exec::Access acc;

  ArgInfo info() const {
    return ArgInfo{dat->id(), map ? map->id() : -1, idx, acc, dat->dim(),
                   sizeof(T), false};
  }
};

/// Typed global argument (constant or reduction target).
template <class T>
struct ArgGbl {
  T* data;
  index_t dim;
  apl::exec::Access acc;

  ArgInfo info() const {
    return ArgInfo{-1, -1, 0, acc, dim, sizeof(T), true};
  }
};

/// Direct dataset access on the iteration set.
template <class T>
ArgDat<T> arg(Dat<T>& dat, apl::exec::Access acc) {
  return {&dat, nullptr, 0, acc};
}

/// Indirect dataset access through component `idx` of `map`.
template <class T>
ArgDat<T> arg(Dat<T>& dat, const Map& map, index_t idx, apl::exec::Access acc) {
  apl::require(idx >= 0 && idx < map.arity(), "arg: map index ", idx,
               " out of range for map '", map.name(), "' of arity ",
               map.arity());
  apl::require(&map.to() == &dat.set(), "arg: map '", map.name(),
               "' targets set '", map.to().name(), "' but dat '", dat.name(),
               "' lives on set '", dat.set().name(), "'");
  return {&dat, &map, idx, acc};
}

/// Global argument: `data` points at `dim` values of T owned by the caller.
/// kRead passes them in; kInc/kMin/kMax reduce into them across elements.
template <class T>
ArgGbl<T> arg_gbl(T* data, index_t dim, apl::exec::Access acc) {
  apl::require(acc == apl::exec::Access::kRead || acc == apl::exec::Access::kInc ||
                   acc == apl::exec::Access::kMin || acc == apl::exec::Access::kMax,
               "arg_gbl: access must be read or a reduction");
  return {data, dim, acc};
}

}  // namespace op2
