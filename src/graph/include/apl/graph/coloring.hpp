// Greedy graph coloring — the race-avoidance mechanism of OP2/OPS.
//
// The paper (Sec. II-B) describes two layers of coloring: an MPI partition
// is broken into blocks which are colored by potential data races so blocks
// of one color can run on different OpenMP threads / CUDA thread blocks;
// inside a CUDA block, individual elements are colored again so scattered
// increments can be committed color by color. Both layers reduce to the
// conflict-coloring primitives here.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "apl/graph/csr.hpp"

namespace apl::graph {

/// Result of a coloring: per-vertex color in [0, num_colors).
struct Coloring {
  std::vector<index_t> color;
  index_t num_colors = 0;
};

/// First-fit greedy coloring of an explicit conflict graph.
Coloring greedy_color(const Csr& conflicts);

/// Colors `num_items` items so that no two items with the same color share
/// any *resource*: item i uses resources[i*arity .. i*arity+arity). Negative
/// resource ids are ignored (used for "direct / no conflict" slots).
/// This is the one-shot primitive behind both coloring layers: items are
/// loop elements and resources are indirectly-incremented set elements.
Coloring color_by_shared_resources(std::span<const index_t> resources,
                                   index_t arity, index_t num_items,
                                   index_t num_resources);

/// Verifies that no two items of equal color share a resource. Returns the
/// number of violations (0 == valid). Used by tests.
std::int64_t count_conflicts(const Coloring& c,
                             std::span<const index_t> resources,
                             index_t arity, index_t num_resources);

}  // namespace apl::graph
