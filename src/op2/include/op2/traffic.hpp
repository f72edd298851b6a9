// Per-loop traffic accounting.
//
// From the access descriptors alone, the library knows exactly how many
// useful bytes a loop moves and through which access pattern — direct
// streaming, gathers (indirect reads) or scatters (indirect updates). This
// is the byte count the paper's Table I divides by runtime, and the input
// to the machine models that project the GPU/Phi/cluster results.
#pragma once

#include <string>
#include <vector>

#include "apl/profile.hpp"
#include "op2/arg.hpp"

namespace op2 {

class Context;

namespace detail {

/// Adds the loop's useful bytes (split by class), flops (from the hint) and
/// element count to `stats`. Indirect arguments count each *distinct*
/// target element once, modelling perfect reuse of gathered data.
void account_traffic(Context& ctx, const std::string& name, const Set& set,
                     const std::vector<ArgInfo>& args, apl::LoopStats& stats);

/// cudasim only: replays the loop's access streams through the warp
/// transaction model (apl::simdev), honouring layout and staging, and
/// adds its transactions, moved and useful bytes and model time to
/// `stats`.
void account_device(Context& ctx, const std::string& name, const Set& set,
                    const std::vector<ArgInfo>& args, apl::LoopStats& stats);

}  // namespace detail

}  // namespace op2
