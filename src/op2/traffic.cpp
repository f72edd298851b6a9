#include "op2/traffic.hpp"

#include <algorithm>
#include <vector>

#include "apl/simdev/device.hpp"
#include "op2/context.hpp"
#include "op2/plan.hpp"

namespace op2::detail {

using apl::exec::Access;

namespace {

/// Number of data-movement passes an access implies (read + write).
int passes(Access acc) {
  switch (acc) {
    case Access::kRead: return 1;
    case Access::kWrite: return 1;
    case Access::kInc:
    case Access::kRW: return 2;
    default: return 0;
  }
}

// Effective sustained bandwidth and launch cost of the simulated device.
// One set of constants for the whole library; named machines in apl::perf
// are used when projecting onto specific paper hardware.
constexpr double kDeviceBw = 160e9;
constexpr double kLaunchOverhead = 7e-6;

/// Synthetic, non-overlapping byte address of (dat, element, component).
std::uintptr_t address_of(const Context& ctx, const ArgInfo& a, index_t el,
                          index_t component) {
  const DatBase& dat = ctx.dat(a.dat_id);
  const std::uintptr_t base = (static_cast<std::uintptr_t>(a.dat_id) + 1)
                              << 40;
  if (dat.layout() == Layout::kAoS) {
    return base + (static_cast<std::uintptr_t>(el) * dat.dim() + component) *
                      dat.elem_bytes();
  }
  return base + (static_cast<std::uintptr_t>(component) * dat.set().capacity() +
                 el) *
                    dat.elem_bytes();
}

}  // namespace

void account_traffic(Context& ctx, const std::string& name, const Set& set,
                     const std::vector<ArgInfo>& args,
                     apl::LoopStats& stats) {
  const std::uint64_t n = static_cast<std::uint64_t>(set.core_size());
  stats.elements += n;
  stats.flops += ctx.flops_hint(name) * static_cast<double>(n);
  // Useful bytes: indirect arguments reaching the same dat through the
  // same map (e.g. both endpoints of an edge) touch the same unique data,
  // so they are accounted once, with the union of their access passes —
  // matching how the paper's Table I bandwidths are computed.
  std::vector<std::pair<index_t, index_t>> seen;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const ArgInfo& a = args[i];
    if (a.is_gbl) continue;
    const std::uint64_t entry =
        static_cast<std::uint64_t>(a.dim) * a.elem_bytes;
    if (!a.indirect()) {
      stats.bytes_direct += n * entry * passes(a.acc);
      continue;
    }
    const std::pair<index_t, index_t> key{a.dat_id, a.map_id};
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    seen.push_back(key);
    bool any_read = false, any_write = false;
    for (const ArgInfo& b : args) {
      if (b.is_gbl || b.dat_id != a.dat_id || b.map_id != a.map_id) continue;
      any_read |= reads(b.acc);
      any_write |= writes(b.acc);
    }
    const std::uint64_t unique =
        static_cast<std::uint64_t>(ctx.unique_targets(ctx.map(a.map_id)));
    const std::uint64_t bytes =
        unique * entry * ((any_read ? 1 : 0) + (any_write ? 1 : 0));
    if (any_write) {
      stats.bytes_scatter += bytes;
    } else {
      stats.bytes_gather += bytes;
    }
  }
}

void account_device(Context& ctx, const std::string& name, const Set& set,
                    const std::vector<ArgInfo>& args,
                    apl::LoopStats& stats) {
  const Plan& plan = ctx.plan_for({name, &set, args});
  apl::simdev::DeviceConfig cfg;
  apl::simdev::TransactionCounter tc(cfg);
  std::vector<std::uintptr_t> lanes;
  lanes.reserve(cfg.warp_size);

  // One warp-wide access per component keeps the model uniform across AoS
  // (consecutive components share a segment) and SoA (each component is a
  // separate coalesced stream) — the counter's segment dedup does the rest.
  auto count_warps = [&](const ArgInfo& a, index_t begin, index_t end,
                         auto&& element_of, bool is_write) {
    const DatBase& dat = ctx.dat(a.dat_id);
    for (index_t w = begin; w < end; w += cfg.warp_size) {
      const index_t wend = std::min<index_t>(end, w + cfg.warp_size);
      for (index_t d = 0; d < dat.dim(); ++d) {
        lanes.clear();
        for (index_t i = w; i < wend; ++i) {
          lanes.push_back(address_of(ctx, a, element_of(i), d));
        }
        tc.warp_access(lanes, dat.elem_bytes(), is_write);
      }
    }
  };

  std::vector<index_t> unique;
  std::vector<char> seen;
  for (const ArgInfo& a : args) {
    if (a.is_gbl) continue;
    const bool staged = ctx.staging() && a.indirect();
    if (!staged) {
      // Straight per-element access, one pass per read and per write.
      const Map* m = a.indirect() ? &ctx.map(a.map_id) : nullptr;
      auto element_of = [&](index_t e) {
        return m ? m->at(e, a.idx) : e;
      };
      if (reads(a.acc)) {
        count_warps(a, 0, set.core_size(), element_of, false);
      }
      if (writes(a.acc)) {
        count_warps(a, 0, set.core_size(), element_of, true);
      }
    } else {
      // Shared-memory staging: the block cooperatively loads each distinct
      // indirect element once (no load for pure increments, which start
      // from zero) and stores modified elements once at commit (increments
      // commit read-modify-write).
      const Map& m = ctx.map(a.map_id);
      seen.assign(ctx.dat(a.dat_id).set().size(), 0);
      for (index_t b = 0; b < plan.num_blocks; ++b) {
        unique.clear();
        for (index_t e = plan.block_offset[b]; e < plan.block_offset[b + 1];
             ++e) {
          const index_t el = m.at(e, a.idx);
          if (!seen[el]) {
            seen[el] = 1;
            unique.push_back(el);
          }
        }
        for (index_t el : unique) seen[el] = 0;
        // Cooperative load/store: consecutive threads move consecutive
        // words of the staged region, so the warp sees the flat word
        // stream of the unique elements' payloads (fully coalesced when
        // the numbering makes the unique elements contiguous).
        const DatBase& dat = ctx.dat(a.dat_id);
        lanes.clear();
        for (index_t el : unique) {
          for (index_t d = 0; d < dat.dim(); ++d) {
            lanes.push_back(address_of(ctx, a, el, d));
          }
        }
        auto cooperative_pass = [&](bool is_write) {
          for (std::size_t w = 0; w < lanes.size(); w += cfg.warp_size) {
            const std::size_t n =
                std::min<std::size_t>(cfg.warp_size, lanes.size() - w);
            tc.warp_access({lanes.data() + w, n}, dat.elem_bytes(), is_write);
          }
        };
        if (a.acc != Access::kInc && reads(a.acc)) cooperative_pass(false);
        if (writes(a.acc)) {
          if (a.acc == Access::kInc) cooperative_pass(false);
          cooperative_pass(true);
        }
      }
    }
  }

  stats.device_transactions += tc.transactions();
  stats.device_bytes += tc.bytes();
  stats.device_useful_bytes += tc.useful_bytes();
  stats.model_seconds +=
      static_cast<double>(tc.bytes()) / kDeviceBw +
      kLaunchOverhead * std::max<index_t>(1, plan.num_block_colors);
  stats.colors += static_cast<std::uint64_t>(plan.num_block_colors);
}

}  // namespace op2::detail
