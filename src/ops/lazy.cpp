#include "ops/lazy.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <span>
#include <type_traits>
#include <vector>

#include "apl/error.hpp"
#include "apl/io/plan_cache.hpp"
#include "apl/signature.hpp"
#include "apl/trace.hpp"
#include "ops/context.hpp"
#include "ops/par_loop.hpp"

namespace ops {

namespace {

/// Cache budget one tile's working set should fit in (a conservative
/// last-level-cache slice, as in the OPS tiling work).
constexpr std::size_t kTileCacheBudget = std::size_t{4} << 20;
constexpr index_t kMinTileRows = 4;

/// Modeled DRAM traffic of one loop executed eagerly (index arguments
/// carry no payload, so they stream nothing).
std::uint64_t streaming_bytes(const LoopRecord& rec) {
  return apl::chain::streaming_bytes(rec.infos, rec.range.points());
}

/// Per-dataset footprint accumulated over one tile: every stencil-extended
/// sub-range box the tile touched, and whether the dat is read / written.
/// Kept as a box list (not one bounding box) because halo loops access
/// disjoint strips at opposite grid edges — a bounding box of those spans
/// the whole dataset and would wildly overstate the tile's working set.
struct DatFootprint {
  std::vector<Range> boxes;
  bool read = false;
  bool written = false;
  std::uint64_t bytes_per_point = 0;
};

/// Exact number of grid points covered by the union of boxes, by
/// coordinate compression (box counts per tile are small).
std::uint64_t union_points(const std::vector<Range>& boxes) {
  std::array<std::vector<index_t>, kMaxDim> cuts;
  for (const Range& b : boxes) {
    for (int d = 0; d < kMaxDim; ++d) {
      cuts[d].push_back(b.lo[d]);
      cuts[d].push_back(b.hi[d]);
    }
  }
  for (auto& c : cuts) {
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
  }
  std::uint64_t total = 0;
  for (std::size_t i = 0; i + 1 < cuts[0].size(); ++i) {
    for (std::size_t j = 0; j + 1 < cuts[1].size(); ++j) {
      for (std::size_t k = 0; k + 1 < cuts[2].size(); ++k) {
        const index_t x = cuts[0][i], y = cuts[1][j], z = cuts[2][k];
        for (const Range& b : boxes) {
          if (x >= b.lo[0] && x < b.hi[0] && y >= b.lo[1] && y < b.hi[1] &&
              z >= b.lo[2] && z < b.hi[2]) {
            total += static_cast<std::uint64_t>(cuts[0][i + 1] - x) *
                     (cuts[1][j + 1] - y) * (cuts[2][k + 1] - z);
            break;
          }
        }
      }
    }
  }
  return total;
}

void accumulate_footprint(const Context& ctx, const LoopRecord& rec,
                          const Range& sub,
                          std::map<index_t, DatFootprint>& fp) {
  for (const ArgInfo& a : rec.infos) {
    if (a.is_gbl || a.is_idx) continue;
    const Stencil& st = ctx.stencil(a.stencil_id);
    Range ext = sub;
    for (int d = 0; d < kMaxDim; ++d) {
      ext.lo[d] += st.lo()[d];
      ext.hi[d] += st.hi()[d];
    }
    DatFootprint& f = fp[a.dat_id];
    if (f.boxes.empty()) {
      f.bytes_per_point = static_cast<std::uint64_t>(a.dim) * a.elem_bytes;
    }
    if (std::find_if(f.boxes.begin(), f.boxes.end(), [&](const Range& b) {
          return b.lo == ext.lo && b.hi == ext.hi;
        }) == f.boxes.end()) {
      f.boxes.push_back(ext);
    }
    f.read = f.read || reads(a.acc);
    f.written = f.written || writes(a.acc);
  }
}

std::uint64_t footprint_bytes(const std::map<index_t, DatFootprint>& fp) {
  std::uint64_t bytes = 0;
  for (const auto& [id, f] : fp) {
    const int passes = (f.read ? 1 : 0) + (f.written ? 1 : 0);
    bytes += union_points(f.boxes) * f.bytes_per_point * passes;
  }
  return bytes;
}

/// Combined bytes one grid row (along `dim`) of every distinct dataset in
/// `recs` occupies — the unit the cache budget is divided by.
std::uint64_t chain_row_bytes(const Context& ctx,
                              std::span<const LoopRecord* const> recs,
                              int dim) {
  std::map<index_t, std::uint64_t> by_dat;
  for (const LoopRecord* rec : recs) {
    for (const ArgInfo& a : rec->infos) {
      if (a.is_gbl || a.is_idx) continue;
      const DatBase& dat = ctx.dat(a.dat_id);
      const auto alloc = dat.alloc_size();
      const std::uint64_t per_row =
          dat.alloc_points() / std::max<index_t>(1, alloc[dim]) *
          static_cast<std::uint64_t>(a.dim) * a.elem_bytes;
      by_dat.emplace(a.dat_id, per_row);
    }
  }
  std::uint64_t total = 0;
  for (const auto& [id, b] : by_dat) total += b;
  return std::max<std::uint64_t>(1, total);
}

void run_record(const LoopRecord& rec, const Range& sub) {
  if (!sub.empty()) rec.run(sub);
}

std::vector<index_t> compute_skews_impl(const Context& ctx,
                                        std::span<const LoopRecord* const> recs,
                                        int dim) {
  const int L = static_cast<int>(recs.size());
  std::vector<index_t> skew(static_cast<std::size_t>(L), 0);
  for (int l = L - 2; l >= 0; --l) {
    // Ordering baseline: monotone non-increasing skews keep same-centre
    // write-after-write pairs in chain order across tiles.
    index_t s = skew[l + 1];
    for (const ArgInfo& a : recs[l]->infos) {
      if (a.is_gbl || a.is_idx) continue;
      for (int l2 = l + 1; l2 < L; ++l2) {
        for (const ArgInfo& b : recs[l2]->infos) {
          if (b.is_gbl || b.is_idx || b.dat_id != a.dat_id) continue;
          if (writes(a.acc) && reads(b.acc)) {
            // Flow: the later reader reaches up to +hi rows ahead of its
            // centre; this writer must stay that far ahead of it.
            s = std::max(s, skew[l2] + ctx.stencil(b.stencil_id).hi()[dim]);
          }
          if (reads(a.acc) && writes(b.acc)) {
            // Anti: this reader reaches lo (<= 0) rows behind its centre
            // into values the later writer will overwrite; it must stay
            // ahead of the writer's already-overwritten region.
            s = std::max(s, skew[l2] - ctx.stencil(a.stencil_id).lo()[dim]);
          }
        }
      }
    }
    skew[l] = s;
  }
  return skew;
}

// --- analysis: chain -> schedule -------------------------------------------

/// Plans one chain segment whose skews are already bounded: computes the
/// tile geometry, projects the tiled traffic with a dry pass over the
/// pure-metadata footprint model, and emits either a kTiledSegment op or
/// — when tiling would not pay — a kVerbatim fallback op.
void analyze_segment(const Context& ctx,
                     std::span<const LoopRecord* const> recs, int dim,
                     index_t tile_rows, std::int32_t group, std::int32_t first,
                     std::vector<ChainSchedule::Op>& out) {
  const int L = static_cast<int>(recs.size());
  std::vector<index_t> skews = compute_skews_impl(ctx, recs, dim);

  // Tile edges live in the skew-shifted coordinate u = row - skew[l]:
  // loop l executes rows [B_t + skew[l], B_t+1 + skew[l]) in tile t, so
  // the union of tiles covers every loop's range exactly once.
  index_t lo = std::numeric_limits<index_t>::max();
  index_t hi = std::numeric_limits<index_t>::lowest();
  for (int l = 0; l < L; ++l) {
    lo = std::min(lo, recs[l]->range.lo[dim] - skews[l]);
    hi = std::max(hi, recs[l]->range.hi[dim] - skews[l]);
  }
  index_t h = tile_rows;
  if (h <= 0) {
    // Auto height: what remains of the cache budget once the segment's
    // skew span (rows alive across loops in one tile) is paid for.
    const index_t budget_rows = static_cast<index_t>(std::min<std::uint64_t>(
        std::numeric_limits<index_t>::max(),
        kTileCacheBudget / chain_row_bytes(ctx, recs, dim)));
    h = std::max(kMinTileRows, budget_rows - skews[0]);
  }

  // Dry pass: the traffic model is pure metadata, so the segment's tiled
  // cost is projected at analysis time — execution never revisits it.
  std::uint64_t projected = 0, ntiles = 0;
  std::map<index_t, DatFootprint> fp;
  for (index_t b0 = lo; b0 < hi; b0 += h) {
    const index_t b1 = std::min(hi, b0 + h);
    fp.clear();
    bool any = false;
    for (int l = 0; l < L; ++l) {
      Range sub = recs[l]->range;
      sub.lo[dim] = std::max(sub.lo[dim], b0 + skews[l]);
      sub.hi[dim] = std::min(sub.hi[dim], b1 + skews[l]);
      if (sub.lo[dim] >= sub.hi[dim]) continue;
      accumulate_footprint(ctx, *recs[l], sub, fp);
      any = true;
    }
    if (any) {
      ++ntiles;
      projected += footprint_bytes(fp);
    }
  }

  std::uint64_t streaming = 0;
  for (const LoopRecord* rec : recs) streaming += streaming_bytes(*rec);

  ChainSchedule::Op op;
  op.group = group;
  op.first = first;
  op.count = L;
  op.dim = dim;
  if (tile_rows <= 0 && projected >= streaming) {
    // Tiling would not pay — typical for segments of edge-strip halo
    // loops whose eager traffic is tiny while their per-tile working sets
    // are not. Verbatim replay is always a valid execution of the
    // segment, so schedule it that way and charge the streaming model.
    op.kind = ChainSchedule::OpKind::kVerbatim;
    op.tiles = static_cast<std::uint64_t>(L);
    op.tiled_bytes = streaming;
  } else {
    op.kind = ChainSchedule::OpKind::kTiledSegment;
    op.lo = lo;
    op.hi = hi;
    op.h = h;
    op.tiles = ntiles;
    op.tiled_bytes = projected;
    op.skews = std::move(skews);
  }
  out.push_back(std::move(op));
}

/// Plans one per-block group of the chain.
///
/// Long chains are split into segments before tiling: skews only grow
/// along a chain, and once a segment's skew span outgrows the cache
/// budget, rows kept alive across its loops no longer fit — tiling past
/// that point only inflates the per-tile footprint. Each segment is tiled
/// independently (segments execute back-to-back, which is the plain chain
/// order, so the split never affects results).
void analyze_group(const Context& ctx,
                   std::span<const LoopRecord* const> recs, std::int32_t group,
                   std::vector<ChainSchedule::Op>& out) {
  const int L = static_cast<int>(recs.size());
  if (!ctx.tiling() || L == 1) {
    // Untiled: one verbatim op per record, charged its own full-range
    // footprint (what a single-loop "tile" streams).
    std::map<index_t, DatFootprint> fp;
    for (std::int32_t l = 0; l < L; ++l) {
      fp.clear();
      accumulate_footprint(ctx, *recs[l], recs[l]->range, fp);
      ChainSchedule::Op op;
      op.kind = ChainSchedule::OpKind::kVerbatim;
      op.group = group;
      op.first = l;
      op.count = 1;
      op.tiles = 1;
      op.tiled_bytes = footprint_bytes(fp);
      out.push_back(std::move(op));
    }
    return;
  }

  const int dim = recs.front()->block->ndim() - 1;

  if (ctx.tile_rows() > 0) {
    // Explicit tile height: tile the whole chain with it (tests use this
    // to force many tile crossings deterministically).
    analyze_segment(ctx, recs, dim, ctx.tile_rows(), group, 0, out);
    return;
  }

  // Whole-chain skews bound every segment's internal skews from above
  // (dropping later loops only relaxes constraints), so they are a safe
  // yardstick for cutting: keep a segment while its global-skew span
  // stays within the skew share of the cache budget.
  const std::vector<index_t> gskews = compute_skews_impl(ctx, recs, dim);
  const index_t budget_rows = static_cast<index_t>(std::min<std::uint64_t>(
      std::numeric_limits<index_t>::max(),
      kTileCacheBudget / chain_row_bytes(ctx, recs, dim)));
  // Keep the skew span a small fraction of the budget: per-tile footprint
  // is (h + span) rows, so traffic inflates by span/h — capping span at a
  // quarter of the budget keeps the inflation factor around 1.3 while the
  // remaining three quarters go to the tile height.
  const index_t skew_budget = std::max<index_t>(kMinTileRows, budget_rows / 4);

  int start = 0;
  for (int l = 1; l <= L; ++l) {
    if (l == L || gskews[start] - gskews[l] > skew_budget) {
      analyze_segment(ctx, recs.subspan(start, l - start), dim,
                      /*tile_rows=*/0, group, start, out);
      start = l;
    }
  }
}

// --- execution: schedule ops through a dispatch table ----------------------

// Each op is a run of steps the chain engine walks one at a time, with a
// cancel check between any two: a verbatim op steps through its records,
// a tiled segment through its tile edges.

std::size_t verbatim_steps(const ChainSchedule::Op& op) {
  return static_cast<std::size_t>(op.count);
}

void run_verbatim_step(const ChainSchedule& sched, const ChainSchedule::Op& op,
                       const std::vector<LoopRecord>& chain, std::size_t k) {
  const LoopRecord& rec =
      chain[sched.groups[op.group][op.first + static_cast<std::int32_t>(k)]];
  run_record(rec, rec.range);
}

std::size_t tiled_steps(const ChainSchedule::Op& op) {
  if (op.hi <= op.lo) return 0;
  return static_cast<std::size_t>(
      (static_cast<std::int64_t>(op.hi) - op.lo + op.h - 1) / op.h);
}

void run_tiled_step(const ChainSchedule& sched, const ChainSchedule::Op& op,
                    const std::vector<LoopRecord>& chain, std::size_t k) {
  const std::vector<std::int32_t>& g = sched.groups[op.group];
  const index_t b0 = op.lo + static_cast<index_t>(k) * op.h;
  const index_t b1 = std::min(op.hi, b0 + op.h);
  for (std::int32_t l = 0; l < op.count; ++l) {
    const LoopRecord& rec = chain[g[op.first + l]];
    Range sub = rec.range;
    sub.lo[op.dim] = std::max(sub.lo[op.dim], b0 + op.skews[l]);
    sub.hi[op.dim] = std::min(sub.hi[op.dim], b1 + op.skews[l]);
    if (sub.lo[op.dim] >= sub.hi[op.dim]) continue;
    run_record(rec, sub);
  }
}

/// The schedule ISA: per op kind, its step count and the executor of one
/// step. Executing a schedule is a walk over this table — no analysis
/// code is reachable from it, which is what lets a deserialized schedule
/// run as-is.
struct OpDispatchEntry {
  ChainSchedule::OpKind kind;
  const char* name;
  std::size_t (*steps)(const ChainSchedule::Op&);
  void (*run)(const ChainSchedule&, const ChainSchedule::Op&,
              const std::vector<LoopRecord>&, std::size_t);
};

constexpr OpDispatchEntry kOpDispatch[] = {
    {ChainSchedule::OpKind::kVerbatim, "verbatim", &verbatim_steps,
     &run_verbatim_step},
    {ChainSchedule::OpKind::kTiledSegment, "tiled_segment", &tiled_steps,
     &run_tiled_step},
};

const OpDispatchEntry* dispatch_for(ChainSchedule::OpKind kind) {
  for (const OpDispatchEntry& e : kOpDispatch) {
    if (e.kind == kind) return &e;
  }
  return nullptr;
}

// --- schedule IR (de)serialization -----------------------------------------

// Section tags of the "ops" Plan IR family (kChainIrVersion).
constexpr std::uint32_t kSecShape = 1;         ///< ChainShape
constexpr std::uint32_t kSecGroupSizes = 2;    ///< u32 per group
constexpr std::uint32_t kSecGroupRecords = 3;  ///< flattened record indices
constexpr std::uint32_t kSecOps = 4;           ///< OpRec array
constexpr std::uint32_t kSecSkews = 5;         ///< flattened skew values

struct ChainShape {
  std::uint64_t num_records = 0;
  std::uint64_t num_groups = 0;
  std::uint64_t num_ops = 0;
  std::uint64_t num_skews = 0;
};
static_assert(std::is_trivially_copyable_v<ChainShape>);

/// Fixed-size wire form of ChainSchedule::Op; skews live flattened in
/// their own section, addressed by (skew_offset, skew_count).
struct OpRec {
  std::uint32_t kind = 0;
  std::int32_t group = 0;
  std::int32_t first = 0;
  std::int32_t count = 0;
  std::int32_t dim = 0;
  index_t lo = 0;
  index_t hi = 0;
  index_t h = 0;
  std::uint64_t tiles = 0;
  std::uint64_t tiled_bytes = 0;
  std::uint64_t skew_offset = 0;
  std::uint64_t skew_count = 0;
};
static_assert(std::is_trivially_copyable_v<OpRec> && sizeof(OpRec) == 64);

}  // namespace

std::vector<std::uint8_t> encode_schedule(const ChainSchedule& sched) {
  std::vector<std::uint32_t> group_sizes;
  std::vector<std::int32_t> group_records;
  for (const auto& g : sched.groups) {
    group_sizes.push_back(static_cast<std::uint32_t>(g.size()));
    group_records.insert(group_records.end(), g.begin(), g.end());
  }
  std::vector<OpRec> ops;
  std::vector<index_t> skews;
  for (const ChainSchedule::Op& op : sched.ops) {
    OpRec r;
    r.kind = static_cast<std::uint32_t>(op.kind);
    r.group = op.group;
    r.first = op.first;
    r.count = op.count;
    r.dim = op.dim;
    r.lo = op.lo;
    r.hi = op.hi;
    r.h = op.h;
    r.tiles = op.tiles;
    r.tiled_bytes = op.tiled_bytes;
    r.skew_offset = skews.size();
    r.skew_count = op.skews.size();
    skews.insert(skews.end(), op.skews.begin(), op.skews.end());
    ops.push_back(r);
  }
  const ChainShape shape{group_records.size(), sched.groups.size(),
                         ops.size(), skews.size()};
  apl::plan_cache::BlobWriter w;
  w.section_of<ChainShape>(kSecShape, {&shape, 1});
  w.section_of<std::uint32_t>(kSecGroupSizes, group_sizes);
  w.section_of<std::int32_t>(kSecGroupRecords, group_records);
  w.section_of<OpRec>(kSecOps, ops);
  w.section_of<index_t>(kSecSkews, skews);
  return w.take();
}

std::optional<ChainSchedule> decode_schedule(
    std::span<const std::uint8_t> payload, const Context& ctx,
    const std::vector<LoopRecord>& chain, std::string* diag) {
  auto reject = [&](const std::string& why) {
    if (diag != nullptr) *diag = "chain-ir: " + why;
  };

  ChainShape shape;
  std::vector<std::uint32_t> group_sizes;
  std::vector<std::int32_t> group_records;
  std::vector<OpRec> ops;
  std::vector<index_t> skews;
  const apl::plan_cache::SectionHandler table[] = {
      {kSecShape,
       [&](std::span<const std::uint8_t> b) {
         apl::plan_cache::SectionReader r(b);
         return r.pod(&shape) && r.done();
       }},
      {kSecGroupSizes,
       [&](std::span<const std::uint8_t> b) {
         apl::plan_cache::SectionReader r(b);
         return r.rest(&group_sizes);
       }},
      {kSecGroupRecords,
       [&](std::span<const std::uint8_t> b) {
         apl::plan_cache::SectionReader r(b);
         return r.rest(&group_records);
       }},
      {kSecOps,
       [&](std::span<const std::uint8_t> b) {
         apl::plan_cache::SectionReader r(b);
         return r.rest(&ops);
       }},
      {kSecSkews,
       [&](std::span<const std::uint8_t> b) {
         apl::plan_cache::SectionReader r(b);
         return r.rest(&skews);
       }},
  };
  const std::string d = apl::plan_cache::decode_sections(payload, table);
  if (!d.empty()) {
    reject(d);
    return std::nullopt;
  }

  const std::size_t n = chain.size();
  if (shape.num_records != n) {
    reject("planned for " + std::to_string(shape.num_records) +
           " records, live chain has " + std::to_string(n));
    return std::nullopt;
  }
  if (group_sizes.size() != shape.num_groups ||
      group_records.size() != shape.num_records ||
      ops.size() != shape.num_ops || skews.size() != shape.num_skews) {
    reject("section sizes disagree with shape");
    return std::nullopt;
  }

  // Groups must partition the chain: every record exactly once, chain
  // order preserved within a group, one block per group.
  ChainSchedule sched;
  std::vector<char> seen(n, 0);
  std::size_t next = 0;
  for (std::uint32_t sz : group_sizes) {
    if (sz == 0 || next + sz > group_records.size()) {
      reject("empty or overflowing group");
      return std::nullopt;
    }
    std::vector<std::int32_t> g(group_records.begin() + next,
                                group_records.begin() + next + sz);
    next += sz;
    for (std::size_t l = 0; l < g.size(); ++l) {
      const std::int32_t idx = g[l];
      if (idx < 0 || static_cast<std::size_t>(idx) >= n || seen[idx]) {
        reject("group record index " + std::to_string(idx) +
               " out of range or repeated");
        return std::nullopt;
      }
      seen[idx] = 1;
      if (l > 0 && (idx <= g[l - 1] ||
                    chain[idx].block->id() != chain[g[0]].block->id())) {
        reject("group violates chain order or mixes blocks");
        return std::nullopt;
      }
    }
    sched.groups.push_back(std::move(g));
  }

  // Ops must cover each group contiguously, in order, with executable
  // geometry: a known kind, positive tile height, and per-record skews
  // that are monotone non-increasing (the correctness invariant of the
  // skewed tiling — see the file header of ops/lazy.hpp).
  std::vector<std::int32_t> covered(sched.groups.size(), 0);
  for (const OpRec& r : ops) {
    ChainSchedule::Op op;
    op.kind = static_cast<ChainSchedule::OpKind>(r.kind);
    if (dispatch_for(op.kind) == nullptr) {
      reject("unknown op kind " + std::to_string(r.kind));
      return std::nullopt;
    }
    if (r.group < 0 ||
        static_cast<std::size_t>(r.group) >= sched.groups.size() ||
        r.count <= 0 || r.first != covered[r.group] ||
        r.first + r.count >
            static_cast<std::int32_t>(sched.groups[r.group].size())) {
      reject("ops do not cover group " + std::to_string(r.group) +
             " contiguously");
      return std::nullopt;
    }
    covered[r.group] += r.count;
    op.group = r.group;
    op.first = r.first;
    op.count = r.count;
    op.dim = r.dim;
    op.lo = r.lo;
    op.hi = r.hi;
    op.h = r.h;
    op.tiles = r.tiles;
    op.tiled_bytes = r.tiled_bytes;
    if (op.kind == ChainSchedule::OpKind::kTiledSegment) {
      const Block& blk = ctx.block(chain[sched.groups[r.group][0]].block->id());
      if (r.dim < 0 || r.dim >= blk.ndim() || r.h <= 0 || r.lo > r.hi) {
        reject("tiled segment has invalid geometry");
        return std::nullopt;
      }
      if (r.skew_count != static_cast<std::uint64_t>(r.count) ||
          r.skew_offset + r.skew_count > skews.size()) {
        reject("tiled segment skew table out of range");
        return std::nullopt;
      }
      const auto s0 = static_cast<std::ptrdiff_t>(r.skew_offset);
      op.skews.assign(skews.begin() + s0,
                      skews.begin() + s0 +
                          static_cast<std::ptrdiff_t>(r.skew_count));
      for (std::size_t l = 1; l < op.skews.size(); ++l) {
        if (op.skews[l] > op.skews[l - 1]) {
          reject("tiled segment skews increase along the chain");
          return std::nullopt;
        }
      }
    }
    sched.ops.push_back(std::move(op));
  }
  for (std::size_t g = 0; g < sched.groups.size(); ++g) {
    if (covered[g] != static_cast<std::int32_t>(sched.groups[g].size())) {
      reject("group " + std::to_string(g) + " left partially scheduled");
      return std::nullopt;
    }
  }
  return sched;
}

std::vector<index_t> compute_skews(const Context& ctx,
                                   const std::vector<LoopRecord>& chain,
                                   int dim) {
  std::vector<const LoopRecord*> recs;
  recs.reserve(chain.size());
  for (const LoopRecord& rec : chain) recs.push_back(&rec);
  return compute_skews_impl(ctx, recs, dim);
}

// --- signatures + plan_for -------------------------------------------------

namespace {

/// Loop-program signature of a queued chain: which block each record
/// iterates, its range, and each argument's shape (stencil, access,
/// payload). Record *names* stay out: structurally identical chains share
/// one cache entry, the name is a label.
std::uint64_t chain_program_hash(const std::vector<LoopRecord>& chain) {
  apl::signature::Hasher h;
  h.pod(static_cast<std::uint64_t>(chain.size()));
  for (const LoopRecord& rec : chain) {
    h.pod(rec.block->id());
    for (int d = 0; d < kMaxDim; ++d) {
      h.pod(rec.range.lo[d]);
      h.pod(rec.range.hi[d]);
    }
    h.pod(static_cast<std::uint64_t>(rec.infos.size()));
    for (const ArgInfo& a : rec.infos) {
      h.pod(a.dat_id);
      h.pod(a.stencil_id);
      h.pod(static_cast<std::uint32_t>(a.acc));
      h.pod(a.dim);
      h.pod(static_cast<std::uint64_t>(a.elem_bytes));
      h.pod(static_cast<std::uint8_t>(a.is_gbl ? 1 : 0));
      h.pod(static_cast<std::uint8_t>(a.is_idx ? 1 : 0));
    }
  }
  return h.value();
}

/// Everything else the analysis reads: the tiling switches and the
/// analysis constants (baked into the hash so retuning the budget
/// invalidates cached schedules without an IR version bump).
std::uint64_t chain_config_hash(const Context& ctx) {
  apl::signature::Hasher h;
  h.pod(static_cast<std::uint8_t>(ctx.tiling() ? 1 : 0));
  h.pod(ctx.tile_rows());
  h.pod(static_cast<std::uint64_t>(kTileCacheBudget));
  h.pod(kMinTileRows);
  return h.value();
}

}  // namespace

std::uint64_t Context::topology_hash() const {
  if (topology_hash_) return *topology_hash_;
  apl::signature::Hasher h;
  h.pod(static_cast<std::uint64_t>(blocks_.size()));
  for (const auto& b : blocks_) {
    h.str(b->name());
    h.pod(static_cast<std::int32_t>(b->ndim()));
  }
  h.pod(static_cast<std::uint64_t>(stencils_.size()));
  for (const auto& st : stencils_) {
    h.pod(static_cast<std::int32_t>(st->ndim()));
    h.pod(static_cast<std::uint64_t>(st->points().size()));
    for (const auto& p : st->points()) {
      for (int d = 0; d < kMaxDim; ++d) h.pod(static_cast<std::int32_t>(p[d]));
    }
  }
  h.pod(static_cast<std::uint64_t>(dats_.size()));
  for (const auto& dat : dats_) {
    h.str(dat->name());
    h.pod(dat->block().id());
    h.pod(dat->dim());
    h.pod(static_cast<std::uint64_t>(dat->elem_bytes()));
    for (int d = 0; d < kMaxDim; ++d) {
      h.pod(dat->size()[d]);
      h.pod(dat->d_m()[d]);
      h.pod(dat->d_p()[d]);
    }
  }
  topology_hash_ = h.value();
  return *topology_hash_;
}

const ChainSchedule& Context::plan_for(const PlanRequest& req) {
  apl::require(req.chain != nullptr, "plan_for: request names no chain");
  const std::vector<LoopRecord>& chain = *req.chain;
  apl::plan_cache::Key ck;
  ck.kind = "ops";
  ck.topology = topology_hash();
  ck.program = chain_program_hash(chain);
  ck.config = chain_config_hash(*this);
  ck.version = kChainIrVersion;
  ck.label = req.label;
  return memo_plan(
      ck, chain.size(),
      [&](const std::vector<std::uint8_t>& payload, std::string* diag) {
        return decode_schedule(payload, *this, chain, diag);
      },
      [&](apl::trace::Span&) { return detail::analyze_chain(*this, chain); },
      encode_schedule, [](const ChainSchedule&) {});
}

namespace detail {

ChainSchedule analyze_chain(const Context& ctx,
                            const std::vector<LoopRecord>& chain) {
  ChainSchedule sched;
  // Group by block, preserving chain order within each group. Datasets
  // never span blocks and global reductions flush immediately, so loops
  // of different blocks in one chain are independent.
  std::vector<index_t> block_order;
  std::map<index_t, std::vector<std::int32_t>> groups;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const index_t b = chain[i].block->id();
    if (!groups.count(b)) block_order.push_back(b);
    groups[b].push_back(static_cast<std::int32_t>(i));
  }
  for (const index_t b : block_order) {
    sched.groups.push_back(std::move(groups[b]));
  }

  for (std::size_t g = 0; g < sched.groups.size(); ++g) {
    std::vector<const LoopRecord*> recs;
    recs.reserve(sched.groups[g].size());
    for (const std::int32_t idx : sched.groups[g]) {
      recs.push_back(&chain[idx]);
    }
    analyze_group(ctx, recs, static_cast<std::int32_t>(g), sched.ops);
  }
  return sched;
}

ChainSteps::ChainSteps(const ChainSchedule& sched,
                       const std::vector<LoopRecord>& chain)
    : sched_(sched), chain_(chain) {
  first_.reserve(sched.ops.size() + 1);
  std::size_t total = 0;
  for (const ChainSchedule::Op& op : sched.ops) {
    const OpDispatchEntry* entry = dispatch_for(op.kind);
    apl::require(entry != nullptr, "chain schedule: unknown op kind ",
                 static_cast<std::uint32_t>(op.kind));
    first_.push_back(total);
    total += entry->steps(op);
  }
  first_.push_back(total);
}

void ChainSteps::run(std::size_t step, apl::chain::Stats& /*stats*/) const {
  // The op holding `step`: the last one starting at or before it (ops
  // with no steps share their successor's start and are skipped).
  const auto op = static_cast<std::size_t>(
      std::upper_bound(first_.begin(), first_.end(), step) - first_.begin() -
      1);
  const ChainSchedule::Op& o = sched_.ops[op];
  dispatch_for(o.kind)->run(sched_, o, chain_, step - first_[op]);
}

void flush_pending(Context& ctx) { ctx.flush(); }

}  // namespace detail

bool Context::begin_chain(const ChainSchedule& sched,
                          const std::vector<LoopRecord>& chain,
                          apl::chain::Stats& stats, apl::trace::Span& span) {
  for (const LoopRecord& rec : chain) stats.eager_bytes += streaming_bytes(rec);
  std::uint64_t tiles = 0;
  for (const ChainSchedule::Op& op : sched.ops) {
    tiles += op.tiles;
    stats.tiled_bytes += op.tiled_bytes;
  }
  stats.tiles += tiles;
  span.set_index(static_cast<std::int64_t>(tiles));
  return false;
}

detail::ChainSteps Context::chain_steps(const ChainSchedule& sched,
                                        const std::vector<LoopRecord>& chain,
                                        bool /*rounds*/) {
  return detail::ChainSteps(sched, chain);
}

/// Per-loop profile accounting over the full recorded ranges — the same
/// useful-byte totals and call counts eager execution records, so the
/// perf-model benches see identical inputs either way (the record
/// executor accumulates only wall time, one slice per tile).
void Context::account_chain(const ChainSchedule& sched,
                            const std::vector<LoopRecord>& chain) {
  for (const auto& group : sched.groups) {
    for (const std::int32_t idx : group) {
      const LoopRecord& rec = chain[idx];
      apl::LoopStats& st = profile().stats(rec.name);
      ++st.calls;
      detail::account(*this, rec.name, rec.range, rec.infos, st);
    }
  }
}

}  // namespace ops
