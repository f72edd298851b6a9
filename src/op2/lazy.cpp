// Lazy loop-chain engine for OP2: the sparse-tiling inspector, the Plan IR
// codec for tile schedules, the race audit, and the step table the shared
// chain engine (apl/chain.hpp) walks — records, tiles or color rounds.
// See op2/lazy.hpp for the algorithm and the fusion legality rule.

#include "op2/lazy.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>

#include "apl/error.hpp"
#include "apl/io/plan_cache.hpp"
#include "apl/signature.hpp"
#include "apl/thread_pool.hpp"
#include "apl/trace.hpp"
#include "op2/context.hpp"
#include "op2/plan.hpp"
#include "op2/traffic.hpp"

namespace op2 {

namespace {

/// The fused working set (one tile's slice of every dat the chain
/// touches) should fit in the outer cache level; auto tile sizing divides
/// this budget by the chain's per-element footprint.
constexpr std::uint64_t kTileCacheBudget = 256u * 1024u;
/// Below this, per-tile overhead dominates any reuse win.
constexpr index_t kMinTileElems = 64;

/// Eager traffic model for chains that never reach the exact stamp walk
/// (unfused early-outs): every loop streams each argument once per pass.
std::uint64_t streaming_bytes(const std::vector<LoopRecord>& chain) {
  std::uint64_t bytes = 0;
  for (const LoopRecord& rec : chain) {
    bytes += apl::chain::streaming_bytes(rec.infos,
                                         static_cast<std::uint64_t>(rec.n));
  }
  return bytes;
}

/// Per-dat inspector state, sized to the dat's set. `last_w`/`last_r`
/// carry the wavefront constraints (latest tile that wrote / read each
/// entry under the schedule built so far); the stamp arrays dedup the
/// traffic projection (one count per (entry, loop) eagerly, one per
/// (entry, tile) fused); the level arrays drive the layered coloring.
/// Each walk sizes only the arrays it uses (the audit needs no stamps).
struct DatState {
  std::size_t n = 0;  ///< entries in the dat's set
  std::vector<index_t> last_w, last_r;
  std::vector<index_t> eager_r, eager_w;  // stamp: last loop that counted
  std::vector<index_t> fused_r, fused_w;  // stamp: last tile that counted
  std::vector<std::int32_t> wlev, rlev;  // highest color that wrote/read entry
};

/// One non-global argument resolved once per loop, so the per-element
/// walks index raw arrays instead of looking up the dat state and the map
/// for every (element, argument) pair — the idiom SeqArgState uses in
/// op2/par_loop.hpp.
struct ArgView {
  DatState* st;
  const index_t* table;  ///< nullptr for direct args
  index_t arity, idx;
  bool rd, wr;
  std::uint64_t entry_bytes;
  index_t dat_id;  ///< for diagnostics only

  std::size_t entry(index_t e) const {
    return static_cast<std::size_t>(
        table != nullptr ? table[static_cast<std::size_t>(e) * arity + idx]
                         : e);
  }
};

/// Per-dat state keyed by dat id (node addresses are stable, so views may
/// point into it), and each loop's resolved arguments.
using DatStates = std::map<index_t, DatState>;
using ChainViews = std::vector<std::vector<ArgView>>;

ChainViews resolve_chain(const Context& ctx,
                         const std::vector<LoopRecord>& chain,
                         DatStates& states) {
  ChainViews views(chain.size());
  for (std::size_t l = 0; l < chain.size(); ++l) {
    for (const ArgInfo& a : chain[l].infos) {
      if (a.is_gbl) continue;
      DatState& st = states[a.dat_id];
      st.n = static_cast<std::size_t>(ctx.dat(a.dat_id).set().size());
      const Map* m = a.indirect() ? &ctx.map(a.map_id) : nullptr;
      views[l].push_back(ArgView{
          &st, m != nullptr ? m->table().data() : nullptr,
          m != nullptr ? m->arity() : 0, a.idx, reads(a.acc), writes(a.acc),
          static_cast<std::uint64_t>(a.dim) * a.elem_bytes, a.dat_id});
    }
  }
  return views;
}

TileSchedule unfused_schedule(const std::vector<LoopRecord>& chain) {
  TileSchedule s;
  s.fused = false;
  s.ntiles = 0;
  s.ncolors = 0;
  s.loop_n.reserve(chain.size());
  for (const LoopRecord& rec : chain) s.loop_n.push_back(rec.n);
  s.eager_bytes = streaming_bytes(chain);
  s.fused_bytes = s.eager_bytes;
  return s;
}

index_t auto_tile_elems(const Context& ctx,
                        const std::vector<LoopRecord>& chain) {
  std::uint64_t per_elem = 0;
  std::set<index_t> seen;
  for (const LoopRecord& rec : chain) {
    for (const ArgInfo& a : rec.infos) {
      if (a.is_gbl || !seen.insert(a.dat_id).second) continue;
      per_elem += ctx.dat(a.dat_id).entry_bytes();
    }
  }
  per_elem = std::max<std::uint64_t>(per_elem, 1);
  const std::uint64_t elems = kTileCacheBudget / per_elem;
  const auto cap =
      static_cast<std::uint64_t>(std::numeric_limits<index_t>::max());
  return std::max(kMinTileElems, static_cast<index_t>(std::min(elems, cap)));
}

/// Layered (wavefront-level) conflict-free coloring over the finished
/// schedule. Two tiles conflict when they touch a common entry and at
/// least one side writes it; a tile's color is one more than the highest
/// color among the earlier tiles it conflicts with. That buys two
/// properties at once:
///
///   * conflict-free — same-color tiles are mutually independent (a
///     conflicting earlier tile always has a strictly lower color);
///   * order-preserving — along every dependence the color strictly
///     increases, so running colors as ascending *rounds* (same-color
///     tiles concurrently, ascending tile index within a round, barrier
///     between rounds) executes every dependence source before its sink,
///     in the same relative order as the serial ascending-tile walk.
///
/// The second property is what makes the threaded round executor
/// bitwise-identical to the serial one; a minimal greedy coloring is
/// conflict-free but NOT order-preserving (a low color can be reused by
/// a tile that depends on a higher-colored predecessor), so it could
/// only ever be raced against, never replayed exactly.
void color_tiles(const ChainViews& views, DatStates& states, TileSchedule& s) {
  const index_t T = s.ntiles;
  for (auto& [id, st] : states) {
    st.wlev.assign(st.n, -1);
    st.rlev.assign(st.n, -1);
  }
  s.colors.assign(static_cast<std::size_t>(T), 0);
  std::int32_t ncolors = 1;
  for (index_t t = 0; t < T; ++t) {
    // Check phase: the level every conflict with earlier tiles forces.
    std::int32_t level = 0;
    for (std::size_t l = 0; l < views.size(); ++l) {
      for (index_t e = s.bounds[l][t]; e < s.bounds[l][t + 1]; ++e) {
        for (const ArgView& v : views[l]) {
          const std::size_t x = v.entry(e);
          level = std::max(level, v.st->wlev[x] + 1);
          if (v.wr) level = std::max(level, v.st->rlev[x] + 1);
        }
      }
    }
    // Commit phase: this tile's accesses constrain later tiles. Separate
    // from the check so a tile's own earlier loops never push its later
    // loops to a higher level (intra-tile chain order handles those).
    for (std::size_t l = 0; l < views.size(); ++l) {
      for (index_t e = s.bounds[l][t]; e < s.bounds[l][t + 1]; ++e) {
        for (const ArgView& v : views[l]) {
          const std::size_t x = v.entry(e);
          if (v.rd) v.st->rlev[x] = std::max(v.st->rlev[x], level);
          if (v.wr) v.st->wlev[x] = std::max(v.st->wlev[x], level);
        }
      }
    }
    s.colors[t] = level;
    ncolors = std::max(ncolors, level + 1);
  }
#ifdef APL_MUTATE_OP2_COLOR_MERGE
  // Mutation: illegally merge the last color into the previous one, so
  // one round holds conflicting tiles. The kPlan audit must reject the
  // schedule (the merged pair's colors no longer increase across their
  // conflict) and TSan must flag the resulting write races when the
  // merged round is actually raced by a team.
  if (ncolors >= 2) {
    for (std::int32_t& c : s.colors) {
      if (c == ncolors - 1) c = ncolors - 2;
    }
    --ncolors;
  }
#endif
  s.ncolors = ncolors;
}

// --- IR codec --------------------------------------------------------------

// Section tags for the "op2chain" IR kind. The "op2" colored-plan kind
// owns tags below 16; keep the ranges disjoint so a blob dispatched to
// the wrong decoder fails loudly on an unknown tag.
constexpr std::uint32_t kSecChainShape = 16;
constexpr std::uint32_t kSecLoopSizes = 17;
constexpr std::uint32_t kSecBounds = 18;
constexpr std::uint32_t kSecColors = 19;

struct ChainShapeRec {
  std::uint64_t num_loops = 0;
  std::int64_t ntiles = 0;
  std::int32_t ncolors = 0;
  std::uint32_t fused = 0;
  std::uint64_t eager_bytes = 0;
  std::uint64_t fused_bytes = 0;
};
static_assert(std::is_trivially_copyable_v<ChainShapeRec> &&
                  sizeof(ChainShapeRec) == 40,
              "ChainShapeRec is serialized by memcpy; keep it packed");

std::uint64_t chain_program_hash(const std::vector<LoopRecord>& chain) {
  apl::signature::Hasher h;
  h.pod(static_cast<std::uint64_t>(chain.size()));
  for (const LoopRecord& rec : chain) {
    // Loop names are deliberately excluded: the schedule depends on the
    // access structure, not on what the loops are called.
    h.pod(rec.set->id());
    h.pod(rec.n);
    h.pod(static_cast<std::uint64_t>(rec.infos.size()));
    for (const ArgInfo& a : rec.infos) {
      h.pod(a.dat_id);
      h.pod(a.map_id);
      h.pod(a.idx);
      h.pod(static_cast<std::uint32_t>(a.acc));
      h.pod(a.dim);
      h.pod(static_cast<std::uint64_t>(a.elem_bytes));
      h.pod(static_cast<std::uint8_t>(a.is_gbl ? 1 : 0));
    }
  }
  return h.value();
}

std::uint64_t chain_config_hash(const Context& ctx) {
  apl::signature::Hasher h;
  h.pod(static_cast<std::uint8_t>(ctx.tiling() ? 1 : 0));
  h.pod(ctx.tile_size());
  h.pod(static_cast<std::uint32_t>(ctx.backend()));
  h.pod(kTileCacheBudget);
  h.pod(kMinTileElems);
  return h.value();
}

// --- steps -----------------------------------------------------------------

void run_one_loop_slice(const LoopRecord& rec, index_t lo, index_t hi,
                        index_t t) {
  if (lo < hi) rec.run_slice(lo, hi, t);
}

void run_tile(const TileSchedule& sched, const std::vector<LoopRecord>& chain,
              index_t t) {
#ifdef APL_MUTATE_OP2_TILE_STALE
  // Mutation: run the final tile's loops in reverse chain order, so a
  // consumer reads its producer's fused intermediate before it is
  // written — the oracle must catch the stale value.
  if (t == sched.ntiles - 1) {
    for (std::size_t l = chain.size(); l-- > 0;) {
      run_one_loop_slice(chain[l], sched.bounds[l][t], sched.bounds[l][t + 1],
                         t);
    }
    return;
  }
#endif
  for (std::size_t l = 0; l < chain.size(); ++l) {
    index_t lo = sched.bounds[l][t];
    index_t hi = sched.bounds[l][t + 1];
#ifdef APL_MUTATE_OP2_TILE_DROP_EDGE
    // Mutation: drop the element just before every interior tile
    // boundary — it then executes in no tile at all.
    if (t + 1 < sched.ntiles && hi > lo) --hi;
#endif
    run_one_loop_slice(chain[l], lo, hi, t);
  }
}

/// Partitions tiles by color, ascending tile index within each round —
/// the intra-round order every member chunk preserves, so a team of one
/// replays the serial walk exactly.
std::vector<std::vector<index_t>> round_tiles(const TileSchedule& sched) {
  std::vector<std::vector<index_t>> rounds(
      static_cast<std::size_t>(sched.ncolors));
  for (index_t t = 0; t < sched.ntiles; ++t) {
    rounds[static_cast<std::size_t>(sched.colors[t])].push_back(t);
  }
  return rounds;
}

using detail::ChainSteps;

/// An unfused (verbatim) schedule replays record `i` through the full
/// eager backend dispatch.
void run_record_step(const ChainSteps& s, std::size_t i, apl::chain::Stats&) {
  s.chain[i].run_full();
}

/// The serial walk: tile `i`, its loops in chain order.
void run_tile_step(const ChainSteps& s, std::size_t i, apl::chain::Stats&) {
  run_tile(s.sched, s.chain, static_cast<index_t>(i));
}

/// The threaded executor: color round `c`'s tiles distributed over the
/// context's tile team (contiguous chunks in ascending tile order), the
/// run_team barrier closing the round. Legality rests on the layered
/// coloring (see color_tiles): every conflict crosses a round boundary,
/// so rounds are data-race-free internally, and the barrier orders them —
/// bitwise identity with the serial walk follows. A reduction writes only
/// its tile's own partials, so it needs neither a lock nor a fixed member
/// order, and it folds once after the walk. The engine checks the
/// cancel token between rounds, always on the submitting thread, so no
/// round is ever half-started. Should the team be disabled by the time a
/// parked chain resumes, rounds degrade to serial execution in the same
/// order — still exact.
void run_round_step(const ChainSteps& s, std::size_t c,
                    apl::chain::Stats& stats) {
  const std::vector<index_t>& tiles = s.rounds[c];
  if (tiles.empty()) return;  // decoded schedules may have color gaps
  apl::trace::Span round_span(apl::trace::kColor, "chain_round:op2chain");
  round_span.set_index(static_cast<std::int64_t>(c));
  round_span.set_elements(tiles.size());
  ++stats.rounds;
  if (s.ctx.tile_team_enabled()) {
    s.ctx.tile_team().parallel_for(
        tiles.size(), [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            run_tile(s.sched, s.chain, tiles[i]);
          }
        });
  } else {
    for (const index_t t : tiles) run_tile(s.sched, s.chain, t);
  }
}

}  // namespace

// --- codec (public) --------------------------------------------------------

std::vector<std::uint8_t> encode_tile_schedule(const TileSchedule& s) {
  ChainShapeRec shape;
  shape.num_loops = s.loop_n.size();
  shape.ntiles = s.ntiles;
  shape.ncolors = s.ncolors;
  shape.fused = s.fused ? 1 : 0;
  shape.eager_bytes = s.eager_bytes;
  shape.fused_bytes = s.fused_bytes;

  std::vector<index_t> flat;
  if (s.fused) {
    flat.reserve(s.loop_n.size() * (static_cast<std::size_t>(s.ntiles) + 1));
    for (const auto& b : s.bounds) flat.insert(flat.end(), b.begin(), b.end());
  }

  apl::plan_cache::BlobWriter w;
  w.section_of<ChainShapeRec>(kSecChainShape, std::span{&shape, 1});
  w.section_of<index_t>(kSecLoopSizes, std::span{s.loop_n});
  w.section_of<index_t>(kSecBounds, std::span{flat});
  w.section_of<std::int32_t>(kSecColors, std::span{s.colors});
  return w.take();
}

std::optional<TileSchedule> decode_tile_schedule(
    std::span<const std::uint8_t> payload,
    const std::vector<LoopRecord>& chain, std::string* diag) {
  auto reject = [&](const std::string& why) {
    if (diag != nullptr) *diag = "op2chain-ir: " + why;
    return std::nullopt;
  };

  ChainShapeRec shape;
  bool have_shape = false;
  std::vector<index_t> loop_n;
  std::vector<index_t> flat;
  std::vector<std::int32_t> colors;
  const apl::plan_cache::SectionHandler table[] = {
      {kSecChainShape,
       [&](std::span<const std::uint8_t> b) {
         apl::plan_cache::SectionReader r(b);
         have_shape = r.pod(&shape) && r.done();
         return have_shape;
       }},
      {kSecLoopSizes,
       [&](std::span<const std::uint8_t> b) {
         apl::plan_cache::SectionReader r(b);
         return r.rest(&loop_n);
       }},
      {kSecBounds,
       [&](std::span<const std::uint8_t> b) {
         apl::plan_cache::SectionReader r(b);
         return r.rest(&flat);
       }},
      {kSecColors,
       [&](std::span<const std::uint8_t> b) {
         apl::plan_cache::SectionReader r(b);
         return r.rest(&colors);
       }},
  };
  const std::string err = apl::plan_cache::decode_sections(payload, table);
  if (!err.empty()) return reject(err);
  if (!have_shape) return reject("missing chain shape section");

  if (shape.num_loops != chain.size() || loop_n.size() != chain.size()) {
    return reject("planned for a different chain length");
  }
  for (std::size_t l = 0; l < chain.size(); ++l) {
    if (loop_n[l] != chain[l].n) {
      return reject("loop " + std::to_string(l) + " planned for " +
                    std::to_string(loop_n[l]) + " elements, live chain has " +
                    std::to_string(chain[l].n));
    }
  }

  TileSchedule s;
  s.fused = shape.fused != 0;
  s.ncolors = shape.ncolors;
  s.loop_n = std::move(loop_n);
  s.eager_bytes = shape.eager_bytes;
  s.fused_bytes = shape.fused_bytes;
  if (!s.fused) {
    if (!flat.empty() || !colors.empty()) {
      return reject("verbatim schedule carries tile sections");
    }
    s.ntiles = 0;
    return s;
  }

  if (shape.ntiles < 1 ||
      shape.ntiles > std::numeric_limits<index_t>::max()) {
    return reject("tile count out of range");
  }
  s.ntiles = static_cast<index_t>(shape.ntiles);
  const std::size_t per_loop = static_cast<std::size_t>(s.ntiles) + 1;
  if (flat.size() != chain.size() * per_loop) {
    return reject("slice-boundary table has wrong size");
  }
  if (colors.size() != static_cast<std::size_t>(s.ntiles)) {
    return reject("color table has wrong size");
  }
  if (s.ncolors < 1) return reject("color count out of range");
  for (const std::int32_t c : colors) {
    if (c < 0 || c >= s.ncolors) return reject("tile color out of range");
  }
  s.bounds.resize(chain.size());
  for (std::size_t l = 0; l < chain.size(); ++l) {
    auto& b = s.bounds[l];
    b.assign(flat.begin() + static_cast<std::ptrdiff_t>(l * per_loop),
             flat.begin() + static_cast<std::ptrdiff_t>((l + 1) * per_loop));
    if (b.front() != 0 || b.back() != chain[l].n) {
      return reject("loop " + std::to_string(l) +
                    " slices do not cover [0, n)");
    }
    for (std::size_t t = 1; t < b.size(); ++t) {
      if (b[t] < b[t - 1]) {
        return reject("loop " + std::to_string(l) +
                      " slice boundaries not monotone");
      }
    }
  }
  s.colors = std::move(colors);
  return s;
}

// --- audit (public) --------------------------------------------------------

std::string audit_tile_schedule(const Context& ctx,
                                const std::vector<LoopRecord>& chain,
                                const TileSchedule& sched) {
  if (sched.loop_n.size() != chain.size()) {
    return "schedule covers " + std::to_string(sched.loop_n.size()) +
           " loops, chain has " + std::to_string(chain.size());
  }
  for (std::size_t l = 0; l < chain.size(); ++l) {
    if (sched.loop_n[l] != chain[l].n) {
      return "loop '" + chain[l].name + "' planned for " +
             std::to_string(sched.loop_n[l]) + " elements, live loop has " +
             std::to_string(chain[l].n);
    }
  }
  if (!sched.fused) return "";

  // Structure: contiguous monotone slices covering [0, n) exactly.
  for (std::size_t l = 0; l < chain.size(); ++l) {
    const auto& b = sched.bounds[l];
    if (b.size() != static_cast<std::size_t>(sched.ntiles) + 1 ||
        b.front() != 0 || b.back() != chain[l].n) {
      return "loop '" + chain[l].name + "' slices do not cover [0, " +
             std::to_string(chain[l].n) + ")";
    }
    for (std::size_t t = 1; t < b.size(); ++t) {
      if (b[t] < b[t - 1]) {
        return "loop '" + chain[l].name + "' slice boundary " +
               std::to_string(t) + " not monotone";
      }
    }
  }

  // Dependence preservation: replay the chain in schedule order and check
  // every cross-loop dependence lands in a same-or-later tile. This is
  // exactly the wavefront constraint the inspector enforced, recomputed
  // from the maps — a decoded-from-disk schedule gets the same proof as a
  // fresh one.
  DatStates states;
  const ChainViews views = resolve_chain(ctx, chain, states);
  for (auto& [id, st] : states) {
    st.last_w.assign(st.n, -1);
    st.last_r.assign(st.n, -1);
  }
  for (std::size_t l = 0; l < chain.size(); ++l) {
    const LoopRecord& rec = chain[l];
    for (index_t t = 0; t < sched.ntiles; ++t) {
      for (index_t e = sched.bounds[l][t]; e < sched.bounds[l][t + 1]; ++e) {
        for (const ArgView& v : views[l]) {
          const std::size_t xi = v.entry(e);
          index_t& lw = v.st->last_w[xi];
          index_t& lr = v.st->last_r[xi];
          if (v.rd && lw > t) {
            return "loop '" + rec.name + "' dat '" +
                   ctx.dat(v.dat_id).name() + "': element " +
                   std::to_string(e) + " (entry " + std::to_string(xi) +
                   ") reads in tile " + std::to_string(t) +
                   " but the entry is written in tile " +
                   std::to_string(lw) +
                   " — dependence crosses a tile boundary backwards";
          }
          if (v.wr && std::max(lw, lr) > t) {
            return "loop '" + rec.name + "' dat '" +
                   ctx.dat(v.dat_id).name() + "': element " +
                   std::to_string(e) + " (entry " + std::to_string(xi) +
                   ") writes in tile " + std::to_string(t) +
                   " but the entry is still live in tile " +
                   std::to_string(std::max(lw, lr));
          }
          if (v.rd) lr = std::max(lr, t);
          if (v.wr) lw = std::max(lw, t);
        }
      }
    }
  }

  // Round legality: the color must strictly increase along every
  // cross-tile conflict (shared entry, a write on at least one side).
  // This is the exact property the threaded color-round executor rests
  // on, and it subsumes same-color independence — a conflicting
  // same-color pair fails the strict inequality too. Walked tile-major
  // in ascending tile order, check-all-then-commit per tile so a tile's
  // own intra-tile accesses never accuse each other.
  if (sched.colors.size() != static_cast<std::size_t>(sched.ntiles)) {
    return "color table has wrong size";
  }
  for (auto& [id, st] : states) {
    st.wlev.assign(st.n, -1);
    st.rlev.assign(st.n, -1);
  }
  for (index_t t = 0; t < sched.ntiles; ++t) {
    const std::int32_t c = sched.colors[t];
    if (c < 0 || c >= sched.ncolors) {
      return "tile " + std::to_string(t) + " color out of range";
    }
    for (std::size_t l = 0; l < chain.size(); ++l) {
      for (index_t e = sched.bounds[l][t]; e < sched.bounds[l][t + 1]; ++e) {
        for (const ArgView& v : views[l]) {
          const std::size_t xi = v.entry(e);
          const std::int32_t w = v.st->wlev[xi];
          const std::int32_t r = v.st->rlev[xi];
          if (v.rd && w >= c) {
            return "tile " + std::to_string(t) + " (color " +
                   std::to_string(c) + ") reads dat '" +
                   ctx.dat(v.dat_id).name() + "' entry " + std::to_string(xi) +
                   " written by an earlier tile of color " + std::to_string(w) +
                   " — round execution would not order the producer first";
          }
          if (v.wr && std::max(w, r) >= c) {
            return "tile " + std::to_string(t) + " (color " +
                   std::to_string(c) + ") writes dat '" +
                   ctx.dat(v.dat_id).name() + "' entry " + std::to_string(xi) +
                   " still live in an earlier tile of color " +
                   std::to_string(std::max(w, r)) +
                   " — round execution would race or reorder the conflict";
          }
        }
      }
    }
    for (std::size_t l = 0; l < chain.size(); ++l) {
      for (index_t e = sched.bounds[l][t]; e < sched.bounds[l][t + 1]; ++e) {
        for (const ArgView& v : views[l]) {
          const std::size_t xi = v.entry(e);
          if (v.rd) v.st->rlev[xi] = std::max(v.st->rlev[xi], c);
          if (v.wr) v.st->wlev[xi] = std::max(v.st->wlev[xi], c);
        }
      }
    }
  }
  return "";
}

// --- inspector -------------------------------------------------------------

namespace detail {

TileSchedule build_tile_schedule(const Context& ctx,
                                 const std::vector<LoopRecord>& chain) {
  index_t max_n = 0;
  for (const LoopRecord& rec : chain) max_n = std::max(max_n, rec.n);

  const index_t requested = ctx.tile_size();
  const index_t tile_elems =
      requested > 0 ? requested : auto_tile_elems(ctx, chain);
  const index_t T =
      max_n > 0 ? (max_n + tile_elems - 1) / tile_elems : 1;
  if (!ctx.tiling() || chain.size() < 2 || T < 2) {
    return unfused_schedule(chain);
  }

  TileSchedule s;
  s.fused = true;
  s.ntiles = T;
  s.loop_n.reserve(chain.size());
  for (const LoopRecord& rec : chain) s.loop_n.push_back(rec.n);
  s.bounds.assign(chain.size(), {});

  DatStates states;
  const ChainViews views = resolve_chain(ctx, chain, states);
  for (auto& [id, st] : states) {
    for (auto* v : {&st.last_w, &st.last_r, &st.eager_r, &st.eager_w,
                    &st.fused_r, &st.fused_w}) {
      v->assign(st.n, -1);
    }
  }
  for (std::size_t l = 0; l < chain.size(); ++l) {
    const std::vector<ArgView>& args = views[l];
    const index_t n = chain[l].n;
    std::vector<index_t> tile(static_cast<std::size_t>(std::max<index_t>(n, 0)));

    // Phase 1: per element, start from the balanced seed tile and raise
    // it to satisfy every dependence on loops already scheduled (the
    // wavefront growth: an entry written in tile t pushes its later
    // readers — and later writers — into tile >= t).
    for (index_t e = 0; e < n; ++e) {
      index_t t = static_cast<index_t>(
          (static_cast<std::int64_t>(e) * T) / std::max<index_t>(n, 1));
      for (const ArgView& v : args) {
        const std::size_t x = v.entry(e);
        if (v.rd) {
          index_t w = v.st->last_w[x];
#ifdef APL_MUTATE_OP2_TILE_SKEW
          // Mutation: off-by-one wavefront on gathers — an indirect read
          // may land one tile before its producer.
          if (v.table != nullptr) w -= 1;
#endif
          t = std::max(t, w);
        }
        if (v.wr) t = std::max({t, v.st->last_w[x], v.st->last_r[x]});
      }
      tile[static_cast<std::size_t>(e)] = t;
    }

    // Phase 2: prefix-max keeps slices contiguous and monotone (an
    // element can never be scheduled before its left neighbor), which is
    // what makes tiled execution order-preserving per loop.
    index_t run = 0;
    for (index_t e = 0; e < n; ++e) {
      const auto ei = static_cast<std::size_t>(e);
      run = std::max(run, tile[ei]);
      tile[ei] = std::min(run, T - 1);
    }

    // Slice boundaries from the per-element tile assignment.
    auto& b = s.bounds[l];
    b.assign(static_cast<std::size_t>(T) + 1, 0);
    index_t cur = 0;
    for (index_t e = 0; e < n; ++e) {
      while (cur < tile[static_cast<std::size_t>(e)]) {
        b[static_cast<std::size_t>(++cur)] = e;
      }
    }
    while (cur < T) b[static_cast<std::size_t>(++cur)] = n;

    // Phase 3: commit this loop's accesses — update the wavefront
    // constraints for later loops and the traffic stamps (each entry
    // counts once per (loop, pass) eagerly vs once per (tile, pass)
    // fused; the gap is exactly the cross-loop reuse fusion captures).
    const auto li = static_cast<index_t>(l);
    for (index_t e = 0; e < n; ++e) {
      const index_t t = tile[static_cast<std::size_t>(e)];
      for (const ArgView& v : args) {
        DatState& st = *v.st;
        const std::size_t x = v.entry(e);
        if (v.rd) {
          if (st.eager_r[x] != li) {
            st.eager_r[x] = li;
            s.eager_bytes += v.entry_bytes;
          }
          if (st.fused_r[x] != t) {
            st.fused_r[x] = t;
            s.fused_bytes += v.entry_bytes;
          }
          st.last_r[x] = std::max(st.last_r[x], t);
        }
        if (v.wr) {
          if (st.eager_w[x] != li) {
            st.eager_w[x] = li;
            s.eager_bytes += v.entry_bytes;
          }
          if (st.fused_w[x] != t) {
            st.fused_w[x] = t;
            s.fused_bytes += v.entry_bytes;
          }
          st.last_w[x] = std::max(st.last_w[x], t);
        }
      }
    }
  }

  // Profitability: auto-sized tiles must project a traffic win, else the
  // chain replays verbatim. An explicit set_tile_size() keeps the fused
  // schedule regardless — tests and benches force tiny tiles on meshes
  // where the model would veto them.
  if (requested <= 0 && s.fused_bytes >= s.eager_bytes) {
    return unfused_schedule(chain);
  }

  color_tiles(views, states, s);
  return s;
}

ChainSteps::ChainSteps(Context& c, const TileSchedule& s,
                       const std::vector<LoopRecord>& records, bool by_round)
    : ctx(c), sched(s), chain(records) {
  if (!s.fused) {
    count = records.size();
    step = &run_record_step;
  } else if (!by_round) {
    count = static_cast<std::size_t>(s.ntiles);
    step = &run_tile_step;
  } else {
    rounds = round_tiles(s);
    count = rounds.size();
    step = &run_round_step;
  }
}

void flush_pending(Context& ctx) { ctx.flush(); }

}  // namespace detail

// --- Context lazy surface --------------------------------------------------

apl::ThreadPool& Context::tile_team() const {
  return tile_team_ != nullptr ? *tile_team_ : apl::ThreadPool::global();
}

bool Context::begin_chain(const TileSchedule& sched,
                          const std::vector<LoopRecord>& chain,
                          apl::chain::Stats& stats, apl::trace::Span& span) {
  stats.eager_bytes += sched.eager_bytes;
  stats.tiled_bytes += sched.fused ? sched.fused_bytes : sched.eager_bytes;
  if (!sched.fused) {
    stats.tiles += chain.size();
    ++stats.verbatim;
    return false;
  }
  stats.tiles += static_cast<std::uint64_t>(sched.ntiles);
  span.set_index(sched.ntiles);
  // Reductions accumulate per tile on either walk (apl/chain.hpp), so a
  // chain that carries one runs on the team like any other.
  for (const LoopRecord& rec : chain) rec.split(sched.ntiles);
  return tile_team_enabled();
}

detail::ChainSteps Context::chain_steps(const TileSchedule& sched,
                                        const std::vector<LoopRecord>& chain,
                                        bool rounds) {
  return detail::ChainSteps(*this, sched, chain, rounds);
}

/// Per-loop profile accounting at chain completion; the run lambdas
/// themselves only accumulate kernel seconds.
void Context::account_chain(const TileSchedule& /*sched*/,
                            const std::vector<LoopRecord>& chain) {
  for (const LoopRecord& rec : chain) {
    apl::LoopStats& st = profile().stats(rec.name);
    ++st.calls;
    detail::account_traffic(*this, rec.name, *rec.set, rec.infos, st);
  }
}

const TileSchedule& Context::plan_for(const ChainPlanRequest& req) {
  apl::require(req.chain != nullptr && !req.chain->empty(),
               "op2::Context::plan_for: request names no chain");
  const std::vector<LoopRecord>& chain = *req.chain;
  apl::plan_cache::Key ck;
  ck.kind = "op2chain";
  ck.topology = topology_hash();
  ck.program = chain_program_hash(chain);
  ck.config = chain_config_hash(*this);
  ck.version = kPlanIrVersion;
  ck.label = req.label;
  return memo_plan(
      ck, chain.size(),
      [&](const std::vector<std::uint8_t>& payload, std::string* diag) {
        return decode_tile_schedule(payload, chain, diag);
      },
      [&](apl::trace::Span& span) {
        TileSchedule built = detail::build_tile_schedule(*this, chain);
        span.set_index(built.fused ? built.ntiles : 0);
        return built;
      },
      encode_tile_schedule,
      // Audit both paths under OPAL_VERIFY=plan: a deserialized schedule
      // is input from disk, and the race audit is exactly the proof it
      // still preserves the chain's dependences.
      [&](const TileSchedule& sched) {
        if (!verifying(apl::verify::kPlan)) return;
        const std::string diag = audit_tile_schedule(*this, chain, sched);
        if (!diag.empty()) {
          verify_report().fail(req.label, apl::verify::kPlan, diag);
        }
      });
}

}  // namespace op2
