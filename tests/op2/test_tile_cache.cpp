// OP2 tile-schedule IR and cache (sparse tiling, DESIGN.md §15): codec
// round trips, decode validation against the live chain (single-bit-flip
// robustness sweep included), the race/dependence audit, plan_for
// memoization, the warm-start differential (zero inspector runs on the
// warm side, bitwise-identical results), IR-version partitioning, and the
// corrupt-entry fallback to a fresh inspection with a named diagnostic,
// and the inspector's output pinned byte for byte on fixed inputs.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "airfoil/airfoil.hpp"
#include "apl/fault.hpp"
#include "apl/io/plan_cache.hpp"
#include "apl/signature.hpp"
#include "apl/trace.hpp"
#include "op2/op2.hpp"

namespace {

using apl::exec::Access;
using apl::plan_cache::Store;
using apl::trace::Recorder;

constexpr op2::index_t kNodes = 40;
constexpr op2::index_t kEdges = 39;

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Scoped cache directory on the global store; restores the disabled
/// default on exit so other tests stay cache-free.
struct CacheDir {
  explicit CacheDir(const std::string& name)
      : dir((std::filesystem::temp_directory_path() / name).string()) {
    std::filesystem::remove_all(dir);
    Store::global().set_directory(dir);
  }
  ~CacheDir() {
    Store::global().set_directory("");
    std::filesystem::remove_all(dir);
  }
  std::string dir;
};

/// A 1D node chain with an edge set over it — small, but with real
/// producer->indirect-consumer edges so tiles must genuinely skew.
struct LazySys {
  op2::Context ctx;
  op2::Set* nodes = nullptr;
  op2::Set* edges = nullptr;
  op2::Map* e2n = nullptr;
  op2::Dat<double>* x = nullptr;
  op2::Dat<double>* y = nullptr;
};

std::unique_ptr<LazySys> build_sys() {
  auto s = std::make_unique<LazySys>();
  // kAccess guarding is a flush point (par_loop runs eagerly under it),
  // which would bypass the chain machinery these tests exercise.
  s->ctx.set_verify(s->ctx.verify_checks() & ~apl::verify::kAccess);
  s->nodes = &s->ctx.decl_set(kNodes, "nodes");
  s->edges = &s->ctx.decl_set(kEdges, "edges");
  std::vector<op2::index_t> table(2 * kEdges);
  for (op2::index_t e = 0; e < kEdges; ++e) {
    table[2 * e] = e;
    table[2 * e + 1] = e + 1;
  }
  s->e2n = &s->ctx.decl_map(*s->edges, *s->nodes, 2, table, "e2n");
  std::vector<double> xi(kNodes), yi(kEdges, 0.0);
  for (op2::index_t i = 0; i < kNodes; ++i) {
    xi[static_cast<std::size_t>(i)] = 0.5 + 0.01 * static_cast<double>(i);
  }
  s->x = &s->ctx.decl_dat<double>(*s->nodes, 1, xi, "x");
  s->y = &s->ctx.decl_dat<double>(*s->edges, 1, yi, "y");
  return s;
}

/// Three steps of relax -> gather -> scatter with no flush in between: a
/// 9-loop chain whose cross-loop dependences run both directions through
/// the map.
void enqueue_program(LazySys& s) {
  for (int step = 0; step < 3; ++step) {
    op2::par_loop(
        s.ctx, "relax", *s.nodes,
        [](op2::Acc<double> v) { v[0] = 0.5 * v[0] + 0.25; },
        op2::arg(*s.x, Access::kRW));
    op2::par_loop(
        s.ctx, "gather", *s.edges,
        [](op2::Acc<double> w, op2::Acc<double> a, op2::Acc<double> b) {
          w[0] = a[0] + b[0];
        },
        op2::arg(*s.y, Access::kWrite), op2::arg(*s.x, *s.e2n, 0, Access::kRead),
        op2::arg(*s.x, *s.e2n, 1, Access::kRead));
    op2::par_loop(
        s.ctx, "scatter", *s.edges,
        [](op2::Acc<double> w, op2::Acc<double> a, op2::Acc<double> b) {
          a[0] += 0.125 * w[0];
          b[0] += 0.125 * w[0];
        },
        op2::arg(*s.y, Access::kRead), op2::arg(*s.x, *s.e2n, 0, Access::kInc),
        op2::arg(*s.x, *s.e2n, 1, Access::kInc));
  }
}

/// Runs the program (lazy: as one chain at tile size `tile`); returns
/// x ++ y after the final flush.
std::vector<double> run_program(bool lazy, op2::index_t tile = 5) {
  auto s = build_sys();
  if (tile > 0) s->ctx.set_tile_size(tile);
  if (lazy) s->ctx.set_lazy(true);
  enqueue_program(*s);
  s->ctx.flush();
  std::vector<double> out = s->x->to_vector();
  const std::vector<double> ye = s->y->to_vector();
  out.insert(out.end(), ye.begin(), ye.end());
  return out;
}

/// The same three loops as inspector input only (no executors needed).
std::vector<op2::LoopRecord> synthetic_chain(LazySys& s) {
  auto rec = [](const char* name, const op2::Set* set,
                std::vector<op2::ArgInfo> infos) {
    op2::LoopRecord r;
    r.name = name;
    r.set = set;
    r.n = set->size();
    r.infos = std::move(infos);
    return r;
  };
  const op2::ArgInfo x_rw{s.x->id(), -1, 0, Access::kRW, 1,
                          sizeof(double), false};
  const op2::ArgInfo y_w{s.y->id(), -1, 0, Access::kWrite, 1,
                         sizeof(double), false};
  const op2::ArgInfo y_r{s.y->id(), -1, 0, Access::kRead, 1,
                         sizeof(double), false};
  const op2::ArgInfo x_r0{s.x->id(), s.e2n->id(), 0, Access::kRead, 1,
                          sizeof(double), false};
  const op2::ArgInfo x_r1{s.x->id(), s.e2n->id(), 1, Access::kRead, 1,
                          sizeof(double), false};
  const op2::ArgInfo x_i0{s.x->id(), s.e2n->id(), 0, Access::kInc, 1,
                          sizeof(double), false};
  const op2::ArgInfo x_i1{s.x->id(), s.e2n->id(), 1, Access::kInc, 1,
                          sizeof(double), false};
  std::vector<op2::LoopRecord> chain;
  chain.push_back(rec("relax", s.nodes, {x_rw}));
  chain.push_back(rec("gather", s.edges, {y_w, x_r0, x_r1}));
  chain.push_back(rec("scatter", s.edges, {y_r, x_i0, x_i1}));
  return chain;
}

// ---- inspector + audit ------------------------------------------------------

TEST(TileSchedule, InspectorBuildsFusedMonotoneSchedule) {
  auto s = build_sys();
  s->ctx.set_tile_size(5);
  const auto chain = synthetic_chain(*s);
  const op2::TileSchedule sched =
      op2::detail::build_tile_schedule(s->ctx, chain);
  ASSERT_TRUE(sched.fused);
  EXPECT_EQ(sched.ntiles, (kNodes + 4) / 5);
  ASSERT_EQ(sched.bounds.size(), chain.size());
  for (std::size_t l = 0; l < chain.size(); ++l) {
    const auto& b = sched.bounds[l];
    ASSERT_EQ(b.size(), static_cast<std::size_t>(sched.ntiles) + 1);
    EXPECT_EQ(b.front(), 0);
    EXPECT_EQ(b.back(), chain[l].n);
    for (std::size_t t = 1; t < b.size(); ++t) EXPECT_LE(b[t - 1], b[t]);
  }
  EXPECT_GT(sched.ncolors, 0);
  EXPECT_EQ(op2::audit_tile_schedule(s->ctx, chain, sched), "");
}

TEST(TileSchedule, AuditCatchesDoctoredBounds) {
  auto s = build_sys();
  s->ctx.set_tile_size(5);
  const auto chain = synthetic_chain(*s);
  op2::TileSchedule sched = op2::detail::build_tile_schedule(s->ctx, chain);
  ASSERT_TRUE(sched.fused);
  // Pull every element of the consuming gather into tile 0: it now reads
  // x entries the relax loop writes in later tiles — the exact violation
  // the wavefront constraint forbids. The audit must name the sinner.
  for (std::size_t t = 1; t + 1 < sched.bounds[1].size(); ++t) {
    sched.bounds[1][t] = chain[1].n;
  }
  const std::string diag = op2::audit_tile_schedule(s->ctx, chain, sched);
  ASSERT_FALSE(diag.empty());
  EXPECT_NE(diag.find("gather"), std::string::npos) << diag;
  EXPECT_NE(diag.find("x"), std::string::npos) << diag;
}

// ---- schedule IR codec ------------------------------------------------------

TEST(TileSchedule, EncodeDecodeRoundTrip) {
  auto s = build_sys();
  s->ctx.set_tile_size(5);
  const auto chain = synthetic_chain(*s);
  const op2::TileSchedule sched =
      op2::detail::build_tile_schedule(s->ctx, chain);

  const auto payload = op2::encode_tile_schedule(sched);
  std::string diag;
  const auto back = op2::decode_tile_schedule(payload, chain, &diag);
  ASSERT_TRUE(back.has_value()) << diag;
  EXPECT_EQ(back->fused, sched.fused);
  EXPECT_EQ(back->ntiles, sched.ntiles);
  EXPECT_EQ(back->ncolors, sched.ncolors);
  EXPECT_EQ(back->loop_n, sched.loop_n);
  EXPECT_EQ(back->bounds, sched.bounds);
  EXPECT_EQ(back->colors, sched.colors);
  EXPECT_EQ(back->eager_bytes, sched.eager_bytes);
  EXPECT_EQ(back->fused_bytes, sched.fused_bytes);
}

TEST(TileSchedule, DecodeRejectsWrongChain) {
  auto s = build_sys();
  s->ctx.set_tile_size(5);
  auto chain = synthetic_chain(*s);
  const auto payload = op2::encode_tile_schedule(
      op2::detail::build_tile_schedule(s->ctx, chain));
  chain.pop_back();
  std::string diag;
  EXPECT_FALSE(op2::decode_tile_schedule(payload, chain, &diag));
  EXPECT_NE(diag.find("op2chain-ir:"), std::string::npos) << diag;
}

TEST(TileSchedule, DecodeSurvivesSingleBitFlips) {
  // Robustness sweep: no single-bit corruption of the payload may crash
  // the decoder — each flip either still decodes (the bit was in a stats
  // field) or rejects with a named diagnostic.
  auto s = build_sys();
  s->ctx.set_tile_size(5);
  const auto chain = synthetic_chain(*s);
  const auto payload = op2::encode_tile_schedule(
      op2::detail::build_tile_schedule(s->ctx, chain));
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    auto bad = payload;
    bad[i] ^= 0x40;
    std::string diag;
    if (!op2::decode_tile_schedule(bad, chain, &diag)) {
      ++rejected;
      EXPECT_FALSE(diag.empty())
          << "rejection without diagnostic at byte " << i;
    }
  }
  EXPECT_GT(rejected, 0u);
}

// ---- plan_for memoization ---------------------------------------------------

TEST(TileSchedule, PlanForMemoizesBySignature) {
  auto s = build_sys();
  s->ctx.set_tile_size(5);
  const auto chain = synthetic_chain(*s);
  const op2::TileSchedule& s1 = s->ctx.plan_for({"op2chain", &chain});
  const op2::TileSchedule& s2 = s->ctx.plan_for({"op2chain", &chain});
  EXPECT_EQ(&s1, &s2);
  EXPECT_NE(s1.signature, 0u);
  const auto sig1 = s1.signature;

  // A config change (tile size) invalidates the memo and re-keys.
  s->ctx.set_tile_size(7);
  const op2::TileSchedule& s3 = s->ctx.plan_for({"op2chain", &chain});
  EXPECT_NE(s3.signature, sig1);
}

// ---- warm start -------------------------------------------------------------

TEST(TileCacheWarm, WarmRunSkipsInspectionAndMatchesCold) {
  CacheDir cache("op2_tile_warm_cache");

  // The differential anchor: eager and lazy-tiled agree bitwise even
  // before any cache enters the picture.
  const std::vector<double> eager = run_program(false);
  const std::vector<double> cold = run_program(true);
  EXPECT_TRUE(bitwise_equal(eager, cold))
      << "lazy-tiled diverged from eager";
  const auto cold_stats = Store::global().stats();
  ASSERT_GT(cold_stats.stores, 0u);

  // Warm: a fresh context must perform zero chain inspection — proved
  // through the trace spans, not just the store counters.
  Store::global().reset_stats();
  Recorder::global().clear();
  Recorder::global().set_enabled(true);
  const std::vector<double> warm = run_program(true);
  Recorder::global().set_enabled(false);
  const auto evs = Recorder::global().snapshot();
  Recorder::global().clear();

  std::size_t analyzed = 0, hits = 0;
  for (const auto& e : evs) {
    if (e.name.rfind("chain_analyze:op2chain", 0) == 0) ++analyzed;
    if (e.name.rfind("chain_hit:op2chain", 0) == 0) ++hits;
  }
  EXPECT_EQ(analyzed, 0u) << "warm start re-ran the inspector";
  EXPECT_GT(hits, 0u);

  const auto warm_stats = Store::global().stats();
  EXPECT_EQ(warm_stats.misses, 0u);
  EXPECT_EQ(warm_stats.corrupt, 0u);
  EXPECT_TRUE(bitwise_equal(cold, warm))
      << "warm start diverged from cold run";
}

// ---- IR versioning ----------------------------------------------------------

TEST(TileCacheWarm, IrVersionPartitionsEntries) {
  // v3 is the bump that made tile colors layered execution rounds (v2
  // shipped the op2chain kind, section tags 16-19); both op2 IR kinds
  // share the constant, so bumping it invalidates every persisted
  // schedule at once.
  EXPECT_EQ(op2::kPlanIrVersion, 3u);

  CacheDir cache("op2_tile_version_cache");
  apl::plan_cache::Key key;
  key.kind = "op2chain";
  key.topology = 0x10;
  key.program = 0x20;
  key.config = 0x30;
  key.version = op2::kPlanIrVersion;
  key.label = "op2chain";
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4};
  Store::global().save(key, payload);
  ASSERT_TRUE(Store::global().load(key).has_value());

  // The same schedule under a bumped IR version must miss: stale-format
  // entries are invisible, never misdecoded.
  key.version = op2::kPlanIrVersion + 1;
  EXPECT_FALSE(Store::global().load(key).has_value());
  EXPECT_GT(Store::global().stats().misses, 0u);
}

// ---- corruption fallback ----------------------------------------------------

TEST(TileCacheWarm, CorruptEntryFallsBackToFreshInspection) {
  CacheDir cache("op2_tile_corrupt_cache");

  // Baseline without any cache interference.
  Store::global().set_directory("");
  const std::vector<double> baseline = run_program(true);

  // Cold populate with the corrupt_plan_cache trigger armed: the first
  // persisted blob carries a flipped payload bit past its CRC.
  Store::global().set_directory(cache.dir);
  apl::fault::Injector::global().arm(
      apl::fault::parse_config("corrupt_plan_cache=4"));
  const std::vector<double> cold = run_program(true);
  apl::fault::Injector::global().disarm();
  EXPECT_TRUE(bitwise_equal(baseline, cold));

  // Warm: the poisoned entry surfaces as a named corrupt-miss, the chain
  // re-inspects fresh, and results never change.
  Store::global().reset_stats();
  const std::vector<double> warm = run_program(true);
  const auto stats = Store::global().stats();
  EXPECT_GE(stats.corrupt, 1u) << "corruption not detected";
  EXPECT_FALSE(Store::global().last_diagnostic().empty());
  EXPECT_TRUE(bitwise_equal(baseline, warm))
      << "corrupt cache entry altered results";
}

// ---- pinned schedules -------------------------------------------------------

/// Hex fnv1a of every op2chain IR payload persisted under `dir`, in file
/// name order (the name carries the topology, program and config hashes,
/// so the order is fixed by the chains, not by the schedules).
std::vector<std::string> chain_ir_hashes(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("op2chain-", 0) == 0) files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  // Container header (plan_cache.hpp): magic, two u32 versions, three u64
  // hashes, u64 payload size, u32 crc — then the payload itself.
  constexpr std::size_t kHeader = 48;
  constexpr std::size_t kSizeOffset = 36;
  std::vector<std::string> hashes;
  for (const std::string& f : files) {
    std::ifstream in(f, std::ios::binary);
    const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                          std::istreambuf_iterator<char>()};
    EXPECT_GE(bytes.size(), kHeader) << f;
    if (bytes.size() < kHeader) continue;
    std::uint64_t payload_bytes = 0;
    std::memcpy(&payload_bytes, bytes.data() + kSizeOffset,
                sizeof(payload_bytes));
    EXPECT_EQ(payload_bytes, bytes.size() - kHeader) << f;
    const std::span<const std::uint8_t> payload(bytes.data() + kHeader,
                                                bytes.size() - kHeader);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      apl::signature::fnv1a(payload)));
    hashes.emplace_back(hex);
  }
  return hashes;
}

/// Verify checks for a pinned run: the kPlan audit on every schedule the
/// inspector builds (a violation throws out of the flush), minus kAccess,
/// which would turn every lazy loop eager.
unsigned pinned_checks(unsigned env_checks) {
  return (env_checks & ~apl::verify::kAccess) | apl::verify::kPlan;
}

// The inspector's output on fixed inputs is part of the IR contract: a
// change to how schedules are computed must leave these bytes alone
// unless it also bumps op2::kPlanIrVersion (else a warm start replays
// schedules a cold start no longer builds). The kPlan audit runs on each
// schedule.
TEST(TilePinned, LazySystemScheduleBytes) {
  CacheDir cache("op2_tile_pinned_sys");
  auto s = build_sys();
  s->ctx.set_verify(pinned_checks(s->ctx.verify_checks()));
  s->ctx.set_tile_size(5);
  s->ctx.set_lazy(true);
  enqueue_program(*s);
  s->ctx.flush();
  EXPECT_TRUE(s->ctx.verify_report().empty());
  EXPECT_EQ(s->ctx.chain_stats().verbatim, 0u);
  EXPECT_EQ(chain_ir_hashes(cache.dir),
            (std::vector<std::string>{"07b741088af8c153"}));
}

TEST(TilePinned, AirfoilChainScheduleBytes) {
  CacheDir cache("op2_tile_pinned_airfoil");
  airfoil::Airfoil::Options opts;
  opts.nx = 120;
  opts.ny = 60;
  airfoil::Airfoil app(opts);
  app.ctx().set_verify(pinned_checks(app.ctx().verify_checks()));
  app.ctx().set_tile_size(1024);
  app.ctx().set_lazy(true);
  app.iteration();
  // save_soln + (adt_calc, res_calc, bres_calc, update) and the second
  // stage's four loops: the two chains the rms reduction cuts.
  EXPECT_EQ(app.ctx().chain_stats().flushes, 2u);
  EXPECT_EQ(app.ctx().chain_stats().verbatim, 0u);
  EXPECT_TRUE(app.ctx().verify_report().empty());
  EXPECT_EQ(chain_ir_hashes(cache.dir),
            (std::vector<std::string>{"da74e88f3497c933",
                                      "61073f27b170b71e"}));
}

}  // namespace
