// The cross-backend differential oracle. One generated case runs through
// every execution combination the library claims is equivalent — backends,
// eager/lazy chains, replicated/distributed, checkpoint-restart-midway,
// and the metamorphic variants (renumbering, partition counts, plan block
// sizes, data layout) — and every run is compared against the sequential
// replicated baseline.
//
// Tolerance policy: bitwise equality is the default. Only combinations
// that genuinely reassociate floating-point accumulation (ComboMeta::
// reorders) get a ULP bound, and then only for global reductions and —
// for the combos whose scatters commit in another order — for dats whose
// values are data-dependent on indirect-increment commit order
// (op2_taint). Fused lazy walks reassociate reductions only (per-tile
// partials): their dats stay bitwise. OPS has no scatters, so OPS dats
// are always bitwise.
//
// Header-only: runners instantiate the par_loop backend templates (see
// op2_harness.hpp for why that must happen per-binary).
#pragma once

#include <unistd.h>

#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "apl/graph/partition.hpp"
#include "apl/io/ckpt.hpp"
#include "apl/testkit/op2_harness.hpp"
#include "apl/thread_pool.hpp"
#include "apl/verify.hpp"
#include "apl/testkit/ops_harness.hpp"
#include "op2/checkpoint.hpp"
#include "ops/checkpoint.hpp"

namespace apl::testkit {

struct OracleOptions {
  std::int64_t max_ulps = 4096;
  /// Sabotage hook for the shrinking tests: adds `bias` to every kernel
  /// coefficient in the combo named `bias_combo`, forcing a divergence
  /// that flows through the normal detection/shrinking machinery.
  double bias = 0.0;
  std::string bias_combo;
};

/// Scratch base name for checkpoint slot files; pid+seed keeps parallel
/// ctest invocations from colliding.
inline std::string scratch_base(const char* tag, std::uint64_t seed) {
  return (std::filesystem::temp_directory_path() /
          ("apl_testkit_" + std::string(tag) + "_" +
           std::to_string(static_cast<long>(::getpid())) + "_" +
           std::to_string(seed) + ".ckpt"))
      .string();
}

inline Divergence combo_threw(const std::string& combo,
                              const std::string& what) {
  Divergence d;
  d.combo = combo;
  d.loop = -1;
  d.dat = "<exception>";
  d.element = -1;
  d.component = -1;
  d.message = "combo '" + combo + "' threw: " + what;
  return d;
}

// ---------------------------------------------------------------------------
// OP2
// ---------------------------------------------------------------------------

inline std::optional<Divergence> run_op2_oracle(const Op2CaseSpec& spec,
                                                const OracleOptions& opt = {}) {
  using apl::exec::Backend;
  using apl::graph::PartitionMethod;

  const auto taint = op2_taint(spec);
  std::vector<std::string> dat_names, loop_names;
  std::vector<int> dat_dims;
  for (std::size_t d = 0; d < spec.dats.size(); ++d) {
    dat_names.push_back("d" + std::to_string(d));
    dat_dims.push_back(spec.dats[d].dim);
  }
  for (std::size_t l = 0; l < spec.loops.size(); ++l) {
    loop_names.push_back(loop_name(spec, static_cast<int>(l)));
  }
  auto bias_for = [&](const std::string& combo) {
    return combo == opt.bias_combo ? opt.bias : 0.0;
  };

  // Baseline: sequential, replicated, eager, AoS.
  auto base_sys = build_op2_system(spec);
  Op2PlainExec base_ex{&base_sys->ctx};
  const Trace base = run_op2_program(base_ex, *base_sys, spec,
                                     RunOptions{true, bias_for("seq"), -1});

  auto compare = [&](const Trace& var, const ComboMeta& combo) {
    return compare_traces(base, var, combo, dat_names, dat_dims, taint,
                          loop_names, opt.max_ulps, identity_index);
  };
  auto check = [&](const ComboMeta& combo,
                   auto&& run) -> std::optional<Divergence> {
    try {
      return compare(run(), combo);
    } catch (const std::exception& e) {
      return combo_threw(combo.name, e.what());
    }
  };

  // Backend / layout / plan-granularity / eager-vs-lazy matrix on the
  // replicated context. Lazy combos snapshot final state only (a per-loop
  // snapshot reads every dat, which is a flush point and would collapse
  // every chain to length 1); `tile` forces a small tile size so the tiny
  // generated meshes genuinely fuse instead of degenerating to one tile.
  // Order-preserving sparse tiling keeps seq/simd lazy-tiled dats
  // bitwise, and reassociates only reductions (per-tile partials); the
  // threads-backend variant also reorders scatters (unfused fallback
  // chains run through the colored plan executor).
  //
  // The `team` axis drives fused chains through the threaded color-round
  // executor with an explicit tile team of that size, on the seq backend
  // so everything else (unfused fallbacks included) stays bitwise. The
  // layered coloring makes round execution order-preserving, so these
  // combos assert bitwise dats at every team size. Every combo whose
  // fused chains run on a team — these and `lazy-tiled-threads`, whose
  // team is the process pool — enables the kPlan audit, which proves
  // every schedule it ran was a legal round order (this is what catches
  // APL_MUTATE_OP2_COLOR_MERGE deterministically on a 1-core host, where
  // the merged round's race may never lose a timing coin flip, and
  // before the merged round runs, so a TSan build sees no race).
  struct Plain {
    ComboMeta meta;
    Backend backend;
    bool soa;
    op2::index_t block_size;
    bool lazy;
    bool tiling;
    op2::index_t tile;
    int team;
  };
  const Plain plains[] = {
      {{"simd", Reorders::kNone, false}, Backend::kSimd, false, 0, false,
       true, 0, 0},
      {{"threads", Reorders::kAll, false}, Backend::kThreads, false, 0,
       false, true, 0, 0},
      {{"threads-bs4", Reorders::kAll, false}, Backend::kThreads, false, 4,
       false, true, 0, 0},
      {{"threads-bs64", Reorders::kAll, false}, Backend::kThreads, false, 64,
       false, true, 0, 0},
      {{"cudasim", Reorders::kAll, false}, Backend::kCudaSim, false, 0,
       false, true, 0, 0},
      {{"soa", Reorders::kNone, false}, Backend::kSeq, true, 0, false, true,
       0, 0},
      {{"lazy-unfused", Reorders::kNone, true}, Backend::kSeq, false, 0,
       true, false, 0, 0},
      {{"lazy-tiled", Reorders::kReductions, true}, Backend::kSeq, false, 0,
       true, true, 5, 0},
      {{"lazy-tiled-simd", Reorders::kReductions, true}, Backend::kSimd,
       false, 0, true, true, 5, 0},
      {{"lazy-tiled-threads", Reorders::kAll, true}, Backend::kThreads,
       false, 0, true, true, 5, 0},
      {{"lazy-tiled-threads-exec-t1", Reorders::kReductions, true},
       Backend::kSeq, false, 0, true, true, 5, 1},
      {{"lazy-tiled-threads-exec-t2", Reorders::kReductions, true},
       Backend::kSeq, false, 0, true, true, 5, 2},
      {{"lazy-tiled-threads-exec-t4", Reorders::kReductions, true},
       Backend::kSeq, false, 0, true, true, 5, 4},
  };
  for (const auto& p : plains) {
    auto d = check(p.meta, [&]() {
      // Declared before the system: the context keeps a non-owning
      // pointer to the team, so the pool must be destroyed after it.
      std::unique_ptr<apl::ThreadPool> team;
      if (p.team > 0) {
        team = std::make_unique<apl::ThreadPool>(
            static_cast<std::size_t>(p.team));
      }
      auto sys = build_op2_system(spec);
      sys->ctx.set_backend(p.backend);
      if (p.block_size > 0) sys->ctx.set_block_size(p.block_size);
      if (p.soa) sys->ctx.convert_layout(op2::Layout::kSoA);
      sys->ctx.set_tiling(p.tiling);
      if (p.tile > 0) sys->ctx.set_tile_size(p.tile);
      if (p.lazy) sys->ctx.set_lazy(true);
      if (team != nullptr) sys->ctx.set_tile_team(team.get());
      if (p.lazy && sys->ctx.tile_team_enabled()) {
        sys->ctx.set_verify(sys->ctx.verify_checks() | apl::verify::kPlan);
      }
      Op2PlainExec ex{&sys->ctx};
      return run_op2_program(
          ex, *sys, spec,
          RunOptions{!p.meta.final_only, bias_for(p.meta.name), -1});
    });
    if (d) return d;
  }

  // Distributed matrix: 1/2/4 ranks (partition-count invariance). One rank
  // is order-preserving, so it must match bitwise (lazily, its fused walks
  // reassociate reductions only); more ranks reassociate
  // reductions and indirect-increment commits. Each rank count also runs
  // lazily: per-rank chains queue until a halo exchange, reduction, or the
  // final fetch() forces a flush (fetch reads owner values through
  // pack_entry, a flush point), so lazy variants compare final state only.
  struct Dist {
    ComboMeta meta;
    int nranks;
    PartitionMethod method;
    bool lazy;
  };
  std::vector<Dist> dists = {
      {{"dist1", Reorders::kNone, false}, 1, PartitionMethod::kBlock, false},
      {{"dist2", Reorders::kAll, false}, 2, PartitionMethod::kBlock, false},
      {{"dist4", Reorders::kAll, false}, 4, PartitionMethod::kBlock, false},
      {{"dist1-lazy", Reorders::kReductions, true}, 1,
       PartitionMethod::kBlock, true},
      {{"dist2-lazy", Reorders::kAll, true}, 2, PartitionMethod::kBlock,
       true},
      {{"dist4-lazy", Reorders::kAll, true}, 4, PartitionMethod::kBlock,
       true},
  };
  for (const auto& m : spec.maps) {
    // k-way partitioning derives the adjacency from a map onto the base
    // set; only meaningful when the generated mesh has one.
    if (m.to == 0 && spec.set_sizes[m.from] > 0) {
      dists.push_back(
          {{"dist2-kway", Reorders::kAll, false}, 2, PartitionMethod::kKway,
           false});
      break;
    }
  }
  for (const auto& c : dists) {
    auto d = check(c.meta, [&]() {
      auto sys = build_op2_system(spec);
      op2::Distributed dist(sys->ctx, c.nranks, c.method, *sys->sets[0]);
      if (c.lazy) {
        dist.set_tile_size(5);
        dist.set_lazy(true);
      }
      Op2DistExec ex{&dist};
      return run_op2_program(
          ex, *sys, spec,
          RunOptions{!c.meta.final_only, bias_for(c.meta.name), -1});
    });
    if (d) return d;
  }

  // Metamorphic renumbering: RCM-permute the mesh, rerun, and compare
  // element-for-element through the tracked permutation. Gathers stay
  // bitwise; scatter commit order and reduction order change.
  if (!spec.maps.empty()) {
    const ComboMeta meta{"renumber", Reorders::kAll, false};
    try {
      auto sys = build_op2_system(spec);
      const auto pos = renumber_and_track(*sys, 0);
      Op2PlainExec ex{&sys->ctx};
      const Trace var = run_op2_program(
          ex, *sys, spec, RunOptions{true, bias_for(meta.name), -1});
      auto map_index = [&](int d, std::size_t flat) {
        const int dim = spec.dats[d].dim;
        const std::size_t e = flat / static_cast<std::size_t>(dim);
        return static_cast<std::size_t>(pos[spec.dats[d].set][e]) * dim +
               flat % static_cast<std::size_t>(dim);
      };
      if (auto d = compare_traces(base, var, meta, dat_names, dat_dims,
                                  taint, loop_names, opt.max_ulps,
                                  map_index)) {
        return d;
      }
    } catch (const std::exception& e) {
      return combo_threw(meta.name, e.what());
    }
  }

  // Checkpoint-restart midway: run to a completed checkpoint past the
  // midpoint, crash, restore into a fresh system and run the whole
  // program again. The replayed prefix restores logged reduction outputs
  // bitwise; the final state must match the uninterrupted baseline.
  if (spec.loops.size() >= 2) {
    const ComboMeta meta{"ckpt", Reorders::kNone, true};
    const std::string path = scratch_base("op2", spec.seed);
    const apl::io::CheckpointStore cleanup(path);
    try {
      op2::Checkpointer::Options copts;
      copts.speculative = false;
      copts.horizon = 1;
      const int mid = static_cast<int>(spec.loops.size()) / 2;
      bool completed = false;
      {
        auto sys = build_op2_system(spec);
        op2::Checkpointer ck(sys->ctx, path, copts);
        Op2PlainExec ex{&sys->ctx};
        for (int li = 0; li < static_cast<int>(spec.loops.size()); ++li) {
          if (li == mid) ck.request_checkpoint();
          run_op2_loop(ex, *sys, spec, li, bias_for(meta.name));
          if (li >= mid && ck.checkpoint_complete()) {
            completed = true;
            break;  // simulated crash
          }
        }
      }
      if (completed) {
        auto sys = build_op2_system(spec);
        op2::Checkpointer ck =
            op2::Checkpointer::restore(sys->ctx, path, copts);
        Op2PlainExec ex{&sys->ctx};
        const Trace var = run_op2_program(
            ex, *sys, spec, RunOptions{false, bias_for(meta.name), -1});
        cleanup.remove_files();
        if (auto d = compare(var, meta)) return d;
      } else {
        cleanup.remove_files();  // short chains may never classify: skip
      }
    } catch (const std::exception& e) {
      cleanup.remove_files();
      return combo_threw(meta.name, e.what());
    }
  }

  // Lazy + checkpoint-restart mid-chain: same crash/restore protocol on a
  // lazy context. An attached checkpointer is a flush point (par_loop
  // drains the pending chain and runs eagerly while it needs loop-level
  // observability), so this proves the chain queued before the checkpointer
  // attaches — and the one rebuilt after restore — both flush to states
  // bitwise-identical to the uninterrupted eager baseline.
  if (spec.loops.size() >= 2) {
    const ComboMeta meta{"lazy-ckpt", Reorders::kNone, true};
    const std::string path = scratch_base("op2lz", spec.seed);
    const apl::io::CheckpointStore cleanup(path);
    try {
      op2::Checkpointer::Options copts;
      copts.speculative = false;
      copts.horizon = 1;
      const int mid = static_cast<int>(spec.loops.size()) / 2;
      bool completed = false;
      {
        auto sys = build_op2_system(spec);
        sys->ctx.set_tile_size(5);
        sys->ctx.set_lazy(true);
        op2::Checkpointer ck(sys->ctx, path, copts);
        Op2PlainExec ex{&sys->ctx};
        for (int li = 0; li < static_cast<int>(spec.loops.size()); ++li) {
          if (li == mid) ck.request_checkpoint();
          run_op2_loop(ex, *sys, spec, li, bias_for(meta.name));
          if (li >= mid && ck.checkpoint_complete()) {
            completed = true;
            break;  // simulated crash
          }
        }
        sys->ctx.flush();
      }
      if (completed) {
        auto sys = build_op2_system(spec);
        sys->ctx.set_tile_size(5);
        sys->ctx.set_lazy(true);
        op2::Checkpointer ck =
            op2::Checkpointer::restore(sys->ctx, path, copts);
        Op2PlainExec ex{&sys->ctx};
        const Trace var = run_op2_program(
            ex, *sys, spec, RunOptions{false, bias_for(meta.name), -1});
        cleanup.remove_files();
        if (auto d = compare(var, meta)) return d;
      } else {
        cleanup.remove_files();
      }
    } catch (const std::exception& e) {
      cleanup.remove_files();
      return combo_threw(meta.name, e.what());
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// OPS
// ---------------------------------------------------------------------------

inline bool ops_has_halo_transfer(const OpsCaseSpec& spec) {
  for (const auto& L : spec.loops) {
    if (L.kind == OpsLoopKind::kHaloTransfer) return true;
  }
  return false;
}

inline std::optional<Divergence> run_ops_oracle(const OpsCaseSpec& spec,
                                                const OracleOptions& opt = {}) {
  using apl::exec::Backend;

  const std::vector<char> taint(spec.dats.size(), 0);  // no scatters in OPS
  std::vector<std::string> dat_names, loop_names;
  std::vector<int> dat_dims;
  for (std::size_t d = 0; d < spec.dats.size(); ++d) {
    dat_names.push_back("d" + std::to_string(d));
    dat_dims.push_back(spec.dats[d].dim);
  }
  for (std::size_t l = 0; l < spec.loops.size(); ++l) {
    loop_names.push_back(loop_name(spec, static_cast<int>(l)));
  }
  auto bias_for = [&](const std::string& combo) {
    return combo == opt.bias_combo ? opt.bias : 0.0;
  };

  auto base_sys = build_ops_system(spec);
  OpsPlainExec base_ex{base_sys.get()};
  const Trace base = run_ops_program(base_ex, *base_sys, spec,
                                     RunOptions{true, bias_for("seq"), -1});

  auto compare = [&](const Trace& var, const ComboMeta& combo) {
    return compare_traces(base, var, combo, dat_names, dat_dims, taint,
                          loop_names, opt.max_ulps, identity_index);
  };
  auto check = [&](const ComboMeta& combo,
                   auto&& run) -> std::optional<Divergence> {
    try {
      return compare(run(), combo);
    } catch (const std::exception& e) {
      return combo_threw(combo.name, e.what());
    }
  };

  // Backend x eager/lazy(tiled, untiled) matrix. Lazy chains only flush at
  // the end, so those combos compare final state only; the tiled schedule
  // must still be bit-identical to the eager one.
  struct Plain {
    ComboMeta meta;
    Backend backend;
    bool lazy;
    bool tiling;
  };
  const Plain plains[] = {
      {{"simd", Reorders::kNone, false}, Backend::kSimd, false, true},
      {{"threads", Reorders::kAll, false}, Backend::kThreads, false, true},
      {{"cudasim", Reorders::kAll, false}, Backend::kCudaSim, false, true},
      {{"lazy-untiled", Reorders::kNone, true}, Backend::kSeq, true, false},
      {{"lazy-tiled", Reorders::kNone, true}, Backend::kSeq, true, true},
      {{"lazy-tiled-threads", Reorders::kAll, true}, Backend::kThreads, true,
       true},
  };
  for (const auto& p : plains) {
    auto d = check(p.meta, [&]() {
      auto sys = build_ops_system(spec);
      sys->ctx.set_backend(p.backend);
      sys->ctx.set_tiling(p.tiling);
      if (p.lazy) sys->ctx.set_lazy(true);
      OpsPlainExec ex{sys.get()};
      return run_ops_program(
          ex, *sys, spec,
          RunOptions{!p.meta.final_only, bias_for(p.meta.name), -1});
    });
    if (d) return d;
  }

  // Distributed decomposition (1/2/4 ranks). The mpisim exchange layer is
  // 2D; inter-block Halo::transfer operates on the global context, so
  // programs using it stay replicated.
  if (spec.ndim <= 2 && !ops_has_halo_transfer(spec)) {
    struct Dist {
      ComboMeta meta;
      int nranks;
    };
    const Dist dists[] = {
        {{"dist1", Reorders::kNone, false}, 1},
        {{"dist2", Reorders::kAll, false}, 2},
        {{"dist4", Reorders::kAll, false}, 4},
    };
    for (const auto& c : dists) {
      auto d = check(c.meta, [&]() {
        auto sys = build_ops_system(spec);
        ops::Distributed dist(sys->ctx, c.nranks);
        OpsDistExec ex{sys.get(), &dist};
        return run_ops_program(ex, *sys, spec,
                               RunOptions{true, bias_for(c.meta.name), -1});
      });
      if (d) return d;
    }
  }

  // Checkpoint-restart midway (loop-only programs: the checkpointer's
  // chain analysis hooks par_loop and cannot see raw halo transfers).
  if (spec.loops.size() >= 2 && !ops_has_halo_transfer(spec)) {
    const ComboMeta meta{"ckpt", Reorders::kNone, true};
    const std::string path = scratch_base("ops", spec.seed);
    const apl::io::CheckpointStore cleanup(path);
    try {
      ops::Checkpointer::Options copts;
      copts.speculative = false;
      copts.horizon = 1;
      const int mid = static_cast<int>(spec.loops.size()) / 2;
      bool completed = false;
      {
        auto sys = build_ops_system(spec);
        ops::Checkpointer ck(sys->ctx, path, copts);
        OpsPlainExec ex{sys.get()};
        for (int li = 0; li < static_cast<int>(spec.loops.size()); ++li) {
          if (li == mid) ck.request_checkpoint();
          run_ops_loop(ex, *sys, spec, li, bias_for(meta.name));
          if (li >= mid && ck.checkpoint_complete()) {
            completed = true;
            break;  // simulated crash
          }
        }
      }
      if (completed) {
        auto sys = build_ops_system(spec);
        ops::Checkpointer ck =
            ops::Checkpointer::restore(sys->ctx, path, copts);
        OpsPlainExec ex{sys.get()};
        const Trace var = run_ops_program(
            ex, *sys, spec, RunOptions{false, bias_for(meta.name), -1});
        cleanup.remove_files();
        if (auto d = compare(var, meta)) return d;
      } else {
        cleanup.remove_files();
      }
    } catch (const std::exception& e) {
      cleanup.remove_files();
      return combo_threw(meta.name, e.what());
    }
  }
  return std::nullopt;
}

}  // namespace apl::testkit
