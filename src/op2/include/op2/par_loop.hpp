// op2::par_loop — the "code generator" of this active library.
//
// In the original OP2 a Python source-to-source translator emits one
// specialized implementation of every loop per target (Fig. 1). Here each
// backend wrapper below *is* that generated code, instantiated by the
// compiler per (kernel, argument signature):
//
//   run_seq      the human-readable reference loop ("recommended for
//                debugging"): compute pointers, call the user function.
//   run_simd     the vectorized CPU structure: gather a pack of elements
//                into contiguous aligned staging, run the kernel on the
//                lanes, scatter results (increments applied serially).
//   run_threads  the OpenMP structure: execute the two-level-colored plan,
//                blocks of one color in parallel across the thread pool,
//                each block through run_seq_range (the seq loop, hoisted
//                and flattened), with per-block partials for global
//                reductions, folded in block order (bitwise the same for
//                every team size). Blocks default to 4096 elements
//                (Context::block_size): small blocks scatter one cell's
//                edges over many colors, so every color sweep streams the
//                cell data again.
//   run_cudasim  the CUDA structure: thread blocks stage indirect data
//                through "shared memory", per-element increments commit in
//                intra-block color order, and a warp-granular transaction
//                model prices every access (Fig. 7's three variants are
//                layout kAoS / kSoA / staging on).
//
// All four execute the same user kernel and must agree with run_seq to
// floating-point reordering; the cross-backend equivalence tests enforce
// this.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "apl/cancel.hpp"
#include "apl/error.hpp"
#include "apl/fault.hpp"
#include "apl/profile.hpp"
#include "apl/simdev/device.hpp"
#include "apl/thread_pool.hpp"
#include "apl/trace.hpp"
#include "op2/arg.hpp"
#include "op2/checkpoint.hpp"
#include "op2/context.hpp"
#include "op2/guard.hpp"
#include "op2/plan.hpp"
#include "op2/traffic.hpp"

namespace op2 {

namespace detail {

inline constexpr index_t kSimdWidth = 8;

// ---- accessor construction -------------------------------------------

template <class T>
Acc<T> element_acc(const ArgDat<T>& a, index_t e) {
  const index_t el = a.map ? a.map->at(e, a.idx) : e;
  return Acc<T>(a.dat->entry(el), a.dat->stride());
}

template <class T>
Acc<T> element_acc(ArgGbl<T>& g, index_t /*e*/) {
  return Acc<T>(g.data, 1);
}

// ---- lazy-chain enqueue support (op2/lazy.hpp) -----------------------------

/// False when packed (SIMD) execution of a slice could pair elements that
/// conflict through a dat some argument reads live (not the kInc
/// zero-identity) while another writes it with an indirect side — the
/// gather would then stage values an earlier packmate still has to write.
/// Such loops run tile slices through run_seq_range instead.
inline bool simd_pack_safe(const std::vector<ArgInfo>& infos) {
  for (const ArgInfo& w : infos) {
    if (w.is_gbl || !writes(w.acc)) continue;
    for (const ArgInfo& r : infos) {
      if (r.is_gbl || r.dat_id != w.dat_id) continue;
      if (!reads(r.acc) || r.acc == apl::exec::Access::kInc) continue;
      if (&r == &w && !w.indirect()) continue;  // direct RW touches own entry
      if (w.indirect() || r.indirect()) return false;
    }
  }
  return true;
}

// ---- sequential backend --------------------------------------------------

// Per-loop hoisted argument state: base pointer, map row and strides are
// resolved once, so the per-element accessor is a couple of adds — the
// code OP2's real generator emits.
template <class T>
struct SeqArgState {
  T* base;
  const index_t* table;  ///< nullptr for direct args
  index_t arity, idx;
  std::ptrdiff_t entry_stride;  ///< between consecutive elements
  std::ptrdiff_t comp_stride;   ///< between components of one element
};

template <class T>
SeqArgState<T> make_seq_state(ArgDat<T>& a) {
  Dat<T>& d = *a.dat;
  const bool aos = d.layout() == Layout::kAoS;
  return {static_cast<T*>(d.raw()),
          a.map ? a.map->table().data() : nullptr,
          a.map ? a.map->arity() : 0,
          a.idx,
          aos ? static_cast<std::ptrdiff_t>(d.dim()) : 1,
          d.stride()};
}
template <class T>
std::nullptr_t make_seq_state(ArgGbl<T>&) {
  return nullptr;
}

template <class T>
Acc<T> seq_param(const SeqArgState<T>& st, ArgDat<T>&, index_t e) {
  const index_t el =
      st.table ? st.table[static_cast<std::size_t>(e) * st.arity + st.idx]
               : e;
  return Acc<T>(st.base + el * st.entry_stride, st.comp_stride);
}
template <class T>
Acc<T> seq_param(std::nullptr_t, ArgGbl<T>& g, index_t /*e*/) {
  return Acc<T>(g.data, 1);
}

// `flatten` inlines the kernel and accessors so the generated loop matches
// a hand-written loop nest (see ops/par_loop.hpp for the same pattern).
// The range form runs the tile executor's slices (op2/lazy.hpp) and the
// threads backend's plan blocks: elements [lo, hi) in ascending order,
// exactly the eager order restricted to the range.
template <class Kernel, class... Args>
#if defined(__GNUC__)
[[gnu::flatten]]
#endif
void run_seq_range(index_t lo, index_t hi, Kernel&& k, Args&... args) {
  auto states = std::make_tuple(make_seq_state(args)...);
  std::apply(
      [&](auto&... st) {
        for (index_t e = lo; e < hi; ++e) {
          k(seq_param(st, args, e)...);
        }
      },
      states);
}

template <class Kernel, class... Args>
void run_seq(const Set& set, Kernel&& k, Args&... args) {
  run_seq_range(0, set.core_size(), k, args...);
}

// ---- threads backend -------------------------------------------------------

template <class Kernel, class... Args>
void run_threads(Context& ctx, const std::string& name, const Set& /*set*/,
                 const Plan& plan, Kernel&& k, Args&... args) {
  apl::ThreadPool& pool = apl::ThreadPool::global();
  // A reduction's work unit is the plan block: partials are folded in
  // ascending block id, whichever member ran a block.
  auto units = std::make_tuple(apl::exec::hold(args)...);
  apl::exec::split_all(units, static_cast<std::size_t>(plan.num_blocks));
  index_t ncolors = plan.num_block_colors;
#ifdef APL_MUTATE_OP2_SKIP_LAST_COLOR
  // Mutation hook for the testkit smoke tests: drop the last plan color,
  // simulating an off-by-one in the plan executor. Never defined in
  // production builds; the differential oracle must detect this.
  if (ncolors > 1) --ncolors;
#endif
  for (index_t c = 0; c < ncolors; ++c) {
    const auto& blocks = plan.blocks_by_color[c];
    apl::trace::Span color_span(apl::trace::kColor, name);
    if (color_span.active()) [[unlikely]] {
      color_span.set_index(c);
      std::uint64_t in_color = 0;
      for (index_t b : blocks) {
        in_color += static_cast<std::uint64_t>(plan.block_offset[b + 1] -
                                               plan.block_offset[b]);
      }
      color_span.set_elements(in_color);
    }
    pool.parallel_for(blocks.size(), [&](std::size_t b0, std::size_t b1) {
      std::apply(
          [&](auto&... u) {
            for (std::size_t bi = b0; bi < b1; ++bi) {
              const index_t b = blocks[bi];
              const auto run = [&](auto&&... as) {
                run_seq_range(plan.block_offset[b], plan.block_offset[b + 1],
                              k, as...);
              };
              run(apl::exec::thaw(u, static_cast<std::size_t>(b))...);
            }
          },
          units);
    });
  }
  apl::exec::commit_all(units);
  ctx.profile().stats(name).colors +=
      static_cast<std::uint64_t>(plan.num_block_colors);
}

// ---- simd backend ----------------------------------------------------------

// Staging state for one argument across a pack of kSimdWidth lanes. Data is
// gathered lane-major (lane l's components contiguous) so the kernel sees
// stride-1 accessors into aligned staging, the shape OP2's vectorized code
// generation produces.
template <class T>
struct SimdStage {
  ArgDat<T>* a;
  apl::aligned_vector<T> buf;
};
template <class T>
struct SimdGblStage {
  ArgGbl<T>* g;
};

template <class T>
SimdStage<T> make_stage(ArgDat<T>& a) {
  return {&a, apl::aligned_vector<T>(
                  static_cast<std::size_t>(kSimdWidth) * a.dat->dim())};
}
template <class T>
SimdGblStage<T> make_stage(ArgGbl<T>& g) {
  return {&g};
}

template <class T>
void stage_gather(SimdStage<T>& st, index_t e0, index_t lanes) {
  const ArgDat<T>& a = *st.a;
  const index_t dim = a.dat->dim();
  for (index_t l = 0; l < lanes; ++l) {
    T* out = st.buf.data() + static_cast<std::size_t>(l) * dim;
    if (a.acc == apl::exec::Access::kInc) {
      std::fill_n(out, dim, T{});
    } else {
      const Acc<T> in = element_acc(a, e0 + l);
      for (index_t d = 0; d < dim; ++d) out[d] = in[d];
    }
  }
}
template <class T>
void stage_gather(SimdGblStage<T>&, index_t, index_t) {}

// Scatters one lane of one argument. The pack commits element-major (lane
// outer, argument inner, see run_simd): committing argument-major instead
// reorders increments when two lanes hit the same indirect target through
// different argument slots, silently breaking bitwise agreement with
// run_seq (found by the testkit oracle, minimal repro: one arity-2
// scatter over a 4-element set, APL_TESTKIT_SEED=1).
template <class T>
void stage_scatter_lane(SimdStage<T>& st, index_t e0, index_t l) {
  const ArgDat<T>& a = *st.a;
  if (!writes(a.acc)) return;
  const index_t dim = a.dat->dim();
  const T* in = st.buf.data() + static_cast<std::size_t>(l) * dim;
  const Acc<T> out = element_acc(a, e0 + l);
  if (a.acc == apl::exec::Access::kInc) {
    for (index_t d = 0; d < dim; ++d) out[d] += in[d];
  } else {
    for (index_t d = 0; d < dim; ++d) out[d] = in[d];
  }
}
template <class T>
void stage_scatter_lane(SimdGblStage<T>&, index_t, index_t) {}

template <class T>
Acc<T> lane_acc(SimdStage<T>& st, index_t l) {
  return Acc<T>(st.buf.data() + static_cast<std::size_t>(l) * st.a->dat->dim(),
                1);
}
template <class T>
Acc<T> lane_acc(SimdGblStage<T>& st, index_t /*l*/) {
  return Acc<T>(st.g->data, 1);
}

// Range form for tile slices. Pack grouping shifts with `lo`, but results
// do not depend on it: gathers stage either a live value no packmate
// writes (LoopRecord::simd_pack_safe gates the conflicting case to
// run_seq_range) or the kInc zero-identity, and scatters commit
// element-major — so lane arithmetic happens in ascending element order
// regardless of where packs begin, bitwise-matching the eager pass.
template <class Kernel, class... Args>
void run_simd_range(index_t lo, index_t hi, Kernel&& k, Args&... args) {
  auto stages = std::make_tuple(make_stage(args)...);
  for (index_t e0 = lo; e0 < hi; e0 += kSimdWidth) {
    index_t lanes = std::min<index_t>(kSimdWidth, hi - e0);
#ifdef APL_MUTATE_OP2_SIMD_TAIL
    // Mutation hook for the testkit smoke tests: drop the last lane of the
    // final pack, simulating a remainder-loop bug in the vectorizer.
    if (e0 + lanes >= hi) --lanes;
#endif
    std::apply(
        [&](auto&... st) {
          (stage_gather(st, e0, lanes), ...);
          for (index_t l = 0; l < lanes; ++l) {
            k(lane_acc(st, l)...);
          }
          for (index_t l = 0; l < lanes; ++l) {
            (stage_scatter_lane(st, e0, l), ...);
          }
        },
        stages);
  }
}

template <class Kernel, class... Args>
void run_simd(const Set& set, Kernel&& k, Args&... args) {
  run_simd_range(0, set.core_size(), k, args...);
}

// ---- cudasim backend --------------------------------------------------------

// Per-argument device staging for one thread block: the unique indirect
// elements the block touches, copied into a "shared memory" buffer. Mirrors
// OP2's CUDA plan-based staging (Fig. 7 STAGE_NOSOA).
template <class T>
struct CudaStage {
  ArgDat<T>* a;
  bool staged = false;
  std::vector<index_t> unique;        ///< global element ids
  std::vector<index_t> local_of;      ///< scratch: global -> local + 1
  apl::aligned_vector<T> buf;         ///< unique.size() * dim, AoS
};
template <class T>
struct CudaGblStage {
  ArgGbl<T>* g;
};

template <class T>
CudaStage<T> make_cuda_stage(ArgDat<T>& a, bool staging) {
  CudaStage<T> st;
  st.a = &a;
  st.staged = staging && a.map != nullptr;
  if (st.staged) st.local_of.assign(a.dat->set().size(), 0);
  return st;
}
template <class T>
CudaGblStage<T> make_cuda_stage(ArgGbl<T>& g, bool /*staging*/) {
  return {&g};
}

template <class T>
void cuda_stage_load(CudaStage<T>& st, const Plan& plan, index_t b) {
  if (!st.staged) return;
  const ArgDat<T>& a = *st.a;
  const index_t dim = a.dat->dim();
  st.unique.clear();
  for (index_t e = plan.block_offset[b]; e < plan.block_offset[b + 1]; ++e) {
    const index_t el = a.map->at(e, a.idx);
    if (st.local_of[el] == 0) {
      st.unique.push_back(el);
      st.local_of[el] = static_cast<index_t>(st.unique.size());
    }
  }
  st.buf.resize(st.unique.size() * static_cast<std::size_t>(dim));
  for (std::size_t u = 0; u < st.unique.size(); ++u) {
    T* out = st.buf.data() + u * dim;
    if (a.acc == apl::exec::Access::kInc) {
      std::fill_n(out, dim, T{});
    } else {
      const T* in = a.dat->entry(st.unique[u]);
      const std::ptrdiff_t s = a.dat->stride();
      for (index_t d = 0; d < dim; ++d) out[d] = in[d * s];
    }
  }
}
template <class T>
void cuda_stage_load(CudaGblStage<T>&, const Plan&, index_t) {}

template <class T>
void cuda_stage_store(CudaStage<T>& st) {
  if (!st.staged) return;
  const ArgDat<T>& a = *st.a;
  const index_t dim = a.dat->dim();
  for (std::size_t u = 0; u < st.unique.size(); ++u) {
    const T* in = st.buf.data() + u * dim;
    if (writes(a.acc)) {
      T* out = a.dat->entry(st.unique[u]);
      const std::ptrdiff_t s = a.dat->stride();
      if (a.acc == apl::exec::Access::kInc) {
        for (index_t d = 0; d < dim; ++d) out[d * s] += in[d];
      } else {
        for (index_t d = 0; d < dim; ++d) out[d * s] = in[d];
      }
    }
    st.local_of[st.unique[u]] = 0;  // reset scratch for the next block
  }
  if (!writes(a.acc)) {
    for (index_t el : st.unique) st.local_of[el] = 0;
  }
}
template <class T>
void cuda_stage_store(CudaGblStage<T>&) {}

template <class T>
Acc<T> cuda_acc(CudaStage<T>& st, index_t e) {
  if (!st.staged) return element_acc(*st.a, e);
  const index_t el = st.a->map->at(e, st.a->idx);
  return Acc<T>(st.buf.data() +
                    static_cast<std::size_t>(st.local_of[el] - 1) *
                        st.a->dat->dim(),
                1);
}
template <class T>
Acc<T> cuda_acc(CudaGblStage<T>& st, index_t /*e*/) {
  return Acc<T>(st.g->data, 1);
}

template <class Kernel, class... Args>
void run_cudasim(Context& ctx, const std::string& name, const Set& /*set*/,
                 const Plan& plan, Kernel&& k, Args&... args) {
  auto stages = std::make_tuple(make_cuda_stage(args, ctx.staging())...);
  // Grid execution: one "kernel launch" per block color; blocks of a color
  // are independent, elements inside a block commit in elem-color order.
  for (index_t c = 0; c < plan.num_block_colors; ++c) {
    apl::trace::Span color_span(apl::trace::kColor, name);
    if (color_span.active()) [[unlikely]] {
      color_span.set_index(c);
      color_span.set_elements(plan.blocks_by_color[c].size());
    }
    for (index_t b : plan.blocks_by_color[c]) {
      std::apply(
          [&](auto&... st) {
            (cuda_stage_load(st, plan, b), ...);
            const index_t begin = plan.block_offset[b];
            const index_t end = plan.block_offset[b + 1];
            for (index_t ec = 0; ec < std::max<index_t>(1, plan.block_elem_colors[b]);
                 ++ec) {
              for (index_t e = begin; e < end; ++e) {
                if (plan.elem_color[e] != ec) continue;
                k(cuda_acc(st, e)...);
              }
            }
            (cuda_stage_store(st), ...);
          },
          stages);
    }
  }
  (void)name;
}

/// Runs the whole of `set` under the context's backend: the eager driver
/// and a queued loop's unfused replay share this dispatch. `infos`
/// describes `args` (the colored backends key their plan on it).
template <class Kernel, class... Args>
void run_backend(Context& ctx, const std::string& name, const Set& set,
                 const std::vector<ArgInfo>& infos, Kernel&& k,
                 Args&... args) {
  switch (ctx.backend()) {
    case apl::exec::Backend::kSeq:
      run_seq(set, k, args...);
      break;
    case apl::exec::Backend::kSimd:
      run_simd(set, k, args...);
      break;
    case apl::exec::Backend::kThreads:
      run_threads(ctx, name, set, ctx.plan_for({name, &set, infos}), k,
                  args...);
      break;
    case apl::exec::Backend::kCudaSim:
      run_cudasim(ctx, name, set, ctx.plan_for({name, &set, infos}), k,
                  args...);
      break;
  }
}

}  // namespace detail

/// Executes `kernel` for every element of `set` under the Context's current
/// backend. Arguments are ArgDat/ArgGbl descriptors built with op2::arg /
/// op2::arg_gbl; the kernel receives one op2::Acc per argument, in order.
template <class Kernel, class... Args>
void par_loop(Context& ctx, const std::string& name, const Set& set,
              Kernel&& kernel, Args... args) {
  // Cancellation point: a deadline, stall verdict, or user cancel raises
  // here, at the loop boundary, where no plan state is half-built. The
  // same call heartbeats the thread's token for stall detection.
  apl::cancel::point(name.c_str());
  // Fault injection (kill_at_loop, corrupt_map): the test harness for the
  // recovery and guarded-validation paths. current() so a scheduler can
  // scope an injector to one job.
  apl::fault::Injector& injector = apl::fault::Injector::current();
  injector.on_loop();
  if (injector.armed()) ctx.apply_injected_faults();

  std::vector<ArgInfo> infos{args.info()...};

  // Guarded bounds revalidation: map rows this loop executes through are
  // range-checked against their target sets (declaration-time checks can
  // be invalidated by corruption after the fact).
  if (ctx.verifying(apl::verify::kBounds)) [[unlikely]] {
    detail::verify_loop_bounds(ctx, name, set, infos);
  }

  // Lazy mode: enqueue instead of executing (op2/lazy.hpp). Loops the
  // chain executor replays re-enter the backends below directly, never
  // this driver, so chain_executing() only guards the explicit
  // flush-then-run-eagerly paths. Checkpointing and access guarding want
  // to observe each loop as it runs: they drain the queue (order
  // preserved) and fall through to eager execution.
  if (ctx.lazy() && !ctx.chain_executing()) {
    const bool wants_eager = ctx.checkpointer() != nullptr ||
                             ctx.verifying(apl::verify::kAccess);
    if (wants_eager) {
      ctx.flush();
    } else {
      LoopRecord rec;
      rec.name = name;
      rec.set = &set;
      rec.n = set.core_size();
      rec.simd_pack_safe = detail::simd_pack_safe(infos);
      rec.infos = infos;
      // Globals are snapshotted now (apl::exec::freeze): the caller may
      // reuse a kRead variable before the flush, and a reduction's target
      // is written only by `commit`. Every executor shares the snapshots.
      auto frozen = std::make_shared<
          std::tuple<decltype(apl::exec::freeze(args))...>>(
          apl::exec::freeze(args)...);
      rec.run_full = [&ctx, name, sp = &set, kernel = kernel,
                      frozen]() mutable {
        std::apply(
            [&](auto&... fz) {
              auto run = [&](auto&&... as) {
                apl::trace::Span loop_span(apl::trace::kLoop, name);
                loop_span.set_elements(
                    static_cast<std::uint64_t>(sp->core_size()));
                const double t0 = apl::now_seconds();
                detail::run_backend(ctx, name, *sp, {as.info()...}, kernel,
                                    as...);
                // Seconds only: calls and traffic are accounted once per
                // loop at chain completion (lazy.cpp), and the stats entry
                // is resolved after the kernel per the ScopedLoopTimer
                // lifetime rule.
                ctx.profile().stats(name).seconds += apl::now_seconds() - t0;
              };
              run(apl::exec::thaw(fz)...);
            },
            *frozen);
      };
      rec.run_slice = [&ctx, name, pack_safe = rec.simd_pack_safe,
                       kernel = kernel,
                       frozen](index_t lo, index_t hi, index_t tile) {
        std::apply(
            [&](auto&... fz) {
              auto run = [&](auto&&... as) {
                apl::trace::Span tile_span(apl::trace::kTile, name);
                tile_span.set_elements(static_cast<std::uint64_t>(hi - lo));
                tile_span.set_index(lo);
                const double t0 = apl::now_seconds();
                // Fused tiles run slices in eager element order; only the
                // pack-safe SIMD case may group lanes (bitwise-neutral,
                // see run_simd_range). Same-color slices may run on team
                // members concurrently (op2/lazy.cpp's round executor).
                if (ctx.backend() == apl::exec::Backend::kSimd &&
                    pack_safe) {
                  detail::run_simd_range(lo, hi, kernel, as...);
                } else {
                  detail::run_seq_range(lo, hi, kernel, as...);
                }
                // add_seconds, not stats().seconds +=: concurrent members
                // would otherwise race on the map and lose increments.
                ctx.profile().add_seconds(name, apl::now_seconds() - t0);
              };
              run(apl::exec::thaw(fz, static_cast<std::size_t>(tile))...);
            },
            *frozen);
      };
      rec.split = [frozen](index_t ntiles) {
        apl::exec::split_all(*frozen, static_cast<std::size_t>(ntiles));
      };
      rec.commit = [frozen] { apl::exec::commit_all(*frozen); };
      // A reduction record flushes the chain, itself included, right here,
      // and commits its result once that chain completes.
      ctx.enqueue(std::move(rec));
      return;
    }
  }

  // Checkpointing: the recorder sees every loop; during fast-forward replay
  // the loop body is skipped and global outputs are restored from the log.
  if (Checkpointer* ck = ctx.checkpointer()) {
    if (ck->on_loop(name, infos) == Checkpointer::LoopAction::kSkipReplay) {
      const auto payload = ck->replay_gbl_payload();
      std::size_t gbl_index = 0;
      (apl::ckpt::replay_gbl(payload, args, gbl_index), ...);
      ck->finish_replayed_loop();
      return;
    }
  }

  // The loop span covers execution only (not accounting), so nested color
  // spans sit strictly inside it. Counters attach after accounting below.
  apl::trace::Span loop_span(apl::trace::kLoop, name);
  const std::uint64_t bytes_before =
      loop_span.active() ? ctx.profile().stats(name).bytes() : 0;
  if (ctx.verifying(apl::verify::kAccess)) [[unlikely]] {
    // Guarded access enforcement always executes the sequential schedule
    // (results stay bit-identical to unguarded runs; see op2/guard.hpp).
    apl::ScopedLoopTimer timer(ctx.profile(), name);
    detail::run_guarded_access(ctx, name, set, kernel, args...);
  } else {
    apl::ScopedLoopTimer timer(ctx.profile(), name);
    detail::run_backend(ctx, name, set, infos, kernel, args...);
  }
  // Resolve the stats entry only now: the kernel ran inside the timer
  // scope above and may have cleared the profile (see the ScopedLoopTimer
  // lifetime rule in apl/profile.hpp).
  apl::LoopStats& stats = ctx.profile().stats(name);
  detail::account_traffic(ctx, name, set, infos, stats);
  if (ctx.backend() == apl::exec::Backend::kCudaSim) {
    detail::account_device(ctx, name, set, infos, stats);
  }
  loop_span.set_elements(static_cast<std::uint64_t>(set.core_size()));
  if (stats.bytes() >= bytes_before) {
    loop_span.set_bytes(stats.bytes() - bytes_before);
  }

  if (Checkpointer* ck = ctx.checkpointer()) {
    std::vector<std::uint8_t> gbl_log;
    (apl::ckpt::log_gbl(args, gbl_log), ...);
    ck->after_loop(gbl_log);
  }
}

}  // namespace op2
