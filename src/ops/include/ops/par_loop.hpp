// ops::par_loop — per-backend "generated" loop structures for structured
// blocks (Fig. 1's platform-specific files, as template instantiations).
//
// Because OPS kernels may only write the centre point, every grid point of
// a loop is independent: the threads backend splits the outermost
// dimension over the pool with no coloring, and the cudasim backend tiles
// the range into thread blocks whose x-consecutive lanes produce the
// coalesced transactions the device model prices.
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "apl/cancel.hpp"
#include "apl/fault.hpp"
#include "apl/profile.hpp"
#include "apl/thread_pool.hpp"
#include "apl/trace.hpp"
#include "ops/acc.hpp"
#include "ops/arg.hpp"
#include "ops/checkpoint.hpp"
#include "ops/context.hpp"
#include "ops/guard.hpp"
#include "ops/lazy.hpp"

namespace ops {

namespace detail {

// ---- validation ------------------------------------------------------------

void validate_range(Context& ctx, const std::string& name, const Block& block,
                    const Range& range, const std::vector<ArgInfo>& infos);

/// Accounts useful traffic + flop hints + the cudasim device-time model.
void account(Context& ctx, const std::string& name, const Range& range,
             const std::vector<ArgInfo>& infos, apl::LoopStats& stats);

// ---- per-point kernel parameters -------------------------------------------

struct Cursor {
  int idx[kMaxDim];
};

template <class T>
Acc<T> point_param(ArgDat<T>& a, const Cursor& c) {
  Dat<T>& d = *a.dat;
  return Acc<T>(d.at(c.idx[0], c.idx[1], c.idx[2]), d.stride(0) * d.dim(),
                d.stride(1) * d.dim(), d.stride(2) * d.dim(), d.dim(),
                a.checked ? &a.chk : nullptr);
}

template <class T>
T* point_param(ArgGbl<T>& g, const Cursor&) {
  return g.data;
}

// ---- stencil-check arming (apl::verify::kStencil) ---------------------------

// A violation is recorded in the context's verify report, then thrown.
template <class T>
void arm_check(ArgDat<T>& a, const std::string& loop, bool on,
               apl::verify::Report& rep) {
  a.checked = on;
  if (on) {
    a.chk = StencilCheck{a.stencil, loop.c_str(), a.dat->name().c_str(), &rep};
  }
}
template <class T>
void arm_check(ArgGbl<T>&, const std::string&, bool, apl::verify::Report&) {}
inline void arm_check(ArgIdx&, const std::string&, bool,
                      apl::verify::Report&) {}

// ---- execution -------------------------------------------------------------

/// Fewest grid points in one threads-backend work unit (execute_loop):
/// enough that a unit's span setup is noise beside its kernel calls.
inline constexpr std::size_t kUnitPoints = 1024;

// Per-row hoisted state of a dataset argument: the row base pointer is
// computed once per (j, k) row and bumped by the x stride per point —
// the loop structure OPS's real code generator emits. Keeping it in stack
// locals (never address-escaped) lets the compiler hold it in registers
// across the kernel call.
template <class T>
struct RowState {
  T* p = nullptr;
  std::ptrdiff_t sx, sy, sz;
  index_t dim;
  const StencilCheck* chk;
};

template <class T>
RowState<T> make_row_state(ArgDat<T>& a) {
  Dat<T>& d = *a.dat;
  return {nullptr, d.stride(0) * d.dim(), d.stride(1) * d.dim(),
          d.stride(2) * d.dim(), d.dim(), a.checked ? &a.chk : nullptr};
}

// The `Checked` flag is a compile-time constant: in the unchecked
// instantiation the accessor is constructed with a literal null check
// pointer, the per-access stencil-validation branch constant-folds away,
// and the inner loop compiles to the same code a hand-written loop nest
// does (this is worth >2x on light kernels).
template <class T>
std::nullptr_t make_row_state(ArgGbl<T>&) {
  return nullptr;
}

// The indices an arg_idx kernel parameter points at. Held in the calling
// worker's row state, never in the (shared) argument: threads-backend
// workers run one ArgIdx concurrently.
struct IdxState {
  std::array<int, kMaxDim> buf{};
};
inline IdxState make_row_state(ArgIdx&) { return {}; }

template <class T>
void row_begin(RowState<T>& rs, ArgDat<T>& a, index_t i, index_t j,
               index_t kk) {
  rs.p = a.dat->at(i, j, kk);
}
template <class T>
void row_begin(std::nullptr_t, ArgGbl<T>&, index_t, index_t, index_t) {}
inline void row_begin(IdxState&, ArgIdx&, index_t, index_t, index_t) {}

template <class T>
Acc<T> row_param(RowState<T>& rs, ArgDat<T>&, const Cursor&) {
  return Acc<T>(rs.p, rs.sx, rs.sy, rs.sz, rs.dim, nullptr);
}
template <class T>
T* row_param(std::nullptr_t, ArgGbl<T>& g, const Cursor& c) {
  return point_param(g, c);
}
inline const int* row_param(IdxState& st, ArgIdx& a, const Cursor& c) {
  for (int d = 0; d < kMaxDim; ++d) st.buf[d] = c.idx[d] + a.offset[d];
  return st.buf.data();
}

template <class T>
void row_advance(RowState<T>& rs) {
  rs.p += rs.sx;
}
inline void row_advance(std::nullptr_t) {}
inline void row_advance(IdxState&) {}

/// Checked-path parameter: a per-point accessor carrying the stencil
/// check, or the indices written into this call's own row state.
template <class S, class A>
decltype(auto) checked_param(S& st, A& a, const Cursor& c) {
  if constexpr (std::is_same_v<A, ArgIdx>) {
    return row_param(st, a, c);
  } else {
    return point_param(a, c);
  }
}

/// Runs the kernel over a sub-range (fast path: the accessor carries a
/// compile-time-null check pointer). `flatten` forces the kernel and
/// accessors to inline so the loop compiles to the plain nest OPS's real
/// code generator would emit — without it the accessor's dead validation
/// branch survives and costs >2x on light kernels.
template <class Kernel, class... Args>
#if defined(__GNUC__)
[[gnu::flatten]]
#endif
void run_span(const Range& r, index_t out_lo, index_t out_hi, int out_dim,
              Kernel&& k, Args&... args) {
  Cursor c{{r.lo[0], r.lo[1], r.lo[2]}};
  c.idx[out_dim] = out_lo;
  // Iterate with the outer dimension restricted to [out_lo, out_hi).
  Range local = r;
  local.lo[out_dim] = out_lo;
  local.hi[out_dim] = out_hi;
  auto states = std::make_tuple(make_row_state(args)...);
  for (int kk = local.lo[2]; kk < local.hi[2]; ++kk) {
    for (int jj = local.lo[1]; jj < local.hi[1]; ++jj) {
      std::apply(
          [&](auto&... st) {
            (row_begin(st, args, local.lo[0], jj, kk), ...);
            c.idx[1] = jj;
            c.idx[2] = kk;
            for (int ii = local.lo[0]; ii < local.hi[0]; ++ii) {
              c.idx[0] = ii;
              k(row_param(st, args, c)...);
              (row_advance(st), ...);
            }
          },
          states);
    }
  }
}

/// Slow path used only under apl::verify::kStencil: per-point accessors
/// carrying the stencil-validation state.
template <class Kernel, class... Args>
void run_span_checked(const Range& r, index_t out_lo, index_t out_hi,
                      int out_dim, Kernel&& k, Args&... args) {
  Cursor c{{r.lo[0], r.lo[1], r.lo[2]}};
  Range local = r;
  local.lo[out_dim] = out_lo;
  local.hi[out_dim] = out_hi;
  auto states = std::make_tuple(make_row_state(args)...);
  for (int kk = local.lo[2]; kk < local.hi[2]; ++kk) {
    for (int jj = local.lo[1]; jj < local.hi[1]; ++jj) {
      for (int ii = local.lo[0]; ii < local.hi[0]; ++ii) {
        c.idx[0] = ii;
        c.idx[1] = jj;
        c.idx[2] = kk;
        std::apply(
            [&](auto&... st) { k(checked_param(st, args, c)...); }, states);
      }
    }
  }
}

/// Backend dispatch.
template <bool Checked, class Kernel, class... Args>
void execute_loop(Context& ctx, const Range& range, int out_dim,
                  Kernel&& kernel, Args&... args) {
  const auto span = [&](index_t lo, index_t hi, auto&... as) {
    if constexpr (Checked) {
      run_span_checked(range, lo, hi, out_dim, kernel, as...);
    } else {
      run_span(range, lo, hi, out_dim, kernel, as...);
    }
  };
  switch (ctx.backend()) {
    case Backend::kSeq:
    case Backend::kSimd:     // structured loops are unit-stride along x and
                             // auto-vectorize — kSimd is kSeq here
    case Backend::kCudaSim:  // same host execution; device model in account()
      span(range.lo[out_dim], range.hi[out_dim], args...);
      break;
    case Backend::kThreads: {
      // The work unit is a run of whole indices of the parallel dimension
      // covering at least kUnitPoints points, sized from the range alone:
      // a reduction's partials fold in unit order for every team size.
      index_t extent = range.hi[out_dim] - range.lo[out_dim];
      const std::size_t per_index = std::max<std::size_t>(
          1, range.points() /
                 static_cast<std::size_t>(std::max<index_t>(1, extent)));
      const auto rows =
          static_cast<index_t>((kUnitPoints + per_index - 1) / per_index);
#ifdef APL_MUTATE_OPS_RANGE_TAIL
      // Mutation hook for the testkit smoke tests: drop the last row of the
      // partitioned dimension in the threads backend only (kSeq keeps the
      // full range, so the differential oracle sees the divergence).
      if (extent > 0) --extent;
#endif
      const std::size_t nunits =
          extent > 0 ? static_cast<std::size_t>((extent + rows - 1) / rows)
                     : 0;
      const index_t lo = range.lo[out_dim];
      auto units = std::make_tuple(apl::exec::hold(args)...);
      apl::exec::split_all(units, nunits);
      apl::ThreadPool::global().parallel_for(
          nunits, [&](std::size_t b, std::size_t e) {
            std::apply(
                [&](auto&... u) {
                  for (std::size_t i = b; i < e; ++i) {
                    const index_t ulo = lo + static_cast<index_t>(i) * rows;
                    const index_t uhi = std::min(ulo + rows, lo + extent);
                    const auto run = [&](auto&&... as) {
                      span(ulo, uhi, as...);
                    };
                    run(apl::exec::thaw(u, i)...);
                  }
                },
                units);
          });
      apl::exec::commit_all(units);
      break;
    }
  }
}

// The checkpoint classifier treats a kWrite dat as "reconstructed by
// re-running the chain from the entry loop". Whether a given iteration
// range actually qualifies depends on what has been written to the dat
// since the checkpointer attached, so the decision — and the per-dat
// dirty-region bookkeeping behind it — lives in
// Checkpointer::classify_write; this shim just routes each dat argument
// through it (globals and index args carry no dat state).
template <class T>
void classify_ckpt_write(Checkpointer& ck, const Range& range,
                         const ArgDat<T>& a, ArgInfo& info) {
  info.acc =
      ck.classify_write(info.dat_id, info.acc, range, a.dat->block().ndim());
}
template <class T>
void classify_ckpt_write(Checkpointer&, const Range&, const ArgGbl<T>&,
                         ArgInfo&) {}
inline void classify_ckpt_write(Checkpointer&, const Range&, const ArgIdx&,
                                ArgInfo&) {}

}  // namespace detail

/// Executes `kernel` on every point of `range` of `block` under the
/// Context's backend. Arguments are ops::arg / ops::arg_gbl / ops::arg_idx.
///
/// Under Context::set_lazy(true) the loop is instead recorded into the
/// context's loop chain (ops/lazy.hpp) and runs — tiled across the whole
/// chain — at the next flush point. Loops carrying a global reduction
/// still return with the reduction complete: they enqueue, then flush the
/// chain up to and including themselves.
template <class Kernel, class... Args>
void par_loop(Context& ctx, const std::string& name, const Block& block,
              const Range& range, Kernel&& kernel, Args... args) {
  // Cancellation point first (deadline/stall/user cancel raises at the
  // loop boundary), then fault injection — current() so a scheduler can
  // scope an injector to one job.
  apl::cancel::point(name.c_str());
  apl::fault::Injector::current().on_loop();

  std::vector<ArgInfo> infos{args.info()...};
  detail::validate_range(ctx, name, block, range, infos);

  // Checkpointing: the recorder sees every loop in program order (at
  // enqueue time under the lazy engine). While a checkpoint is being
  // placed the queued chain drains before each loop, so payloads packed at
  // classification time are loop-entry values; during fast-forward replay
  // the loop is skipped (never enqueued) and its recorded global outputs
  // are restored from the log.
  if (Checkpointer* ck = ctx.checkpointer()) {
    if (ck->wants_eager()) ctx.flush();
    // A kWrite that does not re-establish the dat's whole post-attach
    // dirty region reads-modifies it from the classifier's point of view
    // (see Checkpointer::classify_write).
    std::vector<ArgInfo> ck_infos = infos;
    std::size_t ck_i = 0;
    (detail::classify_ckpt_write(*ck, range, args, ck_infos[ck_i++]), ...);
    if (ck->on_loop(name, ck_infos) == Checkpointer::LoopAction::kSkipReplay) {
      const auto payload = ck->replay_gbl_payload();
      std::size_t gbl_index = 0;
      (apl::ckpt::replay_gbl(payload, args, gbl_index), ...);
      ck->finish_replayed_loop();
      return;
    }
  }

  // kAccess diffs whole allocations around a single loop body, which is
  // meaningless once loops are fused into a tiled chain — under the guard
  // this loop runs eagerly, after whatever is already queued.
  const bool guard_access = ctx.verifying(apl::verify::kAccess);
  if (guard_access && ctx.lazy() && !ctx.chain_executing()) ctx.flush();

  if (ctx.lazy() && !ctx.chain_executing() && !guard_access) {
    LoopRecord rec;
    rec.name = name;
    rec.block = &block;
    rec.range = range;
    rec.infos = infos;
    // Globals are snapshotted now (apl::exec::freeze); a reduction's
    // target is written only by `commit`, which the engine calls once the
    // chain completes inside this par_loop.
    auto frozen =
        std::make_shared<std::tuple<decltype(apl::exec::freeze(args))...>>(
            apl::exec::freeze(args)...);
    rec.run = [&ctx, name, nd = block.ndim(), kernel = kernel,
               frozen](const Range& sub) mutable {
      std::apply(
          [&](auto&... fr) {
            const auto invoke = [&](auto&&... as) {
              const bool checked = ctx.verifying(apl::verify::kStencil);
              (detail::arm_check(as, name, checked, ctx.verify_report()),
               ...);
              int out_dim = nd - 1;
              while (out_dim > 0 && sub.hi[out_dim] - sub.lo[out_dim] <= 1) {
                --out_dim;
              }
              apl::trace::Span tile_span(apl::trace::kTile, name);
              tile_span.set_elements(sub.points());
              const double t0 = apl::now_seconds();
              if (checked) {
                detail::execute_loop<true>(ctx, sub, out_dim, kernel, as...);
              } else {
                detail::execute_loop<false>(ctx, sub, out_dim, kernel, as...);
              }
              // Only wall time per tile slice; calls and bytes are
              // accounted once per recorded loop by the chain executor.
              // The stats entry is resolved after the kernel ran: user code
              // may clear the profile mid-loop (lifetime rule, profile.hpp).
              ctx.profile().stats(name).seconds += apl::now_seconds() - t0;
            };
            invoke(apl::exec::thaw(fr)...);
          },
          *frozen);
    };
    rec.commit = [frozen] { apl::exec::commit_all(*frozen); };
    // A reduction record flushes the chain, itself included, right here,
    // and commits its result, so logged global outputs are final; kRead
    // globals log nothing.
    ctx.enqueue(std::move(rec));
    if (Checkpointer* ck = ctx.checkpointer()) {
      std::vector<std::uint8_t> gbl_log;
      (apl::ckpt::log_gbl(args, gbl_log), ...);
      ck->after_loop(gbl_log);
    }
    return;
  }

  const bool checked = ctx.verifying(apl::verify::kStencil);
  (detail::arm_check(args, name, checked, ctx.verify_report()), ...);

  // The outermost dimension with extent > 1 is the parallel one.
  int out_dim = block.ndim() - 1;
  while (out_dim > 0 && range.hi[out_dim] - range.lo[out_dim] <= 1) {
    --out_dim;
  }
  apl::trace::Span loop_span(apl::trace::kLoop, name);
  loop_span.set_elements(range.points());
  {
    apl::ScopedLoopTimer timer(ctx.profile(), name);
    if (guard_access) [[unlikely]] {
      // Snapshot every kRead argument, run, then bitwise-diff: any change
      // is a write through a read-only declaration. Dats some other
      // argument declares written are exempt (aliased update_halo idiom).
      std::vector<index_t> written;
      for (const ArgInfo& ai : infos) {
        if (!ai.is_gbl && !ai.is_idx && writes(ai.acc)) {
          written.push_back(ai.dat_id);
        }
      }
      const auto snaps =
          std::make_tuple(detail::guard_snapshot(args, written)...);
      if (checked) {
        detail::execute_loop<true>(ctx, range, out_dim, kernel, args...);
      } else {
        detail::execute_loop<false>(ctx, range, out_dim, kernel, args...);
      }
      [&]<std::size_t... I>(std::index_sequence<I...>) {
        (detail::guard_diff(ctx, name, static_cast<int>(I), args,
                            std::get<I>(snaps)),
         ...);
      }(std::index_sequence_for<Args...>{});
    } else if (checked) {
      detail::execute_loop<true>(ctx, range, out_dim, kernel, args...);
    } else {
      detail::execute_loop<false>(ctx, range, out_dim, kernel, args...);
    }
  }
  // Resolved only now: the kernel may have cleared the profile (see the
  // ScopedLoopTimer lifetime rule in apl/profile.hpp).
  apl::LoopStats& stats = ctx.profile().stats(name);
  const std::uint64_t bytes_before = stats.bytes();
  detail::account(ctx, name, range, infos, stats);
  loop_span.set_bytes(stats.bytes() - bytes_before);

  if (Checkpointer* ck = ctx.checkpointer()) {
    std::vector<std::uint8_t> gbl_log;
    (apl::ckpt::log_gbl(args, gbl_log), ...);
    ck->after_loop(gbl_log);
  }
}

}  // namespace ops
