// The unified execution API shared by the OP2 (unstructured) and OPS
// (structured) front ends.
//
// Both active libraries expose the same run-time execution surface: an
// access-mode vocabulary for loop arguments, a backend enum naming the
// "generated" per-platform loop structures, a string/environment parser
// for backend selection, and a common Context base carrying the execution
// configuration (backend, guarded checking through apl::verify, lazy
// execution, per-loop profile and flop hints). `op2::Context` and
// `ops::Context` derive from ExecContext, so application code configures
// either library through one spelling:
//
//   ctx.set_backend(apl::exec::backend_from_env());
//   ctx.set_lazy(true);      // queue loops, flush at synchronization points
//   ...
//   ctx.flush();             // explicit flush point
//   ctx.profile().report();
//
// These are the only spellings: the per-library aliases (`op2::Access`,
// `op2::Backend`) that existed for one deprecation release are gone.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "apl/profile.hpp"
#include "apl/verify.hpp"

namespace apl::exec {

/// How a kernel accesses an argument. kMin/kMax apply to global reduction
/// arguments only.
enum class Access { kRead, kWrite, kInc, kRW, kMin, kMax };

/// The target-specific parallelizations the "code generator" (the par_loop
/// templates) can produce — the generated per-platform source files of the
/// paper's Fig. 1:
///   kSeq     — human-readable single-threaded reference (debugging); the
///              compiler auto-vectorizes it where the loop allows, so
///              there is no separate vectorized backend
///   kThreads — OpenMP-style execution (colored plan / row splitting)
///   kCudaSim — the CUDA execution strategy run on host with a device
///              timing model
/// The distributed-memory (MPI) layer composes with these node-level
/// backends, as in the real libraries. The values are pinned: op2 hashes
/// them into persisted plan-cache keys, so a renumbering would let a
/// cached entry be read under another backend's key.
enum class Backend { kSeq = 0, kThreads = 2, kCudaSim = 3 };

const char* to_string(Access a);
const char* to_string(Backend b);

/// True if the kernel observes the previous value (needs valid input data).
inline bool reads(Access a) {
  return a == Access::kRead || a == Access::kRW || a == Access::kInc ||
         a == Access::kMin || a == Access::kMax;
}
/// True if the kernel modifies the value.
inline bool writes(Access a) { return a != Access::kRead; }

/// Starting value of a global reduction's partials (op2 and ops, every
/// backend and the distributed layers).
template <class T>
T reduction_identity(Access acc) {
  switch (acc) {
    case Access::kMin: return std::numeric_limits<T>::max();
    case Access::kMax: return std::numeric_limits<T>::lowest();
    default: return T{};
  }
}

/// Folds consecutive blocks of `dim` reduction partials into `into`, in
/// ascending block order — the one combine order of every partials holder
/// (see GblSnapshot below).
template <class T>
void fold_partials(Access acc, std::size_t dim, const std::vector<T>& partials,
                   T* into) {
  for (std::size_t i = 0; i < partials.size(); ++i) {
    T& out = into[i % dim];
    switch (acc) {
      case Access::kInc: out += partials[i]; break;
      case Access::kMin: out = std::min(out, partials[i]); break;
      case Access::kMax: out = std::max(out, partials[i]); break;
      default: break;
    }
  }
}

// ---- reduction partials: hold / freeze / split / thaw / commit ------------
//
// Every parallel schedule gives a global reduction private partials per
// *work unit* — a plan block (op2 threads backend), a fixed run of indices
// of the parallel outer dimension (ops threads backend), a fused-walk tile
// (the lazy engines) or a rank (the distributed layers) — never per
// thread, so the result does not depend on which team member ran which
// unit, nor on the team size. hold() wraps a global for an eager
// schedule: a kRead global reaches the kernel as the caller's pointer.
// freeze() also snapshots it, for a queued loop: a kRead global reads its
// snapshot, and a reduction accumulates into it. split() gives a
// reduction `units` blocks of identity-initialised partials; thaw(s, u)
// is the argument unit `u` runs on. commit() folds the partials in
// ascending unit order into the snapshot, then stores the result in the
// caller's target (without a snapshot it folds into the target directly;
// the distributed layers allreduce them instead,
// apl::mpisim::allreduce_commit). A queued loop runs after its par_loop
// returns and its global may point into the caller's stack, so the lazy
// engines call commit() only once the chain has completed inside that
// par_loop (apl::chain::Engine::enqueue). Dataset and index arguments
// pass through every step unchanged.

template <class Arg>
concept GlobalArg = requires(const Arg& a) {
  a.data;
  a.dim;
  a.acc;
};

template <GlobalArg Gbl>
struct GblSnapshot {
  using T = std::remove_cvref_t<decltype(*std::declval<Gbl>().data)>;
  Gbl g;  ///< as the caller passed it: `data` is the target
  std::vector<T> snap;
  std::vector<T> partials;  ///< after split: `dim` values per work unit

  bool reduces() const { return g.acc != Access::kRead; }
};

template <class Arg>
auto hold(const Arg& a) {
  if constexpr (GlobalArg<Arg>) {
    return GblSnapshot<Arg>{a, {}, {}};
  } else {
    return a;
  }
}

template <class Arg>
auto freeze(const Arg& a) {
  auto s = hold(a);
  if constexpr (GlobalArg<Arg>) {
    if (a.data != nullptr) s.snap.assign(a.data, a.data + a.dim);
  }
  return s;
}

/// Gives a reduction `units` blocks of identity-initialised partials;
/// other arguments ignore it.
template <class Arg>
void split(Arg&, std::size_t) {}
template <class Gbl>
void split(GblSnapshot<Gbl>& s, std::size_t units) {
  if (!s.reduces()) return;
  s.partials.assign(
      units * static_cast<std::size_t>(s.g.dim),
      reduction_identity<typename GblSnapshot<Gbl>::T>(s.g.acc));
}

/// The argument work unit `unit` runs on (0 when not split). A global is
/// a fresh copy pointing at the unit's partials, else at its snapshot,
/// else (held, kRead) at the caller's data, so concurrent units share no
/// mutable state and a reduction never writes the caller's target.
template <class Arg>
Arg& thaw(Arg& a, std::size_t /*unit*/ = 0) {
  return a;
}
template <class Gbl>
Gbl thaw(GblSnapshot<Gbl>& s, std::size_t unit = 0) {
  Gbl g = s.g;
  if (!s.partials.empty()) {
    g.data = s.partials.data() + unit * static_cast<std::size_t>(g.dim);
  } else if (!s.snap.empty()) {
    g.data = s.snap.data();
  }
  return g;
}

/// Stores a completed reduction in the caller's target, folding any
/// partials in ascending unit order into the snapshot (if frozen) or the
/// target (if held).
template <class Arg>
void commit(Arg&) {}
template <class Gbl>
void commit(GblSnapshot<Gbl>& s) {
  if (!s.reduces()) return;
  fold_partials(s.g.acc, static_cast<std::size_t>(s.g.dim), s.partials,
                s.snap.empty() ? s.g.data : s.snap.data());
  s.partials.clear();
  std::copy(s.snap.begin(), s.snap.end(), s.g.data);
}

/// split / commit over a tuple of frozen arguments, as the schedules
/// hold them.
template <class Frozen>
void split_all(Frozen& frozen, std::size_t units) {
  std::apply([&](auto&... a) { (split(a, units), ...); }, frozen);
}
template <class Frozen>
void commit_all(Frozen& frozen) {
  std::apply([](auto&... a) { (commit(a), ...); }, frozen);
}

/// Parses a backend name ("seq", "threads", "cudasim"); std::nullopt if
/// the spelling is unknown.
std::optional<Backend> backend_from_string(std::string_view name);

/// Backend selection from the environment: reads APL_BACKEND, returns
/// `fallback` when it is unset or empty, and throws apl::Error naming the
/// value when it is not a backend name.
Backend backend_from_env(Backend fallback = Backend::kSeq);

/// Execution configuration common to both libraries' Contexts: backend
/// selection, consistency checking, lazy loop-chain execution, the
/// per-loop profile and flop hints. Derived contexts that support delayed
/// execution override do_flush(); for the others set_lazy() is accepted
/// but loops execute eagerly and flush() is a no-op.
class ExecContext {
public:
  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;
  virtual ~ExecContext() = default;

  Backend backend() const { return backend_; }
  void set_backend(Backend b) { backend_ = b; }

  /// Lazy execution: par_loop enqueues a loop record instead of running
  /// it; the queued chain executes at a flush point (explicit flush(), a
  /// global reduction, raw data access, or a halo exchange). Turning lazy
  /// off flushes any queued work first.
  bool lazy() const { return lazy_; }
  virtual void set_lazy(bool on) {
    if (lazy_ && !on) do_flush();
    lazy_ = on;
  }
  /// Explicit flush point: executes any queued loop chain.
  void flush() { do_flush(); }

  /// Optional flops-per-element hint for a named loop; feeds the profile
  /// and through it the machine models (compute-heavy kernels are
  /// otherwise modelled as pure streaming).
  void hint_flops(const std::string& loop, double flops_per_element) {
    flop_hints_[loop] = flops_per_element;
  }
  double flops_hint(const std::string& loop) const {
    const auto it = flop_hints_.find(loop);
    return it == flop_hints_.end() ? 0.0 : it->second;
  }

  apl::Profile& profile() { return profile_; }
  const apl::Profile& profile() const { return profile_; }

  /// Cumulative seconds spent acquiring execution plans — inspector runs,
  /// chain analysis, and plan-cache encode/decode alike. The cold-vs-warm
  /// delta of this counter is the amortization the plan cache buys
  /// (bench_report --check-plan-cache gates it per app; perfbench reports
  /// it as op2.plan_s / ops.plan_s).
  double plan_seconds() const { return plan_seconds_; }
  void add_plan_seconds(double s) { plan_seconds_ += s; }

  /// Guarded execution mode: a bitmask of apl::verify::Check values, the
  /// one switch that checks kernels against their declarations (kAccess,
  /// kStencil, ...). Initialized from OPAL_VERIFY at context construction;
  /// the off state costs one integer test per check site and never
  /// allocates.
  unsigned verify_checks() const { return verify_checks_; }
  void set_verify(unsigned mask) { verify_checks_ = mask; }
  bool verifying(verify::Check kind) const {
    return (verify_checks_ & kind) != 0;
  }

  /// Violations recorded by guarded execution (each is also thrown as an
  /// apl::Error at the point of detection).
  verify::Report& verify_report() { return verify_report_; }
  const verify::Report& verify_report() const { return verify_report_; }

protected:
  virtual void do_flush() {}

private:
  Backend backend_ = Backend::kSeq;
  bool lazy_ = false;
  unsigned verify_checks_ = verify::checks_from_env();
  verify::Report verify_report_;
  std::map<std::string, double> flop_hints_;
  apl::Profile profile_;
  double plan_seconds_ = 0.0;
};

}  // namespace apl::exec
