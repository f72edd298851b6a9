// apl::resilience — the policy layer between fault detection and fault
// response.
//
// The distributed runtimes (`op2::Distributed`, `ops::Distributed`)
// detect two classes of failure through apl::fault:
//   * transient  — a message lost, duplicated, or corrupted in flight
//                  (`CommFault`): the exchange can be aborted and retried;
//   * permanent  — a rank died (`RankFailure`): the survivors must either
//                  wait for a revive (PR 2's collective rollback) or
//                  shrink the communicator and continue without it.
//
// This header owns the *decision*, not the mechanics: how many times to
// retry, with what (simulated, deterministic) backoff, and which rung of
// the degradation ladder to take for a dead rank:
//
//   retry  ->  shrink  ->  single-rank fallback  ->  LadderExhausted
//
// The policy is configured by `OPAL_RESILIENCE` through apl::config's
// shared spec dialect, e.g.
//   OPAL_RESILIENCE="retries=3,backoff=1e-3,rank_failure=shrink,fallback=1"
// and every knob has a safe default, so the ladder works out of the box.
//
// Backoff is *simulated*: the runtime records the delay it would have
// slept in the Traffic ledger instead of actually sleeping, which keeps
// kill-sweep tests fast while the ledger still accounts for recovery cost
// deterministically.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "apl/error.hpp"

namespace apl::resilience {

/// Response to a permanent rank loss.
enum class OnRankFailure {
  kShrink,  // re-rank survivors, repartition, restore from checkpoint
  kRevive,  // PR 2 semantics: revive the rank and roll everyone back
  kFail,    // no recovery: rethrow as a named error immediately
};

const char* to_string(OnRankFailure m);

struct Policy {
  int max_retries = 2;            // transient faults: retry budget per exchange
  double backoff_seconds = 1e-4;  // first retry's simulated delay
  double backoff_factor = 2.0;    // exponential growth per attempt
  OnRankFailure rank_failure = OnRankFailure::kShrink;
  int max_shrinks = 1 << 20;      // shrink budget (effectively unbounded)
  bool single_rank_fallback = true;  // last rung before LadderExhausted
};

/// Simulated delay before retry `attempt` (0-based): backoff_seconds *
/// backoff_factor^attempt. Deterministic by construction.
double backoff_delay(const Policy& p, int attempt);

/// Parses an OPAL_RESILIENCE spec. Keys: retries, backoff, backoff_factor,
/// rank_failure=shrink|revive|fail, max_shrinks, fallback=0|1. Malformed
/// values throw apl::Error; unknown keys warn once each and are appended
/// to `unknown` when non-null.
Policy parse_policy(std::string_view spec,
                    std::vector<std::string>* unknown = nullptr);

/// The policy in effect for the calling thread: a scoped per-thread
/// override when one is installed (see ScopedPolicy), else the
/// process-wide policy. First global access parses OPAL_RESILIENCE
/// (unset or empty means all defaults).
const Policy& policy();

/// Test hooks: install a specific process-wide policy / re-arm from the
/// environment.
void set_policy(const Policy& p);
void reset_policy();

/// RAII: installs `p` as the calling thread's policy for the scope's
/// lifetime (nullptr re-exposes the process-wide policy). This is what
/// gives a multi-tenant scheduler *per-job* resilience policies — one
/// job may shrink-and-continue while its neighbour fails fast, on the
/// same process-wide defaults.
class ScopedPolicy {
 public:
  explicit ScopedPolicy(const Policy* p);
  ~ScopedPolicy();
  ScopedPolicy(const ScopedPolicy&) = delete;
  ScopedPolicy& operator=(const ScopedPolicy&) = delete;

 private:
  const Policy* prev_;
};

/// Thrown when every rung of the degradation ladder has been consumed:
/// retries exhausted on a transient fault that keeps recurring, or a rank
/// loss that the policy forbids shrinking/falling back from. Reaching it
/// is a *named* outcome — never a hang, never a raw crash.
class LadderExhausted : public Error {
 public:
  explicit LadderExhausted(const std::string& what) : Error(what) {}
};

/// The rung of the degradation ladder a recovery ended on.
enum class Rung {
  kNone,       ///< no recovery was needed
  kRetry,      ///< transient fault absorbed by bounded retry
  kRevive,     ///< PR 2 semantics: revive + collective rollback
  kShrink,     ///< ULFM-style communicator shrink + repartition + restore
  kFallback,   ///< replicated single-rank fallback
  kExhausted,  ///< every rung consumed: terminal failure
};

const char* to_string(Rung r);

/// A recovery attempt's result *as data*: what the throwing path
/// (recover_auto / LadderExhausted) reports, but structured, so a job
/// scheduler or a driver can ledger terminal resilience failures without
/// parsing exception text. Produced by the dist layers' recover_outcome;
/// the throwing API remains for library users who prefer exceptions.
struct Outcome {
  bool ok = false;
  Rung rung = Rung::kNone;     ///< highest rung the recovery reached
  std::string error;           ///< diagnostic text ("" when ok)
  std::string error_kind;      ///< "LadderExhausted", "RankFailure", ... ("" when ok)
  std::int64_t resume_step = -1;  ///< checkpoint step resumed at (ok only)
  int retries = 0;             ///< transient retries during this recovery
  int shrinks = 0;             ///< communicator shrinks during this recovery
  double backoff_seconds = 0;  ///< simulated backoff accumulated
  double recovery_seconds = 0; ///< wall-clock recovery cost
  double mttr = 0;             ///< mean time to repair so far (ledger-wide)

  /// One-line human rendering ("recovered at rung shrink, step 40, ...").
  std::string summary() const;
};

}  // namespace apl::resilience
