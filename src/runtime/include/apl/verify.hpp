// apl::verify — the guarded execution mode shared by both libraries.
//
// The active-library premise is that access descriptors tell the library
// everything about how a kernel touches data; guarded mode turns that
// declaration into an enforced contract. Checks are selected by a bitmask
// (per-context API or the OPAL_VERIFY environment variable) and each
// violation is recorded in the context's verify::Report and then thrown
// as an apl::Error naming the loop, the argument, and the declared vs
// observed behaviour:
//
//   OPAL_VERIFY=access,bounds ./airfoil_sim     # env selection
//   ctx.set_verify(apl::verify::kAccess | apl::verify::kPlan);  // API
//
// Check kinds:
//   access   kernels run against instrumented shadow copies; writes
//            through kRead args, reads of kWrite args before writing, and
//            non-additive kInc updates are detected per element
//   bounds   map tables are range-checked against their target set at
//            declaration, after renumbering/partitioning, and per loop
//   plan     every coloring plan is audited: no two same-color elements
//            may indirectly write the same target
//   halo     distributed loops verify each halo value read matches the
//            owner's current value (no stale-halo reads)
//   stencil  OPS accessors check every offset against the declared stencil
//
// The verify-off fast path is one integer test per check site; no
// allocation happens until the first violation is recorded.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "apl/error.hpp"

namespace apl::verify {

/// Check selection bits; combine with |.
enum Check : unsigned {
  kNone = 0u,
  kAccess = 1u << 0,
  kBounds = 1u << 1,
  kPlan = 1u << 2,
  kHalo = 1u << 3,
  kStencil = 1u << 4,
  kAll = kAccess | kBounds | kPlan | kHalo | kStencil,
};

const char* to_string(Check kind);

/// Parses a comma-separated check list ("access,bounds", "all", "off");
/// throws apl::Error on an unknown token, naming the valid spellings.
unsigned checks_from_string(std::string_view spec);

/// Check selection from the environment: parses OPAL_VERIFY, kNone when
/// unset or empty.
unsigned checks_from_env();

/// One aggregated violation record: the first detail message is kept and
/// `count` tracks how many times the same (loop, kind) pair fired.
struct Entry {
  std::string loop;
  Check kind = kNone;
  std::string detail;
  std::size_t count = 0;
};

/// Structured violation log carried by each ExecContext. Tests and CI
/// assert on entries(); the library's check sites call fail(), which both
/// records the violation and throws apl::Error with the same message.
class Report {
public:
  const std::vector<Entry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  /// Total number of violations recorded (sum of per-entry counts).
  std::size_t total() const;

  /// First entry matching the (loop, kind) pair; nullptr if none.
  const Entry* find(std::string_view loop, Check kind) const;

  /// Records a violation, merging with an existing (loop, kind) entry.
  /// Safe to call from concurrent team members (a checked threads-backend
  /// loop fails on several workers at once).
  void add(std::string_view loop, Check kind, std::string detail);

  /// Records the violation and throws apl::Error("verify(<kind>): ...").
  [[noreturn]] void fail(std::string_view loop, Check kind,
                         std::string detail);

private:
  std::vector<Entry> entries_;
  std::mutex mutex_;  ///< guards add() against concurrent team members
};

}  // namespace apl::verify
