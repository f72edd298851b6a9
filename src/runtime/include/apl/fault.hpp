// apl::fault — deterministic fault injection for the resilience layer.
//
// The runtime consults a process-global Injector at a small set of
// instrumented points (par_loop entry, checkpoint writes, halo-exchange
// starts). Faults are configured by API (`Injector::arm`) or environment
// (`OPAL_FAULTS="kill_at_loop=12,corrupt_dataset=q@64"`), and every
// trigger is deterministic: the same configuration produces the same
// failure at the same point on every run, which is what lets the tests
// assert bit-identical recovery instead of "it usually works".
//
// Supported triggers (comma-separated key=value spec):
//   kill_at_loop=N          throw Kill before the Nth par_loop call (0-based)
//   kill_at_ckpt_byte=K     persist K bytes of a checkpoint save, then Kill
//   truncate_checkpoint=K   silently drop checkpoint bytes past offset K
//                           (a torn write without a crash signal)
//   corrupt_dataset=name@B  flip a bit of byte B of dataset `name`'s payload
//                           inside the next checkpoint written (bitrot that
//                           the CRC must catch on load)
//   corrupt_map=name@I      overwrite entry I of OP2 map `name` with an
//                           out-of-range index at the next par_loop (memory
//                           corruption that guarded bounds checking catches)
//   fail_rank=R@M           kill simulated rank R at the Mth halo exchange
//   corrupt_plan_cache=B    flip a bit of payload byte B in the next plan-IR
//                           blob the plan cache persists (the warm load must
//                           catch the CRC mismatch and rebuild fresh)
//   drop_msg=N              silently lose the Nth Comm::send process-wide
//                           (0-based; the exchange detects and retries)
//   dup_msg=N               deliver the Nth Comm::send twice
//   corrupt_msg=N           flip a payload bit of the Nth Comm::send (the
//                           receiver's checksum catches it)
//   hang_at_loop=N          before the Nth par_loop, stop making progress:
//                           spin (no heartbeats) until the thread's cancel
//                           token fires — the watchdog's stall/deadline
//                           verdict is what ends it — then raise the
//                           cancellation at that point
//   seed=S                  recorded for reproducibility bookkeeping
//
// The spec is parsed through apl::config's shared spec dialect; unknown
// trigger names warn (once each) instead of aborting, so an OPAL_FAULTS
// written for a newer build degrades loudly but does not brick the run.
// Each trigger fires exactly once and then disarms itself, so a restarted
// run (same process, tests) does not re-crash at the same point.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apl/error.hpp"

namespace apl::fault {

/// Thrown when an injected crash fires: models the process dying at an
/// instrumented point. Applications/tests catch it where a real system
/// would re-exec and restart from the last checkpoint.
class Kill : public Error {
 public:
  explicit Kill(const std::string& what) : Error(what) {}
};

/// Thrown when communication touches a failed simulated rank.
class RankFailure : public Error {
 public:
  RankFailure(int rank, const std::string& what) : Error(what), rank_(rank) {}
  int rank() const { return rank_; }

 private:
  int rank_;
};

/// Thrown by the simulated communicator when a message-level fault is
/// detected: a send lost, duplicated, or corrupted in flight. This is the
/// *transient* class of the resilience taxonomy — the failed exchange can
/// be aborted and retried, unlike a RankFailure, which is permanent.
class CommFault : public Error {
 public:
  explicit CommFault(const std::string& what) : Error(what) {}
};

/// Parsed fault plan; -1 / empty means "trigger not armed".
struct Config {
  std::int64_t kill_at_loop = -1;
  std::int64_t kill_at_ckpt_byte = -1;
  std::int64_t truncate_checkpoint = -1;
  std::string corrupt_dataset;
  std::int64_t corrupt_byte = -1;
  std::string corrupt_map;
  std::int64_t corrupt_map_index = -1;
  int fail_rank = -1;
  std::int64_t fail_at_exchange = -1;
  std::int64_t corrupt_plan_cache = -1;
  std::int64_t drop_msg = -1;
  std::int64_t dup_msg = -1;
  std::int64_t corrupt_msg = -1;
  std::int64_t hang_at_loop = -1;
  std::uint64_t seed = 0;
};

/// Parses the OPAL_FAULTS spec (apl::config's shared key=value dialect).
/// Malformed values throw apl::Error; unknown trigger names are warned
/// about (once each) and appended to `unknown` when non-null, so tooling
/// and tests can observe exactly what was ignored.
Config parse_config(std::string_view spec,
                    std::vector<std::string>* unknown = nullptr);

class Injector {
 public:
  /// The process-wide injector. On first access, arms itself from the
  /// OPAL_FAULTS environment variable if it is set and non-empty.
  static Injector& global();

  /// The injector the instrumented points consult: the calling thread's
  /// scoped override when one is installed (see Scope), else global().
  /// This is what gives a multi-tenant scheduler *per-job* fault
  /// isolation — each job runs under its own injector with its own
  /// trigger state and ordinal counters, and a fault armed for one job
  /// can never fire inside another.
  static Injector& current();

  /// RAII: installs `inj` as the calling thread's current injector for
  /// the scope's lifetime (nullptr re-exposes global()). Scopes nest.
  class Scope {
   public:
    explicit Scope(Injector* inj);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Injector* prev_;
  };

  void arm(Config c);
  void disarm();
  bool armed() const { return armed_; }
  const Config& config() const { return cfg_; }

  // --- instrumented points -------------------------------------------------

  /// Called at the top of every op2/ops par_loop; throws Kill when the
  /// loop ordinal reaches kill_at_loop, and enters the injected hang at
  /// hang_at_loop (ends only through cooperative cancellation).
  void on_loop() {
    const std::int64_t ordinal = loops_++;
    if (!armed_) return;
    if (cfg_.kill_at_loop == ordinal) kill_loop(ordinal);
    if (cfg_.hang_at_loop == ordinal) hang_loop(ordinal);
  }

  /// Called by mpisim at the start of each halo exchange; returns the rank
  /// to fail at this exchange, if any (the comm layer marks it dead).
  std::optional<int> on_exchange();
  std::int64_t exchanges_seen() const { return exchanges_; }

  /// Message-level fault to apply to this Comm::send, counted process-wide
  /// in send order. Each trigger is one-shot, like every other trigger.
  enum class SendFault { kNone, kDrop, kDuplicate, kCorrupt };
  SendFault on_send();

  // Checkpoint-write triggers: the store reads them at the start of a save
  // and calls the consume_* methods once the fault has been applied, so
  // each fires exactly once.
  std::int64_t ckpt_kill_offset() const {
    return armed_ ? cfg_.kill_at_ckpt_byte : -1;
  }
  std::int64_t ckpt_truncate_offset() const {
    return armed_ ? cfg_.truncate_checkpoint : -1;
  }
  /// Returns {dataset name, byte offset} of the payload byte to corrupt.
  std::optional<std::pair<std::string, std::int64_t>> corrupt_target() const;
  /// Returns {map name, table index} of the map entry to corrupt in place
  /// (the OP2 runtime applies it at the next par_loop; guarded bounds
  /// checking is what catches the damage).
  std::optional<std::pair<std::string, std::int64_t>> corrupt_map_target()
      const;
  /// Payload byte whose bit the plan cache must flip in its next saved
  /// blob, or -1. The store applies it after computing the CRC, so the
  /// next load of that entry sees bitrot the checksum catches.
  std::int64_t plan_cache_corrupt_offset() const {
    return armed_ ? cfg_.corrupt_plan_cache : -1;
  }
  void consume_ckpt_kill() { cfg_.kill_at_ckpt_byte = -1; }
  void consume_ckpt_truncate() { cfg_.truncate_checkpoint = -1; }
  void consume_corrupt() { cfg_.corrupt_dataset.clear(); cfg_.corrupt_byte = -1; }
  void consume_corrupt_map() {
    cfg_.corrupt_map.clear();
    cfg_.corrupt_map_index = -1;
  }
  void consume_plan_cache_corrupt() { cfg_.corrupt_plan_cache = -1; }

 private:
  [[noreturn]] void kill_loop(std::int64_t ordinal);
  [[noreturn]] void hang_loop(std::int64_t ordinal);

  Config cfg_;
  bool armed_ = false;
  std::int64_t loops_ = 0;
  std::int64_t exchanges_ = 0;
  std::int64_t sends_ = 0;
};

}  // namespace apl::fault
