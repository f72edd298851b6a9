// apl::trace — structured span recorder for the runtime (DESIGN.md §11).
//
// Every unit of runtime work — a par_loop invocation, one plan color round,
// one tile slice of a lazy chain flush, a halo exchange, a checkpoint write
// or rollback — is wrapped in a Span. Spans carry the thread id, the rank
// (when opened inside a rank-parallel section), and byte/element counters,
// and are exported as Chrome trace_event JSON (load into chrome://tracing
// or Perfetto) via OPAL_TRACE=out.json.
//
// Cost model: with tracing off, a Span is one relaxed atomic load and two
// untaken branches — nothing is allocated and no clock is read (bench: the
// BM_AirfoilTrace column in bench_micro, budget ≤2%). With tracing on,
// events append to a mutex-protected buffer; Span construction/destruction
// reads the same steady clock the profiler uses, so trace timestamps and
// Profile seconds share one timebase.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apl/profile.hpp"  // now_seconds(): shared timebase

namespace apl::trace {

// Span taxonomy (category strings; see DESIGN.md §11 for the contract of
// each). Categories are static strings so events never own them.
inline constexpr const char* kLoop = "loop";        ///< one par_loop call
inline constexpr const char* kColor = "color";      ///< one plan color round
inline constexpr const char* kChain = "chain";      ///< one lazy-chain flush
inline constexpr const char* kTile = "tile";        ///< one tile slice
inline constexpr const char* kHalo = "halo";        ///< halo exchange/transfer
inline constexpr const char* kCkpt = "ckpt";        ///< checkpoint write
inline constexpr const char* kRecover = "recover";  ///< rollback recovery
inline constexpr const char* kComm = "comm";        ///< mpisim collective
inline constexpr const char* kPlan = "plan";        ///< plan-cache hit/store

/// One completed span ("ph":"X" complete event in Chrome terms).
struct Event {
  std::string name;
  const char* cat = kLoop;
  double ts = 0.0;   ///< start, seconds on the apl::now_seconds() clock
  double dur = 0.0;  ///< duration, seconds
  std::uint32_t tid = 0;
  int rank = -1;  ///< -1 outside any rank-parallel section
  std::uint64_t bytes = 0;
  std::uint64_t elements = 0;
  std::int64_t index = -1;  ///< color/tile ordinal within the parent, if any
};

/// Process-global event buffer. Thread-safe: record() may be called
/// concurrently from pool workers; the enabled flag is a relaxed atomic so
/// the disabled fast path stays contention-free.
class Recorder {
 public:
  /// The global instance. First call reads OPAL_TRACE: when set, tracing
  /// is enabled and the buffer auto-exports to that path at process exit.
  static Recorder& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Path written at process exit (empty: no auto-export).
  std::string export_path() const;

  void record(Event e);
  void clear();
  std::size_t size() const;
  std::vector<Event> snapshot() const;

  /// Serialize the buffer as Chrome trace_event JSON. Ranks map to Chrome
  /// "processes" (pid = rank + 1; rank-less spans land on pid 0) so
  /// rank-parallel sections nest per-rank instead of interleaving.
  std::string chrome_json() const;
  void write_chrome_json(const std::string& path) const;

  /// Stable small integer id for the calling thread (0 = first caller).
  static std::uint32_t thread_id();
  /// Rank attribution of the calling thread (set via RankScope), -1 if none.
  static int current_rank();
  static void set_current_rank(int rank);

 private:
  Recorder() = default;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::string path_;
};

/// RAII rank attribution for spans opened inside a rank-parallel section.
/// The distributed layers wrap each per-rank sub-invocation in a RankScope
/// so nested spans (the rank's par_loop, its color rounds) carry the rank.
class RankScope {
 public:
  explicit RankScope(int rank) : prev_(Recorder::current_rank()) {
    Recorder::set_current_rank(rank);
  }
  ~RankScope() { Recorder::set_current_rank(prev_); }
  RankScope(const RankScope&) = delete;
  RankScope& operator=(const RankScope&) = delete;

 private:
  int prev_;
};

/// RAII span. Construct at the start of a unit of work, attach counters as
/// they become known, destruct to record. When tracing is disabled the
/// constructor is a single relaxed load and everything else is a no-op.
class Span {
 public:
  Span(const char* cat, std::string_view name) {
    Recorder& r = Recorder::global();
    if (!r.enabled()) return;
    on_ = true;
    ev_.name.assign(name);
    ev_.cat = cat;
    ev_.tid = Recorder::thread_id();
    ev_.rank = Recorder::current_rank();
    ev_.ts = now_seconds();
  }
  ~Span() {
    if (!on_) return;
    ev_.dur = now_seconds() - ev_.ts;
    Recorder::global().record(std::move(ev_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_bytes(std::uint64_t b) {
    if (on_) ev_.bytes = b;
  }
  void set_elements(std::uint64_t n) {
    if (on_) ev_.elements = n;
  }
  void set_index(std::int64_t i) {
    if (on_) ev_.index = i;
  }
  bool active() const { return on_; }

 private:
  bool on_ = false;
  Event ev_;
};

/// Validate a Chrome trace_event JSON document: parses `json` fully and
/// checks the schema ({"traceEvents": [...]}; every event an object with
/// string "name"/"cat"/"ph" (ph == "X"), numeric "ts"/"dur"/"pid"/"tid",
/// dur >= 0). Returns the empty string on success, else a diagnostic.
std::string validate_chrome_json(const std::string& json);

}  // namespace apl::trace
