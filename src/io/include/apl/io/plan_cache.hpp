// apl::plan_cache — the on-disk store for serialized Plan IR blobs
// (DESIGN.md §12).
//
// The inspector/executor split pays a real analysis cost at first touch:
// OP2 colors a plan per (loop, set, args, block size), OPS analyzes a
// lazy chain per flush signature. That work depends only on structure —
// mesh topology, dat layouts, the loop program, the tiling config — so
// its result can be paid once per machine and reloaded by every later
// process. This store persists each analysis result as one file:
//
//   <dir>/<kind>-<topology>-<program>-<config>-v<version>.plan
//
// Blob layout (fixed header, then the IR payload):
//
//   magic "OPIR" | u32 container_version | u32 key.version
//   | u64 key.topology | u64 key.program | u64 key.config
//   | u64 payload_bytes | u32 crc32(payload) | payload
//
// The payload itself is a tagged section stream — u32 tag | u64 length |
// bytes — decoded through a caller-supplied dispatch table (one handler
// per section tag), so a deserialized plan is *executed from the IR*
// without consulting the code that produced it. Unknown tags, short
// sections, header mismatches, CRC failures: every defect turns into a
// named diagnostic and a miss, never a crash — the caller falls back to
// a fresh inspector run and overwrites the bad entry.
//
// Writes reuse the CheckpointStore durability idiom: serialize to
// <file>.tmp.<pid>, flush, then atomically rename over the final name.
// Concurrent ranks producing the same key race benignly (last writer
// wins with identical content); a crash mid-write leaves only tmp
// litter, never a torn final file.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apl/trace.hpp"

namespace apl::plan_cache {

/// Canonical identity of one analysis result. `kind` separates IR
/// families ("op2" colored plans vs "ops" chain schedules); the three
/// hashes are apl::signature digests of what the analysis consumed; and
/// `version` is the IR format version — bump it when the serialization
/// changes and every stale entry invalidates itself.
struct Key {
  const char* kind = "";
  std::uint64_t topology = 0;  ///< mesh/grid structure + dat layouts
  std::uint64_t program = 0;   ///< loop(s) + args + analysis parameters
  std::uint64_t config = 0;    ///< backend, tiling config, rank partition
  std::uint32_t version = 0;   ///< IR format version of this kind
  std::string label;           ///< human-readable tag for diagnostics only
};

// --- IR payload framing ----------------------------------------------------

/// Serializes a payload as tagged sections. Tags are 32-bit constants
/// owned by the IR producer; lengths are explicit so a decoder can skip
/// or reject sections without understanding them.
class BlobWriter {
 public:
  void section(std::uint32_t tag, std::span<const std::uint8_t> bytes);

  /// Convenience: a section holding a span of trivially copyable values.
  template <class T>
  void section_of(std::uint32_t tag, std::span<const T> values) {
    section(tag, {reinterpret_cast<const std::uint8_t*>(values.data()),
                  values.size() * sizeof(T)});
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// One dispatch-table entry: the decoder calls `handle` for each section
/// carrying `tag`. Return false (or throw nothing — just return false)
/// to reject the section and fail the decode.
struct SectionHandler {
  std::uint32_t tag = 0;
  std::function<bool(std::span<const std::uint8_t>)> handle;
};

/// Walks a tagged section stream, dispatching each section to the
/// matching handler. Returns the empty string on success, else a named
/// diagnostic (unknown tag, truncated section, handler rejection). Every
/// registered handler must fire at least once unless `optional_tags`
/// lists its tag.
std::string decode_sections(std::span<const std::uint8_t> payload,
                            std::span<const SectionHandler> table,
                            std::span<const std::uint32_t> optional_tags = {});

/// Bounds-checked reader for fixed-layout section payloads.
class SectionReader {
 public:
  explicit SectionReader(std::span<const std::uint8_t> bytes) : b_(bytes) {}

  /// Copies the next sizeof(T) bytes into `out`; false on underrun.
  template <class T>
  bool pod(T* out) {
    if (off_ + sizeof(T) > b_.size()) return false;
    std::memcpy(out, b_.data() + off_, sizeof(T));
    off_ += sizeof(T);
    return true;
  }

  /// Copies a whole section tail of T values; false when the remaining
  /// byte count is not an exact multiple of sizeof(T).
  template <class T>
  bool rest(std::vector<T>* out) {
    const std::size_t n = b_.size() - off_;
    if (n % sizeof(T) != 0) return false;
    out->resize(n / sizeof(T));
    if (n != 0) std::memcpy(out->data(), b_.data() + off_, n);
    off_ = b_.size();
    return true;
  }

  bool done() const { return off_ == b_.size(); }

 private:
  std::span<const std::uint8_t> b_;
  std::size_t off_ = 0;
};

// --- the store -------------------------------------------------------------

/// Hit/miss accounting, exposed for tests and bench_report
/// --check-plan-cache.
struct Stats {
  std::uint64_t hits = 0;     ///< load() returned a payload
  std::uint64_t misses = 0;   ///< no entry on disk
  std::uint64_t corrupt = 0;  ///< entry present but failed validation
  std::uint64_t stores = 0;   ///< save() wrote an entry
};

class Store {
 public:
  /// The process-global store, configured once from OPAL_PLAN_CACHE (via
  /// apl::config): unset/empty disables it; otherwise the value is the
  /// cache directory, created on first save.
  static Store& global();

  /// The store plan_for() actually consults: the calling thread's scoped
  /// override when one is installed (see ScopedStore), else global().
  /// A multi-tenant scheduler uses this to give each job its own cache
  /// namespace, so one job's corrupted entry can never poison another's
  /// warm start.
  static Store& current();

  /// RAII: installs `store` as the calling thread's current store for
  /// the scope's lifetime (nullptr re-exposes global()). Scopes nest.
  class ScopedStore {
   public:
    explicit ScopedStore(Store* store);
    ~ScopedStore();
    ScopedStore(const ScopedStore&) = delete;
    ScopedStore& operator=(const ScopedStore&) = delete;

   private:
    Store* prev_;
  };

  Store() = default;
  explicit Store(std::string dir) { set_directory(std::move(dir)); }

  /// Enables the store rooted at `dir` (empty disables). Resets stats.
  void set_directory(std::string dir);
  const std::string& directory() const { return dir_; }
  bool enabled() const { return !dir_.empty(); }

  /// Loads and fully validates the entry for `key`. Any defect — missing
  /// file, short header, bad magic, version or hash mismatch, CRC
  /// failure — returns nullopt and records a diagnostic retrievable via
  /// last_diagnostic(); the caller re-runs the inspector.
  std::optional<std::vector<std::uint8_t>> load(const Key& key);

  /// Persists `payload` for `key` (atomic tmp+flush+rename; last writer
  /// wins). Honors the corrupt_plan_cache fault trigger: the configured
  /// payload byte has one bit flipped *after* the CRC is computed. A
  /// disabled store ignores the call.
  void save(const Key& key, std::span<const std::uint8_t> payload);

  /// Filename (without directory) an entry for `key` persists under.
  static std::string entry_name(const Key& key);

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  /// Records an IR-level decode failure found by the caller *after* a
  /// successful container load — the blob was readable but its payload
  /// did not decode to a valid plan. Counts toward `corrupt`.
  void note_corrupt(const std::string& diagnostic) {
    ++stats_.corrupt;
    last_diagnostic_ = diagnostic;
  }

  /// Why the most recent load() missed ("" after a hit). Named
  /// diagnostics let tests distinguish "cold" from "corrupt".
  const std::string& last_diagnostic() const { return last_diagnostic_; }

 private:
  std::string dir_;
  Stats stats_;
  std::string last_diagnostic_;
};

// --- load or build -----------------------------------------------------------

/// The load-or-build sequence every plan_for shares, run after the
/// caller's own memo missed: load `key` from `store` and decode it, or —
/// on a miss, or a container-valid but IR-invalid payload (a hash
/// collision, a builder bug), which is noted as corruption — run the
/// inspector and persist its result. A hit is spanned as `hit_prefix` +
/// key.label, carrying `elements`; `build` opens its own span. A disabled
/// store goes straight to `build`.
///
///   decode(payload, &diag) -> std::optional<Plan>
///   build()                -> Plan
///   encode(const Plan&)    -> bytes
template <class Plan, class Decode, class Build, class Encode>
std::unique_ptr<Plan> load_or_build(Store& store, const Key& key,
                                    const char* hit_prefix,
                                    std::uint64_t elements, Decode&& decode,
                                    Build&& build, Encode&& encode) {
  if (store.enabled()) {
    if (auto payload = store.load(key)) {
      trace::Span span(trace::kPlan, hit_prefix + key.label);
      std::string diag;
      if (auto decoded = decode(*payload, &diag)) {
        span.set_elements(elements);
        span.set_bytes(payload->size());
        return std::make_unique<Plan>(std::move(*decoded));
      }
      store.note_corrupt(diag);
    }
  }
  auto plan = std::make_unique<Plan>(build());
  if (store.enabled()) store.save(key, encode(*plan));
  return plan;
}

}  // namespace apl::plan_cache
