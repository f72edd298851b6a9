#include "apl/io/plan_cache.hpp"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "apl/config.hpp"
#include "apl/error.hpp"
#include "apl/fault.hpp"
#include "apl/io/h5lite.hpp"
#include "apl/scope.hpp"
#include "apl/trace.hpp"

namespace apl::plan_cache {

namespace {

constexpr char kMagic[4] = {'O', 'P', 'I', 'R'};
constexpr std::uint32_t kContainerVersion = 1;
// magic | container_version | key.version | topology | program | config
// | payload_bytes | crc.
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 8 + 8 + 8 + 8 + 4;

void append_bytes(std::vector<std::uint8_t>& out, const void* p,
                  std::size_t n) {
  if (n == 0) return;  // p may be an empty vector's null data()
  const std::size_t pos = out.size();
  out.resize(pos + n);
  std::memcpy(out.data() + pos, p, n);
}

template <class T>
void append_pod(std::vector<std::uint8_t>& out, const T& v) {
  append_bytes(out, &v, sizeof(T));
}

template <class T>
T read_pod(std::span<const std::uint8_t> bytes, std::size_t off) {
  T v{};
  APL_ASSERT(off + sizeof(T) <= bytes.size(), "plan-cache header read");
  std::memcpy(&v, bytes.data() + off, sizeof(T));
  return v;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

void BlobWriter::section(std::uint32_t tag,
                         std::span<const std::uint8_t> bytes) {
  append_pod(buf_, tag);
  append_pod(buf_, static_cast<std::uint64_t>(bytes.size()));
  append_bytes(buf_, bytes.data(), bytes.size());
}

std::string decode_sections(std::span<const std::uint8_t> payload,
                            std::span<const SectionHandler> table,
                            std::span<const std::uint32_t> optional_tags) {
  std::vector<bool> seen(table.size(), false);
  std::size_t off = 0;
  while (off < payload.size()) {
    if (off + sizeof(std::uint32_t) + sizeof(std::uint64_t) > payload.size()) {
      return "plan-ir: truncated section header at byte " +
             std::to_string(off);
    }
    const auto tag = read_pod<std::uint32_t>(payload, off);
    const auto len =
        read_pod<std::uint64_t>(payload, off + sizeof(std::uint32_t));
    off += sizeof(std::uint32_t) + sizeof(std::uint64_t);
    if (len > payload.size() - off) {
      return "plan-ir: section tag " + std::to_string(tag) + " claims " +
             std::to_string(len) + " bytes but only " +
             std::to_string(payload.size() - off) + " remain";
    }
    const std::span<const std::uint8_t> body(payload.data() + off,
                                             static_cast<std::size_t>(len));
    off += static_cast<std::size_t>(len);
    bool dispatched = false;
    for (std::size_t i = 0; i < table.size(); ++i) {
      if (table[i].tag != tag) continue;
      dispatched = true;
      seen[i] = true;
      if (!table[i].handle(body)) {
        return "plan-ir: handler rejected section tag " + std::to_string(tag);
      }
      break;
    }
    if (!dispatched) {
      return "plan-ir: unknown section tag " + std::to_string(tag);
    }
  }
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (seen[i]) continue;
    bool optional = false;
    for (std::uint32_t t : optional_tags) optional |= (t == table[i].tag);
    if (!optional) {
      return "plan-ir: required section tag " +
             std::to_string(table[i].tag) + " missing";
    }
  }
  return {};
}

Store& Store::global() {
  static Store store = [] {
    Store s;
    if (const auto dir = apl::config::string_value("OPAL_PLAN_CACHE");
        dir && !dir->empty()) {
      s.set_directory(*dir);
    }
    return s;
  }();
  return store;
}

namespace {
thread_local Store* t_store = nullptr;

// The runtime's scope snapshot (apl/scope.hpp) cannot name Store — io
// links against the runtime, not the other way round — so the store
// extends it through the hook registry: capture the calling thread's
// override (an unowned pointer smuggled through the aliasing
// constructor), install it on each team member as a ScopedStore. Invoked
// lazily from every path that touches the thread-local override; a
// namespace-scope registrar in a static library could be stripped with
// its object file.
void ensure_scope_hook() {
  static const bool registered = [] {
    apl::scope::register_hook(apl::scope::Hook{
        [] { return std::shared_ptr<void>(std::shared_ptr<void>{}, t_store); },
        [](const std::shared_ptr<void>& state) -> std::shared_ptr<void> {
          return std::make_shared<Store::ScopedStore>(
              static_cast<Store*>(state.get()));
        }});
    return true;
  }();
  (void)registered;
}
}  // namespace

Store& Store::current() {
  ensure_scope_hook();
  return t_store != nullptr ? *t_store : global();
}

Store::ScopedStore::ScopedStore(Store* store) : prev_(t_store) {
  ensure_scope_hook();
  t_store = store;
}
Store::ScopedStore::~ScopedStore() { t_store = prev_; }

void Store::set_directory(std::string dir) {
  dir_ = std::move(dir);
  stats_ = Stats{};
  last_diagnostic_.clear();
}

std::string Store::entry_name(const Key& key) {
  return std::string(key.kind) + "-" + hex64(key.topology) + "-" +
         hex64(key.program) + "-" + hex64(key.config) + "-v" +
         std::to_string(key.version) + ".plan";
}

std::optional<std::vector<std::uint8_t>> Store::load(const Key& key) {
  if (!enabled()) return std::nullopt;
  const std::string path = dir_ + "/" + entry_name(key);
  auto miss = [&](const std::string& why, bool corrupt) {
    last_diagnostic_ = "plan-cache[" + std::string(key.kind) +
                       (key.label.empty() ? "" : ":" + key.label) + "] " + why;
    ++(corrupt ? stats_.corrupt : stats_.misses);
    return std::nullopt;
  };

  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) return miss("no entry '" + entry_name(key) + "'", false);
  const std::streamsize size = is.tellg();
  is.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  is.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!is && size != 0) return miss("read of '" + path + "' failed", true);

  if (bytes.size() < kHeaderBytes) {
    return miss("truncated header (" + std::to_string(bytes.size()) +
                    " bytes)",
                true);
  }
  if (std::memcmp(bytes.data(), kMagic, 4) != 0) {
    return miss("bad magic", true);
  }
  if (read_pod<std::uint32_t>(bytes, 4) != kContainerVersion) {
    return miss("container version mismatch", true);
  }
  if (read_pod<std::uint32_t>(bytes, 8) != key.version ||
      read_pod<std::uint64_t>(bytes, 12) != key.topology ||
      read_pod<std::uint64_t>(bytes, 20) != key.program ||
      read_pod<std::uint64_t>(bytes, 28) != key.config) {
    return miss("key mismatch in header", true);
  }
  const auto payload_bytes = read_pod<std::uint64_t>(bytes, 36);
  const auto crc = read_pod<std::uint32_t>(bytes, 44);
  if (payload_bytes != bytes.size() - kHeaderBytes) {
    return miss("truncated payload (" +
                    std::to_string(bytes.size() - kHeaderBytes) + " of " +
                    std::to_string(payload_bytes) + " bytes)",
                true);
  }
  const std::span payload(bytes.data() + kHeaderBytes,
                          static_cast<std::size_t>(payload_bytes));
  if (io::crc32(payload) != crc) {
    return miss("payload CRC mismatch", true);
  }

  last_diagnostic_.clear();
  ++stats_.hits;
  return std::vector<std::uint8_t>(payload.begin(), payload.end());
}

void Store::save(const Key& key, std::span<const std::uint8_t> payload) {
  if (!enabled()) return;
  apl::trace::Span span(apl::trace::kPlan,
                        "plan_store:" + std::string(key.kind) +
                            (key.label.empty() ? "" : ":" + key.label));

  std::vector<std::uint8_t> blob;
  blob.reserve(kHeaderBytes + payload.size());
  append_bytes(blob, kMagic, 4);
  append_pod(blob, kContainerVersion);
  append_pod(blob, key.version);
  append_pod(blob, key.topology);
  append_pod(blob, key.program);
  append_pod(blob, key.config);
  append_pod(blob, static_cast<std::uint64_t>(payload.size()));
  append_pod(blob, io::crc32(payload));
  append_bytes(blob, payload.data(), payload.size());

  // The CRC above covers the clean payload; injected bitrot lands after,
  // so the next load of this entry must detect the mismatch.
  auto& inj = fault::Injector::current();
  if (const std::int64_t off = inj.plan_cache_corrupt_offset(); off >= 0) {
    const std::size_t at = kHeaderBytes + static_cast<std::size_t>(off);
    if (at < blob.size()) {
      blob[at] ^= 0x01;
      inj.consume_plan_cache_corrupt();
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  require(!ec, "plan-cache: cannot create directory '", dir_,
          "': ", ec.message());

  const std::string final_path = dir_ + "/" + entry_name(key);
  // Pid-unique tmp name: concurrent ranks writing the same key must not
  // scribble into each other's half-written files before the rename.
  const std::string tmp =
      final_path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    require(static_cast<bool>(os), "plan-cache: cannot open '", tmp,
            "' for writing");
    os.write(reinterpret_cast<const char*>(blob.data()),
             static_cast<std::streamsize>(blob.size()));
    os.flush();
    require(static_cast<bool>(os), "plan-cache: write to '", tmp, "' failed");
  }
  std::filesystem::rename(tmp, final_path, ec);
  require(!ec, "plan-cache: rename '", tmp, "' -> '", final_path,
          "' failed: ", ec.message());

  ++stats_.stores;
  span.set_bytes(blob.size());
}

}  // namespace apl::plan_cache
