#include "apl/io/ckpt.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "apl/config.hpp"
#include "apl/error.hpp"
#include "apl/fault.hpp"
#include "apl/trace.hpp"

namespace apl::io {

namespace {

constexpr std::array<char, 4> kSlotMagic = {'O', 'C', 'K', 'P'};
constexpr std::array<char, 4> kManifestMagic = {'O', 'M', 'F', 'S'};
constexpr std::uint32_t kVersion = 1;

// Slot file: magic | u32 version | u64 seq | u64 payload_bytes |
//            u32 crc32(payload) | payload.
constexpr std::size_t kSlotHeaderBytes = 4 + 4 + 8 + 8 + 4;
// Manifest: magic | u32 version | u64 seq | u32 slot | u32 crc32(prefix).
constexpr std::size_t kManifestBytes = 4 + 4 + 8 + 4 + 4;

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
  APL_ASSERT(off + sizeof(T) <= bytes.size(), "checkpoint header read");
  std::memcpy(&v, bytes.data() + off, sizeof(T));
  return v;
}

std::vector<std::uint8_t> read_all(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  require(static_cast<bool>(is), "checkpoint: cannot open '", path, "'");
  const std::streamsize size = is.tellg();
  is.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  is.read(reinterpret_cast<char*>(bytes.data()), size);
  require(static_cast<bool>(is) || size == 0, "checkpoint: read of '", path,
          "' failed");
  return bytes;
}

// Writes `bytes` to `tmp` then renames it over `final_path`. The fault
// injector sees the write as a byte stream starting at `stream_offset`
// (offsets are global across the slot file and the manifest of one save):
//   - kill_at_ckpt_byte in range: the prefix is flushed to the tmp file and
//     Kill is thrown — the final path is never touched, exactly like a
//     process dying before rename.
//   - truncate_checkpoint in range: only the prefix is written but the
//     rename still happens — a torn file at the final path, like a rename
//     that survived a power loss whose data blocks did not.
void write_atomic(const std::string& final_path,
                  std::span<const std::uint8_t> bytes,
                  std::uint64_t stream_offset) {
  auto& inj = fault::Injector::current();
  std::size_t n = bytes.size();
  bool kill_after = false;
  const std::int64_t kill = inj.ckpt_kill_offset();
  const std::int64_t trunc = inj.ckpt_truncate_offset();
  const auto lo = static_cast<std::int64_t>(stream_offset);
  const auto hi = static_cast<std::int64_t>(stream_offset + bytes.size());
  if (kill >= lo && kill < hi) {
    n = static_cast<std::size_t>(kill - lo);
    kill_after = true;
  } else if (trunc >= lo && trunc < hi) {
    n = static_cast<std::size_t>(trunc - lo);
    inj.consume_ckpt_truncate();
  }

  const std::string tmp = final_path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    require(static_cast<bool>(os), "checkpoint: cannot open '", tmp,
            "' for writing");
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(n));
    os.flush();
    require(static_cast<bool>(os), "checkpoint: write to '", tmp, "' failed");
  }
  if (kill_after) {
    inj.consume_ckpt_kill();
    throw fault::Kill("fault injection: killed writing checkpoint byte " +
                      std::to_string(kill) + " of '" + final_path + "'");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, final_path, ec);
  require(!ec, "checkpoint: rename '", tmp, "' -> '", final_path,
          "' failed: ", ec.message());
}

}  // namespace

CheckpointStore::CheckpointStore(std::string base) : base_(std::move(base)) {
  require(!base_.empty(), "checkpoint: empty base path");
  for (int s = 0; s < 2; ++s) {
    const Probe p = probe_slot(s, nullptr);
    if (p.valid && (cur_slot_ < 0 || p.seq > cur_seq_)) {
      cur_seq_ = p.seq;
      cur_slot_ = s;
    }
  }
}

std::string CheckpointStore::slot_path(int slot) const {
  APL_ASSERT(slot == 0 || slot == 1, "slot index");
  return base_ + (slot == 0 ? ".a" : ".b");
}

void CheckpointStore::save(const File& file) {
  apl::trace::Span span(apl::trace::kCkpt, "ckpt_save:" + base_);
  auto& inj = fault::Injector::current();
  std::vector<std::uint8_t> payload = file.serialize();

  // Compute the CRC over the *clean* payload, then apply injected bitrot:
  // the load path must notice the mismatch and fall back.
  const std::uint32_t crc = crc32(payload);
  if (auto target = inj.corrupt_target()) {
    if (auto off = dataset_payload_offset(payload, target->first)) {
      const std::size_t at = *off + static_cast<std::size_t>(target->second);
      if (at < payload.size()) {
        payload[at] ^= 0x01;
        inj.consume_corrupt();
      }
    }
  }

  const std::uint64_t seq = cur_seq_ + 1;
  const int slot = cur_slot_ == 0 ? 1 : 0;

  std::vector<std::uint8_t> slot_bytes;
  slot_bytes.reserve(kSlotHeaderBytes + payload.size());
  append_bytes(slot_bytes, kSlotMagic.data(), kSlotMagic.size());
  append_pod(slot_bytes, kVersion);
  append_pod(slot_bytes, seq);
  append_pod(slot_bytes, static_cast<std::uint64_t>(payload.size()));
  append_pod(slot_bytes, crc);
  append_bytes(slot_bytes, payload.data(), payload.size());

  write_atomic(slot_path(slot), slot_bytes, 0);
  // The new generation is durable from here on, even if the manifest
  // update below never happens (load probes both slots).
  cur_seq_ = seq;
  cur_slot_ = slot;

  std::vector<std::uint8_t> mf;
  mf.reserve(kManifestBytes);
  append_bytes(mf, kManifestMagic.data(), kManifestMagic.size());
  append_pod(mf, kVersion);
  append_pod(mf, seq);
  append_pod(mf, static_cast<std::uint32_t>(slot));
  append_pod(mf, crc32(std::span(mf.data(), mf.size())));

  write_atomic(manifest_path(), mf, slot_bytes.size());
  last_write_bytes_ = slot_bytes.size() + mf.size();
  span.set_bytes(last_write_bytes_);
}

CheckpointStore::Probe CheckpointStore::probe_slot(int slot, File* out) const {
  Probe p;
  const std::string path = slot_path(slot);
  if (!std::filesystem::exists(path)) return p;
  try {
    const std::vector<std::uint8_t> bytes = read_all(path);
    if (bytes.size() < kSlotHeaderBytes) return p;
    if (std::memcmp(bytes.data(), kSlotMagic.data(), 4) != 0) return p;
    if (read_pod<std::uint32_t>(bytes, 4) != kVersion) return p;
    const auto seq = read_pod<std::uint64_t>(bytes, 8);
    const auto payload_bytes = read_pod<std::uint64_t>(bytes, 16);
    const auto crc = read_pod<std::uint32_t>(bytes, 24);
    if (payload_bytes != bytes.size() - kSlotHeaderBytes) return p;
    const std::span payload(bytes.data() + kSlotHeaderBytes,
                            static_cast<std::size_t>(payload_bytes));
    if (crc32(payload) != crc) return p;
    if (out != nullptr) *out = File::parse(payload, path);
    p.valid = true;
    p.seq = seq;
  } catch (const Error&) {
    p = Probe{};
  }
  return p;
}

CheckpointStore::Probe CheckpointStore::read_manifest() const {
  Probe p;
  const std::string path = manifest_path();
  if (!std::filesystem::exists(path)) return p;
  try {
    const std::vector<std::uint8_t> bytes = read_all(path);
    if (bytes.size() != kManifestBytes) return p;
    if (std::memcmp(bytes.data(), kManifestMagic.data(), 4) != 0) return p;
    if (read_pod<std::uint32_t>(bytes, 4) != kVersion) return p;
    const auto crc = read_pod<std::uint32_t>(bytes, kManifestBytes - 4);
    if (crc32(std::span(bytes.data(), kManifestBytes - 4)) != crc) return p;
    p.seq = read_pod<std::uint64_t>(bytes, 8);
    const auto slot = read_pod<std::uint32_t>(bytes, 16);
    if (slot > 1) return Probe{};
    p.slot = static_cast<int>(slot);
    p.valid = true;
  } catch (const Error&) {
    p = Probe{};
  }
  return p;
}

File CheckpointStore::load() const {
  apl::trace::Span span(apl::trace::kRecover, "ckpt_load:" + base_);
  // Manifest first (fast path), then probe both slots: a save killed
  // between the slot rename and the manifest rename leaves a stale
  // manifest but a newer valid slot.
  File out;
  const Probe mf = read_manifest();
  if (mf.valid) {
    const int slot = mf.slot;
    const Probe p = probe_slot(slot, &out);
    if (p.valid && p.seq == mf.seq) {
      if (check_finite_enabled()) check_finite(out, slot_path(slot));
      return out;
    }
  }
  int best_slot = -1;
  std::uint64_t best_seq = 0;
  for (int s = 0; s < 2; ++s) {
    const Probe p = probe_slot(s, nullptr);
    if (p.valid && (best_slot < 0 || p.seq > best_seq)) {
      best_slot = s;
      best_seq = p.seq;
    }
  }
  require(best_slot >= 0, "checkpoint: no valid checkpoint at '", base_,
          "' (both slots missing, torn, or corrupt)");
  const Probe p = probe_slot(best_slot, &out);
  APL_ASSERT(p.valid, "slot validated then failed to parse");
  if (check_finite_enabled()) check_finite(out, slot_path(best_slot));
  return out;
}

bool CheckpointStore::any_valid() const {
  return probe_slot(0, nullptr).valid || probe_slot(1, nullptr).valid;
}

std::uint64_t CheckpointStore::latest_seq() const {
  std::uint64_t seq = 0;
  for (int s = 0; s < 2; ++s) {
    const Probe p = probe_slot(s, nullptr);
    if (p.valid && p.seq > seq) seq = p.seq;
  }
  return seq;
}

void CheckpointStore::remove_files() const {
  for (const std::string& p :
       {slot_path(0), slot_path(1), manifest_path(), slot_path(0) + ".tmp",
        slot_path(1) + ".tmp", manifest_path() + ".tmp"}) {
    std::error_code ec;
    std::filesystem::remove(p, ec);
  }
}

void check_finite(const File& file, const std::string& origin) {
  for (const auto& [name, ds] : file.all()) {
    auto scan = [&](const auto* vals, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        require(std::isfinite(static_cast<double>(vals[i])),
                "checkpoint: non-finite value in dataset '", name,
                "' (element ", i, ") of '", origin, "'");
      }
    };
    if (ds.dtype == DType::kF64) {
      scan(reinterpret_cast<const double*>(ds.bytes.data()),
           ds.bytes.size() / sizeof(double));
    } else if (ds.dtype == DType::kF32) {
      scan(reinterpret_cast<const float*>(ds.bytes.data()),
           ds.bytes.size() / sizeof(float));
    }
  }
}

bool check_finite_enabled() { return apl::config::flag("OPAL_CHECK_FINITE"); }

}  // namespace apl::io
