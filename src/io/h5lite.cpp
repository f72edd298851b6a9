#include "apl/io/h5lite.hpp"

#include <array>
#include <cstring>
#include <fstream>

#include "apl/error.hpp"

namespace apl::io {

namespace {

constexpr std::array<char, 4> kMagic = {'H', '5', 'L', 'T'};
constexpr std::uint32_t kVersion = 1;

// Slicing-by-8 CRC-32: table[0] is the classic byte table; table[k]
// extends it so eight input bytes fold in one step. Same polynomial,
// same digest as the byte-at-a-time loop — only faster, which matters
// now that every warm plan-cache load CRCs its whole blob.
const std::array<std::array<std::uint32_t, 256>, 8>& crc_tables() {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (int k = 1; k < 8; ++k) {
        c = t[0][c & 0xffu] ^ (c >> 8);
        t[k][i] = c;
      }
    }
    return t;
  }();
  return tables;
}

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

// Bounds-checked cursor over a serialized byte span. Every read names the
// dataset being parsed, so a truncated or garbage file fails with a message
// that points at the offending dataset rather than a raw stream error.
class Reader {
 public:
  Reader(std::span<const std::uint8_t> bytes, const std::string& origin)
      : bytes_(bytes), origin_(origin) {}

  void set_context(std::string what) { context_ = std::move(what); }

  template <class T>
  T pod(const char* what) {
    T v{};
    take(what, sizeof(T), reinterpret_cast<std::uint8_t*>(&v));
    return v;
  }

  std::string str(const char* what, std::size_t len) {
    std::string s(len, '\0');
    take(what, len, reinterpret_cast<std::uint8_t*>(s.data()));
    return s;
  }

  void bytes(const char* what, std::span<std::uint8_t> dst) {
    take(what, dst.size(), dst.data());
  }

  void skip(const char* what, std::size_t n) {
    if (n > remaining()) parse_fail(what);
    pos_ += n;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  std::size_t pos() const { return pos_; }

  [[noreturn]] void parse_fail(const char* what) const {
    if (context_.empty()) {
      fail("h5lite: '", origin_, "' truncated while reading ", what, " (",
           remaining(), " bytes left at offset ", pos_, ")");
    }
    fail("h5lite: '", origin_, "' truncated while reading ", what,
         " of dataset '", context_, "' (", remaining(),
         " bytes left at offset ", pos_, ")");
  }

 private:
  void take(const char* what, std::size_t n, std::uint8_t* dst) {
    if (n > remaining()) parse_fail(what);
    if (n == 0) return;  // dst may be an empty vector's null data()
    std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
  }

  std::span<const std::uint8_t> bytes_;
  const std::string& origin_;
  std::string context_;
  std::size_t pos_ = 0;
};

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  const auto& t = crc_tables();
  std::uint32_t c = 0xffffffffu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ (static_cast<std::uint32_t>(p[0]) |
                                  static_cast<std::uint32_t>(p[1]) << 8 |
                                  static_cast<std::uint32_t>(p[2]) << 16 |
                                  static_cast<std::uint32_t>(p[3]) << 24);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
        t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::size_t dtype_size(DType t) {
  switch (t) {
    case DType::kF64: return 8;
    case DType::kF32: return 4;
    case DType::kI32: return 4;
    case DType::kI64: return 8;
    case DType::kU8: return 1;
  }
  fail("h5lite: unknown dtype ", static_cast<std::uint32_t>(t));
}

std::uint64_t Dataset::num_elements() const {
  std::uint64_t n = 1;
  for (std::uint64_t d : dims) n *= d;
  return dims.empty() ? 0 : n;
}

template <class T>
DType File::dtype_of() {
  if constexpr (std::is_same_v<T, double>) return DType::kF64;
  else if constexpr (std::is_same_v<T, float>) return DType::kF32;
  else if constexpr (std::is_same_v<T, std::int32_t>) return DType::kI32;
  else if constexpr (std::is_same_v<T, std::int64_t>) return DType::kI64;
  else if constexpr (std::is_same_v<T, std::uint8_t>) return DType::kU8;
  else static_assert(sizeof(T) == 0, "unsupported h5lite dtype");
}

template <class T>
void File::put(const std::string& name, std::span<const T> data,
               std::vector<std::uint64_t> dims) {
  std::uint64_t n = dims.empty() ? 0 : 1;
  for (std::uint64_t d : dims) n *= d;
  require(n == data.size(), "h5lite: dims of '", name, "' multiply to ", n,
          " but data has ", data.size(), " elements");
  Dataset ds;
  ds.dtype = dtype_of<T>();
  ds.dims = std::move(dims);
  ds.bytes.resize(data.size() * sizeof(T));
  if (!ds.bytes.empty()) {  // an empty vector's data() may be null
    std::memcpy(ds.bytes.data(), data.data(), ds.bytes.size());
  }
  datasets_[name] = std::move(ds);
}

template <class T>
std::vector<T> File::get(const std::string& name) const {
  const Dataset& ds = raw(name);
  require(ds.dtype == dtype_of<T>(), "h5lite: dtype mismatch reading '", name,
          "'");
  std::vector<T> out(ds.bytes.size() / sizeof(T));
  if (!out.empty()) std::memcpy(out.data(), ds.bytes.data(), ds.bytes.size());
  return out;
}

const Dataset& File::raw(const std::string& name) const {
  const auto it = datasets_.find(name);
  require(it != datasets_.end(), "h5lite: no dataset named '", name, "'");
  return it->second;
}

std::vector<std::uint8_t> File::serialize() const {
  std::vector<std::uint8_t> out;
  append_bytes(out, kMagic.data(), kMagic.size());
  append_pod(out, kVersion);
  append_pod(out, static_cast<std::uint64_t>(datasets_.size()));
  for (const auto& [name, ds] : datasets_) {
    append_pod(out, static_cast<std::uint32_t>(name.size()));
    append_bytes(out, name.data(), name.size());
    append_pod(out, static_cast<std::uint32_t>(ds.dtype));
    append_pod(out, static_cast<std::uint64_t>(ds.dims.size()));
    for (std::uint64_t d : ds.dims) append_pod(out, d);
    append_pod(out, static_cast<std::uint64_t>(ds.bytes.size()));
    append_bytes(out, ds.bytes.data(), ds.bytes.size());
    append_pod(out, crc32(ds.bytes));
  }
  return out;
}

File File::parse(std::span<const std::uint8_t> bytes,
                 const std::string& origin) {
  Reader r(bytes, origin);
  std::array<char, 4> magic{};
  if (bytes.size() < magic.size()) {
    fail("h5lite: '", origin, "' is not an h5lite file (only ", bytes.size(),
         " bytes)");
  }
  r.bytes("magic", std::span(reinterpret_cast<std::uint8_t*>(magic.data()),
                             magic.size()));
  require(magic == kMagic, "h5lite: '", origin, "' is not an h5lite file");
  const auto version = r.pod<std::uint32_t>("version");
  require(version == kVersion, "h5lite: '", origin, "' has unsupported version ",
          version);
  const auto count = r.pod<std::uint64_t>("dataset count");
  File f;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto name_len = r.pod<std::uint32_t>("name length");
    if (name_len > r.remaining()) r.parse_fail("dataset name");
    const std::string name = r.str("dataset name", name_len);
    r.set_context(name);
    Dataset ds;
    const auto dtype = r.pod<std::uint32_t>("dtype");
    require(dtype <= static_cast<std::uint32_t>(DType::kU8), "h5lite: '",
            origin, "': dataset '", name, "' has unknown dtype ", dtype);
    ds.dtype = static_cast<DType>(dtype);
    const auto rank = r.pod<std::uint64_t>("rank");
    require(rank <= 8, "h5lite: '", origin, "': dataset '", name,
            "' has implausible rank ", rank);
    ds.dims.resize(rank);
    for (auto& d : ds.dims) d = r.pod<std::uint64_t>("dims");
    const auto payload = r.pod<std::uint64_t>("payload size");
    require(payload == ds.num_elements() * dtype_size(ds.dtype),
            "h5lite: '", origin, "': payload size ", payload,
            " inconsistent with dims of dataset '", name, "'");
    if (payload > r.remaining()) r.parse_fail("payload");
    ds.bytes.resize(payload);
    r.bytes("payload", ds.bytes);
    const auto crc = r.pod<std::uint32_t>("crc");
    require(crc == crc32(ds.bytes), "h5lite: CRC mismatch in dataset '", name,
            "' of '", origin, "'");
    f.datasets_[name] = std::move(ds);
  }
  return f;
}

std::optional<std::size_t> dataset_payload_offset(
    std::span<const std::uint8_t> bytes, const std::string& name) {
  static const std::string origin = "<serialized>";
  Reader r(bytes, origin);
  if (bytes.size() < 4) return std::nullopt;
  std::array<char, 4> magic{};
  r.bytes("magic", std::span(reinterpret_cast<std::uint8_t*>(magic.data()),
                             magic.size()));
  if (magic != kMagic) return std::nullopt;
  r.pod<std::uint32_t>("version");
  const auto count = r.pod<std::uint64_t>("dataset count");
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto name_len = r.pod<std::uint32_t>("name length");
    if (name_len > r.remaining()) return std::nullopt;
    const std::string ds_name = r.str("dataset name", name_len);
    r.pod<std::uint32_t>("dtype");
    const auto rank = r.pod<std::uint64_t>("rank");
    if (rank > 8) return std::nullopt;
    for (std::uint64_t d = 0; d < rank; ++d) r.pod<std::uint64_t>("dims");
    const auto payload = r.pod<std::uint64_t>("payload size");
    if (payload > r.remaining()) return std::nullopt;
    if (ds_name == name) return r.pos();
    r.skip("payload", payload);
    r.pod<std::uint32_t>("crc");
  }
  return std::nullopt;
}

void File::save(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = serialize();
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  require(static_cast<bool>(os), "h5lite: cannot open '", path,
          "' for writing");
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  require(static_cast<bool>(os), "h5lite: write to '", path, "' failed");
}

File File::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  require(static_cast<bool>(is), "h5lite: cannot open '", path, "'");
  const std::streamsize size = is.tellg();
  is.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  is.read(reinterpret_cast<char*>(bytes.data()), size);
  require(static_cast<bool>(is) || size == 0, "h5lite: read of '", path,
          "' failed");
  return parse(bytes, path);
}

// Explicit instantiations for the supported element types.
template void File::put<double>(const std::string&, std::span<const double>,
                                std::vector<std::uint64_t>);
template void File::put<float>(const std::string&, std::span<const float>,
                               std::vector<std::uint64_t>);
template void File::put<std::int32_t>(const std::string&,
                                      std::span<const std::int32_t>,
                                      std::vector<std::uint64_t>);
template void File::put<std::int64_t>(const std::string&,
                                      std::span<const std::int64_t>,
                                      std::vector<std::uint64_t>);
template void File::put<std::uint8_t>(const std::string&,
                                      std::span<const std::uint8_t>,
                                      std::vector<std::uint64_t>);
template std::vector<double> File::get<double>(const std::string&) const;
template std::vector<float> File::get<float>(const std::string&) const;
template std::vector<std::int32_t> File::get<std::int32_t>(
    const std::string&) const;
template std::vector<std::int64_t> File::get<std::int64_t>(
    const std::string&) const;
template std::vector<std::uint8_t> File::get<std::uint8_t>(
    const std::string&) const;

}  // namespace apl::io
