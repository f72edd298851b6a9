#include "apl/trace.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "apl/config.hpp"
#include "apl/error.hpp"

namespace apl::trace {

namespace {

thread_local int tls_rank = -1;

std::uint32_t next_thread_id() {
  static std::atomic<std::uint32_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Auto-export hook: registered once when OPAL_TRACE names a path.
void dump_at_exit() {
  Recorder& r = Recorder::global();
  const std::string path = r.export_path();
  if (!path.empty()) r.write_chrome_json(path);
}

void escape_json(std::ostream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

Recorder& Recorder::global() {
  static Recorder* r = [] {
    auto* rec = new Recorder();
    if (const auto path = apl::config::string_value("OPAL_TRACE");
        path && !path->empty()) {
      rec->set_enabled(true);
      rec->path_ = *path;
      std::atexit(dump_at_exit);
    }
    return rec;
  }();
  return *r;
}

std::string Recorder::export_path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return path_;
}

void Recorder::record(Event e) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

void Recorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

std::size_t Recorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<Event> Recorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::uint32_t Recorder::thread_id() {
  thread_local std::uint32_t id = next_thread_id();
  return id;
}

int Recorder::current_rank() { return tls_rank; }

void Recorder::set_current_rank(int rank) { tls_rank = rank; }

std::string Recorder::chrome_json() const {
  const std::vector<Event> events = snapshot();
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"";
    escape_json(os, e.name);
    os << "\",\"cat\":\"" << e.cat << "\",\"ph\":\"X\"";
    // Chrome wants microseconds; keep sub-microsecond precision for the
    // fine-grained spans (a tile slice can be well under 1 us).
    os << ",\"ts\":" << std::fixed << e.ts * 1e6;
    os << ",\"dur\":" << e.dur * 1e6;
    os << ",\"pid\":" << (e.rank + 1) << ",\"tid\":" << e.tid;
    os << ",\"args\":{\"bytes\":" << e.bytes
       << ",\"elements\":" << e.elements;
    if (e.index >= 0) os << ",\"index\":" << e.index;
    if (e.rank >= 0) os << ",\"rank\":" << e.rank;
    os << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

void Recorder::write_chrome_json(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  require(f.good(), "trace: cannot open '", path, "' for writing");
  f << chrome_json();
}

// ---------------------------------------------------------------------------
// Chrome trace_event schema validation: a minimal recursive-descent JSON
// parser (objects/arrays/strings/numbers/literals) plus the schema checks
// the tooling relies on. Self-contained so tests and tools/ci.sh need no
// external JSON dependency.

namespace {

struct Parser {
  const std::string& s;
  std::size_t i = 0;
  std::string err;

  bool fail(const std::string& msg) {
    if (err.empty()) err = msg + " (at byte " + std::to_string(i) + ")";
    return false;
  }
  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool consume(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }
  bool peek(char c) {
    ws();
    return i < s.size() && s[i] == c;
  }

  bool parse_string(std::string* out) {
    ws();
    if (i >= s.size() || s[i] != '"') return fail("expected string");
    ++i;
    std::string v;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) return fail("bad escape");
        switch (s[i]) {
          case 'u':
            if (i + 4 >= s.size()) return fail("bad \\u escape");
            i += 4;
            v += '?';
            break;
          case 'n': v += '\n'; break;
          case 't': v += '\t'; break;
          case 'r': v += '\r'; break;
          default: v += s[i];
        }
      } else {
        v += s[i];
      }
      ++i;
    }
    if (i >= s.size()) return fail("unterminated string");
    ++i;  // closing quote
    if (out) *out = std::move(v);
    return true;
  }

  bool parse_number(double* out) {
    ws();
    const std::size_t start = i;
    if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
    bool digits = false;
    auto eat_digits = [&] {
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
        ++i;
        digits = true;
      }
    };
    eat_digits();
    if (i < s.size() && s[i] == '.') {
      ++i;
      eat_digits();
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
      ++i;
      if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
      eat_digits();
    }
    if (!digits) return fail("expected number");
    if (out) *out = std::strtod(s.c_str() + start, nullptr);
    return true;
  }

  // Parses any value; when the value is an object, records its string and
  // number members into the provided maps (one level deep — enough for
  // trace events, whose nested "args" object is validated recursively).
  bool parse_value(std::map<std::string, std::string>* strs,
                   std::map<std::string, double>* nums) {
    ws();
    if (i >= s.size()) return fail("unexpected end of input");
    const char c = s[i];
    if (c == '"') return parse_string(nullptr);
    if (c == '{') return parse_object(strs, nums);
    if (c == '[') return parse_array(nullptr);
    if (c == 't' || c == 'f' || c == 'n') {
      for (const char* lit : {"true", "false", "null"}) {
        const std::size_t n = std::strlen(lit);
        if (s.compare(i, n, lit) == 0) {
          i += n;
          return true;
        }
      }
      return fail("bad literal");
    }
    return parse_number(nullptr);
  }

  bool parse_object(std::map<std::string, std::string>* strs,
                    std::map<std::string, double>* nums) {
    if (!consume('{')) return false;
    if (peek('}')) return consume('}');
    while (true) {
      std::string key;
      if (!parse_string(&key)) return false;
      if (!consume(':')) return false;
      ws();
      if (i < s.size() && s[i] == '"') {
        std::string v;
        if (!parse_string(&v)) return false;
        if (strs) (*strs)[key] = std::move(v);
      } else if (i < s.size() &&
                 (std::isdigit(static_cast<unsigned char>(s[i])) ||
                  s[i] == '-' || s[i] == '+')) {
        double v = 0;
        if (!parse_number(&v)) return false;
        if (nums) (*nums)[key] = v;
      } else {
        if (!parse_value(nullptr, nullptr)) return false;
      }
      if (peek(',')) {
        consume(',');
        continue;
      }
      return consume('}');
    }
  }

  // Array of values; when `events` is given, each element must be an
  // object and its members are appended for schema checking.
  bool parse_array(std::vector<std::pair<std::map<std::string, std::string>,
                                         std::map<std::string, double>>>*
                       events) {
    if (!consume('[')) return false;
    if (peek(']')) return consume(']');
    while (true) {
      if (events) {
        std::map<std::string, std::string> strs;
        std::map<std::string, double> nums;
        ws();
        if (i >= s.size() || s[i] != '{') return fail("event must be object");
        if (!parse_object(&strs, &nums)) return false;
        events->emplace_back(std::move(strs), std::move(nums));
      } else {
        if (!parse_value(nullptr, nullptr)) return false;
      }
      if (peek(',')) {
        consume(',');
        continue;
      }
      return consume(']');
    }
  }
};

}  // namespace

std::string validate_chrome_json(const std::string& json) {
  Parser p{json, 0, {}};
  p.ws();
  if (!p.consume('{')) return "top level must be an object: " + p.err;
  bool saw_events = false;
  std::vector<std::pair<std::map<std::string, std::string>,
                        std::map<std::string, double>>>
      events;
  if (!p.peek('}')) {
    while (true) {
      std::string key;
      if (!p.parse_string(&key)) return p.err;
      if (!p.consume(':')) return p.err;
      if (key == "traceEvents") {
        saw_events = true;
        if (!p.parse_array(&events)) return p.err;
      } else {
        if (!p.parse_value(nullptr, nullptr)) return p.err;
      }
      if (p.peek(',')) {
        p.consume(',');
        continue;
      }
      if (!p.consume('}')) return p.err;
      break;
    }
  } else {
    p.consume('}');
  }
  p.ws();
  if (p.i != json.size()) return "trailing bytes after document";
  if (!saw_events) return "missing \"traceEvents\" array";

  for (std::size_t k = 0; k < events.size(); ++k) {
    const auto& [strs, nums] = events[k];
    auto need_str = [&](const char* key) {
      return strs.count(key) ? "" : key;
    };
    auto need_num = [&](const char* key) {
      return nums.count(key) ? "" : key;
    };
    for (const char* key : {"name", "cat", "ph"}) {
      if (*need_str(key)) {
        return "event " + std::to_string(k) + ": missing string field \"" +
               key + "\"";
      }
    }
    for (const char* key : {"ts", "dur", "pid", "tid"}) {
      if (*need_num(key)) {
        return "event " + std::to_string(k) + ": missing numeric field \"" +
               key + "\"";
      }
    }
    if (strs.at("ph") != "X") {
      return "event " + std::to_string(k) + ": ph must be \"X\", got \"" +
             strs.at("ph") + "\"";
    }
    if (nums.at("dur") < 0) {
      return "event " + std::to_string(k) + ": negative dur";
    }
  }
  return "";
}

}  // namespace apl::trace
