#include "apl/config.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

#include "apl/error.hpp"

extern "C" char** environ;

namespace apl::config {

namespace {

// Alphabetical; known_keys() returns it verbatim.
constexpr KeyInfo kRegistry[] = {
    {"APL_BACKEND", "default execution backend: seq|threads|cudasim"},
    {"APL_TESTKIT_SEED", "replay a testkit differential case by seed"},
    {"OPAL_CHECK_FINITE", "scan checkpoint payloads for NaN/Inf on write"},
    {"OPAL_FAULTS", "deterministic fault-injection spec (apl::fault)"},
    {"OPAL_NUM_THREADS", "worker count for the threads backend (>= 1)"},
    {"OPAL_PLAN_CACHE", "directory for the persistent plan cache"},
    {"OPAL_RESILIENCE", "failure-response policy spec (apl::resilience)"},
    {"OPAL_SERVE_DEADLINE", "default per-job deadline in seconds (0 = none)"},
    {"OPAL_SERVE_QUEUE", "admission queue depth of the simulation service"},
    {"OPAL_SERVE_RETRIES", "re-admission budget for transiently failed jobs"},
    {"OPAL_SERVE_WATCHDOG", "watchdog sweep period in seconds"},
    {"OPAL_SERVE_WORKERS", "concurrent job slots of the simulation service"},
    {"OPAL_TRACE", "emit Chrome trace_event JSON to this path"},
    {"OPAL_VERIFY", "guarded-execution checks: access,bounds,plan,halo,..."},
};

bool registered(std::string_view key) {
  for (const KeyInfo& k : kRegistry) {
    if (k.name == key) return true;
  }
  return false;
}

std::once_flag g_warn_once;

}  // namespace

std::vector<KeyInfo> known_keys() {
  return {std::begin(kRegistry), std::end(kRegistry)};
}

std::vector<std::string> warn_unknown_keys() {
  std::vector<std::string> unknown;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string_view entry(*e);
    if (entry.rfind("OPAL_", 0) != 0) continue;
    const std::size_t eq = entry.find('=');
    const std::string_view name =
        entry.substr(0, eq == std::string_view::npos ? entry.size() : eq);
    if (!registered(name)) unknown.emplace_back(name);
  }
  std::call_once(g_warn_once, [&unknown] {
    for (const std::string& name : unknown) {
      std::fprintf(stderr,
                   "opal: warning: environment variable '%s' is not a known "
                   "OPAL knob and is ignored (see apl::config::known_keys)\n",
                   name.c_str());
    }
  });
  return unknown;
}

std::vector<SpecItem> parse_spec(std::string_view spec, std::string_view what) {
  std::vector<SpecItem> items;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string_view::npos) end = spec.size();
    std::string_view item = spec.substr(pos, end - pos);
    pos = end + 1;
    const auto trim = [](std::string_view s) {
      while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
        s.remove_prefix(1);
      }
      while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
        s.remove_suffix(1);
      }
      return s;
    };
    item = trim(item);
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    apl::require(eq != std::string_view::npos && eq > 0, std::string(what),
                 ": malformed item '", std::string(item),
                 "' (expected key=value)");
    const std::string_view key = trim(item.substr(0, eq));
    apl::require(!key.empty(), std::string(what), ": malformed item '",
                 std::string(item), "' (expected key=value)");
    items.push_back(
        SpecItem{std::string(key), std::string(trim(item.substr(eq + 1)))});
  }
  return items;
}

void warn_unknown_spec_key(std::string_view what, std::string_view key) {
  static std::mutex mu;
  static std::set<std::string> seen;
  const std::string id = std::string(what) + ":" + std::string(key);
  {
    const std::lock_guard<std::mutex> lock(mu);
    if (!seen.insert(id).second) return;
  }
  std::fprintf(stderr,
               "opal: warning: %.*s: unknown key '%.*s' is ignored\n",
               static_cast<int>(what.size()), what.data(),
               static_cast<int>(key.size()), key.data());
}

std::optional<std::string> string_value(std::string_view key) {
  apl::require(registered(key), "apl::config: key '", std::string(key),
               "' is not in the registry; add it to config.cpp");
  warn_unknown_keys();
  const char* env = std::getenv(std::string(key).c_str());
  if (env == nullptr) return std::nullopt;
  return std::string(env);
}

bool flag(std::string_view key) {
  const std::optional<std::string> v = string_value(key);
  return v.has_value() && !v->empty() && *v != "0";
}

std::optional<std::int64_t> int_value(std::string_view key) {
  const std::optional<std::string> v = string_value(key);
  if (!v.has_value() || v->empty()) return std::nullopt;
  std::size_t pos = 0;
  long long n = 0;
  try {
    n = std::stoll(*v, &pos, 0);  // base 0: decimal or 0x-hex
  } catch (const std::exception&) {
    pos = 0;
  }
  apl::require(pos == v->size() && pos > 0, std::string(key),
               ": malformed integer '", *v,
               "' (expected decimal or 0x-hex)");
  return static_cast<std::int64_t>(n);
}

}  // namespace apl::config
