#include "apl/exec.hpp"

#include <cstdlib>

#include "apl/config.hpp"
#include "apl/error.hpp"

namespace apl::exec {

const char* to_string(Access a) {
  switch (a) {
    case Access::kRead: return "read";
    case Access::kWrite: return "write";
    case Access::kInc: return "inc";
    case Access::kRW: return "rw";
    case Access::kMin: return "min";
    case Access::kMax: return "max";
  }
  return "?";
}

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kSeq: return "seq";
    case Backend::kThreads: return "threads";
    case Backend::kCudaSim: return "cudasim";
  }
  return "?";
}

std::optional<Backend> backend_from_string(std::string_view name) {
  if (name == "seq") return Backend::kSeq;
  if (name == "threads") return Backend::kThreads;
  if (name == "cudasim") return Backend::kCudaSim;
  return std::nullopt;
}

Backend backend_from_env(Backend fallback) {
  const auto name = apl::config::string_value("APL_BACKEND");
  if (!name || name->empty()) return fallback;
  const std::optional<Backend> b = backend_from_string(*name);
  apl::require(b.has_value(), "APL_BACKEND: unknown backend '", *name,
               "' (expected seq|threads|cudasim)");
  return *b;
}

}  // namespace apl::exec
