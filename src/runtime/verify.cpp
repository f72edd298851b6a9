#include "apl/verify.hpp"

#include <cstdlib>

#include "apl/config.hpp"

namespace apl::verify {

const char* to_string(Check kind) {
  switch (kind) {
    case kAccess: return "access";
    case kBounds: return "bounds";
    case kPlan: return "plan";
    case kHalo: return "halo";
    case kStencil: return "stencil";
    case kNone: return "none";
    case kAll: return "all";
  }
  return "?";
}

unsigned checks_from_string(std::string_view spec) {
  unsigned mask = kNone;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::size_t end = comma == std::string_view::npos ? spec.size() : comma;
    std::string_view tok = spec.substr(pos, end - pos);
    while (!tok.empty() && tok.front() == ' ') tok.remove_prefix(1);
    while (!tok.empty() && tok.back() == ' ') tok.remove_suffix(1);
    if (tok == "access") mask |= kAccess;
    else if (tok == "bounds") mask |= kBounds;
    else if (tok == "plan") mask |= kPlan;
    else if (tok == "halo") mask |= kHalo;
    else if (tok == "stencil") mask |= kStencil;
    else if (tok == "all" || tok == "1") mask |= kAll;
    else if (tok == "off" || tok == "none" || tok == "0") mask = kNone;
    else if (!tok.empty())
      apl::fail("unknown OPAL_VERIFY check '", tok,
           "'; valid: access, bounds, plan, halo, stencil, all, off");
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return mask;
}

unsigned checks_from_env() {
  const auto spec = apl::config::string_value("OPAL_VERIFY");
  if (!spec || spec->empty()) return kNone;
  return checks_from_string(*spec);
}

std::size_t Report::total() const {
  std::size_t n = 0;
  for (const Entry& e : entries_) n += e.count;
  return n;
}

const Entry* Report::find(std::string_view loop, Check kind) const {
  for (const Entry& e : entries_) {
    if (e.kind == kind && e.loop == loop) return &e;
  }
  return nullptr;
}

void Report::add(std::string_view loop, Check kind, std::string detail) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (Entry& e : entries_) {
    if (e.kind == kind && e.loop == loop) {
      ++e.count;
      return;
    }
  }
  entries_.push_back(
      Entry{std::string(loop), kind, std::move(detail), 1});
}

void Report::fail(std::string_view loop, Check kind, std::string detail) {
  std::string msg = "verify(";
  msg += to_string(kind);
  msg += "): loop '";
  msg += loop;
  msg += "': ";
  msg += detail;
  add(loop, kind, std::move(detail));
  throw Error(msg);
}

}  // namespace apl::verify
