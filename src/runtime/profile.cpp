#include "apl/profile.hpp"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <sstream>
#include <utility>

namespace apl {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Profile::report() const {
  if (stats_.empty()) return "(no loops recorded)\n";
  // Size the name column to the data so long loop names cannot shear the
  // table out of alignment.
  std::size_t name_w = 4;  // "loop"
  bool any_halo = false;
  bool any_model = false;
  for (const auto& [name, s] : stats_) {
    name_w = std::max(name_w, name.size());
    any_halo |= s.halo_bytes > 0;
    any_model |= s.model_seconds > 0;
  }
  name_w += 2;
  std::ostringstream os;
  os << std::left << std::setw(static_cast<int>(name_w)) << "loop"
     << std::right << std::setw(8) << "calls" << std::setw(12) << "time(s)"
     << std::setw(12) << "GB" << std::setw(10) << "GB/s";
  if (any_halo) os << std::setw(12) << "halo(MB)";
  os << std::setw(8) << "colors" << "\n";
  for (const auto& [name, s] : stats_) {
    os << std::left << std::setw(static_cast<int>(name_w)) << name
       << std::right << std::setw(8) << s.calls << std::setw(11)
       << std::fixed << std::setprecision(4) << s.effective_seconds()
       << (s.model_seconds > 0 ? "*" : " ") << std::setw(12)
       << std::setprecision(3) << static_cast<double>(s.bytes()) * 1e-9
       << std::setw(10) << std::setprecision(1) << s.gb_per_s();
    if (any_halo) {
      os << std::setw(12) << std::setprecision(3)
         << static_cast<double>(s.halo_bytes) * 1e-6;
    }
    os << std::setw(8) << s.colors << "\n";
  }
  if (any_model) os << "(* device-model time; see LoopStats::effective_seconds)\n";
  return os.str();
}

Profile& Profile::global() {
  static Profile p;
  return p;
}

ScopedLoopTimer::ScopedLoopTimer(Profile& p, std::string loop_name)
    : profile_(&p), name_(std::move(loop_name)), start_(now_seconds()) {}

ScopedLoopTimer::~ScopedLoopTimer() {
  // Looked up now, not at construction: Profile::clear() may have
  // destroyed (or recreated) the LoopStats the name referred to while this
  // timer was open.
  LoopStats& s = profile_->stats(name_);
  s.seconds += now_seconds() - start_;
  ++s.calls;
}

}  // namespace apl
