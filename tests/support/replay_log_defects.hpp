// Checkpoint files whose container is valid (the store writes a correct
// CRC) but whose fast-forward replay log is not: the shared restore
// decoder behind op2::Checkpointer and ops::Checkpointer must reject each
// one with an apl::Error naming the bad field, never index out of range.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apl/io/h5lite.hpp"

namespace replay_log_defects {

struct Defect {
  std::string what;   ///< the defect, for test diagnostics
  std::string field;  ///< the dataset the error must name
  apl::io::File file;
};

inline apl::io::File log_file(std::int64_t entry,
                              std::vector<std::int64_t> offsets,
                              std::size_t log_bytes,
                              const std::string& names) {
  apl::io::File f;
  f.put<std::int64_t>("meta/entry_loop", std::vector<std::int64_t>{entry},
                      {1});
  f.put<std::uint8_t>("meta/gbl_log", std::vector<std::uint8_t>(log_bytes),
                      {static_cast<std::uint64_t>(log_bytes)});
  f.put<std::int64_t>("meta/gbl_offsets", offsets,
                      {static_cast<std::uint64_t>(offsets.size())});
  f.put<std::uint8_t>("meta/loop_names",
                      std::vector<std::uint8_t>(names.begin(), names.end()),
                      {static_cast<std::uint64_t>(names.size())});
  return f;
}

inline std::vector<Defect> all() {
  return {
      {"offsets start past 0", "meta/gbl_offsets",
       log_file(1, {2, 3}, 4, "a\n")},
      {"offsets decrease", "meta/gbl_offsets",
       log_file(2, {0, 3, 1}, 4, "a\nb\n")},
      {"last offset past the log", "meta/gbl_offsets",
       log_file(1, {0, 100}, 4, "a\n")},
      {"fewer names than replayed loops", "meta/loop_names",
       log_file(3, {0, 0, 0, 0}, 1, "a\n")},
  };
}

}  // namespace replay_log_defects
