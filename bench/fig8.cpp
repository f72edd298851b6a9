// Fig. 8: the checkpointing algorithm's decision table for Airfoil —
// per-loop access modes of every dataset, the "units of data saved if
// entering checkpointing mode here" column, periodic-sequence detection
// and the speculative entry decision, plus the actual checkpoint size.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "airfoil/airfoil.hpp"
#include "apl/io/ckpt.hpp"
#include "common.hpp"
#include "op2/checkpoint.hpp"

namespace bench {
namespace {

/// Deletes a checkpoint store's files when it leaves scope, so every exit
/// path — a violated check or an exception — leaves the temp dir clean.
struct RemoveFiles {
  const apl::io::CheckpointStore& store;
  ~RemoveFiles() { store.remove_files(); }
};

}  // namespace

void fig8(Checks& c) {
  print_header("Fig. 8 — checkpoint placement analysis for Airfoil",
               "Reguly et al., CLUSTER'15, Fig. 8");

  airfoil::Airfoil::Options opts;
  opts.nx = 60;
  opts.ny = 30;
  airfoil::Airfoil app(opts);
  // Per process, so concurrent runs never share a store.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("fig8_airfoil." + std::to_string(::getpid()) + ".ckpt"))
          .string();
  op2::Checkpointer ck(app.ctx(), path);
  const RemoveFiles cleanup{ck.store()};
  app.run(3);  // record three iterations of the loop chain

  const char* mode_name[] = {"R", "W", "I", "RW", "MIN", "MAX"};
  const char* dats[] = {"x", "q", "q_old", "adt", "res", "bound"};

  std::printf("\nloop chain (steady-state iteration, positions 9..17):\n");
  std::printf("%4s %-11s |", "#", "loop");
  for (const char* d : dats) std::printf(" %-6s", d);
  std::printf("| units-if-entering\n");
  std::string units_column;
  for (op2::index_t pos = 9; pos < 18; ++pos) {
    const auto& entry = ck.chain()[pos];
    std::printf("%4d %-11s |", pos, entry.name.c_str());
    std::map<std::string, std::string> access;
    for (const auto& a : entry.args) {
      if (a.is_gbl) continue;
      access[app.ctx().dat(a.dat_id).name()] =
          mode_name[static_cast<int>(a.acc)];
    }
    for (const char* d : dats) {
      const auto it = access.find(d);
      std::printf(" %-6s", it == access.end() ? "-" : it->second.c_str());
    }
    const auto units = ck.units_if_entering_at(pos);
    const std::string cell = units ? std::to_string(*units) : "unknown";
    std::printf("| %s\n", cell.c_str());
    units_column += (units_column.empty() ? "" : " ") + cell;
  }
  std::printf("\npaper's Fig. 8 units column: 8 12 13 13 8 12 13 13 8"
              "\n(our update also reads adt, so our update rows show 9 —"
              "\nsee EXPERIMENTS.md).\n");

  const op2::index_t period = ck.detect_period();
  std::printf("\ndetected periodic kernel sequence: period %d"
              " (save_soln + 2 x [adt,res,bres,update])\n", period);

  // Request a checkpoint mid-iteration, before res_calc: speculative mode
  // defers it to the cheapest phase of the period.
  app.iteration();
  ck.request_checkpoint();
  int waited = 0;
  while (!ck.checkpoint_complete() && waited < 40) {
    app.iteration();
    waited += 9;
  }

  const apl::io::File snapshot = ck.store().load();
  const double payload_size =
      static_cast<double>(snapshot.serialize().size());
  const double full_state =
      (app.mesh().nnode * 2.0 + app.mesh().ncell * (4 + 4 + 1 + 4)) *
          sizeof(double) +
      app.mesh().nbedge * sizeof(op2::index_t);
  std::printf("checkpoint payload: %.1f KiB vs %.1f KiB full state"
              " (%.0f%% saved by the analysis); the crash-safe store adds "
              "%.0f bytes (slot header + CRC + manifest)\n\n",
              payload_size / 1024.0, full_state / 1024.0,
              100.0 * (1.0 - payload_size / full_state),
              static_cast<double>(ck.store().last_write_bytes()) -
                  payload_size);

  const char* expected_units = "8 12 13 13 9 12 13 13 9";
  c.expect(units_column == expected_units,
           "units column 9..17 reads '%s' (expected '%s')",
           units_column.c_str(), expected_units);
  c.expect(period == 9, "detected period %d == 9", period);
  c.expect(ck.checkpoint_complete() && waited <= period,
           "speculative checkpoint completes within one period (%d loops, "
           "period %d)",
           waited, period);
  c.expect(payload_size < full_state,
           "payload %.1f KiB < full state %.1f KiB", payload_size / 1024.0,
           full_state / 1024.0);
}

}  // namespace bench
