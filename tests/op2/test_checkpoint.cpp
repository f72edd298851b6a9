// Checkpointing tests: the Fig. 8 classification algorithm on an
// Airfoil-shaped loop chain, speculative entry deferral, and full
// crash/restart equivalence on a real mini-application.
#include "op2/checkpoint.hpp"

#include <cstdio>
#include <filesystem>
#include <vector>

#include <gtest/gtest.h>

#include "op2/op2.hpp"
#include "apl/testkit/fixtures.hpp"
#include "../support/expect_error.hpp"
#include "../support/replay_log_defects.hpp"

namespace {

using apl::exec::Access;
using op2::index_t;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---- A miniature Airfoil with the paper's access structure ---------------
//
// Loops per iteration (Fig. 8): save_soln, then 2 x (adt_calc, res_calc,
// bres_calc, update). Dats: bounds(1, never written), x(2, never written),
// q(4), q_old(4), adt(1), res(4); rms is a global.
struct MiniAirfoil {
  explicit MiniAirfoil(index_t nx = 4, index_t ny = 4)
      : mesh(apl::testkit::make_grid(nx, ny)) {
    cells = &ctx.decl_set(mesh.num_edges(), "cells");  // any indirect set
    nodes = &ctx.decl_set(mesh.num_nodes(), "nodes");
    c2n = &ctx.decl_map(*cells, *nodes, 2, mesh.edge2node, "c2n");
    bounds = &ctx.decl_dat<double>(*nodes, 1, std::span<const double>{},
                                   "bounds");
    x = &ctx.decl_dat<double>(*nodes, 2, mesh.node_coords, "x");
    std::vector<double> qi(static_cast<std::size_t>(mesh.num_nodes()) * 4);
    for (std::size_t i = 0; i < qi.size(); ++i) qi[i] = 1.0 + i % 3;
    q = &ctx.decl_dat<double>(*nodes, 4, qi, "q");
    q_old = &ctx.decl_dat<double>(*nodes, 4, std::span<const double>{},
                                  "q_old");
    adt = &ctx.decl_dat<double>(*nodes, 1, std::span<const double>{}, "adt");
    res = &ctx.decl_dat<double>(*nodes, 4, std::span<const double>{}, "res");
  }

  void save_soln() {
    op2::par_loop(ctx, "save_soln", *nodes,
                  [](op2::Acc<double> q, op2::Acc<double> qo) {
                    for (int d = 0; d < 4; ++d) qo[d] = q[d];
                  },
                  op2::arg(*q, Access::kRead),
                  op2::arg(*q_old, Access::kWrite));
  }
  void adt_calc() {
    op2::par_loop(ctx, "adt_calc", *nodes,
                  [](op2::Acc<double> x, op2::Acc<double> q,
                     op2::Acc<double> a) {
                    a[0] = 0.125 * (x[0] + x[1]) + 0.0625 * q[0];
                  },
                  op2::arg(*x, Access::kRead), op2::arg(*q, Access::kRead),
                  op2::arg(*adt, Access::kWrite));
  }
  void res_calc() {
    op2::par_loop(
        ctx, "res_calc", *cells,
        [](op2::Acc<double> xa, op2::Acc<double> qa, op2::Acc<double> aa,
           op2::Acc<double> ra, op2::Acc<double> rb) {
          const double f = 0.5 * (xa[0] + qa[1]) - aa[0];
          for (int d = 0; d < 4; ++d) {
            ra[d] += f * 0.25;
            rb[d] -= f * 0.25;
          }
        },
        op2::arg(*x, *c2n, 0, Access::kRead),
        op2::arg(*q, *c2n, 0, Access::kRead),
        op2::arg(*adt, *c2n, 1, Access::kRead),
        op2::arg(*res, *c2n, 0, Access::kInc),
        op2::arg(*res, *c2n, 1, Access::kInc));
  }
  void bres_calc() {
    op2::par_loop(ctx, "bres_calc", *nodes,
                  [](op2::Acc<double> b, op2::Acc<double> q,
                     op2::Acc<double> a, op2::Acc<double> r) {
                    r[0] += b[0] * (q[0] - a[0]) * 0.125;
                  },
                  op2::arg(*bounds, Access::kRead),
                  op2::arg(*q, Access::kRead), op2::arg(*adt, Access::kRead),
                  op2::arg(*res, Access::kInc));
  }
  void update() {
    op2::par_loop(ctx, "update", *nodes,
                  [](op2::Acc<double> qo, op2::Acc<double> r,
                     op2::Acc<double> q, op2::Acc<double> rms) {
                    for (int d = 0; d < 4; ++d) {
                      q[d] = qo[d] + 0.1 * r[d];
                      rms[0] += r[d] * r[d];
                      r[d] = 0.0;
                    }
                  },
                  op2::arg(*q_old, Access::kRead),
                  op2::arg(*res, Access::kRW), op2::arg(*q, Access::kWrite),
                  op2::arg_gbl(&rms, 1, Access::kInc));
  }
  void iteration() {
    save_soln();
    for (int stage = 0; stage < 2; ++stage) {
      adt_calc();
      res_calc();
      bres_calc();
      update();
    }
  }

  apl::testkit::GridMesh mesh;
  op2::Context ctx;
  op2::Set* cells;
  op2::Set* nodes;
  op2::Map* c2n;
  op2::Dat<double>* bounds;
  op2::Dat<double>* x;
  op2::Dat<double>* q;
  op2::Dat<double>* q_old;
  op2::Dat<double>* adt;
  op2::Dat<double>* res;
  double rms = 0.0;
};

// ---- Fig. 8 classification ----------------------------------------------

TEST(CheckpointFig8, UnitsPerEntryPointMatchPaper) {
  MiniAirfoil app;
  op2::Checkpointer ck(app.ctx, temp_path("fig8_unused.ckpt"));
  for (int it = 0; it < 2; ++it) app.iteration();  // 18 recorded loops
  // Fig. 8 column "units of data saved if entering checkpointing mode
  // here" in steady state (all working datasets already modified), one
  // full iteration starting at position 9:
  //   save_soln 8, adt_calc 12, res_calc 13, bres_calc 13, update 8,
  //   adt_calc 12, res_calc 13, bres_calc 13.
  const index_t expect[8] = {8, 12, 13, 13, 8, 12, 13, 13};
  for (index_t i = 0; i < 8; ++i) {
    const auto units = ck.units_if_entering_at(9 + i);
    ASSERT_TRUE(units.has_value()) << "pos " << 9 + i;
    EXPECT_EQ(*units, expect[i]) << "pos " << 9 + i;
  }
  // The final recorded loop has insufficient lookahead to classify adt:
  // Fig. 8's "unknown yet".
  EXPECT_FALSE(ck.units_if_entering_at(17).has_value());
  // At application start nothing has been modified, so a checkpoint there
  // is free — initial data is regenerated by the restarted application.
  EXPECT_EQ(ck.units_if_entering_at(0).value_or(-1), 0);
}

TEST(CheckpointFig8, NeverModifiedDatsNotSaved) {
  MiniAirfoil app;
  op2::Checkpointer ck(app.ctx, temp_path("fig8_unused2.ckpt"));
  for (int it = 0; it < 2; ++it) app.iteration();
  for (index_t pos = 0; pos < 9; ++pos) {
    for (index_t d : ck.datasets_saved_at(pos)) {
      EXPECT_NE(app.ctx.dat(d).name(), "x");
      EXPECT_NE(app.ctx.dat(d).name(), "bounds");
    }
  }
}

TEST(CheckpointFig8, EntryAtSaveSolnSavesQandRes) {
  MiniAirfoil app;
  op2::Checkpointer ck(app.ctx, temp_path("fig8_unused3.ckpt"));
  for (int it = 0; it < 2; ++it) app.iteration();
  std::vector<std::string> names;
  for (index_t d : ck.datasets_saved_at(9)) {  // save_soln, steady state
    names.push_back(app.ctx.dat(d).name());
  }
  EXPECT_EQ(names, (std::vector<std::string>{"q", "res"}));
}

TEST(CheckpointFig8, PeriodDetection) {
  MiniAirfoil app;
  op2::Checkpointer ck(app.ctx, temp_path("fig8_unused4.ckpt"));
  for (int it = 0; it < 3; ++it) app.iteration();
  // One iteration = 1 + 2*4 = 9 loops.
  EXPECT_EQ(ck.detect_period(), 9);
}

TEST(CheckpointFig8, NonPeriodicChainHasNoPeriod) {
  MiniAirfoil app;
  op2::Checkpointer ck(app.ctx, temp_path("fig8_unused5.ckpt"));
  app.save_soln();
  app.adt_calc();
  app.update();
  EXPECT_EQ(ck.detect_period(), 0);
}

TEST(CheckpointSpeculative, DefersToCheapestPhase) {
  MiniAirfoil app;
  const std::string path = temp_path("spec.ckpt");
  op2::Checkpointer ck(app.ctx, path);
  for (int it = 0; it < 2; ++it) app.iteration();
  // Trigger right before an expensive phase (next loop is res_calc, 13
  // units); speculative mode should wait for an 8-unit phase.
  app.save_soln();
  app.adt_calc();  // positions 18,19; next call would be res_calc
  ck.request_checkpoint();
  app.res_calc();
  app.bres_calc();
  EXPECT_FALSE(ck.checkpoint_complete());
  app.update();  // 8-unit phase reached: enters and saves progressively
  app.adt_calc();
  app.res_calc();
  app.bres_calc();
  app.update();
  app.iteration();
  EXPECT_TRUE(ck.checkpoint_complete());
  std::remove(path.c_str());
}

TEST(CheckpointSpeculative, ImmediateModeEntersAtNextLoop) {
  MiniAirfoil app;
  const std::string path = temp_path("imm.ckpt");
  op2::Checkpointer::Options opts;
  opts.speculative = false;
  op2::Checkpointer ck(app.ctx, path, opts);
  app.iteration();
  ck.request_checkpoint();
  app.iteration();
  app.iteration();
  EXPECT_TRUE(ck.checkpoint_complete());
  std::remove(path.c_str());
}

// ---- full crash/restart equivalence --------------------------------------

std::vector<double> run_to_completion(int total_iters) {
  MiniAirfoil app;
  for (int it = 0; it < total_iters; ++it) app.iteration();
  auto out = app.q->to_vector();
  out.push_back(app.rms);
  return out;
}

TEST(CheckpointRestart, RestartReproducesUninterruptedRun) {
  const std::string path = temp_path("restart.ckpt");
  const int total_iters = 6;
  const auto reference = run_to_completion(total_iters);

  // Run 1: checkpoint after iteration 3, then "crash".
  {
    MiniAirfoil app;
    op2::Checkpointer ck(app.ctx, path);
    for (int it = 0; it < 3; ++it) app.iteration();
    ck.request_checkpoint();
    app.iteration();
    app.iteration();  // give the speculative save room to complete
    ASSERT_TRUE(ck.checkpoint_complete());
    // crash: app destroyed here
  }

  // Run 2: restart from the file; the application code is identical.
  {
    MiniAirfoil app;
    op2::Checkpointer ck =
        op2::Checkpointer::restore(app.ctx, path);
    for (int it = 0; it < total_iters; ++it) app.iteration();
    EXPECT_FALSE(ck.replaying());
    auto out = app.q->to_vector();
    out.push_back(app.rms);
    ASSERT_EQ(out.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_DOUBLE_EQ(out[i], reference[i]) << "index " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointRestart, ReplayRestoresGlobalReductions) {
  const std::string path = temp_path("restart_gbl.ckpt");
  double rms_at_checkpoint = 0.0;
  {
    MiniAirfoil app;
    op2::Checkpointer ck(app.ctx, path);
    for (int it = 0; it < 2; ++it) app.iteration();
    ck.request_checkpoint();
    app.iteration();
    app.iteration();
    ASSERT_TRUE(ck.checkpoint_complete());
    rms_at_checkpoint = app.rms;  // beyond the entry, but fine as a marker
  }
  {
    MiniAirfoil app;
    op2::Checkpointer ck = op2::Checkpointer::restore(app.ctx, path);
    for (int it = 0; it < 4; ++it) app.iteration();
    EXPECT_DOUBLE_EQ(app.rms, rms_at_checkpoint);
  }
  std::remove(path.c_str());
}

TEST(CheckpointRestart, DivergentReplaySequenceFails) {
  const std::string path = temp_path("restart_diverge.ckpt");
  {
    MiniAirfoil app;
    op2::Checkpointer ck(app.ctx, path);
    for (int it = 0; it < 3; ++it) app.iteration();
    ck.request_checkpoint();
    app.iteration();
    app.iteration();
    ASSERT_TRUE(ck.checkpoint_complete());
  }
  {
    MiniAirfoil app;
    op2::Checkpointer ck = op2::Checkpointer::restore(app.ctx, path);
    // Issue a different loop sequence than the recorded one.
    EXPECT_THROW(app.update(), apl::Error);
  }
  std::remove(path.c_str());
}

TEST(CheckpointRestart, MalformedReplayLogIsANamedError) {
  const std::string path = temp_path("restart_malformed_log");
  for (const auto& defect : replay_log_defects::all()) {
    SCOPED_TRACE(defect.what);
    apl::io::CheckpointStore(path).save(defect.file);
    MiniAirfoil app;
    EXPECT_APL_ERROR(defect.field, op2::Checkpointer::restore(app.ctx, path));
  }
  apl::io::CheckpointStore(path).remove_files();
}

}  // namespace
