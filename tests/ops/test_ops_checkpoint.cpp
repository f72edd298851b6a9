// OPS checkpointing: the Fig. 8 chain analysis on a structured loop chain,
// integration with the lazy loop-chain engine (request_checkpoint is a
// flush point; pending checkpoints force eager loop-entry values), and full
// crash/restart equivalence in both eager and lazy modes.
#include "ops/checkpoint.hpp"

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ops/dist.hpp"
#include "ops/ops.hpp"
#include "../support/expect_error.hpp"
#include "../support/replay_log_defects.hpp"

namespace {

using ops::Access;
using ops::index_t;

std::string temp_base(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// A miniature structured step with the shapes the analysis must see: a
// never-modified dat (x), a first-whole-written dat (b), a stencil-read
// chain and a global reduction — the structured analogue of MiniAirfoil.
struct MiniStep {
  explicit MiniStep(index_t nx = 8, index_t ny = 6) : nx(nx), ny(ny) {
    grid = &ctx.decl_block(2, "grid");
    five = &ctx.decl_stencil(
        2,
        {{{0, 0, 0}}, {{1, 0, 0}}, {{-1, 0, 0}}, {{0, 1, 0}}, {{0, -1, 0}}},
        "5pt");
    x = &ctx.decl_dat<double>(*grid, 1, {nx, ny, 1}, {1, 1, 0}, {1, 1, 0},
                              "x");
    a = &ctx.decl_dat<double>(*grid, 1, {nx, ny, 1}, {1, 1, 0}, {1, 1, 0},
                              "a");
    b = &ctx.decl_dat<double>(*grid, 1, {nx, ny, 1}, {1, 1, 0}, {1, 1, 0},
                              "b");
    c = &ctx.decl_dat<double>(*grid, 1, {nx, ny, 1}, {1, 1, 0}, {1, 1, 0},
                              "c");
    // Initialized before any checkpointer attaches (like mesh loading).
    ops::par_loop(ctx, "init", *grid,
                  ops::Range::dim2(-1, nx + 1, -1, ny + 1),
                  [](ops::Acc<double> x, ops::Acc<double> a,
                     ops::Acc<double> b, ops::Acc<double> c, const int* idx) {
                    x(0, 0) = 0.05 * idx[0] - 0.03 * idx[1];
                    a(0, 0) = std::sin(0.3 * idx[0]) + std::cos(0.2 * idx[1]);
                    b(0, 0) = 0.0;
                    c(0, 0) = 0.0;
                  },
                  ops::arg(*x, Access::kWrite), ops::arg(*a, Access::kWrite),
                  ops::arg(*b, Access::kWrite), ops::arg(*c, Access::kWrite),
                  ops::arg_idx());
  }

  void copy() {
    ops::par_loop(ctx, "copy", *grid, ops::Range::dim2(0, nx, 0, ny),
                  [](ops::Acc<double> a, ops::Acc<double> b) {
                    b(0, 0) = a(0, 0);
                  },
                  ops::arg(*a, Access::kRead), ops::arg(*b, Access::kWrite));
  }
  void diffuse() {
    ops::par_loop(ctx, "diffuse", *grid, ops::Range::dim2(0, nx, 0, ny),
                  [](ops::Acc<double> b, ops::Acc<double> x,
                     ops::Acc<double> c) {
                    c(0, 0) = 0.25 * (b(1, 0) + b(-1, 0) + b(0, 1) +
                                      b(0, -1)) +
                              0.01 * x(0, 0);
                  },
                  ops::arg(*b, *five, Access::kRead),
                  ops::arg(*x, Access::kRead),
                  ops::arg(*c, Access::kWrite));
  }
  void update() {
    ops::par_loop(ctx, "update", *grid, ops::Range::dim2(0, nx, 0, ny),
                  [](ops::Acc<double> a, ops::Acc<double> c, double* rms) {
                    a(0, 0) += 0.1 * c(0, 0);
                    rms[0] += c(0, 0) * c(0, 0);
                  },
                  ops::arg(*a, Access::kRW), ops::arg(*c, Access::kRead),
                  ops::arg_gbl(&rms, 1, Access::kInc));
  }
  void step() {
    copy();
    diffuse();
    update();
  }

  std::vector<double> state() {
    auto out = a->to_vector();
    out.push_back(rms);
    return out;
  }

  index_t nx, ny;
  ops::Context ctx;
  ops::Block* grid;
  ops::Stencil* five;
  ops::Dat<double>* x;
  ops::Dat<double>* a;
  ops::Dat<double>* b;
  ops::Dat<double>* c;
  double rms = 0.0;
};

std::vector<double> reference_run(int steps, bool lazy) {
  MiniStep app;
  app.ctx.set_lazy(lazy);
  for (int s = 0; s < steps; ++s) app.step();
  app.ctx.flush();
  return app.state();
}

TEST(OpsCheckpointAnalysis, PeriodAndNeverModified) {
  MiniStep app;
  ops::Checkpointer ck(app.ctx, temp_base("ops_chain"));
  for (int s = 0; s < 3; ++s) app.step();
  EXPECT_EQ(ck.detect_period(), 3);
  EXPECT_EQ(ck.chain().size(), 9u);
  for (index_t pos = 0; pos < 6; ++pos) {
    for (index_t d : ck.datasets_saved_at(pos)) {
      EXPECT_NE(app.ctx.dat(d).name(), "x") << "pos " << pos;
    }
  }
  ck.store().remove_files();
}

TEST(OpsCheckpointAnalysis, FirstWholeWrittenDatsAreDropped) {
  MiniStep app;
  ops::Checkpointer ck(app.ctx, temp_base("ops_chain2"));
  for (int s = 0; s < 3; ++s) app.step();
  // Entering at "copy" (steady state, pos 3): b and c are overwritten
  // before being read, so only the live state (a) needs saving.
  std::vector<std::string> names;
  for (index_t d : ck.datasets_saved_at(3)) {
    names.push_back(app.ctx.dat(d).name());
  }
  EXPECT_EQ(names, (std::vector<std::string>{"a"}));
  ck.store().remove_files();
}

TEST(OpsCheckpointRestart, EagerRestartReproducesUninterruptedRun) {
  const std::string base = temp_base("ops_restart_eager");
  const int total = 8;
  const auto reference = reference_run(total, /*lazy=*/false);

  {
    MiniStep app;
    ops::Checkpointer ck(app.ctx, base);
    for (int s = 0; s < 4; ++s) app.step();
    ck.request_checkpoint();
    app.step();
    app.step();
    ASSERT_TRUE(ck.checkpoint_complete());
    // crash
  }
  {
    MiniStep app;
    ops::Checkpointer ck = ops::Checkpointer::restore(app.ctx, base);
    for (int s = 0; s < total; ++s) app.step();
    EXPECT_FALSE(ck.replaying());
    const auto out = app.state();
    ASSERT_EQ(out.size(), reference.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_DOUBLE_EQ(out[i], reference[i]) << "index " << i;
    }
    ck.store().remove_files();
  }
}

TEST(OpsCheckpointRestart, LazyRestartReproducesUninterruptedRun) {
  const std::string base = temp_base("ops_restart_lazy");
  const int total = 8;
  const auto reference = reference_run(total, /*lazy=*/true);

  {
    MiniStep app;
    app.ctx.set_lazy(true);
    ops::Checkpointer ck(app.ctx, base);
    for (int s = 0; s < 4; ++s) app.step();
    ck.request_checkpoint();  // a flush point: the queued chain runs first
    EXPECT_EQ(app.ctx.chain_length(), 0u);
    app.step();
    app.step();
    app.ctx.flush();
    ASSERT_TRUE(ck.checkpoint_complete());
  }
  {
    MiniStep app;
    app.ctx.set_lazy(true);
    ops::Checkpointer ck = ops::Checkpointer::restore(app.ctx, base);
    for (int s = 0; s < total; ++s) app.step();
    app.ctx.flush();
    EXPECT_FALSE(ck.replaying());
    const auto out = app.state();
    ASSERT_EQ(out.size(), reference.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_DOUBLE_EQ(out[i], reference[i]) << "index " << i;
    }
    ck.store().remove_files();
  }
}

TEST(OpsCheckpointRestart, ReplayRestoresGlobalReductions) {
  const std::string base = temp_base("ops_restart_gbl");
  double rms_marker = 0.0;
  {
    MiniStep app;
    ops::Checkpointer ck(app.ctx, base);
    for (int s = 0; s < 3; ++s) app.step();
    ck.request_checkpoint();
    app.step();
    app.step();
    ASSERT_TRUE(ck.checkpoint_complete());
    rms_marker = app.rms;
  }
  {
    MiniStep app;
    ops::Checkpointer ck = ops::Checkpointer::restore(app.ctx, base);
    for (int s = 0; s < 5; ++s) app.step();
    EXPECT_DOUBLE_EQ(app.rms, rms_marker);
    ck.store().remove_files();
  }
}

TEST(OpsCheckpointRestart, DivergentReplaySequenceFails) {
  const std::string base = temp_base("ops_restart_diverge");
  {
    MiniStep app;
    ops::Checkpointer ck(app.ctx, base);
    for (int s = 0; s < 3; ++s) app.step();
    ck.request_checkpoint();
    app.step();
    app.step();
    ASSERT_TRUE(ck.checkpoint_complete());
  }
  {
    MiniStep app;
    ops::Checkpointer ck = ops::Checkpointer::restore(app.ctx, base);
    EXPECT_THROW(app.update(), apl::Error);  // recorded chain starts at copy
    ck.store().remove_files();
  }
}

TEST(OpsCheckpointRestart, MalformedReplayLogIsANamedError) {
  const std::string base = temp_base("ops_restart_malformed_log");
  for (const auto& defect : replay_log_defects::all()) {
    SCOPED_TRACE(defect.what);
    apl::io::CheckpointStore(base).save(defect.file);
    MiniStep app;
    EXPECT_APL_ERROR(defect.field, ops::Checkpointer::restore(app.ctx, base));
  }
  apl::io::CheckpointStore(base).remove_files();
}

}  // namespace
