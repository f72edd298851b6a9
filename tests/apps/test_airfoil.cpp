// Airfoil application tests: mesh invariants, physics sanity (free-stream
// preservation, residual decay), cross-backend and distributed
// equivalence, and checkpoint/restart on the full application.
#include "airfoil/airfoil.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <numeric>

#include <gtest/gtest.h>

#include "apl/testkit/oracle.hpp"

namespace {

using airfoil::Airfoil;
using op2::index_t;

airfoil::Airfoil::Options small_opts(index_t nx = 24, index_t ny = 12,
                                     double bump = 0.08) {
  airfoil::Airfoil::Options o;
  o.nx = nx;
  o.ny = ny;
  o.bump = bump;
  return o;
}

// ---- mesh invariants -------------------------------------------------------

TEST(AirfoilMesh, CountsAreConsistent) {
  const auto m = airfoil::make_bump_channel(10, 6);
  EXPECT_EQ(m.ncell, 60);
  EXPECT_EQ(m.nnode, 11 * 7);
  // Interior edges: (nx-1)*ny vertical + nx*(ny-1) horizontal.
  EXPECT_EQ(m.nedge, 9 * 6 + 10 * 5);
  // Boundary: 2*nx walls + 2*ny in/out.
  EXPECT_EQ(m.nbedge, 2 * 10 + 2 * 6);
}

TEST(AirfoilMesh, EveryCellHasFourFaces) {
  const auto m = airfoil::make_bump_channel(8, 5);
  std::vector<int> faces(m.ncell, 0);
  for (index_t e = 0; e < m.nedge; ++e) {
    ++faces[m.edge2cell[2 * e]];
    ++faces[m.edge2cell[2 * e + 1]];
  }
  for (index_t b = 0; b < m.nbedge; ++b) ++faces[m.bedge2cell[b]];
  for (index_t c = 0; c < m.ncell; ++c) EXPECT_EQ(faces[c], 4) << c;
}

TEST(AirfoilMesh, OutwardNormalsCloseEachCell) {
  // Sum of (dy, -dx) over each cell's faces (with interior edges counted
  // +1 for cell0, -1 for cell1) must vanish: the discrete divergence
  // theorem that free-stream preservation rests on.
  const auto m = airfoil::make_bump_channel(7, 5, 0.12);
  std::vector<double> nx_sum(m.ncell, 0.0), ny_sum(m.ncell, 0.0);
  auto accumulate = [&](index_t n1, index_t n2, index_t cell, double sign) {
    const double dx = m.x[2 * n1] - m.x[2 * n2];
    const double dy = m.x[2 * n1 + 1] - m.x[2 * n2 + 1];
    nx_sum[cell] += sign * dy;
    ny_sum[cell] += sign * -dx;
  };
  for (index_t e = 0; e < m.nedge; ++e) {
    accumulate(m.edge2node[2 * e], m.edge2node[2 * e + 1], m.edge2cell[2 * e],
               +1.0);
    accumulate(m.edge2node[2 * e], m.edge2node[2 * e + 1],
               m.edge2cell[2 * e + 1], -1.0);
  }
  for (index_t b = 0; b < m.nbedge; ++b) {
    accumulate(m.bedge2node[2 * b], m.bedge2node[2 * b + 1], m.bedge2cell[b],
               +1.0);
  }
  for (index_t c = 0; c < m.ncell; ++c) {
    EXPECT_NEAR(nx_sum[c], 0.0, 1e-12) << c;
    EXPECT_NEAR(ny_sum[c], 0.0, 1e-12) << c;
  }
}

TEST(AirfoilMesh, BoundaryCodes) {
  const auto m = airfoil::make_bump_channel(6, 4);
  int walls = 0, far = 0;
  for (index_t code : m.bound) {
    if (code == airfoil::kBoundWall) ++walls;
    if (code == airfoil::kBoundFarfield) ++far;
  }
  EXPECT_EQ(walls, 12);
  EXPECT_EQ(far, 8);
}

// ---- physics sanity --------------------------------------------------------

TEST(AirfoilPhysics, StraightChannelPreservesFreeStream) {
  // With no bump, uniform free-stream flow is an exact steady solution;
  // the residual must be (near) zero from the first iteration.
  Airfoil app(small_opts(20, 10, /*bump=*/0.0));
  const double rms = app.run(3);
  EXPECT_LT(rms, 1e-14);
  for (index_t c = 0; c < app.mesh().ncell; ++c) {
    const auto q = app.solution();
    for (int n = 0; n < 4; ++n) {
      EXPECT_NEAR(q[4 * c + n], app.constants().qinf[n], 1e-12);
    }
  }
}

TEST(AirfoilPhysics, BumpResidualDecays) {
  Airfoil app(small_opts());
  const double early = app.run(5);
  const double late = app.run(200);
  EXPECT_GT(early, 0.0);
  EXPECT_LT(late, early * 0.5);  // converging towards steady state
  // Solution stays physical: positive density and pressure everywhere.
  const auto q = app.solution();
  const double gm1 = app.constants().gm1;
  for (index_t c = 0; c < app.mesh().ncell; ++c) {
    const double r = q[4 * c];
    EXPECT_GT(r, 0.0);
    const double p =
        gm1 * (q[4 * c + 3] -
               0.5 * (q[4 * c + 1] * q[4 * c + 1] +
                      q[4 * c + 2] * q[4 * c + 2]) / r);
    EXPECT_GT(p, 0.0);
  }
}

TEST(AirfoilPhysics, BumpAcceleratesFlow) {
  // Subsonic nozzle effect: flow over the bump crest is faster than the
  // free stream.
  Airfoil app(small_opts(30, 15));
  app.run(300);
  const auto q = app.solution();
  // Crest cell: middle of the bump (x ~ 1.5), first row.
  const index_t crest = 15;  // (i=15, j=0) for nx=30
  const double u_crest = q[4 * crest + 1] / q[4 * crest];
  const double u_inf = app.constants().qinf[1] / app.constants().qinf[0];
  EXPECT_GT(u_crest, u_inf * 1.02);
}

// ---- backend equivalence ----------------------------------------------------

class AirfoilBackends : public ::testing::TestWithParam<apl::exec::Backend> {};

TEST_P(AirfoilBackends, MatchesSeq) {
  Airfoil ref(small_opts());
  ref.ctx().set_backend(apl::exec::Backend::kSeq);
  const double rms_ref = ref.run(20);
  const auto q_ref = ref.solution();

  Airfoil app(small_opts());
  app.ctx().set_backend(GetParam());
  app.ctx().set_block_size(64);
  const double rms = app.run(20);
  const auto q = app.solution();
  EXPECT_NEAR(rms, rms_ref, 1e-10 * (1 + rms_ref));
  for (std::size_t i = 0; i < q_ref.size(); ++i) {
    ASSERT_NEAR(q[i], q_ref[i], 1e-10 * (1 + std::abs(q_ref[i]))) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, AirfoilBackends,
                         ::testing::Values(apl::exec::Backend::kSimd,
                                           apl::exec::Backend::kThreads,
                                           apl::exec::Backend::kCudaSim),
                         [](const auto& info) {
                           return op2::to_string(info.param);
                         });

TEST(AirfoilBackends, SoALayoutMatches) {
  Airfoil ref(small_opts());
  const double rms_ref = ref.run(10);
  Airfoil app(small_opts());
  app.ctx().convert_layout(op2::Layout::kSoA);
  app.ctx().set_backend(apl::exec::Backend::kCudaSim);
  const double rms = app.run(10);
  EXPECT_NEAR(rms, rms_ref, 1e-10 * (1 + rms_ref));
}

// ---- distributed ------------------------------------------------------------

class AirfoilDistributed : public ::testing::TestWithParam<int> {};

TEST_P(AirfoilDistributed, MatchesSequential) {
  Airfoil ref(small_opts());
  const double rms_ref = ref.run(15);
  const auto q_ref = ref.solution();

  Airfoil app(small_opts());
  app.enable_distributed(GetParam(), apl::graph::PartitionMethod::kKway);
  const double rms = app.run(15);
  const auto q = app.solution();
  EXPECT_NEAR(rms, rms_ref, 1e-9 * (1 + rms_ref));
  for (std::size_t i = 0; i < q_ref.size(); ++i) {
    ASSERT_NEAR(q[i], q_ref[i], 1e-9 * (1 + std::abs(q_ref[i]))) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, AirfoilDistributed, ::testing::Values(2, 4));

TEST(AirfoilDistributed, HybridThreadsMatches) {
  Airfoil ref(small_opts());
  const double rms_ref = ref.run(10);
  Airfoil app(small_opts());
  app.enable_distributed(3, apl::graph::PartitionMethod::kKway,
                         apl::exec::Backend::kThreads);
  EXPECT_NEAR(app.run(10), rms_ref, 1e-9 * (1 + rms_ref));
}

TEST(AirfoilDistributed, RcbMatchesSequentialWithinUlps) {
  Airfoil ref(small_opts());
  const double rms_ref = ref.run(15);
  const auto q_ref = ref.solution();

  // RCB partitions by coordinates: enable_distributed supplies the cell
  // centroids, so a coordinate partitioner needs nothing from the caller.
  Airfoil app(small_opts());
  app.enable_distributed(2, apl::graph::PartitionMethod::kRcb);
  const double rms = app.run(15);
  const auto q = app.solution();
  // Cross-rank increments reassociate, so the bound is the testkit's
  // reassociation budget rather than bitwise. Near-zero momentum entries
  // are differences of O(1) fluxes, so their ULPs are counted at the
  // operands' scale 1 + |ref|: counted per value, even the k-way run
  // is hundreds of thousands of ULPs off there.
  const std::int64_t max_ulps = apl::testkit::OracleOptions{}.max_ulps;
  EXPECT_TRUE(apl::testkit::values_agree(rms_ref, rms, true, max_ulps))
      << apl::testkit::ulp_distance(rms_ref, rms) << " ulps";
  const double tol = static_cast<double>(max_ulps) *
                     std::numeric_limits<double>::epsilon();
  ASSERT_EQ(q.size(), q_ref.size());
  for (std::size_t i = 0; i < q_ref.size(); ++i) {
    ASSERT_LE(std::abs(q[i] - q_ref[i]), tol * (1 + std::abs(q_ref[i])))
        << i;
  }
}

TEST(AirfoilDistributed, HaloTrafficScalesWithBoundary) {
  Airfoil a2(small_opts(32, 16)), a8(small_opts(32, 16));
  a2.enable_distributed(2, apl::graph::PartitionMethod::kKway);
  a8.enable_distributed(8, apl::graph::PartitionMethod::kKway);
  a2.run(2);
  a8.run(2);
  const auto b2 = a2.distributed()->comm().traffic().total_bytes();
  const auto b8 = a8.distributed()->comm().traffic().total_bytes();
  EXPECT_GT(b8, b2);            // more ranks, more boundary
  EXPECT_LT(b8, b2 * 8);        // but far from linear in ranks
}

// ---- checkpointing on the real application ----------------------------------

TEST(AirfoilCheckpoint, RestartReproducesRun) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "airfoil.ckpt").string();
  Airfoil ref(small_opts());
  const double rms_ref = ref.run(12);

  {
    Airfoil app(small_opts());
    op2::Checkpointer ck(app.ctx(), path);
    app.run(6);
    ck.request_checkpoint();
    app.run(3);
    ASSERT_TRUE(ck.checkpoint_complete());
    // crash before finishing
  }
  {
    Airfoil app(small_opts());
    op2::Checkpointer ck = op2::Checkpointer::restore(app.ctx(), path);
    const double rms = app.run(12);
    EXPECT_DOUBLE_EQ(rms, rms_ref);
  }
  std::remove(path.c_str());
}

TEST(AirfoilCheckpoint, SpeculativeEntrySavesLessThanWorstCase) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "airfoil_spec.ckpt").string();
  Airfoil app(small_opts());
  op2::Checkpointer ck(app.ctx(), path);
  app.run(3);
  // Real Airfoil steady-state costs: save_soln 8, adt_calc 12, res_calc 13,
  // bres_calc 13, update 9 (update reads adt here; the paper's Fig. 8
  // idealizes update as not reading adt, giving 8).
  const index_t period = ck.detect_period();
  EXPECT_EQ(period, 9);  // save_soln + 2 x (adt, res, bres, update)
  const auto units = ck.units_if_entering_at(period);  // steady save_soln
  ASSERT_TRUE(units.has_value());
  EXPECT_EQ(*units, 8);
  EXPECT_EQ(ck.units_if_entering_at(period + 1).value_or(-1), 12);
  EXPECT_EQ(ck.units_if_entering_at(period + 2).value_or(-1), 13);
  EXPECT_EQ(ck.units_if_entering_at(period + 4).value_or(-1), 9);
  std::remove(path.c_str());
}

}  // namespace
