// MiniHydra: OP2 version must match the hand-written original, converge,
// and run unchanged under every backend, renumbering and distribution —
// the paper's claim that proxy-app insights transfer to the industrial
// code rests on this kind of equivalence.
#include "minihydra/minihydra.hpp"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "apl/testkit/compare.hpp"
#include "apl/testkit/oracle.hpp"

namespace {

using minihydra::MiniHydra;

MiniHydra::Options small_opts() {
  MiniHydra::Options o;
  o.nx = 20;
  o.ny = 10;
  return o;
}

TEST(MiniHydra, Op2MatchesHandWrittenOriginal) {
  MiniHydra app(small_opts());
  const double rms_op2 = app.run(10);
  std::vector<double> q_orig;
  const double rms_orig = minihydra::run_original(small_opts(), 10, &q_orig);
  EXPECT_DOUBLE_EQ(rms_op2, rms_orig);
  const auto q = app.solution();
  ASSERT_EQ(q.size(), q_orig.size());
  for (std::size_t i = 0; i < q.size(); ++i) {
    ASSERT_DOUBLE_EQ(q[i], q_orig[i]) << i;
  }
}

TEST(MiniHydra, ResidualConverges) {
  MiniHydra app(small_opts());
  const double early = app.run(2);
  const double late = app.run(60);
  EXPECT_GT(early, 0.0);
  EXPECT_LT(late, 0.5 * early);
}

TEST(MiniHydra, RenumberingPreservesPhysics) {
  MiniHydra plain(small_opts());
  const double rms_ref = plain.run(8);
  MiniHydra app(small_opts());
  app.renumber();
  const double rms = app.run(8);
  EXPECT_NEAR(rms, rms_ref, 1e-10 * (1 + rms_ref));
}

class MiniHydraBackends : public ::testing::TestWithParam<apl::exec::Backend> {};

TEST_P(MiniHydraBackends, MatchesSeq) {
  MiniHydra ref(small_opts());
  const double rms_ref = ref.run(6);
  MiniHydra app(small_opts());
  app.ctx().set_backend(GetParam());
  app.ctx().set_block_size(48);
  EXPECT_NEAR(app.run(6), rms_ref, 1e-11 * (1 + rms_ref));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, MiniHydraBackends,
                         ::testing::Values(apl::exec::Backend::kThreads,
                                           apl::exec::Backend::kCudaSim),
                         [](const auto& info) {
                           return op2::to_string(info.param);
                         });

// The benchmark's colored configuration: renumbered, threads backend, the
// context's default plan block size. 240x120 cells give ~57k edges, so the
// edge loops run several blocks per color. Threads-backend bits do not
// depend on the team size (ThreadsReductions.BitwiseAcrossTeamSizes);
// tests/CMakeLists.txt also runs this case with a team of 1.
TEST(MiniHydra, ThreadsAtDefaultBlockSizeMatchesSeqWithinUlps) {
  MiniHydra::Options o;
  o.nx = 240;
  o.ny = 120;
  MiniHydra ref(o);
  ref.renumber();
  const double rms_ref = ref.run(2);
  const auto q_ref = ref.solution();

  MiniHydra app(o);
  app.renumber();
  app.ctx().set_backend(apl::exec::Backend::kThreads);
  const double rms = app.run(2);
  const auto q = app.solution();
  // Colored increments reassociate, so the bound is the testkit's budget,
  // counted at the operands' scale 1 + |ref| as in the Airfoil RCB test.
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

TEST(MiniHydra, DistributedMatchesSeq) {
  MiniHydra ref(small_opts());
  const double rms_ref = ref.run(5);
  MiniHydra app(small_opts());
  app.enable_distributed(3, apl::graph::PartitionMethod::kKway);
  EXPECT_NEAR(app.run(5), rms_ref, 1e-10 * (1 + rms_ref));
}

TEST(MiniHydra, MovesMoreDataPerIterationThanAirfoil) {
  // The Fig. 3/4 premise: Hydra moves many times more bytes per mesh
  // point per iteration than Airfoil.
  MiniHydra app(small_opts());
  app.run(1);
  std::uint64_t bytes = 0;
  for (const auto& [name, s] : app.ctx().profile().all()) bytes += s.bytes();
  const double per_cell =
      static_cast<double>(bytes) / app.mesh().ncell;
  EXPECT_GT(per_cell, 1000.0);  // Airfoil is ~500 B/cell/iteration
}

}  // namespace
