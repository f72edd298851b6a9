// Exhaustive configuration sweeps: every combination of backend, layout
// and plan block size must produce the same physics. This is the property
// the whole active-library approach stands on — the "performance" choices
// are invisible to the "science".
#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "airfoil/airfoil.hpp"
#include "op2/op2.hpp"

namespace {

using apl::exec::Backend;
using op2::Layout;

double reference_rms() {
  static const double rms = [] {
    airfoil::Airfoil app;
    return app.run(8);
  }();
  return rms;
}

class AirfoilConfigSweep
    : public ::testing::TestWithParam<std::tuple<Backend, Layout, int>> {};

TEST_P(AirfoilConfigSweep, SamePhysicsEveryConfiguration) {
  const auto [backend, layout, block_size] = GetParam();
  airfoil::Airfoil app;
  app.ctx().set_backend(backend);
  app.ctx().convert_layout(layout);
  app.ctx().set_block_size(block_size);
  const double rms = app.run(8);
  EXPECT_NEAR(rms, reference_rms(), 1e-10 * (1 + reference_rms()));
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, AirfoilConfigSweep,
    ::testing::Combine(::testing::Values(Backend::kSeq, Backend::kSimd,
                                         Backend::kThreads,
                                         Backend::kCudaSim),
                       ::testing::Values(Layout::kAoS, Layout::kSoA),
                       ::testing::Values(32, 256)),
    [](const auto& info) {
      return std::string(op2::to_string(std::get<0>(info.param))) + "_" +
             op2::to_string(std::get<1>(info.param)) + "_b" +
             std::to_string(std::get<2>(info.param));
    });

class AirfoilDistSweep
    : public ::testing::TestWithParam<
          std::tuple<int, apl::graph::PartitionMethod, Backend>> {};

TEST_P(AirfoilDistSweep, SamePhysicsEveryDecomposition) {
  const auto [ranks, method, node_backend] = GetParam();
  airfoil::Airfoil app;
  app.enable_distributed(ranks, method, node_backend);
  const double rms = app.run(8);
  EXPECT_NEAR(rms, reference_rms(), 1e-9 * (1 + reference_rms()));
}

INSTANTIATE_TEST_SUITE_P(
    AllDecomps, AirfoilDistSweep,
    ::testing::Values(
        std::make_tuple(2, apl::graph::PartitionMethod::kBlock,
                        Backend::kSeq),
        std::make_tuple(3, apl::graph::PartitionMethod::kKway,
                        Backend::kSeq),
        std::make_tuple(5, apl::graph::PartitionMethod::kKway,
                        Backend::kSimd),
        std::make_tuple(4, apl::graph::PartitionMethod::kKway,
                        Backend::kThreads),
        std::make_tuple(2, apl::graph::PartitionMethod::kBlock,
                        Backend::kCudaSim)));

TEST(AirfoilSweep, RenumberingComposesWithEveryBackend) {
  for (const Backend b : {Backend::kSeq, Backend::kSimd, Backend::kThreads,
                          Backend::kCudaSim}) {
    airfoil::Airfoil app;
    op2::renumber_mesh(app.ctx(), app.edge2cell_map());
    app.ctx().set_backend(b);
    EXPECT_NEAR(app.run(8), reference_rms(),
                1e-9 * (1 + reference_rms()))
        << op2::to_string(b);
  }
}

TEST(AirfoilSweep, DebugChecksPassOnRealApplication) {
  airfoil::Airfoil app;
  app.ctx().set_verify(app.ctx().verify_checks() | apl::verify::kAccess);
  EXPECT_NO_THROW(app.run(2));
}

}  // namespace
