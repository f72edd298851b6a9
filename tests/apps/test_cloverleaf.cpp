// CloverLeaf tests: the OPS port against the hand-coded reference (the
// Fig. 5 premise — generated code must equal hand-written code), physics
// sanity, backend and distributed equivalence.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "cloverleaf/cloverleaf_ops.hpp"
#include "cloverleaf/cloverleaf_ref.hpp"

namespace {

using cloverleaf::CloverOps;
using cloverleaf::CloverRef;
using cloverleaf::FieldSummary;
using cloverleaf::Options;

Options small_opts(cloverleaf::index_t n = 24) {
  Options o;
  o.nx = o.ny = n;
  return o;
}

void expect_summary_eq(const FieldSummary& a, const FieldSummary& b,
                       double tol = 0.0) {
  if (tol == 0.0) {
    EXPECT_DOUBLE_EQ(a.volume, b.volume);
    EXPECT_DOUBLE_EQ(a.mass, b.mass);
    EXPECT_DOUBLE_EQ(a.internal_energy, b.internal_energy);
    EXPECT_DOUBLE_EQ(a.kinetic_energy, b.kinetic_energy);
    EXPECT_DOUBLE_EQ(a.pressure, b.pressure);
    EXPECT_DOUBLE_EQ(a.dt, b.dt);
  } else {
    EXPECT_NEAR(a.mass, b.mass, tol * std::abs(b.mass));
    EXPECT_NEAR(a.internal_energy, b.internal_energy,
                tol * std::abs(b.internal_energy));
    EXPECT_NEAR(a.kinetic_energy, b.kinetic_energy,
                tol * (1 + std::abs(b.kinetic_energy)));
    EXPECT_NEAR(a.dt, b.dt, tol * std::abs(b.dt));
  }
}

// ---- the Fig. 5 premise -----------------------------------------------------

TEST(Cloverleaf, OpsMatchesHandCodedBitwise) {
  CloverOps ops_app(small_opts());
  CloverRef ref_app(small_opts());
  ops_app.run(20);
  ref_app.run(20);
  expect_summary_eq(ops_app.field_summary(), ref_app.field_summary());
  const auto d1 = ops_app.density();
  const auto d2 = ref_app.density();
  ASSERT_EQ(d1.size(), d2.size());
  for (std::size_t i = 0; i < d1.size(); ++i) {
    ASSERT_DOUBLE_EQ(d1[i], d2[i]) << i;
  }
  const auto v1 = ops_app.velocity_x();
  const auto v2 = ref_app.velocity_x();
  for (std::size_t i = 0; i < v1.size(); ++i) {
    ASSERT_DOUBLE_EQ(v1[i], v2[i]) << i;
  }
}

// ---- physics sanity ---------------------------------------------------------

TEST(Cloverleaf, InitialSummaryMatchesDeck) {
  CloverOps app(small_opts(20));
  const auto s = app.field_summary();
  const Options o = small_opts(20);
  const double cell_vol = (o.xmax / o.nx) * (o.xmax / o.nx);
  EXPECT_NEAR(s.volume, cell_vol * o.nx * o.ny, 1e-9);
  // Mass: energetic region (state2_xfrac * state2_yfrac of the box) at
  // rho_state2, rest ambient.
  const double frac = o.state2_xfrac * o.state2_yfrac;
  const double want_mass =
      s.volume * (frac * o.rho_state2 + (1 - frac) * o.rho_ambient);
  EXPECT_NEAR(s.mass, want_mass, 1e-9 * want_mass);
  EXPECT_DOUBLE_EQ(s.kinetic_energy, 0.0);
}

TEST(Cloverleaf, MassApproximatelyConserved) {
  CloverOps app(small_opts());
  const double mass0 = app.field_summary().mass;
  app.run(40);
  const double mass1 = app.field_summary().mass;
  // Advection conserves exactly; the simplified PdV drifts slightly.
  EXPECT_NEAR(mass1, mass0, 0.02 * mass0);
}

TEST(Cloverleaf, EnergyFlowsFromInternalToKinetic) {
  CloverOps app(small_opts());
  const auto s0 = app.field_summary();
  app.run(30);
  const auto s1 = app.field_summary();
  EXPECT_GT(s1.kinetic_energy, 0.0);             // expansion started
  EXPECT_LT(s1.internal_energy, s0.internal_energy);  // converted
  const double total0 = s0.internal_energy + s0.kinetic_energy;
  const double total1 = s1.internal_energy + s1.kinetic_energy;
  EXPECT_NEAR(total1, total0, 0.05 * total0);    // roughly conserved
}

TEST(Cloverleaf, FieldsStayPhysical) {
  CloverOps app(small_opts());
  app.run(50);
  for (double d : app.density()) {
    EXPECT_GT(d, 0.0);
    EXPECT_LT(d, 10.0);
  }
  EXPECT_GT(app.dt(), 0.0);
}

TEST(Cloverleaf, UniformStateIsSteady) {
  Options o = small_opts(12);
  o.rho_state2 = o.rho_ambient;  // no energetic region: uniform gas at rest
  o.e_state2 = o.e_ambient;
  CloverOps app(o);
  app.run(5);
  const auto s = app.field_summary();
  EXPECT_NEAR(s.kinetic_energy, 0.0, 1e-20);
  for (double d : app.density()) EXPECT_DOUBLE_EQ(d, o.rho_ambient);
}

// ---- backend equivalence ----------------------------------------------------

class CloverBackends : public ::testing::TestWithParam<ops::Backend> {};

TEST_P(CloverBackends, MatchesSeq) {
  CloverOps ref(small_opts(16));
  ref.run(10);
  CloverOps app(small_opts(16));
  app.ctx().set_backend(GetParam());
  app.run(10);
  expect_summary_eq(app.field_summary(), ref.field_summary(), 1e-12);
  const auto d1 = app.density();
  const auto d2 = ref.density();
  for (std::size_t i = 0; i < d1.size(); ++i) {
    ASSERT_NEAR(d1[i], d2[i], 1e-12) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, CloverBackends,
                         ::testing::Values(ops::Backend::kThreads,
                                           ops::Backend::kCudaSim),
                         [](const auto& info) {
                           return ops::to_string(info.param);
                         });

// ---- lazy loop-chain execution ----------------------------------------------

TEST(CloverleafLazy, LazyTiledBitIdenticalToEager) {
  CloverOps ref(small_opts());
  ref.run(20);
  Options o = small_opts();
  o.lazy = true;  // queue loops; chains flush at calc_dt's min reduction
  CloverOps app(o);
  // Guarded kAccess forces eager execution; this test asserts the chain
  // actually formed, so drop that one check if OPAL_VERIFY armed it.
  app.ctx().set_verify(app.ctx().verify_checks() & ~apl::verify::kAccess);
  app.run(20);
  expect_summary_eq(app.field_summary(), ref.field_summary());
  const auto d1 = app.density();
  const auto d2 = ref.density();
  ASSERT_EQ(d1.size(), d2.size());
  for (std::size_t i = 0; i < d1.size(); ++i) {
    ASSERT_EQ(d1[i], d2[i]) << i;  // bit-identical, not just close
  }
  const auto v1 = app.velocity_x();
  const auto v2 = ref.velocity_x();
  for (std::size_t i = 0; i < v1.size(); ++i) {
    ASSERT_EQ(v1[i], v2[i]) << i;
  }
  // The timestep really ran through the lazy engine in multi-loop chains.
  EXPECT_GT(app.ctx().chain_stats().flushes, 0u);
  EXPECT_GE(app.ctx().chain_stats().max_chain, 5u);
}

// A chain flushed as skewed tiles must attribute its work per constituent
// loop exactly as eager execution does: same call counts, same elements,
// same bytes in every access class — nothing double-counted on repeated
// flushes, nothing lumped onto the flush-triggering loop.
TEST(CloverleafLazy, ProfileAttributionMatchesEager) {
  CloverOps eager(small_opts());
  eager.run(12);
  Options o = small_opts();
  o.lazy = true;
  CloverOps lazy(o);
  lazy.ctx().set_verify(lazy.ctx().verify_checks() & ~apl::verify::kAccess);
  lazy.run(12);
  lazy.ctx().flush();  // drain any still-queued tail of the last step
  ASSERT_GT(lazy.ctx().chain_stats().flushes, 1u)
      << "the run must have crossed several flush points";

  const auto& e = eager.ctx().profile().all();
  const auto& l = lazy.ctx().profile().all();
  ASSERT_EQ(e.size(), l.size());
  for (const auto& [name, es] : e) {
    const auto it = l.find(name);
    ASSERT_NE(it, l.end()) << "loop '" << name << "' missing from lazy run";
    const apl::LoopStats& ls = it->second;
    EXPECT_EQ(ls.calls, es.calls) << name;
    EXPECT_EQ(ls.elements, es.elements) << name;
    EXPECT_EQ(ls.bytes_direct, es.bytes_direct) << name;
    EXPECT_EQ(ls.bytes_gather, es.bytes_gather) << name;
    EXPECT_EQ(ls.bytes_scatter, es.bytes_scatter) << name;
    EXPECT_EQ(ls.flops, es.flops) << name;
    // Wall time differs between the two runs, but every loop that executed
    // must have been timed (tile slices attribute seconds to their loop,
    // never to the loop whose reduction triggered the flush).
    if (es.calls > 0) {
      EXPECT_GT(ls.seconds, 0.0) << name;
    }
  }
}

TEST(CloverleafLazy, TinyTilesBitIdenticalToEager) {
  CloverOps ref(small_opts(16));
  ref.run(10);
  Options o = small_opts(16);
  o.lazy = true;
  o.tile_rows = 3;  // force many tile crossings per dependence
  CloverOps app(o);
  app.run(10);
  expect_summary_eq(app.field_summary(), ref.field_summary());
  const auto d1 = app.density();
  const auto d2 = ref.density();
  for (std::size_t i = 0; i < d1.size(); ++i) {
    ASSERT_EQ(d1[i], d2[i]) << i;
  }
}

// ---- distributed ------------------------------------------------------------

class CloverDist : public ::testing::TestWithParam<int> {};

TEST_P(CloverDist, MatchesSequential) {
  CloverOps ref(small_opts(16));
  ref.run(8);
  CloverOps app(small_opts(16));
  app.enable_distributed(GetParam());
  app.run(8);
  expect_summary_eq(app.field_summary(), ref.field_summary(), 1e-11);
  const auto d1 = app.density();
  const auto d2 = ref.density();
  for (std::size_t i = 0; i < d1.size(); ++i) {
    ASSERT_NEAR(d1[i], d2[i], 1e-11) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, CloverDist, ::testing::Values(2, 4));

TEST(CloverDist, StencilChecksPassInDebugMode) {
  CloverOps app(small_opts(10));
  app.ctx().set_verify(app.ctx().verify_checks() | apl::verify::kStencil);
  // Every kernel's accesses must be inside its declared stencils.
  EXPECT_NO_THROW(app.run(2));
}

}  // namespace
