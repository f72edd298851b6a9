// Guarded execution mode (apl::verify): every check catches its
// deliberately wrong program with a diagnostic naming the loop and the
// offending argument, records the violation in the context's Report, and
// guarded runs of *correct* code stay bit-identical to unguarded ones.
//
// One test per failure mode:
//   kAccess  — write through kRead, read-before-write kWrite, partial
//              kWrite, non-additive kInc (OP2 canary probes); write through
//              kRead and through a kRead global (OPS snapshot diff).
//   kBounds  — out-of-range map at declaration, and per-loop revalidation
//              catching a fault-injected corruption (corrupt_map=name@I).
//   kPlan    — audit flags a tampered coloring; a real plan audits clean.
//   kHalo    — owner values changed behind the dirty-bit tracking are
//              reported as stale ghost copies (OP2 and OPS).
//   kStencil — an access outside the declared stencil names dat + stencil,
//              on seq, threads and lazy tiles.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apl/fault.hpp"
#include "apl/verify.hpp"
#include "op2/dist.hpp"
#include "op2/op2.hpp"
#include "op2/plan.hpp"
#include "ops/dist.hpp"
#include "ops/ops.hpp"

#include "../support/expect_error.hpp"

namespace {

using apl::exec::Access;
using op2::index_t;
namespace verify = apl::verify;

// ---- spec parsing -----------------------------------------------------------

TEST(VerifySpec, ParsesCheckLists) {
  EXPECT_EQ(verify::checks_from_string("access"), verify::kAccess);
  EXPECT_EQ(verify::checks_from_string("access,bounds"),
            verify::kAccess | verify::kBounds);
  EXPECT_EQ(verify::checks_from_string(" plan , halo "),
            verify::kPlan | verify::kHalo);
  EXPECT_EQ(verify::checks_from_string("all"), unsigned{verify::kAll});
  EXPECT_EQ(verify::checks_from_string("off"), unsigned{verify::kNone});
  // "off" resets whatever was accumulated before it.
  EXPECT_EQ(verify::checks_from_string("bounds,off"), unsigned{verify::kNone});
  EXPECT_APL_ERROR("unknown OPAL_VERIFY check 'acess'",
                   verify::checks_from_string("acess"));
}

// ---- OP2 fixtures -----------------------------------------------------------

/// A 1D line mesh: n nodes, n-1 edges connecting neighbours. Verification
/// is explicitly off after construction; each test opts into its check so
/// results do not depend on the OPAL_VERIFY environment the suite runs in.
struct LineMesh {
  explicit LineMesh(index_t n = 12) : n(n) {
    ctx.set_verify(verify::kNone);
    nodes = &ctx.decl_set(n, "nodes");
    edges = &ctx.decl_set(n - 1, "edges");
    std::vector<index_t> tbl;
    for (index_t e = 0; e < n - 1; ++e) {
      tbl.push_back(e);
      tbl.push_back(e + 1);
    }
    e2n = &ctx.decl_map(*edges, *nodes, 2, tbl, "e2n");
    std::vector<double> qi(n);
    for (index_t i = 0; i < n; ++i) qi[i] = 1.0 + i % 5;
    q = &ctx.decl_dat<double>(*nodes, 1, qi, "q");
    res = &ctx.decl_dat<double>(*nodes, 1, std::vector<double>(n, 0.0),
                                "res");
  }

  /// One correct flux + apply sweep (pure reads, pure increments).
  void sweep() {
    op2::par_loop(ctx, "flux", *edges,
                  [](op2::Acc<double> qa, op2::Acc<double> qb,
                     op2::Acc<double> ra, op2::Acc<double> rb) {
                    const double f = 0.5 * (qa[0] - qb[0]);
                    ra[0] += f;
                    rb[0] -= f;
                  },
                  op2::arg(*q, *e2n, 0, Access::kRead),
                  op2::arg(*q, *e2n, 1, Access::kRead),
                  op2::arg(*res, *e2n, 0, Access::kInc),
                  op2::arg(*res, *e2n, 1, Access::kInc));
    op2::par_loop(ctx, "apply", *nodes,
                  [](op2::Acc<double> q, op2::Acc<double> r) {
                    q[0] += 0.1 * r[0];
                  },
                  op2::arg(*q, Access::kRW), op2::arg(*res, Access::kRead));
  }

  index_t n;
  op2::Context ctx;
  op2::Set* nodes;
  op2::Set* edges;
  op2::Map* e2n;
  op2::Dat<double>* q;
  op2::Dat<double>* res;
};

// ---- OP2 access enforcement -------------------------------------------------

TEST(VerifyOp2Access, WriteThroughReadOnlyArgIsCaught) {
  LineMesh m;
  m.ctx.set_verify(verify::kAccess);
  EXPECT_APL_ERROR("declared kRead, observed write",
                   op2::par_loop(m.ctx, "bad_write", *m.nodes,
                                 [](op2::Acc<double> q) { q[0] = 7.0; },
                                 op2::arg(*m.q, Access::kRead)));
  const verify::Entry* e =
      m.ctx.verify_report().find("bad_write", verify::kAccess);
  ASSERT_NE(e, nullptr);
  EXPECT_NE(e->detail.find("dat 'q'"), std::string::npos);
  EXPECT_NE(e->detail.find("arg 0"), std::string::npos);
  EXPECT_EQ(e->count, 1u);
}

TEST(VerifyOp2Access, ReadBeforeWriteIsCaught) {
  LineMesh m;
  m.ctx.set_verify(verify::kAccess);
  // res is declared kWrite but the update depends on its previous value.
  EXPECT_APL_ERROR("observed read before write",
                   op2::par_loop(m.ctx, "decay", *m.nodes,
                                 [](op2::Acc<double> r) { r[0] = 0.5 * r[0]; },
                                 op2::arg(*m.res, Access::kWrite)));
  const verify::Entry* e = m.ctx.verify_report().find("decay", verify::kAccess);
  ASSERT_NE(e, nullptr);
  EXPECT_NE(e->detail.find("dat 'res'"), std::string::npos);
}

TEST(VerifyOp2Access, PartialWriteIsCaught) {
  LineMesh m;
  m.ctx.set_verify(verify::kAccess);
  op2::Dat<double>& v2 =
      m.ctx.decl_dat<double>(*m.nodes, 2, std::span<const double>{}, "v2");
  // Only component 0 of the 2-component kWrite argument is written.
  EXPECT_APL_ERROR("was never written",
                   op2::par_loop(m.ctx, "half", *m.nodes,
                                 [](op2::Acc<double> v) { v[0] = 1.0; },
                                 op2::arg(v2, Access::kWrite)));
  const verify::Entry* e = m.ctx.verify_report().find("half", verify::kAccess);
  ASSERT_NE(e, nullptr);
  EXPECT_NE(e->detail.find("dat 'v2'"), std::string::npos);
  EXPECT_NE(e->detail.find("component 1"), std::string::npos);
}

TEST(VerifyOp2Access, NonAdditiveIncrementIsCaught) {
  LineMesh m;
  m.ctx.set_verify(verify::kAccess);
  EXPECT_APL_ERROR("not a pure accumulation",
                   op2::par_loop(m.ctx, "clobber", *m.nodes,
                                 [](op2::Acc<double> r) { r[0] = 3.0; },
                                 op2::arg(*m.res, Access::kInc)));
  const verify::Entry* e =
      m.ctx.verify_report().find("clobber", verify::kAccess);
  ASSERT_NE(e, nullptr);
  EXPECT_NE(e->detail.find("dat 'res'"), std::string::npos);
}

TEST(VerifyOp2Access, GuardedRunIsBitIdenticalToUnguarded) {
  LineMesh plain, guarded;
  guarded.ctx.set_verify(verify::kAccess | verify::kBounds | verify::kPlan);
  for (int s = 0; s < 3; ++s) {
    plain.sweep();
    guarded.sweep();
  }
  EXPECT_EQ(plain.q->to_vector(), guarded.q->to_vector());
  EXPECT_EQ(plain.res->to_vector(), guarded.res->to_vector());
  EXPECT_TRUE(guarded.ctx.verify_report().entries().empty());
}

// ---- OP2 bounds validation --------------------------------------------------

TEST(VerifyOp2Bounds, OutOfRangeMapIsRejectedAtDeclaration) {
  // Declaration-time rejection is unconditional (the Map constructor
  // validates before the guarded re-check even runs): the diagnostic must
  // name the map, the bad index and the target set.
  LineMesh m;
  m.ctx.set_verify(verify::kBounds);
  std::vector<index_t> tbl(static_cast<std::size_t>(m.n - 1), 0);
  tbl[4] = 99;  // nodes has only 12 elements
  EXPECT_APL_ERROR("outside target set 'nodes'",
                   m.ctx.decl_map(*m.edges, *m.nodes, 1, tbl, "bad"));
  EXPECT_APL_ERROR("Map 'bad'",
                   m.ctx.decl_map(*m.edges, *m.nodes, 1, tbl, "bad"));
}

TEST(VerifyOp2Bounds, InjectedMapCorruptionIsCaughtPerLoop) {
  // Satellite of the fault layer: OPAL_FAULTS corrupt_map=name@I plants an
  // out-of-range index at the next par_loop; guarded bounds revalidation
  // must report it naming the map, entry and target set.
  LineMesh m;
  m.ctx.set_verify(verify::kBounds);
  apl::fault::Injector::global().arm(
      apl::fault::parse_config("corrupt_map=e2n@3"));
  EXPECT_APL_ERROR("map 'e2n'", m.sweep());
  apl::fault::Injector::global().disarm();
  const verify::Entry* e = m.ctx.verify_report().find("flux", verify::kBounds);
  ASSERT_NE(e, nullptr);
  // Table index 3 is row 1, component 1 of the arity-2 map.
  EXPECT_NE(e->detail.find("entry [1,1]"), std::string::npos);
  EXPECT_NE(e->detail.find("outside target set 'nodes'"), std::string::npos);
}

// ---- OP2 plan race audit ----------------------------------------------------

TEST(VerifyOp2Plan, TamperedColoringIsReportedAsRace) {
  LineMesh m;
  const std::vector<op2::ArgInfo> args = {
      op2::arg(*m.res, *m.e2n, 0, Access::kInc).info(),
      op2::arg(*m.res, *m.e2n, 1, Access::kInc).info()};
  op2::Plan p = op2::detail::build_plan(m.ctx, *m.edges, args, 4);
  ASSERT_TRUE(p.has_conflicts);
  EXPECT_TRUE(op2::audit_plan(m.ctx, *m.edges, args, p).empty());
  // Collapse every color: neighbouring edges now run "concurrently".
  std::fill(p.block_color.begin(), p.block_color.end(), 0);
  std::fill(p.elem_color.begin(), p.elem_color.end(), 0);
  const std::string diag = op2::audit_plan(m.ctx, *m.edges, args, p);
  EXPECT_NE(diag.find("race between elements"), std::string::npos);
  EXPECT_NE(diag.find("dat 'res'"), std::string::npos);
}

TEST(VerifyOp2Plan, ThreadsBackendPlanAuditsClean) {
  LineMesh m;
  m.ctx.set_verify(verify::kPlan);
  m.ctx.set_backend(apl::exec::Backend::kThreads);
  m.sweep();  // plan_for audits the freshly built plan under kPlan
  EXPECT_TRUE(m.ctx.verify_report().entries().empty());
}

// ---- OP2 halo consistency ---------------------------------------------------

TEST(VerifyOp2Halo, OutOfBandOwnerWriteIsReportedStale) {
  LineMesh m;
  m.ctx.set_verify(verify::kHalo);
  op2::Distributed dist(m.ctx, 2, apl::graph::PartitionMethod::kBlock,
                        *m.nodes);
  auto gather = [&](const std::string& name) {
    dist.par_loop(name, *m.edges,
                  [](op2::Acc<double> qa, op2::Acc<double> qb,
                     op2::Acc<double> ra) { ra[0] += qa[0] + qb[0]; },
                  op2::arg(*m.q, *m.e2n, 0, Access::kRead),
                  op2::arg(*m.q, *m.e2n, 1, Access::kRead),
                  op2::arg(*m.res, *m.e2n, 0, Access::kInc));
  };
  gather("gather");  // ghosts are exchanged (or already coherent): clean
  // Write the owners' values behind the library's back: the dirty-bit
  // tracking never sees it, so no exchange happens and every ghost copy of
  // q is now stale.
  for (int r = 0; r < dist.num_ranks(); ++r) {
    auto& rq =
        static_cast<op2::Dat<double>&>(dist.rank_context(r).dat(m.q->id()));
    const index_t owned = dist.owned_count(*m.nodes, r);
    for (index_t e = 0; e < owned; ++e) rq.entry(e)[0] += 1.0;
  }
  EXPECT_APL_ERROR("stale halo copy", gather("gather2"));
  const verify::Entry* e =
      m.ctx.verify_report().find("gather2", verify::kHalo);
  ASSERT_NE(e, nullptr);
  EXPECT_NE(e->detail.find("dat 'q'"), std::string::npos);
}

// ---- OPS fixtures -----------------------------------------------------------

/// A 2D structured block with depth-1 halos and a 5-point stencil.
struct OpsGrid {
  explicit OpsGrid(index_t nx = 12, index_t ny = 6) : nx(nx), ny(ny) {
    ctx.set_verify(verify::kNone);
    grid = &ctx.decl_block(2, "grid");
    centre = &ctx.decl_stencil(2, {{{0, 0, 0}}}, "centre");
    five = &ctx.decl_stencil(
        2,
        {{{0, 0, 0}}, {{1, 0, 0}}, {{-1, 0, 0}}, {{0, 1, 0}}, {{0, -1, 0}}},
        "5pt");
    u = &ctx.decl_dat<double>(*grid, 1, {nx, ny, 1}, {1, 1, 0}, {1, 1, 0},
                              "u");
    t = &ctx.decl_dat<double>(*grid, 1, {nx, ny, 1}, {1, 1, 0}, {1, 1, 0},
                              "t");
  }

  index_t nx, ny;
  ops::Context ctx;
  ops::Block* grid;
  ops::Stencil* centre;
  ops::Stencil* five;
  ops::Dat<double>* u;
  ops::Dat<double>* t;
};

// ---- OPS stencil + access enforcement ---------------------------------------

TEST(VerifyOpsStencil, AccessOutsideDeclaredStencilIsCaught) {
  OpsGrid g;
  g.ctx.set_verify(verify::kStencil);
  // u is declared with the zero-point stencil but the kernel reads u(1,0).
  EXPECT_APL_ERROR(
      "outside declared stencil 'centre'",
      ops::par_loop(g.ctx, "bad_stencil", *g.grid,
                    ops::Range::dim2(0, g.nx, 0, g.ny),
                    [](ops::Acc<double> u, ops::Acc<double> t) {
                      t(0, 0) = u(1, 0);
                    },
                    ops::arg(*g.u, *g.centre, Access::kRead),
                    ops::arg(*g.t, Access::kWrite)));
  const verify::Entry* e =
      g.ctx.verify_report().find("bad_stencil", verify::kStencil);
  ASSERT_NE(e, nullptr);
  EXPECT_NE(e->detail.find("dat 'u'"), std::string::npos);
  EXPECT_NE(e->detail.find("(1,0,0)"), std::string::npos);
}

// The checked instantiation also runs the threads backend's work units
// (64x64 points: four units, so workers may fail at once) and a queued
// loop's tiles; each path records the violation before throwing.
TEST(VerifyOpsStencil, ViolationIsRecordedOnThreadsAndLazy) {
  struct Path {
    const char* name;
    ops::Backend backend;
    bool lazy;
  };
  for (const Path& path : {Path{"seq", ops::Backend::kSeq, false},
                           Path{"threads", ops::Backend::kThreads, false},
                           Path{"lazy", ops::Backend::kSeq, true}}) {
    OpsGrid g(64, 64);
    g.ctx.set_backend(path.backend);
    g.ctx.set_lazy(path.lazy);
    g.ctx.set_verify(verify::kStencil);
    EXPECT_APL_ERROR(
        "outside declared stencil 'centre'",
        ops::par_loop(g.ctx, "bad_stencil", *g.grid,
                      ops::Range::dim2(0, g.nx, 0, g.ny),
                      [](ops::Acc<double> u, ops::Acc<double> t) {
                        t(0, 0) = u(0, 1);
                      },
                      ops::arg(*g.u, *g.centre, Access::kRead),
                      ops::arg(*g.t, Access::kWrite));
        g.ctx.flush());
    const verify::Entry* e =
        g.ctx.verify_report().find("bad_stencil", verify::kStencil);
    ASSERT_NE(e, nullptr) << path.name;
    EXPECT_NE(e->detail.find("dat 'u'"), std::string::npos) << path.name;
    EXPECT_NE(e->detail.find("(0,1,0)"), std::string::npos) << path.name;
  }
}

TEST(VerifyOpsAccess, WriteThroughReadOnlyArgIsCaught) {
  OpsGrid g;
  g.ctx.set_verify(verify::kAccess);
  EXPECT_APL_ERROR(
      "declared kRead but the kernel wrote grid point",
      ops::par_loop(g.ctx, "bad_ops_write", *g.grid,
                    ops::Range::dim2(0, g.nx, 0, g.ny),
                    [](ops::Acc<double> u, ops::Acc<double> t) {
                      u(0, 0) = 5.0;
                      t(0, 0) = 1.0;
                    },
                    ops::arg(*g.u, *g.centre, Access::kRead),
                    ops::arg(*g.t, Access::kWrite)));
  const verify::Entry* e =
      g.ctx.verify_report().find("bad_ops_write", verify::kAccess);
  ASSERT_NE(e, nullptr);
  EXPECT_NE(e->detail.find("dat 'u'"), std::string::npos);
}

TEST(VerifyOpsAccess, WriteThroughReadOnlyGlobalIsCaught) {
  OpsGrid g;
  g.ctx.set_verify(verify::kAccess);
  double scale = 2.0;
  EXPECT_APL_ERROR(
      "declared kRead but the kernel modified component 0",
      ops::par_loop(g.ctx, "bad_gbl", *g.grid,
                    ops::Range::dim2(0, g.nx, 0, g.ny),
                    [](ops::Acc<double> t, double* s) {
                      t(0, 0) = s[0];
                      s[0] += 1.0;
                    },
                    ops::arg(*g.t, Access::kWrite),
                    ops::arg_gbl(&scale, 1, Access::kRead)));
  EXPECT_NE(g.ctx.verify_report().find("bad_gbl", verify::kAccess), nullptr);
}

// The threads backend splits the range into several work units; a kRead
// global still reaches the kernel as the caller's data, so the guard sees
// the write. One point writes and none reads, so the kernel is race-free.
TEST(VerifyOpsAccess, WriteThroughReadOnlyGlobalIsCaughtOnThreads) {
  OpsGrid g(64, 40);
  g.ctx.set_backend(apl::exec::Backend::kThreads);
  g.ctx.set_verify(verify::kAccess);
  double scale = 2.0;
  EXPECT_APL_ERROR(
      "declared kRead but the kernel modified component 0",
      ops::par_loop(g.ctx, "bad_gbl_threads", *g.grid,
                    ops::Range::dim2(0, g.nx, 0, g.ny),
                    [](ops::Acc<double> t, double* s, const int* idx) {
                      t(0, 0) = 1.0;
                      if (idx[0] == 5 && idx[1] == 30) s[0] = 7.0;
                    },
                    ops::arg(*g.t, Access::kWrite),
                    ops::arg_gbl(&scale, 1, Access::kRead), ops::arg_idx()));
  EXPECT_NE(g.ctx.verify_report().find("bad_gbl_threads", verify::kAccess),
            nullptr);
}

// ---- OPS halo consistency ---------------------------------------------------

TEST(VerifyOpsHalo, OutOfBandOwnerWriteIsReportedStale) {
  OpsGrid g;
  g.ctx.set_verify(verify::kHalo);
  ops::Distributed dist(g.ctx, 2);
  dist.par_loop("init", *g.grid,
                ops::Range::dim2(-1, g.nx + 1, -1, g.ny + 1),
                [](ops::Acc<double> u, const int* idx) {
                  u(0, 0) = 0.1 * idx[0] + idx[1];
                },
                ops::arg(*g.u, Access::kWrite), ops::arg_idx());
  auto diff = [&](const std::string& name) {
    dist.par_loop(name, *g.grid, ops::Range::dim2(0, g.nx, 0, g.ny),
                  [](ops::Acc<double> u, ops::Acc<double> t) {
                    t(0, 0) = u(1, 0) + u(-1, 0) + u(0, 1) + u(0, -1);
                  },
                  ops::arg(*g.u, *g.five, Access::kRead),
                  ops::arg(*g.t, Access::kWrite));
  };
  diff("diff");  // exchanges the dirty halo of u: coherent
  // Bump every rank's *interior* (owned) points of u without telling the
  // library: interface ghost copies on the neighbouring rank go stale.
  for (int r = 0; r < dist.num_ranks(); ++r) {
    auto& ru =
        static_cast<ops::Dat<double>&>(dist.rank_context(r).dat(g.u->id()));
    for (index_t j = 0; j < ru.size()[1]; ++j) {
      for (index_t i = 0; i < ru.size()[0]; ++i) *ru.at(i, j) += 1.0;
    }
  }
  EXPECT_APL_ERROR("stale halo copy", diff("diff2"));
  const verify::Entry* e = g.ctx.verify_report().find("diff2", verify::kHalo);
  ASSERT_NE(e, nullptr);
  EXPECT_NE(e->detail.find("dat 'u'"), std::string::npos);
}

// ---- verify-off default -----------------------------------------------------

TEST(VerifyOff, NoChecksLeaveReportEmpty) {
  LineMesh m;  // verification explicitly off
  m.sweep();
  EXPECT_FALSE(m.ctx.verifying(verify::kAccess));
  EXPECT_TRUE(m.ctx.verify_report().entries().empty());
}

}  // namespace
