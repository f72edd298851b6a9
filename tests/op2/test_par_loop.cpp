// Cross-backend equivalence: every backend is "generated code" for the same
// abstract loop, so all must agree with the sequential reference — exactly
// (for order-independent kernels) or to floating-point-reordering tolerance
// (for indirect increments, whose commit order differs by design).
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "op2/op2.hpp"
#include "apl/testkit/fixtures.hpp"

namespace {

using apl::exec::Access;
using apl::exec::Backend;
using op2::index_t;

constexpr Backend kAllBackends[] = {Backend::kSeq, Backend::kThreads,
                                    Backend::kCudaSim};

struct Harness {
  explicit Harness(index_t nx = 6, index_t ny = 5)
      : mesh(apl::testkit::make_grid(nx, ny)) {
    edges = &ctx.decl_set(mesh.num_edges(), "edges");
    nodes = &ctx.decl_set(mesh.num_nodes(), "nodes");
    e2n = &ctx.decl_map(*edges, *nodes, 2, mesh.edge2node, "e2n");
    x = &ctx.decl_dat<double>(*nodes, 2, mesh.node_coords, "x");
    std::vector<double> qi(mesh.num_nodes());
    for (index_t i = 0; i < mesh.num_nodes(); ++i) {
      qi[i] = 1.0 + i % 7;  // exactly representable, order-independent sums
    }
    q = &ctx.decl_dat<double>(*nodes, 1, qi, "q");
    res = &ctx.decl_dat<double>(*nodes, 1, std::span<const double>{}, "res");
    ctx.set_block_size(16);  // force multiple blocks and colors
  }
  apl::testkit::GridMesh mesh;
  op2::Context ctx;
  op2::Set* edges;
  op2::Set* nodes;
  op2::Map* e2n;
  op2::Dat<double>* x;
  op2::Dat<double>* q;
  op2::Dat<double>* res;
};

class BackendTest : public ::testing::TestWithParam<Backend> {};

TEST_P(BackendTest, DirectLoopWritesEveryElement) {
  Harness h;
  h.ctx.set_backend(GetParam());
  op2::par_loop(h.ctx, "scale", *h.nodes,
                [](op2::Acc<double> q, op2::Acc<double> r) { r[0] = 2 * q[0]; },
                op2::arg(*h.q, Access::kRead),
                op2::arg(*h.res, Access::kWrite));
  const auto qv = h.q->to_vector();
  const auto rv = h.res->to_vector();
  for (index_t i = 0; i < h.nodes->size(); ++i) {
    EXPECT_EQ(rv[i], 2 * qv[i]) << i;
  }
}

TEST_P(BackendTest, DirectMultiComponent) {
  Harness h;
  h.ctx.set_backend(GetParam());
  // Swap the two coordinate components in place (RW access).
  op2::par_loop(h.ctx, "swap", *h.nodes,
                [](op2::Acc<double> x) { std::swap(x[0], x[1]); },
                op2::arg(*h.x, Access::kRW));
  const auto xv = h.x->to_vector();
  for (index_t i = 0; i < h.nodes->size(); ++i) {
    EXPECT_EQ(xv[2 * i], h.mesh.node_coords[2 * i + 1]);
    EXPECT_EQ(xv[2 * i + 1], h.mesh.node_coords[2 * i]);
  }
}

TEST_P(BackendTest, IndirectReadGather) {
  Harness h;
  h.ctx.set_backend(GetParam());
  op2::Dat<double>& elen =
      h.ctx.decl_dat<double>(*h.edges, 1, std::span<const double>{}, "elen");
  op2::par_loop(
      h.ctx, "edge_len", *h.edges,
      [](op2::Acc<double> a, op2::Acc<double> b, op2::Acc<double> len) {
        len[0] = std::abs(a[0] - b[0]) + std::abs(a[1] - b[1]);
      },
      op2::arg(*h.x, *h.e2n, 0, Access::kRead),
      op2::arg(*h.x, *h.e2n, 1, Access::kRead),
      op2::arg(elen, Access::kWrite));
  // Every grid edge has unit length.
  for (double v : elen.to_vector()) EXPECT_EQ(v, 1.0);
}

TEST_P(BackendTest, IndirectIncrementMatchesDegree) {
  Harness h;
  h.ctx.set_backend(GetParam());
  // Each edge adds 1 to both endpoints: res becomes the node degree.
  op2::par_loop(h.ctx, "degree", *h.edges,
                [](op2::Acc<double> a, op2::Acc<double> b) {
                  a[0] += 1.0;
                  b[0] += 1.0;
                },
                op2::arg(*h.res, *h.e2n, 0, Access::kInc),
                op2::arg(*h.res, *h.e2n, 1, Access::kInc));
  const auto rv = h.res->to_vector();
  // Interior nodes have degree 4, corners 2, other boundary nodes 3.
  EXPECT_EQ(rv[h.mesh.node_id(0, 0)], 2.0);
  EXPECT_EQ(rv[h.mesh.node_id(1, 0)], 3.0);
  EXPECT_EQ(rv[h.mesh.node_id(1, 1)], 4.0);
  const double total = std::accumulate(rv.begin(), rv.end(), 0.0);
  EXPECT_EQ(total, 2.0 * h.edges->size());
}

TEST_P(BackendTest, GlobalSumReduction) {
  Harness h;
  h.ctx.set_backend(GetParam());
  double sum = 0.0;
  op2::par_loop(h.ctx, "sum_q", *h.nodes,
                [](op2::Acc<double> q, op2::Acc<double> s) { s[0] += q[0]; },
                op2::arg(*h.q, Access::kRead),
                op2::arg_gbl(&sum, 1, Access::kInc));
  const auto qv = h.q->to_vector();
  EXPECT_EQ(sum, std::accumulate(qv.begin(), qv.end(), 0.0));
}

TEST_P(BackendTest, GlobalMinMaxReduction) {
  Harness h;
  h.ctx.set_backend(GetParam());
  double mn = 1e300, mx = -1e300;
  op2::par_loop(h.ctx, "minmax", *h.nodes,
                [](op2::Acc<double> q, op2::Acc<double> lo,
                   op2::Acc<double> hi) {
                  lo[0] = std::min(lo[0], q[0]);
                  hi[0] = std::max(hi[0], q[0]);
                },
                op2::arg(*h.q, Access::kRead),
                op2::arg_gbl(&mn, 1, Access::kMin),
                op2::arg_gbl(&mx, 1, Access::kMax));
  EXPECT_EQ(mn, 1.0);
  EXPECT_EQ(mx, 7.0);
}

TEST_P(BackendTest, GlobalReadBroadcast) {
  Harness h;
  h.ctx.set_backend(GetParam());
  const double factor[2] = {3.0, 4.0};
  op2::par_loop(h.ctx, "axpy", *h.nodes,
                [](op2::Acc<const double> f, op2::Acc<double> q,
                   op2::Acc<double> r) { r[0] = f[0] * q[0] + f[1]; },
                op2::arg_gbl(const_cast<double*>(factor), 2, Access::kRead),
                op2::arg(*h.q, Access::kRead),
                op2::arg(*h.res, Access::kWrite));
  const auto qv = h.q->to_vector();
  const auto rv = h.res->to_vector();
  for (index_t i = 0; i < h.nodes->size(); ++i) {
    EXPECT_EQ(rv[i], 3.0 * qv[i] + 4.0);
  }
}

TEST_P(BackendTest, SoALayoutGivesSameResults) {
  Harness h;
  h.ctx.set_backend(GetParam());
  h.ctx.convert_layout(op2::Layout::kSoA);
  op2::par_loop(h.ctx, "degree", *h.edges,
                [](op2::Acc<double> a, op2::Acc<double> b) {
                  a[0] += 1.0;
                  b[0] += 1.0;
                },
                op2::arg(*h.res, *h.e2n, 0, Access::kInc),
                op2::arg(*h.res, *h.e2n, 1, Access::kInc));
  EXPECT_EQ(h.res->to_vector()[h.mesh.node_id(1, 1)], 4.0);
}

TEST_P(BackendTest, EmptySetLoopIsNoop) {
  Harness h;
  h.ctx.set_backend(GetParam());
  op2::Set& empty = h.ctx.decl_set(0, "empty");
  op2::Dat<double>& d =
      h.ctx.decl_dat<double>(empty, 1, std::span<const double>{}, "d");
  double sum = 0;
  EXPECT_NO_THROW(op2::par_loop(
      h.ctx, "noop", empty,
      [](op2::Acc<double>, op2::Acc<double> s) { s[0] += 1; },
      op2::arg(d, Access::kRW), op2::arg_gbl(&sum, 1, Access::kInc)));
  EXPECT_EQ(sum, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendTest,
                         ::testing::ValuesIn(kAllBackends),
                         [](const auto& info) {
                           return op2::to_string(info.param);
                         });

// ---- Numeric equivalence against seq on a non-trivial kernel ------------

class BackendEquivalence : public ::testing::TestWithParam<Backend> {};

std::vector<double> run_pseudo_laplace(Backend backend, bool soa,
                                       index_t block_size) {
  Harness h(9, 7);
  h.ctx.set_backend(backend);
  h.ctx.set_block_size(block_size);
  if (soa) h.ctx.convert_layout(op2::Layout::kSoA);
  // Three sweeps of an edge-based pseudo-Laplacian with a global residual.
  double rms = 0;
  for (int sweep = 0; sweep < 3; ++sweep) {
    op2::par_loop(h.ctx, "zero", *h.nodes,
                  [](op2::Acc<double> r) { r[0] = 0.0; },
                  op2::arg(*h.res, Access::kWrite));
    op2::par_loop(
        h.ctx, "flux", *h.edges,
        [](op2::Acc<double> qa, op2::Acc<double> qb, op2::Acc<double> ra,
           op2::Acc<double> rb) {
          const double f = 0.25 * (qa[0] - qb[0]);
          ra[0] -= f;
          rb[0] += f;
        },
        op2::arg(*h.q, *h.e2n, 0, Access::kRead),
        op2::arg(*h.q, *h.e2n, 1, Access::kRead),
        op2::arg(*h.res, *h.e2n, 0, Access::kInc),
        op2::arg(*h.res, *h.e2n, 1, Access::kInc));
    op2::par_loop(h.ctx, "apply", *h.nodes,
                  [](op2::Acc<double> q, op2::Acc<double> r,
                     op2::Acc<double> s) {
                    q[0] += r[0];
                    s[0] += r[0] * r[0];
                  },
                  op2::arg(*h.q, Access::kRW),
                  op2::arg(*h.res, Access::kRead),
                  op2::arg_gbl(&rms, 1, Access::kInc));
  }
  auto out = h.q->to_vector();
  out.push_back(rms);
  return out;
}

TEST_P(BackendEquivalence, PseudoLaplaceMatchesSeq) {
  const auto ref = run_pseudo_laplace(Backend::kSeq, false, 256);
  const auto got = run_pseudo_laplace(GetParam(), false, 16);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-12 * (1.0 + std::abs(ref[i]))) << i;
  }
}

TEST_P(BackendEquivalence, PseudoLaplaceMatchesSeqSoA) {
  const auto ref = run_pseudo_laplace(Backend::kSeq, false, 256);
  const auto got = run_pseudo_laplace(GetParam(), true, 24);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-12 * (1.0 + std::abs(ref[i]))) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendEquivalence,
                         ::testing::ValuesIn(kAllBackends),
                         [](const auto& info) {
                           return op2::to_string(info.param);
                         });

// ---- cudasim staging variants --------------------------------------------

TEST(CudaSim, StagingOnOffSameResults) {
  for (const bool staging : {true, false}) {
    Harness h;
    h.ctx.set_backend(Backend::kCudaSim);
    h.ctx.set_staging(staging);
    op2::par_loop(h.ctx, "degree", *h.edges,
                  [](op2::Acc<double> a, op2::Acc<double> b) {
                    a[0] += 1.0;
                    b[0] += 1.0;
                  },
                  op2::arg(*h.res, *h.e2n, 0, Access::kInc),
                  op2::arg(*h.res, *h.e2n, 1, Access::kInc));
    EXPECT_EQ(h.res->to_vector()[h.mesh.node_id(1, 1)], 4.0)
        << "staging=" << staging;
  }
}

// The device-model totals live in the loop's LoopStats, so profile().clear()
// resets them: the efficiency read after a clear and one launch is that
// launch's alone, not a running mean with the launches before the clear.
TEST(CudaSim, EfficiencyAfterClearIsTheNextLaunchAlone) {
  const auto gather = [](Harness& h, bool staging) {
    h.ctx.set_backend(Backend::kCudaSim);
    h.ctx.set_staging(staging);
    op2::par_loop(h.ctx, "gather", *h.edges,
                  [](op2::Acc<double> a, op2::Acc<double> b,
                     op2::Acc<double> r) { r[0] += a[0] + b[1]; },
                  op2::arg(*h.x, *h.e2n, 0, Access::kRead),
                  op2::arg(*h.x, *h.e2n, 1, Access::kRead),
                  op2::arg(*h.res, *h.e2n, 0, Access::kInc));
    return h.ctx.profile().all().at("gather");
  };
  Harness alone;
  const apl::LoopStats staged = gather(alone, true);

  Harness h;
  const apl::LoopStats plain = gather(h, false);
  ASSERT_NE(plain.device_efficiency(), staged.device_efficiency());
  const apl::LoopStats both = gather(h, true);
  EXPECT_EQ(both.device_transactions,
            plain.device_transactions + staged.device_transactions);

  h.ctx.profile().clear();
  const apl::LoopStats after = gather(h, true);
  EXPECT_EQ(after.device_transactions, staged.device_transactions);
  EXPECT_EQ(after.device_bytes, staged.device_bytes);
  EXPECT_EQ(after.device_useful_bytes, staged.device_useful_bytes);
  EXPECT_EQ(after.device_efficiency(), staged.device_efficiency());
}

// ---- consistency checks (apl::verify::kAccess) ----------------------------
// Each test ORs kAccess into the checks already on (OPAL_VERIFY), so an
// OPAL_VERIFY=all run keeps the others.

TEST(DebugChecks, CatchesKernelWritingReadOnlyArg) {
  Harness h;
  h.ctx.set_verify(h.ctx.verify_checks() | apl::verify::kAccess);
  EXPECT_THROW(
      op2::par_loop(h.ctx, "evil", *h.nodes,
                    [](op2::Acc<double> q) { q[0] = -1.0; },
                    op2::arg(*h.q, Access::kRead)),
      apl::Error);
}

// kAccess is honoured whatever backend the context is set to: the guard
// runs its own sequential schedule, so a write through a kRead global is
// caught on every backend.
TEST(DebugChecks, CatchesKernelWritingReadOnlyGlobalOnEveryBackend) {
  for (Backend b : {Backend::kSeq, Backend::kThreads, Backend::kCudaSim}) {
    Harness h;
    h.ctx.set_backend(b);
    h.ctx.set_verify(h.ctx.verify_checks() | apl::verify::kAccess);
    std::vector<double> ids(static_cast<std::size_t>(h.nodes->size()));
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<double>(i);
    }
    op2::Dat<double>& id = h.ctx.decl_dat<double>(*h.nodes, 1, ids, "id");
    double scale = 2.0;
    EXPECT_THROW(op2::par_loop(h.ctx, "evil_gbl", *h.nodes,
                               [](op2::Acc<double> id, op2::Acc<double> r,
                                  op2::Acc<double> s) {
                                 r[0] = 1.0;
                                 if (id[0] == 17.0) s[0] = 7.0;
                               },
                               op2::arg(id, Access::kRead),
                               op2::arg(*h.res, Access::kWrite),
                               op2::arg_gbl(&scale, 1, Access::kRead)),
                 apl::Error)
        << apl::exec::to_string(b);
  }
}

TEST(DebugChecks, PassesWellBehavedKernel) {
  Harness h;
  h.ctx.set_verify(h.ctx.verify_checks() | apl::verify::kAccess);
  EXPECT_NO_THROW(op2::par_loop(
      h.ctx, "good", *h.nodes,
      [](op2::Acc<double> q, op2::Acc<double> r) { r[0] = q[0]; },
      op2::arg(*h.q, Access::kRead), op2::arg(*h.res, Access::kWrite)));
}

// ---- profiling side effects -------------------------------------------------

TEST(Profiling, LoopStatsAccumulate) {
  Harness h;
  op2::par_loop(h.ctx, "scale", *h.nodes,
                [](op2::Acc<double> q, op2::Acc<double> r) { r[0] = q[0]; },
                op2::arg(*h.q, Access::kRead),
                op2::arg(*h.res, Access::kWrite));
  const auto& s = h.ctx.profile().all().at("scale");
  EXPECT_EQ(s.calls, 1u);
  EXPECT_EQ(s.elements, static_cast<std::uint64_t>(h.nodes->size()));
  // q read + res written, both direct doubles.
  EXPECT_EQ(s.bytes_direct,
            2 * sizeof(double) * static_cast<std::uint64_t>(h.nodes->size()));
  EXPECT_EQ(s.bytes_gather, 0u);
}

TEST(Profiling, IndirectBytesCountUniqueTargets) {
  Harness h;
  op2::par_loop(h.ctx, "degree", *h.edges,
                [](op2::Acc<double> a, op2::Acc<double> b) {
                  a[0] += 1.0;
                  b[0] += 1.0;
                },
                op2::arg(*h.res, *h.e2n, 0, Access::kInc),
                op2::arg(*h.res, *h.e2n, 1, Access::kInc));
  const auto& s = h.ctx.profile().all().at("degree");
  // The two Inc args reach the same dat through the same map: the unique
  // data is counted once, with read+write passes (2x).
  EXPECT_EQ(s.bytes_scatter, 2ull * sizeof(double) *
                                 static_cast<std::uint64_t>(h.nodes->size()));
  EXPECT_EQ(s.bytes_direct, 0u);
}

TEST(Profiling, FlopHintsFeedStats) {
  Harness h;
  h.ctx.hint_flops("scale", 3.0);
  op2::par_loop(h.ctx, "scale", *h.nodes,
                [](op2::Acc<double> q, op2::Acc<double> r) { r[0] = q[0]; },
                op2::arg(*h.q, Access::kRead),
                op2::arg(*h.res, Access::kWrite));
  EXPECT_DOUBLE_EQ(h.ctx.profile().all().at("scale").flops,
                   3.0 * h.nodes->size());
}

}  // namespace
