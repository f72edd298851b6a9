// Distributed backend: the same loops must produce the same answers as the
// sequential backend, for every partitioner and rank count, while all data
// motion flows through the metered simulated communicator.
#include "op2/dist.hpp"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "op2/op2.hpp"
#include "apl/fault.hpp"
#include "apl/io/plan_cache.hpp"
#include "apl/testkit/fixtures.hpp"
#include "apl/trace.hpp"

namespace {

using apl::graph::PartitionMethod;
using apl::exec::Access;
using op2::index_t;

struct DistHarness {
  explicit DistHarness(index_t nx = 8, index_t ny = 6)
      : mesh(apl::testkit::make_grid(nx, ny)) {
    edges = &ctx.decl_set(mesh.num_edges(), "edges");
    nodes = &ctx.decl_set(mesh.num_nodes(), "nodes");
    e2n = &ctx.decl_map(*edges, *nodes, 2, mesh.edge2node, "e2n");
    x = &ctx.decl_dat<double>(*nodes, 2, mesh.node_coords, "x");
    std::vector<double> qi(mesh.num_nodes());
    for (index_t i = 0; i < mesh.num_nodes(); ++i) qi[i] = 1.0 + i % 7;
    q = &ctx.decl_dat<double>(*nodes, 1, qi, "q");
    res = &ctx.decl_dat<double>(*nodes, 1, std::span<const double>{}, "res");
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

/// Reference: the pseudo-Laplace sweep run with the seq backend.
std::vector<double> reference_sweep(int sweeps) {
  DistHarness h;
  double rms = 0;
  for (int s = 0; s < sweeps; ++s) {
    op2::par_loop(h.ctx, "zero", *h.nodes,
                  [](op2::Acc<double> r) { r[0] = 0; },
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

/// `rank_coords`, if given, receives each rank's copy of the coordinates
/// dat (owned nodes first, then ghosts): the rank's ownership, by value.
std::vector<double> distributed_sweep(
    int sweeps, int nranks, PartitionMethod method,
    apl::exec::Backend node_backend, std::uint64_t* halo_messages = nullptr,
    std::vector<std::vector<double>>* rank_coords = nullptr) {
  DistHarness h;
  op2::Distributed dist(h.ctx, nranks, method, *h.nodes, h.x);
  dist.set_node_backend(node_backend);
  double rms = 0;
  for (int s = 0; s < sweeps; ++s) {
    dist.par_loop("zero", *h.nodes,
                  [](op2::Acc<double> r) { r[0] = 0; },
                  op2::arg(*h.res, Access::kWrite));
    dist.par_loop(
        "flux", *h.edges,
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
    dist.par_loop("apply", *h.nodes,
                  [](op2::Acc<double> q, op2::Acc<double> r,
                     op2::Acc<double> s) {
                    q[0] += r[0];
                    s[0] += r[0] * r[0];
                  },
                  op2::arg(*h.q, Access::kRW),
                  op2::arg(*h.res, Access::kRead),
                  op2::arg_gbl(&rms, 1, Access::kInc));
  }
  dist.fetch(*h.q);
  if (halo_messages) *halo_messages = dist.comm().traffic().messages();
  for (int r = 0; rank_coords != nullptr && r < nranks; ++r) {
    rank_coords->push_back(static_cast<op2::Dat<double>&>(
                               dist.rank_context(r).dat(h.x->id()))
                               .to_vector());
  }
  auto out = h.q->to_vector();
  out.push_back(rms);
  return out;
}

class DistEquivalence
    : public ::testing::TestWithParam<std::tuple<int, PartitionMethod>> {};

TEST_P(DistEquivalence, MatchesSequential) {
  const auto [nranks, method] = GetParam();
  const auto ref = reference_sweep(3);
  const auto got = distributed_sweep(3, nranks, method, apl::exec::Backend::kSeq);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-12 * (1 + std::abs(ref[i]))) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndMethods, DistEquivalence,
    ::testing::Values(std::make_tuple(1, PartitionMethod::kBlock),
                      std::make_tuple(2, PartitionMethod::kBlock),
                      std::make_tuple(3, PartitionMethod::kRcb),
                      std::make_tuple(4, PartitionMethod::kRcb),
                      std::make_tuple(4, PartitionMethod::kKway),
                      std::make_tuple(7, PartitionMethod::kKway)));

TEST(Distributed, HybridMpiThreadsMatchesSequential) {
  const auto ref = reference_sweep(2);
  const auto got =
      distributed_sweep(2, 3, PartitionMethod::kKway, apl::exec::Backend::kThreads);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-12 * (1 + std::abs(ref[i]))) << i;
  }
}

TEST(Distributed, HybridMpiCudaSimMatchesSequential) {
  const auto ref = reference_sweep(2);
  const auto got =
      distributed_sweep(2, 2, PartitionMethod::kRcb, apl::exec::Backend::kCudaSim);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-12 * (1 + std::abs(ref[i]))) << i;
  }
}

TEST(Distributed, SingleRankNeedsNoMessages) {
  std::uint64_t messages = ~0ull;
  distributed_sweep(2, 1, PartitionMethod::kBlock, apl::exec::Backend::kSeq,
                    &messages);
  EXPECT_EQ(messages, 0u);
}

// The base-set partition persists in the plan cache: a cold run stores
// it, a warm run loads it instead of repartitioning, and a blob corrupted
// on disk is noted and repartitioned fresh. Every run gives each rank the
// same elements and computes the same bits.
TEST(Distributed, PartitionCacheColdWarmAndCorrupt) {
  using apl::plan_cache::Store;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "op2_partition_cache")
          .string();
  std::filesystem::remove_all(dir);
  Store store(dir);
  const Store::ScopedStore scope(&store);
  apl::trace::Recorder& rec = apl::trace::Recorder::global();
  struct Run {
    std::vector<double> result;
    std::vector<std::vector<double>> coords;
    std::size_t built = 0, hit = 0, stored = 0;  // spans of the base set
  };
  const auto run = [&] {
    Run r;
    rec.clear();
    rec.set_enabled(true);
    r.result = distributed_sweep(2, 4, PartitionMethod::kKway,
                                 apl::exec::Backend::kSeq, nullptr,
                                 &r.coords);
    rec.set_enabled(false);
    for (const auto& e : rec.snapshot()) {
      r.built += e.name == "part:nodes";
      r.hit += e.name == "part_hit:nodes";
      r.stored += e.name == "plan_store:part:nodes";
    }
    rec.clear();
    return r;
  };
  const auto same_bits = [](const std::vector<double>& a,
                            const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };

  const Run cold = run();
  EXPECT_EQ(store.stats().stores, 1u);
  EXPECT_EQ(store.stats().hits, 0u);
  EXPECT_EQ(cold.built, 1u);
  EXPECT_EQ(cold.stored, 1u);

  store.reset_stats();
  const Run warm = run();
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.stats().stores, 0u);
  EXPECT_EQ(warm.hit, 1u);
  EXPECT_EQ(warm.built, 0u) << "warm start repartitioned";
  EXPECT_EQ(warm.coords, cold.coords) << "warm ownership differs";
  EXPECT_TRUE(same_bits(warm.result, cold.result));

  // Re-populate with a bit flipped in the stored payload past its CRC.
  std::filesystem::remove_all(dir);
  apl::fault::Injector::global().arm(
      apl::fault::parse_config("corrupt_plan_cache=4"));
  run();
  apl::fault::Injector::global().disarm();
  store.reset_stats();
  const Run fresh = run();
  EXPECT_EQ(store.stats().corrupt, 1u) << "corrupt blob not detected";
  EXPECT_EQ(store.stats().stores, 1u);
  EXPECT_EQ(fresh.built, 1u);
  EXPECT_EQ(fresh.coords, cold.coords);
  EXPECT_TRUE(same_bits(fresh.result, cold.result));
  std::filesystem::remove_all(dir);
}

// decode_partition accepts only an owner vector of the set's size with
// every entry a rank; anything else is a named miss.
TEST(Distributed, DecodePartitionValidatesOwners) {
  const auto blob = [](const std::vector<index_t>& owner) {
    apl::plan_cache::BlobWriter w;
    w.section_of<index_t>(0x4F574E52, owner);  // the "OWNR" section
    return w.take();
  };
  std::string diag;
  const auto ok = op2::decode_partition(blob({0, 1, 1, 0}), 4, 2, &diag);
  ASSERT_TRUE(ok.has_value()) << diag;
  EXPECT_EQ(*ok, (std::vector<index_t>{0, 1, 1, 0}));
  for (const auto& owner : {std::vector<index_t>{0, 1, 1},
                            std::vector<index_t>{0, 1, 2, 0},
                            std::vector<index_t>{0, -1, 1, 0}}) {
    EXPECT_FALSE(op2::decode_partition(blob(owner), 4, 2, &diag));
    EXPECT_EQ(diag, "partition blob fails owner validation");
  }
  std::vector<std::uint8_t> truncated = blob({0, 1, 1, 0});
  truncated.resize(truncated.size() - 3);
  EXPECT_FALSE(op2::decode_partition(truncated, 4, 2, &diag));
  EXPECT_FALSE(diag.empty());
}

TEST(Distributed, PartitionCoversEverythingOnce) {
  DistHarness h;
  op2::Distributed dist(h.ctx, 4, PartitionMethod::kKway, *h.nodes);
  index_t owned_nodes = 0, owned_edges = 0;
  for (int r = 0; r < 4; ++r) {
    owned_nodes += dist.owned_count(*h.nodes, r);
    owned_edges += dist.owned_count(*h.edges, r);
  }
  EXPECT_EQ(owned_nodes, h.nodes->size());
  EXPECT_EQ(owned_edges, h.edges->size());
}

TEST(Distributed, GhostCountsAreBoundarySized) {
  DistHarness h(16, 16);
  op2::Distributed dist(h.ctx, 4, PartitionMethod::kRcb, *h.nodes, h.x);
  // 2D decomposition of a 17x17 node grid into 4: the total ghost volume
  // should be a small multiple of the cut length, far below the set size.
  const index_t ghosts = dist.total_ghosts(*h.nodes);
  EXPECT_GT(ghosts, 0);
  EXPECT_LT(ghosts, h.nodes->size() / 2);
}

TEST(Distributed, OnDemandExchangeOnlyWhenDirty) {
  DistHarness h;
  op2::Distributed dist(h.ctx, 2, PartitionMethod::kRcb, *h.nodes, h.x);
  auto read_loop = [&] {
    dist.par_loop("gatheronly", *h.edges,
                  [](op2::Acc<double> qa, op2::Acc<double> len) {
                    len[0] += qa[0];
                  },
                  op2::arg(*h.q, *h.e2n, 0, Access::kRead),
                  op2::arg(*h.res, *h.e2n, 0, Access::kInc));
  };
  read_loop();
  const std::uint64_t after_first = dist.comm().traffic().messages();
  read_loop();  // q untouched since: its halo is clean, no new q exchange
  const std::uint64_t after_second = dist.comm().traffic().messages();
  // Second loop still flushes res increments but must not re-exchange q.
  // Count q-exchange messages as the difference beyond the flush traffic.
  dist.par_loop("touch_q", *h.nodes,
                [](op2::Acc<double> q) { q[0] += 1.0; },
                op2::arg(*h.q, Access::kRW));
  read_loop();  // q dirty again: exchange must happen
  const std::uint64_t after_third = dist.comm().traffic().messages();
  const std::uint64_t second_delta = after_second - after_first;
  const std::uint64_t third_delta = after_third - after_second;
  EXPECT_GT(third_delta, second_delta);
}

TEST(Distributed, MinMaxReductions) {
  DistHarness h;
  op2::Distributed dist(h.ctx, 3, PartitionMethod::kBlock, *h.nodes);
  double mn = 1e300, mx = -1e300;
  dist.par_loop("minmax", *h.nodes,
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

TEST(Distributed, RejectsIndirectWrite) {
  DistHarness h;
  op2::Distributed dist(h.ctx, 2, PartitionMethod::kBlock, *h.nodes);
  EXPECT_THROW(dist.par_loop("bad", *h.edges,
                             [](op2::Acc<double> q) { q[0] = 1; },
                             op2::arg(*h.q, *h.e2n, 0, Access::kWrite)),
               apl::Error);
}

TEST(Distributed, RejectsReadAndIncOfSameDat) {
  DistHarness h;
  op2::Distributed dist(h.ctx, 2, PartitionMethod::kBlock, *h.nodes);
  EXPECT_THROW(
      dist.par_loop("bad", *h.edges,
                    [](op2::Acc<double> a, op2::Acc<double> b) {
                      b[0] += a[0];
                    },
                    op2::arg(*h.q, *h.e2n, 0, Access::kRead),
                    op2::arg(*h.q, *h.e2n, 1, Access::kInc)),
      apl::Error);
}

TEST(Distributed, HaloBytesRecordedInProfile) {
  DistHarness h;
  op2::Distributed dist(h.ctx, 4, PartitionMethod::kRcb, *h.nodes, h.x);
  dist.par_loop("flux0", *h.edges,
                [](op2::Acc<double> qa, op2::Acc<double> ra) {
                  ra[0] += qa[0];
                },
                op2::arg(*h.q, *h.e2n, 0, Access::kRead),
                op2::arg(*h.res, *h.e2n, 1, Access::kInc));
  // The q halo was clean after scatter, so only the res flush moves bytes.
  const auto& s = h.ctx.profile().all().at("flux0");
  EXPECT_GT(s.halo_bytes, 0u);
}

TEST(Distributed, FetchRoundTripsScatter) {
  DistHarness h;
  const auto before = h.q->to_vector();
  op2::Distributed dist(h.ctx, 3, PartitionMethod::kKway, *h.nodes);
  dist.fetch(*h.q);
  EXPECT_EQ(h.q->to_vector(), before);
}

}  // namespace
