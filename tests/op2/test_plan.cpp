#include "op2/plan.hpp"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "op2/op2.hpp"
#include "apl/testkit/fixtures.hpp"

namespace {

using op2::index_t;

struct PlanFixture : ::testing::Test {
  void SetUp() override {
    mesh = apl::testkit::make_grid(8, 8);
    edges = &ctx.decl_set(mesh.num_edges(), "edges");
    nodes = &ctx.decl_set(mesh.num_nodes(), "nodes");
    e2n = &ctx.decl_map(*edges, *nodes, 2, mesh.edge2node, "e2n");
    q = &ctx.decl_dat<double>(*nodes, 1, std::span<const double>{}, "q");
  }
  apl::testkit::GridMesh mesh;
  op2::Context ctx;
  op2::Set* edges = nullptr;
  op2::Set* nodes = nullptr;
  op2::Map* e2n = nullptr;
  op2::Dat<double>* q = nullptr;
};

std::vector<op2::ArgInfo> inc_args(op2::Dat<double>& d, const op2::Map& m) {
  return {op2::arg(d, m, 0, apl::exec::Access::kInc).info(),
          op2::arg(d, m, 1, apl::exec::Access::kInc).info()};
}

TEST_F(PlanFixture, DirectLoopHasSingleColor) {
  const std::vector<op2::ArgInfo> args = {
      op2::arg(*q, apl::exec::Access::kWrite).info()};
  // Direct loop over nodes: no conflicts, everything one color.
  const op2::Plan p = op2::detail::build_plan(ctx, *nodes, args, 16);
  EXPECT_FALSE(p.has_conflicts);
  EXPECT_EQ(p.num_block_colors, 1);
  EXPECT_EQ(p.max_elem_colors, 1);
}

TEST_F(PlanFixture, IndirectReadHasNoConflicts) {
  const std::vector<op2::ArgInfo> args = {
      op2::arg(*q, *e2n, 0, apl::exec::Access::kRead).info()};
  const op2::Plan p = op2::detail::build_plan(ctx, *edges, args, 16);
  EXPECT_FALSE(p.has_conflicts);
}

TEST_F(PlanFixture, IndirectIncrementColorsBlocks) {
  const op2::Plan p = op2::detail::build_plan(ctx, *edges, inc_args(*q, *e2n), 16);
  EXPECT_TRUE(p.has_conflicts);
  EXPECT_GT(p.num_block_colors, 1);
  // Property: no two blocks of equal color touch a common node.
  std::vector<std::set<index_t>> block_nodes(p.num_blocks);
  for (index_t b = 0; b < p.num_blocks; ++b) {
    for (index_t e = p.block_offset[b]; e < p.block_offset[b + 1]; ++e) {
      block_nodes[b].insert(e2n->at(e, 0));
      block_nodes[b].insert(e2n->at(e, 1));
    }
  }
  for (index_t b1 = 0; b1 < p.num_blocks; ++b1) {
    for (index_t b2 = b1 + 1; b2 < p.num_blocks; ++b2) {
      if (p.block_color[b1] != p.block_color[b2]) continue;
      for (index_t n : block_nodes[b1]) {
        EXPECT_EQ(block_nodes[b2].count(n), 0u)
            << "blocks " << b1 << "," << b2 << " share node " << n;
      }
    }
  }
}

TEST_F(PlanFixture, ElementColoringValidWithinBlocks) {
  const op2::Plan p = op2::detail::build_plan(ctx, *edges, inc_args(*q, *e2n), 32);
  for (index_t b = 0; b < p.num_blocks; ++b) {
    // No two same-colored edges within a block share a node.
    for (index_t e1 = p.block_offset[b]; e1 < p.block_offset[b + 1]; ++e1) {
      for (index_t e2 = e1 + 1; e2 < p.block_offset[b + 1]; ++e2) {
        if (p.elem_color[e1] != p.elem_color[e2]) continue;
        for (index_t k1 = 0; k1 < 2; ++k1) {
          for (index_t k2 = 0; k2 < 2; ++k2) {
            EXPECT_NE(e2n->at(e1, k1), e2n->at(e2, k2))
                << "same-color edges " << e1 << "," << e2 << " share a node";
          }
        }
      }
    }
  }
}

TEST_F(PlanFixture, BlocksCoverSetExactly) {
  const op2::Plan p = op2::detail::build_plan(ctx, *edges, inc_args(*q, *e2n), 48);
  EXPECT_EQ(p.block_offset.front(), 0);
  EXPECT_EQ(p.block_offset.back(), edges->size());
  index_t blocks_in_colors = 0;
  for (const auto& c : p.blocks_by_color) {
    blocks_in_colors += static_cast<index_t>(c.size());
  }
  EXPECT_EQ(blocks_in_colors, p.num_blocks);
}

TEST_F(PlanFixture, IncrementsToDifferentDatsDoNotConflict) {
  op2::Dat<double>& r =
      ctx.decl_dat<double>(*nodes, 1, std::span<const double>{}, "r");
  // Each edge increments q through endpoint 0 and r through endpoint 1:
  // never the same array element, so the resources are disjoint and only
  // same-dat sharing forces colors.
  const std::vector<op2::ArgInfo> args = {
      op2::arg(*q, *e2n, 0, apl::exec::Access::kInc).info(),
      op2::arg(r, *e2n, 1, apl::exec::Access::kInc).info()};
  const op2::Plan p = op2::detail::build_plan(ctx, *edges, args, 16);
  EXPECT_TRUE(p.has_conflicts);
  // With only single-endpoint increments per dat, fewer colors are needed
  // than when both endpoints of both dats conflict.
  const op2::Plan worst = op2::detail::build_plan(ctx, *edges, inc_args(*q, *e2n), 16);
  EXPECT_LE(p.num_block_colors, worst.num_block_colors);
}

TEST_F(PlanFixture, PlansAreCachedBySignature) {
  const auto args = inc_args(*q, *e2n);
  const op2::Plan& p1 = ctx.plan_for({"loop", edges, args});
  const op2::Plan& p2 = ctx.plan_for({"loop", edges, args});
  EXPECT_EQ(&p1, &p2);
  // A different argument signature must get its own plan.
  const std::vector<op2::ArgInfo> read_args = {
      op2::arg(*q, *e2n, 0, apl::exec::Access::kRead).info()};
  const op2::Plan& p3 = ctx.plan_for({"loop", edges, read_args});
  EXPECT_NE(&p3, &p1);
  EXPECT_FALSE(p3.has_conflicts);
  EXPECT_TRUE(p1.has_conflicts);
}

TEST_F(PlanFixture, BlockSizeChangeInvalidatesCache) {
  const auto args = inc_args(*q, *e2n);
  const op2::Plan& p1 = ctx.plan_for({"loop", edges, args});
  EXPECT_EQ(p1.block_size, 4096);
  ctx.set_block_size(32);
  const op2::Plan& p2 = ctx.plan_for({"loop", edges, args});
  EXPECT_EQ(p2.block_size, 32);
}

TEST_F(PlanFixture, EmptySetPlan) {
  op2::Set& empty = ctx.decl_set(0, "empty");
  const std::vector<op2::ArgInfo> args;
  const op2::Plan p = op2::detail::build_plan(ctx, empty, args, 16);
  EXPECT_EQ(p.num_blocks, 0);
}

TEST_F(PlanFixture, EmptySetIndirectPlanAuditsClean) {
  op2::Set& empty = ctx.decl_set(0, "none");
  op2::Map& none2n =
      ctx.decl_map(empty, *nodes, 2, std::vector<index_t>{}, "none2n");
  const auto args = inc_args(*q, none2n);
  const op2::Plan p = op2::detail::build_plan(ctx, empty, args, 16);
  EXPECT_EQ(p.num_blocks, 0);
  EXPECT_TRUE(op2::audit_plan(ctx, empty, args, p).empty());
}

TEST_F(PlanFixture, SingleElementSetPlanIsValid) {
  op2::Set& one = ctx.decl_set(1, "one");
  op2::Map& o2n =
      ctx.decl_map(one, *nodes, 2, std::vector<index_t>{0, 1}, "o2n");
  const auto args = inc_args(*q, o2n);
  const op2::Plan p = op2::detail::build_plan(ctx, one, args, 16);
  EXPECT_EQ(p.num_blocks, 1);
  EXPECT_EQ(p.block_offset.back(), 1);
  EXPECT_TRUE(op2::audit_plan(ctx, one, args, p).empty());
}

TEST_F(PlanFixture, SelfReferencingMapPlanIsRaceFree) {
  // cells -> cells map (each cell increments itself and its successor):
  // the from- and to-set coincide, and one row even references the element
  // itself. The colored plan must still prove race-free under the audit.
  op2::Set& cells = ctx.decl_set(6, "cells");
  std::vector<index_t> tbl;
  for (index_t c = 0; c < 6; ++c) {
    tbl.push_back(c);
    tbl.push_back((c + 1) % 6);
  }
  op2::Map& c2c = ctx.decl_map(cells, cells, 2, tbl, "c2c");
  op2::Dat<double>& acc = ctx.decl_dat<double>(
      cells, 1, std::vector<double>(6, 0.0), "acc");
  const auto args = inc_args(acc, c2c);
  const op2::Plan p = op2::detail::build_plan(ctx, cells, args, 2);
  EXPECT_TRUE(p.has_conflicts);
  EXPECT_TRUE(op2::audit_plan(ctx, cells, args, p).empty());
}

}  // namespace
