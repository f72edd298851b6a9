// The small OP2 lazy-chain program the lazy-engine tests share: a 40-node
// line mesh and three steps of relax -> gather -> scatter (nine queued
// loops), with an optional per-relax-invocation hook for tests that
// cancel or preempt mid-chain.
#pragma once

#include <cstring>
#include <memory>
#include <vector>

#include "op2/op2.hpp"

namespace op2_lazy_sys {

using apl::exec::Access;

constexpr op2::index_t kNodes = 40;
constexpr op2::index_t kEdges = 39;

inline bool bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct LazySys {
  op2::Context ctx;
  op2::Set* nodes = nullptr;
  op2::Set* edges = nullptr;
  op2::Map* e2n = nullptr;
  op2::Dat<double>* x = nullptr;
  op2::Dat<double>* y = nullptr;
};

inline std::unique_ptr<LazySys> build_sys() {
  auto s = std::make_unique<LazySys>();
  s->ctx.set_verify(s->ctx.verify_checks() & ~apl::verify::kAccess);
  s->nodes = &s->ctx.decl_set(kNodes, "nodes");
  s->edges = &s->ctx.decl_set(kEdges, "edges");
  std::vector<op2::index_t> table(2 * kEdges);
  for (op2::index_t e = 0; e < kEdges; ++e) {
    table[2 * e] = e;
    table[2 * e + 1] = e + 1;
  }
  s->e2n = &s->ctx.decl_map(*s->edges, *s->nodes, 2, table, "e2n");
  std::vector<double> xi(kNodes), yi(kEdges, 0.0);
  for (op2::index_t i = 0; i < kNodes; ++i) {
    xi[static_cast<std::size_t>(i)] = 0.5 + 0.01 * static_cast<double>(i);
  }
  s->x = &s->ctx.decl_dat<double>(*s->nodes, 1, xi, "x");
  s->y = &s->ctx.decl_dat<double>(*s->edges, 1, yi, "y");
  return s;
}

/// Enqueues (or eagerly runs) three steps of relax -> gather -> scatter.
/// `tick` (optional) is called from every relax kernel invocation — the
/// hook the preemption test uses to fire mid-chain.
inline void enqueue_program(LazySys& s, int* counter = nullptr,
                     void (*tick)(int*) = nullptr) {
  for (int step = 0; step < 3; ++step) {
    op2::par_loop(
        s.ctx, "relax", *s.nodes,
        [counter, tick](op2::Acc<double> v) {
          v[0] = 0.5 * v[0] + 0.25;
          if (counter != nullptr) {
            ++*counter;
            if (tick != nullptr) tick(counter);
          }
        },
        op2::arg(*s.x, Access::kRW));
    op2::par_loop(
        s.ctx, "gather", *s.edges,
        [](op2::Acc<double> w, op2::Acc<double> a, op2::Acc<double> b) {
          w[0] = a[0] + b[0];
        },
        op2::arg(*s.y, Access::kWrite),
        op2::arg(*s.x, *s.e2n, 0, Access::kRead),
        op2::arg(*s.x, *s.e2n, 1, Access::kRead));
    op2::par_loop(
        s.ctx, "scatter", *s.edges,
        [](op2::Acc<double> w, op2::Acc<double> a, op2::Acc<double> b) {
          a[0] += 0.125 * w[0];
          b[0] += 0.125 * w[0];
        },
        op2::arg(*s.y, Access::kRead),
        op2::arg(*s.x, *s.e2n, 0, Access::kInc),
        op2::arg(*s.x, *s.e2n, 1, Access::kInc));
  }
}

inline std::vector<double> state_of(LazySys& s) {
  std::vector<double> out = s.x->to_vector();
  const std::vector<double> ye = s.y->to_vector();
  out.insert(out.end(), ye.begin(), ye.end());
  return out;
}

inline std::vector<double> eager_reference() {
  auto s = build_sys();
  enqueue_program(*s);
  return state_of(*s);
}

}  // namespace op2_lazy_sys
