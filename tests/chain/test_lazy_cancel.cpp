// The cancel/preempt contract of the shared lazy chain engine
// (apl/chain.hpp, DESIGN.md §7), run over both families:
//   * a flush whose token is already cancelled throws before touching the
//     queue — nothing runs, nothing parks, the stats are unchanged;
//   * a preemption request or cancel observed after the first step takes
//     effect at the next tile boundary: the remainder parks resumable and
//     the next flush point completes exactly the steps that did not run;
//   * a reduction whose chain did not complete inside its own par_loop
//     never writes its target, even once a later flush completes it.
// op2 walks the sparse-tiled Airfoil-style line mesh, ops a tiled Jacobi
// chain; each kernel tick counts invocations so a test can fire mid-chain.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../support/op2_lazy_sys.hpp"
#include "apl/cancel.hpp"
#include "apl/chain.hpp"
#include "apl/testkit/fixtures.hpp"
#include "ops/ops.hpp"

namespace {

using apl::cancel::Reason;
using op2_lazy_sys::bitwise_equal;

/// Per-invocation hook of the ticking kernel (counter already bumped).
using Tick = void (*)(int*);

/// One family's lazy program behind the family-neutral surface the
/// cancel contract is stated in.
class Program {
 public:
  virtual ~Program() = default;
  /// Queues (or, with lazy off, runs) the program; `tick` fires from the
  /// ticking kernel after every invocation.
  virtual void enqueue(int* counter, Tick tick) = 0;
  virtual apl::exec::ExecContext& ctx() = 0;
  virtual std::size_t chain_length() const = 0;
  virtual bool chain_resumable() const = 0;
  virtual const apl::chain::Stats& stats() const = 0;
  /// Every field the program writes (a raw read: a flush point).
  virtual std::vector<double> state() = 0;
  /// Invocations of the ticking kernel in one whole program.
  virtual int total_ticks() const = 0;
  /// Sums the program's first field into `*target` (a reduction, so a
  /// flush point); `tick` fires from the kernel after every invocation.
  virtual void reduce(double* target, int* counter, Tick tick) = 0;
};

class Op2Program final : public Program {
 public:
  explicit Op2Program(bool lazy) : s_(op2_lazy_sys::build_sys()) {
    s_->ctx.set_tile_size(5);
    s_->ctx.set_lazy(lazy);
  }
  void enqueue(int* counter, Tick tick) override {
    op2_lazy_sys::enqueue_program(*s_, counter, tick);
  }
  apl::exec::ExecContext& ctx() override { return s_->ctx; }
  std::size_t chain_length() const override { return s_->ctx.chain_length(); }
  bool chain_resumable() const override { return s_->ctx.chain_resumable(); }
  const apl::chain::Stats& stats() const override {
    return s_->ctx.chain_stats();
  }
  std::vector<double> state() override { return op2_lazy_sys::state_of(*s_); }
  int total_ticks() const override { return 3 * op2_lazy_sys::kNodes; }
  void reduce(double* target, int* counter, Tick tick) override {
    op2::par_loop(
        s_->ctx, "sum", *s_->nodes,
        [counter, tick](op2::Acc<double> v, op2::Acc<double> g) {
          g[0] += v[0];
          tick(&++*counter);
        },
        op2::arg(*s_->x, apl::exec::Access::kRead),
        op2::arg_gbl(target, 1, apl::exec::Access::kInc));
  }

 private:
  std::unique_ptr<op2_lazy_sys::LazySys> s_;
};

/// init + three Jacobi sweeps with copy-back over a 16x16 grid, tiled two
/// rows at a time: a seven-loop chain of many (op, tile) steps.
class OpsProgram final : public Program {
 public:
  static constexpr ops::index_t kN = 16;

  explicit OpsProgram(bool lazy) : g_(kN, kN) {
    // Guarded kAccess bypasses the lazy engine; these tests assert chain
    // internals, so drop that one check if OPAL_VERIFY armed it.
    g_.ctx.set_verify(g_.ctx.verify_checks() & ~apl::verify::kAccess);
    g_.ctx.set_tile_rows(2);
    g_.ctx.set_lazy(lazy);
  }
  void enqueue(int* counter, Tick tick) override {
    using ops::Access;
    ops::par_loop(g_.ctx, "init", *g_.grid, g_.with_halo(),
                  [](ops::Acc<double> u, const int* idx) {
                    u(0, 0) = idx[0] < 0 ? 1.0 : 0.1 * idx[1];
                  },
                  ops::arg(*g_.u, Access::kWrite), ops::arg_idx());
    for (int step = 0; step < 3; ++step) {
      ops::par_loop(g_.ctx, "jacobi", *g_.grid, g_.interior(),
                    [counter, tick](ops::Acc<double> u, ops::Acc<double> t) {
                      t(0, 0) =
                          0.25 * (u(1, 0) + u(-1, 0) + u(0, 1) + u(0, -1));
                      if (counter != nullptr) {
                        ++*counter;
                        if (tick != nullptr) tick(counter);
                      }
                    },
                    ops::arg(*g_.u, *g_.five, Access::kRead),
                    ops::arg(*g_.t, Access::kWrite));
      ops::par_loop(g_.ctx, "copy", *g_.grid, g_.interior(),
                    [](ops::Acc<double> t, ops::Acc<double> u) {
                      u(0, 0) = t(0, 0);
                    },
                    ops::arg(*g_.t, Access::kRead),
                    ops::arg(*g_.u, Access::kWrite));
    }
  }
  apl::exec::ExecContext& ctx() override { return g_.ctx; }
  std::size_t chain_length() const override { return g_.ctx.chain_length(); }
  bool chain_resumable() const override { return g_.ctx.chain_resumable(); }
  const apl::chain::Stats& stats() const override {
    return g_.ctx.chain_stats();
  }
  std::vector<double> state() override {
    std::vector<double> out = g_.u->to_vector();
    const std::vector<double> t = g_.t->to_vector();
    out.insert(out.end(), t.begin(), t.end());
    return out;
  }
  int total_ticks() const override { return 3 * kN * kN; }
  void reduce(double* target, int* counter, Tick tick) override {
    ops::par_loop(g_.ctx, "sum", *g_.grid, g_.interior(),
                  [counter, tick](ops::Acc<double> u, double* g) {
                    g[0] += u(0, 0);
                    tick(&++*counter);
                  },
                  ops::arg(*g_.u, apl::exec::Access::kRead),
                  ops::arg_gbl(target, 1, apl::exec::Access::kInc));
  }

 private:
  apl::testkit::HeatGrid g_;
};

struct Family {
  const char* name;
  std::unique_ptr<Program> (*make)(bool lazy);
  std::size_t loops;  ///< records one enqueue() queues
};

const Family kOp2 = {"op2", [](bool lazy) -> std::unique_ptr<Program> {
                       return std::make_unique<Op2Program>(lazy);
                     }, 9};
const Family kOps = {"ops", [](bool lazy) -> std::unique_ptr<Program> {
                       return std::make_unique<OpsProgram>(lazy);
                     }, 7};

// The ticking kernels are captureless-callable: the tick hooks reach the
// test's token and trigger point through these.
apl::cancel::Token* g_token = nullptr;
int g_trigger = 0;

std::vector<double> eager_reference(const Family& f) {
  auto p = f.make(false);
  p->enqueue(nullptr, nullptr);
  return p->state();
}

// Each contract case is one function over a Family; the TESTs at the
// bottom run it once per family (LazyCancel.* on op2, OpsLazyCancel.* on
// ops).

void deadline_parks_before_any_tile(const Family& f) {
  SCOPED_TRACE(f.name);
  const std::vector<double> ref = eager_reference(f);

  apl::cancel::Token tok;
  apl::cancel::Scope scope(&tok);
  auto p = f.make(true);
  p->enqueue(nullptr, nullptr);

  // An already-expired deadline: the flush throws before touching the
  // queue, so nothing runs and nothing parks.
  tok.cancel(Reason::kDeadline);
  try {
    p->ctx().flush();
    FAIL() << "flush ignored the cancelled token";
  } catch (const apl::cancel::Cancelled& c) {
    EXPECT_EQ(c.reason(), Reason::kDeadline);
  }
  EXPECT_FALSE(p->chain_resumable()) << "a pre-armed cancel parked a chain";
  EXPECT_EQ(p->chain_length(), f.loops) << "the queue was touched";
  EXPECT_EQ(p->stats().flushes, 0u) << "the cancelled flush was counted";

  // Re-arm and flush: the kept queue runs whole, exactly once.
  tok.reset();
  p->ctx().flush();
  EXPECT_FALSE(p->chain_resumable());
  EXPECT_EQ(p->chain_length(), 0u);
  EXPECT_EQ(p->stats().flushes, 1u);
  EXPECT_TRUE(bitwise_equal(ref, p->state()))
      << "resumed chain diverged from eager";
}

void preempt_at_next_tile_boundary(const Family& f) {
  SCOPED_TRACE(f.name);
  const std::vector<double> ref = eager_reference(f);

  apl::cancel::Token tok;
  apl::cancel::Scope scope(&tok);
  auto p = f.make(true);
  const int total = p->total_ticks();

  // The ticking kernel requests preemption mid-chain (3/8 of the way
  // through its invocations, somewhere inside a middle tile). The current
  // tile must finish — preemption is only observed at tile boundaries —
  // and the remainder parks.
  int counter = 0;
  g_token = &tok;
  g_trigger = total * 3 / 8;
  p->enqueue(&counter, [](int* c) {
    if (*c == g_trigger) g_token->request_preempt();
  });
  try {
    p->ctx().flush();
    FAIL() << "flush ignored the preemption request";
  } catch (const apl::cancel::Cancelled& c) {
    EXPECT_EQ(c.reason(), Reason::kPreempt);
    EXPECT_NE(std::string(c.what()).find("tile boundary"), std::string::npos)
        << c.what();
  }
  EXPECT_TRUE(p->chain_resumable());
  EXPECT_EQ(p->chain_length(), 0u) << "queue was not moved into the park";
  const int at_park = counter;
  EXPECT_GE(at_park, g_trigger) << "preempt fired before the trigger";
  EXPECT_LT(at_park, total) << "chain ran to completion despite preemption";

  // Until the scheduler clears the request, every flush throws before
  // touching the parked remainder.
  EXPECT_THROW(p->ctx().flush(), apl::cancel::Cancelled);
  EXPECT_TRUE(p->chain_resumable());
  EXPECT_EQ(counter, at_park);

  // Re-admission: clear the request and complete. Bitwise agreement with
  // the eager run proves every step ran exactly once.
  tok.clear_preempt();
  p->ctx().flush();
  EXPECT_FALSE(p->chain_resumable());
  EXPECT_EQ(counter, total);
  EXPECT_EQ(p->stats().flushes, 1u);
  EXPECT_TRUE(bitwise_equal(ref, p->state()))
      << "preempted+resumed chain diverged from eager";
}

void raw_access_completes_parked(const Family& f) {
  SCOPED_TRACE(f.name);
  const std::vector<double> ref = eager_reference(f);

  apl::cancel::Token tok;
  auto p = f.make(true);
  int counter = 0;
  {
    // A user cancel from inside the chain: the next tile boundary parks
    // the remainder.
    apl::cancel::Scope scope(&tok);
    g_token = &tok;
    g_trigger = p->total_ticks() / 2;
    p->enqueue(&counter, [](int* c) {
      if (*c == g_trigger) g_token->cancel(Reason::kUser);
    });
    EXPECT_THROW(p->ctx().flush(), apl::cancel::Cancelled);
  }
  ASSERT_TRUE(p->chain_resumable());
  EXPECT_LT(counter, p->total_ticks());
  // Outside the cancel scope, any raw read is an ordinary flush point and
  // must finish the parked remainder before exposing data.
  const std::vector<double> got = p->state();
  EXPECT_FALSE(p->chain_resumable());
  EXPECT_EQ(counter, p->total_ticks());
  EXPECT_TRUE(bitwise_equal(ref, got));
}

// A reduction's value reaches its target only when its chain completes
// inside the par_loop that owns the target: a chain that parks, or a
// record whose flush threw before it ran, outlives that par_loop — and,
// typically, the caller's local it was summing into. Completing it later
// must finish the dats and drop the reduction. The targets here stay
// alive on the heap, so a stray write shows without a sanitizer.
constexpr double kSentinel = -7.25;

void parked_reduction_never_writes_target(const Family& f) {
  SCOPED_TRACE(f.name);
  const std::vector<double> ref = eager_reference(f);

  apl::cancel::Token tok;
  apl::cancel::Scope scope(&tok);
  auto p = f.make(true);
  p->enqueue(nullptr, nullptr);
  auto target = std::make_unique<double>(kSentinel);
  int calls = 0;
  g_token = &tok;
  EXPECT_THROW(p->reduce(target.get(), &calls,
                         [](int* c) {
                           if (*c == 10) g_token->cancel(Reason::kDeadline);
                         }),
               apl::cancel::Cancelled);
  EXPECT_EQ(*target, kSentinel) << "the parked chain wrote its target";
  ASSERT_TRUE(p->chain_resumable());

  tok.reset();
  p->ctx().flush();
  EXPECT_FALSE(p->chain_resumable());
  EXPECT_EQ(*target, kSentinel) << "the resumed chain wrote its target";
  EXPECT_TRUE(bitwise_equal(ref, p->state()))
      << "resumed reduction chain diverged from eager";
}

void unflushed_reduction_never_writes_target(const Family& f) {
  SCOPED_TRACE(f.name);
  const std::vector<double> ref = eager_reference(f);

  apl::cancel::Token tok;
  apl::cancel::Scope scope(&tok);
  auto p = f.make(true);
  p->enqueue(nullptr, nullptr);
  // A pending preemption passes par_loop's cancel point but stops the
  // reduction's own flush before it touches the queue.
  tok.request_preempt();
  auto target = std::make_unique<double>(kSentinel);
  int calls = 0;
  EXPECT_THROW(p->reduce(target.get(), &calls, [](int*) {}),
               apl::cancel::Cancelled);
  EXPECT_EQ(p->chain_length(), f.loops + 1);

  tok.clear_preempt();
  p->ctx().flush();
  EXPECT_GT(calls, 0) << "the queued reduction never ran";
  EXPECT_EQ(*target, kSentinel) << "a later flush wrote the target";
  EXPECT_TRUE(bitwise_equal(ref, p->state()));
}

TEST(LazyCancel, DeadlineParksChainBeforeAnyTileAndResumeCompletes) {
  deadline_parks_before_any_tile(kOp2);
}
TEST(LazyCancel, PreemptTakesEffectAtNextTileBoundaryThenResumes) {
  preempt_at_next_tile_boundary(kOp2);
}
TEST(LazyCancel, RawAccessCompletesParkedRemainder) {
  raw_access_completes_parked(kOp2);
}

TEST(LazyCancel, ParkedReductionNeverWritesItsTarget) {
  parked_reduction_never_writes_target(kOp2);
}
TEST(LazyCancel, UnflushedReductionNeverWritesItsTarget) {
  unflushed_reduction_never_writes_target(kOp2);
}

TEST(OpsLazyCancel, DeadlineParksChainBeforeAnyTileAndResumeCompletes) {
  deadline_parks_before_any_tile(kOps);
}
TEST(OpsLazyCancel, PreemptTakesEffectAtNextTileBoundaryThenResumes) {
  preempt_at_next_tile_boundary(kOps);
}
TEST(OpsLazyCancel, RawAccessCompletesParkedRemainder) {
  raw_access_completes_parked(kOps);
}
TEST(OpsLazyCancel, ParkedReductionNeverWritesItsTarget) {
  parked_reduction_never_writes_target(kOps);
}
TEST(OpsLazyCancel, UnflushedReductionNeverWritesItsTarget) {
  unflushed_reduction_never_writes_target(kOps);
}

}  // namespace
