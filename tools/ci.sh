#!/usr/bin/env bash
# Tier-1 CI gate: warnings-as-errors build + the fast test tier, and an
# optional sanitizer stage.
#
#   tools/ci.sh [build-dir]             # plain tier-1 gate
#   CI_SANITIZE=address tools/ci.sh     # additionally rebuild + retest
#   CI_SANITIZE=undefined tools/ci.sh   # under the given sanitizer
#
# Mirrors what the acceptance checks run, so a green local run means a
# green CI run.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-ci}"

cmake -S "$repo" -B "$build" -DAPL_WERROR=ON
cmake --build "$build" -j "$(nproc)"
ctest --test-dir "$build" -L tier1 --output-on-failure -j "$(nproc)"

# Guarded execution stage: the full tier must stay green with every runtime
# contract check enabled, and the proxy apps must run clean end to end.
# cloverleaf_sim doubles as the bit-identity proof — it compares the
# (guarded) OPS run against the hand-coded reference bit-for-bit.
OPAL_VERIFY=all ctest --test-dir "$build" -L tier1 --output-on-failure \
  -j "$(nproc)"
# Flake guard: the four tests that diverged on OPS threads-backend `init`
# loops under this stage (workers sharing one arg_idx index buffer) must
# now pass ten times over, in parallel.
OPAL_VERIFY=all ctest --test-dir "$build" --output-on-failure \
  -R 'TestkitOracle\.FixedSeedSweepIsClean|MutationOpsHaloWidth\.OracleDetectsIt|OpsDist\.HybridThreadsMatches|ChainCacheWarm\.TestkitSweepCleanWithCacheEnabled' \
  --repeat until-fail:10 -j "$(nproc)"
OPAL_VERIFY=all "$build/examples/airfoil_sim" 10 > /dev/null
OPAL_VERIFY=all "$build/examples/cloverleaf_sim" 10 \
  | grep -q "identical: yes (bitwise)"
# A step count that is not a multiple of the 10-step report interval must
# still compare the same number of steps on both sides.
"$build/examples/cloverleaf_sim" 15 | grep -q "identical: yes (bitwise)"

# Testkit stage: a bounded fixed-seed differential sweep across the whole
# execution matrix (backends x lazy x distributed x checkpoint-restart).
# Fixed seeds keep it deterministic and well under a minute; the long
# randomized sweeps run via tools/fuzz.sh / ctest -L tier2.
"$build/src/testkit/opal_fuzz" --iterations 100 --seed 20260806 --quiet

# Tracing stage: a tier-1 app under OPAL_TRACE must emit schema-valid
# Chrome trace_event JSON — bench_report --check-trace runs the same
# validator the tests assert against — and the tier itself must stay green
# with the recorder buffering every span.
trace_out="$build/airfoil.trace.json"
OPAL_TRACE="$trace_out" "$build/examples/airfoil_sim" 5 > /dev/null
"$build/tools/bench_report" --check-trace "$trace_out"
OPAL_TRACE="$build/tier1.trace.json" ctest --test-dir "$build" -L tier1 \
  --output-on-failure -j "$(nproc)"

# Plan-cache stage: cold->warm differential on Airfoil and the CloverLeaf
# lazy chain. The warm run must load every plan from the cache (zero
# misses, zero corrupt entries), spend less time in plan analysis, and
# match the cold output bitwise — the whole point of persisting Plan IR.
"$build/tools/bench_report" --check-plan-cache

# Resilience stage: the retry + shrink ladder end to end. The kill-sweep
# fault matrix (every rank killed across the exchange ordinals of Airfoil
# and a lazy CloverLeaf chain, bitwise gate against a failure-free run at
# the surviving rank count) runs as the ShrinkRecover tier-1 tests, with
# every ladder rung taken on both families (ShrinkRecoverFamily); the
# bench_report gate replays one faulted run and checks the ledger columns.
"$build/tests/test_resilience" \
  --gtest_filter='ShrinkRecoverTest.*:*/ShrinkRecoverFamily.*' --gtest_brief=1
"$build/tools/bench_report" --check-resilience

# Serve stage: the multi-tenant chaos soak. The opal_serve example runs a
# tenant mix (all three proxy apps) with a crash, a hang and a rank death
# injected into SOME tenants while the rest must finish with solo-identical
# digests; bench_report --check-serve gates the same invariants and prints
# the throughput / latency columns.
"$build/examples/opal_serve" 2 3 > /dev/null
"$build/tools/bench_report" --check-serve

# op2-tiling stage: the same Airfoil mesh eager and lazy-tiled through
# the sparse-tiling inspector/executor (DESIGN.md §15). The gate demands
# every chain fused (zero verbatim fallbacks), a projected traffic
# saving, and bitwise-identical solutions — order-preserving tiling must
# be invisible to the bits. The probe also reruns Airfoil through the
# threaded color-round executor on a 2-member team and demands that its
# own reduction chains run real rounds, q bitwise equal to eager and rms
# bitwise equal to the serial tiled walk (per-tile reduction partials).
"$build/tools/bench_report" --check-op2-tiling

# Benchmark stage: perfbench's own test builds the benchmark binary and
# checks its output contract and planted-failure accounting (wrong fields,
# wrong reductions, thrown jobs and wrong serve digests all count as
# failed). It asserts no timings. perfbench is the only speed evidence;
# the bench_report stages above are correctness gates.
CARGO_TARGET_DIR="$build/perfbench" python3 "$repo/perfbench/test_perfbench.py"

if [[ -n "${CI_SANITIZE:-}" ]]; then
  # A parked lazy reduction outlives the par_loop whose caller owns its
  # target; ASan sees a write into that dead frame only when stack frames
  # of returned functions are kept poisoned.
  if [[ "$CI_SANITIZE" == "address" ]]; then
    export ASAN_OPTIONS="${ASAN_OPTIONS:+$ASAN_OPTIONS:}detect_stack_use_after_return=1"
  fi
  san_build="$build-$CI_SANITIZE"
  cmake -S "$repo" -B "$san_build" -DAPL_WERROR=ON \
        -DAPL_SANITIZE="$CI_SANITIZE"
  cmake --build "$san_build" -j "$(nproc)"
  ctest --test-dir "$san_build" -L tier1 --output-on-failure -j "$(nproc)"
  # The kill sweep must stay clean under the sanitizer too (the ISSUE's
  # APL_SANITIZE=thread configuration when CI_SANITIZE=thread).
  "$san_build/tests/test_resilience" \
    --gtest_filter='ShrinkRecoverTest.*:*/ShrinkRecoverFamily.*' \
    --gtest_brief=1
  # And so must the serve soak: watchdog vs worker vs submitter is exactly
  # the kind of race ThreadSanitizer exists to catch.
  "$san_build/examples/opal_serve" 2 3 > /dev/null
  # The op2 tiling gate reruns under the sanitizer too (APL_SANITIZE=thread
  # when CI_SANITIZE=thread): the fused executor — including Airfoil's
  # reduction chains on the color-round path, each tile writing its own
  # partials — and its cancel checks must be clean, not just bitwise.
  "$san_build/tools/bench_report" --check-op2-tiling
  # Negative control, thread sanitizer only: the planted color-merge
  # mutation puts two conflicting tiles in one round. Run the merged
  # rounds for real on a 4-member team — TSan MUST report the race (the
  # binary exits nonzero), or the sanitizer net has a hole in it.
  if [[ "$CI_SANITIZE" == "thread" ]]; then
    if APL_EXPECT_TSAN=1 TSAN_OPTIONS="${TSAN_OPTIONS:-} exitcode=66" \
        "$san_build/tests/test_mutation_op2_color_merge" \
        --gtest_filter='MutationOp2ColorMerge.TsanCatchesMergedRounds' \
        > /dev/null 2>&1; then
      echo "ci: TSan failed to catch the merged-round race" >&2
      exit 1
    fi
  fi
fi
