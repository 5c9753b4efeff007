#!/usr/bin/env bash
# Builds the concurrency-sensitive tests (shared virtual pool, serving
# layer, partitioned executor, fault-injected resilience path, and the
# golden workload with every operator family on morsel worker threads)
# under a sanitizer and runs them. Modes:
#
#   $ scripts/check.sh [repo-root]          # ThreadSanitizer (data races)
#   $ scripts/check.sh --asan [repo-root]   # AddressSanitizer (memory)
#   $ scripts/check.sh --selftest           # verify failure propagation
#
# Wired into ctest as `check_concurrency` (TSAN) and `check_asan` (ASAN),
# registered in non-sanitized builds only. Skips gracefully (exit 0 with
# a notice) when the toolchain cannot link sanitizer binaries, so the
# suite stays green on minimal images.
#
# Failure propagation: `set -e` alone is not enough — it is suppressed in
# command substitutions and compound conditions, and a later bash could be
# invoked without it. Every stage therefore checks its exit status
# explicitly and fails the whole pipeline through `fail`. `--selftest`
# proves the property end to end by forcing a failing stage
# (UNIFY_CHECK_FORCE_FAIL) and asserting the script exits nonzero.
set -euo pipefail

fail() {
  echo "check.sh: FAILED: $*" >&2
  exit 1
}

MODE=thread
if [[ "${1:-}" == "--asan" ]]; then
  MODE=address
  shift
elif [[ "${1:-}" == "--tsan" ]]; then
  shift
elif [[ "${1:-}" == "--selftest" ]]; then
  # Re-run ourselves with a stage forced to fail; the nonzero exit must
  # propagate out. A hung or "green" run here means the pipeline would
  # swallow real sanitizer findings.
  if UNIFY_CHECK_FORCE_FAIL=1 "$0" "${2:-}" >/dev/null 2>&1; then
    fail "selftest: forced-failure run exited 0"
  fi
  echo "check.sh: selftest OK (forced failure propagated nonzero exit)"
  exit 0
fi

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
if [[ "$MODE" == "address" ]]; then
  BUILD="$ROOT/build-asan"
  FLAG="-fsanitize=address"
else
  BUILD="$ROOT/build-tsan"
  FLAG="-fsanitize=thread"
fi

TESTS=(virtual_pool_test service_test fair_scheduler_test executor_test
       partition_test flight_recorder_test resilience_test cache_test
       reoptimize_test http_endpoint_test phrase_probes_test metrics_test
       golden_test)

# Probe: can this toolchain produce a binary under this sanitizer at all?
probe="$(mktemp -d)"
trap 'rm -rf "$probe"' EXIT
cat > "$probe/probe.cc" <<'EOF'
#include <thread>
int main() {
  int x = 0;
  std::thread t([&] { x = 1; });
  t.join();
  return x - 1;
}
EOF
if ! c++ "$FLAG" -pthread "$probe/probe.cc" -o "$probe/probe" \
    2>/dev/null || ! "$probe/probe"; then
  echo "check.sh: toolchain cannot build/run $MODE-sanitized binaries;" \
       "skipping"
  exit 0
fi

# The selftest's simulated mid-pipeline stage failure, placed before the
# expensive configure/build stages so `--selftest` stays cheap.
if [[ -n "${UNIFY_CHECK_FORCE_FAIL:-}" ]]; then
  echo "check.sh: UNIFY_CHECK_FORCE_FAIL set, simulating stage failure" >&2
  false || fail "simulated sanitizer stage failure"
fi

echo "check.sh: configuring $BUILD (UNIFY_SANITIZE=$MODE)"
cmake -B "$BUILD" -S "$ROOT" -DUNIFY_SANITIZE="$MODE" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null \
    || fail "cmake configure in $BUILD"

echo "check.sh: building ${TESTS[*]} under $MODE sanitizer"
cmake --build "$BUILD" -j "$(nproc)" --target "${TESTS[@]}" >/dev/null \
    || fail "build under $MODE sanitizer"

# halt_on_error: fail loudly on the first finding instead of limping on.
# Leak checking is disabled under ASAN — LSAN needs ptrace, which minimal
# CI containers often lack; the tests free what they allocate regardless.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=0 ${ASAN_OPTIONS:-}"
status=0
for test in "${TESTS[@]}"; do
  echo "check.sh: running $test under $MODE sanitizer"
  if ! "$BUILD/tests/$test" --gtest_brief=1; then
    echo "check.sh: $test FAILED under $MODE sanitizer" >&2
    status=1
    # Keep going: report every failing test, then exit nonzero.
  fi
done
[[ "$status" -eq 0 ]] || fail "one or more $MODE-sanitized tests failed"
echo "check.sh: OK (no $MODE sanitizer findings)"
