#!/usr/bin/env bash
# The repo's one-command verification gate:
#
#   1. tier-1: configure + build everything, run the full ctest suite
#      (includes the tools_smoke, crash_smoke, serve_smoke and chaos_smoke
#      end-to-end scripts) twice — pinned to one core (taskset -c 0) and on
#      all cores — so no result may depend on the host's core count;
#   2. race check: rebuild the concurrency-sensitive tests under
#      ThreadSanitizer (cmake -DABSQ_SANITIZE=thread) and run them —
#      the observability layer's lock-free counters and ring tracer,
#      the sharded mailboxes under device workers, the threaded solver,
#      the fault-injection/watchdog paths, and the serving layer (job
#      scheduler + TCP server) must all be TSan-clean;
#   3. memory check: the same targets under Address+UndefinedBehavior
#      Sanitizer (cmake -DABSQ_SANITIZE=address) — quarantine, restart,
#      and checkpoint paths juggle exception_ptrs and device teardown,
#      exactly where lifetime bugs would hide.
#
#   scripts/check.sh [all|tier1|tsan|asan] [jobs]   (default: all, nproc)
#
# SANITIZE_TARGETS below is the one list of sanitizer targets: CI's
# tier-2 and tier-3 jobs run `scripts/check.sh tsan` / `asan`.
set -euo pipefail

cd "$(dirname "$0")/.."
TIER=all
case "${1:-}" in
  all|tier1|tsan|asan) TIER="$1"; shift ;;
esac
JOBS="${1:-$(nproc)}"

SANITIZE_TARGETS=(test_metrics test_log test_trace test_mailbox test_device
                  test_solver test_portfolio test_thread_pool
                  test_failpoint test_fault_tolerance test_protocol
                  test_journal test_job_manager test_job_server
                  test_listener)
# The ASan+UBSan tier adds the flip-kernel suites: UBSan guards the int32
# Δ repair (uint32 wraparound at i == k) on the default hot path; the
# straight search's masked argmin does unaligned vector loads with
# partial-mask tails; read_qubo writes parsed entries straight into the
# matrix.
ASAN_TARGETS=("${SANITIZE_TARGETS[@]}" test_kernels test_delta_state
              test_straight test_io)
# The chaos harness (SIGKILL + --recover) also runs under both sanitizers,
# against sanitized builds of the tools it drives.
CHAOS_TOOLS=(absq_gen absq_serve absq_client)

# Builds `targets` plus the chaos tools under sanitizer $1 in build-$2,
# runs each test binary, then the chaos harness.
sanitizer_tier() {
  local sanitizer="$1" label="$2" dir="build-$2"
  shift 2
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DABSQ_SANITIZE="$sanitizer" -DABSQUBO_BUILD_BENCH=OFF \
        -DABSQUBO_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$dir" -j "$JOBS" --target "$@" "${CHAOS_TOOLS[@]}"
  for test in "$@"; do
    echo "-- $label: $test"
    ./"$dir"/tests/"$test"
  done
  echo "-- $label: chaos_smoke"
  ./scripts/chaos_smoke.sh "$dir"
}

if [[ $TIER == all || $TIER == tier1 ]]; then
  echo "== tier 1: build + ctest =="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build -j "$JOBS"
  echo "-- ctest pinned to one core"
  taskset -c 0 ctest --test-dir build --output-on-failure -j "$JOBS"
  echo "-- ctest on all cores"
  ctest --test-dir build --output-on-failure -j "$JOBS"
fi

if [[ $TIER == all || $TIER == tsan ]]; then
  echo
  echo "== tier 2: ThreadSanitizer =="
  sanitizer_tier thread tsan "${SANITIZE_TARGETS[@]}"
fi

if [[ $TIER == all || $TIER == asan ]]; then
  echo
  echo "== tier 3: Address+UB Sanitizer =="
  sanitizer_tier address asan "${ASAN_TARGETS[@]}"
fi

echo
echo "check.sh: $TIER gates passed"
