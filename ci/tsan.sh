#!/usr/bin/env bash
# CI-style ThreadSanitizer pass: checks the docs for drift
# (ci/check_docs.sh) and the bench-report schema (ci/bench_smoke.sh), then
# builds the tree with TRANCE_SANITIZE=thread into its own build directory
# and runs the suites that exercise concurrency (ctest labels `parallel`,
# `obs`, `fusion`, `faults`, `keys`, `flathash`, `columnar`, `spill`,
# `ops`, `skew`, `metrics` and `events` — fault recovery retries tasks
# inside the parallel loops, the encoded-key, flat hash-table, and
# columnar-block suites run every keyed operator at 1, 4, and 8 threads,
# the spill suite forces concurrent fetch-side disk runs at those same
# thread counts, the bulk-operator and skew suites fold per-partition
# counter slots written by pool workers, and the telemetry suites hammer
# the sharded counters and the event ring from worker threads)
# under TSan. The partition-parallel runtime
# oversubscribes threads on small machines, so data races are reachable
# (and reported) even on a single core.
#
# Usage: ci/tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

ci/check_docs.sh
ci/bench_smoke.sh

cmake -B "$BUILD_DIR" -S . -DTRANCE_SANITIZE=thread -DTRANCE_WERROR=ON
cmake --build "$BUILD_DIR" --target parallel_test obs_test fusion_test fault_test key_codec_test flat_hash_test metrics_test event_log_test column_test columnar_test spill_test runtime_ops_test skew_test -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" -L 'parallel|obs|fusion|faults|keys|flathash|metrics|events|columnar|spill|ops|skew' --output-on-failure -j"$(nproc)"
