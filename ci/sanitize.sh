#!/usr/bin/env bash
# CI-style sanitizer pass: checks the docs for drift (ci/check_docs.sh)
# and the bench-report schema (ci/bench_smoke.sh), then builds the tree
# with TRANCE_SANITIZE=ON (ASan + UBSan) into its own build directory and
# runs the fast observability suite (ctest label `obs`), the stage-fusion
# equivalence suite (label `fusion`), the fault-recovery suite (label
# `faults`), the encoded-key suite (label `keys`), the flat hash-table
# suite (label `flathash` — arena OOB stress for exactly this pass), the
# columnar-block suite (label `columnar` — string-arena and bitmap bounds
# under ASan), the spill-format suites (labels `serde` and `spill` — byte
# parsers over corrupt input are exactly what ASan is for), the exec suite
# (label `exec` — the scalar compiler evaluates over cell accessors whose
# cells borrow pointers into blocks and bag rows), the bulk-operator and
# skew suites (labels `ops` and `skew` — every keyed operator's counter
# fold and the heavy-key sampler), the thread-count determinism sweep over
# every bulk operator (label `parallel`), the telemetry suites (labels
# `metrics` and `events`), and the end-to-end pipeline suites (label
# `pipeline`: standard_pipeline_test, shred_test and tpch_biomed_test run
# the Fig 7/9 queries through every route, so every column gather of the
# keyed operators and shuffles runs over real nested data) under the
# sanitizers.
# TRANCE_WERROR keeps the build warning-clean.
#
# Usage: ci/sanitize.sh [build-dir]   (default: build-sanitize)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-sanitize}"

ci/check_docs.sh
ci/bench_smoke.sh

cmake -B "$BUILD_DIR" -S . -DTRANCE_SANITIZE=ON -DTRANCE_WERROR=ON
cmake --build "$BUILD_DIR" --target obs_test fusion_test fault_test key_codec_test flat_hash_test metrics_test event_log_test column_test columnar_test serde_test spill_test exec_test runtime_ops_test skew_test parallel_test standard_pipeline_test shred_test tpch_biomed_test -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" -L 'obs|fusion|faults|keys|flathash|metrics|events|columnar|serde|spill|exec|ops|skew|parallel|pipeline' --output-on-failure -j"$(nproc)"
