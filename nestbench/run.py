#!/usr/bin/env python3
"""Repository benchmark: builds the engine and the nestbench driver from
source, runs one workload, checks its outputs, and prints the metrics.

    python3 nestbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json): tpch_nested (Fig 7a), tpch_skew (Fig 8),
biomed_pipeline (Fig 9). Run from the repository root; the build goes to
$CARGO_TARGET_DIR (default .bench_build) under the root. The last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from statistics import median

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchstats as bs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpch_nested", "tpch_skew", "biomed_pipeline")
RUN_TIMEOUT_S = 170
MB = 1e6


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("engine sources (src/) not found next to nestbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "nestbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree configured for a checkout at another path is stale.
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(build_dir)
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir


def run_driver(build_dir, args):
    spill_dir = os.path.join(build_dir, "spill")
    os.makedirs(spill_dir, exist_ok=True)
    out = os.path.join(build_dir, "samples-%s-%d-%d.json" %
                       (args.workload, args.seed, args.trace))
    if os.path.exists(out):
        os.remove(out)
    cmd = [os.path.join(build_dir, "nestbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spill-dir", spill_dir, "--out", out]
    subprocess.run(cmd, check=True, timeout=RUN_TIMEOUT_S,
                   stdout=sys.stderr, stderr=sys.stderr)
    with open(out) as f:
        return json.load(f)


def determinism_errors(raw):
    """shuffle_mb and sim_s must repeat exactly across every pass."""
    passes = [raw["warmup"]] + raw["passes"] + raw["traced_passes"]
    errors = []
    for key in ("shuffle_bytes", "sim_s"):
        values = {p[key] for p in passes}
        if len(values) != 1:
            errors.append("%s differs across passes: %s" %
                          (key, sorted(values)))
    return errors


def end_to_end(raw):
    passes = raw["passes"]
    walls = [sum(p["query_s"]) for p in passes]
    tail_s, tail_pct, n = bs.tail(walls)
    # A query that never ran (its pipeline step's input failed) has no time;
    # it counts in completed_frac, not here.
    per_query = [median([p["query_s"][i] for p in passes])
                 for i in range(len(raw["queries"]))]
    per_query = [t for t in per_query if t > 0]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "pass_s_p50": (median(walls), "s"),
        "pass_s_tail": (tail_s, "s"),
        "query_ms_geomean": (1e3 * bs.geomean(per_query), "ms"),
        "compile_ms_geomean": (
            bs.geomean([median(c) for c in raw["compile_ms"]]), "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "shuffle_mb": (passes[0]["shuffle_bytes"] / MB, "MB"),
        "sim_s": (passes[0]["sim_s"], "s"),
        "completed_frac": ((attempted - failed) / attempted, "fraction"),
        "setup_s": (median([s["total_s"] for s in raw["setup"]]), "s"),
    }
    pct = "p%.1f" % tail_pct if tail_pct is not None else "max"
    notes = ["pass_s_tail is the %s of %d passes" % (pct, n)]
    return metrics, notes


def per_layer(raw):
    traced = raw["traced_passes"]
    layer = {}
    for p in traced:
        for k, v in bs.layer_times(p["spans"]).items():
            layer.setdefault(k, []).append(v)
    m = {k: median(v) for k, v in layer.items()}
    c = {k: median([p["counters"][k] for p in traced])
         for k in traced[0]["counters"]}
    metrics = {}
    for k, v in m.items():
        metrics[k] = (v, "ms" if k.endswith("_ms") else "s")
    counts = {
        "plan.ops_after_optimize": c["plan_ops"],
        "shred.assignments": c["shred_assignments"],
        "runtime.stages": c["stages"],
        "runtime.rows_in": c["rows_in"],
        "runtime.rows_out": c["rows_out"],
        "runtime.hash_build_rows": c["hash_build_rows"],
        "runtime.hash_probe_hits": c["hash_probe_hits"],
        "runtime.hash_resizes": c["hash_resizes"],
        "runtime.column_to_row_conversions": c["column_to_row_conversions"],
        "runtime.fused_stages": c["fused_stages"],
        "spill.runs": c["spill_runs"],
        "skew.heavy_key_count": c["heavy_key_count"],
    }
    for k, v in counts.items():
        metrics[k] = (v, "count")
    sizes = {
        "runtime.peak_partition_mb": c["peak_partition_bytes"],
        "runtime.key_encode_mb": c["key_encode_bytes"],
        "runtime.hash_table_mb": c["hash_table_bytes"],
        "runtime.columnar_mb": c["columnar_bytes"],
        "runtime.intermediate_mb_avoided": c["intermediate_bytes_avoided"],
        "spill.written_mb": c["spill_bytes_written"],
        "spill.read_mb": c["spill_bytes_read"],
    }
    for k, v in sizes.items():
        metrics[k] = (v / MB, "MB")
    metrics["runtime.max_imbalance"] = (c["max_imbalance"], "ratio")
    written = c["spill_bytes_written"]
    metrics["spill.read_write_ratio"] = (
        c["spill_bytes_read"] / written if written else 0.0, "ratio")
    untraced = median([sum(p["query_s"]) for p in raw["passes"]])
    traced_wall = median([sum(p["query_s"]) for p in traced])
    metrics["obs.trace_overhead_frac"] = (traced_wall / untraced - 1,
                                          "fraction")
    for k in ("generate_s", "register_s", "prepare_nested_s",
              "value_shred_s"):
        metrics["setup." + k] = (median([s[k] for s in raw["setup"]]), "s")
    errors = []
    for i, p in enumerate(traced):
        if bs.stage_overruns(p["spans"]):
            errors.append("traced pass %d: clipped stage time exceeds its "
                          "execute span" % i)
    return metrics, errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build_dir = build()
    raw = run_driver(build_dir, args)

    errors = list(raw["errors"]) + determinism_errors(raw)
    if args.trace:
        metrics, layer_errors = per_layer(raw)
        errors += layer_errors
        notes = []
    else:
        metrics, notes = end_to_end(raw)
    counted = raw["passes"] + raw["traced_passes"]
    attempted = sum(p["attempted"] for p in counted)
    failed = sum(p["failed"] for p in counted)
    for p in counted:
        for f in p["failures"][:3]:
            log("failed: " + f)
    for e in errors:
        log("check failed: " + e)

    print("workload %s seed %d: %d threads of %d cpus, %d timed passes%s" %
          (args.workload, args.seed, raw["threads"], raw["nproc"],
           len(raw["passes"]),
           ", %d traced" % len(raw["traced_passes"]) if args.trace else ""))
    for note in notes:
        print(note)
    for k in sorted(metrics):
        v, unit = metrics[k]
        print("  %-36s %14.6f %s" % (k, v, unit))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("nestbench: %s" % e)
        sys.exit(1)
