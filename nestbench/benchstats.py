"""Metric arithmetic of the benchmark: the tail percentile, geometric means,
and per-layer self time derived from recorded spans.

A span is a dict with "name", "parent" (index into the same list, or -1),
"start_us", "end_us" and, for runtime stages, an optional "spilled" flag.
"""

import math

# Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def tail(xs):
    """The highest percentile of `xs` that has at least TAIL_BEYOND samples
    beyond it: the (n - TAIL_BEYOND)-th smallest sample, whose percentile
    rank is (n - TAIL_BEYOND) / n. Returns (value, percentile, n); with too
    few samples the maximum is returned and the percentile is None."""
    s = sorted(xs)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], None, n
    k = n - TAIL_BEYOND
    return s[k - 1], 100.0 * k / n, n


def geomean(xs):
    if not xs or any(x <= 0 for x in xs):
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def clip(start, end, lo, hi):
    """Length of [start, end] inside [lo, hi]."""
    return max(0.0, min(end, hi) - max(start, lo))


def union_length(intervals):
    """Length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def clipped_children(spans):
    """Per span index, its children's intervals clipped to the span."""
    out = {i: [] for i in range(len(spans))}
    for c in spans:
        p = c["parent"]
        if p < 0:
            continue
        lo, hi = spans[p]["start_us"], spans[p]["end_us"]
        a, b = max(c["start_us"], lo), min(c["end_us"], hi)
        if b > a:
            out[p].append((a, b))
    return out


def self_times_us(spans):
    """Per span index: its duration minus the part its children cover."""
    kids = clipped_children(spans)
    return [
        (s["end_us"] - s["start_us"]) - union_length(kids[i])
        for i, s in enumerate(spans)
    ]


def clipped_us(spans, i):
    """Duration of span i clipped to its parent (its own duration if it has
    none)."""
    s = spans[i]
    if s["parent"] < 0:
        return s["end_us"] - s["start_us"]
    p = spans[s["parent"]]
    return clip(s["start_us"], s["end_us"], p["start_us"], p["end_us"])


STAGE_KINDS = ("join", "broadcast_join", "cogroup", "nest", "narrow",
               "bag_to_dict", "other")
SKEW_KINDS = ("heavy_keys", "skewjoin", "merge")
PHASES_MS = (("nrc.typecheck_ms", "nrc.typecheck"),
             ("plan.unnest_ms", "plan.unnest"),
             ("plan.optimize_ms", "plan.optimize"),
             ("shred.materialize_ms", "shred.materialize"))


def layer_times(spans):
    """Per-layer times of one traced pass, from its spans."""
    selfs = self_times_us(spans)
    sums = {}
    for i, s in enumerate(spans):
        name = s["name"]
        dur = s["end_us"] - s["start_us"]
        if name.startswith("runtime.") or name.startswith("skew."):
            c = clipped_us(spans, i)
            sums[name] = sums.get(name, 0.0) + c
            if s.get("spilled"):
                sums["spill"] = sums.get("spill", 0.0) + c
        else:
            sums[name] = sums.get(name, 0.0) + dur
            if name == "exec.execute":
                sums["exec.driver"] = sums.get("exec.driver", 0.0) + selfs[i]
    out = {}
    for metric, name in PHASES_MS:
        out[metric] = sums.get(name, 0.0) / 1e3
    out["exec.execute_s"] = sums.get("exec.execute", 0.0) / 1e6
    out["exec.unshred_s"] = sums.get("exec.unshred", 0.0) / 1e6
    out["exec.driver_s"] = sums.get("exec.driver", 0.0) / 1e6
    for k in STAGE_KINDS:
        out["runtime.%s_s" % k] = sums.get("runtime." + k, 0.0) / 1e6
    for k in SKEW_KINDS:
        out["skew.%s_s" % k] = sums.get("skew." + k, 0.0) / 1e6
    out["spill.stages_s"] = sums.get("spill", 0.0) / 1e6
    return out


def stage_overruns(spans, slack_us=1.0):
    """Execute and unshred spans whose clipped stage time exceeds their own
    duration (must never happen)."""
    kids = clipped_children(spans)
    bad = []
    for i, s in enumerate(spans):
        if s["name"] not in ("exec.execute", "exec.unshred"):
            continue
        covered = sum(b - a for a, b in kids[i])
        if covered > (s["end_us"] - s["start_us"]) + slack_us:
            bad.append(i)
    return bad
