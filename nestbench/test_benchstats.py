"""Tests of the benchmark's metric arithmetic on synthetic inputs.

    python3 -m unittest discover -s nestbench -p 'test_*.py'
"""

import math
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchstats as bs  # noqa: E402


def span(name, parent, start, end, spilled=False):
    s = {"name": name, "parent": parent, "start_us": start, "end_us": end}
    if spilled:
        s["spilled"] = True
    return s


class GeomeanTest(unittest.TestCase):
    def test_equal_weights(self):
        self.assertAlmostEqual(bs.geomean([1.0, 100.0]), 10.0)
        self.assertAlmostEqual(bs.geomean([2.0, 8.0, 4.0]), 4.0)

    def test_single_sample(self):
        self.assertAlmostEqual(bs.geomean([3.5]), 3.5)

    def test_rejects_nonpositive(self):
        with self.assertRaises(ValueError):
            bs.geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            bs.geomean([])


class TailTest(unittest.TestCase):
    def test_leaves_ten_samples_beyond(self):
        xs = [float(i) for i in range(1, 41)]  # 1..40
        value, pct, n = bs.tail(xs)
        self.assertEqual(n, 40)
        self.assertEqual(value, 30.0)
        self.assertAlmostEqual(pct, 75.0)
        self.assertEqual(sum(1 for x in xs if x > value), 10)

    def test_order_does_not_matter(self):
        xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0, 12.0]
        self.assertEqual(bs.tail(xs), bs.tail(sorted(xs)))
        value, pct, n = bs.tail(xs)
        self.assertEqual(value, 2.0)
        self.assertAlmostEqual(pct, 100.0 * 2 / 12)

    def test_highest_such_percentile(self):
        xs = [float(i) for i in range(100)]
        value, pct, _ = bs.tail(xs)
        self.assertEqual(sum(1 for x in xs if x > value), 10)
        # One rank higher would leave only nine samples beyond.
        self.assertEqual(sum(1 for x in xs if x > value + 1), 9)
        self.assertAlmostEqual(pct, 90.0)

    def test_too_few_samples(self):
        value, pct, n = bs.tail([3.0, 1.0, 2.0])
        self.assertEqual((value, pct, n), (3.0, None, 3))


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span("query", -1, 0, 100),
                 span("plan.unnest", 0, 10, 30),
                 span("exec.execute", 0, 40, 90),
                 span("runtime.join", 2, 40, 60),
                 span("runtime.nest", 2, 60, 85)]
        self.assertEqual(bs.self_times_us(spans), [30, 20, 5, 20, 25])

    def test_overlapping_children_count_once(self):
        spans = [span("exec.execute", -1, 0, 100),
                 span("runtime.join", 0, 10, 50),
                 span("runtime.nest", 0, 40, 70)]
        self.assertEqual(bs.self_times_us(spans)[0], 40)

    def test_stage_started_before_execute_is_clipped(self):
        # The first stage of a query absorbs the time since the cluster's
        # previous stage; only its part inside the execute span counts.
        spans = [span("query", -1, 0, 200),
                 span("exec.execute", 0, 100, 200),
                 span("runtime.narrow", 1, 20, 150),
                 span("runtime.join", 1, 150, 190)]
        layers = bs.layer_times(spans)
        self.assertAlmostEqual(layers["runtime.narrow_s"], 50e-6)
        self.assertAlmostEqual(layers["runtime.join_s"], 40e-6)
        self.assertAlmostEqual(layers["exec.execute_s"], 100e-6)
        self.assertAlmostEqual(layers["exec.driver_s"], 10e-6)
        self.assertEqual(bs.stage_overruns(spans), [])

    def test_clipped_stage_time_never_exceeds_execute(self):
        spans = [span("exec.execute", -1, 100, 200)]
        for lo, hi in [(0, 120), (120, 180), (180, 400), (400, 500)]:
            spans.append(span("runtime.nest", 0, lo, hi, spilled=True))
        layers = bs.layer_times(spans)
        self.assertLessEqual(layers["runtime.nest_s"],
                             layers["exec.execute_s"])
        self.assertAlmostEqual(layers["spill.stages_s"], 100e-6)
        self.assertAlmostEqual(layers["exec.driver_s"], 0.0)
        self.assertEqual(bs.stage_overruns(spans), [])

    def test_overrun_is_reported(self):
        spans = [span("exec.execute", -1, 0, 100),
                 span("runtime.join", 0, 0, 80),
                 span("runtime.nest", 0, 20, 100)]
        self.assertEqual(bs.stage_overruns(spans), [0])

    def test_phase_and_skew_sums(self):
        spans = [span("query", -1, 0, 1000),
                 span("nrc.typecheck", 0, 0, 250),
                 span("query", -1, 1000, 2000),
                 span("nrc.typecheck", 2, 1000, 1500),
                 span("exec.execute", 2, 1500, 2000),
                 span("skew.heavy_keys", 4, 1500, 1600)]
        layers = bs.layer_times(spans)
        self.assertAlmostEqual(layers["nrc.typecheck_ms"], 0.75)
        self.assertAlmostEqual(layers["skew.heavy_keys_s"], 100e-6)
        self.assertEqual(layers["skew.merge_s"], 0.0)
        self.assertEqual(layers["shred.materialize_ms"], 0.0)

    def test_union_length(self):
        self.assertEqual(bs.union_length([(0, 10), (5, 15), (20, 25)]), 20)
        self.assertEqual(bs.union_length([]), 0)
        self.assertTrue(math.isclose(bs.union_length([(1, 1), (2, 3)]), 1))


if __name__ == "__main__":
    unittest.main()
