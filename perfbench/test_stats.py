#!/usr/bin/env python3
"""Self-tests of the benchmark's arithmetic: python3 perfbench/test_stats.py"""

import math
import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertAlmostEqual(stats.percentile(list(range(101)), 99), 99)
        self.assertIsNone(stats.percentile([], 50))

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(999, 99), 9)
        self.assertEqual(stats.tail(7.5, 1000, 99), 7.5)
        self.assertIsNone(stats.tail(7.5, 999, 99))
        self.assertEqual(stats.tail(1.0, 20, 50), 1.0)

    def test_tail_percentile_of_samples(self):
        self.assertIsNone(stats.tail_percentile(list(range(999)), 99))
        self.assertAlmostEqual(stats.tail_percentile(list(range(1001)), 99),
                               990)


class GeomeanTest(unittest.TestCase):
    def test_geometric_mean(self):
        self.assertAlmostEqual(stats.geomean([1, 100]), 10)
        self.assertAlmostEqual(stats.geomean([2, 8, 4]), 4)

    def test_rejects_non_positive_and_empty(self):
        for bad in ([], [1, 0], [1, -2], [1, math.inf]):
            with self.assertRaises(ValueError):
                stats.geomean(bad)


class LadderTest(unittest.TestCase):
    RUNGS = [{"rate_rps": 1, "sent": 100, "met": 100},
             {"rate_rps": 2, "sent": 100, "met": 90},
             {"rate_rps": 4, "sent": 100, "met": 89},
             {"rate_rps": 8, "sent": 100, "met": 3}]

    def test_highest_rung_meeting_the_share(self):
        self.assertEqual(stats.max_rate(self.RUNGS, 0.9), 2)
        self.assertEqual(stats.max_rate(self.RUNGS, 0.5), 4)

    def test_no_rung_qualifies(self):
        self.assertIsNone(stats.max_rate(self.RUNGS[3:], 0.9))
        self.assertIsNone(
            stats.max_rate([{"rate_rps": 1, "sent": 0, "met": 0}], 0.9))


class FailedFracTest(unittest.TestCase):
    def test_share_of_attempted(self):
        self.assertEqual(stats.failed_frac(0, 15), 0)
        self.assertEqual(stats.failed_frac(3, 12), 0.25)
        with self.assertRaises(ValueError):
            stats.failed_frac(0, 0)


def span(name, start, end, parent=-1, thread=0, value=0):
    return {"name": name, "start_ns": start * 10**6, "end_ns": end * 10**6,
            "parent": parent, "thread": thread, "value": value}


class LayerTest(unittest.TestCase):
    SPANS = [
        span("replay.op", 0, 100),                          # 0
        span("autotune.sweep", 5, 95, parent=0),            # 1
        span("compiler.lower", 10, 30, parent=1, thread=1),
        span("compiler.lower", 12, 22, parent=1, thread=2),
        span("opt.addr-hoist", 30, 34, parent=1, thread=1, value=1),
        span("opt.addr-hoist", 22, 24, parent=1, thread=2, value=0),
        span("cache.load.kernel", 1, 2, parent=0, value=0),
        span("cache.load.tune", 2, 3, parent=0, value=1),
        span("runtime.get", 3, 3, parent=0, value=1),
        span("runtime.get", 4, 4, parent=0, value=0),
        span("runtime.get", 4, 4, parent=0, value=1),
        span("runtime.get", 4, 4, parent=0, value=1),
    ]

    SERVING = {"steps": 500, "step_lookups": 510,
               "headline": {"preemptions": 2, "mean_decode_batch": 3.5,
                            "mean_kv_used_frac": 0.25,
                            "queue_wait_ms_p50": 4.0,
                            "queue_wait_ms_p99": 90.0,
                            "queue_wait_count": 999}}

    def test_busy_time_is_summed_over_threads(self):
        m = stats.layer_metrics(stats.Spans(self.SPANS), self.SERVING)
        self.assertEqual(m["compiler.lower.calls"], 2)
        self.assertAlmostEqual(m["compiler.lower.ms"], 30)
        self.assertAlmostEqual(m["compiler.lower.ms_p50"], 15)
        self.assertEqual(m["compiler.lower.ms_p99"], 0)  # 2 samples: withheld
        self.assertAlmostEqual(m["opt.addr-hoist.ms"], 6)
        self.assertAlmostEqual(m["opt.addr-hoist.changed_frac"], 0.5)
        self.assertEqual(m["runtime.get.calls"], 4)
        self.assertAlmostEqual(m["runtime.mem_hit_frac"], 0.75)
        self.assertAlmostEqual(m["cache.load.ms"], 2)
        self.assertEqual(m["cache.disk_hit_frac"], 0)
        self.assertEqual(m["cache.tune_db_hit_frac"], 1)
        self.assertEqual(m["serving.steps"], 500)
        self.assertEqual(m["serving.steps_per_host_s"], 0)  # no serving.run
        self.assertEqual(m["serving.queue_wait_ms_p99"], 0)  # 9 beyond

    def test_unattributed_is_root_time_outside_its_children(self):
        # 100 ms root; children on its thread cover 90 + 1 + 1 ms.
        self.assertAlmostEqual(stats.Spans(self.SPANS).unattributed_ms(), 8)

    def test_every_per_layer_metric_is_produced(self):
        import json
        from pathlib import Path
        spec = json.loads(
            (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
            .read_text())
        names = {m["name"] for m in spec["per_layer"]}
        produced = set(stats.layer_metrics(stats.Spans(self.SPANS),
                                           self.SERVING))
        self.assertEqual(names - produced, {"obs.trace_overhead_frac"})
        self.assertEqual(produced - names, set())


if __name__ == "__main__":
    unittest.main()
