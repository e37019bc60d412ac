#!/usr/bin/env python3
"""Tests of run.py's arithmetic: the tail-percentile choice, span self
times, the attempted/failed tallies and the result line.

    python3 vdbbench/test_run.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def span(id_, parent, start, end, name="x", label="", attrs=None):
    return {"id": id_, "parent": parent, "op": 0, "name": name,
            "label": label, "start_ns": start, "end_ns": end,
            "attrs": attrs or {}}


class TailPercentileTest(unittest.TestCase):
    def test_median_only_below_forty_samples(self):
        self.assertIsNone(run.tail_percentile(0))
        self.assertIsNone(run.tail_percentile(39))

    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(40), None)  # p90 leaves 4
        self.assertEqual(run.tail_percentile(99), None)  # p90 leaves 9.9
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(199), 90.0)
        self.assertEqual(run.tail_percentile(200), 95.0)
        self.assertEqual(run.tail_percentile(999), 95.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))  # 1..100, shuffled order is irrelevant
        self.assertEqual(run.percentile(values[::-1], 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 99), 99)
        self.assertEqual(run.percentile([7.0], 99), 7.0)
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(run.self_times([span(1, -1, 10, 35)]), {1: 25})

    def test_children_are_subtracted(self):
        spans = [span(1, -1, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 90),
                 span(4, 3, 60, 70)]
        selfs = run.self_times(spans)
        self.assertEqual(selfs[1], 100 - 20 - 40)
        self.assertEqual(selfs[3], 40 - 10)
        self.assertEqual(selfs[2], 20)
        self.assertEqual(selfs[4], 10)

    def test_overlapping_children_count_once(self):
        spans = [span(1, -1, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 80)]
        self.assertEqual(run.self_times(spans)[1], 100 - 70)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(1, -1, 0, 100), span(2, 1, 90, 130)]
        self.assertEqual(run.self_times(spans)[1], 90)


class TallyTest(unittest.TestCase):
    def test_sums_rounds(self):
        rounds = [{"attempted": 28, "failed": 0}, {"attempted": 28, "failed": 3}]
        self.assertEqual(run.tally(rounds), (56, 3))

    def test_rejects_empty_or_inconsistent(self):
        with self.assertRaises(ValueError):
            run.tally([])
        with self.assertRaises(ValueError):
            run.tally([{"attempted": 2, "failed": 3}])


def raw_run(host_s, checks_ok=True, spans=()):
    return {"setup_s": [3.0, 1.0, 2.0],
            "rounds": [{"host_s": h, "attempted": 4, "failed": 0, "values": {}}
                       for h in host_s],
            "requests": [],
            "checks": [{"name": "c", "ok": checks_ok, "detail": ""}],
            "spans": list(spans)}


class SummaryTest(unittest.TestCase):
    def test_untraced_reports_end_to_end_medians(self):
        result = run.summarize([raw_run([5.0, 1.0, 2.0])])
        self.assertEqual(result["attempted"], 12)
        self.assertEqual(result["failed"], 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["setup_s"], {"value": 2.0, "unit": "s"})
        self.assertEqual(result["metrics"]["host_s"], {"value": 2.0, "unit": "s"})
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in BENCH["end_to_end"]))

    def test_failed_check_makes_the_run_incorrect(self):
        result = run.summarize([raw_run([1.0]), raw_run([1.0], checks_ok=False)])
        self.assertFalse(result["correct"])

    def test_traced_reports_every_per_layer_metric_and_overhead(self):
        spans = [span(1, -1, 0, 2_000_000_000, "core.SolveDesignProblem",
                      "greedy", {"probes": 10, "cache_hits": 5, "probe_s": 0.5})]
        result = run.summarize([raw_run([1.0]), raw_run([1.1], spans=spans)])
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in BENCH["per_layer"]))
        self.assertAlmostEqual(metrics["trace.overhead"]["value"], 0.1)
        self.assertAlmostEqual(metrics["search.greedy_s"]["value"], 2.0)
        self.assertAlmostEqual(metrics["search.self_s"]["value"], 1.5)
        self.assertAlmostEqual(metrics["whatif.probe_ms"]["value"], 50.0)
        self.assertEqual(metrics["server.start_s"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
