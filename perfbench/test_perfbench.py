#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

The aggregation tests are pure. The determinism test builds perfbench_workload
(as run.py does) and runs each workload briefly: one seed must give
identical counters and answer checksum on every run, another seed must not.
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import aggregate  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(aggregate.percentile(list(range(1, 101)), 0.9), 90)
        self.assertIsNone(aggregate.percentile(list(range(1, 100)), 0.9))
        self.assertEqual(aggregate.percentile(list(range(1, 21)), 0.5), 10)
        self.assertIsNone(aggregate.percentile([], 0.5))

    def test_order_does_not_matter(self):
        samples = [float((i * 37) % 101) for i in range(101)]
        self.assertEqual(aggregate.percentile(samples, 0.9), 90.0)


class SelfTimeTest(unittest.TestCase):
    def test_disjoint_children(self):
        self.assertEqual(aggregate.self_time(0, 100, [(10, 20), (30, 50)]), 70)

    def test_overlapping_and_nested_children_count_once(self):
        self.assertEqual(aggregate.self_time(0, 100, [(10, 40), (20, 30), (35, 60)]), 50)

    def test_children_are_clipped_to_the_parent(self):
        self.assertEqual(aggregate.self_time(10, 20, [(0, 15), (18, 40)]), 3)

    def test_no_children(self):
        self.assertEqual(aggregate.self_time(5, 9, []), 4)


def fake_raw():
    """A minimal perfbench_workload output: two appends (one published) and one query."""
    names = ["core.streaming.append", "shard.router.append", "ts.ingest.align",
             "query.met", "query.mer", "query.topk", "query.mec"]
    raw = {
        "stamp": {"n": 4, "shards": 1},
        "setup_us": [3e5, 1e5, 2e5], "setup_at": [0, 0, 0],
        "first_build_us": [5e4], "first_build_at": [0],
        "publish_us": [1.0], "publish_at": [0],
        "append_us": [1.0], "append_at": [2000],
        "met_us": [0.5], "met_at": [3000],
        "mer_us": [], "mer_at": [], "topk_us": [], "topk_at": [], "mec_us": [], "mec_at": [],
        "cal_at": [-100, 400000, 700000], "cal_ns": [aggregate.CAL_REF_NS] * 3,
        "rows": 2, "measured_wall_s": 0.01,
        "rss_base_kb": 1024, "rss_hwm_kb": 3072,
        "attempted": 3, "failed_ops": 0, "verified": 1, "matched": 1,
        "counters": {"ops.met": 1, "entities.met": 6, "maint.refreshes": 2,
                     "maint.relationships_updated": 10, "publish.epochs": 1,
                     "publish.bytes_copied": 4096, "ingest.rows": 2, "ingest.gaps": 2},
        "span_names": names,
        "phase_ns": [0, 1000000],
        "spans": [[0, 1, 0, 0, 1000], [0, 0, 1, 2000, 3000], [3, 0, 1, 3000, 3500]],
    }
    return raw


class HostSpeedTest(unittest.TestCase):
    def test_scales_by_the_median_chunk_nearby(self):
        ref = aggregate.CAL_REF_NS
        speed = aggregate.HostSpeed([0, 10, 20, 10**9], [ref, 2 * ref, 2 * ref, ref])
        self.assertEqual(speed.scale(5, 15), 0.5)
        self.assertEqual(speed.scale(10**9, 10**9 + 1), 1.0 / 1.5)

    def test_unscaled_end_to_end_keeps_measured_times(self):
        raw = fake_raw()
        raw["cal_ns"] = [2 * aggregate.CAL_REF_NS] * 3
        self.assertEqual(aggregate.end_to_end(raw, normalize=False)["setup_s"][0], 0.2)
        self.assertEqual(aggregate.end_to_end(raw)["setup_s"][0], 0.1)


class MetricsTest(unittest.TestCase):
    def test_end_to_end(self):
        m = aggregate.end_to_end(fake_raw())
        self.assertEqual(m["setup_s"], (0.2, "s"))
        self.assertAlmostEqual(m["ingest_rows_per_s"][0], 1e6)
        self.assertAlmostEqual(m["query_per_s"][0], 2e6)
        self.assertEqual(m["peak_rss_mb"], (2.0, "MiB"))

    def test_busy_time_is_count_times_median(self):
        self.assertEqual(aggregate.busy_s([[1e6, 1e6, 9e6], [2e6]]), 5.0)
        self.assertEqual(aggregate.busy_s([[], [3e6]]), 3.0)

    def test_tails_need_ten_samples_beyond(self):
        raw = fake_raw()
        self.assertIsNone(aggregate.end_to_end(raw)["met_p90_us"][0])
        raw["met_us"] = [float(i) for i in range(1, 101)]
        raw["met_at"] = [3000] * 100
        self.assertEqual(aggregate.end_to_end(raw)["met_p90_us"], (90.0, "us"))
        self.assertIsNone(aggregate.not_gated(raw)["visible_p90_us"][0])

    def test_per_layer(self):
        m = aggregate.per_layer(fake_raw(), 0.01)
        self.assertEqual(m["core.streaming.publish_us_p50"][0], 1.0)
        self.assertEqual(m["core.streaming.append_us_p50"][0], 1.0)
        self.assertEqual(m["core.incremental.updated_per_refresh"][0], 5.0)
        self.assertEqual(m["serve.publish.bytes_per_epoch"][0], 4096)
        self.assertEqual(m["ts.ingest.gap_share"][0], 0.25)
        self.assertAlmostEqual(m["serve.query.met.busy_s"][0], 5e-7)
        calibration = 2 * aggregate.CAL_REF_NS / 1e6  # two chunks inside the 1 ms phase
        self.assertAlmostEqual(m["bench.calibration_share"][0], calibration)
        self.assertAlmostEqual(m["bench.driver_self_share"][0], 1 - 0.0025 - calibration)
        self.assertEqual(m["shard.router.cross_pairs_per_query"][0], 0.0)

    def test_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        raw = fake_raw()
        e2e = aggregate.end_to_end(raw)
        layer = aggregate.per_layer(raw, 0.0)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(e2e))
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(layer))
        for m in spec["end_to_end"]:
            self.assertEqual(m["unit"], e2e[m["name"]][1])
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], layer[m["name"]][1])


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_one_seed_repeats_exactly_and_another_differs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = aggregate.deterministic(run.run_workload(workload, 3, 1, False))
                again = aggregate.deterministic(run.run_workload(workload, 3, 1, True))
                other = aggregate.deterministic(run.run_workload(workload, 4, 1, False))
                self.assertEqual(first, again)
                self.assertNotEqual(first["checksum"], other["checksum"])
                self.assertNotEqual(first["counters"], other["counters"])
                self.assertEqual(first["failed_ops"], 0)
                self.assertGreater(first["verified"], 0)
                self.assertEqual(first["matched"], first["verified"])


if __name__ == "__main__":
    unittest.main()
