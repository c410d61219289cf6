"""Unit tests of the benchmark's statistics.

    python3 -m unittest discover -s perfbench/tests
"""
import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_are_those_of_statistics_quantiles(self):
        xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q = statistics.quantiles(xs, n=4)
        self.assertEqual(stats.quartiles(xs), (q[0], q[2]))
        self.assertEqual(stats.quartiles(xs), (2.75, 8.25))

    def test_quartiles_of_one_sample(self):
        self.assertEqual(stats.quartiles([4.0]), (4.0, 4.0))


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(12))
        self.assertIsNone(stats.tail_percentile(99))
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 90.0), 90)
        self.assertEqual(stats.percentile(xs, 99.0), 99)
        self.assertEqual(stats.percentile([7.0], 90.0), 7.0)


class SpanArithmetic(unittest.TestCase):
    def test_union_counts_overlap_once(self):
        self.assertEqual(stats.union_length([(0, 4), (2, 6)]), 6)
        self.assertEqual(stats.union_length([(0, 10), (2, 3)]), 10)
        self.assertEqual(stats.union_length([(0, 1), (5, 7), (6, 9)]), 5)
        self.assertEqual(stats.union_length([]), 0)

    def test_union_touching_intervals(self):
        self.assertEqual(stats.union_length([(0, 2), (2, 5)]), 5)

    def test_union_clips_to_window(self):
        self.assertEqual(stats.union_length([(-5, 3), (8, 20)], 0, 10), 5)
        self.assertEqual(stats.union_length([(11, 12)], 0, 10), 0)

    def test_self_time_subtracts_covered_part(self):
        self.assertEqual(stats.self_time((0, 10), [(1, 3), (2, 5), (7, 8)]), 5)

    def test_self_time_ignores_children_outside_the_span(self):
        self.assertEqual(stats.self_time((10, 20), [(0, 12), (19, 30)]), 7)
        self.assertEqual(stats.self_time((0, 4), []), 4)

    def test_skew(self):
        self.assertEqual(stats.skew([10.0, 10.0, 30.0]), 3.0)
        self.assertEqual(stats.skew([5.0]), 1.0)


def query(i, wall, cpu, phase="measure", ok=True, spark=None, retained=0.0):
    return {"id": "%s-%d" % (phase, i), "phase": phase, "wall_s": wall, "cpu_s": cpu,
            "ok": ok, "failure": None if ok else "count 1, expected 2",
            "retained_mb": retained, "cached_rdds": 1 if retained else 0, "spark": spark}


def raw_run(queries, layers=None, spans=None):
    return {
        "workload": "filter",
        "traced": bool(layers),
        "provenance": {"cores": 4, "max_heap_mb": 1024, "spark_version": "x", "jdk_version": "y",
                       "seed": 1, "input_objects": 1000, "input_bytes": 185000,
                       "expected_matches": 720},
        "setup_s": [3.0, 1.0, 2.0],
        "queries": queries,
        "layers": layers or {},
        "spans": spans or [],
    }


class Report(unittest.TestCase):
    def test_end_to_end(self):
        qs = [query(0, 9.0, 1.0, phase="warmup"), query(0, 2.0, 4.0), query(1, 1.0, 2.0),
              query(2, 4.0, 3.0), query(3, 50.0, 0.0, ok=False)]
        rep = stats.report(raw_run(qs))
        e = rep["end_to_end"]
        self.assertEqual(e["setup_s"]["value"], 2.0)
        self.assertEqual(e["query_s"]["value"], 2.0)
        self.assertEqual(e["query_s"]["samples"], 3)
        self.assertNotIn("p90", e["query_s"])
        self.assertEqual(e["objects_per_s"]["value"], 500.0)
        self.assertEqual(e["task_cpu_s"]["value"], 3.0)
        self.assertEqual(rep["attempted"], 5)
        self.assertEqual(rep["failed"], 1)
        self.assertEqual(rep["per_layer"]["failed_frac"]["value"], 0.2)

    def test_retained_cache_is_read_per_query(self):
        qs = [query(i, 1.0, 1.0, retained=50.0) for i in range(3)]
        rep = stats.report(raw_run(qs))
        self.assertEqual(rep["per_layer"]["retained_cache_mb"]["value"], 50.0)
        self.assertEqual(rep["per_layer"]["spark.cached_rdds_retained"]["value"], 1)

    def test_traced_run(self):
        spark = {k: 1.0 for k in stats.SPARK_SUMS}
        spark["stage_task_ms"] = [[10.0, 10.0, 40.0], [5.0]]
        qs = [query(0, 1.0, 2.0), query(0, 1.1, 2.2, phase="traced", spark=spark)]
        spans = [
            {"id": 0, "parent": -1, "name": "query", "start_ms": 0.0, "end_ms": 1000.0,
             "query": "traced-0"},
            {"id": 1, "parent": 0, "name": "job 0", "start_ms": 100.0, "end_ms": 500.0,
             "query": "traced-0"},
            {"id": 2, "parent": 0, "name": "job 1", "start_ms": 400.0, "end_ms": 900.0,
             "query": "traced-0"},
        ]
        layers = {"ref.spark_rdd_s": [0.5, 0.5], "ref.spark_sql_s": [2.0],
                  "ref.filter_s": [0.25], "json.parse_ns_per_obj": [100.0, 300.0, 200.0]}
        rep = stats.report(raw_run(qs, layers, spans))
        pl = rep["per_layer"]
        self.assertAlmostEqual(pl["spark.driver_gap_s"]["value"], 0.2)
        self.assertAlmostEqual(pl["trace.overhead_frac"]["value"], 0.1)
        self.assertEqual(pl["spark.task_skew"]["value"], 4.0)
        self.assertAlmostEqual(pl["spark.cpu_util"]["value"], 0.5)
        self.assertEqual(pl["ref.vs_spark_rdd"]["value"], 2.0)
        self.assertEqual(pl["ref.vs_spark_sql"]["value"], 0.5)
        self.assertEqual(pl["ref.vs_fast_path"]["value"], 4.0)
        self.assertEqual(pl["json.parse_ns_per_obj"]["value"], 200.0)
        self.assertEqual(pl["json.parse_ns_per_obj"]["samples"], 3)


class BenchmarkFile(unittest.TestCase):
    def test_names_and_units_match_the_statistics(self):
        path = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
        with open(path) as fh:
            bench = json.load(fh)
        for m in bench["end_to_end"]:
            self.assertEqual(stats.END_TO_END[m["name"]], m["unit"], m["name"])
        self.assertEqual({m["name"] for m in bench["end_to_end"]}, set(stats.END_TO_END))
        for m in bench["per_layer"]:
            self.assertEqual(stats.PER_LAYER[m["name"]], m["unit"], m["name"])
        self.assertEqual({m["name"] for m in bench["per_layer"]}, set(stats.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
