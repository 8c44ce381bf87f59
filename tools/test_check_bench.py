#!/usr/bin/env python3
"""Behavior lock for tools/check_bench.py, run as a ctest: the perf gate must
fail when a gated metric regresses, disappears, or a record is missing or
malformed — and must pass regressions within tolerance and fresh-only
additions. Uses only the standard library (tempdirs of fixture JSON)."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench  # noqa: E402


def write_record(directory, name, metrics, raw=None, optional=None):
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        if raw is not None:
            f.write(raw)
        else:
            record = {"bench": name, "gated_metrics": metrics}
            if optional is not None:
                record["optional_gated_metrics"] = optional
            f.write(json.dumps(record))
    return path


class Check_bench_gate(unittest.TestCase):
    def setUp(self):
        self._baseline = tempfile.TemporaryDirectory()
        self._fresh = tempfile.TemporaryDirectory()
        self.baseline = self._baseline.name
        self.fresh = self._fresh.name
        self.addCleanup(self._baseline.cleanup)
        self.addCleanup(self._fresh.cleanup)

    def run_gate(self, max_regression=0.30, require_optional=()):
        argv = [self.baseline, self.fresh, "--max-regression", str(max_regression)]
        for metric in require_optional:
            argv += ["--require-optional", metric]
        return check_bench.main(argv)

    def test_clean_pass_within_tolerance(self):
        write_record(self.baseline, "BENCH_a.json", {"speedup": 10.0})
        write_record(self.fresh, "BENCH_a.json", {"speedup": 8.0})  # -20% < 30%
        self.assertEqual(self.run_gate(), 0)

    def test_regression_beyond_tolerance_fails(self):
        write_record(self.baseline, "BENCH_a.json", {"speedup": 10.0})
        write_record(self.fresh, "BENCH_a.json", {"speedup": 6.0})  # -40%
        self.assertEqual(self.run_gate(), 1)

    def test_disappeared_metric_fails(self):
        # The satellite case: a gated metric silently dropped from the fresh
        # record (e.g. a bench renamed its metric) must fail the gate even
        # when every surviving metric is healthy.
        write_record(self.baseline, "BENCH_a.json",
                     {"speedup": 10.0, "tiled_speedup": 1.5})
        write_record(self.fresh, "BENCH_a.json", {"speedup": 12.0})
        self.assertEqual(self.run_gate(), 1)

    def test_missing_fresh_record_fails(self):
        write_record(self.baseline, "BENCH_a.json", {"speedup": 10.0})
        self.assertEqual(self.run_gate(), 1)

    def test_empty_gated_metrics_object_fails_when_baseline_has_metrics(self):
        write_record(self.baseline, "BENCH_a.json", {"speedup": 10.0})
        write_record(self.fresh, "BENCH_a.json", {})
        self.assertEqual(self.run_gate(), 1)

    def test_new_metric_and_new_record_do_not_fail(self):
        write_record(self.baseline, "BENCH_a.json", {"speedup": 10.0})
        write_record(self.fresh, "BENCH_a.json", {"speedup": 10.5, "extra": 2.0})
        write_record(self.fresh, "BENCH_b.json", {"novel": 1.0})
        self.assertEqual(self.run_gate(), 0)

    def test_invalid_json_fails_cleanly(self):
        write_record(self.baseline, "BENCH_a.json", {"speedup": 10.0})
        write_record(self.fresh, "BENCH_a.json", None, raw="{not json")
        self.assertEqual(self.run_gate(), 1)

    def test_non_numeric_metric_fails_cleanly(self):
        write_record(self.baseline, "BENCH_a.json", {"speedup": 10.0})
        write_record(self.fresh, "BENCH_a.json", {"speedup": "fast"})
        self.assertEqual(self.run_gate(), 1)

    def test_no_baselines_is_a_usage_error(self):
        self.assertEqual(self.run_gate(), 2)

    def test_optional_metric_enforced_when_both_sides_have_it(self):
        write_record(self.baseline, "BENCH_a.json", {"speedup": 10.0},
                     optional={"scaling_4t": 3.0})
        write_record(self.fresh, "BENCH_a.json", {"speedup": 10.0},
                     optional={"scaling_4t": 1.5})  # -50% > 30%
        self.assertEqual(self.run_gate(), 1)

    def test_optional_metric_within_tolerance_passes(self):
        write_record(self.baseline, "BENCH_a.json", {"speedup": 10.0},
                     optional={"scaling_4t": 3.0})
        write_record(self.fresh, "BENCH_a.json", {"speedup": 10.0},
                     optional={"scaling_4t": 2.5})  # -17% < 30%
        self.assertEqual(self.run_gate(), 0)

    def test_optional_metric_missing_fresh_is_tolerated(self):
        # The host-capability case: a 4-thread scaling metric recorded on a
        # capable host must not fail the gate on a 1-core CI runner that
        # cannot measure it (empty optional object or none at all).
        write_record(self.baseline, "BENCH_a.json", {"speedup": 10.0},
                     optional={"scaling_4t": 3.0})
        write_record(self.fresh, "BENCH_a.json", {"speedup": 10.0},
                     optional={})
        self.assertEqual(self.run_gate(), 0)
        write_record(self.fresh, "BENCH_a.json", {"speedup": 10.0})
        self.assertEqual(self.run_gate(), 0)

    def test_optional_metric_only_fresh_is_tolerated(self):
        write_record(self.baseline, "BENCH_a.json", {"speedup": 10.0})
        write_record(self.fresh, "BENCH_a.json", {"speedup": 10.0},
                     optional={"scaling_4t": 3.0})
        self.assertEqual(self.run_gate(), 0)

    def test_non_numeric_optional_metric_fails_cleanly(self):
        write_record(self.baseline, "BENCH_a.json", {"speedup": 10.0})
        write_record(self.fresh, "BENCH_a.json", {"speedup": 10.0},
                     optional={"scaling_4t": "fast"})
        self.assertEqual(self.run_gate(), 1)

    def test_required_optional_metric_present_passes(self):
        # The capable-runner case: CI detected >= 4 cores and demands the
        # 4-thread scaling ratio actually got measured.
        write_record(self.baseline, "BENCH_a.json", {"speedup": 10.0})
        write_record(self.fresh, "BENCH_a.json", {"speedup": 10.0},
                     optional={"scaling_4t": 3.0})
        self.assertEqual(self.run_gate(require_optional=["scaling_4t"]), 0)

    def test_required_optional_metric_missing_fails(self):
        # Without --require-optional this is a tolerated skip; with it, a
        # capable runner that stopped measuring the metric fails the gate.
        write_record(self.baseline, "BENCH_a.json", {"speedup": 10.0})
        write_record(self.fresh, "BENCH_a.json", {"speedup": 10.0})
        self.assertEqual(self.run_gate(require_optional=["scaling_4t"]), 1)

    def test_required_optional_metric_in_new_record_counts(self):
        # A fresh-only record (no baseline yet) that measured the metric
        # satisfies the presence requirement.
        write_record(self.baseline, "BENCH_a.json", {"speedup": 10.0})
        write_record(self.fresh, "BENCH_a.json", {"speedup": 10.0})
        write_record(self.fresh, "BENCH_b.json", {"novel": 1.0},
                     optional={"scaling_4t": 2.0})
        self.assertEqual(self.run_gate(require_optional=["scaling_4t"]), 0)

    def test_required_optional_still_enforces_value_when_both_present(self):
        write_record(self.baseline, "BENCH_a.json", {"speedup": 10.0},
                     optional={"scaling_4t": 3.0})
        write_record(self.fresh, "BENCH_a.json", {"speedup": 10.0},
                     optional={"scaling_4t": 1.5})  # present, but -50%
        self.assertEqual(self.run_gate(require_optional=["scaling_4t"]), 1)


if __name__ == "__main__":
    unittest.main()
