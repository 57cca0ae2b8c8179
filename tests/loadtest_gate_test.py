#!/usr/bin/env python3
"""Fixtures for the serve load gate (`gate()` in tools/loadtest_serve.py).

The gate must pass when the load client measures every baseline row it
produces within tolerance, and fail on a regression row or on a row it
produces but did not measure (MISSING). The passing fixture uses the
committed baseline, so a row the load client cannot measure shows here.

Usage: loadtest_gate_test.py  (exit 0 when every fixture behaves)
"""

import contextlib
import io
import os
import sys
import unittest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "tools"))

import loadtest_serve  # noqa: E402

BASELINE = os.path.join(ROOT, "bench", "baselines", "serve_baseline.json")
TOLERANCE = 0.50  # what the serve-gate CI step passes


def measured():
    """What one load-client run reports: every row it produces, each at
    its baseline value."""
    return {
        "serve.submit.throughput": 100.0,
        "serve.jobs.throughput": 50.0,
        "serve.job.p50_latency": 0.5,
        "serve.job.p99_latency": 2.0,
    }


def run_gate(results):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        failures = loadtest_serve.gate(results, BASELINE, TOLERANCE)
    return failures, out.getvalue()


class GateFixtures(unittest.TestCase):
    def test_every_produced_row_within_tolerance_passes(self):
        failures, out = run_gate(measured())
        self.assertEqual(failures, 0, out)
        self.assertNotIn("MISSING", out)

    def test_regression_row_fails(self):
        results = measured()
        results["serve.job.p99_latency"] = 2.0 * (1.0 + TOLERANCE) * 1.01
        failures, out = run_gate(results)
        self.assertEqual(failures, 1, out)
        self.assertIn("serve.job.p99_latency", out)
        self.assertIn("REGRESSION", out)

    def test_produced_row_not_measured_fails_as_missing(self):
        results = measured()
        del results["serve.jobs.throughput"]
        failures, out = run_gate(results)
        self.assertEqual(failures, 1, out)
        self.assertIn("serve.jobs.throughput: MISSING", out)


if __name__ == "__main__":
    unittest.main()
