#!/usr/bin/env python3
"""Fixtures for the Prometheus scrape gate (tools/check_prom.py).

The gate must pass on a well-formed scrape whose jobs-done counter equals
--expect-jobs-done, and fail on a scrape whose cache hits and misses do
not add up to its lookups, on a wrong jobs-done count, and on a sample
that no `# TYPE` line declares.

Usage: check_prom_gate_test.py  (exit 0 when every fixture behaves)
"""

import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
CHECK = os.path.join(ROOT, "tools", "check_prom.py")

# What `motune serve`'s `stats --format prometheus` writes after three
# jobs, one of them a cache hit: counters, a gauge and a summary.
SCRAPE = """\
# TYPE motune_serve_jobs_done_total counter
motune_serve_jobs_done_total 3
# TYPE motune_serve_cache_lookups_total counter
motune_serve_cache_lookups_total 3
# TYPE motune_serve_cache_hits_total counter
motune_serve_cache_hits_total 1
# TYPE motune_serve_cache_misses_total counter
motune_serve_cache_misses_total 2
# TYPE motune_serve_queue_depth gauge
motune_serve_queue_depth 0
# TYPE motune_serve_job_run_seconds summary
motune_serve_job_run_seconds{quantile="0.5"} 0.004
motune_serve_job_run_seconds{quantile="0.9"} 0.006
motune_serve_job_run_seconds{quantile="0.99"} 0.006
motune_serve_job_run_seconds_sum 0.014
motune_serve_job_run_seconds_count 3
"""


def run_check(text, *args):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scrape.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        proc = subprocess.run([sys.executable, CHECK, path, *args],
                              capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr


class PromGateFixtures(unittest.TestCase):
    def test_well_formed_scrape_passes(self):
        code, out = run_check(SCRAPE, "--expect-jobs-done", "3")
        self.assertEqual(code, 0, out)
        self.assertIn("scrape ok", out)
        self.assertIn("serve.jobs.done == 3", out)

    def test_hits_and_misses_not_adding_up_fails(self):
        text = SCRAPE.replace("motune_serve_cache_misses_total 2",
                              "motune_serve_cache_misses_total 1")
        code, out = run_check(text, "--expect-jobs-done", "3")
        self.assertEqual(code, 1, out)
        self.assertIn("cache accounting broken", out)

    def test_wrong_jobs_done_count_fails(self):
        code, out = run_check(SCRAPE, "--expect-jobs-done", "4")
        self.assertEqual(code, 1, out)
        self.assertIn("motune_serve_jobs_done_total is 3", out)

    def test_sample_without_type_line_fails(self):
        text = SCRAPE.replace("# TYPE motune_serve_queue_depth gauge\n", "")
        code, out = run_check(text, "--expect-jobs-done", "3")
        self.assertEqual(code, 1, out)
        self.assertIn("motune_serve_queue_depth has no TYPE declaration",
                      out)


if __name__ == "__main__":
    unittest.main()
