#!/usr/bin/env python3
"""Fixtures for the trace invariant gate (tools/check_trace.py).

The gate must pass on a well-formed trace and on a serve state directory
whose per-job traces are stamped with their job, and fail on a trace whose
hypervolume goes backwards and on a job trace with a record that lacks its
job stamp.

Usage: check_trace_gate_test.py  (exit 0 when every fixture behaves)
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
CHECK = os.path.join(ROOT, "tools", "check_trace.py")
MINI_TRACE = os.path.join(ROOT, "tests", "data", "mini_trace.jsonl")


def run_check(*args):
    proc = subprocess.run([sys.executable, CHECK, *args],
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr


def job_trace(job, run, first_id):
    """The records one run of a daemon job writes: header, a generation
    span under the run span, and the finish event, all stamped."""
    stamp = {"job": job, "run": run}
    return [
        {"attrs": {"clock": "steady", "time_unit": "s",
                   "wall_epoch_unix": 1754000000.0, **stamp},
         "name": "trace.header", "t": 0.0, "tid": 1, "type": "event"},
        {"attrs": {"gen": 0, "hv": 0.5, **stamp}, "dur": 0.001,
         "id": first_id + 1, "name": "gde3.generation",
         "parent": first_id, "t": 0.001, "tid": 1, "type": "span"},
        {"attrs": {"evaluations": 10, **stamp}, "dur": 0.003,
         "id": first_id, "name": "rsgde3.run", "parent": 0, "t": 0.0005,
         "tid": 1, "type": "span"},
        {"attrs": {"state": "done", **stamp}, "name": "serve.job.finish",
         "t": 0.004, "tid": 1, "type": "event"},
    ]


def write_jobs(root, traces):
    """Writes {job id: records} as STATE/jobs/<id>/trace.jsonl."""
    jobs = os.path.join(root, "jobs")
    for job, records in traces.items():
        os.makedirs(os.path.join(jobs, job))
        with open(os.path.join(jobs, job, "trace.jsonl"), "w",
                  encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    return jobs


def serve_traces():
    """Two jobs, the second resumed once (one header per run)."""
    return {
        "j000001": job_trace("j000001", 0, (1 << 32) | 1),
        "j000002": (job_trace("j000002", 0, (2 << 32) | 1)
                    + job_trace("j000002", 1, (2 << 32) | (1 << 24) | 1)),
    }


class TraceGateFixtures(unittest.TestCase):
    def test_mini_trace_passes(self):
        code, out = run_check(MINI_TRACE)
        self.assertEqual(code, 0, out)
        self.assertIn("trace ok", out)

    def test_hypervolume_going_backwards_fails(self):
        with open(MINI_TRACE, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        records = [json.loads(line) for line in lines]
        generations = [r for r in records if r["name"] == "gde3.generation"]
        generations[-1]["attrs"]["hv"] = generations[0]["attrs"]["hv"] - 0.1
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                for record in records:
                    fh.write(json.dumps(record) + "\n")
            code, out = run_check(path)
        self.assertEqual(code, 1, out)
        self.assertIn("hypervolume not monotone", out)

    def test_stamped_serve_traces_pass(self):
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run_check("--serve", write_jobs(tmp, serve_traces()))
        self.assertEqual(code, 0, out)
        self.assertIn("serve traces ok: 2 jobs", out)
        self.assertIn("1 resumed", out)

    def test_serve_record_without_job_stamp_fails(self):
        traces = serve_traces()
        del traces["j000002"][5]["attrs"]["job"]  # run 1's generation span
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run_check("--serve", write_jobs(tmp, traces))
        self.assertEqual(code, 1, out)
        self.assertIn("'gde3.generation' stamped job=None", out)


if __name__ == "__main__":
    unittest.main()
