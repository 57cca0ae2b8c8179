#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 bench_e2e/run.py --workload tune-plain --seed 1 --seconds 20 \
        [--trace 0|1] [--spans FILE]
    python3 bench_e2e/run.py --workload all --seed 1 --seconds 20

Builds the motune libraries and the bench_e2e program from this checkout
into .bench_build/ (CMake, Release), runs the workload in a child process
and relays its output. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. `--workload all` runs every
workload, one child each, and ends with one object keyed by workload.

A child killed by a signal, or idle for STALL_S seconds, is run again with
the same arguments, up to ATTEMPTS times (stderr says so): a use-after-scope
race in runtime::parallelForBlocked (the concurrency item in ROADMAP.md)
still crashes or deadlocks an occasional run, and such an event must not
void the measurement.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bench_e2e")
WORK = os.path.join(BUILD, "work")
GOLDEN = os.path.join(HERE, "baselines", "e2e_golden.json")
WORKLOADS = ["tune-plain", "tune-checkpoint", "tune-features", "serve-mixed"]
DEADLINE_S = 170.0  # a run must end within 180 s
ATTEMPTS = 3
STALL_S, STALL_CPU_S = 10.0, 0.2


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then build bench_e2e (a no-op when up to date)."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 4),
                  "--target", "bench_e2e"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed:", " ".join(cmd))
            return False
    return True


def cpu_seconds(pid):
    """User + system CPU time of a live process, or None without /proc."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return None


def run_child(args, limit):
    """Runs bench_e2e once. Returns (returncode, stdout), or (None, "")
    after killing a child that outlived `limit` seconds or burnt under
    STALL_CPU_S of CPU in STALL_S seconds (a deadlocked process idles)."""
    proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    start = last_progress = time.monotonic()
    last_cpu = 0.0
    while True:
        try:
            out, _ = proc.communicate(timeout=1.0)
            return proc.returncode, out
        except subprocess.TimeoutExpired:
            pass
        now = time.monotonic()
        cpu = cpu_seconds(proc.pid)
        if cpu is None or cpu - last_cpu >= STALL_CPU_S:
            last_cpu, last_progress = cpu or 0.0, now
        if now - start > limit or now - last_progress > STALL_S:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, ""


def run_workload(workload, opts):
    args = [BINARY, "--workload", workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace),
            "--golden", GOLDEN, "--workdir", WORK]
    if opts.spans:
        args += ["--spans", opts.spans]
    start = time.monotonic()
    # Untraced runs take about 1.2x --seconds, traced ones about 2.5x.
    expected = 10.0 + opts.seconds * (2.5 if opts.trace else 1.3)
    for attempt in range(1, ATTEMPTS + 1):
        remaining = DEADLINE_S - (time.monotonic() - start)
        code, out = run_child(args, min(2.0 * expected, remaining))
        if code is not None and code >= 0:
            return code, out
        # A killed bench_e2e leaves its work directory (a daemon store can
        # hold hundreds of MB) behind.
        shutil.rmtree(WORK, ignore_errors=True)
        what = "hung" if code is None else "died of signal %d" % -code
        log("attempt %d of %s %s" % (attempt, workload, what))
        if DEADLINE_S - (time.monotonic() - start) < expected:
            break
    return 3, ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", help="write the traced run's spans here")
    opts = parser.parse_args()

    if not shutil.which("cmake"):
        log("cmake not found")
        return 1
    if not build():
        return 1

    results = {}
    status = 0
    for workload in WORKLOADS if opts.workload == "all" else [opts.workload]:
        code, out = run_workload(workload, opts)
        lines = out.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if result is None:
            log("%s produced no result (exit %d)" % (workload, code))
            return code or 1
        results[workload] = result
        status = status or code
        if opts.workload != "all":
            print(json.dumps(result), flush=True)
    if opts.workload == "all":
        print(json.dumps(results), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
