#!/usr/bin/env python3
"""Load-test a running `motune serve` daemon over its socket protocol.

Speaks the wire format directly (4-byte big-endian length prefix + JSON) so
it exercises the daemon exactly as an external client would — no C++ client
library involved. Used by the CI `serve-gate` job and runnable by hand:

    motune serve --dir /tmp/state --port 7777 &
    tools/loadtest_serve.py --port 7777 --jobs 200 --threads 8 \
        --baseline bench/baselines/serve_baseline.json

What it checks, beyond the latency/throughput numbers:

  * zero lost results    — every acked job id reaches state "done" and its
                           artifact is retrievable via the result verb
  * zero duplicated      — the daemon never acks the same id twice and the
                           list verb reports each id exactly once (submits
                           carry no_cache so duplicate specs in the burst
                           are really executed, not served from the
                           daemon's exact-spec result cache)
  * determinism          — seeds repeat across the burst; jobs sharing a
                           (spec, seed) must produce byte-identical
                           artifacts (modulo the "session" provenance
                           block), regardless of worker interleaving
  * backpressure         — queue-full rejections are retried after the
                           daemon's advertised retry_after and counted,
                           never treated as failures
  * live streaming       — with --subscribe N, N connections hold live
                           subscribe streams on in-flight jobs for the
                           whole burst; every stream must terminate in an
                           end frame whose state is "done". Dropped frames
                           are allowed (trace/progress streams are
                           best-effort by contract) and reported, but
                           results must still be complete: a subscriber
                           never costs a job

Gate semantics mirror bench_serve: baseline entries whose unit is
"seconds" are ceilings, everything else is a floor, both scaled by
--tolerance. Each baseline entry names its "producers"; this tool gates
the entries that name "loadtest_serve" (the warm-resubmit row is
bench_serve's alone) and fails one of those it did not measure as MISSING.

Phases (for the CI kill-mid-load scenario):
  --phase full    submit + await + verify (default)
  --phase submit  submit the burst, write acked ids to --ids-file, exit
  --phase await   read --ids-file, await + verify those ids only
                  (run after SIGKILLing and restarting the daemon)
"""

import argparse
import json
import os
import socket
import struct
import sys
import threading
import time

MAX_FRAME = 4 << 20


class ProtocolError(RuntimeError):
    pass


class Conn:
    """One synchronous connection speaking length-prefixed JSON frames."""

    def __init__(self, host, port, timeout=30.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)

    def close(self):
        self.sock.close()

    def _recv_exact(self, n):
        buf = b""
        while len(buf) < n:
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                raise ProtocolError("daemon closed the connection")
            buf += chunk
        return buf

    def recv_obj(self):
        (length,) = struct.unpack(">I", self._recv_exact(4))
        if length > MAX_FRAME:
            raise ProtocolError(f"oversized response frame: {length}")
        return json.loads(self._recv_exact(length))

    def request(self, obj):
        payload = json.dumps(obj, separators=(",", ":")).encode()
        if len(payload) > MAX_FRAME:
            raise ProtocolError("frame too large")
        self.sock.sendall(struct.pack(">I", len(payload)) + payload)
        return self.recv_obj()


def job_spec(args, seed):
    # Mirrors serve::specToJson: u64 fields travel as strings (JSON
    # numbers are doubles and cannot carry a full uint64).
    return {
        "kernel": args.kernel,
        "machine": args.machine,
        "n": args.n,
        "algorithm": args.algorithm,
        "seed": str(seed),
        "objectives": args.objectives.split(","),
        "budget": str(args.budget),
    }


def submit_slice(args, indices, acked, rejects, errors, lock):
    """Submit jobs for `indices` on a private connection, retrying
    queue-full rejections after the daemon's advertised retry_after."""
    try:
        conn = Conn(args.host, args.port)
        for i in indices:
            seed = 1 + (i % args.seeds)
            while True:
                t0 = time.monotonic()
                # no_cache: the burst repeats specs across seeds, and this
                # suite's invariants (every ack a distinct id, every job
                # actually executed) need real runs — without it the
                # daemon's exact-spec result cache would ack the first
                # finished job's id for every duplicate.
                resp = conn.request({"verb": "submit",
                                     "spec": job_spec(args, seed),
                                     "no_cache": True})
                if resp.get("ok"):
                    with lock:
                        acked.append((resp["id"], seed, t0))
                    break
                if "retry_after" in resp:  # backpressure: retry, count it
                    with lock:
                        rejects[0] += 1
                    time.sleep(float(resp["retry_after"]))
                    continue
                raise ProtocolError(f"submit rejected: {resp.get('error')}")
        conn.close()
    except Exception as e:  # surface thread failures to the main thread
        with lock:
            errors.append(str(e))


def subscribe_stream(args, jid, outcome, errors, lock):
    """Holds one live subscribe stream until its end frame and records
    (end_state, dropped, frames_seen) into `outcome[jid]`."""
    try:
        conn = Conn(args.host, args.port, timeout=args.timeout)
        ack = conn.request({"verb": "subscribe", "id": jid})
        if not ack.get("ok"):
            raise ProtocolError(f"subscribe {jid}: {ack.get('error')}")
        frames = 0
        while True:
            frame = conn.recv_obj()
            if frame.get("stream") == "end":
                with lock:
                    outcome[jid] = (frame.get("state"),
                                    int(frame.get("dropped", "0")), frames)
                break
            if frame.get("job") != jid:
                raise ProtocolError(
                    f"stream for {jid} carried a frame for "
                    f"{frame.get('job')}")
            frames += 1
        conn.close()
    except Exception as e:
        with lock:
            errors.append(f"subscriber {jid}: {e}")


def await_all(args, ids_with_t0):
    """Polls the list verb until every id is terminal; returns
    {id: (state, latency_seconds)} with client-side observed latency."""
    conn = Conn(args.host, args.port)
    pending = {jid: t0 for jid, t0 in ids_with_t0}
    done = {}
    deadline = time.monotonic() + args.timeout
    while pending:
        if time.monotonic() > deadline:
            raise ProtocolError(
                f"timeout: {len(pending)} jobs still pending, e.g. "
                + ", ".join(list(pending)[:5]))
        resp = conn.request({"verb": "list"})
        if not resp.get("ok"):
            raise ProtocolError(f"list failed: {resp.get('error')}")
        now = time.monotonic()
        seen = set()
        for job in resp["jobs"]:
            jid = job["id"]
            if jid in seen:
                raise ProtocolError(f"duplicated job in list: {jid}")
            seen.add(jid)
            if jid in pending and job["state"] in (
                    "done", "failed", "cancelled"):
                done[jid] = (job["state"], now - pending.pop(jid))
        if pending:
            time.sleep(args.poll)
    conn.close()
    return done


def fetch_artifact(conn, jid):
    resp = conn.request({"verb": "result", "id": jid})
    if not resp.get("ok"):
        raise ProtocolError(f"result {jid} failed: {resp.get('error')}")
    return resp["artifact"]


def canonical(artifact):
    """Artifact with run-specific provenance removed, for determinism
    comparison across resumed/differently-interleaved runs."""
    return json.dumps({k: v for k, v in artifact.items() if k != "session"},
                      sort_keys=True)


def percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


def gate(results, baseline_path, tolerance):
    with open(baseline_path) as f:
        baseline = json.load(f)
    failures = 0
    for entry in baseline["benchmarks"]:
        if "loadtest_serve" not in entry["producers"]:
            continue
        name, bound = entry["name"], float(entry["value"])
        if name not in results:
            print(f"  {name}: MISSING (baseline {bound})")
            failures += 1
            continue
        value = results[name]
        if entry["unit"] == "seconds":
            ok = value <= bound * (1.0 + tolerance)
        else:
            ok = value >= bound * (1.0 - tolerance)
        status = "ok" if ok else "REGRESSION"
        print(f"  {name}: {value:.4f} vs baseline {bound} -> {status}")
        failures += 0 if ok else 1
    return failures


def main():
    parser = argparse.ArgumentParser(
        description="load-test a motune serve daemon")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=200)
    parser.add_argument("--threads", type=int, default=8,
                        help="concurrent submitter connections")
    parser.add_argument("--seeds", type=int, default=50,
                        help="distinct seeds; jobs sharing a seed must "
                             "produce identical artifacts")
    parser.add_argument("--kernel", default="mm")
    parser.add_argument("--machine", default="westmere")
    parser.add_argument("--n", type=int, default=64)
    parser.add_argument("--algorithm", default="random")
    parser.add_argument("--objectives", default="time,resources")
    parser.add_argument("--budget", type=int, default=20)
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="await-phase deadline in seconds")
    parser.add_argument("--poll", type=float, default=0.05)
    parser.add_argument("--phase", choices=["full", "submit", "await"],
                        default="full")
    parser.add_argument("--ids-file",
                        help="submit phase writes acked ids here; await "
                             "phase reads them")
    parser.add_argument("--subscribe", type=int, default=0,
                        help="hold N live subscribe streams on in-flight "
                             "jobs while the burst drains")
    parser.add_argument("--baseline",
                        help="gate against this baseline JSON")
    parser.add_argument("--tolerance", type=float, default=0.50)
    parser.add_argument("--out", help="write measured numbers as JSON")
    parser.add_argument("--artifacts-dir",
                        help="save one raw artifact per seed here "
                             "(seed_<seed>.json), for cross-run diffing")
    args = parser.parse_args()

    # ---- submit phase -------------------------------------------------
    acked, errors, rejects = [], [], [0]
    lock = threading.Lock()
    submit_seconds = 0.0
    if args.phase in ("full", "submit"):
        Conn(args.host, args.port).request({"verb": "ping"})  # fail fast
        slices = [range(t, args.jobs, args.threads)
                  for t in range(args.threads)]
        t0 = time.monotonic()
        threads = [threading.Thread(target=submit_slice,
                                    args=(args, s, acked, rejects, errors,
                                          lock))
                   for s in slices if len(s)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        submit_seconds = time.monotonic() - t0
        if errors:
            print("submit errors:\n  " + "\n  ".join(errors))
            return 1
        ids = [jid for jid, _, _ in acked]
        if len(set(ids)) != len(ids):
            print(f"DUPLICATED ack: {len(ids) - len(set(ids))} ids "
                  "acked more than once")
            return 1
        if len(ids) != args.jobs:
            print(f"LOST submits: acked {len(ids)}/{args.jobs}")
            return 1
        print(f"submitted {len(ids)} jobs in {submit_seconds:.3f}s "
              f"({rejects[0]} backpressure retries)")
        if args.phase == "submit":
            if not args.ids_file:
                parser.error("--phase submit requires --ids-file")
            with open(args.ids_file, "w") as f:
                json.dump([[jid, seed] for jid, seed, _ in acked], f)
            return 0

    # ---- await + verify phase ----------------------------------------
    if args.phase == "await":
        if not args.ids_file:
            parser.error("--phase await requires --ids-file")
        with open(args.ids_file) as f:
            pairs = json.load(f)
        now = time.monotonic()
        acked = [(jid, seed, now) for jid, seed in pairs]

    # ---- live subscribers ride along while the burst drains ----------
    stream_outcome, stream_errors = {}, []
    subscribers = []
    if args.subscribe > 0:
        # Watch the most recently acked jobs: they sit at the back of the
        # queue, so their streams stay live for most of the drain.
        watch = [jid for jid, _, _ in acked][-args.subscribe:]
        subscribers = [threading.Thread(
            target=subscribe_stream,
            args=(args, jid, stream_outcome, stream_errors, lock))
            for jid in watch]
        for t in subscribers:
            t.start()

    states = await_all(args, [(jid, t0) for jid, _, t0 in acked])
    bad = {jid: s for jid, (s, _) in states.items() if s != "done"}
    if bad:
        print(f"LOST results: {len(bad)} jobs not done: {bad}")
        return 1
    lost = [jid for jid, _, _ in acked if jid not in states]
    if lost:
        print(f"LOST results: never reached terminal state: {lost}")
        return 1

    # Every artifact must be retrievable, and same-seed jobs identical.
    conn = Conn(args.host, args.port)
    by_seed = {}
    for jid, seed, _ in acked:
        artifact = fetch_artifact(conn, jid)
        body = canonical(artifact)
        if seed in by_seed and by_seed[seed][1] != body:
            print(f"NONDETERMINISM: {jid} and {by_seed[seed][0]} share "
                  f"seed {seed} but their artifacts differ")
            return 1
        if seed not in by_seed and args.artifacts_dir:
            os.makedirs(args.artifacts_dir, exist_ok=True)
            with open(os.path.join(args.artifacts_dir,
                                   f"seed_{seed}.json"), "w") as f:
                json.dump(artifact, f, indent=2, sort_keys=True)
        by_seed.setdefault(seed, (jid, body))
    conn.close()
    print(f"verified {len(acked)} artifacts "
          f"({len(by_seed)} distinct seeds, zero lost/duplicated)")

    if subscribers:
        for t in subscribers:
            t.join()
        if stream_errors:
            print("subscriber errors:\n  " + "\n  ".join(stream_errors))
            return 1
        not_done = {jid: s for jid, (s, _, _) in stream_outcome.items()
                    if s != "done"}
        if not_done:
            print(f"LOST streams: subscriptions ended {not_done}")
            return 1
        dropped = sum(d for _, d, _ in stream_outcome.values())
        frames = sum(f for _, _, f in stream_outcome.values())
        print(f"{len(stream_outcome)} live streams all ended done: "
              f"{frames} frames delivered, {dropped} dropped "
              "(best-effort trace/progress only; results complete)")

    latencies = sorted(lat for _, lat in states.values())
    results = {
        "serve.job.p50_latency": percentile(latencies, 0.50),
        "serve.job.p99_latency": percentile(latencies, 0.99),
    }
    if args.phase == "full":
        results["serve.submit.throughput"] = (
            len(acked) / submit_seconds if submit_seconds > 0 else 0.0)
        total = max(lat for _, lat in states.values())
        results["serve.jobs.throughput"] = (
            len(acked) / total if total > 0 else 0.0)
    for name in sorted(results):
        print(f"  {name}: {results[name]:.4f}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"schema": 1,
                       "benchmarks": [{"name": k, "value": v}
                                      for k, v in sorted(results.items())]},
                      f, indent=2)
            f.write("\n")

    if args.baseline:
        failures = gate(results, args.baseline, args.tolerance)
        if failures:
            print(f"{failures} serve gate(s) failed")
            return 1
        print("all serve gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
