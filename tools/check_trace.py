#!/usr/bin/env python3
"""Validate a motune trace (CI invariant gate).

Checks, over the output of `motune tune --trace FILE`:
  1. every complete line is a well-formed JSON object with a `type` and
     `name` (an unterminated last line, a killed writer's torn tail, is
     dropped, as the program's own reader drops it);
  2. the per-generation hypervolume sequence (gde3.generation spans,
     attr `hv`) is monotone non-decreasing;
  3. the final `tuning.evaluations.unique` counter equals the number of
     unique configurations the search evaluated — cross-checked against
     the sum of unique evaluations implied by the generation spans'
     parent run span when present (`rsgde3.run` / `gde3.run` attr
     `evaluations`);
  4. every runtime ring record (`rt.*`) and region event carries a
     positive thread id;
  5. when any `rt.*` record is present, the `rt.ring.dropped` counter is
     present too (no silent loss) and its value is reported;
  6. the surrogate / result-cache counter families obey their invariants
     when present: every `tuning.surrogate.*` and `serve.cache.*` counter
     is non-negative, `tuning.surrogate.culled` never exceeds
     `tuning.surrogate.predictions` (every culled trial was scored), and
     for any `<family>.lookups` counter, hits + misses == lookups.

With --chrome FILE, additionally validates a Chrome trace-event JSON
array structurally: tolerant of a truncated tail (per the format spec),
every event needs name/ph/ts/pid/tid, `X` events need a non-negative
`dur`, and `B`/`E` events must balance per (pid, tid).

With --serve JOBS_DIR, validates the per-job traces a `motune serve`
state directory accumulates (`jobs/jNNNNNN/trace.jsonl`) instead of a
single tuning trace:
  1. every line parses and carries `type`/`name`;
  2. every record's `attrs.job` stamp matches the directory it lives in
     (no cross-job bleed through the shared scheduler threads);
  3. span ids are disjoint across jobs (the scheduler seeds each job's
     tracer in its own id range — a collision means two jobs' spans
     could be confused in a merged view);
  4. each trace starts with a `trace.header` and a resumed job has one
     header per run, with the `run` stamp increasing.

With --replay LOG, validates a `motune replay --log LOG` selection log
(format motune-replay-v1) instead:
  1. every line parses, is `type: replay`, and the first record is a
     `replay.header` declaring the format;
  2. phase records appear in ordinal order with invocation offsets that
     match the cumulative phase lengths;
  3. switch records carry strictly increasing invocation indices, move
     between two *different* in-range arms, and their count equals the
     summary's `switches`;
  4. the final record is the one `replay.summary`, its per-arm selection
     counts sum to the invocation total, and its ratio is consistent
     with the logged bills.

With --metrics FILE, validates a metrics-registry JSON dump (the
--metrics output of the benches and the CLI) instead of a trace: every
counter must be non-negative (registry counters are monotone by
construction), plus the rule-6 family invariants above — this is how the
CI gates check `serve.cache.{lookups,hits,misses}` consistency, since
those counters live in the daemon's registry, not in any per-job trace.

Usage: check_trace.py TRACE.jsonl [--chrome TRACE.json]
       check_trace.py --serve STATE_DIR/jobs
       check_trace.py --replay LOG.jsonl
       check_trace.py --metrics METRICS.json
"""
import glob
import json
import os
import sys


def check_chrome(path: str) -> int:
    """Structural validation of a Chrome trace-event array file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read().strip()
    if not text.startswith("["):
        print(f"{path}: chrome trace must be a JSON array", file=sys.stderr)
        return 1
    try:
        events = json.loads(text)
    except json.JSONDecodeError:
        # The format explicitly tolerates a missing tail: close the array
        # after stripping a trailing comma and retry.
        repaired = text.rstrip().rstrip(",") + "]"
        try:
            events = json.loads(repaired)
        except json.JSONDecodeError as err:
            print(f"{path}: unparsable even after closing the array: {err}",
                  file=sys.stderr)
            return 1
    if not isinstance(events, list) or not events:
        print(f"{path}: empty chrome trace", file=sys.stderr)
        return 1

    begin_depth = {}  # (pid, tid) -> open B count
    for i, ev in enumerate(events):
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in ev:
                print(f"{path}: event {i} missing {key}: {ev}",
                      file=sys.stderr)
                return 1
        ph = ev["ph"]
        if ph == "X" and ev.get("dur", -1) < 0:
            print(f"{path}: event {i} ('{ev['name']}') has negative dur",
                  file=sys.stderr)
            return 1
        track = (ev["pid"], ev["tid"])
        if ph == "B":
            begin_depth[track] = begin_depth.get(track, 0) + 1
        elif ph == "E":
            begin_depth[track] = begin_depth.get(track, 0) - 1
            if begin_depth[track] < 0:
                print(f"{path}: unbalanced E on track {track}",
                      file=sys.stderr)
                return 1
    unbalanced = {t: d for t, d in begin_depth.items() if d != 0}
    if unbalanced:
        print(f"{path}: unbalanced B/E events: {unbalanced}", file=sys.stderr)
        return 1
    phases = sorted({ev["ph"] for ev in events})
    print(f"chrome trace ok: {len(events)} events, phases {phases}")
    return 0


def load_jsonl(path: str):
    """Parses a trace.jsonl; returns (records, error_string_or_None).

    Reads as the program's JSONL reader does (src/support/files.h): an
    unterminated final line is a killed writer's torn tail and is dropped;
    any other line that does not parse is an error."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.endswith("\n"):
                break
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                return None, f"{path}:{lineno}: invalid JSON: {err}"
            if "type" not in record or "name" not in record:
                return None, f"{path}:{lineno}: missing type/name"
            records.append(record)
    return records, None


def check_serve(jobs_dir: str) -> int:
    """Validate every per-job trace under a serve state dir's jobs/."""
    paths = sorted(glob.glob(os.path.join(jobs_dir, "j*", "trace.jsonl")))
    if not paths:
        print(f"{jobs_dir}: no jobs/*/trace.jsonl found", file=sys.stderr)
        return 1

    span_owner = {}  # span/event id -> job id, to prove disjointness
    total_records = 0
    resumed = 0
    for path in paths:
        job_id = os.path.basename(os.path.dirname(path))
        records, err = load_jsonl(path)
        if err:
            print(err, file=sys.stderr)
            return 1
        if not records:
            print(f"{path}: empty trace", file=sys.stderr)
            return 1
        if records[0]["name"] != "trace.header":
            print(f"{path}: first record is {records[0]['name']!r}, "
                  "expected trace.header", file=sys.stderr)
            return 1

        headers = [r for r in records if r["name"] == "trace.header"]
        runs = [r.get("attrs", {}).get("run") for r in headers]
        if runs != sorted(runs) or len(set(runs)) != len(runs):
            print(f"{path}: run stamps on headers not strictly increasing: "
                  f"{runs}", file=sys.stderr)
            return 1
        if len(headers) > 1:
            resumed += 1

        for r in records:
            attrs = r.get("attrs", {})
            if attrs.get("job") != job_id:
                print(f"{path}: record {r['name']!r} stamped "
                      f"job={attrs.get('job')!r}, expected {job_id!r}",
                      file=sys.stderr)
                return 1
            if "run" not in attrs:
                print(f"{path}: record {r['name']!r} has no run stamp",
                      file=sys.stderr)
                return 1
            rid = r.get("id")
            if rid is None or rid == 0:
                continue
            owner = span_owner.setdefault(rid, job_id)
            if owner != job_id:
                print(f"{path}: span id {rid} also appears in {owner} — "
                      "per-job id ranges must be disjoint", file=sys.stderr)
                return 1
        total_records += len(records)

    print(f"serve traces ok: {len(paths)} jobs, {total_records} records, "
          f"{len(span_owner)} distinct span ids, {resumed} resumed")
    return 0


def counter_family_error(counters):
    """Invariants shared by the trace mode and --metrics mode (rule 6 of
    the module docstring); returns an error string or None."""
    for name in sorted(counters):
        if (name.startswith("tuning.surrogate.")
                or name.startswith("serve.cache.")) and counters[name] < 0:
            return f"counter {name} is negative: {counters[name]}"
    culled = counters.get("tuning.surrogate.culled")
    predictions = counters.get("tuning.surrogate.predictions")
    if culled is not None and predictions is not None and culled > predictions:
        return (f"tuning.surrogate.culled ({culled}) exceeds "
                f"tuning.surrogate.predictions ({predictions}) — every "
                "culled trial must have been scored first")
    for name in sorted(counters):
        if not name.endswith(".lookups"):
            continue
        family = name[: -len(".lookups")]
        hits = counters.get(family + ".hits", 0)
        misses = counters.get(family + ".misses", 0)
        if hits + misses != counters[name]:
            return (f"{family}: hits ({hits}) + misses ({misses}) != "
                    f"lookups ({counters[name]})")
    return None


def check_metrics(path: str) -> int:
    """Validate a metrics-registry JSON dump (bench/CLI --metrics)."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            print(f"{path}: invalid JSON: {err}", file=sys.stderr)
            return 1
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        print(f"{path}: no counters object", file=sys.stderr)
        return 1
    negative = {n: v for n, v in counters.items() if v < 0}
    if negative:
        print(f"{path}: negative counters: {negative}", file=sys.stderr)
        return 1
    err = counter_family_error(counters)
    if err:
        print(f"{path}: {err}", file=sys.stderr)
        return 1
    families = sorted({n.rsplit(".", 1)[0] for n in counters})
    print(f"metrics ok: {len(counters)} counters over families "
          f"{families}")
    return 0


def check_replay(path: str) -> int:
    """Validate a `motune replay --log` selection log."""
    records, err = load_jsonl(path)
    if err:
        print(err, file=sys.stderr)
        return 1
    if not records:
        print(f"{path}: empty replay log", file=sys.stderr)
        return 1

    for i, r in enumerate(records):
        if r["type"] != "replay":
            print(f"{path}: record {i} has type {r['type']!r}, expected "
                  "'replay'", file=sys.stderr)
            return 1

    header = records[0]
    if header["name"] != "replay.header":
        print(f"{path}: first record is {header['name']!r}, expected "
              "replay.header", file=sys.stderr)
        return 1
    fmt = header.get("attrs", {}).get("format")
    if fmt != "motune-replay-v1":
        print(f"{path}: header declares format {fmt!r}, expected "
              "motune-replay-v1", file=sys.stderr)
        return 1
    versions = header["attrs"]["versions"]
    declared = header["attrs"]["invocations"]

    summaries = [r for r in records if r["name"] == "replay.summary"]
    if len(summaries) != 1 or records[-1]["name"] != "replay.summary":
        print(f"{path}: expected exactly one replay.summary as the last "
              f"record (found {len(summaries)})", file=sys.stderr)
        return 1
    summary = summaries[0]["attrs"]
    if summary["invocations"] != declared:
        print(f"{path}: summary covers {summary['invocations']} invocations "
              f"but the header declared {declared}", file=sys.stderr)
        return 1
    counts = summary["counts"]
    if len(counts) != versions or sum(counts) != declared:
        print(f"{path}: selection counts {counts} do not sum to "
              f"{declared} over {versions} arms", file=sys.stderr)
        return 1
    if summary["adaptive_cost"] > 0:
        implied = summary["best_static_cost"] / summary["adaptive_cost"]
        if abs(implied - summary["ratio"]) > 1e-9 * max(1.0, abs(implied)):
            print(f"{path}: summary ratio {summary['ratio']} inconsistent "
                  f"with bills (implied {implied})", file=sys.stderr)
            return 1

    phases = [r for r in records if r["name"] == "replay.phase"]
    if not phases:
        print(f"{path}: no replay.phase records", file=sys.stderr)
        return 1
    offset = 0
    for ordinal, r in enumerate(phases):
        attrs = r["attrs"]
        if attrs["phase"] != ordinal:
            print(f"{path}: phase ordinal {attrs['phase']} out of order "
                  f"(expected {ordinal})", file=sys.stderr)
            return 1
        if attrs["invocation"] != offset:
            print(f"{path}: phase {ordinal} starts at {attrs['invocation']}, "
                  f"expected cumulative offset {offset}", file=sys.stderr)
            return 1
        offset += attrs["invocations"]
    if offset != declared:
        print(f"{path}: phase lengths sum to {offset}, header declared "
              f"{declared}", file=sys.stderr)
        return 1

    switches = [r for r in records if r["name"] == "replay.switch"]
    last_invocation = -1
    for r in switches:
        attrs = r["attrs"]
        if attrs["invocation"] <= last_invocation:
            print(f"{path}: switch invocations not strictly increasing at "
                  f"{attrs['invocation']}", file=sys.stderr)
            return 1
        last_invocation = attrs["invocation"]
        if attrs["from"] == attrs["to"]:
            print(f"{path}: switch at {attrs['invocation']} does not move "
                  f"(arm {attrs['from']})", file=sys.stderr)
            return 1
        for key in ("from", "to"):
            if not 0 <= attrs[key] < versions:
                print(f"{path}: switch at {attrs['invocation']} has "
                      f"{key}={attrs[key]} outside [0, {versions})",
                      file=sys.stderr)
                return 1
    if len(switches) != summary["switches"]:
        print(f"{path}: {len(switches)} switch records but the summary "
              f"claims {summary['switches']}", file=sys.stderr)
        return 1

    names = {r["name"] for r in records}
    known = {"replay.header", "replay.phase", "replay.switch",
             "replay.summary"}
    if not names <= known:
        print(f"{path}: unknown record names {sorted(names - known)}",
              file=sys.stderr)
        return 1

    print(f"replay log ok: {declared} invocations over {len(phases)} phases, "
          f"{len(switches)} switches, ratio {summary['ratio']:.3f}")
    return 0


def main() -> int:
    args = sys.argv[1:]
    if args and args[0] == "--replay":
        if len(args) != 2:
            print(__doc__, file=sys.stderr)
            return 2
        return check_replay(args[1])
    if args and args[0] == "--serve":
        if len(args) != 2:
            print(__doc__, file=sys.stderr)
            return 2
        return check_serve(args[1])
    if args and args[0] == "--metrics":
        if len(args) != 2:
            print(__doc__, file=sys.stderr)
            return 2
        return check_metrics(args[1])
    chrome_path = None
    if "--chrome" in args:
        i = args.index("--chrome")
        if i + 1 >= len(args):
            print(__doc__, file=sys.stderr)
            return 2
        chrome_path = args[i + 1]
        del args[i:i + 2]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    records, error = load_jsonl(args[0])
    if error:
        print(error, file=sys.stderr)
        return 1
    if not records:
        print("empty trace", file=sys.stderr)
        return 1

    generations = [r for r in records
                   if r["type"] == "span" and r["name"] == "gde3.generation"]
    if not generations:
        print("no gde3.generation spans in trace", file=sys.stderr)
        return 1
    hvs = [g.get("attrs", {}).get("hv") for g in generations]
    if None in hvs:
        print("gde3.generation span without an hv attr", file=sys.stderr)
        return 1
    for a, b in zip(hvs, hvs[1:]):
        if b < a:
            print(f"hypervolume not monotone: {a} -> {b}", file=sys.stderr)
            return 1

    counters = {r["name"]: r["attrs"]["value"] for r in records
                if r["type"] == "counter"}
    if "tuning.evaluations.unique" not in counters:
        print("missing tuning.evaluations.unique counter", file=sys.stderr)
        return 1
    unique = counters["tuning.evaluations.unique"]

    err = counter_family_error(counters)
    if err:
        print(err, file=sys.stderr)
        return 1

    run_spans = [r for r in records if r["type"] == "span"
                 and r["name"] in ("rsgde3.run", "gde3.run")]
    for span in run_spans:
        declared = span.get("attrs", {}).get("evaluations")
        if declared is not None and declared != unique:
            print(f"{span['name']} declares {declared} evaluations but the "
                  f"unique counter is {unique}", file=sys.stderr)
            return 1

    # Runtime ring records: thread attribution and no silent loss.
    runtime = [r for r in records if r["name"].startswith("rt.")
               and r["type"] == "span"]
    for r in runtime + [r for r in records if r["name"] == "region.select"]:
        if r.get("tid", 0) <= 0:
            print(f"runtime record without thread id: {r}", file=sys.stderr)
            return 1
    drops = None
    if runtime:
        if "rt.ring.dropped" not in counters:
            print("rt.* records present but rt.ring.dropped counter missing "
                  "(ring loss would be silent)", file=sys.stderr)
            return 1
        drops = counters["rt.ring.dropped"]
        threads = len({r["tid"] for r in runtime})
    else:
        threads = 0

    summary = (f"trace ok: {len(records)} records, {len(generations)} "
               f"generations, hv {hvs[0]:.4f} -> {hvs[-1]:.4f}, "
               f"{unique} unique evaluations")
    if runtime:
        summary += (f", {len(runtime)} runtime events on {threads} threads "
                    f"({drops} dropped)")
    print(summary)

    if chrome_path is not None:
        return check_chrome(chrome_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
