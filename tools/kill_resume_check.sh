#!/usr/bin/env bash
# Crash-safety check for durable tuning sessions: SIGKILL a checkpointed
# run mid-flight, resume it, and assert the resumed artifact is
# bit-identical to an uninterrupted golden run (modulo the session
# provenance block, which legitimately records the resume).
#
# Usage: kill_resume_check.sh /path/to/motune [WORKDIR] [MODE]
#   MODE          "tune" (default): SIGKILL a checkpointed `motune tune`,
#                 resume with --resume, diff against an uninterrupted run.
#                 "serve": SIGKILL a `motune serve` daemon mid-load (a
#                 burst of checkpointed jobs in flight), restart it on the
#                 same state dir, and diff every job's artifact against a
#                 golden uninterrupted daemon run.
#                 "island": run a 2-island search as two worker processes
#                 sharing a session directory, SIGKILL one island mid-run
#                 (its peer keeps polling the shared migrant journal),
#                 resume the victim, merge, and diff the merged front
#                 against an uninterrupted in-process golden run.
#   KILL_AFTER    seconds before the SIGKILL (default 1.2)
#   EVAL_DELAY    injected per-evaluation delay that stretches the victim
#                 run so the kill lands mid-search (default 0.002)
#   SERVE_PORT    fixed port for serve mode (default 7831)
#   SERVE_JOBS    burst size for serve mode (default 12)
#
# Every mode also fails if any `checkpoint` record in the victim's session
# journals exceeds 64 KB: checkpoint state must not grow with the number
# of evaluations.
#
# Registered as the ctests `kill_resume_check`, `kill_resume_island_check`
# and `kill_resume_serve_check`, and run by the CI `kill-resume`,
# `surrogate-gate` (island mode) and `serve-gate` jobs. Deterministic by
# construction: wherever the kill lands — before the first checkpoint,
# mid-generation, or between checkpoints — resume replays the
# deterministic search over the journaled evaluations and must reach the
# identical front.
set -euo pipefail

MOTUNE="${1:?usage: kill_resume_check.sh /path/to/motune [workdir] [tune|serve|island]}"
WORK="${2:-$(mktemp -d)}"
MODE="${3:-tune}"
HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
KILL_AFTER="${KILL_AFTER:-1.2}"
EVAL_DELAY="${EVAL_DELAY:-0.002}"
SERVE_PORT="${SERVE_PORT:-7831}"
SERVE_JOBS="${SERVE_JOBS:-12}"

# check_checkpoint_size DIR: fails if a checkpoint record in any
# session.jsonl under DIR is larger than 64 KB.
check_checkpoint_size() {
  python3 - "$1" <<'PY'
import pathlib, sys
limit = 64 * 1024
journals = sorted(pathlib.Path(sys.argv[1]).rglob("session.jsonl"))
if not journals:
    sys.exit(f"no session journal under {sys.argv[1]}")
largest = 0
for journal in journals:
    for n, line in enumerate(journal.read_bytes().splitlines(), 1):
        if b'"type":"checkpoint"' not in line:
            continue
        largest = max(largest, len(line))
        if len(line) > limit:
            sys.exit(f"{journal}:{n}: checkpoint record is {len(line)} bytes "
                     f"(limit {limit})")
print(f"   largest checkpoint record: {largest} bytes "
      f"in {len(journals)} journal(s)")
PY
}

if [ "$MODE" = "serve" ]; then
  mkdir -p "$WORK"
  rm -rf "$WORK/golden_state" "$WORK/victim_state" \
         "$WORK/golden_artifacts" "$WORK/resumed_artifacts" "$WORK/ids.json"
  LOAD=(python3 "$HERE/loadtest_serve.py" --port "$SERVE_PORT"
        --jobs "$SERVE_JOBS" --seeds "$SERVE_JOBS" --threads 4
        --algorithm rsgde3 --timeout 600)

  echo "== golden daemon run (uninterrupted)"
  "$MOTUNE" serve --dir "$WORK/golden_state" --port "$SERVE_PORT" \
    --workers 2 --queue-capacity 64 > "$WORK/golden.log" 2>&1 &
  GOLDEN=$!
  sleep 0.5
  "${LOAD[@]}" --artifacts-dir "$WORK/golden_artifacts"
  "$MOTUNE" jobs --port "$SERVE_PORT" --shutdown > /dev/null
  wait "$GOLDEN" 2> /dev/null || true

  echo "== victim daemon (${EVAL_DELAY}s injected per evaluation)"
  MOTUNE_FAULT_SPEC="delay@*:${EVAL_DELAY}" \
    "$MOTUNE" serve --dir "$WORK/victim_state" --port "$SERVE_PORT" \
    --workers 2 --queue-capacity 64 > "$WORK/victim.log" 2>&1 &
  VICTIM=$!
  sleep 0.5
  "${LOAD[@]}" --phase submit --ids-file "$WORK/ids.json"
  sleep "$KILL_AFTER"
  kill -KILL "$VICTIM" 2> /dev/null && echo "   SIGKILL delivered after ${KILL_AFTER}s"
  wait "$VICTIM" 2> /dev/null || true

  FINISHED=$(find "$WORK/victim_state/jobs" -name artifact.json 2> /dev/null | wc -l)
  echo "   $FINISHED/$SERVE_JOBS jobs had finished at kill time"
  if [ "$FINISHED" -ge "$SERVE_JOBS" ]; then
    echo "ERROR: the burst outpaced the kill; raise EVAL_DELAY or SERVE_JOBS" >&2
    exit 1
  fi

  echo "== restart on the same state dir; in-flight jobs must resume"
  "$MOTUNE" serve --dir "$WORK/victim_state" --port "$SERVE_PORT" \
    --workers 2 --queue-capacity 64 > "$WORK/restart.log" 2>&1 &
  RESTART=$!
  sleep 0.5
  "${LOAD[@]}" --phase await --ids-file "$WORK/ids.json" \
    --artifacts-dir "$WORK/resumed_artifacts"
  "$MOTUNE" jobs --port "$SERVE_PORT" --shutdown > /dev/null
  wait "$RESTART" 2> /dev/null || true
  check_checkpoint_size "$WORK/victim_state"

  echo "== compare every job against the golden run"
  for golden in "$WORK/golden_artifacts/"*.json; do
    python3 "$HERE/compare_artifacts.py" "$golden" \
      "$WORK/resumed_artifacts/$(basename "$golden")" --ignore session
  done
  echo "serve kill-resume check passed"
  exit 0
fi

if [ "$MODE" = "island" ]; then
  ISLAND_ARGS=(tune --kernel mm --n 600 --seed 7 --islands 2)
  mkdir -p "$WORK"
  rm -rf "$WORK/session" "$WORK/golden.json" "$WORK/resumed.json"

  echo "== golden run (uninterrupted, in-process islands, no session)"
  "$MOTUNE" "${ISLAND_ARGS[@]}" --out "$WORK/golden.json" > /dev/null

  echo "== two worker processes; island 1 gets ${EVAL_DELAY}s per evaluation"
  "$MOTUNE" "${ISLAND_ARGS[@]}" --island-index 0 \
    --checkpoint "$WORK/session" > "$WORK/island0.log" 2>&1 &
  PEER=$!
  MOTUNE_FAULT_SPEC="delay@*:${EVAL_DELAY}" \
    "$MOTUNE" "${ISLAND_ARGS[@]}" --island-index 1 \
    --checkpoint "$WORK/session" > "$WORK/island1.log" 2>&1 &
  VICTIM=$!
  sleep "$KILL_AFTER"
  if kill -KILL "$VICTIM" 2> /dev/null; then
    echo "   SIGKILL delivered to island 1 after ${KILL_AFTER}s"
  fi
  wait "$VICTIM" 2> /dev/null || true

  VICTIM_JOURNAL="$WORK/session/island-1/session.jsonl"
  if grep -q '"type":"finish"' "$VICTIM_JOURNAL" 2> /dev/null; then
    # The victim outpaced the kill. Simulate the crash instead: drop the
    # finish record, truncate the journal and leave a torn tail — the
    # exact on-disk state a kill produces. The already-published migrant
    # records stay (they are immutable and peers may have read them); the
    # resumed island re-offers those rounds and the journal refuses the
    # duplicates.
    echo "   island 1 finished before the kill; truncating its journal"
    grep -v '"type":"finish"' "$VICTIM_JOURNAL" > "$WORK/session/cut"
    TOTAL=$(wc -l < "$WORK/session/cut")
    head -n "$((TOTAL * 6 / 10))" "$WORK/session/cut" > "$VICTIM_JOURNAL"
    printf '{"type":"eval","config":[9,' >> "$VICTIM_JOURNAL"
    rm -f "$WORK/session/cut"
  fi

  echo "== resume island 1; island 0 unblocks as the replayed rounds land"
  "$MOTUNE" "${ISLAND_ARGS[@]}" --island-index 1 \
    --resume "$WORK/session" > "$WORK/island1_resume.log" 2>&1
  wait "$PEER"

  check_checkpoint_size "$WORK/session/island-1"

  echo "== merge the finished islands"
  "$MOTUNE" "${ISLAND_ARGS[@]}" --resume "$WORK/session" \
    --out "$WORK/resumed.json" > /dev/null

  echo "== compare (ignoring the session provenance block)"
  python3 "$HERE/compare_artifacts.py" "$WORK/golden.json" \
    "$WORK/resumed.json" --ignore session

  echo "island kill-resume check passed"
  exit 0
fi

TUNE_ARGS=(tune --kernel mm --n 600 --seed 7)
mkdir -p "$WORK"
rm -rf "$WORK/session" "$WORK/golden.json" "$WORK/victim.json" "$WORK/resumed.json"

echo "== golden run (uninterrupted, no session)"
"$MOTUNE" "${TUNE_ARGS[@]}" --out "$WORK/golden.json" > /dev/null

echo "== victim run (checkpointed, ${EVAL_DELAY}s injected per evaluation)"
MOTUNE_FAULT_SPEC="delay@*:${EVAL_DELAY}" \
  "$MOTUNE" "${TUNE_ARGS[@]}" --checkpoint "$WORK/session" \
  --out "$WORK/victim.json" > "$WORK/victim.log" 2>&1 &
VICTIM=$!
sleep "$KILL_AFTER"
if kill -KILL "$VICTIM" 2> /dev/null; then
  echo "   SIGKILL delivered after ${KILL_AFTER}s"
fi
wait "$VICTIM" 2> /dev/null || true

if [ -f "$WORK/victim.json" ]; then
  # The run outpaced the kill (slow CI runner warming up, tiny search).
  # Fall back to simulating the crash: drop the finish record, truncate the
  # journal and leave a torn tail — the exact on-disk state a kill produces.
  echo "   run finished before the kill; truncating the journal instead"
  grep -v '"type":"finish"' "$WORK/session/session.jsonl" > "$WORK/session/cut"
  TOTAL=$(wc -l < "$WORK/session/cut")
  head -n "$((TOTAL * 6 / 10))" "$WORK/session/cut" > "$WORK/session/session.jsonl"
  printf '{"type":"eval","config":[9,' >> "$WORK/session/session.jsonl"
  rm -f "$WORK/session/cut" "$WORK/victim.json"
fi

echo "== resume"
"$MOTUNE" "${TUNE_ARGS[@]}" --resume "$WORK/session" \
  --out "$WORK/resumed.json" > /dev/null
check_checkpoint_size "$WORK/session"

echo "== compare (ignoring the session provenance block)"
python3 "$HERE/compare_artifacts.py" "$WORK/golden.json" "$WORK/resumed.json" \
  --ignore session

echo "kill-resume check passed"
