#!/bin/bash
# Check gate: the drink-check schedule-exploration harness as a CI step.
#
#   scripts/check_gate.sh [artifact-dir]
#
# Eight legs, all required:
#
#   1. Build the harness with the invariant layer compiled in
#      (`check-invariants` is a non-default feature: the plain workspace
#      release build — and hence the benchmark and the fast-path probes —
#      never pays for it).
#   2. Clean fixed-seed smoke matrix: 3 engines x 4 seeds x 4 workloads
#      plus the differential / seqlock / degradation-ladder / serve / replay /
#      RS oracles (the seqlock and degradation-ladder oracles run their own
#      specs' 3 and 4 engine cells). Must pass.
#   3. Canaries: re-run the matrix with a deliberately injected protocol
#      bug. Two bugs, each its own leg:
#        - skip-flush-before-block (lock-buffer flush dropped before a
#          blocking safe point);
#        - late-has-requests-clear (the inbox drain clears `has_requests`
#          after the detach instead of before it, re-opening the
#          lost-wakeup race of DESIGN.md s8 — caught when a stranded
#          requester trips its watchdog, or by the quiescence scan's
#          stranded-request check).
#      The harness must CATCH each (nonzero exit, artifact written), and
#      `--reproduce` on the saved artifact must fail again — proving the
#      seed+trace actually pins the failure. A canary that passes means
#      the harness has gone blind, and the gate fails.
#   4. Stall-responder fault legs (DRINK_INJECT_FAULT=stall-responder:<ms>,
#      DESIGN.md s13). Unlike an injected *bug*, the fault is a
#      legal-but-hostile environment: a victim's responding-safe-point loop
#      freezes for <ms> whenever it has pending coordination requests.
#        - Degradation leg: a 200 ms stall — longer than chaosAdapt's 150 ms
#          coordination deadline — against one full matrix seed. The run
#          must PASS: deadlines fire, each expiry moves the stalled object
#          to the pessimistic protocol (which needs no responder), and every
#          oracle still agrees. A hang or oracle
#          failure here means the degradation ladder is broken.
#        - Catch leg: a 4 s stall with a 3 s watchdog budget and no deadline
#          relief on most workloads. The watchdog must CATCH the wedged
#          roundtrip (nonzero exit, artifact), and `--reproduce` under the
#          same fault must fail again.
#   5. Short flake hunt: the policy's tests (profile-word proptests, the
#      valve's `adapt::tests`, the racy-object tests), the replay-elision
#      oracle, the validated-read
#      windows of DESIGN.md s12, the recording-log oracles and the race
#      detector's report deduplication, ten times over; then the forced
#      failed validation of an installed read ten times in the
#      check-invariants build, where the store that releases a write lock
#      is a swap asserting the word it replaced. Any red round fails the
#      gate and keeps its output under target/flake-hunt/
#      (`scripts/flake_hunt.sh 50 ...` is the long form).
#   6. Table 3 in the check-invariants build: the row tests and the abstract
#      model, so that every row the engine executes passes through
#      `EngineCommon::publish`'s step assert.
#   7. The open-loop KV-store server's smoke in the plain release build
#      (`drink-serve --smoke`, DESIGN.md s14): a rate-limited hybrid run with
#      nonzero throughput and a clean quiescent store check.
#   8. The same-state leaf in the plain release build
#      (`scripts/fastpath_asm.sh`, DESIGN.md s8): no call and no frame before
#      the first `ret` of the hybrid read, write and safe point, no indirect
#      call behind `AnyEngine`.
#
# The canary leg tightens DRINK_SPIN_BUDGET_MS so deliberate protocol
# wedges fail in seconds; `--fail-fast` stops at the first caught cell
# instead of grinding every remaining cell through its watchdog.
set -euo pipefail
cd "$(dirname "$0")/.."

ARTIFACTS="${1:-target/chaos-gate}"
SMOKE=./target/release/chaos_smoke

echo "=== check_gate: build harness (check-invariants)"
cargo build --release -p drink-check --features check-invariants

echo "=== check_gate: clean smoke matrix"
"$SMOKE" --artifact-dir "$ARTIFACTS"

echo "=== check_gate: injected-bug canary (skip-flush-before-block)"
rm -rf "$ARTIFACTS/canary"
if DRINK_SPIN_BUDGET_MS=3000 DRINK_INJECT_BUG=skip-flush-before-block \
    "$SMOKE" --fail-fast --artifact-dir "$ARTIFACTS/canary"; then
  echo "check_gate: FAIL — injected bug was NOT caught (harness is blind)" >&2
  exit 1
fi

artifact="$(ls "$ARTIFACTS"/canary/*.json 2>/dev/null | head -n1 || true)"
if [ -z "$artifact" ]; then
  echo "check_gate: FAIL — canary failed but wrote no artifact" >&2
  exit 1
fi

# `"events"` alone would pass on empty timelines (`"events": []`); a record's
# `"ts_ns"` field proves some thread's ring reached the artifact.
if ! grep -q '"ts_ns"' "$artifact"; then
  echo "check_gate: FAIL — canary artifact has no embedded event records" >&2
  exit 1
fi

echo "=== check_gate: injected-bug canary (late-has-requests-clear)"
rm -rf "$ARTIFACTS/canary-inbox"
if DRINK_SPIN_BUDGET_MS=3000 DRINK_INJECT_BUG=late-has-requests-clear \
    "$SMOKE" --fail-fast --artifact-dir "$ARTIFACTS/canary-inbox"; then
  echo "check_gate: FAIL — late-has-requests-clear was NOT caught (lost wakeup invisible)" >&2
  exit 1
fi

inbox_artifact="$(ls "$ARTIFACTS"/canary-inbox/*.json 2>/dev/null | head -n1 || true)"
if [ -z "$inbox_artifact" ]; then
  echo "check_gate: FAIL — inbox canary failed but wrote no artifact" >&2
  exit 1
fi

if ! grep -q '"ts_ns"' "$inbox_artifact"; then
  echo "check_gate: FAIL — inbox canary artifact has no embedded event records" >&2
  exit 1
fi

echo "=== check_gate: trace export / ingest round trip"
cargo build --release -p drink-bench --bin drink-bench
TRACE_OUT="$ARTIFACTS/canary-trace.json"
./target/release/drink-bench trace --workload chaos_mix --seed 7 --out "$TRACE_OUT" >/dev/null
./target/release/drink-bench trace --check "$TRACE_OUT"

echo "=== check_gate: reproduce canary artifact ($artifact)"
if DRINK_SPIN_BUDGET_MS=3000 DRINK_INJECT_BUG=skip-flush-before-block \
    "$SMOKE" --reproduce "$artifact"; then
  echo "check_gate: FAIL — canary artifact did not reproduce" >&2
  exit 1
fi

echo "=== check_gate: reproduce inbox canary artifact ($inbox_artifact)"
if DRINK_SPIN_BUDGET_MS=3000 DRINK_INJECT_BUG=late-has-requests-clear \
    "$SMOKE" --reproduce "$inbox_artifact"; then
  echo "check_gate: FAIL — inbox canary artifact did not reproduce" >&2
  exit 1
fi

echo "=== check_gate: stall-responder degradation leg (200ms stall, must pass)"
if ! DRINK_INJECT_FAULT=stall-responder:200 \
    "$SMOKE" --seeds 0x1 --artifact-dir "$ARTIFACTS/stall-degrade"; then
  echo "check_gate: FAIL — matrix does not survive a 200ms responder stall" >&2
  echo "            (deadline/demotion ladder broken: see DESIGN.md s13)" >&2
  exit 1
fi

echo "=== check_gate: stall-responder catch leg (4s stall vs 3s budget, must be caught)"
rm -rf "$ARTIFACTS/stall-canary"
if DRINK_SPIN_BUDGET_MS=3000 DRINK_INJECT_FAULT=stall-responder:4000 \
    "$SMOKE" --seeds 0x1 --fail-fast --artifact-dir "$ARTIFACTS/stall-canary"; then
  echo "check_gate: FAIL — 4s responder stall was NOT caught (watchdog blind)" >&2
  exit 1
fi

stall_artifact="$(ls "$ARTIFACTS"/stall-canary/*.json 2>/dev/null | head -n1 || true)"
if [ -z "$stall_artifact" ]; then
  echo "check_gate: FAIL — stall canary failed but wrote no artifact" >&2
  exit 1
fi

if ! grep -q '"ts_ns"' "$stall_artifact"; then
  echo "check_gate: FAIL — stall canary artifact has no embedded event records" >&2
  exit 1
fi

echo "=== check_gate: reproduce stall canary artifact ($stall_artifact)"
if DRINK_SPIN_BUDGET_MS=3000 DRINK_INJECT_FAULT=stall-responder:4000 \
    "$SMOKE" --reproduce "$stall_artifact"; then
  echo "check_gate: FAIL — stall canary artifact did not reproduce" >&2
  exit 1
fi

echo "=== check_gate: flake hunt (policy and its valve, racy objects, replay elision, validated reads, log persistence, race report dedup; 10 rounds)"
scripts/flake_hunt.sh 10 racy_objects policy adapt::tests replay_elision validated_reads log_persistence reports_deduplicate

echo "=== check_gate: flake hunt, check-invariants build (failed validation of an installed read; 10 rounds)"
scripts/flake_hunt.sh 10 --features drink-core/check-invariants failed_validation

echo "=== check_gate: Table 3, every row through the step assert"
cargo test -p drink-core --features check-invariants --test table3 --test table3_model

echo "=== check_gate: drink-serve smoke (release build, no check-invariants)"
cargo build --release -p drink-serve
./target/release/drink-serve --smoke

echo "=== check_gate: the same-state access is a leaf (release build, no check-invariants)"
scripts/fastpath_asm.sh

echo "=== check_gate: OK (bugs and stall caught, artifacts reproduce, ladder degrades gracefully, no flake)"
