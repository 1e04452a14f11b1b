#!/bin/bash
# Check gate: the drink-check schedule-exploration harness as a CI step.
#
#   scripts/check_gate.sh [artifact-dir]
#
# Thirteen legs, all required, in the order they run:
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
#      The harness must CATCH each (nonzero exit, artifact written with
#      event records), and `--reproduce` on the saved artifact must fail
#      again — proving the seed+trace actually pins the failure. A canary
#      that passes means the harness has gone blind, and the gate fails.
#      One function, `canary`, runs these four checks for every canary leg,
#      the stall catch leg of item 7 included.
#   4. Trace export / ingest round trip in the plain release build:
#      `drink-bench trace` exports a chaos_mix run as Chrome trace JSON, and
#      `drink-bench trace --check` must ingest it back.
#   5. E6's count check in the plain release build: `drink-bench --scale
#      0.1 --trials 1 fig9a_record_replay` must exit 0 and print
#      `check: replays that reproduced the recorded heap: N/N: ok`, i.e.
#      every recording of the 13 programs, optimistic and hybrid, replays
#      to its recorded heap (its wall-clock columns are not gated).
#   6. E2's §7.5 reading in the plain release build: `drink-bench --scale
#      0.1 fig6_conflict_cdf` must exit 0 and print `check: hsqldb6
#      resolves a larger share of its conflicts implicitly than xalan6 and
#      xalan9: ok`. The reading is a count: hsqldb6's waiters park, so its
#      conflicts resolve implicitly, while xalan's spinning waiters answer
#      explicitly. A monitor spin phase that yields the core less before it
#      parks flips it (ROADMAP item 3).
#   7. Stall-responder fault legs (DRINK_INJECT_FAULT=stall-responder:<ms>,
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
#          relief on most workloads, run as a canary. The watchdog must CATCH
#          the wedged roundtrip (nonzero exit, artifact), and `--reproduce`
#          under the same fault must fail again.
#   8. Short flake hunt: the policy's tests (profile-word proptests, the
#      valve's `adapt::tests`), the racy-object tests and the racyInc runs
#      (each lock released inside its access under tracking alone, every
#      lock deferred on the paper's model), the replay-elision
#      oracle, the validated-read
#      windows of DESIGN.md s12 and the recording-log oracles, ten times
#      over; then the forced
#      failed validation of an installed read ten times in the
#      check-invariants build, where the store that releases a write lock
#      is a swap asserting the word it replaced. Any red round fails the
#      gate and keeps its output under target/flake-hunt/
#      (`scripts/flake_hunt.sh 50 ...` is the long form).
#   9. Table 3 in the check-invariants build: the row tests and the abstract
#      model, so that every row the engine executes passes through
#      `EngineCommon::publish`'s step assert.
#  10. The open-loop KV-store server's smoke in the plain release build
#      (`drink-serve --smoke`, DESIGN.md s14): a rate-limited hybrid run with
#      nonzero throughput and a clean quiescent store check.
#  11. The same-state leaf in the plain release build
#      (`scripts/fastpath_asm.sh`, DESIGN.md s8): no call and no frame before
#      the first `ret` of the hybrid read, write and safe point, no indirect
#      call behind `AnyEngine`.
#  12. Lint: `cargo clippy --workspace --release --all-targets -- -D warnings`
#      (tests, benches and examples included), so that no
#      warning lands unseen.
#  13. Rustdoc: `RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
#      --offline`, so that a moved or deleted item leaves no dangling doc
#      link, and no public doc links to a private item.
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

# canary WHAT DIR VAR=VALUE [MATRIX-ARG...]: run the matrix under VAR=VALUE
# and a 3 s watchdog budget, stopping at the first caught cell. The run must
# fail and leave an artifact in $ARTIFACTS/DIR whose event records reached
# it (`"events"` alone would pass on empty timelines, `"events": []`; a
# record's `"ts_ns"` field proves some thread's ring got there), and
# `--reproduce` on that artifact under the same variables must fail again.
canary() {
  local what="$1" dir="$ARTIFACTS/$2" var="$3"
  shift 3
  echo "=== check_gate: canary ($what)"
  rm -rf "$dir"
  if env DRINK_SPIN_BUDGET_MS=3000 "$var" "$SMOKE" "$@" --fail-fast --artifact-dir "$dir"; then
    echo "check_gate: FAIL — $what was NOT caught (harness is blind)" >&2
    exit 1
  fi
  local artifact
  artifact="$(ls "$dir"/*.json 2>/dev/null | head -n1 || true)"
  if [ -z "$artifact" ]; then
    echo "check_gate: FAIL — $what: the run failed but wrote no artifact" >&2
    exit 1
  fi
  if ! grep -q '"ts_ns"' "$artifact"; then
    echo "check_gate: FAIL — $what: the artifact has no embedded event records" >&2
    exit 1
  fi
  echo "=== check_gate: reproduce $what ($artifact)"
  if env DRINK_SPIN_BUDGET_MS=3000 "$var" "$SMOKE" --reproduce "$artifact"; then
    echo "check_gate: FAIL — $what: the artifact did not reproduce" >&2
    exit 1
  fi
}

canary "injected bug skip-flush-before-block" canary DRINK_INJECT_BUG=skip-flush-before-block
canary "injected bug late-has-requests-clear" canary-inbox DRINK_INJECT_BUG=late-has-requests-clear

echo "=== check_gate: trace export / ingest round trip"
cargo build --release -p drink-bench --bin drink-bench
TRACE_OUT="$ARTIFACTS/canary-trace.json"
./target/release/drink-bench trace --workload chaos_mix --seed 7 --out "$TRACE_OUT" >/dev/null
./target/release/drink-bench trace --check "$TRACE_OUT"

echo "=== check_gate: E6's count check (every replay reproduces its recorded heap)"
if ! E6_OUT="$(./target/release/drink-bench --scale 0.1 --trials 1 fig9a_record_replay)" ||
    ! grep -q '^check: replays that reproduced the recorded heap: .*: ok$' <<<"$E6_OUT"; then
  printf '%s\n' "$E6_OUT" >&2
  echo "check_gate: FAIL — E6: a replay did not reproduce its recorded heap" >&2
  exit 1
fi

echo "=== check_gate: E2's check (hsqldb6 resolves more of its conflicts implicitly than xalan6/9)"
if ! E2_OUT="$(./target/release/drink-bench --scale 0.1 fig6_conflict_cdf)" ||
    ! grep -q '^check: hsqldb6 resolves a larger share of its conflicts implicitly than xalan6 and xalan9: ok$' <<<"$E2_OUT"; then
  printf '%s\n' "$E2_OUT" >&2
  echo "check_gate: FAIL — E2: hsqldb6's implicit share is not above xalan6's and xalan9's" >&2
  exit 1
fi

echo "=== check_gate: stall-responder degradation leg (200ms stall, must pass)"
if ! DRINK_INJECT_FAULT=stall-responder:200 \
    "$SMOKE" --seeds 0x1 --artifact-dir "$ARTIFACTS/stall-degrade"; then
  echo "check_gate: FAIL — matrix does not survive a 200ms responder stall" >&2
  echo "            (deadline/demotion ladder broken: see DESIGN.md s13)" >&2
  exit 1
fi

canary "4s responder stall vs 3s budget" stall-canary DRINK_INJECT_FAULT=stall-responder:4000 --seeds 0x1

echo "=== check_gate: flake hunt (policy and its valve, racy objects, racyInc, replay elision, validated reads, log persistence; 10 rounds)"
scripts/flake_hunt.sh 10 racy_objects racy_inc policy adapt::tests replay_elision validated_reads log_persistence

echo "=== check_gate: flake hunt, check-invariants build (failed validation of an installed read; 10 rounds)"
scripts/flake_hunt.sh 10 --features drink-core/check-invariants failed_validation

echo "=== check_gate: Table 3, every row through the step assert"
cargo test -p drink-core --features check-invariants --test table3 --test table3_model

echo "=== check_gate: drink-serve smoke (release build, no check-invariants)"
cargo build --release -p drink-serve
./target/release/drink-serve --smoke

echo "=== check_gate: the same-state access is a leaf (release build, no check-invariants)"
scripts/fastpath_asm.sh

echo "=== check_gate: clippy, warnings denied"
cargo clippy --workspace --release --all-targets -- -D warnings

echo "=== check_gate: rustdoc, warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "=== check_gate: OK (bugs and stall caught, artifacts reproduce, ladder degrades gracefully, no flake)"
