#!/bin/bash
# Bench gate: release build + tier-1 tests + chaos check gate + the two
# fixed-iteration microbenches (hot path, multi-thread contention), each
# compared against the *committed* baseline JSON (BENCH_hotpath.json,
# BENCH_contention.json) by `bench_compare`, + the drink-serve smoke run. The
# gate fails on build/test/check failure or when any bench row's median
# regresses more than BENCH_GATE_THRESHOLD percent (default 25) against its
# baseline.
#
#   scripts/bench_gate.sh [--rebaseline]
#
# The fresh reports stay under target/bench-gate/; a green gate changes no
# committed file, so a drift of just under the threshold per PR cannot
# ratchet the baseline. `--rebaseline` is the one way a baseline moves: the
# comparison is printed but does not gate, and each fresh report replaces
# its committed baseline (a new host, or a change whose cost is accepted and
# written down). A missing baseline (first run of a new bench) skips the
# comparison for that report; fixed iteration counts make runs directly
# comparable across commits on the same host. Serve capacity and latency are
# measured by benchmark/run.sh, not here.
set -euo pipefail
cd "$(dirname "$0")/.."

REBASELINE=0
if [ "${1:-}" = "--rebaseline" ]; then
    REBASELINE=1
    shift
fi
if [ "$#" -ne 0 ]; then
    echo "usage: scripts/bench_gate.sh [--rebaseline]" >&2
    exit 2
fi
THRESHOLD="${BENCH_GATE_THRESHOLD:-25}"
FRESH_DIR=target/bench-gate
mkdir -p "$FRESH_DIR"

echo "=== bench_gate: release build"
cargo build --release

echo "=== bench_gate: tier-1 test suite"
cargo test -q

echo "=== bench_gate: chaos check gate"
scripts/check_gate.sh

run_and_compare() {
    local bin="$1"
    shift
    local baseline="BENCH_${bin}.json" fresh="$FRESH_DIR/BENCH_${bin}.json"
    echo "=== bench_gate: $bin microbench -> $fresh"
    "./target/release/$bin" "$fresh"
    if [ ! -f "$baseline" ]; then
        echo "=== bench_gate: no baseline $baseline; skipping comparison"
    elif [ "$REBASELINE" = 1 ]; then
        echo "=== bench_gate: $bin vs outgoing baseline $baseline (not gating: --rebaseline)"
        ./target/release/bench_compare "$baseline" "$fresh" --threshold "$THRESHOLD" "$@" || true
    else
        echo "=== bench_gate: $bin vs baseline $baseline (threshold ${THRESHOLD}%)"
        ./target/release/bench_compare "$baseline" "$fresh" --threshold "$THRESHOLD" "$@"
    fi
    if [ "$REBASELINE" = 1 ]; then
        cp "$fresh" "$baseline"
        echo "=== bench_gate: rebaselined $baseline"
    fi
}

# Advisory status lives in the reports themselves (schema v4): each bench
# binary marks its known-unstable rows (e.g. trace_on_opt_write) at the
# emission site, and `bench_compare` refuses (exit 2) if a previously-gated
# baseline row arrives marked advisory. The adapt_access_* rows that PR 6 kept
# advisory (bimodal 278ns-16.9us under coordination storms) are gated since
# the policy (DESIGN.md §13) moves the storm's hot set to pessimistic states;
# the opt_access_* rows are pure Octet again since PR 13 and advisory again.
#
# --scaling gates the thread-width curves (DESIGN.md §14) on doubling
# ratios, an absolute property of the fresh run:
#   * rdsh_conflict_fanout_skip_N holds the sharer set at 4 while the
#     registered count doubles, so its roundtrip-dominated latency must be
#     width-independent: at most 2x per doubling (expected ~1x);
#   * fanout_snapshot_skip_tN is the pure snapshot walk — one epoch load
#     per peer, linear with a tiny constant: 3x per doubling;
#   * fanout_snapshot_blocked_tN and rdsh_conflict_fanout_N do a status
#     CAS or a full roundtrip per peer (~2x per doubling); 6x of headroom
#     absorbs scheduler noise on oversubscribed single-core CI hosts.
run_and_compare hotpath \
    --scaling fanout_snapshot_blocked_t:6.0 \
    --scaling fanout_snapshot_skip_t:3.0
run_and_compare contention \
    --scaling rdsh_conflict_fanout_:6.0 \
    --scaling rdsh_conflict_fanout_skip_:2.0

# The open-loop KV-store server (DESIGN.md §15): the smoke run proves the
# rate-limited pacing path, store-linearizability check and report round
# trip end to end.
echo "=== bench_gate: drink-serve smoke"
./target/release/drink-serve --smoke "$FRESH_DIR/SERVE_smoke.json"

echo "=== bench_gate: OK"
