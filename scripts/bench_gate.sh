#!/bin/bash
# Bench gate: release build + tier-1 tests + chaos check gate + the two
# fixed-iteration microbenches (hot path, multi-thread contention) + the
# open-loop serve macrobench, each compared against the checked-in baseline
# JSON by `bench_compare`. The gate fails on build/test/check failure or
# when any bench row's median regresses more than BENCH_GATE_THRESHOLD
# percent (default 25) against its baseline (the serve macrobench uses its
# own BENCH_GATE_SERVE_THRESHOLD, default 100: its rows are best-of-trials
# extremes quantized by log2 latency buckets on a noisy shared host, so only
# a binary-order-of-magnitude regression is signal); on success the
# refreshed JSONs are moved into place for commit.
#
#   scripts/bench_gate.sh [hotpath_out.json] [contention_out.json] [serve_out.json]
#
# A missing baseline (first run of a new bench) skips the comparison for
# that report; fixed iteration counts make runs directly comparable across
# commits on the same host.
set -euo pipefail
cd "$(dirname "$0")/.."

HOTPATH_OUT="${1:-BENCH_hotpath.json}"
CONTENTION_OUT="${2:-BENCH_contention.json}"
SERVE_OUT="${3:-BENCH_serve.json}"
THRESHOLD="${BENCH_GATE_THRESHOLD:-25}"
SERVE_THRESHOLD="${BENCH_GATE_SERVE_THRESHOLD:-100}"

echo "=== bench_gate: release build"
cargo build --release

echo "=== bench_gate: tier-1 test suite"
cargo test -q

echo "=== bench_gate: chaos check gate"
scripts/check_gate.sh

run_and_compare() {
    local bin="$1" out="$2"
    shift 2
    local tmp
    tmp="$(mktemp "/tmp/BENCH_${bin}.XXXXXX.json")"
    echo "=== bench_gate: $bin microbench -> $out"
    "./target/release/$bin" "$tmp"
    if [ -f "$out" ]; then
        echo "=== bench_gate: $bin vs baseline $out (threshold ${THRESHOLD}%)"
        ./target/release/bench_compare "$out" "$tmp" --threshold "$THRESHOLD" "$@"
    else
        echo "=== bench_gate: no baseline $out; skipping comparison"
    fi
    mv "$tmp" "$out"
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
run_and_compare hotpath "$HOTPATH_OUT" \
    --scaling fanout_snapshot_blocked_t:6.0 \
    --scaling fanout_snapshot_skip_t:3.0
run_and_compare contention "$CONTENTION_OUT" \
    --scaling rdsh_conflict_fanout_:6.0 \
    --scaling rdsh_conflict_fanout_skip_:2.0

# The open-loop KV-store macrobench (DESIGN.md §15). The smoke leg proves
# the rate-limited pacing path, store-linearizability check and report
# round trip end to end; the bench leg emits the gated matrix (4 engines x
# {8,16} workers: saturated throughput, higher-is-better, plus p99 sojourn).
echo "=== bench_gate: drink-serve smoke"
SERVE_SMOKE_TMP="$(mktemp /tmp/SERVE_smoke.XXXXXX.json)"
./target/release/drink-serve --smoke "$SERVE_SMOKE_TMP"
rm -f "$SERVE_SMOKE_TMP"

SERVE_TMP="$(mktemp /tmp/BENCH_serve.XXXXXX.json)"
echo "=== bench_gate: drink-serve macrobench -> $SERVE_OUT"
./target/release/drink-serve --bench "$SERVE_TMP" --trials 3
if [ -f "$SERVE_OUT" ]; then
    echo "=== bench_gate: drink-serve vs baseline $SERVE_OUT (threshold ${SERVE_THRESHOLD}%)"
    ./target/release/bench_compare "$SERVE_OUT" "$SERVE_TMP" --threshold "$SERVE_THRESHOLD"
else
    echo "=== bench_gate: no baseline $SERVE_OUT; skipping comparison"
fi
mv "$SERVE_TMP" "$SERVE_OUT"

echo "=== bench_gate: OK"
