#!/usr/bin/env bash
# The repo's one benchmark: build it, run it, check it.
#
#   benchmark/run.sh                      every workload, end-to-end and per-layer
#   benchmark/run.sh --quick              ≤ 30 s self-check; numbers not for comparison
#   benchmark/run.sh --repeat 2           run twice, then compare the two results
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run under the benchmark contract: the last
#                                         line of stdout is its JSON result
#
# Every other argument goes to the drink-benchmark binary unchanged (see its
# usage line). Builds offline into $CARGO_TARGET_DIR, or target/benchmark/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

repeat=1
args=()
while (($#)); do
    case "$1" in
        --repeat)
            repeat="${2:?--repeat needs a count}"
            shift 2
            ;;
        *)
            args+=("$1")
            shift
            ;;
    esac
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
# Build chatter goes to stderr: stdout carries only the benchmark's report.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/drink-benchmark"

DRINK_BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
DRINK_BENCH_RUSTC="$(rustc -V)"
export DRINK_BENCH_COMMIT DRINK_BENCH_RUSTC

out="$here/out"
if ((repeat == 1)); then
    exec "$bin" --manifest "$root/BENCHMARK.json" --out "$out" "${args[@]}"
fi

results=()
for ((i = 1; i <= repeat; i++)); do
    "$bin" --manifest "$root/BENCHMARK.json" --out "$out/repeat$i" "${args[@]}"
    results+=("$out/repeat$i/result.json")
done
for ((i = 1; i < repeat; i++)); do
    python3 "$here/compare.py" --manifest "$root/BENCHMARK.json" "${results[0]}" "${results[$i]}"
done
