#!/bin/bash
# Flake hunt: run the given tier-1 tests N times, stop at the first failure.
#
#   scripts/flake_hunt.sh [N] [--features SPEC] [cargo-test-filter...]
#
# N defaults to 50. `--features SPEC` goes to every `cargo test` as given
# (`drink-core/check-invariants` hunts in the invariant-checking build).
# Each filter is passed to `cargo test` as a test-name substring; with
# several filters (or none) every workspace test binary runs the tests
# matching any of them (or all of its tests). A filter that also
# names a test file (`<package>/tests/<filter>.rs`) runs that whole file
# besides. Names are matched by the test binaries, so a filter that matches
# nothing runs nothing — the script refuses a round that ran zero tests.
#
#   scripts/flake_hunt.sh 50 racy_objects policy replay_elision
#
# The first failing round's full output is kept under target/flake-hunt/
# and the script exits non-zero; a clean hunt leaves nothing behind.
#
# Rounds run under DRINK_SPIN_BUDGET_MS=20000 unless the caller sets it: a
# wedged wait then panics in 20 s, failing its round with the output kept,
# instead of stalling the hunt for the 60 s default (or for good, where a
# schedule hook waits on a thread that already failed).
set -uo pipefail
cd "$(dirname "$0")/.."
export DRINK_SPIN_BUDGET_MS="${DRINK_SPIN_BUDGET_MS:-20000}"

rounds=50
if [[ "${1:-}" =~ ^[0-9]+$ ]]; then
  rounds="$1"
  shift
fi
features=()
if [[ "${1:-}" == --features ]]; then
  features=(--features "${2:?--features needs a spec}")
  shift 2
fi
filters=("$@")
files=()
for f in "${filters[@]}"; do
  if compgen -G "crates/*/tests/$f.rs" >/dev/null || [[ -f "tests/tests/$f.rs" ]]; then
    files+=(--test "$f")
  fi
done

out_dir=target/flake-hunt
mkdir -p "$out_dir"
log="$out_dir/round.log"

# Build once, outside the loop, so a compile error is not reported as a flake.
cargo test -q --offline "${features[@]}" --no-run || exit 2

round() {
  local status=0
  cargo test -q --offline "${features[@]}" --no-fail-fast -- "${filters[@]}" || status=1
  if ((${#files[@]})); then
    cargo test -q --offline "${features[@]}" --no-fail-fast "${files[@]}" || status=1
  fi
  return $status
}

for ((i = 1; i <= rounds; i++)); do
  if ! round >"$log" 2>&1; then
    kept="$out_dir/failure-round$i.log"
    mv "$log" "$kept"
    echo "flake_hunt: FAIL in round $i of $rounds — output kept in $kept" >&2
    grep -E -- '--- FAILED|panicked at' "$kept" | sort | uniq -c >&2
    exit 1
  fi
  ran=$(grep -E '^test result: ok\. ' "$log" | awk '{s += $4} END {print s + 0}')
  if ((ran == 0)); then
    echo "flake_hunt: filters (${filters[*]}) matched no test" >&2
    exit 2
  fi
  echo "flake_hunt: round $i/$rounds ok ($ran tests)"
done
rm -f "$log"
echo "flake_hunt: OK — $rounds/$rounds rounds green"
