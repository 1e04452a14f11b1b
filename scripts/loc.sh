#!/bin/bash
# Non-test Rust lines per crate, and their total — the row ROADMAP tracks
# "like a bench row".
#
#   scripts/loc.sh [file.rs...]
#
# A file counts up to (not including) its first `#[cfg(test)]` line, blank
# and comment lines included; files under a `tests/` or `benches/` directory
# count nothing. With file arguments, prints each file's count instead.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

if [ "$#" -gt 0 ]; then
    for f in "$@"; do
        printf '%6d  %s\n' "$(count "$f")" "$f"
    done
    exit 0
fi

total=0
for crate in crates/*/; do
    n=0
    while IFS= read -r f; do
        n=$((n + $(count "$f")))
    done < <(find "$crate" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' | sort)
    printf '%6d  %s\n' "$n" "${crate%/}"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
