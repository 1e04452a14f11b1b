#!/bin/bash
# Is the same-state access still a leaf? Builds crates/bench's
# `fastpath_probes`, disassembles each probe and counts, from its entry to
# its first `ret`, the instructions, the `push`es and the `call`s; `whole`
# counts the instructions of the whole function, slow-path arms included.
#
#   scripts/fastpath_asm.sh [path/to/fastpath_probes]
#
# Fails if a leaf probe (the hybrid read, write and safepoint; the read is
# every tracked configuration's, pessimistic tracking's included) has no `ret`
# of its own (the whole operation is out of line), reaches it through a `call` or with any callee-saved register
# pushed (a frame: something that belongs in the continuation was inlined
# into the leaf), or if `probe_any_read` holds
# an indirect call anywhere (the erased engine is dispatched through a
# pointer again): a `call` of a register or through memory, or a tail-`jmp`
# through memory or to a register that a `mov` last loaded from memory.
# Through `[rip+…]` it is a direct call by way of the GOT, and a `jmp` to a
# register that an `add` computed is the enum's jump table; neither counts.
set -euo pipefail
cd "$(dirname "$0")/.."

bin="${1:-}"
if [ -z "$bin" ]; then
    cargo build --release --offline -q -p drink-bench --bin fastpath_probes
    bin="${CARGO_TARGET_DIR:-target}/release/fastpath_probes"
fi
"$bin" # the probes return what they should

status=0
printf '%-24s %6s %6s %6s %12s %6s %9s\n' probe insns whole pushes callee-saved calls indirect
for probe in probe_hybrid_read probe_hybrid_write probe_hybrid_safepoint probe_any_read; do
    read -r insns whole pushes saved calls indirect returns < <(
        objdump -d --no-show-raw-insn -M intel --disassemble="$probe" "$bin" | awk '
            /^ +[0-9a-f]+:\t/ {
                sub(/^ +[0-9a-f]+:\t/, "")
                if ($1 == "call" && $0 !~ /\[rip[+-]/ && $0 !~ /^call +[0-9a-f]+ </) indirect++
                if ($1 == "jmp" && $0 ~ /PTR \[/ && $0 !~ /\[rip[+-]/) indirect++
                if ($1 == "jmp" && loaded[$2]) indirect++
                split($2, dst, ","); loaded[dst[1]] = ($1 == "mov" && $0 ~ /,[A-Z]+ PTR \[/)
                whole++
                if (done) next
                insns++
                if ($1 == "push") { pushes++; if ($2 ~ /^(rbx|rbp|r1[2-5])$/) saved++ }
                if ($1 == "call") calls++
                if ($1 == "ret") done = 1
            }
            END { print insns + 0, whole + 0, pushes + 0, saved + 0, calls + 0, indirect + 0, done + 0 }'
    )
    printf '%-24s %6d %6d %6d %12d %6d %9d\n' "$probe" "$insns" "$whole" "$pushes" "$saved" "$calls" "$indirect"
    if [ "$insns" -eq 0 ]; then
        echo "FAIL: $probe not found in $bin" >&2
        status=1
    elif [ "$probe" = probe_any_read ]; then
        if [ "$indirect" -gt 0 ]; then
            echo "FAIL: $probe makes an indirect call" >&2
            status=1
        fi
    elif [ "$calls" -gt 0 ] || [ "$saved" -gt 0 ] || [ "$returns" -eq 0 ]; then
        echo "FAIL: $probe is not a leaf up to its first ret" >&2
        status=1
    fi
done
exit $status
