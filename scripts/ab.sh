#!/bin/bash
# A/B the benchmark: a parent revision against this working tree (or
# against a second revision), in alternating pairs.
#
#   scripts/ab.sh [--pairs N] [--change REV] [--work DIR] <parent-rev>
#
# Protocol (ROADMAP item 11):
#   * the parent is exported with `git archive` into two directories, p1 and
#     p2; the change side — the working tree's tracked and untracked,
#     not-ignored files, or `--change REV` exported the same way — into c1
#     and c2. Each directory builds the benchmark into its own
#     target/benchmark, so each side is measured in two builds whose code
#     layout differs only by where they were built;
#   * pair i runs every BENCHMARK.json workload once on each side, for its
#     `run_seconds`, in directory 1 + (i - 1) % 2, parent first in odd pairs and change
#     first in even ones, with seed 100 + i for both sides: sides and
#     directories alternate, and no run overlaps another;
#   * every run's stdout is kept under --work (default target/ab/<parent>),
#     its last line being the run's JSON result;
#   * the report prints, per workload and end-to-end metric, both medians,
#     the change, every run in pair order, the per-directory medians, in how
#     many pairs the change was better and the parent's interquartile range
#     (a claimed gain needs nearly every pair and a median move beyond that
#     range), and a verdict under BENCHMARK.json's bound for the metric:
#       ok                   the change is no worse than the parent by more
#                            than the bound
#       worse                it is worse by more than the bound
#       directory-sensitive  the two directories of one side disagree by more
#                            than the bound, so the medians say as much about
#                            layout as about the change
#     with ", denominator" appended on a `capacity_rel.<engine>` row whose
#     median fell while that engine's own absolute `capacity_rps` rose in at
#     least half the pairs: the `baseline` denominator, not the engine, moved
#     (ROADMAP item 19, step 3). The flag changes no verdict or exit code.
#     Then the failed and attempted requests of each side;
#   * under each workload's table, one row per engine gives both sides'
#     median absolute `capacity_rps` (the `# absolute:` lines of each run),
#     the pairs in which the change was higher and the parent's
#     interquartile range, so a `capacity_rel` move can be told from a move
#     of its `baseline` denominator.
#
# Default: 5 pairs. An A/A run — the parent against itself — is
# `scripts/ab.sh --change REV REV`. RUSTFLAGS set by the caller reaches every
# build and run. Exits 1 if any verdict is `worse`, 2 on a usage error;
# benchmark/ is run as it stands in each export and nothing under it is
# changed.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"

pairs=5 change="" work=""
read -r seconds workloads < <(python3 -c 'import json; m = json.load(open("BENCHMARK.json"))
print(m["run_seconds"], " ".join(w["name"] for w in m["workloads"]))')
while (($#)); do
    case "$1" in
        --pairs) pairs="${2:?}"; shift 2 ;;
        --change) change="${2:?}"; shift 2 ;;
        --work) work="${2:?}"; shift 2 ;;
        -*) echo "ab.sh: unknown option $1" >&2; exit 2 ;;
        *) break ;;
    esac
done
if (($# != 1)); then
    sed -n '5p' "$0" >&2
    exit 2
fi
parent="$(git rev-parse --short "$1^{commit}")"
work="${work:-target/ab/$parent}"
mkdir -p "$work"
work="$(cd "$work" && pwd)"

# export SIDE REV|'': a fresh copy of REV (or of the working tree) in $work/SIDE.
export_tree() {
    local dir="$work/$1"
    rm -rf "$dir"
    mkdir -p "$dir"
    if [ -n "$2" ]; then
        git archive "$2" | tar -x -C "$dir"
    else
        # A tracked file deleted but not staged is still listed: skip it,
        # so the tree is exported as it stands.
        git ls-files -z --cached --others --exclude-standard |
            while IFS= read -r -d '' f; do
                if [ -e "$f" ] || [ -L "$f" ]; then printf '%s\0' "$f"; fi
            done |
            tar --null -T - -cf - | tar -xf - -C "$dir"
    fi
}

for d in 1 2; do
    export_tree "p$d" "$parent"
    export_tree "c$d" "$change"
done
for dir in p1 p2 c1 c2; do
    echo "=== ab.sh: build $dir" >&2
    (cd "$work/$dir" && CARGO_TARGET_DIR=target/benchmark cargo build --release --offline -q \
        --manifest-path benchmark/Cargo.toml >&2)
done

runs="$work/runs"
rm -rf "$runs"
mkdir -p "$runs"
for ((i = 1; i <= pairs; i++)); do
    d=$((1 + (i - 1) % 2))
    s=$((100 + i))
    order="p c"
    ((i % 2)) || order="c p"
    for w in $workloads; do
        for side in $order; do
            echo "=== ab.sh: pair $i, $side$d, $w, seed $s" >&2
            (cd "$work/$side$d" && env -u CARGO_TARGET_DIR bash benchmark/run.sh \
                --workload "$w" --seed "$s" --seconds "$seconds" --trace 0) \
                >"$runs/$i.$side$d.$w.log"
        done
    done
done

python3 - "$root/BENCHMARK.json" "$runs" "$parent" "${change:-working tree}" <<'EOF'
import glob, json, os, statistics, sys

manifest, runs, parent, change = sys.argv[1:]
declared = {m["name"]: m for m in json.load(open(manifest))["end_to_end"]}
results = {}  # (workload, side) -> [(pair, dir, result)]
for path in glob.glob(os.path.join(runs, "*.log")):
    pair, sd, workload = os.path.basename(path)[:-4].split(".", 2)
    lines = [l for l in open(path) if l.strip()]
    result = json.loads(lines[-1])
    result["absolute"] = {
        l.split()[2].split(".", 1)[1]: float(l.split()[3])
        for l in lines if l.startswith("# absolute: capacity_rps.")
    }
    results.setdefault((workload, sd[0]), []).append((int(pair), sd, result))
for v in results.values():
    v.sort(key=lambda r: r[0])

def pair_wins(p, c, value, sign):
    """In how many pairs the change's `value` beat the parent's: lower for
    sign 1, higher for sign -1."""
    cs = {r[0]: value(r) for r in c}
    return sum(1 for r in p if r[0] in cs and sign * (cs[r[0]] - value(r)) < 0), len(cs)

def iqr(vals):
    if len(vals) < 2:
        return 0.0
    q = statistics.quantiles(vals, n=4)
    return q[2] - q[0]

worse = 0
print(f"parent {parent} -> {change}")
for workload in sorted({w for w, _ in results}):
    p, c = results[(workload, "p")], results[(workload, "c")]
    print(f"\n### {workload} ({len(p)} pairs)\n")
    print("| metric | parent → change (change %) | runs, pair order (parent vs change) | directory medians p1/p2 vs c1/c2 | change better in pairs, parent IQR | verdict |")
    print("|---|---|---|---|---|---|")
    engines = ("baseline", "pess", "hybrid", "adapt")
    abs_wins = {e: pair_wins(p, c, lambda r: r[2]["absolute"][e], -1.0) for e in engines}
    for name, decl in declared.items():
        vals = {s: [r[2]["metrics"][name]["value"] for r in rs] for s, rs in (("p", p), ("c", c))}
        med = {s: statistics.median(v) for s, v in vals.items()}
        by_dir = {
            sd: statistics.median([r[2]["metrics"][name]["value"] for r in rs if r[1] == sd])
            for rs in (p, c) for sd in {r[1] for r in rs}
        }
        bound, sign = decl["bound"], (1.0 if decl["better"] == "lower" else -1.0)
        worse_by = sign * (med["c"] - med["p"]) / med["p"] if med["p"] else float("inf")
        def split(side):
            ds = sorted(d for d in by_dir if d[0] == side)
            return len(ds) == 2 and abs(by_dir[ds[0]] - by_dir[ds[1]]) > bound * min(by_dir[ds[0]], by_dir[ds[1]])
        if worse_by > bound:
            verdict = "worse"
            worse += 1
        elif split("p") or split("c"):
            verdict = "directory-sensitive"
        else:
            verdict = "ok"
        engine = name.removeprefix("capacity_rel.")
        if engine in abs_wins and med["c"] < med["p"] and 2 * abs_wins[engine][0] >= abs_wins[engine][1]:
            verdict += ", denominator"
        change_pct = (med["c"] - med["p"]) / med["p"] * 100 if med["p"] else float("inf")
        runs_cell = "/".join(f"{v:.2f}" for v in vals["p"]) + " vs " + "/".join(f"{v:.2f}" for v in vals["c"])
        dirs = " vs ".join("/".join(f"{by_dir[d]:.3f}" for d in sorted(by_dir) if d[0] == s) for s in "pc")
        wins, n = pair_wins(p, c, lambda r: r[2]["metrics"][name]["value"], sign)
        print(f"| `{name}` | {med['p']:.3f} → {med['c']:.3f} ({change_pct:+.1f} %) | {runs_cell} | {dirs} | {wins}/{n}, {iqr(vals['p']):.3f} | {verdict} |")
    failed = {s: sum(r[2]["failed"] for r in rs) for s, rs in (("p", p), ("c", c))}
    attempted = {s: sum(r[2]["attempted"] for r in rs) for s, rs in (("p", p), ("c", c))}
    correct = all(r[2]["correct"] for r in p + c)
    print(f"| failed / attempted requests | {failed['p']}/{attempted['p']} → {failed['c']}/{attempted['c']} | | | | {'ok' if correct else 'INCORRECT'} |")
    print("\n| engine | median `capacity_rps`, parent → change (change %) | change higher in pairs | parent IQR |")
    print("|---|---|---|---|")
    for engine in engines:
        vals = {s: [r[2]["absolute"][engine] for r in rs] for s, rs in (("p", p), ("c", c))}
        med = {s: statistics.median(v) for s, v in vals.items()}
        wins, n = abs_wins[engine]
        print(f"| {engine} | {med['p'] / 1e6:.3f} → {med['c'] / 1e6:.3f} M/s ({(med['c'] - med['p']) / med['p'] * 100:+.1f} %) | {wins}/{n} | {iqr(vals['p']) / 1e6:.3f} M/s |")
sys.exit(1 if worse else 0)
EOF
