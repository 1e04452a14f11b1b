#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from the files `drink-bench all --out results` wrote.

    cargo build --release -p drink-bench
    ./target/release/drink-bench all --out results
    scripts/gen_experiments.py

Run from the repository root. The prose below reads the committed run; after
a new run, check that each section's numbers still describe its table.
"""
import datetime


def lines(name):
    with open(f'results/{name}.txt') as f:
        return f.read().rstrip().split('\n')


def load(name):
    """A result file without its four-line banner."""
    return '\n'.join(lines(name)[4:])


# The banner's third line: the host the runner saw, and the scale.
host = lines('cost_table')[2].removeprefix('host: ')


def fig7_rows():
    """E4's table: row name → {column name → (wall %, model %)}."""
    rows = [l.split() for l in lines('fig7_tracking_overhead')]
    header = next(r for r in rows if r[:1] == ['program'])[1:]
    cells = lambda r: {c: tuple(int(x) for x in v.split('/')) for c, v in zip(header, r[1:])}
    return {r[0]: cells(r) for r in rows if len(r) == len(header) + 1 and '/' in r[1]}


# Figure 7's pessimistic-against-hybrid comparison, as the committed run has it.
fig7 = fig7_rows()
sync_rows = {}
for l in lines('fig8_microbench'):
    if l.startswith('--- racyInc'):
        break
    r = l.rsplit(None, 5)
    if len(r) == 6 and r[0].strip() in ('Optimistic tracking', 'Hybrid tracking'):
        sync_rows[r[0].strip()] = (float(r[1]), float(r[2]))
ratio = lambda i: round(sync_rows['Optimistic tracking'][i] / max(sync_rows['Hybrid tracking'][i], 1))
sync_wall, sync_model = ratio(0), ratio(1)
e5_ratio = next(l for l in lines('fig8_microbench') if 'shipped hybrid =' in l).split('= ')[1].split(' ')[0]
# racyInc's rows: label → (wall %, model %, coord/1k acc, rounds/cont, own-chg %).
racy_rows = {}
for l in lines('fig8_microbench')[next(i for i, l in enumerate(lines('fig8_microbench')) if l.startswith('--- racyInc')):]:
    r = l.rsplit(None, 5)
    if len(r) == 6 and not l.startswith(('---', 'config')):
        racy_rows[r[0].strip()] = r[1:]
e5_rounds = racy_rows['Hybrid tracking'][3]
# E10: program → (deferred cell, eager cell).
e10 = {r[0]: (r[1], r[2]) for r in (l.split() for l in lines('e10_deferred_unlock_ablation'))
       if len(r) == 6 and '/' in r[1]}
(pess_wall, pess_model), (hyb_wall, hyb_model) = fig7['geomean']['Pess'], fig7['geomean']['Hybrid']
pess_faster = [p for p, r in fig7.items() if p != 'geomean' and r['Pess'][0] < r['Hybrid'][0]]
adapt_check = next(l for l in lines('fig7_tracking_overhead') if l.startswith('check:'))
adapt_detail = adapt_check.split(': ', 2)[2].removesuffix(': VIOLATED')
headline = [fig7[p] for p in ('xalan6', 'xalan9', 'pjbb2005')]
opt_range = f"{min(r['Opt'][0] for r in headline)}–{max(r['Opt'][0] for r in headline)}"
hyb_range = f"{min(r['Hybrid'][0] for r in headline)}–{max(r['Hybrid'][0] for r in headline)}"
cuts = [round(r['Opt'][0] / max(r['Hybrid'][0], 1)) for r in headline]
cut_range = f"{min(cuts)}–{max(cuts)}"
wall = lambda cell: int(cell.split('/')[0])
# E2: program → its `implicit %` cell, the column before `paper char`.
# E2's rows; `implicit`: program → its `implicit %` cell, the column before
# `paper char`; `calibration`: the `ratio` range over measurable programs.
fig6 = [r for r in (l.split() for l in lines('fig6_conflict_cdf'))
        if r and r[-1] in ('low-conf', 'mid-conf', 'high-conf', 'racy')]
implicit = {r[0]: r[-2] for r in fig6}
ratios = [float(r[-3].removesuffix('x')) for r in fig6 if r[1] != '-']
calibration = f"{min(ratios)}×–{max(ratios)}×"
eager_faster = [p for p, (d, e) in e10.items() if wall(e) < wall(d)]


def beats(hyb, pess):
    return 'beats it' if hyb < pess else 'does not beat it'


def below(a, b):
    return 'below' if a < b else 'above'


def listed(names):
    return ', '.join(names[:-1]) + ' and ' + names[-1] if len(names) > 1 else ''.join(names) or 'none'

doc = f"""# EXPERIMENTS — paper vs. measured

Full regeneration of every table and figure in the paper's evaluation (§7),
produced by `drink-bench all --out results` (see DESIGN.md's experiment index
E1–E10) and rendered here by `scripts/gen_experiments.py`. Raw outputs live
in `results/`.

**Host**, as the runner prints it: `{host}` — a shared 2-vCPU guest, Rust
1.95 release build. The paper used a 32-core Xeon E5-4620 under Jikes RVM.
Two consequences run through everything below:

1. **Wall-clock numbers are shapes, not magnitudes.** Every table also
   reports a *model* overhead: measured transition counts priced at the
   paper's own §2.2 cycle costs against a 200-cycle/access work budget. The
   model number is platform-independent and is the primary basis for shape
   comparison.
2. **Two cores are not 32.** The profiles and stress tests run 8 threads,
   so every one of them is oversubscribed 4:1 and its wall time includes
   scheduler rotation; and pessimistic tracking's remote-cache-miss cost
   has only two cores to ping-pong between, so its wall overhead stays far
   below the paper's 340%.

**Support.** Each table's `(support …)` lines name the runtime support each
configuration ran on. `NullSupport` is the engine as shipped, including the
validated reads (DESIGN.md §12) and the release of every lock inside the
access that took it (§13), which the paper's engine does not have;
`PaperModel` is the paper's Table 3 with every lock deferred (E3's hybrid
row, E5's racyInc `Hybrid tracking` row, E10's deferred row and all of E9);
`EagerModel` is the same rows with every lock released inside its access
(E1's pessimistic row, E10's eager row); `Recorder`,
`ReplayEngine` and `RsEnforcer` are the §4/§5 runtime-support clients;
`none` is the untracked baseline. Where a table takes a median, its caption
says over how many trials; trials run interleaved, configuration by
configuration. Single-trial wall cells on this guest are noisy (tens of
percentage points on the 20–50 ms profile runs).

---

## E1 — §2.2 per-transition cost table

```
{load('cost_table')}
```

**Paper**: 150 / 47 / 9 200 / 360 cycles (pessimistic / same-state /
explicit / implicit). **Agreement**: the ordering and the magnitude gaps
reproduce — same-state is a few ns and the cheapest by far; pessimistic is an
atomic-op multiple of it; implicit coordination costs a small constant more
than pessimistic; explicit coordination is *orders of magnitude* above
everything (here far more than the paper's ~196×, because a roundtrip waits
out the polling peer's yields, a scheduler trip, rather than a cache-line
trip). This gap is the entire premise of the adaptive policy. The pessimistic
row is pessimistic tracking (`HybridConfig::pessimistic()`: `Cutoff_confl =
0`) on `EagerModel`, so every access pays §2.1's CAS-lock/unlock pair inside
itself — the runner asserts that its `PessUncontended` count
equals its access count; under `NullSupport` pessimistic tracking's reads of
objects its thread owns validate instead (DESIGN.md §12) and cost what a
hybrid one does.

## E2 — Figure 6, per-object conflict CDF (optimistic tracking), and the profiles' calibration

```
{load('fig6_conflict_cdf')}
```

**Agreement**: the paper's two key readings hold. (1) For every program, the
value at x = 4 is a tiny share of all accesses — so moving an object to
pessimistic states after its 4th conflict wastes almost nothing. (2) For
high-conflict programs (xalan6/9, pjbb2005, hsqldb6, avrora9) most conflicts
sit far to the right (the x = 4 value is a small fraction of the maximum), so
per-object profiling "catches" most conflicting accesses in advance — the
§7.3 limit-study conclusion. Programs with conflict rate < 0.0001% are
excluded, as in the paper.

**Calibration** (the right-hand columns; `paper rate` is in % like
`max(rate)`): every profile with a measurable conflict rate lands within an
order of magnitude of the paper program it models ({calibration}), the
{{low, mid, high, racy}} clustering is preserved, and xalan6/9 resolve few of
their conflicts implicitly ({implicit['xalan6']}% and {implicit['xalan9']}%) while hsqldb6
resolves the most of the high-conflict programs ({implicit['hsqldb6']}%). This is what
licenses the per-program comparisons below. The table's `check:` line states
this reading of §7.5 as a count, and `scripts/check_gate.sh` gates it at
`--scale 0.1`: a monitor spin phase that parks its waiters sooner on two
cores turns xalan's conflicts implicit and fails it (ROADMAP item 3).

## E3 — Table 2, state transitions (hybrid vs. optimistic alone)

```
{load('table2_transitions')}
```

**Agreement** (counts are ~10³–10⁴× smaller than the paper's since the
workloads are scaled; compare *ratios*):

* the adaptive policy's primary goal — cutting conflicting transitions —
  lands at the top of the paper's 43–98% band for the high-conflict
  programs (−94% avrora9 and hsqldb6, −95% xalan6/9), and pjbb2005 just
  above it (−99%);
* low-conflict programs (jython9, luindex9, lusearch6/9) are untouched, with
  zero pessimistic transitions — the policy never bothers them;
* only a small fraction of same-state transitions become pessimistic, and a
  share of pessimistic transitions is reentrant (atomic-op-free);
* contended transitions occur only in the racy programs (avrora9,
  pjbb2005), exactly the paper's object-level-data-race attribution.

The hybrid row runs on `PaperModel`, whose locks are deferred as the
paper's are: the shipped engine releases every lock inside its access, so
there it would read 0% reentrant and no contention.

Divergences: our %reentrant is generally below the paper's (our scaled
workloads revisit locked objects fewer times per flush window), and
avrora9's contended count is proportionally smaller (our racy accesses are
calibrated to its *conflict* rate, not its contention rate).

## E4 — Figure 7, tracking-alone overhead, and the adaptive engine's acceptance

```
{load('fig7_tracking_overhead')}
```

**Agreement** (cells are wall% / model%):

* **hybrid lands near the paper's number**: its model geomean is
  {hyb_model}% against the paper's 22%, its wall geomean {hyb_wall}% on this
  oversubscribed guest;
* **the headline reductions reproduce**: xalan6, xalan9 and pjbb2005 each
  drop from {opt_range}% under optimistic tracking to {hyb_range}% under hybrid
  (paper: 65→24, 19→5, 110→49 — same direction, larger magnitudes because our
  explicit roundtrips are relatively costlier, see E1);
* **low-conflict programs are unharmed**: hybrid is within noise of
  optimistic on jython9, luindex9, lusearch6/9 and sunflow9;
* **Ideal bounds hybrid from below** (paper 14 vs. 22);
* the paper's `Hyb(∞)` column is `Opt` here by construction, and its +2.3%
  over `Opt` is the cost of a separate hybrid machinery that this one
  engine does not have.

Divergences: pessimistic tracking's wall geomean sits far below the paper's
340% (two cores; see the host note), and here it is not the slowest column.
The `Pess` column is pessimistic tracking as configured
(`HybridConfig::pessimistic()`: the hybrid engine at `Cutoff_confl = 0`,
every lock released at the end of its access), whose reads of objects their
thread owns validate instead of locking (DESIGN.md §12), so it pays its CAS
pair only on writes and foreign reads: its wall geomean ({pess_wall}%) is
{below(pess_wall, hyb_wall)} hybrid's ({hyb_wall}%), and it is the faster of the
two on {listed(pess_faster)}, where hybrid still pays Octet's warm-up
roundtrips and its per-transition bookkeeping. Its model column (≈ flat
28–30%; jython9 37%, sunflow9 14%) shows what its locked accesses would cost
at the paper's prices; the *insensitivity* of pessimistic tracking to
conflict rates — the property the paper emphasizes — is visible either way.
`drink-bench E1`'s pessimistic row runs on `EagerModel` and prices §2.1's
every-access lock.
hsqldb6 is *not* the exception here that the paper
reports (§7.5: hybrid barely helps it, since its conflicts resolve
implicitly): only {implicit['hsqldb6']}% of its conflicts are implicit in this profile, and
hybrid cuts its overhead about tenfold, like xalan's. sunflow9 runs hot for
every engine (read-share-heavy profile; the paper also flags sunflow9 as its
high-variance outlier).

**Adaptive acceptance** (DESIGN.md §13): the `Adapt` column runs the paper's
policy with a valve that re-opens. Its check — the fastest of 15 trials
within 5% + 2 ms of the faster of `Pess` and `Opt` on every profile —
**no longer holds**: {adapt_detail}. It held on 13 of 13 while every
pessimistic read locked; since `Pess` validates its owner's reads it is the
faster extreme on the high-conflict profiles, and Adapt trails it there. The check is left as it was; closing the gap is
ROADMAP item 4. Adapt's geomean still sits with hybrid's.

## E5 — Figure 8, syncInc / racyInc stress tests

```
{load('fig8_microbench')}
```

**Agreement**: `syncInc` is the paper's showcase and reproduces sharply —
optimistic tracking collapses (≈{sync_rows['Optimistic tracking'][0]:.0f}% wall; the paper says ≈1 200%) because
every increment is a conflicting transition with roundtrip coordination,
while hybrid moves the counter to pessimistic states and transfers ownership
by CAS: single-digit wall %, model ≈ the paper's 84%. Pessimistic tracking's
wall number is a few-core artifact (see the host note); its model value
matches the paper's story that it behaves like hybrid here.

`racyInc` is hybrid's worst case, and the paper's shape is there: on
`PaperModel` — every lock deferred, as Table 3 has it — hybrid is the slowest
row by a wide margin ({racy_rows['Hybrid tracking'][0]}% wall against optimistic's
{racy_rows['Optimistic tracking'][0]}%; the paper: 4 300% against 1 200%), because a contended
transition re-coordinates {e5_rounds} times on average before it gets the state ("most of these accesses trigger
coordination more than once", §7.5).

**Deviation (✎)**: the last row is the engine as shipped. §7.5 sketches
sending such an object back to optimistic states; that is the protocol where
each of its accesses is a roundtrip. Instead, tracking alone never defers a
lock: its support, `NullSupport`, releases each one right after the program
access that took it (DESIGN.md §13) — the paper's own pre-insight design,
which gives up only reentrancy, of which a racing counter has none. So a
racing increment waits for the holder's release instead of contending, and
the worst case becomes roughly pessimistic tracking — {e5_ratio} its wall
clock here (the check: within 2×), at {racy_rows['Hybrid, shipped (eager)'][2]}
roundtrips per 1 000 accesses instead of {racy_rows['Hybrid tracking'][2]}.

## E6 — Figure 9(a), dependence recorders and replayers

```
{load('fig9a_record_replay')}
```

**Agreement**: the hybrid recorder beats the optimistic recorder overall
(paper: 41 vs. 46 geomean) with the gains concentrated exactly where the
paper finds them — xalan6, xalan9, pjbb2005 and hsqldb6 all drop severalfold.
Our gap is larger than the paper's because our explicit roundtrips are
relatively costlier (E1). The hybrid replayer is *faster* than the
optimistic one here (paper: 24 vs. 20); both of our replayers use the same
clock machinery. Every replay
reproduced its recorded heap bit for bit (the check: 234 of 234, 9 trials
of each of 26 recordings), so the table
doubles as a full-scale soundness check. (The paper's replayer fails on 2 of
13 programs; ours replays all 13.)

## E7 — Figure 9(b), region serializability enforcers

```
{load('fig9b_rs_enforcer')}
```

**Agreement**: hybrid ≤ optimistic overall, with the big wins again on
xalan6, xalan9 and pjbb2005 (each cut about five- to sixfold) and hsqldb6 — the
paper's ordering (39 vs. 34, biggest wins on the same programs). Restarts
concentrate in the racy and high-conflict programs, mirroring the paper's
contended-transition analysis. Absolute overheads are several × the paper's:
our regions are driven through a closure-based API with per-region
undo/access bookkeeping, where the paper's enforcer compiles specialized code
into each region; the low-conflict rows, medians of 9 trials, still differ
by tens of points in both directions.

## E8 — §7.3 adaptive-policy sensitivity

```
{load('e8_policy_sweep')}
```

**Agreement**: precisely the paper's conclusions. Cutoff_confl = 1–4 already
eliminates ~94–99% of conflicting transitions; larger cutoffs give
progressively less until ∞ (= optimistic behaviour); K_confl across 20–1 600
and Inertia across 20–1 600 barely move anything ("performance is not very
sensitive to the other parameters").

## E9 — §7.1 extraneous-contention ablation

```
{load('e9_wrex_rlock_ablation')}
```

The paper's prototype omits `WrExRLock` (self-reads write-lock) and
validates the omission with an unsound diagnostic that downgrades instead;
it found no significant spurious contention. **Here the omission is harmless
too, but not for the reason the shape note expects**: the full model shows
*more* contended transitions and coordination than either the prototype
encoding or the unsound downgrade, as every committed run so far has had it
(an earlier one read 92 against 37 and 37). Why the full
model contends more on this workload is not established. The wall column
is one trial per mode and moves by whole multiples between runs; read the
counts.

## E10 — §3.1 deferred-unlocking ablation (beyond the paper's artifacts)

```
{load('e10_deferred_unlock_ablation')}
```

The paper's *initial design* unlocked pessimistic states eagerly after every
access and "added significant overhead"; deferred unlocking is the §3.1
insight that replaced it. What eager unlocking gives up here is reentrancy:
every access the deferred row served reentrantly (`reentrant(d)`) becomes a
locking one (`locked(e)`), its release inside it. What deferral pays instead
is one flush unlock per lock (`unlocks(d)`), which the model prices at 70
cycles on top of the 150 it already charges each locking access, "CAS lock +
unlock". Both rows run Table 3's rows on a support with no hooks
(`PaperModel` and `EagerModel`); only the lock discipline differs. So the
model favours deferral only where a lock is reused before its flush: not on
`syncInc`, where every critical section takes the counter from another
thread and nothing is reentrant — there the eager row models *cheaper*
({e10['syncInc'][1].split('/')[1]}% against
{e10['syncInc'][0].split('/')[1]}%), and it pays the same atomics, a CAS per
access plus a release store per write — and not on the profile workloads,
where pessimistic traffic is a small share of accesses and the model gap is
within a point. The wall column has the eager row faster on
{listed(eager_faster)}; these are 20–50 ms, 8-thread runs on two cores, a
lead and not a result. The eager design additionally
forfeits the hybrid *recorder* and the RS enforcer entirely (release-clock
edges require flush points pinned to PSROs; two-phase locking holds locks to
region ends), which is why both supports defer by type
(`Locking::Deferred`). Tracking alone needs neither, so the shipped engine
(`NullSupport`) runs the eager design on every object, pessimistic tracking
included, and adds validated reads to it (DESIGN.md §12, §13).

---

## Summary of claims checked

| Paper claim | Status |
|---|---|
| Hybrid consistently outperforms pessimistic tracking | ➖ hybrid {beats(hyb_model, pess_model)} on the model geomean ({hyb_model}% against {pess_model}%) and {beats(hyb_wall, pess_wall)} on the wall one ({hyb_wall}% against {pess_wall}%), but pessimistic tracking's wall is lower on {listed(pess_faster)}: it validates its owner's reads (DESIGN.md §12), and its wall cost is understated on two cores |
| Hybrid ≫ optimistic for high-conflict programs (xalan6/9, pjbb2005) | ✅ {cut_range}× overhead reductions |
| Hybrid ≈ optimistic for low-conflict programs | ✅ within noise |
| Adaptive policy cuts conflicting transitions 43–98% on high-conflict programs | ✅ 94–99% here |
| Per-object profiling catches most conflicts (Fig 6 limit study) | ✅ |
| Policy insensitive to K_confl/Inertia; small Cutoff suffices | ✅ |
| syncInc: hybrid ~15× cheaper than optimistic | ✅ (~{sync_model}× in model overhead, ~{sync_wall}× in wall overhead here) |
| racyInc: hybrid gains nothing (worst case) | ✅ on the paper's model (`PaperModel`: slowest row, {e5_rounds} rounds per contended transition); ✎ the shipped engine releases every lock inside its access, so nothing contends, and lands at {e5_ratio} pessimistic |
| hsqldb6 barely helped (implicit coordination) | ❌ not here: our hsqldb6 resolves only {implicit['hsqldb6']}% of its conflicts implicitly, and hybrid cuts its overhead tenfold |
| Hybrid recorder cheaper than optimistic recorder; same dependences | ✅ + bit-identical replays on all 13 programs |
| Hybrid replayer slightly slower than optimistic replayer | ➖ not reproduced (shared clock machinery; the hybrid replayer is faster) |
| Hybrid RS enforcer cheaper than optimistic RS enforcer, same win pattern | ✅ |
| WrExRLock omission harmless (§7.1) | ✅ harmless, though the full model is the more contended encoding here |
| Deferred unlocking beats the initial eager design (§3.1) | ➖ for the runtime supports, which need it (both defer by type); for tracking alone only where locks are reused before a flush (reentrancy): on syncInc, with none, the eager row models cheaper, and on the profiles pessimistic traffic is too sparse to tell — so the shipped engine unlocks eagerly |
| Pessimistic wall cost ≈ 340% | ❌ not reproducible on two cores (model: flat, conflict-insensitive — the qualitative property — is reproduced) |

*Generated {datetime.date.today().isoformat()} from the committed `results/` run.*
"""
open('EXPERIMENTS.md', 'w').write(doc)
print("EXPERIMENTS.md written:", len(doc), "bytes")
