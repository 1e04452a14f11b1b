//! Table 3 as an abstract model, exhausted: no OS threads, no engine.
//!
//! State is the object's word, the global RdSh counter and, per thread, what
//! the lock bookkeeping would hold. A thread's step looks its access up in
//! the table it is handed ([`transition`], or one with a row altered) and
//! applies the row's `next` and `lock`. `Conflict` and `Contended` first make
//! the holders the word names flush — what a responding safe point does; a
//! flush that leaves the word unlocked goes both ways at the valve, as a
//! conflict does at the policy. A second configuration splits every claimed
//! install into park-at-`Int` and publish, which makes the `Wait` row and
//! the unlock's `Int` spin reachable.
//!
//! Where reads install unlocked (marked rows ②) the discipline is the one
//! `NullSupport` has, [`Locking::Relaxed`](drink_core::support::Locking):
//! every lock a step takes goes back inside that step, right after its
//! access — a write lock's release on a settled object publishes the version
//! word of marked row ③ ([`version_after`]), any other release that leaves
//! the word unlocked goes both ways at the valve, as a flush does — and no
//! lock outlives its access: between steps nobody holds one, and no access
//! ever meets a lock.
//!
//! Every interleaving of every script is enumerated at once: each thread has
//! a budget of operations and picks any of read, write, PSRO for its next
//! one, so the scripts share their common states and the whole universe is a
//! few thousand of them. After every step the invariants of [`check`] hold,
//! a payload write happens only under `WrExOpt(T)` / `WrExWLock(T)`, a
//! thread's `rdShCount` names an epoch `gRdShCount` has handed out, and
//! DESIGN.md §12's no-return property holds — a word that was
//! `validated_read_ok(t)` before a foreign payload write never stands again
//! after it while `t` could still be inside the read that loaded it — in the
//! form of the three facts it rests on, so that no history has to ride in the
//! state: a RdSh word standing after a payload write carries an epoch claimed
//! after that write, a version word one above every version that stood
//! before it, and an exclusive word that `t` could validate against is only
//! ever installed by a step of `t` itself. Where reads install unlocked, no
//! read of a pessimistic word that names another thread, or no one, installs
//! a RdEx word: pessimistic tracking never meets one.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

use drink_core::support::PrevHolders;
use drink_core::table::{
    transition, version_after, Access, Class, Departures, Ev, Install, Lock, Next, Row, SelfReadMode, Who,
};
use drink_core::word::{Kind, LockMode, StateWord};
use drink_runtime::ThreadId;

type Table = fn(StateWord, Access, Who<'_>, Departures) -> Row;
/// Marked row ③: the word a write lock's release publishes on a settled
/// object, given the word the write's claim replaced.
type Version = fn(ThreadId, StateWord) -> StateWord;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Thread {
    held: Option<LockMode>,
    in_rd_set: bool,
    rd_sh_count: u64,
    /// Operations left in this thread's script.
    left: u8,
    /// The access a contended step left unfinished; the next step retries it.
    retry: Option<Access>,
    /// Split configuration: the access whose claim parked the word at `Int`,
    /// and the word it replaced.
    parked: Option<(Access, StateWord)>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct State {
    word: StateWord,
    /// `gRdShCount`.
    epoch: u64,
    /// `gRdShCount` at the last payload write; 0 before the first.
    written: u64,
    /// The highest version that has stood on the word, and its value at the
    /// last payload write; `None` before any.
    versioned: Option<u64>,
    version_written: Option<u64>,
    /// The universe's threads; a two-thread universe leaves the last slot
    /// with no operations.
    threads: [Thread; 3],
}

/// The memo's hasher: SipHash is most of a debug-profile run, and these
/// keys are nobody's input.
#[derive(Default)]
struct Fx(u64);

impl Hasher for Fx {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

fn tid(i: usize) -> ThreadId {
    ThreadId(i as u16)
}

/// The ⇔s between the word and who holds what. A word parked at `Int` is
/// exempt from them: its holders keep their holds through the window.
fn check(s: &State, relaxed: bool) -> Result<(), String> {
    let w = s.word;
    w.validate().map_err(|e| format!("the word validates: {e}"))?;
    if s.threads.iter().any(|t| t.in_rd_set && t.held != Some(LockMode::Read)) {
        return Err("in_rd_set ⇒ held == Read".into());
    }
    if relaxed && s.threads.iter().any(|t| t.held.is_some()) {
        return Err(NO_LOCK_OUTLIVES.into());
    }
    if s.threads.iter().any(|t| t.rd_sh_count > s.epoch) {
        return Err("T.rdShCount ≤ gRdShCount: a thread synchronizes only with epochs handed out".into());
    }
    if w.is_int() {
        return Ok(());
    }
    let holding = |lock| s.threads.iter().filter(|t| t.held == Some(lock)).count();
    let (readers, writers) = (holding(LockMode::Read), holding(LockMode::Write));
    let owner_holds = |lock| s.threads.get(w.owner().index()).is_some_and(|t| t.held == Some(lock));
    match (w.kind(), w.is_pess_locked()) {
        (_, false) if readers + writers > 0 => Err("optimistic and unlocked words ⇔ nobody holds"),
        (Kind::RdSh, true) if writers > 0 || readers as u64 != w.read_locks() => {
            Err("RdShRLock(n) ⇔ exactly n threads hold Read")
        }
        (Kind::RdSh, true) if s.threads.iter().any(|t| t.held.is_some() && !t.in_rd_set) => {
            Err("RdShRLock(n) ⇔ its n holders have the object in their read set")
        }
        (Kind::WrEx | Kind::RdEx, true) if readers + writers != 1 || !owner_holds(w.lock_mode()) => {
            match w.lock_mode() {
                LockMode::Write => Err("WrExWLock(T) ⇔ exactly T holds Write, nobody anything else"),
                _ => Err("a read-locked exclusive word ⇔ its owner holds Read"),
            }
        }
        _ => Ok(()),
    }
    .map_err(String::from)
}

const NO_LOCK_OUTLIVES: &str = "Relaxed: no lock outlives its access";

struct Model {
    table: Table,
    version: Version,
    /// `install_unlocked` also says the discipline is the relaxed one.
    dep: Departures,
    /// The object is settled: pessimistic for good, so no unlock crosses the
    /// valve, no conflict resolves optimistic, and under the relaxed
    /// discipline a write's release publishes a version word.
    settled: bool,
    /// Split every claimed install into park-at-`Int` and publish.
    split: bool,
    /// Complete interleavings from each state visited.
    paths: HashMap<State, u128, BuildHasherDefault<Fx>>,
    /// Where the exploration started, and the steps — thread, what it did —
    /// that led to the state being explored.
    start: String,
    trace: Vec<(usize, &'static str)>,
    waits: u64,
    unlock_spins: u64,
}

impl Model {
    fn fail(&self, s: &State, what: &str) -> ! {
        let steps: Vec<String> = self.trace.iter().map(|(i, what)| format!("T{i}:{what}")).collect();
        panic!("violated: {what}\n  in {s:?}\n  after {} · {}", self.start, steps.join(" · "))
    }

    /// A step of thread `i` — its own, or its response at a safe point —
    /// changes the object's word to `w`.
    fn set_word(&self, s: &mut State, i: usize, w: StateWord) {
        s.word = w;
        if w.is_version() {
            if Some(w.rdsh_count()) <= s.version_written {
                self.fail(s, "no return: a version word stands again after a payload write");
            }
            s.versioned = s.versioned.max(Some(w.rdsh_count()));
        } else if w.kind() == Kind::RdSh && w.rdsh_count() <= s.written {
            self.fail(s, "no return: a RdSh word stands again after a payload write");
        }
        let for_another = (0..s.threads.len()).any(|j| j != i && w.validated_read_ok(tid(j)));
        if w.kind() != Kind::RdSh && for_another {
            self.fail(s, "no return: only T installs a word T could validate against");
        }
    }

    /// Thread `i` performs its program access.
    fn access(&self, s: &mut State, i: usize, access: Access) {
        s.threads[i].retry = None;
        if access == Access::Read {
            return;
        }
        let t = tid(i);
        if s.word != StateWord::wr_ex_opt(t) && s.word != StateWord::wr_ex_pess(t, LockMode::Write) {
            self.fail(s, "a payload write happens only under WrExOpt(T) / WrExWLock(T)");
        }
        (s.written, s.version_written) = (s.epoch, s.versioned);
    }

    /// Thread `i` flushes at a PSRO or a responding safe point; a flush that
    /// leaves the word unlocked goes both ways at the valve.
    fn flush(&self, mut s: State, i: usize) -> Vec<State> {
        if s.threads[i].held.take().is_none() {
            return vec![s];
        }
        s.threads[i].in_rd_set = false;
        if !s.word.is_pess_locked() {
            self.fail(&s, "a held object is locked");
        }
        let unlocked = s.word.unlock_one();
        let mut to_opt = s;
        self.set_word(&mut s, i, unlocked);
        // A version word never crosses the valve (③).
        if !unlocked.is_pess_unlocked() || self.settled || unlocked.is_version() {
            return vec![s];
        }
        self.set_word(&mut to_opt, i, unlocked.to_optimistic());
        vec![s, to_opt]
    }

    /// Under the relaxed discipline, thread `i` releases the lock its access
    /// just took, on a word its claim made from `replaced`: a write's on a
    /// settled object by publishing the version word, any other as a flush
    /// step.
    fn release(&self, mut s: State, i: usize, access: Access, replaced: StateWord) -> Vec<State> {
        if !self.dep.install_unlocked {
            return vec![s];
        }
        if self.settled && access == Access::Write && s.threads[i].held == Some(LockMode::Write) {
            s.threads[i].held = None;
            self.set_word(&mut s, i, (self.version)(tid(i), replaced));
            return vec![s];
        }
        self.flush(s, i)
    }

    /// Everyone `w` names but `me` responds at a safe point.
    fn holders_flush(&self, s: State, w: StateWord, me: usize) -> Vec<State> {
        let named = |j: usize| j != me && [PrevHolders::AllOthers, PrevHolders::One(tid(j))].contains(&w.holders());
        let mut states = vec![s];
        for j in (0..states[0].threads.len()).filter(|&j| named(j)) {
            states = states.into_iter().flat_map(|s| self.flush(s, j)).collect();
        }
        states
    }

    fn row(&self, s: &State, i: usize, w: StateWord, access: Access) -> Row {
        let t = &s.threads[i];
        let who = Who { t: tid(i), rd_sh_count: t.rd_sh_count, in_rd_set: &|| t.in_rd_set };
        (self.table)(w, access, who, self.dep)
    }

    /// Thread `i` installs `new` in place of `old` — for an access whose row
    /// books `lock` and tells of `event` — performs the access and, under the
    /// relaxed discipline, releases the lock.
    fn installed(&self, s: State, i: usize, access: Access, (old, new): (StateWord, StateWord), lock: Lock, event: Ev) -> Vec<State> {
        let s = self.accessed(s, i, access, new, lock, event);
        self.release(s, i, access, old)
    }

    fn accessed(&self, mut s: State, i: usize, access: Access, new: StateWord, lock: Lock, event: Ev) -> State {
        self.set_word(&mut s, i, new);
        let t = &mut s.threads[i];
        match lock {
            Lock::None => {}
            Lock::Push(_) if t.held.is_some() => self.fail(&s, "a thread locks an object once"),
            Lock::Push(lock) => (t.held, t.in_rd_set) = (Some(lock), lock == LockMode::Read),
            Lock::UpgradeInPlace => (t.held, t.in_rd_set) = (Some(LockMode::Write), false),
        }
        match event {
            Ev::RdShCreate => t.rd_sh_count = t.rd_sh_count.max(new.rdsh_count()),
            Ev::Fence => t.rd_sh_count = new.rdsh_count(),
            _ => {}
        }
        self.access(&mut s, i, access);
        s
    }

    /// Apply an installing row looked up on `old`. A conflict has the
    /// holders `old` names respond first, and then goes both ways at the
    /// policy: the optimistic target, or its pessimistic twin under the
    /// row's lock.
    fn install(&self, mut s: State, i: usize, old: StateWord, access: Access, row: Row) -> Vec<State> {
        if let Next::Either { opt, pess } = row.next {
            let resolved = |s| {
                let mut both = self.installed(s, i, access, (old, pess), row.lock, row.event);
                if !self.settled {
                    both.extend(self.installed(s, i, access, (old, opt), Lock::None, row.event));
                }
                both
            };
            return self.holders_flush(s, old, i).into_iter().flat_map(resolved).collect();
        }
        let fresh = matches!(row.next, Next::FreshRdSh { .. });
        s.epoch += u64::from(fresh);
        let new = row.next.word(s.epoch);
        let foreign = old.kind() == Kind::RdSh || old.owner() != tid(i);
        if self.dep.install_unlocked && access == Access::Read && old.is_pess() && foreign && new.kind() == Kind::RdEx {
            self.fail(&s, "installed unlocked: a foreign read of a pessimistic word installs no RdEx word");
        }
        self.installed(s, i, access, (old, new), row.lock, row.event)
    }

    /// Thread `i` attempts `access`: the states that can follow. None if the
    /// word is in flight and the thread has to wait.
    fn attempt(&mut self, mut s: State, i: usize, access: Access) -> Vec<State> {
        let w = s.word;
        let row = self.row(&s, i, w, access);
        match row.class {
            Class::Wait => {
                self.waits += 1;
                vec![]
            }
            Class::Same | Class::Reentrant | Class::Fence => {
                if row.event == Ev::Fence {
                    s.threads[i].rd_sh_count = w.rdsh_count();
                }
                self.access(&mut s, i, access);
                vec![s]
            }
            Class::Contended if self.dep.install_unlocked => self.fail(&s, NO_LOCK_OUTLIVES),
            Class::Contended => {
                s.threads[i].retry = Some(access);
                self.holders_flush(s, w, i)
            }
            Class::Upgrade | Class::Pess { .. } | Class::Conflict => {
                if self.split && row.install == Install::Claim {
                    s.threads[i].retry = None;
                    s.threads[i].parked = Some((access, w));
                    self.set_word(&mut s, i, StateWord::int(tid(i)));
                    return vec![s];
                }
                self.install(s, i, w, access, row)
            }
        }
    }

    /// Every step thread `i` can take from `s`, labelled.
    fn steps(&mut self, s: &State, i: usize) -> Vec<(&'static str, State)> {
        let t = &s.threads[i];
        if let Some((access, old)) = t.parked {
            let mut s = *s;
            s.threads[i].parked = None;
            let row = self.row(&s, i, old, access);
            let published = self.install(s, i, old, access, row);
            return published.into_iter().map(|s| ("publish", s)).collect();
        }
        let mut next = Vec::new();
        let mut attempt = |m: &mut Self, s: State, access| {
            let what = if access == Access::Read { "R" } else { "W" };
            next.extend(m.attempt(s, i, access).into_iter().map(|s| (what, s)));
        };
        if let Some(access) = t.retry {
            attempt(self, *s, access);
        } else if t.left > 0 {
            let mut s = *s;
            s.threads[i].left -= 1;
            attempt(self, s, Access::Read);
            attempt(self, s, Access::Write);
            if s.word.is_int() && t.held.is_some() {
                self.unlock_spins += 1; // `unlock_one_object` waits for the publish
            } else {
                next.extend(self.flush(s, i).into_iter().map(|s| ("Psro", s)));
            }
        }
        next
    }

    /// Complete interleavings from `s`, checking every state on the way.
    fn explore(&mut self, s: State) -> u128 {
        if let Some(&n) = self.paths.get(&s) {
            return n;
        }
        if let Err(what) = check(&s, self.dep.install_unlocked) {
            self.fail(&s, &what);
        }
        let mut n = 0;
        for i in 0..s.threads.len() {
            for (label, next) in self.steps(&s, i) {
                self.trace.push((i, label));
                n += self.explore(next);
                self.trace.pop();
            }
        }
        if n == 0 {
            let done = |t: &Thread| t.left == 0 && t.retry.is_none() && t.parked.is_none();
            if !s.threads.iter().all(done) {
                self.fail(&s, "some thread can always take a step");
            }
            n = 1;
        }
        self.paths.insert(s, n);
        n
    }
}

/// Exhaust the stated universe under `table` and `version`: 2 threads ×
/// every script of ≤ 3 operations and 3 threads × ≤ 2, from five starting
/// states, two self-read modes, claims atomic and split, under the paper's
/// deferred discipline and under the relaxed one, the latter on an object
/// that may cross the valve and on a settled one. Returns (states,
/// interleavings, waits, unlock spins).
fn exhaust(table: Table, version: Version) -> (usize, u128, u64, u64) {
    let t0 = tid(0);
    let starts = [
        StateWord::wr_ex_opt(t0),
        StateWord::rd_sh_opt(1),
        StateWord::wr_ex_pess(t0, LockMode::Unlocked),
        StateWord::rd_ex_pess(t0, LockMode::Unlocked),
        StateWord::rd_sh_pess(1, 0),
    ];
    let mut total = (0, 0, 0, 0);
    for (threads, ops) in [(2, 3), (3, 2)] {
        for self_read in [SelfReadMode::WrExRLock, SelfReadMode::WrExWLock] {
            let configs = [(false, false), (true, false), (true, true)];
            for ((relaxed, settled), split) in configs.into_iter().flat_map(|c| [(c, false), (c, true)]) {
                let dep = Departures { self_read, install_unlocked: relaxed };
                let mut m = Model {
                    table,
                    version,
                    dep,
                    settled,
                    split,
                    paths: HashMap::default(),
                    start: String::new(),
                    trace: vec![],
                    waits: 0,
                    unlock_spins: 0,
                };
                for word in starts {
                    let idle = Thread { held: None, in_rd_set: false, rd_sh_count: 0, left: 0, retry: None, parked: None };
                    let budget = |i| if i < threads { ops } else { 0 };
                    let scripted = std::array::from_fn(|i| Thread { left: budget(i), ..idle });
                    let start = State { word, epoch: 1, written: 0, versioned: None, version_written: None, threads: scripted };
                    m.start = format!("{threads} threads × {ops} ops from {word:?}, {dep:?}, settled={settled}, split={split}");
                    total.1 += m.explore(start);
                }
                total = (total.0 + m.paths.len(), total.1, total.2 + m.waits, total.3 + m.unlock_spins);
            }
        }
    }
    total
}

#[test]
fn the_shipped_table_keeps_every_invariant_under_every_interleaving() {
    let started = Instant::now();
    let (states, interleavings, waits, unlock_spins) = exhaust(transition, version_after);
    let took = started.elapsed();
    println!("table3 model: {states} states, {interleavings} interleavings, {waits} waits at Int, {unlock_spins} unlocks waiting for a publish, {took:?}");
    assert!(waits > 0 && unlock_spins > 0, "the split configuration reaches the Int window");
}

// --- It must be able to fail: one row altered, one invariant named ---

/// (i) A holder of `RdShRLock(n ≥ 2)` upgrades in place instead of
/// contending, as if it were the sole read-locker.
fn holder_upgrades_among_many(w: StateWord, access: Access, who: Who<'_>, dep: Departures) -> Row {
    if access == Access::Write && w.kind() == Kind::RdSh && w.read_locks() >= 2 {
        return transition(StateWord::rd_sh_pess(w.rdsh_count(), 1), access, who, dep);
    }
    transition(w, access, who, dep)
}

#[test]
#[should_panic(expected = "WrExWLock(T) ⇔ exactly T holds Write")]
fn a_holder_upgrading_among_other_read_lockers_is_caught() {
    exhaust(holder_upgrades_among_many, version_after);
}

/// (ii) `WrExWLock(T1) R by T2` joins as `RdShRLock(2)`, as if `T1` held a
/// read lock.
fn reader_joins_a_write_lock(w: StateWord, access: Access, who: Who<'_>, dep: Departures) -> Row {
    if access == Access::Read && w.kind() == Kind::WrEx && w.lock_mode() == LockMode::Write && w.owner() != who.t {
        return transition(StateWord::wr_ex_pess(w.owner(), LockMode::Read), access, who, dep);
    }
    transition(w, access, who, dep)
}

#[test]
#[should_panic(expected = "RdShRLock(n) ⇔ exactly n threads hold Read")]
fn a_reader_joining_a_write_lock_is_caught() {
    exhaust(reader_joins_a_write_lock, version_after);
}

/// (iii) The installed-unlocked `RdExPess(T1) R by T2` row reuses an old epoch instead of
/// claiming a fresh one.
fn racy_read_reuses_an_epoch(w: StateWord, access: Access, who: Who<'_>, dep: Departures) -> Row {
    let row = transition(w, access, who, dep);
    if row.next == (Next::FreshRdSh { pess: true, n: 0 }) {
        return Row { next: Next::Word(StateWord::rd_sh_pess(1, 0)), ..row };
    }
    row
}

#[test]
#[should_panic(expected = "no return: a RdSh word stands again after a payload write")]
fn a_racy_read_reusing_an_epoch_is_caught() {
    exhaust(racy_read_reuses_an_epoch, version_after);
}

/// (iv) The ② `WrExPess(T1) R by T2` row installs `RdExPess(T2)`, the word
/// its read lock would have been released to, as it did before it went
/// straight to a fresh read-shared word.
fn racy_read_installs_read_exclusive(w: StateWord, access: Access, who: Who<'_>, dep: Departures) -> Row {
    let row = transition(w, access, who, dep);
    if dep.install_unlocked && access == Access::Read && w.is_pess_unlocked() && w.kind() == Kind::WrEx && w.owner() != who.t {
        let next = Next::Word(StateWord::rd_ex_pess(who.t, LockMode::Unlocked));
        return Row { next, event: Ev::PessConflictingAcquire, ..row };
    }
    row
}

#[test]
#[should_panic(expected = "a foreign read of a pessimistic word installs no RdEx word")]
fn a_racy_read_installing_a_read_exclusive_word_is_caught() {
    exhaust(racy_read_installs_read_exclusive, version_after);
}

/// (v) A write's release on a settled object reuses the replaced word's
/// version instead of advancing it: the word a reader validated against
/// before the payload store stands again after it.
fn release_reuses_the_version(t: ThreadId, replaced: StateWord) -> StateWord {
    StateWord::version(t, replaced.rdsh_count())
}

#[test]
#[should_panic(expected = "no return: a version word stands again after a payload write")]
fn a_release_reusing_the_replaced_version_is_caught() {
    exhaust(transition, release_reuses_the_version);
}

/// (vi) A read joining a version word tells of a `Fence` as if its count
/// were an epoch, and so raises `T.rdShCount` to it.
fn version_raises_rd_sh_count(w: StateWord, access: Access, who: Who<'_>, dep: Departures) -> Row {
    let row = transition(w, access, who, dep);
    if w.is_version() && access == Access::Read && who.rd_sh_count < w.rdsh_count() {
        return Row { event: Ev::Fence, ..row };
    }
    row
}

#[test]
#[should_panic(expected = "T.rdShCount ≤ gRdShCount")]
fn a_version_raising_rd_sh_count_is_caught() {
    exhaust(version_raises_rd_sh_count, version_after);
}

/// (vii) A read joining a version word drops its flag: the version's count
/// stands as an epoch nobody claimed.
fn join_drops_the_version_flag(w: StateWord, access: Access, who: Who<'_>, dep: Departures) -> Row {
    let row = transition(w, access, who, dep);
    match row.next {
        Next::Word(next) if w.is_version() && access == Access::Read => {
            Row { next: Next::Word(StateWord::rd_sh_pess(next.rdsh_count(), next.read_locks())), ..row }
        }
        _ => row,
    }
}

#[test]
#[should_panic(expected = "no return: a RdSh word stands again after a payload write")]
fn a_join_dropping_the_version_flag_is_caught() {
    exhaust(join_drops_the_version_flag, version_after);
}
