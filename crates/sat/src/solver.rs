//! Conflict-driven clause-learning (CDCL) SAT solver.
//!
//! This is the production solver behind Monocle's probe generation. A probe
//! instance has one variable per header bit plus Tseitin auxiliaries, and up
//! to a few thousand variables and about a hundred thousand clauses (Campus's
//! largest: 2 772 and 90 167), nearly all of them the two-literal `¬m ∨ l`
//! halves of its `Matches` definitions. Its search is short (a Campus cold
//! pass meets 19 conflicts in 1 226 solves), so loading a formula costs more
//! than searching it, and the design favors predictable latency over
//! massive-instance features: two-watched-literal propagation with blocker
//! literals, binary clauses kept in the watch lists alone, 1-UIP conflict
//! analysis, VSIDS decision heuristic with an indexed max-heap, phase
//! saving, Luby restarts and activity-based learnt clause deletion. No
//! preprocessing is performed; the encoder already emits compact clauses.
//!
//! Every [`CdclSolver::solve`] / [`CdclSolver::solve_with_stats`] call resets
//! the solver, loads the given [`Cnf`] and searches: nothing of one call's
//! search reaches the next, so a solver reused across formulas answers each
//! exactly as a fresh one would, while keeping its buffers (clause arena,
//! watch lists, heap). Probe generation builds one small, pre-filtered
//! instance per probed rule (§5.3–5.4); the probe engine solves all of its
//! instances on one solver.
//!
//! **Binary clauses.** A two-literal clause, problem or learnt, is nothing
//! but its two watchers, each tagged binary with the other literal as its
//! blocker. Propagation settles it from the watcher alone, a literal it
//! implies records the other literal as its reason, and conflict analysis
//! reads the pair in the order a long clause's slot would hold it. A binary
//! watcher never changes lists, so loading pushes it where a long clause's
//! would go and the search is the one an arena slot per clause gives.
//!
//! **Clause storage (arena).** Clauses of three or more literals live in one
//! flat `u32` arena: a 2-word header (length + flags, activity) followed by
//! the literals, and every reference to one — watchers and reasons — is a
//! `u32` word offset (`CRef`) into that arena. Learnt-clause deletion
//! (`reduce_db`; a search needs thousands of learnt clauses to reach it,
//! and probe instances never do) drops only learnt long clauses: it copies
//! the survivors into a fresh arena and translates their watchers and
//! reasons in place, so every watch list keeps its order and every binary
//! watcher its place.

use crate::cnf::Cnf;
use crate::{Model, SatResult};

/// Truth value of a variable: unassigned / true / false.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LBool {
    Undef,
    True,
    False,
}

/// Internal literal representation: `var * 2 + sign` with 0-based variables;
/// sign bit 1 means negated.
type ILit = u32;

#[inline]
fn ilit(var0: u32, negated: bool) -> ILit {
    var0 * 2 + negated as u32
}

#[inline]
fn ivar(l: ILit) -> u32 {
    l >> 1
}

#[inline]
fn ineg(l: ILit) -> ILit {
    l ^ 1
}

#[inline]
fn is_negated(l: ILit) -> bool {
    l & 1 == 1
}

/// Converts an external DIMACS literal to the internal encoding.
#[inline]
fn from_dimacs(l: i32) -> ILit {
    debug_assert!(l != 0);
    ilit(l.unsigned_abs() - 1, l < 0)
}

/// Truth value of `l` under `assigns`. Free function so call sites that
/// already hold a disjoint mutable borrow (e.g. of the arena) can use it.
#[inline]
fn lit_value(assigns: &[LBool], l: ILit) -> LBool {
    match assigns[ivar(l) as usize] {
        LBool::Undef => LBool::Undef,
        LBool::True => {
            if is_negated(l) {
                LBool::False
            } else {
                LBool::True
            }
        }
        LBool::False => {
            if is_negated(l) {
                LBool::True
            } else {
                LBool::False
            }
        }
    }
}

/// Shrinks `v` to twice its length when it holds more than four times that
/// (and more than a few cache lines' worth).
fn trim_vec<T>(v: &mut Vec<T>) {
    if v.capacity() > 4 * v.len() + 16 {
        v.shrink_to(2 * v.len());
    }
}

/// Reference to a clause: the word offset of its header in the arena.
type CRef = u32;

/// The `clause` of a binary clause's watchers: it has no arena slot.
const BINARY: CRef = CRef::MAX;

/// Words in a clause slot header (length+flags, activity).
const HEADER_WORDS: usize = 2;
/// Low bits of header word 0 holding the clause length.
const LEN_MASK: u32 = (1 << 29) - 1;
/// Clause was learnt (subject to activity-based deletion).
const FLAG_LEARNT: u32 = 1 << 31;

/// Flat clause storage. Each clause occupies `HEADER_WORDS + len` words:
///
/// * word 0 — `len | FLAG_LEARNT`
/// * word 1 — activity as `f32` bits (the clause-activity rescale threshold
///   of 1e20 is far below `f32::MAX`, so `f32` loses nothing)
/// * words 2.. — `len` literals (internal `ILit` form)
#[derive(Debug, Default)]
struct ClauseArena {
    data: Vec<u32>,
    /// Times `data` had to grow its heap allocation.
    reallocs: u64,
}

impl ClauseArena {
    #[inline]
    fn len(&self, c: CRef) -> usize {
        (self.data[c as usize] & LEN_MASK) as usize
    }

    #[inline]
    fn is_learnt(&self, c: CRef) -> bool {
        self.data[c as usize] & FLAG_LEARNT != 0
    }

    #[inline]
    fn activity(&self, c: CRef) -> f32 {
        f32::from_bits(self.data[c as usize + 1])
    }

    #[inline]
    fn set_activity(&mut self, c: CRef, a: f32) {
        self.data[c as usize + 1] = a.to_bits();
    }

    /// The literals of clause `c`.
    #[inline]
    fn lits(&self, c: CRef) -> &[ILit] {
        let base = c as usize + HEADER_WORDS;
        &self.data[base..base + self.len(c)]
    }

    /// Every clause, in address order.
    fn refs(&self) -> impl Iterator<Item = CRef> + '_ {
        let mut off = 0usize;
        std::iter::from_fn(move || {
            (off < self.data.len()).then(|| {
                let c = off as CRef;
                off += HEADER_WORDS + self.len(c);
                c
            })
        })
    }

    /// Counts a heap reallocation if appending `extra` words would grow the
    /// backing buffer.
    #[inline]
    fn note_growth(&mut self, extra: usize) {
        if self.data.len() + extra > self.data.capacity() {
            self.reallocs += 1;
        }
    }

    /// Appends a clause with zero activity.
    fn alloc(&mut self, lits: &[ILit], learnt: bool) -> CRef {
        debug_assert!(lits.len() > 2 && lits.len() as u32 <= LEN_MASK);
        debug_assert!(self.data.len() < BINARY as usize);
        self.note_growth(HEADER_WORDS + lits.len());
        let c = self.data.len() as CRef;
        let flags = if learnt { FLAG_LEARNT } else { 0 };
        self.data.push(lits.len() as u32 | flags);
        self.data.push(0f32.to_bits());
        self.data.extend_from_slice(lits);
        c
    }

    /// Clears all clause storage, keeping the allocation for reuse.
    fn reset(&mut self) {
        self.data.clear();
        self.reallocs = 0;
    }
}

/// An entry of a literal's watch list. A long clause is watched at its
/// first two literals; a binary clause is nothing but its two watchers, each
/// with [`BINARY`] for a clause and the other literal as blocker.
#[derive(Debug, Clone, Copy)]
struct Watcher {
    clause: CRef,
    /// Any other literal of the clause; if it is already true the clause is
    /// satisfied and the watch list walk can skip touching the clause.
    blocker: ILit,
}

impl Watcher {
    /// The watcher of a binary clause whose other literal is `other`.
    #[inline]
    fn binary(other: ILit) -> Watcher {
        Watcher {
            clause: BINARY,
            blocker: other,
        }
    }

    #[inline]
    fn is_binary(self) -> bool {
        self.clause == BINARY
    }
}

/// Why an implied literal holds: a long clause whose first literal it is,
/// or a binary clause, by its other literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    Long(CRef),
    Binary(ILit),
}

/// A clause as conflict analysis reads it: a long clause in the arena, or a
/// binary one by its two literals, in the order a long clause's slot keeps
/// them. As a reason, the implied literal comes first; as a conflict, the
/// literal whose watch list was being walked comes second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Clause {
    Long(CRef),
    Binary(ILit, ILit),
}

/// Counters reported after a [`CdclSolver::solve`] call (reset per call).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently retained.
    pub learnt_clauses: u64,
    /// Bytes the clause arena holds at the end of the solve: its clauses
    /// of three or more literals, binary ones having no slot (a gauge, not a
    /// counter).
    pub arena_bytes: u64,
    /// Heap reallocations the arena's backing buffer has performed.
    pub arena_reallocs: u64,
}

/// Outcome of a single `solve` call together with statistics.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The SAT/UNSAT/UNKNOWN answer.
    pub result: SatResult,
    /// Search statistics.
    pub stats: SolverStats,
}

/// Indexed max-heap over variable activities (MiniSat-style order heap).
#[derive(Debug, Default, Clone)]
struct ActivityHeap {
    heap: Vec<u32>,
    /// position of var in `heap`, or `usize::MAX` when absent.
    index: Vec<usize>,
}

impl ActivityHeap {
    /// Holds every variable of `0..n`, all of one activity, in the order
    /// inserting them one by one leaves: ascending.
    fn reset(&mut self, n: usize) {
        self.heap.clear();
        self.heap.extend(0..n as u32);
        self.index.clear();
        self.index.extend(0..n);
    }

    fn contains(&self, v: u32) -> bool {
        self.index[v as usize] != usize::MAX
    }

    fn insert(&mut self, v: u32, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.index[v as usize] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop_max(&mut self, act: &[f64]) -> Option<u32> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().unwrap();
        self.index[top as usize] = usize::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.index[last as usize] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn decreased_key_fixup(&mut self, v: u32, act: &[f64]) {
        // After an activity bump the key only grows, so sift up.
        if let Some(&pos) = self.index.get(v as usize) {
            if pos != usize::MAX {
                self.sift_up(pos, act);
            }
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i] as usize] > act[self.heap[parent] as usize] {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l] as usize] > act[self.heap[best] as usize] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r] as usize] > act[self.heap[best] as usize] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.index[self.heap[a] as usize] = a;
        self.index[self.heap[b] as usize] = b;
    }
}

/// The CDCL solver. Construct with [`CdclSolver::new`], optionally set a
/// conflict budget, then call [`CdclSolver::solve`]; every call resets the
/// solver and loads its formula from scratch (buffers are reused).
#[derive(Debug)]
pub struct CdclSolver {
    // Problem state
    num_vars: usize,
    arena: ClauseArena,
    watches: Vec<Vec<Watcher>>,
    // Assignment state
    assigns: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<Reason>>,
    trail: Vec<ILit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    // Heuristics
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    heap: ActivityHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    // Config
    conflict_budget: Option<u64>,
    max_learnts: usize,
    /// Pooled scratch for the learnt clause built by conflict analysis.
    learnt_scratch: Vec<ILit>,
    /// Problem (non-learnt) clauses loaded; floors the learnt-DB cap.
    num_problem: usize,
    // Stats
    stats: SolverStats,
    ok: bool,
    num_learnts: usize,
}

impl Default for CdclSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl CdclSolver {
    /// Fresh solver with no conflict budget.
    pub fn new() -> Self {
        CdclSolver {
            num_vars: 0,
            arena: ClauseArena::default(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: ActivityHeap::default(),
            phase: Vec::new(),
            seen: Vec::new(),
            conflict_budget: None,
            max_learnts: 0,
            learnt_scratch: Vec::new(),
            num_problem: 0,
            stats: SolverStats::default(),
            ok: true,
            num_learnts: 0,
        }
    }

    /// Limits the search to `budget` conflicts; exceeding it yields
    /// [`SatResult::Unknown`].
    pub fn with_conflict_budget(mut self, budget: u64) -> Self {
        self.conflict_budget = Some(budget);
        self
    }

    /// Statistics from the most recent `solve` call.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Loads every clause of `cnf` into the freshly reset solver; clears
    /// `ok` when the formula is unsatisfiable at root level.
    ///
    /// Zero-copy: `Cnf` already stores its clauses flat (literals + `0`
    /// terminators). A clause of one or two literals is checked where it
    /// lies and goes straight to the trail or the watch lists; a longer one
    /// is appended onto the arena tail and simplified in place there, with
    /// no per-clause staging `Vec`.
    fn load_cnf(&mut self, cnf: &Cnf) {
        // A long clause's slot is its literals plus a header, where the
        // formula holds them plus a terminator: this much room holds every
        // long clause, so loading grows the arena at most once, to the
        // formula's size, and no more: the short clauses, most of a probe
        // instance, take none of it.
        let (long, words) = cnf.long_clauses();
        let words = words + (HEADER_WORDS - 1) * long;
        self.arena.note_growth(words);
        self.arena.data.reserve_exact(words);
        let raw = cnf.raw();
        let mut pos = 0usize;
        while pos < raw.len() && self.ok {
            let start = pos;
            while raw[pos] != 0 {
                pos += 1;
            }
            self.ok = match raw[start..pos] {
                [] => false,
                [l] => self.load_unit(from_dimacs(l)),
                [a, b] => self.load_binary(from_dimacs(a), from_dimacs(b)),
                _ => self.load_long_clause(&raw[start..pos]),
            };
            pos += 1;
        }
    }

    /// Loads the unit clause `l`: nothing when it holds at root, an
    /// empty clause when it is false, else `l` enqueued and propagated.
    /// Returns `false` when the database became unsatisfiable.
    fn load_unit(&mut self, l: ILit) -> bool {
        match self.value_lit(l) {
            LBool::True => true,
            LBool::False => false,
            LBool::Undef => {
                self.unchecked_enqueue(l, None);
                self.propagate().is_none()
            }
        }
    }

    /// Loads the clause `a ∨ b` with no arena slot, making the checks
    /// [`Self::load_long_clause`] makes on its sorted literals: a duplicate
    /// leaves a unit, a tautology or a literal true at root drops the
    /// clause, a literal false at root is removed; two free literals are
    /// watched as a binary clause, the smaller first.
    fn load_binary(&mut self, a: ILit, b: ILit) -> bool {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if a == b {
            return self.load_unit(a);
        }
        if b == ineg(a) {
            return true;
        }
        match (self.value_lit(a), self.value_lit(b)) {
            (LBool::True, _) | (_, LBool::True) => true,
            (LBool::False, _) => self.load_unit(b),
            (_, LBool::False) => self.load_unit(a),
            (LBool::Undef, LBool::Undef) => {
                self.watch_binary(a, b);
                self.num_problem += 1;
                true
            }
        }
    }

    /// Appends one external-form clause of three or more literals straight
    /// onto the arena tail and simplifies it in place there against the root
    /// assignment; the tail is rolled back for clauses that don't need a
    /// slot (tautology, root-satisfied, or down to two literals or fewer,
    /// which load as the short clauses they became). Returns `false` when
    /// the database became unsatisfiable.
    fn load_long_clause(&mut self, clause: &[i32]) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        self.arena.note_growth(HEADER_WORDS + clause.len());
        let off = self.arena.data.len();
        let base = off + HEADER_WORDS;
        // Header placeholder; finalized below once the clause survives
        // simplification.
        self.arena.data.extend_from_slice(&[0; HEADER_WORDS]);
        self.arena
            .data
            .extend(clause.iter().map(|&l| from_dimacs(l)));
        {
            let data = &mut self.arena.data;
            data[base..].sort_unstable();
            // Dedup the tail in place.
            let mut w = base;
            for r in base..data.len() {
                if w == base || data[r] != data[w - 1] {
                    data[w] = data[r];
                    w += 1;
                }
            }
            data.truncate(w);
            // Tautology / root-satisfied detection and false-literal
            // elimination, all on the tail slice.
            let assigns = &self.assigns;
            let mut w = base;
            let mut r = base;
            while r < data.len() {
                let l = data[r];
                if r + 1 < data.len() && data[r + 1] == ineg(l) {
                    data.truncate(off); // tautology: x, !x adjacent
                    return true;
                }
                match lit_value(assigns, l) {
                    LBool::True => {
                        data.truncate(off); // satisfied at root
                        return true;
                    }
                    LBool::False => r += 1,
                    LBool::Undef => {
                        data[w] = l;
                        w += 1;
                        r += 1;
                    }
                }
            }
            data.truncate(w);
        }
        let len = self.arena.data.len() - base;
        if len <= 2 {
            let mut short = [0; 2];
            short[..len].copy_from_slice(&self.arena.data[base..]);
            self.arena.data.truncate(off);
            return match short[..len] {
                [] => false, // empty clause: unsat
                [l] => self.load_unit(l),
                [a, b] => self.load_binary(a, b),
                _ => unreachable!(),
            };
        }
        let data = &mut self.arena.data;
        data[off] = len as u32;
        data[off + 1] = 0f32.to_bits();
        self.watch(off as CRef);
        self.num_problem += 1;
        true
    }

    /// Solves `cnf` and returns the result.
    pub fn solve(&mut self, cnf: &Cnf) -> SatResult {
        self.solve_with_stats(cnf).result
    }

    /// Solves `cnf` and returns the result with search statistics. The
    /// solver is reset and the formula loaded from scratch each call.
    pub fn solve_with_stats(&mut self, cnf: &Cnf) -> SolveOutcome {
        self.reset(cnf.num_vars() as usize);
        self.load_cnf(cnf);
        let result = if self.ok {
            self.search()
        } else {
            SatResult::Unsat
        };
        self.stats.learnt_clauses = self.num_learnts as u64;
        self.stats.arena_bytes = (self.arena.data.len() * 4) as u64;
        self.stats.arena_reallocs = self.arena.reallocs;
        SolveOutcome {
            result,
            stats: self.stats,
        }
    }

    /// Sizes the clause arena and the watch lists from the latest solve:
    /// one holding more than four times what that solve left in it is cut
    /// to twice that. Between solves a reused solver keeps every buffer at
    /// its largest instance's size; a caller done with a run of instances
    /// calls this so that it holds about what the last one took.
    pub fn trim(&mut self) {
        trim_vec(&mut self.arena.data);
        for ws in &mut self.watches {
            trim_vec(ws);
        }
    }

    /// Empties the solver for a formula over `num_vars` variables. Every
    /// buffer keeps its allocation, the watch lists theirs too (a list past
    /// `2 * num_vars` stays, empty), so a solver reused across instances
    /// allocates only where one outgrows every instance before it.
    fn reset(&mut self, num_vars: usize) {
        self.num_vars = num_vars;
        self.arena.reset();
        for ws in &mut self.watches {
            ws.clear();
        }
        if self.watches.len() < 2 * num_vars {
            self.watches.resize_with(2 * num_vars, Vec::new);
        }
        self.assigns.clear();
        self.assigns.resize(num_vars, LBool::Undef);
        self.level.clear();
        self.level.resize(num_vars, 0);
        self.reason.clear();
        self.reason.resize(num_vars, None);
        self.trail.clear();
        self.trail_lim.clear();
        self.qhead = 0;
        self.activity.clear();
        self.activity.resize(num_vars, 0.0);
        self.var_inc = 1.0;
        self.cla_inc = 1.0;
        self.heap.reset(num_vars);
        self.phase.clear();
        self.phase.resize(num_vars, false);
        self.seen.clear();
        self.seen.resize(num_vars, false);
        self.stats = SolverStats::default();
        self.ok = true;
        self.max_learnts = 0;
        self.num_learnts = 0;
        self.num_problem = 0;
    }

    #[inline]
    fn value_lit(&self, l: ILit) -> LBool {
        lit_value(&self.assigns, l)
    }

    /// Watches the first two literals of long clause `c` — by invariant the
    /// watched positions, each the other's blocker.
    fn watch(&mut self, c: CRef) {
        let lits = self.arena.lits(c);
        let (l0, l1) = (lits[0], lits[1]);
        self.watches[l0 as usize].push(Watcher {
            clause: c,
            blocker: l1,
        });
        self.watches[l1 as usize].push(Watcher {
            clause: c,
            blocker: l0,
        });
    }

    /// Watches the binary clause `a ∨ b`, `a`'s list first, as
    /// [`Self::watch`] does a long clause's first two literals. A binary
    /// watcher never leaves its list.
    fn watch_binary(&mut self, a: ILit, b: ILit) {
        self.watches[a as usize].push(Watcher::binary(b));
        self.watches[b as usize].push(Watcher::binary(a));
    }

    /// Stores a learnt clause of three or more literals (asserting literal
    /// first) and watches its first two literals.
    fn attach_learnt(&mut self, lits: &[ILit]) -> CRef {
        let cref = self.arena.alloc(lits, true);
        self.watch(cref);
        self.num_learnts += 1;
        cref
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: ILit, from: Option<Reason>) {
        debug_assert_eq!(self.value_lit(l), LBool::Undef);
        let v = ivar(l) as usize;
        self.assigns[v] = if is_negated(l) {
            LBool::False
        } else {
            LBool::True
        };
        self.level[v] = self.decision_level();
        self.reason[v] = from;
        self.trail.push(l);
        self.stats.propagations += 1;
    }

    /// Unit propagation; returns a conflicting clause, if any.
    fn propagate(&mut self) -> Option<Clause> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = ineg(p);
            let mut ws = std::mem::take(&mut self.watches[false_lit as usize]);
            let mut conflict = None;
            let mut j = 0;
            let mut i = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                let blocker = self.value_lit(w.blocker);
                if blocker == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                if w.is_binary() {
                    // The blocker is the other literal: unit or conflicting.
                    ws[j] = w;
                    j += 1;
                    if blocker == LBool::False {
                        conflict = Some(Clause::Binary(w.blocker, false_lit));
                        break;
                    }
                    self.unchecked_enqueue(w.blocker, Some(Reason::Binary(false_lit)));
                    continue;
                }
                let cref = w.clause;
                // Make sure the false literal is at position 1.
                let base = cref as usize + HEADER_WORDS;
                if self.arena.data[base] == false_lit {
                    self.arena.data.swap(base, base + 1);
                }
                debug_assert_eq!(self.arena.data[base + 1], false_lit);
                let first = self.arena.data[base];
                if first != w.blocker && self.value_lit(first) == LBool::True {
                    ws[j] = Watcher {
                        clause: cref,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.arena.len(cref);
                for k in 2..len {
                    let cand = self.arena.data[base + k];
                    if self.value_lit(cand) != LBool::False {
                        self.arena.data.swap(base + 1, base + k);
                        self.watches[cand as usize].push(Watcher {
                            clause: cref,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // No replacement: clause is unit or conflicting.
                ws[j] = Watcher {
                    clause: cref,
                    blocker: first,
                };
                j += 1;
                if self.value_lit(first) == LBool::False {
                    conflict = Some(Clause::Long(cref));
                    break;
                }
                self.unchecked_enqueue(first, Some(Reason::Long(cref)));
            }
            // After a conflict, the watchers not walked stay as they were.
            let kept = j + ws.len() - i;
            ws.copy_within(i.., j);
            ws.truncate(kept);
            self.watches[false_lit as usize] = ws;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    /// 1-UIP conflict analysis. Fills `learnt` with the learnt clause
    /// (asserting literal first; the buffer is a pooled scratch reused
    /// across conflicts) and returns the backjump level.
    fn analyze(&mut self, mut confl: Clause, learnt: &mut Vec<ILit>) -> u32 {
        learnt.clear();
        learnt.push(0);
        let mut counter = 0usize;
        let mut p: Option<ILit> = None;
        let mut idx = self.trail.len();
        loop {
            // A reason's first literal is the one it implied.
            let start = usize::from(p.is_some());
            match confl {
                Clause::Long(c) => {
                    if self.arena.is_learnt(c) {
                        self.bump_clause(c);
                    }
                    let base = c as usize + HEADER_WORDS;
                    for k in start..self.arena.len(c) {
                        let q = self.arena.data[base + k];
                        self.analyze_lit(q, learnt, &mut counter);
                    }
                }
                Clause::Binary(a, b) => {
                    for q in [a, b].into_iter().skip(start) {
                        self.analyze_lit(q, learnt, &mut counter);
                    }
                }
            }
            // Select next trail literal to expand.
            loop {
                idx -= 1;
                if self.seen[ivar(self.trail[idx]) as usize] {
                    break;
                }
            }
            let pl = self.trail[idx];
            let v = ivar(pl) as usize;
            self.seen[v] = false;
            counter -= 1;
            p = Some(pl);
            if counter == 0 {
                break;
            }
            confl = match self.reason[v].expect("non-decision literal must have a reason") {
                Reason::Long(c) => Clause::Long(c),
                Reason::Binary(other) => Clause::Binary(pl, other),
            };
        }
        learnt[0] = ineg(p.unwrap());
        // Clear `seen` for the literals kept in the clause.
        for &l in &learnt[1..] {
            self.seen[ivar(l) as usize] = false;
        }
        // Backjump level: highest level among learnt[1..].
        if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[ivar(learnt[i]) as usize] > self.level[ivar(learnt[max_i]) as usize] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[ivar(learnt[1]) as usize]
        }
    }

    /// Conflict analysis of literal `q` of the clause being resolved: a
    /// variable assigned above the root and not yet seen is bumped, then
    /// counted when at the conflict level, else kept in `learnt`.
    #[inline]
    fn analyze_lit(&mut self, q: ILit, learnt: &mut Vec<ILit>, counter: &mut usize) {
        let v = ivar(q) as usize;
        if !self.seen[v] && self.level[v] > 0 {
            self.seen[v] = true;
            self.bump_var(v as u32);
            if self.level[v] >= self.decision_level() {
                *counter += 1;
            } else {
                learnt.push(q);
            }
        }
    }

    fn backtrack(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target as usize];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = ivar(l) as usize;
            self.assigns[v] = LBool::Undef;
            self.phase[v] = !is_negated(l);
            self.reason[v] = None;
            if !self.heap.contains(v as u32) {
                self.heap.insert(v as u32, &self.activity);
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, v: u32) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.decreased_key_fixup(v, &self.activity);
    }

    fn bump_clause(&mut self, c: CRef) {
        let a = self.arena.activity(c) + self.cla_inc as f32;
        self.arena.set_activity(c, a);
        if a > 1e20 {
            let mut off = 0usize;
            while off < self.arena.data.len() {
                let c = off as CRef;
                let scaled = self.arena.activity(c) * 1e-20;
                self.arena.set_activity(c, scaled);
                off += HEADER_WORDS + self.arena.len(c);
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    fn pick_branch_lit(&mut self) -> Option<ILit> {
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if self.assigns[v as usize] != LBool::Undef {
                continue;
            }
            return Some(ilit(v, !self.phase[v as usize]));
        }
        None
    }

    /// Removes the least active half of the learnt long clauses that are
    /// not the reason of an assignment; binary clauses, learnt ones too, are
    /// never removed. The survivors are copied into a fresh arena in
    /// address order, and each long clause's watchers and reasons are
    /// translated to its new slot (or dropped with it) in place, so every
    /// watch list keeps its order and a binary watcher stays where it is.
    /// Saved phases, activities and the trail all survive.
    fn reduce_db(&mut self) {
        let locked: std::collections::HashSet<CRef> = self
            .reason
            .iter()
            .filter_map(|r| match r {
                Some(Reason::Long(c)) => Some(*c),
                _ => None,
            })
            .collect();
        let mut removable: Vec<CRef> = self
            .arena
            .refs()
            .filter(|&c| self.arena.is_learnt(c) && !locked.contains(&c))
            .collect();
        removable.sort_by(|&a, &b| {
            self.arena
                .activity(a)
                .partial_cmp(&self.arena.activity(b))
                .unwrap()
        });
        removable.truncate(removable.len() / 2);
        self.num_learnts -= removable.len();
        let dropped: std::collections::HashSet<CRef> = removable.into_iter().collect();

        let old = std::mem::take(&mut self.arena.data);
        self.arena.data.reserve(old.capacity());
        // Old → new offsets, ascending in both.
        let mut moved: Vec<(CRef, CRef)> = Vec::new();
        let mut off = 0usize;
        while off < old.len() {
            let words = HEADER_WORDS + (old[off] & LEN_MASK) as usize;
            if !dropped.contains(&(off as CRef)) {
                moved.push((off as CRef, self.arena.data.len() as CRef));
                self.arena.data.extend_from_slice(&old[off..off + words]);
            }
            off += words;
        }
        let relocate = |c: &mut CRef| match moved.binary_search_by_key(c, |&(o, _)| o) {
            Ok(i) => {
                *c = moved[i].1;
                true
            }
            Err(_) => false,
        };
        for ws in &mut self.watches {
            ws.retain_mut(|w| w.is_binary() || relocate(&mut w.clause));
        }
        for r in self.reason.iter_mut() {
            if let Some(Reason::Long(c)) = r {
                assert!(relocate(c), "a reason clause is never dropped");
            }
        }
    }

    /// Luby restart sequence (1,1,2,1,1,2,4,...), MiniSat formulation.
    fn luby(x: u64) -> u64 {
        let mut size: u64 = 1;
        let mut seq: u32 = 0;
        while size < x + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        let mut x = x;
        while size - 1 != x {
            size = (size - 1) >> 1;
            seq -= 1;
            x %= size;
        }
        1u64 << seq
    }

    /// CDCL search over the loaded clause database.
    fn search(&mut self) -> SatResult {
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }
        // Cap the learnt DB relative to the problem size. The floor is
        // generous: reduce_db thrash (the lost clauses are not cheap) costs
        // far more than the memory of a few thousand learnts.
        self.max_learnts = self.max_learnts.max(self.num_problem.max(4000));
        let mut restart_round: u64 = 0;
        loop {
            let conflict_cap = Self::luby(restart_round) * 100;
            restart_round += 1;
            let mut conflicts_here: u64 = 0;
            loop {
                if let Some(confl) = self.propagate() {
                    self.stats.conflicts += 1;
                    conflicts_here += 1;
                    if self.decision_level() == 0 {
                        self.ok = false;
                        return SatResult::Unsat;
                    }
                    let mut learnt = std::mem::take(&mut self.learnt_scratch);
                    let bt = self.analyze(confl, &mut learnt);
                    self.backtrack(bt);
                    match *learnt {
                        [unit] => self.unchecked_enqueue(unit, None),
                        [asserting, other] => {
                            self.watch_binary(asserting, other);
                            self.num_learnts += 1;
                            self.unchecked_enqueue(asserting, Some(Reason::Binary(other)));
                        }
                        _ => {
                            let asserting = learnt[0];
                            let cref = self.attach_learnt(&learnt);
                            self.bump_clause(cref);
                            self.unchecked_enqueue(asserting, Some(Reason::Long(cref)));
                        }
                    }
                    self.learnt_scratch = learnt;
                    self.decay_activities();
                    if let Some(budget) = self.conflict_budget {
                        if self.stats.conflicts >= budget {
                            return SatResult::Unknown;
                        }
                    }
                } else {
                    if conflicts_here >= conflict_cap {
                        self.stats.restarts += 1;
                        self.backtrack(0);
                        break;
                    }
                    if self.num_learnts > self.max_learnts {
                        self.reduce_db();
                        self.max_learnts = self.max_learnts * 11 / 10;
                    }
                    match self.pick_branch_lit() {
                        None => {
                            // Every variable assigned, no conflict: a model.
                            let n = self.num_vars;
                            let mut values = vec![false; n + 1];
                            for v in 0..n {
                                values[v + 1] = self.assigns[v] == LBool::True;
                            }
                            return SatResult::Sat(Model::from_values(values));
                        }
                        Some(l) => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(l, None);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cnf;
    use proptest::prelude::*;

    fn solve(cnf: &Cnf) -> SatResult {
        CdclSolver::new().solve(cnf)
    }

    #[test]
    fn unit_propagation_chain() {
        let mut cnf = Cnf::new();
        cnf.add_clause(&[1]);
        cnf.add_clause(&[-1, 2]);
        cnf.add_clause(&[-2, 3]);
        cnf.add_clause(&[-3, 4]);
        let m = solve(&cnf).model();
        for v in 1..=4 {
            assert!(m.value(v), "var {v}");
        }
    }

    #[test]
    fn conflict_and_learn() {
        // (1|2)&(1|-2)&(-1|2)&(-1|-2) is unsat
        let mut cnf = Cnf::new();
        cnf.add_clause(&[1, 2]);
        cnf.add_clause(&[1, -2]);
        cnf.add_clause(&[-1, 2]);
        cnf.add_clause(&[-1, -2]);
        assert_eq!(solve(&cnf), SatResult::Unsat);
    }

    #[test]
    fn model_is_checked() {
        let mut cnf = Cnf::new();
        cnf.add_clause(&[1, 2, 3]);
        cnf.add_clause(&[-1, -2]);
        cnf.add_clause(&[-2, -3]);
        cnf.add_clause(&[2]);
        let m = solve(&cnf).model();
        assert!(m.satisfies(&cnf));
        assert!(m.value(2));
        assert!(!m.value(1));
        assert!(!m.value(3));
    }

    /// Pigeonhole principle PHP(n+1, n) is a classic hard UNSAT family; tiny
    /// instances must be solved exactly.
    fn pigeonhole(holes: u32) -> Cnf {
        let pigeons = holes + 1;
        let var = |p: u32, h: u32| -> i32 { (p * holes + h + 1) as i32 };
        let mut cnf = Cnf::new();
        for p in 0..pigeons {
            let clause: Vec<i32> = (0..holes).map(|h| var(p, h)).collect();
            cnf.add_clause(&clause);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    cnf.add_clause(&[-var(p1, h), -var(p2, h)]);
                }
            }
        }
        cnf
    }

    #[test]
    fn pigeonhole_unsat() {
        for holes in 2..=6 {
            assert_eq!(solve(&pigeonhole(holes)), SatResult::Unsat, "PHP({holes})");
        }
    }

    #[test]
    fn graph_coloring_as_sat() {
        // Triangle is 3-colorable but not 2-colorable.
        let mut two = Cnf::new();
        // vars: v[node][color] = node*2 + color + 1
        let v = |n: i32, c: i32| n * 2 + c + 1;
        for n in 0..3 {
            two.add_clause(&[v(n, 0), v(n, 1)]);
        }
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            for c in 0..2 {
                two.add_clause(&[-v(a, c), -v(b, c)]);
            }
        }
        assert_eq!(solve(&two), SatResult::Unsat);
    }

    #[test]
    fn budget_yields_unknown() {
        // A hard instance with a tiny conflict budget must return Unknown.
        let cnf = pigeonhole(8);
        let mut s = CdclSolver::new().with_conflict_budget(5);
        assert_eq!(s.solve(&cnf), SatResult::Unknown);
    }

    #[test]
    fn luby_prefix() {
        let got: Vec<u64> = (0..15).map(CdclSolver::luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn stats_populated() {
        let cnf = pigeonhole(5);
        let mut s = CdclSolver::new();
        let out = s.solve_with_stats(&cnf);
        assert_eq!(out.result, SatResult::Unsat);
        assert!(out.stats.conflicts > 0);
        assert!(out.stats.decisions > 0);
    }

    #[test]
    fn wide_clause_watch_movement() {
        // Force watch relocation across a wide clause.
        let mut cnf = Cnf::new();
        cnf.add_clause(&[1, 2, 3, 4, 5, 6, 7, 8]);
        for v in 1..=7 {
            cnf.add_clause(&[-v]);
        }
        let m = solve(&cnf).model();
        assert!(m.value(8));
    }

    #[test]
    fn duplicate_and_tautological_input() {
        let mut cnf = Cnf::new();
        cnf.add_clause(&[1, 1, 1]);
        cnf.add_clause(&[2, -2]); // tautology: ignored
        cnf.add_clause(&[-1, 3]);
        let m = solve(&cnf).model();
        assert!(m.value(1));
        assert!(m.value(3));
    }

    #[test]
    fn conflict_budget_applies_per_solve_call() {
        // One solver object reused across calls: the budget is per call,
        // not a lifetime total the first call could exhaust.
        let cnf = pigeonhole(6);
        let mut s = CdclSolver::new().with_conflict_budget(5);
        assert_eq!(s.solve(&cnf), SatResult::Unknown);
        assert_eq!(s.solve(&cnf), SatResult::Unknown);
        let mut easy = Cnf::new();
        easy.add_clause(&[1, 2]);
        assert!(s.solve(&easy).is_sat());
    }

    /// Resets a solver for `cnf`, attaches `garbage` 3-literal learnt
    /// clauses over fresh all-positive variables above the formula's own
    /// (every one removable unless it ends up a reason: learnt, longer than
    /// binary, satisfiable by assigning the fresh block true), loads `cnf`
    /// *behind* them in the arena and searches. The trail is left in place,
    /// so on SAT every variable is assigned and implied ones carry reasons.
    fn search_behind_garbage(cnf: &Cnf, garbage: u32) -> (CdclSolver, SatResult) {
        let first = cnf.num_vars();
        let mut s = CdclSolver::new();
        s.reset((first + garbage + 2) as usize);
        for i in first..first + garbage {
            s.attach_learnt(&[ilit(i, false), ilit(i + 1, false), ilit(i + 2, false)]);
        }
        s.load_cnf(cnf);
        let r = if s.ok { s.search() } else { SatResult::Unsat };
        (s, r)
    }

    /// The binary watchers, as (list, other literal) in list order.
    fn binary_watchers(s: &CdclSolver) -> Vec<(ILit, ILit)> {
        let mut out = Vec::new();
        for (l, ws) in s.watches.iter().enumerate() {
            out.extend(
                ws.iter()
                    .filter(|w| w.is_binary())
                    .map(|w| (l as ILit, w.blocker)),
            );
        }
        out
    }

    /// The literal of variable `v` its assignment makes true.
    fn true_lit(s: &CdclSolver, v: usize) -> ILit {
        ilit(v as u32, s.assigns[v] == LBool::False)
    }

    /// Forces a `reduce_db` with the trail (and its reasons) in place and
    /// checks what it must leave behind: some learnts gone and every other
    /// clause intact, every binary watcher where it was, every reason a
    /// clause that implies its variable, every long clause watched exactly
    /// twice, at its first two literals, and every binary clause at both of
    /// its literals.
    fn reduce_and_check(s: &mut CdclSolver) {
        let long = |s: &CdclSolver| -> Vec<Vec<ILit>> {
            s.arena.refs().map(|c| s.arena.lits(c).to_vec()).collect()
        };
        // A watcher by its clause: binary with its other literal, or long
        // with its literals.
        let watched = |s: &CdclSolver, w: Watcher| {
            if w.is_binary() {
                (true, vec![w.blocker])
            } else {
                (false, s.arena.lits(w.clause).to_vec())
            }
        };
        let lists: Vec<Vec<(bool, Vec<ILit>)>> = s
            .watches
            .iter()
            .map(|ws| ws.iter().map(|&w| watched(s, w)).collect())
            .collect();
        let (learnts, before, binaries) = (s.num_learnts, long(s), binary_watchers(s));
        s.reduce_db();
        let after = long(s);
        assert!(s.num_learnts < learnts, "garbage must be dropped");
        assert_eq!(before.len() - after.len(), learnts - s.num_learnts);
        let mut rest = before.iter();
        for c in &after {
            assert!(rest.any(|b| b == c), "survivors keep content and order");
        }
        // Each list is what it was less the dropped clauses' watchers: every
        // binary watcher is kept, and in its place among the others.
        for (l, ws) in s.watches.iter().enumerate() {
            let mut was = lists[l].iter();
            for w in ws.iter().map(|&w| watched(s, w)) {
                assert!(was.any(|v| *v == w), "list {l} keeps its order");
            }
            let binary = |ws: &[(bool, Vec<ILit>)]| ws.iter().filter(|w| w.0).count();
            assert_eq!(
                binary(&lists[l]),
                ws.iter().filter(|w| w.is_binary()).count()
            );
        }
        for (v, r) in s.reason.iter().enumerate() {
            match *r {
                Some(Reason::Long(c)) => {
                    assert_eq!(ivar(s.arena.lits(c)[0]), v as u32, "reason of var {v}");
                }
                Some(Reason::Binary(other)) => {
                    let implied = true_lit(s, v);
                    assert_eq!(s.value_lit(other), LBool::False, "reason of var {v}");
                    assert!(binaries.contains(&(implied, other)), "reason of var {v}");
                }
                None => {}
            }
        }
        let mut watched: Vec<(CRef, ILit)> = Vec::new();
        for (l, ws) in s.watches.iter().enumerate() {
            watched.extend(
                ws.iter()
                    .filter(|w| !w.is_binary())
                    .map(|w| (w.clause, l as ILit)),
            );
        }
        watched.sort_unstable();
        let mut expected: Vec<(CRef, ILit)> = Vec::new();
        for c in s.arena.refs() {
            let lits = s.arena.lits(c);
            expected.extend([(c, lits[0].min(lits[1])), (c, lits[0].max(lits[1]))]);
        }
        assert_eq!(watched, expected);
        let mut twins: Vec<(ILit, ILit)> = binaries.iter().map(|&(l, o)| (o, l)).collect();
        let mut binaries = binaries;
        binaries.sort_unstable();
        twins.sort_unstable();
        assert_eq!(
            binaries, twins,
            "a binary clause is watched at both literals"
        );
    }

    #[test]
    fn compaction_relocates_watchers_and_reasons() {
        // 3-coloring of a 6-node path: v(n, c) = n*3 + c + 1.
        let v = |n: i32, c: i32| n * 3 + c + 1;
        let mut cnf = Cnf::new();
        for n in 0..6 {
            cnf.add_clause(&[v(n, 0), v(n, 1), v(n, 2)]);
            for c1 in 0..3 {
                for c2 in (c1 + 1)..3 {
                    cnf.add_clause(&[-v(n, c1), -v(n, c2)]);
                }
            }
        }
        for n in 0..5 {
            for c in 0..3 {
                cnf.add_clause(&[-v(n, c), -v(n + 1, c)]);
            }
        }
        let (mut s, first) = search_behind_garbage(&cnf, 40);
        assert!(first.is_sat());
        let reasons = |kind: fn(&Reason) -> bool| s.reason.iter().flatten().any(kind);
        assert!(
            reasons(|r| matches!(r, Reason::Long(_))),
            "reasons to translate"
        );
        assert!(
            reasons(|r| matches!(r, Reason::Binary(_))),
            "binary reasons"
        );
        reduce_and_check(&mut s);
        // The rebuilt watchers and reasons still drive correct answers.
        s.backtrack(0);
        assert!(s.search().model().satisfies(&cnf));
        s.backtrack(0);
        s.unchecked_enqueue(from_dimacs(v(3, 2)), None);
        s.unchecked_enqueue(from_dimacs(v(4, 2)), None);
        assert_eq!(
            s.search(),
            SatResult::Unsat,
            "adjacent nodes must not share a color"
        );
    }

    /// A formula whose load leaves `n` binary clauses, `(x_i | x_{i+1})`
    /// for `i < n`, or with `ternary` `n` clauses `(x_i | x_{i+1} | x_{i+2})`.
    fn chain(n: i32, ternary: bool) -> Cnf {
        let mut cnf = Cnf::new();
        for v in 1..=n {
            if ternary {
                cnf.add_clause(&[v, v + 1, v + 2]);
            } else {
                cnf.add_clause(&[v, v + 1]);
            }
        }
        cnf
    }

    #[test]
    fn a_solver_grows_once_per_size_and_trims_to_its_latest_formula() {
        let (big, small) = (chain(4000, true), chain(3, true));
        let mut s = CdclSolver::new();
        // The arena is sized from the formula at load: one growth, and none
        // for a formula it has already held.
        assert_eq!(s.solve_with_stats(&big).stats.arena_reallocs, 1);
        assert_eq!(s.solve_with_stats(&big).stats.arena_reallocs, 0);
        assert_eq!(s.solve_with_stats(&small).stats.arena_reallocs, 0);
        let held = |s: &CdclSolver| {
            let watched: usize = s.watches.iter().map(Vec::capacity).sum();
            (s.arena.data.capacity(), watched)
        };
        let (arena, watched) = held(&s);
        assert!(arena >= 5 * 4000 && watched >= 2 * 4000);
        // Trimmed after the small formula: about what it took.
        s.trim();
        let (arena, watched) = held(&s);
        assert!(arena <= 2 * 5 * 3, "arena kept {arena} words");
        assert!(
            watched <= 16 * s.watches.len(),
            "watch lists kept {watched}"
        );
        // And the trimmed solver still answers as a fresh one.
        assert_eq!(s.solve(&big), CdclSolver::new().solve(&big));
    }

    #[test]
    fn binary_clauses_take_no_arena_slot() {
        let mut s = CdclSolver::new();
        let out = s.solve_with_stats(&chain(4000, false));
        assert!(out.result.is_sat());
        assert_eq!((out.stats.arena_bytes, out.stats.arena_reallocs), (0, 0));
        assert_eq!(binary_watchers(&s).len(), 2 * 4000);
        // A long clause that root units cut to two literals loads as one.
        let mut cnf = Cnf::new();
        cnf.add_clause(&[-1]);
        cnf.add_clause(&[1, 2, 3]);
        cnf.add_clause(&[1, 2, 2, 3]);
        let out = s.solve_with_stats(&cnf);
        assert!(out.result.is_sat());
        assert_eq!(out.stats.arena_bytes, 0);
        let (x2, x3) = (from_dimacs(2), from_dimacs(3));
        assert_eq!(
            binary_watchers(&s),
            [(x2, x3), (x2, x3), (x3, x2), (x3, x2)]
        );
    }

    /// `(x1 | x2 | x3) & (x1 | !x2 | x3)`: deciding `!x1` then `!x3` (the
    /// order the heap gives variables of equal activity) conflicts, and the
    /// clause learnt, `(x3 | x1)`, is binary. It takes no arena slot, yet is
    /// counted as a learnt clause, implies `x3` at level 1 with `x1` as its
    /// reason, and implies it again when `!x1` is decided anew.
    #[test]
    fn a_learnt_binary_becomes_a_reason() {
        let mut cnf = Cnf::new();
        cnf.add_clause(&[1, 2, 3]);
        cnf.add_clause(&[1, -2, 3]);
        let mut s = CdclSolver::new();
        s.reset(3);
        s.load_cnf(&cnf);
        let words = s.arena.data.len();
        let m = s.search().model();
        assert!(!m.value(1) && m.value(3) && m.satisfies(&cnf));
        assert_eq!((s.stats.conflicts, s.num_learnts), (1, 1));
        assert_eq!(s.arena.data.len(), words, "the learnt clause has no slot");
        let (x1, x3) = (from_dimacs(1), from_dimacs(3));
        assert_eq!(binary_watchers(&s), [(x1, x3), (x3, x1)]);
        assert_eq!(s.reason[2], Some(Reason::Binary(x1)));
        assert_eq!(s.level[2], 1);
        s.backtrack(0);
        s.trail_lim.push(s.trail.len());
        s.unchecked_enqueue(ineg(x1), None);
        assert_eq!(s.propagate(), None);
        assert_eq!(s.reason[2], Some(Reason::Binary(x1)));
    }

    /// `(x1 | x2) & (x1 | x3) & (!x2 | !x3)`: deciding `!x1` implies `x2`
    /// and `x3` through binary reasons, and walking `!x2`'s watch list
    /// finds the third clause false. The conflict comes out as a long
    /// clause's slot would hold it after the watch walk, `[!x3, !x2]`, and
    /// analysis resolves both binary reasons down to the unit `x1`.
    #[test]
    fn a_binary_conflict_is_analysed_to_the_decision() {
        let mut cnf = Cnf::new();
        cnf.add_clause(&[1, 2]);
        cnf.add_clause(&[1, 3]);
        cnf.add_clause(&[-2, -3]);
        let mut s = CdclSolver::new();
        s.reset(3);
        s.load_cnf(&cnf);
        assert!(s.arena.data.is_empty());
        let x = |v: i32| from_dimacs(v);
        s.trail_lim.push(s.trail.len());
        s.unchecked_enqueue(x(-1), None);
        let confl = s.propagate();
        assert_eq!(confl, Some(Clause::Binary(x(-3), x(-2))));
        assert_eq!(s.reason[1], Some(Reason::Binary(x(1))));
        assert_eq!(s.reason[2], Some(Reason::Binary(x(1))));
        let mut learnt = Vec::new();
        assert_eq!(s.analyze(confl.unwrap(), &mut learnt), 0);
        assert_eq!(learnt, [x(1)]);
        assert!(s.seen.iter().all(|&seen| !seen));
        let out = CdclSolver::new().solve_with_stats(&cnf);
        assert!(out.result.model().value(1));
        assert_eq!((out.stats.conflicts, out.stats.learnt_clauses), (1, 0));
    }

    proptest! {
        /// A `reduce_db` in the middle of a solver's life never loses,
        /// duplicates or corrupts a clause or a watcher: a search resumed
        /// after it still agrees with the DPLL reference.
        #[test]
        fn search_after_compaction_matches_dpll(
            clauses in prop::collection::vec(
                prop::collection::vec((1i32..=10, any::<bool>()), 1..=4),
                0..=40,
            ),
        ) {
            let mut cnf = Cnf::new();
            for cl in &clauses {
                let lits: Vec<i32> = cl.iter().map(|&(v, neg)| if neg { -v } else { v }).collect();
                cnf.add_clause(&lits);
            }
            let expected = crate::DpllSolver::new().solve(&cnf).is_sat();
            let (mut s, first) = search_behind_garbage(&cnf, 20);
            prop_assert_eq!(first.is_sat(), expected);
            if expected {
                reduce_and_check(&mut s);
                s.backtrack(0);
                match s.search() {
                    SatResult::Sat(m) => prop_assert!(m.satisfies(&cnf)),
                    other => prop_assert!(false, "resumed search said {:?}", other),
                }
            }
        }
    }
}
