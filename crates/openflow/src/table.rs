//! Flow table with OpenFlow 1.0 add/modify/delete semantics.
//!
//! The table keeps rules sorted by descending priority (insertion order
//! breaks ties, though the paper — footnote 1 — excludes same-priority
//! overlapping rules, whose behavior the OF spec leaves undefined). It
//! implements the full OF1.0 `flow_mod` command set including strict and
//! non-strict modify/delete and the `CHECK_OVERLAP` flag, because Monocle's
//! expected-state tracker (§2) must mirror exactly what a compliant switch
//! would do with the controller's commands.
//!
//! Lookups ([`FlowTable::lookup`], [`FlowTable::lookup_excluding`]) and
//! overlap scans ([`FlowTable::overlapping`], and
//! [`FlowTable::neighborhood`], which returns the same set as a table of
//! its own — what a probe planner is handed instead of a copy of the whole
//! table) are served by an incremental
//! [`TernaryClassifier`] maintained alongside the sorted rule vector under
//! every `flow_mod`; the O(rules) linear scans survive as
//! [`FlowTable::lookup_linear`] / [`FlowTable::lookup_excluding_linear`] /
//! [`FlowTable::overlapping_linear`] — the reference semantics the
//! classifier is property-tested against (`tests/prop_classifier.rs`).
//!
//! ## Ternary-rule invariant
//!
//! Rules inserted through [`FlowTable::add_rule_ternary`] carry an
//! arbitrary bit-level `tern` but the all-wildcard field-level `match_`
//! (OF1.0 matches cannot express per-bit wildcards). All *matching*
//! semantics — lookup, overlap, non-strict modify/delete subsumption —
//! read `tern` and treat such rules exactly; only **strict** modify/delete
//! compare the field-level `match_`, so a strict op identifies a ternary
//! rule iff it passes `Match::any()` at the rule's priority (and then hits
//! *every* ternary rule at that priority). The classifier relies on `tern`
//! being immutable for an installed rule: modify rewrites actions only, so
//! an entry's trie position never goes stale. This behavior is pinned by
//! `strict_ops_on_ternary_rules_use_wildcard_match`.
//!
//! ## Tables handed to planners
//!
//! A `FlowTable` has one owner. A planner on another thread keeps a table of
//! its own: a clone, advanced by the same FlowMods (`monocle::planner`), or,
//! for a pool job, the probed rule's [`FlowTable::neighborhood`] wrapped in
//! a [`SharedTable`]: immutable, never republished.

use crate::action::{ActionError, ActionProgram, Forwarding, PortNo};
use crate::classifier::TernaryClassifier;
use crate::flowmatch::{Match, Ternary};
use crate::headerspace::{Field, HeaderVec, FIELDS};
use crate::messages::{FlowMod, FlowModCommand};
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Identifier of a rule within one table (unique per table instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u64);

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Multiplicative (FxHash-style) hasher for maps keyed by [`RuleId`]s and
/// other table-allocated integers. Such keys are counters this program
/// hands out, never bytes read off the wire, so SipHash's protection against
/// crafted collisions buys nothing there and costs most of a lookup.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` over [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// A `HashSet` over [`IdHasher`].
pub type IdHashSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// A rule installed in a flow table, with its compiled forms cached.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Table-unique identifier.
    pub id: RuleId,
    /// Priority (higher wins).
    pub priority: u16,
    /// Field-level match.
    pub match_: Match,
    /// Compiled ternary form of `match_`.
    pub tern: Ternary,
    /// The raw action list.
    pub actions: ActionProgram,
    /// Compiled forwarding summary of `actions`.
    pub fwd: Forwarding,
    /// Controller-assigned cookie.
    pub cookie: u64,
    /// [`Rule::signature`] of the fields above, hashed once when the rule is
    /// built or modified.
    sig: u64,
}

impl Rule {
    /// Builds a rule (compiling match and actions); `id` is assigned by the
    /// table on insert.
    fn build(
        priority: u16,
        match_: Match,
        actions: ActionProgram,
        cookie: u64,
    ) -> Result<Rule, TableError> {
        let fwd = Forwarding::compile(&actions).map_err(TableError::BadActions)?;
        Ok(Rule::from_parts(
            priority,
            match_,
            match_.ternary(),
            actions,
            fwd,
            cookie,
        ))
    }

    fn from_parts(
        priority: u16,
        match_: Match,
        tern: Ternary,
        actions: ActionProgram,
        fwd: Forwarding,
        cookie: u64,
    ) -> Rule {
        Rule {
            id: RuleId(0),
            priority,
            match_,
            tern,
            sig: Rule::signature(priority, &tern, &fwd),
            actions,
            fwd,
            cookie,
        }
    }

    /// Content signature: a hash of everything probe generation reads off a
    /// rule (priority, ternary, forwarding behavior).
    pub fn signature(priority: u16, tern: &Ternary, fwd: &Forwarding) -> u64 {
        let mut h = DefaultHasher::new();
        priority.hash(&mut h);
        tern.hash(&mut h);
        fwd.hash(&mut h);
        h.finish()
    }

    /// The stored [`Rule::signature`] of this rule (never re-hashed on read;
    /// carried by clones).
    pub fn sig(&self) -> u64 {
        self.sig
    }

    /// This rule's term of [`FlowTable::fingerprint`].
    fn fp_term(&self) -> u64 {
        fingerprint_term(self.id, self.sig)
    }
}

/// One rule's term of [`FlowTable::fingerprint`]: the splitmix64 finalizer
/// over (id, signature). Well-spread terms keep the wrapping sum as
/// collision-resistant as a 64-bit hash can be. Public so that a holder of
/// (id, signature) pairs can maintain the fingerprint of its own copy.
pub fn fingerprint_term(id: RuleId, sig: u64) -> u64 {
    let mut z = sig ^ id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Errors surfaced by table operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// Action list failed to compile.
    BadActions(ActionError),
    /// `CHECK_OVERLAP` was set and the new rule overlaps an existing rule at
    /// the same priority (OF1.0 `OFPFMFC_OVERLAP`).
    Overlap(RuleId),
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::BadActions(e) => write!(f, "bad action list: {e}"),
            TableError::Overlap(id) => write!(f, "overlap check failed against {id}"),
        }
    }
}

impl std::error::Error for TableError {}

/// Net effect of applying a `flow_mod`, reported to the caller (the proxy
/// uses this to know which rules to start or stop monitoring).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ApplyResult {
    /// Rules newly inserted.
    pub added: Vec<RuleId>,
    /// Rules whose actions were updated in place.
    pub modified: Vec<RuleId>,
    /// Rules removed.
    pub removed: Vec<RuleId>,
}

/// The ids whose [`FlowTable::fingerprint`] term moved, in order, as far
/// back as the bound keeps them: entry `i` of `ids` is change number
/// `base + i` of the table's history.
#[derive(Debug, Clone, Default)]
struct ChangeLog {
    ids: Vec<RuleId>,
    base: u64,
}

impl ChangeLog {
    /// Logs `id`. Past `2·table_len + 64` ids the older half goes: a reader
    /// that far behind re-reads the table instead, for about what the log
    /// would have cost it, and the drain is amortized over as many pushes.
    fn push(&mut self, id: RuleId, table_len: usize) {
        self.ids.push(id);
        if self.ids.len() > 2 * table_len + 64 {
            let half = self.ids.len() / 2;
            self.ids.drain(..half);
            self.base += half as u64;
        }
    }

    fn version(&self) -> u64 {
        self.base + self.ids.len() as u64
    }

    fn since(&self, version: u64) -> Option<&[RuleId]> {
        let off = usize::try_from(version.checked_sub(self.base)?).ok()?;
        self.ids.get(off..)
    }
}

/// A priority-ordered OpenFlow 1.0 flow table.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    /// Sorted by (priority desc, insertion seq asc). Ids are allocated
    /// monotonically, so this order equals (priority desc, id asc) — the
    /// key [`Self::rule_by_key`] binary-searches on.
    rules: Vec<Rule>,
    /// Each rule's priority by id: with the sort key above, [`Self::get`]
    /// in O(1 + log n). Kept in lockstep by every mutation.
    priority_of: IdHashMap<RuleId, u16>,
    /// Trie index over `rules`, kept in lockstep by every mutation.
    classifier: TernaryClassifier,
    next_id: u64,
    /// See [`Self::fingerprint`]; kept in lockstep by every mutation.
    fp: u64,
    /// See [`Self::changes_since`]; appended wherever `fp` moves.
    log: ChangeLog,
    /// Per field, in [`FIELDS`] order: how many rules care about at least
    /// one bit of it. See [`Self::rules_caring`]; kept in lockstep by every
    /// mutation, like `fp`.
    care_counts: [usize; FIELDS.len()],
}

/// Adds one to (`add`), or takes one from, the count of each field `tern`
/// cares about, reading each field through its word mask.
fn tally_cares(counts: &mut [usize; FIELDS.len()], tern: &Ternary, add: bool) {
    for (n, f) in counts.iter_mut().zip(FIELDS) {
        if tern.care.intersects(f.mask()) {
            if add {
                *n += 1;
            } else {
                *n -= 1;
            }
        }
    }
}

impl FlowTable {
    /// Empty table.
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Rules in priority order (highest first).
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Finds a rule by id.
    pub fn get(&self, id: RuleId) -> Option<&Rule> {
        let &priority = self.priority_of.get(&id)?;
        Some(self.rule_by_key(priority, id))
    }

    /// Content fingerprint of the table: the wrapping sum of one well-mixed
    /// term per rule over its id and stored [`Rule::sig`], maintained by
    /// every mutation, so reading it is O(1). A commutative sum is enough
    /// because rule order is a function of the rule set (priority desc, id
    /// asc): two tables with the same (id, content) pairs are the same table.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// [`Self::fingerprint`] recomputed from the rules, every signature
    /// re-hashed: the oracle the maintained value is tested against.
    pub fn fingerprint_from_scratch(&self) -> u64 {
        self.rules.iter().fold(0u64, |fp, r| {
            let sig = Rule::signature(r.priority, &r.tern, &r.fwd);
            fp.wrapping_add(fingerprint_term(r.id, sig))
        })
    }

    /// How many rules care about at least one bit of `f`: maintained by every
    /// mutation, so reading it is O(1). Probe repair (§5.2) asks it whether
    /// any rule constrains a field before it scans the rules for the values
    /// they use.
    pub fn rules_caring(&self, f: Field) -> usize {
        self.care_counts[f as usize]
    }

    /// [`Self::rules_caring`] for every field, in [`FIELDS`] order, recounted
    /// from the rules bit by bit: the oracle the maintained counts are tested
    /// against.
    pub fn care_counts_from_scratch(&self) -> [usize; FIELDS.len()] {
        FIELDS.map(|f| {
            let off = f.offset();
            self.rules
                .iter()
                .filter(|r| (0..f.width()).any(|i| r.tern.care.get(off + i)))
                .count()
        })
    }

    /// Position in this table's change history: the number of
    /// [`Self::fingerprint`] terms that have moved since it was created
    /// (a clone carries the history; a [`Self::neighborhood`] starts its
    /// own at 0).
    pub fn version(&self) -> u64 {
        self.log.version()
    }

    /// The ids whose fingerprint term moved since [`Self::version`] read
    /// `version` — a rule added, removed, or modified in place, possibly
    /// more than once and possibly back — or `None` when the table no
    /// longer remembers that far (it keeps about `2·len + 64` ids) or never
    /// reached `version`. Only a reader that last saw *this* table's history
    /// at `version` learns the whole delta from it: a table cloned before
    /// that point and edited since has a history of its own, which is why a
    /// consumer checks the [`Self::fingerprint`] after applying these.
    pub fn changes_since(&self, version: u64) -> Option<&[RuleId]> {
        self.log.since(version)
    }

    /// Inserts a rule directly (ADD semantics without flags). Returns the
    /// assigned id.
    pub fn add_rule(
        &mut self,
        priority: u16,
        match_: Match,
        actions: ActionProgram,
    ) -> Result<RuleId, TableError> {
        let fm = FlowMod {
            command: FlowModCommand::Add,
            priority,
            match_,
            actions,
            cookie: 0,
            idle_timeout: 0,
            hard_timeout: 0,
            check_overlap: false,
        };
        let res = self.apply(&fm)?;
        Ok(res.added[0])
    }

    /// Applies an OF1.0 `flow_mod`.
    pub fn apply(&mut self, fm: &FlowMod) -> Result<ApplyResult, TableError> {
        match fm.command {
            FlowModCommand::Add => self.do_add(fm),
            FlowModCommand::Modify => self.do_modify(fm, false),
            FlowModCommand::ModifyStrict => self.do_modify(fm, true),
            FlowModCommand::Delete => Ok(self.do_delete(fm, false)),
            FlowModCommand::DeleteStrict => Ok(self.do_delete(fm, true)),
        }
    }

    fn do_add(&mut self, fm: &FlowMod) -> Result<ApplyResult, TableError> {
        let new = Rule::build(fm.priority, fm.match_, fm.actions.clone(), fm.cookie)?;
        if fm.check_overlap {
            if let Some(conflict) = self
                .rules
                .iter()
                .find(|r| r.priority == new.priority && r.tern.overlaps(&new.tern))
            {
                return Err(TableError::Overlap(conflict.id));
            }
        }
        let mut result = ApplyResult::default();
        // OF1.0: an ADD with identical match and priority replaces the entry.
        if let Some(pos) = self
            .rules
            .iter()
            .position(|r| r.priority == new.priority && r.match_ == new.match_)
        {
            let old = self.remove_at(pos);
            result.removed.push(old.id);
        }
        let id = self.insert_sorted(new);
        result.added.push(id);
        Ok(result)
    }

    fn do_modify(&mut self, fm: &FlowMod, strict: bool) -> Result<ApplyResult, TableError> {
        // Validate actions up front so a bad program cannot half-apply.
        let fwd = Forwarding::compile(&fm.actions).map_err(TableError::BadActions)?;
        let tern = fm.match_.ternary();
        let mut result = ApplyResult::default();
        let len = self.rules.len();
        for r in &mut self.rules {
            let hit = if strict {
                r.priority == fm.priority && r.match_ == fm.match_
            } else {
                tern.subsumes(&r.tern)
            };
            if hit {
                self.fp = self.fp.wrapping_sub(r.fp_term());
                r.actions = fm.actions.clone();
                r.fwd = fwd.clone();
                r.cookie = fm.cookie;
                r.sig = Rule::signature(r.priority, &r.tern, &r.fwd);
                self.fp = self.fp.wrapping_add(r.fp_term());
                self.log.push(r.id, len);
                result.modified.push(r.id);
            }
        }
        if result.modified.is_empty() {
            // OF1.0: MODIFY with no matching entry behaves like ADD.
            return self.do_add(fm);
        }
        Ok(result)
    }

    fn do_delete(&mut self, fm: &FlowMod, strict: bool) -> ApplyResult {
        let tern = fm.match_.ternary();
        let mut result = ApplyResult::default();
        // Pre-pass: unindex the victims, then retain() in place so a no-op
        // delete allocates and moves nothing.
        let len = self.rules.len();
        for r in &self.rules {
            let hit = if strict {
                r.priority == fm.priority && r.match_ == fm.match_
            } else {
                tern.subsumes(&r.tern)
            };
            if hit {
                self.classifier.remove(r.id, &r.tern);
                self.priority_of.remove(&r.id);
                self.fp = self.fp.wrapping_sub(r.fp_term());
                tally_cares(&mut self.care_counts, &r.tern, false);
                self.log.push(r.id, len);
                result.removed.push(r.id);
            }
        }
        if !result.removed.is_empty() {
            // `removed` was collected in table order, so one cursor suffices.
            let removed = &result.removed;
            let mut next = 0;
            self.rules.retain(|r| {
                if next < removed.len() && removed[next] == r.id {
                    next += 1;
                    false
                } else {
                    true
                }
            });
        }
        result
    }

    fn insert_sorted(&mut self, mut rule: Rule) -> RuleId {
        self.next_id += 1;
        rule.id = RuleId(self.next_id);
        let id = rule.id;
        self.classifier.insert(rule.priority, rule.id, rule.tern);
        self.priority_of.insert(id, rule.priority);
        self.fp = self.fp.wrapping_add(rule.fp_term());
        tally_cares(&mut self.care_counts, &rule.tern, true);
        self.log.push(id, self.rules.len() + 1);
        // First index with strictly lower priority: keeps insertion order
        // stable among equal priorities.
        let pos = self.rules.partition_point(|r| r.priority >= rule.priority);
        self.rules.insert(pos, rule);
        id
    }

    /// Removes the rule at vector position `pos`, unindexing it.
    fn remove_at(&mut self, pos: usize) -> Rule {
        let rule = self.rules.remove(pos);
        self.classifier.remove(rule.id, &rule.tern);
        self.priority_of.remove(&rule.id);
        self.fp = self.fp.wrapping_sub(rule.fp_term());
        tally_cares(&mut self.care_counts, &rule.tern, false);
        self.log.push(rule.id, self.rules.len());
        rule
    }

    /// Position of an installed rule in the rule vector: binary search on
    /// its (priority desc, id asc) sort key.
    fn pos_by_key(&self, priority: u16, id: RuleId) -> usize {
        self.rules
            .binary_search_by_key(&(Reverse(priority), id), |r| (Reverse(r.priority), r.id))
            .expect("indexed rule must exist in the rule vector")
    }

    /// Resolves a classifier (or id index) answer back to its rule.
    fn rule_by_key(&self, priority: u16, id: RuleId) -> &Rule {
        &self.rules[self.pos_by_key(priority, id)]
    }

    /// Inserts a rule from a raw bit-level ternary. OpenFlow 1.0 matches
    /// cannot express arbitrary per-bit wildcards, but Monocle's probe
    /// theory operates at the ternary level; this entry point exists for
    /// the Appendix A SAT reduction and theory-level tests. The rule's
    /// field-level `match_` is left as the wildcard match, so a strict
    /// modify/delete only identifies such a rule via `Match::any()` at its
    /// priority (and then hits every ternary rule installed there) — see
    /// the module-level "Ternary-rule invariant". All other semantics,
    /// including the classifier index, operate on `tern` and are exact.
    pub fn add_rule_ternary(
        &mut self,
        priority: u16,
        tern: Ternary,
        actions: ActionProgram,
    ) -> RuleId {
        let fwd = Forwarding::compile(&actions).expect("valid actions");
        self.insert_sorted(Rule::from_parts(
            priority,
            Match::any(),
            tern,
            actions,
            fwd,
            0,
        ))
    }

    /// Removes a rule by id (simulator fault injection uses this to model a
    /// rule silently vanishing from the data plane).
    pub fn remove_by_id(&mut self, id: RuleId) -> Option<Rule> {
        let &priority = self.priority_of.get(&id)?;
        Some(self.remove_at(self.pos_by_key(priority, id)))
    }

    /// Highest-priority rule matching `pkt` (ties: earliest installed).
    /// Served by the trie classifier; [`Self::lookup_linear`] is the
    /// equivalent reference scan.
    pub fn lookup(&self, pkt: &HeaderVec) -> Option<&Rule> {
        let (priority, id) = self.classifier.best_match(pkt)?;
        Some(self.rule_by_key(priority, id))
    }

    /// As [`Self::lookup`] but ignoring rule `skip`: the "table without R"
    /// view probe verification needs, without cloning the table.
    pub fn lookup_excluding(&self, pkt: &HeaderVec, skip: RuleId) -> Option<&Rule> {
        let (priority, id) = self.classifier.best_match_excluding(pkt, skip)?;
        Some(self.rule_by_key(priority, id))
    }

    /// Linear-scan reference for [`Self::lookup`] (kept for property tests
    /// and the trie-vs-linear bench arms).
    pub fn lookup_linear(&self, pkt: &HeaderVec) -> Option<&Rule> {
        self.rules.iter().find(|r| r.tern.matches(pkt))
    }

    /// Linear-scan reference for [`Self::lookup_excluding`].
    pub fn lookup_excluding_linear(&self, pkt: &HeaderVec, skip: RuleId) -> Option<&Rule> {
        self.rules
            .iter()
            .find(|r| r.id != skip && r.tern.matches(pkt))
    }

    /// Processes a packet: looks up the matching rule and returns the output
    /// legs `(port, rewritten header)`. For ECMP rules, `ecmp_choice` picks
    /// the leg (e.g. a flow hash modulo leg count). Returns an empty vector
    /// on table miss or drop (OF1.0 table miss = drop). A zero-leg ECMP
    /// forwarding (not constructible via [`Forwarding::compile`], which
    /// rejects empty `SelectOutput`, but expressible by hand-built
    /// [`Forwarding`] values) is treated as drop rather than panicking.
    pub fn process(&self, pkt: &HeaderVec, ecmp_choice: usize) -> Vec<(PortNo, HeaderVec)> {
        match self.lookup(pkt) {
            None => Vec::new(),
            Some(rule) => match rule.fwd.kind {
                crate::action::ForwardingKind::Multicast => rule
                    .fwd
                    .legs
                    .iter()
                    .map(|l| (l.port, l.rewrite.apply(pkt)))
                    .collect(),
                crate::action::ForwardingKind::Ecmp => match rule.fwd.legs.len() {
                    0 => Vec::new(),
                    n => {
                        let leg = &rule.fwd.legs[ecmp_choice % n];
                        vec![(leg.port, leg.rewrite.apply(pkt))]
                    }
                },
            },
        }
    }

    /// Rules overlapping `tern` (the §5.4 pre-filter input), in priority
    /// order. Served by the trie classifier; [`Self::overlapping_linear`]
    /// is the equivalent reference scan. On sparse neighborhoods (the
    /// Fig. 8 shape) this is ~10× the linear scan; when nearly the whole
    /// table overlaps the query (dense ACL neighborhoods) it degrades
    /// gracefully to parity, never below (see `BENCH_table_lookup.json`).
    pub fn overlapping(&self, tern: &Ternary) -> Vec<&Rule> {
        self.resolve_keys(self.classifier.overlapping(tern))
    }

    /// As [`Self::overlapping`] but ignoring rule `skip` — the engine's
    /// §5.4 overlap-neighborhood query (probed rule excluded) without a
    /// post-filter pass.
    pub fn overlapping_excluding(&self, tern: &Ternary, skip: RuleId) -> Vec<&Rule> {
        self.resolve_keys(self.classifier.overlapping_excluding(tern, skip))
    }

    /// The sub-table of rules overlapping `tern`, copied verbatim: same
    /// [`RuleId`]s, same order, `next_id` carried over, own classifier, own
    /// fingerprint summed from the stored signatures, own
    /// [`Self::rules_caring`] counts, empty change history.
    ///
    /// Any rule that can match a header matching rule R overlaps R, so
    /// [`Self::lookup`], [`Self::lookup_excluding`] and [`Self::process`]
    /// answer identically on `neighborhood(&R.tern)` and on `self` for
    /// every header inside R — which makes it the only part of the table
    /// probe planning for R has to see. Built from [`Self::overlapping`],
    /// never through [`Self::add_rule`], whose ADD-replaces-identical-key
    /// semantics would merge [`Self::add_rule_ternary`] rules sharing
    /// `Match::any()` at one priority.
    pub fn neighborhood(&self, tern: &Ternary) -> FlowTable {
        let rules: Vec<Rule> = self.overlapping(tern).into_iter().cloned().collect();
        let mut classifier = TernaryClassifier::new();
        let mut priority_of = IdHashMap::default();
        priority_of.reserve(rules.len());
        let mut fp = 0u64;
        let mut care_counts = [0; FIELDS.len()];
        for r in &rules {
            classifier.insert(r.priority, r.id, r.tern);
            priority_of.insert(r.id, r.priority);
            fp = fp.wrapping_add(r.fp_term());
            tally_cares(&mut care_counts, &r.tern, true);
        }
        FlowTable {
            rules,
            priority_of,
            classifier,
            next_id: self.next_id,
            fp,
            log: ChangeLog::default(),
            care_counts,
        }
    }

    /// Resolves classifier keys (already in table order) back to rules.
    /// Both sides are sorted by (priority desc, id asc), so a sparse result
    /// set resolves by per-key binary search (O(k log n)) and a dense one —
    /// the ACL-style neighborhoods where most of the table overlaps — by a
    /// single merge pass (O(n + k)); pick whichever is cheaper.
    fn resolve_keys(&self, keys: Vec<(u16, RuleId)>) -> Vec<&Rule> {
        let n = self.rules.len();
        let log_n = usize::BITS - n.leading_zeros();
        if keys.len() * log_n as usize + 1 < n {
            return keys
                .into_iter()
                .map(|(p, id)| self.rule_by_key(p, id))
                .collect();
        }
        let want = keys.len();
        let mut out = Vec::with_capacity(want);
        let mut it = self.rules.iter();
        for (priority, id) in keys {
            for r in it.by_ref() {
                if r.priority == priority && r.id == id {
                    out.push(r);
                    break;
                }
            }
        }
        debug_assert_eq!(out.len(), want, "classifier key missing from table");
        out
    }

    /// Linear-scan reference for [`Self::overlapping`].
    pub fn overlapping_linear(&self, tern: &Ternary) -> Vec<&Rule> {
        self.rules
            .iter()
            .filter(|r| r.tern.overlaps(tern))
            .collect()
    }
}

/// An immutable flow table as a planning job sees it.
#[derive(Debug)]
pub struct TableSnapshot {
    /// Always 0: a job's table is never republished. Kept, like
    /// [`SharedTable`] itself, because `benchmark/` reads it.
    pub epoch: u64,
    /// The table.
    pub table: FlowTable,
}

/// The table a planning job (`monocle::pool::ProbeJob`) owns: immutable
/// from construction, dropped with the job. A wrapper rather than a plain
/// `Arc<FlowTable>` only because `benchmark/` is compiled against these
/// names.
#[derive(Debug)]
pub struct SharedTable {
    snap: Arc<TableSnapshot>,
}

impl SharedTable {
    /// Wraps `table`.
    pub fn new(table: FlowTable) -> SharedTable {
        SharedTable {
            snap: Arc::new(TableSnapshot { epoch: 0, table }),
        }
    }

    /// The table, shared (an `Arc` clone).
    pub fn snapshot(&self) -> Arc<TableSnapshot> {
        Arc::clone(&self.snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::flowmatch::packet_to_headervec;
    use monocle_packet::PacketFields;

    fn pkt(src: [u8; 4], dst: [u8; 4]) -> HeaderVec {
        packet_to_headervec(
            1,
            &PacketFields {
                nw_src: src,
                nw_dst: dst,
                ..Default::default()
            },
        )
    }

    fn fm(
        command: FlowModCommand,
        priority: u16,
        match_: Match,
        actions: ActionProgram,
    ) -> FlowMod {
        FlowMod {
            command,
            priority,
            match_,
            actions,
            cookie: 0,
            idle_timeout: 0,
            hard_timeout: 0,
            check_overlap: false,
        }
    }

    /// The flow table from Figure 1 of the paper.
    fn figure1_table() -> FlowTable {
        let mut t = FlowTable::new();
        t.add_rule(
            10,
            Match::any().with_nw_src([10, 0, 0, 1], 32),
            vec![Action::Output(1)], // -> A
        )
        .unwrap();
        t.add_rule(1, Match::any(), vec![Action::Output(2)]) // -> B
            .unwrap();
        t
    }

    #[test]
    fn priority_lookup_figure1() {
        let t = figure1_table();
        let probe = pkt([10, 0, 0, 1], [10, 0, 0, 2]);
        let out = t.process(&probe, 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 1, "matches rule 1 -> port A");
        let other = pkt([10, 0, 0, 9], [10, 0, 0, 2]);
        assert_eq!(t.process(&other, 0)[0].0, 2, "falls to default -> port B");
    }

    #[test]
    fn table_miss_drops() {
        let mut t = FlowTable::new();
        t.add_rule(
            5,
            Match::any().with_nw_src([1, 1, 1, 1], 32),
            vec![Action::Output(1)],
        )
        .unwrap();
        assert!(t.process(&pkt([2, 2, 2, 2], [3, 3, 3, 3]), 0).is_empty());
    }

    #[test]
    fn add_replaces_identical_match_and_priority() {
        let mut t = FlowTable::new();
        let m = Match::any().with_nw_dst([10, 0, 0, 5], 32);
        t.add_rule(7, m, vec![Action::Output(1)]).unwrap();
        let res = t
            .apply(&fm(FlowModCommand::Add, 7, m, vec![Action::Output(2)]))
            .unwrap();
        assert_eq!(res.added.len(), 1);
        assert_eq!(res.removed.len(), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.rules()[0].fwd.legs[0].port, 2);
    }

    #[test]
    fn add_same_match_different_priority_coexist() {
        let mut t = FlowTable::new();
        let m = Match::any().with_nw_dst([10, 0, 0, 5], 32);
        t.add_rule(7, m, vec![Action::Output(1)]).unwrap();
        t.add_rule(8, m, vec![Action::Output(2)]).unwrap();
        assert_eq!(t.len(), 2);
        // higher priority first
        assert_eq!(t.rules()[0].priority, 8);
    }

    #[test]
    fn check_overlap_flag() {
        let mut t = FlowTable::new();
        t.add_rule(
            5,
            Match::any().with_nw_src([10, 0, 0, 0], 24),
            vec![Action::Output(1)],
        )
        .unwrap();
        let mut f = fm(
            FlowModCommand::Add,
            5,
            Match::any().with_nw_src([10, 0, 0, 7], 32),
            vec![Action::Output(2)],
        );
        f.check_overlap = true;
        assert!(matches!(t.apply(&f), Err(TableError::Overlap(_))));
        // Different priority: no overlap error.
        f.priority = 6;
        assert!(t.apply(&f).is_ok());
    }

    #[test]
    fn nonstrict_delete_uses_subsumption() {
        let mut t = FlowTable::new();
        t.add_rule(
            5,
            Match::any().with_nw_src([10, 0, 0, 1], 32),
            vec![Action::Output(1)],
        )
        .unwrap();
        t.add_rule(
            6,
            Match::any().with_nw_src([10, 0, 5, 5], 32),
            vec![Action::Output(2)],
        )
        .unwrap();
        t.add_rule(
            7,
            Match::any().with_nw_src([11, 0, 0, 1], 32),
            vec![Action::Output(3)],
        )
        .unwrap();
        // Delete everything under 10.0.0.0/8 regardless of priority.
        let res = t
            .apply(&fm(
                FlowModCommand::Delete,
                0,
                Match::any().with_nw_src([10, 0, 0, 0], 8),
                vec![],
            ))
            .unwrap();
        assert_eq!(res.removed.len(), 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.rules()[0].fwd.legs[0].port, 3);
    }

    #[test]
    fn strict_delete_needs_exact_match_and_priority() {
        let mut t = FlowTable::new();
        let m = Match::any().with_nw_src([10, 0, 0, 1], 32);
        t.add_rule(5, m, vec![Action::Output(1)]).unwrap();
        // Wrong priority: no-op.
        let res = t
            .apply(&fm(FlowModCommand::DeleteStrict, 4, m, vec![]))
            .unwrap();
        assert!(res.removed.is_empty());
        // Exact: removed.
        let res = t
            .apply(&fm(FlowModCommand::DeleteStrict, 5, m, vec![]))
            .unwrap();
        assert_eq!(res.removed.len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn nonstrict_modify_updates_all_subsumed() {
        let mut t = FlowTable::new();
        t.add_rule(
            5,
            Match::any().with_nw_src([10, 0, 0, 1], 32),
            vec![Action::Output(1)],
        )
        .unwrap();
        t.add_rule(
            9,
            Match::any().with_nw_src([10, 0, 0, 2], 32),
            vec![Action::Output(1)],
        )
        .unwrap();
        let res = t
            .apply(&fm(
                FlowModCommand::Modify,
                0,
                Match::any().with_nw_src([10, 0, 0, 0], 24),
                vec![Action::Output(9)],
            ))
            .unwrap();
        assert_eq!(res.modified.len(), 2);
        assert!(t.rules().iter().all(|r| r.fwd.legs[0].port == 9));
        // Matches (and priorities) unchanged.
        assert_eq!(t.rules()[0].priority, 9);
    }

    #[test]
    fn modify_with_no_match_acts_as_add() {
        let mut t = FlowTable::new();
        let res = t
            .apply(&fm(
                FlowModCommand::Modify,
                3,
                Match::any().with_tp_dst(80),
                vec![Action::Output(1)],
            ))
            .unwrap();
        assert_eq!(res.added.len(), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn modify_strict_priority_sensitive() {
        let mut t = FlowTable::new();
        let m = Match::any().with_tp_dst(22);
        t.add_rule(5, m, vec![Action::Output(1)]).unwrap();
        let res = t
            .apply(&fm(
                FlowModCommand::ModifyStrict,
                6,
                m,
                vec![Action::Output(2)],
            ))
            .unwrap();
        // No strict match at priority 6 -> behaves as ADD.
        assert_eq!(res.added.len(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn ecmp_processing_picks_one_leg() {
        let mut t = FlowTable::new();
        t.add_rule(
            1,
            Match::any(),
            vec![Action::SelectOutput(vec![10, 20, 30])],
        )
        .unwrap();
        let p = pkt([1, 1, 1, 1], [2, 2, 2, 2]);
        assert_eq!(t.process(&p, 0), vec![(10, p)]);
        assert_eq!(t.process(&p, 1), vec![(20, p)]);
        assert_eq!(t.process(&p, 5), vec![(30, p)]);
    }

    #[test]
    fn multicast_processing_emits_all_legs() {
        let mut t = FlowTable::new();
        t.add_rule(
            1,
            Match::any(),
            vec![Action::Output(1), Action::SetNwTos(9), Action::Output(2)],
        )
        .unwrap();
        let p = pkt([1, 1, 1, 1], [2, 2, 2, 2]);
        let out = t.process(&p, 0);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, 1);
        assert_eq!(out[0].1, p);
        assert_eq!(out[1].0, 2);
        assert_ne!(out[1].1, p);
    }

    #[test]
    fn overlapping_prefilter() {
        let mut t = FlowTable::new();
        t.add_rule(
            5,
            Match::any().with_nw_src([10, 0, 0, 1], 32),
            vec![Action::Output(1)],
        )
        .unwrap();
        t.add_rule(
            6,
            Match::any().with_nw_src([10, 0, 0, 2], 32),
            vec![Action::Output(1)],
        )
        .unwrap();
        t.add_rule(1, Match::any(), vec![Action::Output(2)])
            .unwrap();
        let probe_rule = Match::any().with_nw_src([10, 0, 0, 1], 32).ternary();
        let ov = t.overlapping(&probe_rule);
        // Rule for 10.0.0.2 is disjoint; wildcard and self overlap.
        assert_eq!(ov.len(), 2);
    }

    #[test]
    fn remove_by_id_fault_injection() {
        let mut t = FlowTable::new();
        let id = t
            .add_rule(5, Match::any(), vec![Action::Output(1)])
            .unwrap();
        assert!(t.remove_by_id(id).is_some());
        assert!(t.remove_by_id(id).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn zero_leg_ecmp_processes_as_drop() {
        // `Forwarding::compile` rejects empty SelectOutput, so a zero-leg
        // ECMP forwarding can only be built by hand — but `process` must
        // still not divide by zero (regression: it used to panic on
        // `ecmp_choice % legs.len()`).
        let mut t = FlowTable::new();
        t.insert_sorted(Rule::from_parts(
            5,
            Match::any(),
            Match::any().ternary(),
            vec![],
            Forwarding {
                kind: crate::action::ForwardingKind::Ecmp,
                legs: vec![],
            },
            0,
        ));
        let p = pkt([1, 2, 3, 4], [5, 6, 7, 8]);
        assert!(t.process(&p, 7).is_empty(), "zero-leg ECMP is a drop");
        // And the constructible invariant: compile rejects the program that
        // would produce it.
        assert_eq!(
            Forwarding::compile(&[Action::SelectOutput(vec![])]),
            Err(crate::action::ActionError::EmptySelect)
        );
    }

    #[test]
    fn strict_ops_on_ternary_rules_use_wildcard_match() {
        // Pins the module-level "Ternary-rule invariant": rules installed
        // via add_rule_ternary carry match_ = Match::any(), so strict
        // modify/delete identify them only through the wildcard match.
        let mut t = FlowTable::new();
        let tern = Match::any().with_nw_src([10, 0, 0, 1], 32).ternary();
        let id = t.add_rule_ternary(5, tern, vec![Action::Output(1)]);
        // Strict delete by the *semantic* match does not find the rule.
        let res = t
            .apply(&fm(
                FlowModCommand::DeleteStrict,
                5,
                Match::any().with_nw_src([10, 0, 0, 1], 32),
                vec![],
            ))
            .unwrap();
        assert!(res.removed.is_empty(), "field-level strict miss");
        assert!(t.get(id).is_some());
        // Strict modify via Match::any() at the right priority hits it.
        let res = t
            .apply(&fm(
                FlowModCommand::ModifyStrict,
                5,
                Match::any(),
                vec![Action::Output(9)],
            ))
            .unwrap();
        assert_eq!(res.modified, vec![id]);
        // The ternary itself is untouched: lookups still use the bit-level
        // match (classifier position unchanged).
        assert!(t.lookup(&pkt([10, 0, 0, 1], [9, 9, 9, 9])).is_some());
        assert!(t.lookup(&pkt([10, 0, 0, 2], [9, 9, 9, 9])).is_none());
        // Strict delete via Match::any() removes it.
        let res = t
            .apply(&fm(FlowModCommand::DeleteStrict, 5, Match::any(), vec![]))
            .unwrap();
        assert_eq!(res.removed, vec![id]);
        assert!(t.is_empty());
    }

    #[test]
    fn classifier_agrees_with_linear_reference() {
        let mut t = FlowTable::new();
        for i in 0..60u8 {
            t.add_rule(
                u16::from(i % 4),
                Match::any().with_nw_dst([10, 0, i / 8, i], 32 - (i % 2) * 8),
                vec![Action::Output(u16::from(i))],
            )
            .unwrap();
        }
        t.add_rule(0, Match::any(), vec![Action::Output(99)])
            .unwrap();
        let probes: Vec<HeaderVec> = (0..80u8)
            .map(|i| pkt([10, 0, i / 8, i], [1, 1, 1, 1]))
            .collect();
        for p in &probes {
            assert_eq!(t.lookup(p).map(|r| r.id), t.lookup_linear(p).map(|r| r.id));
        }
        for r in t.rules().to_vec() {
            for p in &probes {
                assert_eq!(
                    t.lookup_excluding(p, r.id).map(|x| x.id),
                    t.lookup_excluding_linear(p, r.id).map(|x| x.id)
                );
            }
            let trie: Vec<RuleId> = t.overlapping(&r.tern).iter().map(|x| x.id).collect();
            let lin: Vec<RuleId> = t.overlapping_linear(&r.tern).iter().map(|x| x.id).collect();
            assert_eq!(trie, lin, "overlap sets and order agree");
        }
    }

    #[test]
    fn rule_ids_are_unique_and_stable() {
        let mut t = FlowTable::new();
        let a = t.add_rule(1, Match::any().with_tp_src(1), vec![]).unwrap();
        let b = t.add_rule(2, Match::any().with_tp_src(2), vec![]).unwrap();
        assert_ne!(a, b);
        assert!(t.get(a).is_some());
        assert_eq!(t.get(b).unwrap().priority, 2);
    }
}
