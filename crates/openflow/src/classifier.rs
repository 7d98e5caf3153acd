//! Incremental ternary-trie packet classifier backing [`crate::FlowTable`].
//!
//! The seed implementation answered `lookup`, `lookup_excluding` and
//! `overlapping` with an O(rules) linear scan over the priority-sorted rule
//! vector. That scan is the hot loop of both the switchsim data plane
//! (every simulated frame) and the engine's §5.4 overlap pre-filter (every
//! probe generation), and it dominates Fig. 8 large-network runs now that
//! probe generation itself is cache-served. This module replaces it with a
//! decision-tree / ternary-trie index over the 257-bit header space.
//!
//! ## Structure
//!
//! The trie is a tree of nodes, each either a **leaf bucket** (up to
//! [`LEAF_MAX`] entries, scanned linearly) or an **inner node** that tests
//! one header bit `b` and routes entries three ways:
//!
//! * entries whose ternary *cares* about `b` with value 0 → `zero` subtree;
//! * cares with value 1 → `one` subtree;
//! * entries that wildcard `b` → `star` subtree.
//!
//! A lookup for packet `p` therefore descends `zero`/`one` according to
//! `p[b]` **and** `star` (wildcard entries can always match); an overlap
//! query for ternary `t` descends the matching value child (or both, when
//! `t` wildcards `b`) and `star`. Each inner node caches the best
//! `(priority, arrival)` key in its subtree so lookups prune subtrees that
//! cannot beat the best match found so far.
//!
//! ## Incremental maintenance invariants
//!
//! The classifier is maintained incrementally under FlowMod churn — no
//! full rebuilds:
//!
//! * **Deterministic placement.** An entry's location is the unique path
//!   from the root given each visited node's test bit (care-0 / care-1 /
//!   star). Insert and remove walk that path directly.
//! * **Split on overflow.** A leaf exceeding [`LEAF_MAX`] picks the test
//!   bit minimizing the worst lookup candidate set (`max(n0, n1) + n*`),
//!   and only splits when the bit strictly partitions the bucket, so
//!   recursion terminates (each child is strictly smaller). Buckets of
//!   mutually indistinguishable entries (identical care/value patterns)
//!   legitimately stay oversized.
//! * **Collapse on underflow.** After a removal, an inner node whose
//!   subtree shrank to [`COLLAPSE_AT`] entries folds back into one leaf,
//!   keeping the structure compact under delete-heavy churn.
//! * **Exact tie-break.** Entries are keyed by `(priority desc, arrival
//!   asc)`; [`RuleId`]s are allocated monotonically by the table, so the
//!   key order is exactly the priority-then-arrival order the sorted-vec
//!   linear scan documents. `lookup`-family answers are bit-for-bit
//!   identical to the linear reference (property-tested in
//!   `tests/prop_classifier.rs`).
//!
//! The classifier stores `(priority, id, ternary)` triples — never `&Rule`
//! — so [`crate::FlowTable`] resolves results back to rules with a binary
//! search over its sorted vector, and `lookup_excluding(skip)` (the "table
//! without R" view probe verification needs) is a plain filtered query with
//! no cloning.

use crate::flowmatch::Ternary;
use crate::headerspace::HeaderVec;
use crate::table::RuleId;

/// Maximum entries a leaf bucket holds before it attempts to split.
pub const LEAF_MAX: usize = 8;

/// Inner nodes whose subtree shrinks to this many entries collapse back
/// into a leaf.
pub const COLLAPSE_AT: usize = 4;

/// Match-order key: higher priority wins; ties go to the earlier arrival
/// (lower id — [`crate::FlowTable`] allocates ids monotonically).
type Key = (u16, u64);

#[inline]
fn better(a: Key, b: Key) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

#[inline]
fn better_opt(a: Key, b: Option<Key>) -> bool {
    match b {
        None => true,
        Some(b) => better(a, b),
    }
}

fn max_key(a: Option<Key>, b: Option<Key>) -> Option<Key> {
    match (a, b) {
        (Some(a), Some(b)) => Some(if better(a, b) { a } else { b }),
        (x, None) => x,
        (None, y) => y,
    }
}

/// One indexed rule: everything a query needs without touching the table.
#[derive(Debug, Clone)]
struct Entry {
    priority: u16,
    id: RuleId,
    tern: Ternary,
}

impl Entry {
    #[inline]
    fn key(&self) -> Key {
        (self.priority, self.id.0)
    }
}

#[derive(Debug, Clone)]
enum Node {
    /// Bucket of entries, scanned linearly.
    Leaf(Vec<Entry>),
    /// Test of one header bit; see module docs for routing.
    Inner {
        /// The discriminating header bit.
        bit: u16,
        /// Total entries in this subtree.
        len: usize,
        /// Best `(priority, id)` key in this subtree (pruning bound).
        best: Option<Key>,
        /// Entries caring `bit` = 0.
        zero: Box<Node>,
        /// Entries caring `bit` = 1.
        one: Box<Node>,
        /// Entries wildcarding `bit`.
        star: Box<Node>,
    },
}

impl Default for Node {
    fn default() -> Node {
        Node::Leaf(Vec::new())
    }
}

impl Node {
    fn len(&self) -> usize {
        match self {
            Node::Leaf(es) => es.len(),
            Node::Inner { len, .. } => *len,
        }
    }

    /// Best key in the subtree without match tests (pruning bound).
    fn best_key(&self) -> Option<Key> {
        match self {
            Node::Leaf(es) => {
                let mut best = None;
                for e in es {
                    if better_opt(e.key(), best) {
                        best = Some(e.key());
                    }
                }
                best
            }
            Node::Inner { best, .. } => *best,
        }
    }

    /// Routes an entry at an inner node testing `bit`.
    #[inline]
    fn route<'a>(
        tern: &Ternary,
        bit: u16,
        zero: &'a mut Node,
        one: &'a mut Node,
        star: &'a mut Node,
    ) -> &'a mut Node {
        if !tern.care.get(bit as usize) {
            star
        } else if tern.value.get(bit as usize) {
            one
        } else {
            zero
        }
    }

    fn insert(&mut self, e: Entry) {
        let overflow = match self {
            Node::Leaf(es) => {
                es.push(e);
                es.len() > LEAF_MAX
            }
            Node::Inner {
                bit,
                len,
                best,
                zero,
                one,
                star,
            } => {
                *len += 1;
                if better_opt(e.key(), *best) {
                    *best = Some(e.key());
                }
                Node::route(&e.tern, *bit, zero, one, star).insert(e);
                false
            }
        };
        if overflow {
            self.try_split();
        }
    }

    /// Splits an overfull leaf on its best discriminating bit (no-op when
    /// no bit strictly partitions the bucket).
    fn try_split(&mut self) {
        let Node::Leaf(es) = self else { return };
        let Some(bit) = choose_bit(es) else { return };
        let total = es.len();
        let mut zero = Vec::new();
        let mut one = Vec::new();
        let mut star = Vec::new();
        let mut best = None;
        for e in es.drain(..) {
            if better_opt(e.key(), best) {
                best = Some(e.key());
            }
            if !e.tern.care.get(bit as usize) {
                star.push(e);
            } else if e.tern.value.get(bit as usize) {
                one.push(e);
            } else {
                zero.push(e);
            }
        }
        let child = |v: Vec<Entry>| {
            let mut n = Node::Leaf(v);
            if n.len() > LEAF_MAX {
                n.try_split();
            }
            Box::new(n)
        };
        *self = Node::Inner {
            bit,
            len: total,
            best,
            zero: child(zero),
            one: child(one),
            star: child(star),
        };
    }

    /// Removes entry `id` (located via its ternary's deterministic path).
    fn remove(&mut self, id: RuleId, tern: &Ternary) -> bool {
        let (removed, collapse) = match self {
            Node::Leaf(es) => match es.iter().position(|e| e.id == id) {
                Some(p) => {
                    es.swap_remove(p);
                    (true, false)
                }
                None => (false, false),
            },
            Node::Inner {
                bit,
                len,
                best,
                zero,
                one,
                star,
            } => {
                if !Node::route(tern, *bit, zero, one, star).remove(id, tern) {
                    (false, false)
                } else {
                    *len -= 1;
                    if *len <= COLLAPSE_AT {
                        (true, true)
                    } else {
                        *best = max_key(max_key(zero.best_key(), one.best_key()), star.best_key());
                        (true, false)
                    }
                }
            }
        };
        if collapse {
            let mut es = Vec::with_capacity(self.len());
            self.collect_into(&mut es);
            *self = Node::Leaf(es);
        }
        removed
    }

    fn collect_into(&self, out: &mut Vec<Entry>) {
        match self {
            Node::Leaf(es) => out.extend(es.iter().cloned()),
            Node::Inner {
                zero, one, star, ..
            } => {
                zero.collect_into(out);
                one.collect_into(out);
                star.collect_into(out);
            }
        }
    }

    /// Best-match search with subtree pruning. `skip` uses `u64::MAX` as
    /// the "no exclusion" sentinel (ids start at 1).
    fn lookup(&self, pkt: &HeaderVec, skip: u64, best: &mut Option<Key>) {
        match self {
            Node::Leaf(es) => {
                for e in es {
                    if e.id.0 != skip && better_opt(e.key(), *best) && e.tern.matches(pkt) {
                        *best = Some(e.key());
                    }
                }
            }
            Node::Inner {
                bit,
                zero,
                one,
                star,
                ..
            } => {
                let value = if pkt.get(*bit as usize) {
                    one.as_ref()
                } else {
                    zero.as_ref()
                };
                // Visit the more promising subtree first so its result
                // prunes the other.
                let (vb, sb) = (value.best_key(), star.best_key());
                let (first, second) = if better_opt(vb.unwrap_or((0, u64::MAX)), sb) {
                    (value, star.as_ref())
                } else {
                    (star.as_ref(), value)
                };
                for n in [first, second] {
                    if n.best_key().is_some_and(|k| better_opt(k, *best)) {
                        n.lookup(pkt, skip, best);
                    }
                }
            }
        }
    }

    /// Collects keys of entries overlapping `t`.
    fn overlapping(&self, t: &Ternary, skip: u64, out: &mut Vec<Key>) {
        match self {
            Node::Leaf(es) => {
                for e in es {
                    if e.id.0 != skip && e.tern.overlaps(t) {
                        out.push(e.key());
                    }
                }
            }
            Node::Inner {
                bit,
                zero,
                one,
                star,
                ..
            } => {
                if t.care.get(*bit as usize) {
                    if t.value.get(*bit as usize) {
                        one.overlapping(t, skip, out);
                    } else {
                        zero.overlapping(t, skip, out);
                    }
                } else {
                    zero.overlapping(t, skip, out);
                    one.overlapping(t, skip, out);
                }
                star.overlapping(t, skip, out);
            }
        }
    }

    /// (node count, max depth) — structural introspection for tests.
    fn shape(&self, depth: usize) -> (usize, usize) {
        match self {
            Node::Leaf(_) => (1, depth),
            Node::Inner {
                zero, one, star, ..
            } => {
                let mut nodes = 1;
                let mut max_d = depth;
                for c in [zero, one, star] {
                    let (n, d) = c.shape(depth + 1);
                    nodes += n;
                    max_d = max_d.max(d);
                }
                (nodes, max_d)
            }
        }
    }
}

/// Picks the split bit for a bucket: the bit minimizing the worst-case
/// lookup candidate set `max(n0, n1) + n*`, among bits that strictly
/// partition the bucket. Ties prefer more caring entries, then lower bit.
fn choose_bit(es: &[Entry]) -> Option<u16> {
    let total = es.len();
    let mut care_union = HeaderVec::ZERO;
    for e in es {
        care_union = care_union.or(&e.tern.care);
    }
    let mut best: Option<(usize, usize, u16)> = None; // (score, -cared via usize::MAX-cared, bit)
    for bit in care_union.iter_ones() {
        let mut n0 = 0usize;
        let mut n1 = 0usize;
        for e in es {
            if e.tern.care.get(bit) {
                if e.tern.value.get(bit) {
                    n1 += 1;
                } else {
                    n0 += 1;
                }
            }
        }
        let nstar = total - n0 - n1;
        if n0.max(n1).max(nstar) == total {
            continue; // does not partition: all entries land in one child
        }
        let score = n0.max(n1) + nstar;
        let cared = n0 + n1;
        let cand = (score, usize::MAX - cared, bit as u16);
        if best.is_none_or(|b| cand < b) {
            best = Some(cand);
        }
    }
    best.map(|(_, _, bit)| bit)
}

/// The incremental ternary-trie classifier. See the module docs for
/// structure and invariants.
#[derive(Debug, Clone, Default)]
pub struct TernaryClassifier {
    root: Node,
}

impl TernaryClassifier {
    /// Empty classifier.
    pub fn new() -> TernaryClassifier {
        TernaryClassifier::default()
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.root.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.root.len() == 0
    }

    /// Indexes a rule. `id` must be unique and, for exact linear-scan
    /// tie-break equivalence, monotonically increasing in arrival order.
    pub fn insert(&mut self, priority: u16, id: RuleId, tern: Ternary) {
        self.root.insert(Entry { priority, id, tern });
    }

    /// Unindexes rule `id`; `tern` must be the ternary it was inserted
    /// with (it determines the entry's location). Returns whether the
    /// entry was found.
    pub fn remove(&mut self, id: RuleId, tern: &Ternary) -> bool {
        self.root.remove(id, tern)
    }

    /// Drops all entries.
    pub fn clear(&mut self) {
        self.root = Node::default();
    }

    /// Highest-priority (ties: earliest-arrival) entry matching `pkt`, as
    /// `(priority, id)`.
    pub fn best_match(&self, pkt: &HeaderVec) -> Option<(u16, RuleId)> {
        let mut best = None;
        self.root.lookup(pkt, u64::MAX, &mut best);
        best.map(|(p, id)| (p, RuleId(id)))
    }

    /// As [`Self::best_match`] but ignoring entry `skip` — the "table
    /// without R" view.
    pub fn best_match_excluding(&self, pkt: &HeaderVec, skip: RuleId) -> Option<(u16, RuleId)> {
        let mut best = None;
        self.root.lookup(pkt, skip.0, &mut best);
        best.map(|(p, id)| (p, RuleId(id)))
    }

    /// Entries overlapping `tern` (§5.4 pre-filter), in table order
    /// (priority descending, arrival ascending), as `(priority, id)`.
    pub fn overlapping(&self, tern: &Ternary) -> Vec<(u16, RuleId)> {
        self.overlapping_excluding(tern, RuleId(u64::MAX))
    }

    /// As [`Self::overlapping`] but ignoring entry `skip`.
    pub fn overlapping_excluding(&self, tern: &Ternary, skip: RuleId) -> Vec<(u16, RuleId)> {
        let mut keys = Vec::new();
        self.root.overlapping(tern, skip.0, &mut keys);
        keys.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        keys.into_iter().map(|(p, id)| (p, RuleId(id))).collect()
    }

    /// (node count, max depth) — structural introspection for tests and
    /// diagnostics.
    pub fn shape(&self) -> (usize, usize) {
        self.root.shape(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowmatch::Match;

    fn tern_src(addr: [u8; 4], plen: u8) -> Ternary {
        Match::any().with_nw_src(addr, plen).ternary()
    }

    fn pkt_src(addr: [u8; 4]) -> HeaderVec {
        tern_src(addr, 32).sample_packet()
    }

    #[test]
    fn empty_classifier_matches_nothing() {
        let c = TernaryClassifier::new();
        assert!(c.is_empty());
        assert_eq!(c.best_match(&HeaderVec::ZERO), None);
        assert!(c.overlapping(&Ternary::ANY).is_empty());
    }

    #[test]
    fn splits_and_finds_exact_rules() {
        let mut c = TernaryClassifier::new();
        for i in 0..200u64 {
            let addr = [10, 0, (i >> 8) as u8, i as u8];
            c.insert(100, RuleId(i + 1), tern_src(addr, 32));
        }
        let (nodes, depth) = c.shape();
        assert!(nodes > 1, "200 disjoint rules must split");
        assert!(depth > 0);
        for i in 0..200u64 {
            let addr = [10, 0, (i >> 8) as u8, i as u8];
            assert_eq!(
                c.best_match(&pkt_src(addr)),
                Some((100, RuleId(i + 1))),
                "rule {i}"
            );
        }
        assert_eq!(c.best_match(&pkt_src([11, 1, 1, 1])), None);
    }

    #[test]
    fn priority_and_arrival_tie_break() {
        let mut c = TernaryClassifier::new();
        // Same match at two priorities plus two equal-priority wildcards.
        c.insert(5, RuleId(1), tern_src([10, 0, 0, 1], 32));
        c.insert(9, RuleId(2), tern_src([10, 0, 0, 1], 32));
        c.insert(3, RuleId(3), Ternary::ANY);
        c.insert(3, RuleId(4), Ternary::ANY);
        let p = pkt_src([10, 0, 0, 1]);
        assert_eq!(c.best_match(&p), Some((9, RuleId(2))));
        // Excluding the winner falls to the next-best.
        assert_eq!(c.best_match_excluding(&p, RuleId(2)), Some((5, RuleId(1))));
        // Equal priority: earliest arrival (lowest id) wins.
        assert_eq!(c.best_match(&pkt_src([9, 9, 9, 9])), Some((3, RuleId(3))));
        assert_eq!(
            c.best_match_excluding(&pkt_src([9, 9, 9, 9]), RuleId(3)),
            Some((3, RuleId(4)))
        );
    }

    #[test]
    fn remove_and_collapse() {
        let mut c = TernaryClassifier::new();
        let terns: Vec<Ternary> = (0..64u64)
            .map(|i| tern_src([10, 0, 0, i as u8], 32))
            .collect();
        for (i, t) in terns.iter().enumerate() {
            c.insert(7, RuleId(i as u64 + 1), *t);
        }
        assert!(c.shape().0 > 1);
        for (i, t) in terns.iter().enumerate() {
            assert!(c.remove(RuleId(i as u64 + 1), t), "remove {i}");
            assert!(!c.remove(RuleId(i as u64 + 1), t), "double remove {i}");
            assert_eq!(c.len(), terns.len() - i - 1);
        }
        assert!(c.is_empty());
        assert_eq!(c.shape(), (1, 0), "fully collapsed back to one leaf");
    }

    #[test]
    fn identical_entries_stay_in_one_bucket() {
        // Unsplittable bucket: same ternary, many entries. Must not split
        // (no partitioning bit) and must still answer correctly.
        let mut c = TernaryClassifier::new();
        let t = tern_src([10, 0, 0, 1], 32);
        for i in 0..(LEAF_MAX as u64 + 8) {
            c.insert(i as u16, RuleId(i + 1), t);
        }
        assert_eq!(c.shape().0, 1, "identical entries cannot split");
        let p = pkt_src([10, 0, 0, 1]);
        let best = c.best_match(&p).unwrap();
        assert_eq!(best.0, LEAF_MAX as u16 + 7);
    }

    #[test]
    fn overlapping_in_table_order() {
        let mut c = TernaryClassifier::new();
        c.insert(5, RuleId(1), tern_src([10, 0, 0, 1], 32));
        c.insert(6, RuleId(2), tern_src([10, 0, 0, 2], 32));
        c.insert(1, RuleId(3), Ternary::ANY);
        c.insert(6, RuleId(4), tern_src([10, 0, 0, 0], 24));
        let q = tern_src([10, 0, 0, 1], 32);
        let ov = c.overlapping(&q);
        // 10.0.0.2 is disjoint; order: priority desc then arrival asc.
        assert_eq!(ov, vec![(6, RuleId(4)), (5, RuleId(1)), (1, RuleId(3))]);
        assert_eq!(
            c.overlapping_excluding(&q, RuleId(1)),
            vec![(6, RuleId(4)), (1, RuleId(3))]
        );
    }

    #[test]
    fn wildcard_entries_visible_under_any_packet() {
        let mut c = TernaryClassifier::new();
        for i in 0..40u64 {
            c.insert(10, RuleId(i + 1), tern_src([10, 1, 0, i as u8], 32));
        }
        c.insert(1, RuleId(100), Ternary::ANY);
        // A packet missing every specific rule still finds the wildcard.
        assert_eq!(
            c.best_match(&pkt_src([172, 16, 0, 1])),
            Some((1, RuleId(100)))
        );
        // And a packet hitting a specific rule prefers it.
        assert_eq!(c.best_match(&pkt_src([10, 1, 0, 7])), Some((10, RuleId(8))));
    }
}
