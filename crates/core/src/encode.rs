//! Constraint assembly and CNF encoding (§3.1, §5.3, §5.4, Appendix B).
//!
//! Header bit `i` (0-based, see [`monocle_openflow::headerspace`]) is SAT
//! variable `i + 1`; auxiliary Tseitin variables are allocated above
//! [`HEADER_BITS`].
//!
//! The Distinguish constraint is the linear implication encoding: for each
//! lower-priority rule `L_i` (and the virtual table-miss rule), one clause
//! `(!m_i | m_1 | ... | m_{i-1} | d_i)` where `m_j ⇔ Matches(P, L_j)` are
//! Tseitin definitions, the prefix shared through a chain of auxiliaries.
//! The paper's own formulation — an if-then-else chain mimicking TCAM
//! priority matching, encoded with Velev's quadratic construction
//! (Appendix B) — is kept in this module's tests as the oracle: on every
//! rule of a random table, the two instances must agree on SAT/UNSAT. It
//! is not the encoder because it is slower on both Table 2 datasets (the
//! README's "SAT engine internals" has the numbers).
//!
//! [`build_instance`] is the only encoder and keeps nothing between calls:
//! stateless generation and the [`crate::engine::ProbeEngine`] both build
//! one fresh instance per solve through it (§5.3–5.4).

use crate::outcome::{BitCondition, OutcomeDiff};
use monocle_openflow::headerspace::HEADER_BITS;
use monocle_openflow::{Field, FlowTable, Forwarding, Rule, Ternary};
use monocle_sat::{Cnf, Lit};

/// Collection pins: exact values the probe must carry so the downstream
/// catching rule (and only it) matches — plus the ingress port the prober
/// will inject on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CatchSpec {
    /// `(field, value)` pins (e.g. the reserved VLAN tag value).
    pub assignments: Vec<(Field, u64)>,
    /// Ingress port pin (the port facing the chosen upstream switch).
    pub in_port: Option<u16>,
}

impl CatchSpec {
    /// A catch spec pinning one field and the ingress port.
    pub fn tag(field: Field, value: u64) -> CatchSpec {
        CatchSpec {
            assignments: vec![(field, value)],
            in_port: None,
        }
    }

    /// Adds an ingress-port pin.
    pub fn with_in_port(mut self, p: u16) -> CatchSpec {
        self.in_port = Some(p);
        self
    }

    /// All pins including the port, as `(field, value)` pairs.
    pub fn all_pins(&self) -> Vec<(Field, u64)> {
        let mut v = self.assignments.clone();
        if let Some(p) = self.in_port {
            v.push((Field::InPort, u64::from(p)));
        }
        v
    }
}

/// Why constraint building failed before reaching the solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A higher-priority overlapping rule fully covers the probed rule
    /// (§3.5: "completely hidden by higher-priority rules").
    Shadowed {
        /// Priority of a covering rule.
        by_priority: u16,
    },
    /// The catch pins contradict the probed rule's own match (e.g. the rule
    /// matches the reserved field with a different value).
    CatchConflict(Field),
    /// The probed rule rewrites a reserved/pinned field (§3.2 requires
    /// rules never rewrite the probe tag).
    RewritesReserved(Field),
}

/// A built SAT instance plus bookkeeping the plan needs.
#[derive(Debug)]
pub struct Instance {
    /// The CNF over header-bit variables (1..=257) and auxiliaries.
    pub cnf: Cnf,
    /// True when distinguishing relies on the §3.4 counting exception for
    /// at least one alternative outcome.
    pub uses_counting: bool,
    /// Number of rules that survived the §5.4 overlap pre-filter.
    pub relevant_rules: usize,
}

/// §5.4 pre-filter: rules overlapping the probed rule (excluding itself),
/// in table (priority-descending) order. Served by the table's ternary-trie
/// classifier, so the neighborhood is found without an O(rules) scan.
pub fn relevant_rules<'a>(table: &'a FlowTable, probed: &Rule) -> Vec<&'a Rule> {
    table.overlapping_excluding(&probed.tern, probed.id)
}

/// Pushes unit clauses for every cared bit of `tern`.
fn push_units(cnf: &mut Cnf, tern: &Ternary) {
    for bit in tern.care.iter_ones() {
        let var = (bit + 1) as Lit;
        cnf.add_clause(&[if tern.value.get(bit) { var } else { -var }]);
    }
}

/// The single clause `!Matches(P, H)` given the probed rule's pins: a
/// disjunction of bit-mismatch literals over bits `H` cares about but the
/// probed rule does not. Returns `None` when the clause would be empty
/// (i.e. `H` subsumes the probed rule: shadowed).
fn not_matches_clause(h: &Ternary, probed: &Ternary) -> Option<Vec<Lit>> {
    let mut clause = Vec::new();
    let free = h.care.and(&probed.care.not());
    for bit in free.iter_ones() {
        let var = (bit + 1) as Lit;
        clause.push(if h.value.get(bit) { -var } else { var });
    }
    if clause.is_empty() {
        None
    } else {
        Some(clause)
    }
}

/// Pushes the Collect constraint: unit clauses for every catch pin.
fn push_pins(cnf: &mut Cnf, catch: &CatchSpec) {
    for (field, value) in catch.all_pins() {
        let off = field.offset();
        for i in 0..field.width() {
            let var = (off + i + 1) as Lit;
            cnf.add_clause(&[if value >> i & 1 == 1 { var } else { -var }]);
        }
    }
}

/// Pushes Hit's avoid clauses for every relevant rule of priority ≥ the
/// probed rule (equal-priority overlap is undefined behavior per the OF
/// spec, footnote 1, so those are conservatively avoided too) and returns
/// the lower-priority rules in table order. `Shadowed` when some higher
/// rule fully covers the probed one.
fn push_hit_avoid<'a>(
    cnf: &mut Cnf,
    relevant: &[&'a Rule],
    probed: &Rule,
) -> Result<Vec<&'a Rule>, BuildError> {
    let mut lower: Vec<&Rule> = Vec::new();
    for &r in relevant {
        if r.priority >= probed.priority {
            match not_matches_clause(&r.tern, &probed.tern) {
                Some(clause) => cnf.add_clause(&clause),
                None => {
                    return Err(BuildError::Shadowed {
                        by_priority: r.priority,
                    })
                }
            }
        } else {
            lower.push(r);
        }
    }
    Ok(lower)
}

/// Emits the implication-encoded Distinguish clauses. `match_lits[i]` is the
/// `Matches(P, L_i)` literal of the i-th lower rule (`None` = constant
/// true); `diffs` holds one [`OutcomeDiff`] per lower rule plus the virtual
/// table miss as its last element.
fn emit_distinguish_implication(cnf: &mut Cnf, match_lits: &[Option<Lit>], diffs: &[OutcomeDiff]) {
    let k = match_lits.len();
    debug_assert_eq!(diffs.len(), k + 1);
    let mut clause: Vec<Lit> = Vec::new();
    let mut guarded: Vec<Lit> = Vec::new();
    // "Some earlier lower rule matched", kept as a compressed prefix: an
    // optional chain literal `o` plus up to `CHAIN_WIDTH` pending match
    // literals. The naive clause `!m_i | m_1 | ... | m_{i-1} | cond` repeats
    // the whole prefix per rule — O(k²) literals for a k-rule neighborhood,
    // which dominated encode time on the ACL datasets — whereas the chain
    // keeps clause i at O(1) prefix literals and O(k) literals overall.
    // Only the `o ⇒ m_1 ∨ …` direction is emitted: when every folded match
    // literal is false the chain collapses to false, so the highest-match
    // implication still fires; setting a chain literal vacuously true is
    // only possible when some earlier rule really matched, i.e. exactly
    // when clause i was already vacuous.
    const CHAIN_WIDTH: usize = 8;
    let mut chain: Option<Lit> = None;
    let mut pending: Vec<Lit> = Vec::new();
    for i in 0..=k {
        // i == k is the table-miss case (m_miss = const true).
        let cond = diffs[i].condition_ref();
        if *cond != BitCondition::Const(true) {
            // Clause: !m_i | <prefix: chain, pending> | cond
            clause.clear();
            if i < k {
                // m_i = true (always-matching rule): !m_i drops out.
                if let Some(m) = match_lits[i] {
                    clause.push(-m);
                }
            }
            clause.extend(chain);
            clause.extend_from_slice(&pending);
            match cond {
                BitCondition::Const(false) => {}
                BitCondition::Clause(ls) => clause.extend(ls),
                BitCondition::Cnf(cs) => {
                    let z = cnf.fresh_var() as Lit;
                    for c in cs {
                        guarded.clear();
                        guarded.extend_from_slice(c);
                        guarded.push(-z);
                        cnf.add_clause(&guarded);
                    }
                    clause.push(z);
                }
                BitCondition::Const(true) => unreachable!(),
            }
            if clause.is_empty() {
                // IsHighestMatch is unconditionally true and the outcome
                // indistinguishable: no probe exists.
                cnf.add_clause(&[]);
            } else {
                cnf.add_clause(&clause);
            }
        }
        // Fold m_i into the prefix for the rules below it.
        if i < k {
            match match_lits[i] {
                Some(m) => {
                    pending.push(m);
                    if pending.len() >= CHAIN_WIDTH {
                        // Collapse: o ⇒ chain ∨ pending.
                        let o = cnf.fresh_var() as Lit;
                        guarded.clear();
                        guarded.push(-o);
                        guarded.extend(chain);
                        guarded.extend_from_slice(&pending);
                        cnf.add_clause(&guarded);
                        chain = Some(o);
                        pending.clear();
                    }
                }
                // An always-matching lower rule: no rule below it can ever
                // be the highest match, so every later clause (including
                // the table miss) is vacuous.
                None => break,
            }
        }
    }
}

/// `m ⇔ Matches(P, L)` over L's cared bits; `None` means constant true
/// (match-anything rule).
fn define_matches(cnf: &mut Cnf, tern: &Ternary) -> Option<Lit> {
    let mut lits = Vec::new();
    for bit in tern.care.iter_ones() {
        let var = (bit + 1) as Lit;
        lits.push(if tern.value.get(bit) { var } else { -var });
    }
    match lits.len() {
        0 => None,
        1 => Some(lits[0]),
        _ => {
            let m = cnf.fresh_var() as Lit;
            for &l in &lits {
                cnf.add_clause(&[-m, l]);
            }
            let mut long: Vec<Lit> = lits.iter().map(|&l| -l).collect();
            long.push(m);
            cnf.add_clause(&long);
            Some(m)
        }
    }
}

/// Reserved-field discipline check shared by every build path: the probed
/// rule must not rewrite pinned fields (§3.2), nor may its match contradict
/// the pins.
pub fn check_catch_pins(probed: &Rule, catch: &CatchSpec) -> Result<(), BuildError> {
    for &(field, value) in &catch.all_pins() {
        if field != Field::InPort && probed.fwd.touches_field(field) {
            return Err(BuildError::RewritesReserved(field));
        }
        let off = field.offset();
        for i in 0..field.width() {
            let bit = off + i;
            if probed.tern.care.get(bit) && probed.tern.value.get(bit) != (value >> i & 1 == 1) {
                return Err(BuildError::CatchConflict(field));
            }
        }
    }
    Ok(())
}

/// Builds the full probe-generation SAT instance for `probed` against
/// `table` (the probed switch's full flow table) under `catch`.
pub fn build_instance(
    table: &FlowTable,
    probed: &Rule,
    catch: &CatchSpec,
) -> Result<Instance, BuildError> {
    check_catch_pins(probed, catch)?;

    let relevant = relevant_rules(table, probed);
    let mut cnf = Cnf::with_capacity(64 + relevant.len() * 8);
    cnf.grow_vars(HEADER_BITS as u32);

    // ---- Hit: match the probed rule, carry the Collect pins, avoid all
    // higher-priority overlapping rules. ----
    push_units(&mut cnf, &probed.tern);
    push_pins(&mut cnf, catch);
    let lower = push_hit_avoid(&mut cnf, &relevant, probed)?;

    // ---- Distinguish over lower-priority rules + virtual table miss. ----
    let miss = Forwarding::drop();
    let mut uses_counting = false;
    let diffs: Vec<OutcomeDiff> = lower
        .iter()
        .map(|l| OutcomeDiff::compute(&probed.fwd, &l.fwd))
        .chain(std::iter::once(OutcomeDiff::compute(&probed.fwd, &miss)))
        .collect();
    for d in &diffs {
        if d.needs_counting() {
            uses_counting = true;
        }
    }

    // m_j literals, computed lazily in order.
    let match_lits: Vec<Option<Lit>> = lower
        .iter()
        .map(|l| define_matches(&mut cnf, &l.tern))
        .collect();
    emit_distinguish_implication(&mut cnf, &match_lits, &diffs);

    Ok(Instance {
        cnf,
        uses_counting,
        relevant_rules: relevant.len(),
    })
}

/// Builds only Hit + Collect (used to classify UNSAT results: if this
/// sub-instance is already unsatisfiable the rule is hidden/conflicting;
/// otherwise it is indistinguishable, §3.5).
pub fn build_hit_only(
    table: &FlowTable,
    probed: &Rule,
    catch: &CatchSpec,
) -> Result<Cnf, BuildError> {
    let mut cnf = Cnf::new();
    cnf.grow_vars(HEADER_BITS as u32);
    push_units(&mut cnf, &probed.tern);
    push_pins(&mut cnf, catch);
    push_hit_avoid(&mut cnf, &relevant_rules(table, probed), probed)?;
    Ok(cnf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use monocle_openflow::{Action, FlowTable, Match};
    use monocle_sat::{solve, SatResult};

    fn table_from(rules: Vec<(u16, Match, Vec<Action>)>) -> FlowTable {
        let mut t = FlowTable::new();
        for (p, m, a) in rules {
            t.add_rule(p, m, a).unwrap();
        }
        t
    }

    fn probe_bits(model: &monocle_sat::Model) -> monocle_openflow::HeaderVec {
        let mut h = monocle_openflow::HeaderVec::ZERO;
        for bit in 0..HEADER_BITS {
            h.set(bit, model.value((bit + 1) as u32));
        }
        h
    }

    /// The paper's §5.3 worked example, full-width: probe for a low-priority
    /// rule under a catching rule and one higher-priority rule.
    #[test]
    fn section_5_3_example() {
        let t = table_from(vec![
            (
                100,
                Match::any().with_dl_vlan(3),
                vec![Action::Output(monocle_openflow::action::PORT_CONTROLLER)],
            ),
            (
                50,
                Match::any()
                    .with_nw_src([10, 0, 0, 1], 32)
                    .with_nw_dst([10, 0, 0, 2], 32),
                vec![Action::Output(2)],
            ),
            (
                10,
                Match::any().with_nw_src([10, 0, 0, 1], 32),
                vec![Action::Output(1)],
            ),
        ]);
        let probed = t.rules().iter().find(|r| r.priority == 10).unwrap();
        // Note: the catch *pin* replicates Matches(P, Rcatch) — but the
        // catching rule itself sits in the table at higher priority, so Hit
        // would exclude it. In the paper's single-switch example the catch
        // rule lives downstream; here we emulate that by a fresh table
        // without the catch entry.
        let downstream_catch = CatchSpec::tag(Field::DlVlan, 3);
        let t2 = table_from(vec![
            (
                50,
                Match::any()
                    .with_nw_src([10, 0, 0, 1], 32)
                    .with_nw_dst([10, 0, 0, 2], 32),
                vec![Action::Output(2)],
            ),
            (
                10,
                Match::any().with_nw_src([10, 0, 0, 1], 32),
                vec![Action::Output(1)],
            ),
        ]);
        let probed2 = t2.rules().iter().find(|r| r.priority == 10).unwrap();
        let inst = build_instance(&t2, probed2, &downstream_catch).unwrap();
        let model = solve(&inst.cnf).model();
        let h = probe_bits(&model);
        // Probe must: carry VLAN 3, have src 10.0.0.1, NOT have dst 10.0.0.2.
        assert_eq!(h.field(Field::DlVlan), 3);
        assert_eq!(
            h.field(Field::NwSrc),
            u64::from(u32::from_be_bytes([10, 0, 0, 1]))
        );
        assert_ne!(
            h.field(Field::NwDst),
            u64::from(u32::from_be_bytes([10, 0, 0, 2]))
        );
        let _ = probed;
    }

    /// §3.1's Distinguish subtlety: Rlowest fwd(1), Rlower fwd(2) for
    /// src=10.0.0.1, Rprobed fwd(1) for (10.0.0.1, 10.0.0.2). A naive
    /// same-output exclusion would fail; the correct constraint finds
    /// probe = (10.0.0.1, 10.0.0.2).
    #[test]
    fn distinguish_paper_example_three_rules() {
        let t = table_from(vec![
            (
                30,
                Match::any()
                    .with_nw_src([10, 0, 0, 1], 32)
                    .with_nw_dst([10, 0, 0, 2], 32),
                vec![Action::Output(1)],
            ),
            (
                20,
                Match::any().with_nw_src([10, 0, 0, 1], 32),
                vec![Action::Output(2)],
            ),
            (10, Match::any(), vec![Action::Output(1)]),
        ]);
        let probed = t.rules().iter().find(|r| r.priority == 30).unwrap();
        for (style, cnf) in both_encodings(&t, probed, &CatchSpec::default()) {
            let model = match solve(&cnf) {
                SatResult::Sat(m) => m,
                other => panic!("{style}: expected SAT, got {other:?}"),
            };
            let h = probe_bits(&model);
            // The ONLY valid probe matches both exact fields (Hit forces
            // that), and it is valid because Rlower (fwd 2) would process it
            // in the probed rule's absence.
            assert_eq!(
                h.field(Field::NwSrc),
                u64::from(u32::from_be_bytes([10, 0, 0, 1]))
            );
            assert_eq!(
                h.field(Field::NwDst),
                u64::from(u32::from_be_bytes([10, 0, 0, 2]))
            );
        }
    }

    /// §3.2 infeasibility: same output port, no rewrites => UNSAT.
    #[test]
    fn same_port_no_rewrite_unsat() {
        let t = table_from(vec![
            (
                20,
                Match::any().with_nw_src([10, 0, 0, 1], 32),
                vec![Action::Output(1)],
            ),
            (10, Match::any(), vec![Action::Output(1)]),
        ]);
        let probed = t.rules().iter().find(|r| r.priority == 20).unwrap();
        for (style, cnf) in both_encodings(&t, probed, &CatchSpec::default()) {
            assert_eq!(solve(&cnf), SatResult::Unsat, "{style}");
        }
    }

    /// §3.2 feasibility via rewrite: R'high marks ToS; probe must have a
    /// different ToS.
    #[test]
    fn rewrite_makes_distinguishable() {
        let t = table_from(vec![
            (
                20,
                Match::any().with_nw_src([10, 0, 0, 1], 32),
                vec![Action::SetNwTos(0x2e), Action::Output(1)],
            ),
            (10, Match::any(), vec![Action::Output(1)]),
        ]);
        let probed = t.rules().iter().find(|r| r.priority == 20).unwrap();
        for (style, cnf) in both_encodings(&t, probed, &CatchSpec::default()) {
            let h = probe_bits(&solve(&cnf).model());
            assert_ne!(h.field(Field::NwTos), 0x2e, "{style}: ToS must differ");
        }
    }

    #[test]
    fn shadowed_rule_detected_at_build() {
        let t = table_from(vec![
            (
                20,
                Match::any().with_nw_src([10, 0, 0, 0], 24),
                vec![Action::Output(1)],
            ),
            (
                10,
                Match::any().with_nw_src([10, 0, 0, 7], 32),
                vec![Action::Output(2)],
            ),
        ]);
        let probed = t.rules().iter().find(|r| r.priority == 10).unwrap();
        assert_eq!(
            build_instance(&t, probed, &CatchSpec::default()).unwrap_err(),
            BuildError::Shadowed { by_priority: 20 }
        );
    }

    #[test]
    fn drop_rule_probe_against_forwarding_default() {
        // Probing a drop rule above a forwarding default: probe exists
        // (absence -> forwarded, presence -> dropped).
        let t = table_from(vec![
            (20, Match::any().with_tp_dst(23), vec![]),
            (10, Match::any(), vec![Action::Output(1)]),
        ]);
        let probed = t.rules().iter().find(|r| r.priority == 20).unwrap();
        let inst = build_instance(&t, probed, &CatchSpec::default()).unwrap();
        assert!(solve(&inst.cnf).is_sat());
    }

    #[test]
    fn drop_rule_above_drop_default_unsat() {
        // Drop rule over a drop-by-miss table: nothing observable either way.
        let t = table_from(vec![(20, Match::any().with_tp_dst(23), vec![])]);
        let probed = &t.rules()[0];
        let inst = build_instance(&t, probed, &CatchSpec::default()).unwrap();
        assert_eq!(solve(&inst.cnf), SatResult::Unsat);
    }

    #[test]
    fn catch_conflict_detected() {
        let t = table_from(vec![(
            10,
            Match::any().with_dl_vlan(5),
            vec![Action::Output(1)],
        )]);
        let probed = &t.rules()[0];
        let catch = CatchSpec::tag(Field::DlVlan, 3);
        assert_eq!(
            build_instance(&t, probed, &catch).unwrap_err(),
            BuildError::CatchConflict(Field::DlVlan)
        );
    }

    #[test]
    fn reserved_field_rewrite_rejected() {
        let t = table_from(vec![(
            10,
            Match::any(),
            vec![Action::SetVlanVid(9), Action::Output(1)],
        )]);
        let probed = &t.rules()[0];
        let catch = CatchSpec::tag(Field::DlVlan, 3);
        assert_eq!(
            build_instance(&t, probed, &catch).unwrap_err(),
            BuildError::RewritesReserved(Field::DlVlan)
        );
    }

    #[test]
    fn overlap_prefilter_counts() {
        let t = table_from(vec![
            (
                30,
                Match::any().with_nw_src([10, 0, 0, 1], 32),
                vec![Action::Output(1)],
            ),
            (
                20,
                Match::any().with_nw_src([99, 0, 0, 1], 32),
                vec![Action::Output(1)],
            ),
            (10, Match::any(), vec![Action::Output(2)]),
        ]);
        let probed = t.rules().iter().find(|r| r.priority == 30).unwrap();
        let inst = build_instance(&t, probed, &CatchSpec::default()).unwrap();
        // The 99.0.0.1 rule is disjoint: filtered out.
        assert_eq!(inst.relevant_rules, 1);
    }

    #[test]
    fn counting_flag_propagates() {
        let t = table_from(vec![
            (
                20,
                Match::any().with_nw_src([10, 0, 0, 1], 32),
                vec![Action::Output(1), Action::Output(2)],
            ),
            (10, Match::any(), vec![Action::SelectOutput(vec![1, 2])]),
        ]);
        let probed = t.rules().iter().find(|r| r.priority == 20).unwrap();
        let inst = build_instance(&t, probed, &CatchSpec::default()).unwrap();
        assert!(inst.uses_counting);
        assert!(solve(&inst.cnf).is_sat());
    }

    #[test]
    fn hit_only_instance_classifies() {
        let t = table_from(vec![
            (
                20,
                Match::any().with_nw_src([10, 0, 0, 1], 32),
                vec![Action::Output(1)],
            ),
            (10, Match::any(), vec![Action::Output(1)]),
        ]);
        let probed = t.rules().iter().find(|r| r.priority == 20).unwrap();
        // Full instance: UNSAT (indistinguishable); hit-only: SAT.
        let full = build_instance(&t, probed, &CatchSpec::default()).unwrap();
        assert_eq!(solve(&full.cnf), SatResult::Unsat);
        let hit = build_hit_only(&t, probed, &CatchSpec::default()).unwrap();
        assert!(solve(&hit).is_sat());
    }

    /// The instance [`build_instance`] emits and the ITE oracle's, labelled.
    fn both_encodings(t: &FlowTable, probed: &Rule, catch: &CatchSpec) -> [(&'static str, Cnf); 2] {
        [
            ("implication", build_instance(t, probed, catch).unwrap().cnf),
            ("ite", ite::build_instance_ite(t, probed, catch).unwrap()),
        ]
    }

    // ---- The encoder against the oracle on random tables. ----

    use proptest::prelude::*;

    /// Matches over a deliberately small value space so rules overlap.
    fn arb_match() -> impl Strategy<Value = Match> {
        (
            prop::option::of((0u8..4, 0u8..4, prop_oneof![Just(16u8), Just(24), Just(32)])),
            prop::option::of((0u8..4, 0u8..4, prop_oneof![Just(16u8), Just(24), Just(32)])),
            prop::option::of(prop_oneof![Just(6u8), Just(17u8)]),
            prop::option::of(prop_oneof![Just(22u16), Just(80), Just(443)]),
        )
            .prop_map(|(src, dst, proto, port)| {
                let mut m = Match::any();
                if let Some((a, b, plen)) = src {
                    m = m.with_nw_src([10, a, b, 1], plen);
                }
                if let Some((a, b, plen)) = dst {
                    m = m.with_nw_dst([10, a, b, 2], plen);
                }
                if let Some(p) = proto {
                    m = m.with_nw_proto(p);
                }
                if let Some(p) = port {
                    // A transport match pins the protocol (OF 1.0.1).
                    m = m.with_tp_dst(p);
                    if m.nw_proto.is_none() {
                        m = m.with_nw_proto(6);
                    }
                }
                m
            })
    }

    fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
        prop_oneof![
            Just(vec![]),                                                        // drop
            (1u16..5).prop_map(|p| vec![Action::Output(p)]),                     // unicast
            (0u8..8).prop_map(|t| vec![Action::SetNwTos(t), Action::Output(1)]), // rewrite
            Just(vec![Action::Output(1), Action::Output(2)]),                    // multicast
            Just(vec![Action::SelectOutput(vec![3, 4])]),                        // ECMP
        ]
    }

    fn arb_table() -> impl Strategy<Value = FlowTable> {
        prop::collection::vec((arb_match(), arb_actions(), 1u16..8), 1..12).prop_map(|rules| {
            let mut t = FlowTable::new();
            for (m, a, p) in rules {
                let _ = t.add_rule(p, m, a);
            }
            t
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The Implication and ITE instances of every rule of a random table
        /// agree on SAT/UNSAT, and on the reason when neither can be built.
        #[test]
        fn encodings_agree(table in arb_table()) {
            let catch = CatchSpec::default();
            for rule in table.rules() {
                let imp = build_instance(&table, rule, &catch).map(|i| solve(&i.cnf).is_sat());
                let ite = ite::build_instance_ite(&table, rule, &catch).map(|c| solve(&c).is_sat());
                prop_assert_eq!(imp, ite, "encodings disagree on {:?}", rule.match_);
            }
        }
    }

    /// The paper's Distinguish encoding (§5.3, Appendix B), the oracle
    /// [`build_instance`] is checked against: the outcome of the first
    /// lower-priority rule the probe matches, as the if-then-else chain
    /// `s = if(m_1, d_1, if(m_2, d_2, ... if(m_n, d_n, d_miss)))`, encoded
    /// with Velev's quadratic construction.
    mod ite {
        use super::*;
        use monocle_sat::CdclSolver;

        /// Maximum chain length encoded directly before a postfix is folded
        /// into a fresh variable (keeps the quadratic clause count bounded).
        const MAX_DIRECT_CHAIN: usize = 24;

        /// The probe-generation instance of [`build_instance`] with the ITE
        /// chain for Distinguish. Hit and Collect are the encoder's own.
        pub(super) fn build_instance_ite(
            table: &FlowTable,
            probed: &Rule,
            catch: &CatchSpec,
        ) -> Result<Cnf, BuildError> {
            check_catch_pins(probed, catch)?;
            let mut cnf = build_hit_only(table, probed, catch)?;
            let true_lit = cnf.fresh_var() as Lit;
            cnf.add_clause(&[true_lit]);
            let condition = |cnf: &mut Cnf, fwd: &Forwarding| {
                condition_literal(
                    cnf,
                    true_lit,
                    OutcomeDiff::compute(&probed.fwd, fwd).condition_ref(),
                )
            };
            let mut else_lit = condition(&mut cnf, &Forwarding::drop());
            let mut chain: Vec<(Lit, Lit)> = Vec::new();
            for l in relevant_rules(table, probed) {
                if l.priority >= probed.priority {
                    continue;
                }
                let cond = condition(&mut cnf, &l.fwd);
                match define_matches(&mut cnf, &l.tern) {
                    Some(m) => chain.push((m, cond)),
                    None => {
                        // An always-matching rule ends the chain: it is the
                        // else branch, and nothing below it is reachable.
                        else_lit = cond;
                        break;
                    }
                }
            }
            let s = cnf.fresh_var() as Lit;
            encode_ite_chain(&mut cnf, s, &chain, else_lit);
            cnf.add_clause(&[s]);
            Ok(cnf)
        }

        /// `v ⇔ clause`.
        fn define_or(cnf: &mut Cnf, clause: &[Lit]) -> Lit {
            if clause.len() == 1 {
                return clause[0];
            }
            let v = cnf.fresh_var() as Lit;
            for &l in clause {
                cnf.add_clause(&[v, -l]);
            }
            let mut long = clause.to_vec();
            long.push(-v);
            cnf.add_clause(&long);
            v
        }

        /// Literal equivalent to a [`BitCondition`] (allocating auxiliaries).
        fn condition_literal(cnf: &mut Cnf, true_lit: Lit, cond: &BitCondition) -> Lit {
            match cond {
                BitCondition::Const(true) => true_lit,
                BitCondition::Const(false) => -true_lit,
                BitCondition::Clause(c) => define_or(cnf, c),
                BitCondition::Cnf(cs) => {
                    let parts: Vec<Lit> = cs.iter().map(|c| define_or(cnf, c)).collect();
                    let v = cnf.fresh_var() as Lit;
                    for &p in &parts {
                        cnf.add_clause(&[-v, p]);
                    }
                    let mut long: Vec<Lit> = parts.iter().map(|&p| -p).collect();
                    long.push(v);
                    cnf.add_clause(&long);
                    v
                }
            }
        }

        /// Encodes `s ⇔ if(i1,t1, if(i2,t2, ... if(in,tn, else)))` where
        /// `i*`, `t*`, `else_lit` and `s` are literals, as Appendix B's
        /// clauses:
        /// ```text
        /// (!i1 | !t1 | s)(!i1 | t1 | !s)
        /// (i1 | !i2 | !t2 | s)(i1 | !i2 | t2 | !s)
        /// ...
        /// (i1 | ... | in | !else | s)(i1 | ... | in | else | !s)
        /// ```
        /// The postfix beyond [`MAX_DIRECT_CHAIN`] is given a fresh output
        /// variable, which becomes the `else` literal of the prefix.
        fn encode_ite_chain(cnf: &mut Cnf, s: Lit, chain: &[(Lit, Lit)], else_lit: Lit) {
            if chain.len() > MAX_DIRECT_CHAIN {
                let (prefix, postfix) = chain.split_at(MAX_DIRECT_CHAIN);
                let sub = cnf.fresh_var() as Lit;
                encode_ite_chain(cnf, sub, postfix, else_lit);
                encode_ite_chain_direct(cnf, s, prefix, sub);
            } else {
                encode_ite_chain_direct(cnf, s, chain, else_lit);
            }
        }

        fn encode_ite_chain_direct(cnf: &mut Cnf, s: Lit, chain: &[(Lit, Lit)], else_lit: Lit) {
            // The conditions passed so far: i1 | i2 | ... | ik.
            let mut guard: Vec<Lit> = Vec::with_capacity(chain.len() + 3);
            for &(cond, then) in chain {
                guard.extend([-cond, -then, s]);
                cnf.add_clause(&guard);
                guard.truncate(guard.len() - 3);
                guard.extend([-cond, then, -s]);
                cnf.add_clause(&guard);
                guard.truncate(guard.len() - 3);
                guard.push(cond);
            }
            guard.extend([-else_lit, s]);
            cnf.add_clause(&guard);
            guard.truncate(guard.len() - 2);
            guard.extend([else_lit, -s]);
            cnf.add_clause(&guard);
        }

        /// The chain's value under an assignment: the semantics the
        /// encoding is checked against.
        fn eval_ite_chain(
            assignment: &dyn Fn(Lit) -> bool,
            chain: &[(Lit, Lit)],
            else_lit: Lit,
        ) -> bool {
            for &(cond, then) in chain {
                if assignment(cond) {
                    return assignment(then);
                }
            }
            assignment(else_lit)
        }

        /// Exhaustive check: for a chain over distinct input variables,
        /// every assignment extends to exactly the output value the chain
        /// semantics dictate.
        fn check_chain(chain: &[(Lit, Lit)], else_lit: Lit, n_inputs: u32) {
            for bits in 0..(1u32 << n_inputs) {
                let value = |v: u32| bits >> (v - 1) & 1 == 1;
                let assignment = |l: Lit| value(l.unsigned_abs()) == (l > 0);
                let want = eval_ite_chain(&assignment, chain, else_lit);
                let mut cnf = Cnf::new();
                cnf.grow_vars(n_inputs);
                let s = cnf.fresh_var() as Lit;
                encode_ite_chain(&mut cnf, s, chain, else_lit);
                // Pin the inputs.
                for v in 1..=n_inputs {
                    cnf.add_clause(&[if value(v) { v as Lit } else { -(v as Lit) }]);
                }
                // s must be forced to `want`: check both polarities.
                let mut cnf_pos = cnf.clone();
                cnf_pos.add_clause(&[s]);
                let mut cnf_neg = cnf;
                cnf_neg.add_clause(&[-s]);
                let pos = CdclSolver::new().solve(&cnf_pos);
                let neg = CdclSolver::new().solve(&cnf_neg);
                assert_eq!(pos.is_sat(), want, "bits={bits:b} expected s={want}");
                assert_eq!(neg.is_sat(), !want, "bits={bits:b} expected s={want}");
            }
        }

        #[test]
        fn single_link_chain() {
            // s = if(x1, x2, x3)
            check_chain(&[(1, 2)], 3, 3);
        }

        #[test]
        fn two_link_chain_with_negations() {
            // s = if(!x1, x2, if(x3, !x4, x1))
            check_chain(&[(-1, 2), (3, -4)], 1, 4);
        }

        #[test]
        fn three_link_chain() {
            check_chain(&[(1, -2), (-3, 4), (2, 3)], -4, 4);
        }

        #[test]
        fn long_chain_splits() {
            // A chain longer than MAX_DIRECT_CHAIN; conditions all false
            // except the last, so s must equal its `then` literal.
            let n = (MAX_DIRECT_CHAIN + 5) as i32;
            // vars 1..=n are conditions, var n+1 is the shared then, n+2 else.
            let chain: Vec<(Lit, Lit)> = (1..=n).map(|v| (v, n + 1)).collect();
            let mut cnf = Cnf::new();
            cnf.grow_vars((n + 2) as u32);
            let s = cnf.fresh_var() as Lit;
            encode_ite_chain(&mut cnf, s, &chain, n + 2);
            for v in 1..n {
                cnf.add_clause(&[-v]);
            }
            cnf.add_clause(&[n]);
            cnf.add_clause(&[n + 1]); // then = true
            cnf.add_clause(&[-(n + 2)]); // else = false
            cnf.add_clause(&[-s]); // claim s false -> must be UNSAT
            assert_eq!(CdclSolver::new().solve(&cnf), SatResult::Unsat);
        }

        #[test]
        fn empty_chain_is_else() {
            // s = else
            let mut cnf = Cnf::new();
            cnf.grow_vars(1);
            let s = cnf.fresh_var() as Lit;
            encode_ite_chain(&mut cnf, s, &[], 1);
            cnf.add_clause(&[1]);
            cnf.add_clause(&[-s]);
            assert_eq!(CdclSolver::new().solve(&cnf), SatResult::Unsat);
        }

        #[test]
        fn quadratic_clause_count() {
            let chain: Vec<(Lit, Lit)> = (1..=10).map(|v| (v, v + 10)).collect();
            let mut cnf = Cnf::new();
            cnf.grow_vars(21);
            let s = cnf.fresh_var() as Lit;
            encode_ite_chain(&mut cnf, s, &chain, 21);
            // 2 clauses per link + 2 for else.
            assert_eq!(cnf.num_clauses(), 2 * 10 + 2);
        }
    }
}
