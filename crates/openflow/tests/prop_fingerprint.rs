//! Property tests: `FlowTable::fingerprint` and the per-rule signatures
//! behind it are maintained incrementally by every mutation path and never
//! re-hashed on read, so they are held here to a from-scratch recomputation
//! (`fingerprint_from_scratch`, `Rule::signature`) after every step — and
//! to what a content fingerprint is for: tables with the same rules agree,
//! however they got there, and tables with different rules do not.

mod common;

use common::{arb_actions, arb_flowmod, arb_match};
use monocle_openflow::{Action, FlowMod, FlowTable, Forwarding, Match, Rule, RuleId, Ternary};
use proptest::prelude::*;

/// What the fingerprint covers: which rules, and of each what probe
/// generation reads (two action lists that forward alike are the same).
fn content(table: &FlowTable) -> Vec<(RuleId, u16, Ternary, Forwarding)> {
    table
        .rules()
        .iter()
        .map(|r| (r.id, r.priority, r.tern, r.fwd.clone()))
        .collect()
}

/// The maintained values equal a recomputation, and travel with the copies
/// (`clone`, every `neighborhood`) without being recomputed wrongly there.
fn assert_maintained(table: &FlowTable) -> Result<(), TestCaseError> {
    for r in table.rules() {
        prop_assert_eq!(
            r.sig(),
            Rule::signature(r.priority, &r.tern, &r.fwd),
            "stale signature on {}",
            r.id
        );
    }
    prop_assert_eq!(table.fingerprint(), table.fingerprint_from_scratch());
    prop_assert_eq!(table.clone().fingerprint(), table.fingerprint());
    let all = table.neighborhood(&Match::any().ternary());
    prop_assert_eq!(all.fingerprint(), table.fingerprint());
    for r in table.rules() {
        let nb = table.neighborhood(&r.tern);
        prop_assert_eq!(nb.fingerprint(), nb.fingerprint_from_scratch());
        // A proper sub-table is a different table.
        prop_assert_eq!(
            nb.fingerprint() == table.fingerprint(),
            nb.len() == table.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `add_rule` (ADD-replace included: priorities and matches collide
    /// often), `add_rule_ternary`, `apply` of every command, `remove_by_id`.
    #[test]
    fn fingerprint_is_maintained_by_every_mutation_path(
        seed_rules in prop::collection::vec((0u16..4, arb_match(), arb_actions()), 1..12),
        mods in prop::collection::vec(arb_flowmod(), 0..20),
        removals in prop::collection::vec(0usize..64, 0..4)
    ) {
        let mut t = FlowTable::new();
        prop_assert_eq!(t.fingerprint(), 0);
        for (i, (prio, m, a)) in seed_rules.into_iter().enumerate() {
            if i % 3 == 0 {
                t.add_rule_ternary(prio, m.ternary(), vec![Action::Output(1)]);
            } else {
                let _ = t.add_rule(prio, m, a);
            }
            assert_maintained(&t)?;
        }
        for fm in &mods {
            let before = (content(&t), t.fingerprint());
            let _ = t.apply(fm);
            assert_maintained(&t)?;
            // The fingerprint moves exactly when what it covers does.
            prop_assert_eq!(before.0 == content(&t), before.1 == t.fingerprint());
        }
        for pick in removals {
            if t.is_empty() {
                break;
            }
            let id = t.rules()[pick % t.len()].id;
            let before = t.fingerprint();
            prop_assert!(t.remove_by_id(id).is_some());
            prop_assert_ne!(t.fingerprint(), before);
            assert_maintained(&t)?;
        }
    }

    /// Rule order is a function of the rule set, so the order of the
    /// operations that led to it must not show: the same strict deletes and
    /// modifies applied forwards and backwards meet in one fingerprint, and
    /// a modify undone restores the old one.
    #[test]
    fn same_rules_reached_in_different_orders_agree(
        rules in prop::collection::vec((arb_match(), arb_actions()), 2..16),
        edits in prop::collection::vec((0usize..16, prop::option::of(arb_actions())), 1..8)
    ) {
        // Distinct priorities: every rule its own (priority, match) key, so
        // strict edits of different rules commute.
        let mut base = FlowTable::new();
        for (i, (m, a)) in rules.iter().enumerate() {
            base.add_rule(i as u16, *m, a.clone()).unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        let edits: Vec<FlowMod> = edits
            .into_iter()
            .filter(|(i, _)| seen.insert(i % rules.len()))
            .map(|(i, actions)| {
                let i = i % rules.len();
                match actions {
                    Some(a) => FlowMod::modify_strict(i as u16, rules[i].0, a),
                    None => FlowMod::delete_strict(i as u16, rules[i].0),
                }
            })
            .collect();
        let (mut forwards, mut backwards) = (base.clone(), base.clone());
        for fm in &edits {
            forwards.apply(fm).unwrap();
        }
        for fm in edits.iter().rev() {
            backwards.apply(fm).unwrap();
        }
        prop_assert_eq!(forwards.rules(), backwards.rules());
        prop_assert_eq!(forwards.fingerprint(), backwards.fingerprint());
        assert_maintained(&forwards)?;
        // There and back again: modify every surviving rule, then restore it.
        let there = forwards.fingerprint();
        let mut round_trip = forwards.clone();
        for r in forwards.rules() {
            let other = vec![Action::Output(4242)];
            round_trip.apply(&FlowMod::modify_strict(r.priority, r.match_, other)).unwrap();
        }
        prop_assert_eq!(round_trip.fingerprint() == there, forwards.is_empty());
        for r in forwards.rules() {
            let back = FlowMod::modify_strict(r.priority, r.match_, r.actions.clone());
            round_trip.apply(&back).unwrap();
        }
        prop_assert_eq!(round_trip.fingerprint(), there);
    }
}
