//! Property tests: `FlowTable::fingerprint` and the per-rule signatures
//! behind it are maintained incrementally by every mutation path and never
//! re-hashed on read, so they are held here to a from-scratch recomputation
//! (`fingerprint_from_scratch`, `Rule::signature`) after every step — and
//! to what a content fingerprint is for: tables with the same rules agree,
//! however they got there, and tables with different rules do not. The
//! change log beside the fingerprint (`version`, `changes_since`) is held to
//! the same recomputation: it names every rule whose term moved. So are the
//! per-field care counts (`rules_caring`), against a bit-by-bit recount
//! (`care_counts_from_scratch`).

mod common;

use common::{arb_actions, arb_flowmod, arb_match};
use monocle_openflow::{
    Action, FlowMod, FlowModCommand, FlowTable, Forwarding, Match, Rule, RuleId, Ternary, FIELDS,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// What the fingerprint covers: which rules, and of each what probe
/// generation reads (two action lists that forward alike are the same).
fn content(table: &FlowTable) -> Vec<(RuleId, u16, Ternary, Forwarding)> {
    table
        .rules()
        .iter()
        .map(|r| (r.id, r.priority, r.tern, r.fwd.clone()))
        .collect()
}

/// The maintained care count of every field, in `FIELDS` order.
fn care_counts(table: &FlowTable) -> [usize; FIELDS.len()] {
    FIELDS.map(|f| table.rules_caring(f))
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
    prop_assert_eq!(care_counts(table), table.care_counts_from_scratch());
    prop_assert_eq!(care_counts(&table.clone()), care_counts(table));
    let all = table.neighborhood(&Match::any().ternary());
    prop_assert_eq!(all.fingerprint(), table.fingerprint());
    prop_assert_eq!(care_counts(&all), care_counts(table));
    for r in table.rules() {
        let nb = table.neighborhood(&r.tern);
        prop_assert_eq!(nb.fingerprint(), nb.fingerprint_from_scratch());
        prop_assert_eq!(care_counts(&nb), nb.care_counts_from_scratch());
        // A proper sub-table is a different table.
        prop_assert_eq!(
            nb.fingerprint() == table.fingerprint(),
            nb.len() == table.len()
        );
    }
    Ok(())
}

/// Each rule's fingerprint term, as (id, signature).
fn terms(table: &FlowTable) -> BTreeMap<RuleId, u64> {
    table.rules().iter().map(|r| (r.id, r.sig())).collect()
}

/// Records the table's present `(version, terms)` in `seen`, then: for
/// every one seen that the table still remembers, `changes_since` is the
/// last `version() - version` changes and names every id whose term
/// differs between then and now; a clone remembers the same.
fn step(
    table: &FlowTable,
    seen: &mut Vec<(u64, BTreeMap<RuleId, u64>)>,
) -> Result<(), TestCaseError> {
    seen.push((table.version(), terms(table)));
    let v = table.version();
    prop_assert_eq!(table.changes_since(v), Some(&[][..]));
    prop_assert_eq!(table.changes_since(v + 1), None);
    let now = terms(table);
    let copy = table.clone();
    for (then_v, then) in seen.iter() {
        prop_assert_eq!(copy.changes_since(*then_v), table.changes_since(*then_v));
        let Some(ids) = table.changes_since(*then_v) else {
            continue;
        };
        prop_assert_eq!(ids.len() as u64, v - then_v);
        for id in then.keys().chain(now.keys()) {
            if then.get(id) != now.get(id) {
                prop_assert!(ids.contains(id), "{} moved since {} unlogged", id, then_v);
            }
        }
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

    /// The change log through every mutation path — `add_rule` (ADD-replace
    /// included), `add_rule_ternary`, `apply` of every command, an in-place
    /// non-strict MODIFY of every rule, `do_delete`'s pre-pass under a
    /// non-strict DELETE, `remove_by_id` — and past its bound, after which
    /// every version from before the overflow is answered `None`.
    #[test]
    fn change_log_names_every_rule_whose_term_moved(
        seed_rules in prop::collection::vec((0u16..4, arb_match(), arb_actions()), 1..12),
        mods in prop::collection::vec(arb_flowmod(), 0..20),
        removals in prop::collection::vec(0usize..64, 0..4)
    ) {
        let mut t = FlowTable::new();
        let mut seen = vec![(t.version(), terms(&t))];
        for (i, (prio, m, a)) in seed_rules.into_iter().enumerate() {
            if i % 3 == 0 {
                t.add_rule_ternary(prio, m.ternary(), vec![Action::Output(1)]);
            } else {
                let _ = t.add_rule(prio, m, a);
            }
            step(&t, &mut seen)?;
        }
        for fm in &mods {
            let _ = t.apply(fm);
            step(&t, &mut seen)?;
        }
        let loose = |command, match_, actions| FlowMod {
            command,
            ..FlowMod::modify_strict(0, match_, actions)
        };
        let res = t.apply(&loose(FlowModCommand::Modify, Match::any(), vec![Action::Output(7)])).unwrap();
        prop_assert_eq!(res.modified.len() + res.added.len(), t.len().max(1));
        step(&t, &mut seen)?;
        if let Some(r) = t.rules().last().cloned() {
            let res = t.apply(&loose(FlowModCommand::Delete, r.match_, vec![])).unwrap();
            prop_assert!(res.removed.contains(&r.id));
            step(&t, &mut seen)?;
        }
        for pick in removals {
            if t.is_empty() {
                break;
            }
            let id = t.rules()[pick % t.len()].id;
            t.remove_by_id(id);
            step(&t, &mut seen)?;
        }
        let Some(r) = t.rules().first().cloned() else {
            return Ok(());
        };
        let away = FlowMod::modify_strict(r.priority, r.match_, vec![Action::Output(4242)]);
        let back = FlowMod::modify_strict(r.priority, r.match_, r.actions.clone());
        for _ in 0..t.len() + 33 {
            t.apply(&away).unwrap();
            t.apply(&back).unwrap();
        }
        for (v, _) in &seen {
            prop_assert_eq!(t.changes_since(*v), None, "version {} survived", v);
        }
        step(&t, &mut seen)?;
    }
}
