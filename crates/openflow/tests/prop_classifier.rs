//! Property tests: the trie classifier behind `FlowTable::lookup`,
//! `lookup_excluding` and `overlapping` must be observationally identical
//! to the retained linear-scan reference (`*_linear`) on randomized rule
//! sets and under interleaved Add/Modify/Delete FlowMod sequences —
//! including equal-priority arrival-order ties — and so must the id index
//! behind `FlowTable::get` to a linear find. `FlowTable::neighborhood`
//! is held to the same reference: it is exactly `overlapping_linear` as a
//! table, and answers every header inside the query like the full table.

mod common;

use common::{arb_actions, arb_flowmod, arb_match};
use monocle_openflow::{Action, FlowTable, HeaderVec, Match, RuleId, Ternary};
use proptest::prelude::*;

/// Probes that exercise the table: each rule's sample packet, pairwise
/// overlap witnesses, and a handful of fixed corners.
fn probe_set(table: &FlowTable) -> Vec<HeaderVec> {
    let mut probes = vec![HeaderVec::ZERO, HeaderVec::all_ones()];
    let terns: Vec<Ternary> = table.rules().iter().map(|r| r.tern).collect();
    for t in &terns {
        probes.push(t.sample_packet());
    }
    for (i, a) in terns.iter().enumerate() {
        for b in terns.iter().skip(i + 1) {
            if a.overlaps(b) {
                probes.push(a.value.or(&b.value));
            }
        }
    }
    probes
}

/// Asserts full observational equivalence of the trie and linear paths on
/// the current table state.
fn assert_equivalent(table: &FlowTable) -> Result<(), TestCaseError> {
    let probes = probe_set(table);
    let ids: Vec<RuleId> = table.rules().iter().map(|r| r.id).collect();
    // The id index against a linear find, over live and departed ids alike.
    let top = ids.iter().map(|id| id.0).max().unwrap_or(0) + 2;
    for id in (0..top).map(RuleId) {
        let linear = table.rules().iter().find(|r| r.id == id);
        prop_assert_eq!(table.get(id), linear, "get({}) diverges", id);
    }
    for p in &probes {
        let trie = table.lookup(p).map(|r| r.id);
        let lin = table.lookup_linear(p).map(|r| r.id);
        prop_assert_eq!(trie, lin, "lookup diverges on {:?}", p);
        for &skip in &ids {
            let trie = table.lookup_excluding(p, skip).map(|r| r.id);
            let lin = table.lookup_excluding_linear(p, skip).map(|r| r.id);
            prop_assert_eq!(trie, lin, "lookup_excluding({}) diverges", skip);
        }
    }
    for r in table.rules() {
        let trie: Vec<RuleId> = table.overlapping(&r.tern).iter().map(|x| x.id).collect();
        let lin: Vec<RuleId> = table
            .overlapping_linear(&r.tern)
            .iter()
            .map(|x| x.id)
            .collect();
        prop_assert_eq!(trie, lin, "overlapping order/content diverges");
        let excl: Vec<RuleId> = table
            .overlapping_excluding(&r.tern, r.id)
            .iter()
            .map(|x| x.id)
            .collect();
        let lin_excl: Vec<RuleId> = table
            .overlapping_linear(&r.tern)
            .iter()
            .filter(|x| x.id != r.id)
            .map(|x| x.id)
            .collect();
        prop_assert_eq!(excl, lin_excl, "overlapping_excluding diverges");
    }
    Ok(())
}

/// `neighborhood(t)` is `overlapping_linear(t)` verbatim (ids, order,
/// content, id allocation), and for headers inside `t` it answers
/// `lookup` / `lookup_excluding` / `process` like the full table.
fn assert_neighborhood(table: &FlowTable, t: &Ternary) -> Result<(), TestCaseError> {
    let nb = table.neighborhood(t);
    let lin: Vec<_> = table.overlapping_linear(t).into_iter().cloned().collect();
    prop_assert_eq!(nb.rules(), &lin[..], "neighborhood != overlap set");
    for r in table.rules() {
        let kept = lin.iter().find(|x| x.id == r.id);
        prop_assert_eq!(nb.get(r.id), kept, "neighborhood get({})", r.id);
    }
    // `next_id` carried over: the next rule gets the id the table would give.
    let fresh = Match::any().with_tp_src(4242);
    prop_assert_eq!(
        nb.clone().add_rule(9, fresh, vec![]),
        table.clone().add_rule(9, fresh, vec![])
    );
    // Headers inside `t`: one per overlapping rule (a witness of t ∩ r).
    for r in &lin {
        let h = t.value.or(&r.tern.value);
        prop_assert!(t.matches(&h));
        prop_assert_eq!(nb.lookup(&h), table.lookup(&h), "lookup diverges");
        prop_assert_eq!(nb.lookup(&h), nb.lookup_linear(&h), "own classifier");
        for skip in &lin {
            prop_assert_eq!(
                nb.lookup_excluding(&h, skip.id),
                table.lookup_excluding(&h, skip.id),
                "lookup_excluding({}) diverges",
                skip.id
            );
        }
        for choice in 0..2 {
            prop_assert_eq!(nb.process(&h, choice), table.process(&h, choice));
        }
    }
    Ok(())
}

/// [`assert_neighborhood`] around every rule of the table, plus the
/// all-wildcard query, whose neighborhood is the table.
fn assert_neighborhoods(table: &FlowTable) -> Result<(), TestCaseError> {
    for r in table.rules() {
        assert_neighborhood(table, &r.tern)?;
    }
    let all = table.neighborhood(&Match::any().ternary());
    prop_assert_eq!(all.rules(), table.rules());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Static equivalence: a batch of random adds (with heavy priority
    /// ties), then every query answered both ways.
    #[test]
    fn trie_equals_linear_on_random_tables(
        rules in prop::collection::vec((0u16..4, arb_match(), arb_actions()), 1..40)
    ) {
        let mut t = FlowTable::new();
        for (prio, m, a) in rules {
            let _ = t.add_rule(prio, m, a);
        }
        assert_equivalent(&t)?;
    }

    /// Dynamic equivalence: interleaved Add/Modify/Delete (strict and
    /// non-strict) FlowMods, checking equivalence after every step so the
    /// incremental split/collapse maintenance is exercised mid-sequence.
    #[test]
    fn trie_equals_linear_under_flowmod_churn(
        mods in prop::collection::vec(arb_flowmod(), 1..30)
    ) {
        let mut t = FlowTable::new();
        for fm in &mods {
            let _ = t.apply(fm);
            assert_equivalent(&t)?;
        }
    }

    /// Bit-level rules (add_rule_ternary) mixed with field-level churn:
    /// the classifier must stay exact for arbitrary ternaries too.
    #[test]
    fn trie_equals_linear_with_ternary_rules(
        seed_rules in prop::collection::vec((0u16..4, arb_match()), 1..10),
        mods in prop::collection::vec(arb_flowmod(), 0..10)
    ) {
        let mut t = FlowTable::new();
        for (i, (prio, m)) in seed_rules.iter().enumerate() {
            if i % 2 == 0 {
                t.add_rule_ternary(*prio, m.ternary(), vec![Action::Output(1)]);
            } else {
                let _ = t.add_rule(*prio, *m, vec![Action::Output(2)]);
            }
        }
        assert_equivalent(&t)?;
        for fm in &mods {
            let _ = t.apply(fm);
            assert_equivalent(&t)?;
        }
    }

    /// Neighborhoods of a table holding equal-priority ties and
    /// `add_rule_ternary` rules that share a priority (and `Match::any()`),
    /// checked after every step of interleaved Add/Modify/Delete churn —
    /// around every rule and around each FlowMod's own match.
    #[test]
    fn neighborhood_equals_overlap_set_and_answers_like_the_table(
        seed_rules in prop::collection::vec((0u16..4, arb_match()), 1..12),
        mods in prop::collection::vec(arb_flowmod(), 0..12)
    ) {
        let mut t = FlowTable::new();
        for (i, (prio, m)) in seed_rules.iter().enumerate() {
            if i % 2 == 0 {
                t.add_rule_ternary(*prio, m.ternary(), vec![Action::Output(1)]);
            } else {
                let _ = t.add_rule(*prio, *m, vec![Action::Output(2)]);
            }
        }
        assert_neighborhoods(&t)?;
        for fm in &mods {
            let _ = t.apply(fm);
            assert_neighborhoods(&t)?;
            assert_neighborhood(&t, &fm.match_.ternary())?;
        }
    }
}
