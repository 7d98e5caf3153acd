//! Cache-invalidation soundness of the [`monocle::engine::ProbeEngine`].
//!
//! For random flow tables driven through random FlowMod edit sequences, the
//! stateful engine must stay *plan-equivalent* to fresh stateless
//! generation after every edit:
//!
//! * same success/failure status and error classification per rule;
//! * every engine-produced plan passes the semantic oracle
//!   ([`monocle::plan::verify_probe`]) against the *current* table — i.e.
//!   no stale cached plan survives an edit that affected its rule.
//!
//! Probe packets may legitimately differ where the engine's fast path or a
//! plan kept from an earlier table answered (both are verified candidates),
//! so there equivalence is semantic, not structural; a rule the engine
//! sends to the solver gets the stateless answer itself. Nobody tells the
//! engine about an edit: it learns the delta from the table's change log,
//! with the fingerprint as the safety net.
//!
//! Soundness alone would let the engine throw everything away on every
//! edit, so a second property pins the eviction set itself: what
//! `take_evicted` reports after some edits is exactly the plans whose probe
//! header lies in a footprint of a rule that differs from the last sync,
//! the `Hidden` rules that differ themselves or lost a cover of priority ≥
//! their own that overlapped them, plus the other failures whose rule
//! overlaps a footprint — no more (the cost of an update follows the
//! change), no less — whether the log covers the edits, has overflowed, or
//! belongs to a diverged copy of the table.

//! The same equivalence bar applies to [`monocle::pool::EnginePool`]: one
//! switch's engine handed a differently edited table job after job (each
//! table owned by its job) must never serve a plan from the table before.
//!
//! And to planning on a rule's overlap neighborhood
//! ([`monocle_openflow::FlowTable::neighborhood`]) instead of the table —
//! what the reference `PlanRequest` form carries: same found / not found and
//! error class as planning on the full table, every neighborhood plan
//! valid on the full table, and one long-lived engine handed consecutive
//! unrelated neighborhoods never serves a stale plan.

use monocle::encode::CatchSpec;
use monocle::engine::ProbeEngine;
use monocle::generator::{generate_probe, GeneratorConfig, ProbeError};
use monocle::plan::verify_probe;
use monocle::pool::{monitorable_ids, EnginePool, JobSpec, PoolConfig, ProbeJob};
use monocle_openflow::{
    Action, FlowMod, FlowModCommand, FlowTable, Match, RuleId, SharedTable, Ternary,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Random matches over a small value space so rules overlap (mirrors
/// `tests/prop_probe.rs`).
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

/// One edit of the FlowMod sequence. Delete/Modify address an existing rule
/// by index (modulo the live table size at application time).
#[derive(Debug, Clone)]
enum Edit {
    Add(u16, Match, Vec<Action>),
    Delete(usize),
    Modify(usize, Vec<Action>),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (1u16..8, arb_match(), arb_actions()).prop_map(|(p, m, a)| Edit::Add(p, m, a)),
        any::<usize>().prop_map(Edit::Delete),
        (any::<usize>(), arb_actions()).prop_map(|(i, a)| Edit::Modify(i, a)),
    ]
}

fn arb_table() -> impl Strategy<Value = FlowTable> {
    arb_table_of(1..10)
}

fn arb_table_of(rules: std::ops::Range<usize>) -> impl Strategy<Value = FlowTable> {
    prop::collection::vec((arb_match(), arb_actions(), 1u16..8), rules).prop_map(|rules| {
        let mut t = FlowTable::new();
        for (m, a, p) in rules {
            let _ = t.add_rule(p, m, a);
        }
        t
    })
}

/// Turns an [`Edit`] into a concrete FlowMod against the current table, or
/// `None` when it has no target (empty table).
fn to_flowmod(edit: &Edit, table: &FlowTable) -> Option<FlowMod> {
    match edit {
        Edit::Add(p, m, a) => Some(FlowMod::add(*p, *m, a.clone())),
        Edit::Delete(i) => {
            if table.is_empty() {
                return None;
            }
            let r = &table.rules()[i % table.len()];
            Some(FlowMod::delete_strict(r.priority, r.match_))
        }
        Edit::Modify(i, a) => {
            if table.is_empty() {
                return None;
            }
            let r = &table.rules()[i % table.len()];
            Some(FlowMod::modify_strict(r.priority, r.match_, a.clone()))
        }
    }
}

/// The commands [`Edit`] does not reach: the non-strict ones, an ADD that
/// replaces, a MODIFY that may find nothing to modify and then adds.
#[derive(Debug, Clone)]
enum Churn {
    Strict(Edit),
    AddReplace(usize, Vec<Action>),
    ModifyAsAdd(u16, Match, Vec<Action>),
    DeleteLoose(Match),
    ModifyLoose(Match, Vec<Action>),
}

fn arb_churn() -> impl Strategy<Value = Churn> {
    prop_oneof![
        3 => arb_edit().prop_map(Churn::Strict),
        1 => (any::<usize>(), arb_actions()).prop_map(|(i, a)| Churn::AddReplace(i, a)),
        1 => (1u16..8, arb_match(), arb_actions()).prop_map(|(p, m, a)| Churn::ModifyAsAdd(p, m, a)),
        1 => arb_match().prop_map(Churn::DeleteLoose),
        1 => (arb_match(), arb_actions()).prop_map(|(m, a)| Churn::ModifyLoose(m, a)),
    ]
}

/// What happens to the table between two synchronizations of the engine.
#[derive(Debug, Clone)]
enum Between {
    /// Some FlowMods on the table the engine read last.
    Edits(Vec<Churn>),
    /// Rule `i` modified away and back more often than the table's change
    /// log keeps ids, then some FlowMods: the log no longer reaches back to
    /// the last sync.
    Overflow(usize, Vec<Churn>),
    /// The FlowMods land on the table as of the sync *before* the last, and
    /// the engine reads that copy from now on: the same lineage of ids, a
    /// history of its own.
    Diverge(Vec<Churn>),
}

fn arb_between() -> impl Strategy<Value = Between> {
    let edits = || prop::collection::vec(arb_churn(), 1..4);
    prop_oneof![
        4 => edits().prop_map(Between::Edits),
        1 => (any::<usize>(), edits()).prop_map(|(i, e)| Between::Overflow(i, e)),
        1 => edits().prop_map(Between::Diverge),
    ]
}

fn apply_churn(table: &mut FlowTable, churn: &[Churn]) {
    for c in churn {
        if let Some(fm) = churn_flowmod(c, table) {
            let _ = table.apply(&fm);
        }
    }
}

fn churn_flowmod(churn: &Churn, table: &FlowTable) -> Option<FlowMod> {
    let with = |command, fm| FlowMod { command, ..fm };
    match churn {
        Churn::Strict(edit) => to_flowmod(edit, table),
        Churn::AddReplace(i, a) => {
            let r = table.rules().get(i % table.len().max(1))?;
            Some(FlowMod::add(r.priority, r.match_, a.clone()))
        }
        Churn::ModifyAsAdd(p, m, a) => Some(FlowMod::modify_strict(*p, *m, a.clone())),
        Churn::DeleteLoose(m) => Some(with(FlowModCommand::Delete, FlowMod::delete_strict(0, *m))),
        Churn::ModifyLoose(m, a) => Some(with(
            FlowModCommand::Modify,
            FlowMod::modify_strict(0, *m, a.clone()),
        )),
    }
}

/// Whether rule `id` reads differently to probe generation in `after` than
/// in `before` (added, removed or modified), compared field by field.
fn differs(before: &FlowTable, after: &FlowTable, id: RuleId) -> bool {
    let content = |t: &FlowTable| t.get(id).map(|r| (r.priority, r.tern, r.fwd.clone()));
    content(before) != content(after)
}

/// The rules that differ between two tables, found the slow way: every id
/// of either. Returns their footprints (old and new ternaries) and the
/// covers, (priority, ternary), that went: the old side of a rule that left
/// or moved its match or priority, unless the new table has a rule that
/// differs and puts the same cover back.
fn changed_footprints(
    before: &FlowTable,
    after: &FlowTable,
) -> (Vec<Ternary>, Vec<(u16, Ternary)>) {
    let (mut footprints, mut gone, mut present) = (Vec::new(), Vec::new(), Vec::new());
    for old in before
        .rules()
        .iter()
        .filter(|r| differs(before, after, r.id))
    {
        footprints.push(old.tern);
        gone.push((old.priority, old.tern));
    }
    for new in after
        .rules()
        .iter()
        .filter(|r| differs(before, after, r.id))
    {
        footprints.push(new.tern);
        present.push((new.priority, new.tern));
    }
    gone.retain(|cover| !present.contains(cover));
    (footprints, gone)
}

/// Engine answers for every rule must match fresh stateless generation.
fn assert_equivalent(
    engine: &mut ProbeEngine,
    table: &FlowTable,
    catch: &CatchSpec,
    gen: &GeneratorConfig,
    context: &str,
) -> Result<(), TestCaseError> {
    let pins = catch.all_pins();
    for rule in table.rules() {
        let stateless = generate_probe(table, rule.id, catch, gen);
        let engined = engine.generate(table, rule.id, catch);
        prop_assert_eq!(
            engined.is_ok(),
            stateless.is_ok(),
            "status diverged for {:?} ({context}): engine={:?} stateless={:?}",
            rule.match_,
            engined.as_ref().err(),
            stateless.as_ref().err()
        );
        match engined {
            Ok(plan) => {
                let oracle = verify_probe(table, rule.id, &plan.header, &pins);
                prop_assert!(
                    oracle.is_some(),
                    "engine plan fails the oracle for {:?} ({context})",
                    rule.match_
                );
                let (present, absent) = oracle.unwrap();
                prop_assert_eq!(&plan.present, &present, "stale present outcome ({context})");
                prop_assert_eq!(&plan.absent, &absent, "stale absent outcome ({context})");
            }
            Err(e) => {
                prop_assert_eq!(
                    e,
                    stateless.unwrap_err(),
                    "error classification diverged ({context})"
                );
            }
        }
    }
    Ok(())
}

/// Planning rule by rule on `table.neighborhood(rule)` — statelessly, and on
/// one long-lived `engine` that sees nothing but those small tables — must
/// agree with stateless planning on `table`, and each neighborhood plan must
/// pass the oracle **on the full table** with the outcomes it promises.
/// Returns (found, not found).
fn assert_neighborhood_equivalent(
    engine: &mut ProbeEngine,
    table: &FlowTable,
    context: &str,
) -> Result<(usize, usize), TestCaseError> {
    let catch = CatchSpec::default();
    let gen = GeneratorConfig::default();
    let (mut found, mut not_found) = (0, 0);
    for rule in table.rules() {
        let nb = table.neighborhood(&rule.tern);
        let full = generate_probe(table, rule.id, &catch, &gen);
        for (how, small) in [
            ("stateless", generate_probe(&nb, rule.id, &catch, &gen)),
            ("engine", engine.generate(&nb, rule.id, &catch)),
        ] {
            match (&small, &full) {
                (Ok(plan), Ok(_)) => {
                    let oracle = verify_probe(table, rule.id, &plan.header, &[]);
                    prop_assert_eq!(
                        oracle,
                        Some((plan.present.clone(), plan.absent.clone())),
                        "{} neighborhood plan for {:?} fails on the full table ({})",
                        how,
                        rule.match_,
                        context
                    );
                }
                (Err(e), Err(f)) => {
                    prop_assert_eq!(e, f, "error class diverged, {} ({})", how, context)
                }
                _ => prop_assert!(
                    false,
                    "found/not found diverged for {:?}, {} ({}): neighborhood={:?} full={:?}",
                    rule.match_,
                    how,
                    context,
                    small.as_ref().err(),
                    full.as_ref().err()
                ),
            }
        }
        if full.is_ok() {
            found += 1;
        } else {
            not_found += 1;
        }
    }
    Ok((found, not_found))
}

/// One [`JobSpec::All`] job for `sw` on the table in `shared`.
fn pool_job(sw: u32, shared: &Arc<SharedTable>) -> ProbeJob {
    ProbeJob {
        switch_id: sw,
        table: Arc::clone(shared),
        catch: CatchSpec::default(),
        spec: JobSpec::All,
    }
}

/// A pool result for `reference`, submitted as a fresh job that owns a copy
/// of it — always for switch 0, so the same warm engine sees every table of
/// a sequence — must be semantically equivalent to fresh stateless
/// generation on `reference`: identical monitorable set and per-rule
/// status/error, and every pooled plan passes the oracle with the oracle's
/// outcomes.
fn assert_pool_equivalent(
    pool: &EnginePool,
    reference: &FlowTable,
    context: &str,
) -> Result<(), TestCaseError> {
    let catch = CatchSpec::default();
    let gen = GeneratorConfig::default();
    let owned = Arc::new(SharedTable::new(reference.clone()));
    let res = pool.run_batch(vec![pool_job(0, &owned)]);
    let r = &res[0];
    prop_assert!(!r.stale && !r.panicked, "job planned ({context})");
    prop_assert_eq!(
        &r.ids,
        &monitorable_ids(reference),
        "same sweep set ({context})"
    );
    prop_assert_eq!(r.ids.len(), r.results.len(), "aligned results ({context})");
    for (&id, pooled) in r.ids.iter().zip(&r.results) {
        let stateless = generate_probe(reference, id, &catch, &gen);
        prop_assert_eq!(
            pooled.is_ok(),
            stateless.is_ok(),
            "status diverged for rule {:?} ({context}): pool={:?} stateless={:?}",
            id,
            pooled.as_ref().err(),
            stateless.as_ref().err()
        );
        match pooled {
            Ok(plan) => {
                let oracle = verify_probe(reference, id, &plan.header, &[]);
                prop_assert!(oracle.is_some(), "pooled plan fails oracle ({context})");
                let (present, absent) = oracle.unwrap();
                prop_assert_eq!(&plan.present, &present, "stale present outcome ({context})");
                prop_assert_eq!(&plan.absent, &absent, "stale absent outcome ({context})");
            }
            Err(e) => {
                prop_assert_eq!(
                    *e,
                    stateless.unwrap_err(),
                    "error classification diverged ({context})"
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The headline invariant: engine output is plan-equivalent to fresh
    /// stateless generation after every edit of a random FlowMod sequence.
    #[test]
    fn engine_equivalent_across_edit_sequences(
        table in arb_table(),
        edits in prop::collection::vec(arb_edit(), 1..8),
    ) {
        let catch = CatchSpec::default();
        let gen = GeneratorConfig::default();
        let mut table = table;
        let mut engine = ProbeEngine::default();
        assert_equivalent(&mut engine, &table, &catch, &gen, "initial")?;
        for (step, edit) in edits.iter().enumerate() {
            let Some(fm) = to_flowmod(edit, &table) else {
                continue;
            };
            let _ = table.apply(&fm);
            let ctx = format!("after edit {step}: {edit:?}");
            assert_equivalent(&mut engine, &table, &catch, &gen, &ctx)?;
        }
    }

    /// The other half: nothing is evicted that the edits since the last
    /// sync cannot have reached, and everything that they can is. Computed
    /// from the results the engine handed out at that sync and the two
    /// tables alone. A log that covers the edits never falls back to the
    /// full diff; an overflowed one does whenever the table changed.
    #[test]
    fn evictions_are_exactly_what_the_change_reaches(
        table in arb_table(),
        steps in prop::collection::vec(arb_between(), 1..6),
    ) {
        let catch = CatchSpec::default();
        let gen = GeneratorConfig::default();
        let mut table = table;
        let mut engine = ProbeEngine::default();
        assert_equivalent(&mut engine, &table, &catch, &gen, "initial")?;
        let mut earlier = table.clone();
        for (step, between) in steps.iter().enumerate() {
            let held: Vec<_> = table
                .rules()
                .iter()
                .map(|r| (r.id, r.priority, r.tern, engine.generate(&table, r.id, &catch)))
                .collect();
            let before = table.clone();
            match between {
                Between::Edits(churn) => apply_churn(&mut table, churn),
                Between::Overflow(i, churn) => {
                    if let Some(r) = table.rules().get(i % table.len().max(1)).cloned() {
                        let away = FlowMod::modify_strict(r.priority, r.match_, vec![Action::Output(9)]);
                        let back = FlowMod::modify_strict(r.priority, r.match_, r.actions);
                        for _ in 0..table.len() + 33 {
                            table.apply(&away).unwrap();
                            table.apply(&back).unwrap();
                        }
                        prop_assert_eq!(table.changes_since(before.version()), None);
                    }
                    apply_churn(&mut table, churn);
                }
                Between::Diverge(churn) => {
                    table = earlier.clone();
                    apply_churn(&mut table, churn);
                }
            }
            earlier = before.clone();
            let (changed, gone) = changed_footprints(&before, &table);
            let mut expected: Vec<RuleId> = held
                .iter()
                .filter(|(id, priority, tern, result)| {
                    table.get(*id).is_some()
                        && match result {
                            Ok(plan) => changed.iter().any(|t| t.matches(&plan.header)),
                            // A certificate: it goes with the rule itself or
                            // with a cover of it.
                            Err(ProbeError::Hidden) => {
                                differs(&before, &table, *id)
                                    || gone.iter().any(|(p, t)| p >= priority && t.overlaps(tern))
                            }
                            Err(ProbeError::RepairFailed) => false, // never cached
                            Err(_) => changed.iter().any(|t| t.overlaps(tern)),
                        }
                })
                .map(|(id, ..)| *id)
                .collect();
            let fallbacks = engine.engine_stats().syncs_fallback;
            let mut evicted = engine.take_evicted(&table);
            let fell_back = engine.engine_stats().syncs_fallback - fallbacks;
            expected.sort_unstable();
            evicted.sort_unstable();
            let ctx = format!("after step {step}: {between:?}");
            prop_assert_eq!(evicted, expected, "eviction set ({})", ctx);
            if !matches!(between, Between::Diverge(_)) {
                let covered = table.changes_since(before.version()).is_some();
                let moved = table.fingerprint() != before.fingerprint();
                prop_assert_eq!(fell_back, u64::from(!covered && moved), "fallback ({})", ctx);
            }
            assert_equivalent(&mut engine, &table, &catch, &gen, &ctx)?;
        }
    }

    /// Off the fast path the engine *is* stateless generation: whatever a
    /// cold engine sends to the solver comes back as the very `Result`
    /// `generate_probe` returns — the same probe header, not merely the
    /// same verdict. (Tables big enough that how the auxiliary variables
    /// are numbered decides which model the solver finds.)
    #[test]
    fn solver_path_answers_are_the_stateless_ones(table in arb_table_of(10..40)) {
        let catch = CatchSpec::default();
        let gen = GeneratorConfig::default();
        let mut engine = ProbeEngine::default();
        for rule in table.rules() {
            let (engined, st) = engine.generate_with_stats(&table, rule.id, &catch);
            if st.fast_path_hits == 0 {
                let stateless = generate_probe(&table, rule.id, &catch, &gen);
                prop_assert_eq!(engined, stateless, "rule {:?}", rule.match_);
            }
        }
    }

    /// The pool stays plan-equivalent to stateless generation across
    /// interleaved Add/Modify/Delete churn: after every edit the edited
    /// table goes in as a fresh owned job for the same switch, and the
    /// pooled sweep must agree with fresh stateless generation on it. The
    /// switch's engine gets no `note_flowmod` between jobs, and each job's
    /// table has no change history it has read, so this is its fingerprint
    /// safety net across consecutive different tables (the engine is warm,
    /// so equivalence is semantic — same bar as the engine's own invariant).
    #[test]
    fn pool_equivalent_across_shared_table_churn(
        table in arb_table(),
        edits in prop::collection::vec(arb_edit(), 1..6),
    ) {
        let pool = EnginePool::new(PoolConfig::default());
        let mut reference = table;
        assert_pool_equivalent(&pool, &reference, "initial")?;
        for (step, edit) in edits.iter().enumerate() {
            let Some(fm) = to_flowmod(edit, &reference) else {
                continue;
            };
            let _ = reference.apply(&fm);
            let ctx = format!("after edit {step}: {edit:?}");
            assert_pool_equivalent(&pool, &reference, &ctx)?;
        }
    }

    /// Planning on the overlap neighborhood ≡ planning on the table, after
    /// every edit of a random FlowMod sequence; the one engine lives through
    /// all of it.
    #[test]
    fn neighborhood_plans_equivalent_to_full_table_plans(
        table in arb_table(),
        edits in prop::collection::vec(arb_edit(), 0..6),
    ) {
        let mut table = table;
        let mut engine = ProbeEngine::default();
        assert_neighborhood_equivalent(&mut engine, &table, "initial")?;
        for (step, edit) in edits.iter().enumerate() {
            let Some(fm) = to_flowmod(edit, &table) else {
                continue;
            };
            let _ = table.apply(&fm);
            let ctx = format!("after edit {step}: {edit:?}");
            assert_neighborhood_equivalent(&mut engine, &table, &ctx)?;
        }
    }

    /// Batch output is identical (entry by entry) to one-at-a-time engine
    /// calls, and re-batching an unchanged table touches no solver.
    #[test]
    fn batch_matches_sequential_and_caches(table in arb_table()) {
        let catch = CatchSpec::default();
        let ids: Vec<_> = table.rules().iter().map(|r| r.id).collect();
        let mut batch_engine = ProbeEngine::default();
        let mut seq_engine = ProbeEngine::default();
        let (batch, _) = batch_engine.generate_batch_with_stats(&table, &ids, &catch);
        for (&id, b) in ids.iter().zip(&batch) {
            let s = seq_engine.generate(&table, id, &catch);
            prop_assert_eq!(b, &s);
        }
        let (rebatch, stats) = batch_engine.generate_batch_with_stats(&table, &ids, &catch);
        prop_assert_eq!(stats.solver_calls, 0);
        prop_assert_eq!(stats.cache_hits, ids.len() as u64);
        prop_assert_eq!(&batch, &rebatch);
    }
}

/// The Stanford-like ACL table: 2755 rules and the default route.
fn stanford_like_table() -> FlowTable {
    use monocle_datasets::acl::{generate, AclConfig};
    let mut table = FlowTable::new();
    for r in generate(&AclConfig::stanford_like()) {
        table.add_rule(r.priority, r.match_, r.actions).unwrap();
    }
    table
}

/// `Hidden` certificates at paper size: the rules covering a few hidden
/// rules of the Stanford-like table are deleted, re-added, modified and
/// replaced by an ADD, with a sync and a re-plan of the table after each.
/// Verdicts survive on their certificate (`hidden_kept`), and the engine
/// still answers every rule as stateless generation does.
#[test]
fn hidden_verdicts_survive_cover_churn_on_stanford_like_table() {
    let catch = CatchSpec::default();
    let mut table = stanford_like_table();
    let mut engine = ProbeEngine::default();
    let ids: Vec<RuleId> = table.rules().iter().map(|r| r.id).collect();
    let first = engine.generate_batch(&table, &ids, &catch);
    let covers: Vec<_> = table
        .rules()
        .iter()
        .zip(&first)
        .filter(|(_, res)| **res == Err(ProbeError::Hidden))
        .filter_map(|(h, _)| {
            table
                .overlapping(&h.tern)
                .into_iter()
                .find(|c| c.priority > h.priority && c.tern.subsumes(&h.tern))
                .cloned()
        })
        .take(4)
        .collect();
    assert_eq!(covers.len(), 4);
    for c in &covers {
        for fm in [
            FlowMod::delete_strict(c.priority, c.match_),
            FlowMod::add(c.priority, c.match_, c.actions.clone()),
            FlowMod::modify_strict(c.priority, c.match_, vec![Action::Output(42)]),
            FlowMod::add(c.priority, c.match_, c.actions.clone()),
        ] {
            table.apply(&fm).unwrap();
            let ids: Vec<RuleId> = table.rules().iter().map(|r| r.id).collect();
            engine.generate_batch(&table, &ids, &catch);
        }
    }
    assert!(engine.engine_stats().hidden_kept > 0);
    assert_equivalent(
        &mut engine,
        &table,
        &catch,
        &GeneratorConfig::default(),
        "after cover churn",
    )
    .unwrap();
}

/// The same check at paper size: every rule of the Stanford-like ACL table
/// (2755 + the default route; ~15 s in a debug build).
#[test]
fn neighborhood_plans_equivalent_on_stanford_like_table() {
    let table = stanford_like_table();
    let mut engine = ProbeEngine::default();
    let (found, not_found) =
        assert_neighborhood_equivalent(&mut engine, &table, "stanford-like").unwrap();
    assert_eq!(found + not_found, table.len());
    assert!(found > not_found, "{found} found / {not_found} not found");
}
