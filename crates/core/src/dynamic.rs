//! Dynamic (reconfiguration) monitoring (§4).
//!
//! In dynamic mode Monocle focuses on the rules being changed: every
//! FlowMod from the controller is forwarded to the switch *and* probed
//! until the change is observable in the data plane, at which point the
//! controller is told the update is safe (the paper's reliable
//! rule-installation acknowledgment, used for consistent updates in §8.1.2).
//!
//! Covered here:
//! * §4.1 — additions, strict deletions (probe confirms when the *absent*
//!   outcome appears) and strict modifications (probe built on a synthetic
//!   table: lower-priority rules removed, the old version re-inserted just
//!   below, per the paper's construction) — each planned against the
//!   probed rule's overlap neighborhood, never a copy of the table (see
//!   [`PlanRequest`]);
//! * §4.2 — concurrent updates: probes for non-overlapping updates proceed
//!   in parallel; an update overlapping any unconfirmed one is queued until
//!   the conflict clears (the paper's implementation policy);
//! * transient-inconsistency tolerance: a probe observing the "old" state
//!   does not raise an alarm, it just keeps probing (§4.1).

use crate::encode::CatchSpec;
use crate::engine::ProbeEngine;
use crate::expect::ExpectedTable;
use crate::generator::{GeneratorConfig, ProbeError};
use crate::plan::{ProbePlan, Verdict};
use monocle_openflow::table::ApplyResult;
use monocle_openflow::{FlowMod, FlowModCommand, FlowTable, Rule, RuleId, TableError};

/// Dynamic-monitor configuration.
#[derive(Debug, Clone)]
pub struct DynamicConfig {
    /// Interval between probe (re)injections for an unconfirmed update, ns.
    pub probe_interval: u64,
    /// Give-up threshold: after this many probes without confirmation an
    /// alarm is raised (0 = never give up).
    pub max_attempts: u32,
    /// Silence window for negative probing (§3.3): when the confirming
    /// outcome is a drop (unobservable), the update is confirmed once no
    /// contrary probe has returned for this long, ns.
    pub negative_confirm_window: u64,
    /// Probe generation settings.
    pub gen: GeneratorConfig,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            probe_interval: 2_000_000, // 2 ms
            max_attempts: 0,
            negative_confirm_window: 12_000_000, // 12 ms
            gen: GeneratorConfig::default(),
        }
    }
}

/// Actions the dynamic monitor asks the harness to perform.
#[derive(Debug, Clone, PartialEq)]
pub enum DynAction {
    /// Forward this FlowMod to the switch now.
    Forward(FlowMod),
    /// Inject the probe for update `token` (sequence number `seq`).
    Inject {
        /// Update token.
        token: u64,
        /// Probe sequence.
        seq: u32,
    },
    /// The update is provably in the data plane.
    Confirmed {
        /// Update token.
        token: u64,
        /// True when confirmed by probing; false when the update was
        /// unmonitorable and is acknowledged optimistically on forward.
        verified: bool,
    },
    /// The update did not confirm within the attempt budget.
    Alarm {
        /// Update token.
        token: u64,
    },
}

/// One probe-planning request: everything a planner needs to produce the
/// [`ProbePlan`] that proves update `token`.
///
/// Every monitorable update becomes exactly one of these, in inline and in
/// deferred mode alike (see [`DynamicMonitor::set_deferred_planning`] for
/// who plans it). `table` is not the switch's table but the **overlap
/// neighborhood** of the probed rule ([`FlowTable::neighborhood`]), captured
/// at the point §4.1 prescribes:
///
/// * delete — the *pre-delta* neighborhood of the victim (it must still be
///   there to be probed for absence);
/// * add, and MODIFY-as-ADD — the *post-delta* neighborhood of the new rule;
/// * modify — the §4.1 construction (lower priorities dropped, the old
///   version re-inserted just below) applied to the post-delta neighborhood
///   of the modified match.
///
/// That is enough because any rule that can match a header matching rule R
/// overlaps R: lookups, the Hit constraint and Distinguish are the same on
/// the neighborhood and on the full table for every candidate probe of R
/// (the fact [`crate::engine`] already relies on for cache invalidation).
/// The whole-table reads left in generation — spare-value selection in
/// header repair and domain constraints — choose *which* value is tried,
/// never whether a verified plan is valid. So the work per update follows
/// the size of the change, not the size of the table. Rule ids in `table`
/// are the expected table's own, except in the modify construction, which
/// renumbers (the monitor maps the plan back on attach).
#[derive(Debug, Clone)]
pub struct PlanRequest {
    /// Update token the resulting plan belongs to.
    pub token: u64,
    /// The probed rule's overlap neighborhood (see the type docs).
    pub table: FlowTable,
    /// The rule to probe, an id of `table`.
    pub rule_id: RuleId,
}

/// An update forwarded to the switch whose [`PlanRequest`] has not been
/// answered yet. Participates in §4.2 conflict queueing exactly like an
/// actively probed update.
#[derive(Debug)]
struct AwaitingUpdate {
    token: u64,
    fm: FlowMod,
    confirm_on: Verdict,
    /// Rewrite `plan.rule_id` to this after attach (§4.1 modify plans carry
    /// the renumbered construction's id).
    remap_rule_id: Option<RuleId>,
}

#[derive(Debug)]
struct ActiveUpdate {
    token: u64,
    fm: FlowMod,
    plan: ProbePlan,
    /// The verdict that confirms this update (Present for add/modify,
    /// Absent for delete).
    confirm_on: Verdict,
    /// True when the confirming outcome is a drop: confirmation is then
    /// silence-based (§3.3 negative probing).
    silent_confirm: bool,
    /// Time of the most recent probe observing the *old* state.
    last_contrary: u64,
    started: u64,
    attempts: u32,
    next_probe_at: u64,
    live_seqs: Vec<u32>,
}

/// The per-switch dynamic monitor. Owns the expected table, the
/// [`ProbeEngine`] the proxy's steady-state sweeps of that table run
/// through, and a second engine that only ever sees the small
/// [`PlanRequest`] tables of inline planning (syncing the first one to
/// those would throw its warm cache away on every update).
#[derive(Debug)]
pub struct DynamicMonitor {
    cfg: DynamicConfig,
    expected: ExpectedTable,
    catch: CatchSpec,
    engine: ProbeEngine,
    inline_planner: ProbeEngine,
    active: Vec<ActiveUpdate>,
    queued: std::collections::VecDeque<(u64, FlowMod)>,
    next_seq: u32,
    /// Deferred planning: hand [`PlanRequest`]s out instead of answering
    /// them here.
    deferred: bool,
    awaiting: Vec<AwaitingUpdate>,
    pending_requests: Vec<PlanRequest>,
    /// Rules added or modified by updates started since the last
    /// [`Self::take_touched_rules`].
    touched: Vec<RuleId>,
    /// Rules removed by them since the last [`Self::take_removed_rules`].
    removed: Vec<RuleId>,
}

impl DynamicMonitor {
    /// Creates a monitor; `catch` is the per-switch collection spec (tag
    /// pins + injection port).
    pub fn new(cfg: DynamicConfig, catch: CatchSpec) -> DynamicMonitor {
        let engine = ProbeEngine::with_gen(cfg.gen.clone());
        let inline_planner = ProbeEngine::with_gen(cfg.gen.clone());
        DynamicMonitor {
            cfg,
            expected: ExpectedTable::new(),
            catch,
            engine,
            inline_planner,
            active: Vec::new(),
            queued: std::collections::VecDeque::new(),
            next_seq: 0,
            deferred: false,
            awaiting: Vec::new(),
            pending_requests: Vec::new(),
            touched: Vec::new(),
            removed: Vec::new(),
        }
    }

    /// Chooses who answers the [`PlanRequest`]s. Both modes build the same
    /// requests and complete them through [`Self::attach_plan`]. Inline
    /// (the default; the simulator/harness path): the monitor plans each
    /// request itself, synchronously, before the call that produced it
    /// returns. Deferred (the transport path): requests are handed out via
    /// [`Self::take_plan_requests`] and an external planner — in practice an
    /// [`crate::pool::EnginePool`] fed from the event loop, so generation
    /// for N switches overlaps the switches' install latencies — attaches
    /// the plans later.
    pub fn set_deferred_planning(&mut self, on: bool) {
        self.deferred = on;
    }

    /// Drains the ids of rules added or modified by the updates started
    /// since the last call (the adaptive steady scheduler's "recently
    /// touched" signal), as resolved by the table's own
    /// [`monocle_openflow::table::ApplyResult`].
    pub fn take_touched_rules(&mut self) -> Vec<RuleId> {
        std::mem::take(&mut self.touched)
    }

    /// As [`Self::take_touched_rules`] for the rules those updates removed.
    pub fn take_removed_rules(&mut self) -> Vec<RuleId> {
        std::mem::take(&mut self.removed)
    }

    /// Drains the plan requests produced since the last call. Transport
    /// drivers call this after every `on_flowmod`/`attach_plan`/`on_verdict`
    /// (a confirmation can release queued updates, which produce new
    /// requests).
    pub fn take_plan_requests(&mut self) -> Vec<PlanRequest> {
        std::mem::take(&mut self.pending_requests)
    }

    /// Updates forwarded to the switch whose plan is still being generated.
    pub fn awaiting_plans(&self) -> usize {
        self.awaiting.len()
    }

    /// The expected table (shared view for steady-state plan refresh etc.).
    pub fn expected(&self) -> &ExpectedTable {
        &self.expected
    }

    /// Mutable access to the expected table. Costs the shared engine no more
    /// than [`Self::apply_expected`] does: the table logs every rule a
    /// mutation touches, and the engine's next synchronization diffs — and
    /// evicts by — exactly those.
    pub fn expected_mut(&mut self) -> &mut ExpectedTable {
        &mut self.expected
    }

    /// Applies `fm` to the expected table. Neither probed nor forwarded —
    /// the one way the table changes, for controller updates
    /// ([`Self::on_flowmod`]) and for Monocle's own (preinstalls,
    /// drop-postponing finalizers) alike.
    pub fn apply_expected(&mut self, fm: &FlowMod) -> Result<ApplyResult, TableError> {
        self.expected.apply(fm)
    }

    /// The shared probe engine (statistics inspection).
    pub fn engine(&self) -> &ProbeEngine {
        &self.engine
    }

    /// Batch-generates plans for rules of the *current* expected table
    /// through the shared engine under the monitor's own catch spec (the
    /// steady-state sweep entry point).
    pub fn generate_batch_expected(
        &mut self,
        ids: &[RuleId],
    ) -> Vec<Result<ProbePlan, ProbeError>> {
        self.engine
            .generate_batch(self.expected.table(), ids, &self.catch)
    }

    /// The rules of the current expected table whose plan the shared engine
    /// evicted since the last call ([`ProbeEngine::take_evicted`]).
    pub fn take_evicted_expected(&mut self) -> Vec<RuleId> {
        self.engine.take_evicted(self.expected.table())
    }

    /// Number of unconfirmed (actively probed) updates.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// Number of queued (conflict-delayed) updates.
    pub fn queued(&self) -> usize {
        self.queued.len()
    }

    /// The plan for a live probe sequence number.
    pub fn plan_for_seq(&self, seq: u32) -> Option<&ProbePlan> {
        self.active
            .iter()
            .find(|a| a.live_seqs.contains(&seq))
            .map(|a| &a.plan)
    }

    /// A FlowMod arrives from the controller.
    pub fn on_flowmod(&mut self, now: u64, token: u64, fm: FlowMod) -> Vec<DynAction> {
        // §4.2: queue updates that overlap any unconfirmed one (actively
        // probed, or still awaiting a deferred plan).
        if self.conflicts_with_inflight(&fm) {
            self.queued.push_back((token, fm));
            return Vec::new();
        }
        let mut actions = self.start_update(token, fm);
        self.plan_pending_inline(now, &mut actions);
        actions
    }

    fn conflicts_with_inflight(&self, fm: &FlowMod) -> bool {
        let tern = fm.match_.ternary();
        self.active
            .iter()
            .any(|a| a.fm.match_.ternary().overlaps(&tern))
            || self
                .awaiting
                .iter()
                .any(|a| a.fm.match_.ternary().overlaps(&tern))
    }

    /// §4.1 delete victim selection: the rule this delete will actually
    /// remove, mirroring `FlowTable::do_delete`'s hit condition: strict =
    /// exact (priority, match), non-strict = subsumption. Selecting by
    /// subsumption for a strict delete could probe a surviving rule for
    /// absence — an update that would never confirm. `None` for non-deletes
    /// and no-op deletes.
    ///
    /// This scan, [`Self::modify_old_version`]'s and the ones inside
    /// `FlowTable::apply` are the per-update O(table) reads left on the
    /// update path: a comparison per rule, no copy and no hashing.
    fn delete_victim(&self, fm: &FlowMod) -> Option<&Rule> {
        match fm.command {
            FlowModCommand::DeleteStrict | FlowModCommand::Delete => {
                let strict = fm.command == FlowModCommand::DeleteStrict;
                let tern = fm.match_.ternary();
                self.expected.table().rules().iter().find(|r| {
                    if strict {
                        r.priority == fm.priority && r.match_ == fm.match_
                    } else {
                        tern.subsumes(&r.tern)
                    }
                })
            }
            _ => None,
        }
    }

    /// The rule a modify is about to replace (pre-delta lookup).
    fn modify_old_version(&self, fm: &FlowMod) -> Option<Rule> {
        match fm.command {
            FlowModCommand::ModifyStrict | FlowModCommand::Modify => self
                .expected
                .table()
                .rules()
                .iter()
                .find(|r| r.priority == fm.priority && r.match_ == fm.match_)
                .cloned(),
            _ => None,
        }
    }

    /// §4.1 synthetic table for a modify, built from a post-delta table
    /// (outside tests: the neighborhood of the modified match): all rules of
    /// lower priority removed, the OLD version re-inserted just below the
    /// modified rule. The probe then always hits either version and must
    /// tell them apart. Rules are re-added in order, so ids are renumbered;
    /// returns the table and the modified rule's id *within it*.
    fn build_synthetic(
        table: &FlowTable,
        fm: &FlowMod,
        old_rule: Rule,
    ) -> Option<(FlowTable, RuleId)> {
        if fm.priority == 0 {
            return None;
        }
        let mut synth = FlowTable::new();
        for r in table.rules() {
            if r.priority >= fm.priority {
                let _ = synth.add_rule(r.priority, r.match_, r.actions.clone());
            }
        }
        let _ = synth.add_rule(fm.priority - 1, old_rule.match_, old_rule.actions);
        let synth_id = synth
            .rules()
            .iter()
            .find(|r| r.priority == fm.priority && r.match_ == fm.match_)
            .map(|r| r.id)?;
        Some((synth, synth_id))
    }

    /// Starts an update whose conflicts have cleared: applies it to the
    /// expected table, forwards it, and either parks it behind the one
    /// [`PlanRequest`] that can prove it or, when there is nothing to probe,
    /// acknowledges it optimistically. The single add/delete/modify case
    /// analysis, shared by inline and deferred mode.
    fn start_update(&mut self, token: u64, fm: FlowMod) -> Vec<DynAction> {
        // §4.1: a deletion is the opposite of an installation — its probe is
        // the victim's *pre-state* plan, awaited on the absent outcome, so
        // its neighborhood is captured before the delta lands. Likewise a
        // modify needs the version it replaces (that rule, not the table).
        let delete_req = self
            .delete_victim(&fm)
            .map(|v| (self.expected.table().neighborhood(&v.tern), v.id));
        let old_version = self.modify_old_version(&fm);
        // The monitor's own engine serves steady sweeps of the full table:
        // feed it the delta (incremental invalidation) while applying it.
        let applied = self.apply_expected(&fm).unwrap_or_default();
        self.touched
            .extend(applied.added.iter().chain(&applied.modified));
        self.removed.extend(&applied.removed);
        let table = self.expected.table();
        // (table to plan on, rule to probe in it, confirming verdict, id the
        // plan is remapped to)
        let request: Option<(FlowTable, RuleId, Verdict, Option<RuleId>)> = match fm.command {
            // OF1.0: a MODIFY with no matching entry behaves as ADD; the
            // table reports it in ApplyResult::added (and nothing in
            // `modified`), so the guard routes it through the same
            // present-probe path as an Add.
            FlowModCommand::Add | FlowModCommand::ModifyStrict | FlowModCommand::Modify
                if !applied.added.is_empty() && applied.modified.is_empty() =>
            {
                let tern = fm.match_.ternary();
                Some((
                    table.neighborhood(&tern),
                    applied.added[0],
                    Verdict::Present,
                    None,
                ))
            }
            // An Add whose apply failed (bad actions / overlap flag): no
            // rule to probe.
            FlowModCommand::Add => None,
            FlowModCommand::DeleteStrict | FlowModCommand::Delete => {
                delete_req.map(|(nb, id)| (nb, id, Verdict::Absent, None))
            }
            // A modify keeps its rule's id, so the old version names the
            // new one too; `modified` is empty when the apply failed.
            FlowModCommand::ModifyStrict | FlowModCommand::Modify => old_version
                .filter(|_| !applied.modified.is_empty())
                .and_then(|old| {
                    let real_id = old.id;
                    Self::build_synthetic(&table.neighborhood(&old.tern), &fm, old)
                        .map(|(synth, synth_id)| (synth, synth_id, Verdict::Present, Some(real_id)))
                }),
        };
        let mut actions = vec![DynAction::Forward(fm.clone())];
        match request {
            Some((table, rule_id, confirm_on, remap_rule_id)) => {
                self.awaiting.push(AwaitingUpdate {
                    token,
                    fm,
                    confirm_on,
                    remap_rule_id,
                });
                self.pending_requests.push(PlanRequest {
                    token,
                    table,
                    rule_id,
                });
            }
            // Unmonitorable update: acknowledge optimistically (the
            // controller can fall back to barriers for these).
            None => actions.push(DynAction::Confirmed {
                token,
                verified: false,
            }),
        }
        actions
    }

    /// Inline mode's planner: answers every pending [`PlanRequest`] on the
    /// monitor's own small-table engine and attaches the result at once —
    /// what a transport driver does with [`Self::take_plan_requests`] and
    /// [`Self::attach_plan`], synchronously. No-op in deferred mode.
    fn plan_pending_inline(&mut self, now: u64, actions: &mut Vec<DynAction>) {
        if self.deferred {
            return;
        }
        for req in std::mem::take(&mut self.pending_requests) {
            let plan = self
                .inline_planner
                .generate(&req.table, req.rule_id, &self.catch)
                .ok();
            actions.extend(self.attach_plan(now, req.token, plan));
        }
    }

    /// Registers a planned update as actively probed and emits its first
    /// injection.
    fn activate(
        &mut self,
        now: u64,
        token: u64,
        fm: FlowMod,
        plan: ProbePlan,
        confirm_on: Verdict,
    ) -> DynAction {
        let seq = self.next_seq;
        self.next_seq += 1;
        let confirming_outcome_is_drop = match confirm_on {
            Verdict::Present => plan.present.is_drop(),
            Verdict::Absent => plan.absent.is_drop(),
            Verdict::Inconclusive => false,
        };
        self.active.push(ActiveUpdate {
            token,
            fm,
            plan,
            confirm_on,
            silent_confirm: confirming_outcome_is_drop,
            last_contrary: now,
            started: now,
            attempts: 1,
            next_probe_at: now + self.cfg.probe_interval,
            live_seqs: vec![seq],
        });
        DynAction::Inject { token, seq }
    }

    /// Completes a [`PlanRequest`]: the planner hands back the plan for
    /// update `token` (`None` = generation failed → optimistic ack, like an
    /// update with nothing to probe). An unmonitorable completion releases
    /// conflict-queued updates, since the update never enters the actively
    /// probed set.
    pub fn attach_plan(&mut self, now: u64, token: u64, plan: Option<ProbePlan>) -> Vec<DynAction> {
        let Some(idx) = self.awaiting.iter().position(|a| a.token == token) else {
            return Vec::new(); // unknown or duplicate attach
        };
        let a = self.awaiting.remove(idx);
        match plan {
            Some(mut plan) => {
                if let Some(id) = a.remap_rule_id {
                    // §4.1 modify plans carry the construction's id; point
                    // it at the real rule.
                    plan.rule_id = id;
                }
                vec![self.activate(now, a.token, a.fm, plan, a.confirm_on)]
            }
            None => {
                let mut actions = vec![DynAction::Confirmed {
                    token,
                    verified: false,
                }];
                actions.extend(self.release_queued(now));
                actions
            }
        }
    }

    /// Periodic tick: re-inject probes for unconfirmed updates; confirm
    /// silence-based (negative-probed) updates whose window elapsed.
    pub fn on_tick(&mut self, now: u64) -> Vec<DynAction> {
        let mut actions = Vec::new();
        let max_attempts = self.cfg.max_attempts;
        let interval = self.cfg.probe_interval;
        let window = self.cfg.negative_confirm_window;
        let mut alarmed: Vec<u64> = Vec::new();
        let mut silent_done: Vec<u64> = Vec::new();
        for a in &mut self.active {
            if a.silent_confirm && a.attempts >= 2 && now >= a.last_contrary.max(a.started) + window
            {
                // §3.3 negative probing: enough probes went quiet.
                silent_done.push(a.token);
                continue;
            }
            if now < a.next_probe_at {
                continue;
            }
            if max_attempts > 0 && a.attempts >= max_attempts {
                alarmed.push(a.token);
                continue;
            }
            a.attempts += 1;
            a.next_probe_at = now + interval;
            let seq = self.next_seq;
            self.next_seq += 1;
            a.live_seqs.push(seq);
            actions.push(DynAction::Inject {
                token: a.token,
                seq,
            });
        }
        for token in silent_done {
            let idx = self.active.iter().position(|a| a.token == token).unwrap();
            self.active.remove(idx);
            actions.extend(self.confirm_and_release(now, token));
        }
        if !alarmed.is_empty() {
            self.active.retain(|a| !alarmed.contains(&a.token));
            actions.extend(alarmed.into_iter().map(|token| DynAction::Alarm { token }));
            // An alarmed update is as terminal as a confirmed one: whatever
            // was conflict-queued behind it must not wait for an unrelated
            // confirmation.
            actions.extend(self.release_queued(now));
        }
        actions
    }

    fn confirm_and_release(&mut self, now: u64, token: u64) -> Vec<DynAction> {
        let mut actions = vec![DynAction::Confirmed {
            token,
            verified: true,
        }];
        actions.extend(self.release_queued(now));
        actions
    }

    /// Starts every conflict-queued update whose conflicts have cleared (a
    /// released update re-enters via the awaiting set and produces a new
    /// [`PlanRequest`]).
    fn release_queued(&mut self, now: u64) -> Vec<DynAction> {
        let mut actions = Vec::new();
        let mut requeue = std::collections::VecDeque::new();
        while let Some((token, fm)) = self.queued.pop_front() {
            if self.conflicts_with_inflight(&fm) {
                requeue.push_back((token, fm));
            } else {
                actions.extend(self.start_update(token, fm));
            }
        }
        self.queued = requeue;
        self.plan_pending_inline(now, &mut actions);
        actions
    }

    /// A probe observation classified against its plan comes back.
    pub fn on_verdict(&mut self, now: u64, seq: u32, verdict: Verdict) -> Vec<DynAction> {
        let Some(idx) = self.active.iter().position(|a| a.live_seqs.contains(&seq)) else {
            return Vec::new(); // stale
        };
        if verdict != self.active[idx].confirm_on {
            // Transient inconsistency (§4.1): e.g. the rule is not installed
            // *yet*. Not an alarm; keep probing (and push the silence window
            // out — the old state is demonstrably still active).
            if verdict != Verdict::Inconclusive {
                self.active[idx].last_contrary = now;
            }
            return Vec::new();
        }
        let confirmed = self.active.remove(idx);
        self.confirm_and_release(now, confirmed.token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monocle_openflow::{Action, Match};

    fn add_fm(prio: u16, dst: [u8; 4], port: u16) -> FlowMod {
        FlowMod::add(
            prio,
            Match::any().with_nw_dst(dst, 32),
            vec![Action::Output(port)],
        )
    }

    fn monitor() -> DynamicMonitor {
        let mut m = DynamicMonitor::new(DynamicConfig::default(), CatchSpec::default());
        // A default route so additions are distinguishable from table miss.
        m.expected_mut()
            .install(1, Match::any(), vec![Action::Output(99)])
            .unwrap();
        m
    }

    #[test]
    fn add_forwards_and_probes() {
        let mut m = monitor();
        let acts = m.on_flowmod(0, 1, add_fm(10, [10, 0, 0, 1], 2));
        assert!(matches!(acts[0], DynAction::Forward(_)));
        assert!(matches!(acts[1], DynAction::Inject { token: 1, .. }));
        assert_eq!(m.in_flight(), 1);
        assert_eq!(m.expected().table().len(), 2);
    }

    #[test]
    fn present_verdict_confirms_add() {
        let mut m = monitor();
        let acts = m.on_flowmod(0, 1, add_fm(10, [10, 0, 0, 1], 2));
        let DynAction::Inject { seq, .. } = acts[1] else {
            panic!()
        };
        let out = m.on_verdict(100, seq, Verdict::Present);
        assert_eq!(
            out[0],
            DynAction::Confirmed {
                token: 1,
                verified: true
            }
        );
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn absent_verdict_keeps_probing_add() {
        let mut m = monitor();
        let acts = m.on_flowmod(0, 1, add_fm(10, [10, 0, 0, 1], 2));
        let DynAction::Inject { seq, .. } = acts[1] else {
            panic!()
        };
        // The switch hasn't installed yet: probe observed the old state.
        assert!(m.on_verdict(100, seq, Verdict::Absent).is_empty());
        assert_eq!(m.in_flight(), 1);
        // Tick re-injects.
        let acts = m.on_tick(10_000_000);
        assert!(matches!(acts[0], DynAction::Inject { token: 1, .. }));
    }

    #[test]
    fn delete_confirms_on_absent() {
        let mut m = monitor();
        let acts = m.on_flowmod(0, 1, add_fm(10, [10, 0, 0, 1], 2));
        let DynAction::Inject { seq, .. } = acts[1] else {
            panic!()
        };
        m.on_verdict(1, seq, Verdict::Present);
        // Now delete it.
        let del = FlowMod::delete_strict(10, Match::any().with_nw_dst([10, 0, 0, 1], 32));
        let acts = m.on_flowmod(10, 2, del);
        assert!(matches!(acts[0], DynAction::Forward(_)));
        let DynAction::Inject { seq, .. } = acts[1] else {
            panic!("expected inject, got {acts:?}")
        };
        // Probe still sees the rule: not confirmed.
        assert!(m.on_verdict(20, seq, Verdict::Present).is_empty());
        // Probe sees the without-rule outcome: confirmed.
        let out = m.on_verdict(30, seq, Verdict::Absent);
        assert_eq!(
            out[0],
            DynAction::Confirmed {
                token: 2,
                verified: true
            }
        );
        assert_eq!(m.expected().table().len(), 1);
    }

    #[test]
    fn modify_probes_new_version() {
        let mut m = monitor();
        let acts = m.on_flowmod(0, 1, add_fm(10, [10, 0, 0, 1], 2));
        let DynAction::Inject { seq, .. } = acts[1] else {
            panic!()
        };
        m.on_verdict(1, seq, Verdict::Present);
        // Modify the rule to forward elsewhere.
        let fm = FlowMod::modify_strict(
            10,
            Match::any().with_nw_dst([10, 0, 0, 1], 32),
            vec![Action::Output(5)],
        );
        let acts = m.on_flowmod(10, 2, fm);
        assert!(matches!(acts[0], DynAction::Forward(_)));
        assert!(
            matches!(acts[1], DynAction::Inject { .. }),
            "modification must be probeable (old port 2 vs new port 5): {acts:?}"
        );
        let DynAction::Inject { seq, .. } = acts[1] else {
            panic!()
        };
        let out = m.on_verdict(20, seq, Verdict::Present);
        assert_eq!(
            out[0],
            DynAction::Confirmed {
                token: 2,
                verified: true
            }
        );
    }

    #[test]
    fn modify_as_add_monitored_as_install() {
        // OF1.0: MODIFY with no matching entry behaves like ADD. The
        // monitor must agree with the table's ApplyResult that this was an
        // install — probing the *new* rule for presence — instead of
        // falling into the §4.1 old-vs-new path (which has no old version)
        // and acking optimistically.
        let mut m = monitor();
        let fm = FlowMod {
            command: FlowModCommand::Modify,
            ..add_fm(10, [10, 0, 0, 1], 2)
        };
        let acts = m.on_flowmod(0, 7, fm);
        assert!(matches!(acts[0], DynAction::Forward(_)));
        assert!(
            matches!(acts[1], DynAction::Inject { token: 7, .. }),
            "MODIFY-as-ADD must be probed like an install: {acts:?}"
        );
        assert_eq!(m.in_flight(), 1);
        assert_eq!(m.expected().table().len(), 2, "rule was added");
        let DynAction::Inject { seq, .. } = acts[1] else {
            panic!()
        };
        // Present confirms, exactly like an Add.
        let out = m.on_verdict(100, seq, Verdict::Present);
        assert_eq!(
            out[0],
            DynAction::Confirmed {
                token: 7,
                verified: true
            }
        );
        // A MODIFY that *does* hit still takes the old-vs-new path (not
        // the add path): same flow_mod again, new actions.
        let fm2 = FlowMod {
            command: FlowModCommand::Modify,
            ..add_fm(10, [10, 0, 0, 1], 5)
        };
        let acts = m.on_flowmod(200, 8, fm2);
        assert!(matches!(acts[1], DynAction::Inject { token: 8, .. }));
        assert_eq!(m.expected().table().len(), 2, "no second rule added");
    }

    #[test]
    fn strict_delete_probes_only_its_exact_victim() {
        let mut m = monitor();
        // A specific high-priority rule strictly inside the 10.0.0.0/24
        // match a later strict delete will name.
        let specific = FlowMod::add(
            9,
            Match::any().with_nw_dst([10, 0, 0, 1], 32),
            vec![Action::Output(2)],
        );
        let acts = m.on_flowmod(0, 1, specific);
        let DynAction::Inject { seq, .. } = acts[1] else {
            panic!()
        };
        m.on_verdict(1, seq, Verdict::Present);
        // DeleteStrict(5, 10.0.0.0/24): removes nothing (no rule has that
        // exact match+priority). The specific rule's tern IS subsumed by
        // the delete match, but it must NOT be picked as the victim — that
        // probe would await an Absent outcome that never comes, wedging
        // the update (and queueing everything overlapping behind it).
        let del = FlowMod::delete_strict(5, Match::any().with_nw_dst([10, 0, 0, 0], 24));
        let acts = m.on_flowmod(10, 2, del);
        assert!(matches!(acts[0], DynAction::Forward(_)));
        assert_eq!(
            acts[1],
            DynAction::Confirmed {
                token: 2,
                verified: false
            },
            "no-op strict delete acks optimistically instead of probing a survivor: {acts:?}"
        );
        assert_eq!(m.in_flight(), 0);
        assert_eq!(m.expected().table().len(), 2, "nothing was deleted");
    }

    #[test]
    fn overlapping_update_queued_until_confirmation() {
        let mut m = monitor();
        // R1: src 10.0.0.1 -> port 2 (overlaps R3 below).
        let r1 = FlowMod::add(
            10,
            Match::any().with_nw_src([10, 0, 0, 1], 32),
            vec![Action::Output(2)],
        );
        let acts = m.on_flowmod(0, 1, r1);
        let DynAction::Inject { seq: seq1, .. } = acts[1] else {
            panic!()
        };
        // R3 overlaps R1 (drop for 10.0.0.0/24 x 10.0.0.0/24): queued.
        let r3 = FlowMod::add(
            15,
            Match::any()
                .with_nw_src([10, 0, 0, 0], 24)
                .with_nw_dst([10, 0, 0, 0], 24),
            vec![],
        );
        let acts = m.on_flowmod(5, 3, r3);
        assert!(acts.is_empty(), "queued, not forwarded: {acts:?}");
        assert_eq!(m.queued(), 1);
        assert_eq!(m.expected().table().len(), 2, "queued fm not yet applied");
        // Confirm R1 -> R3 is released (forwarded + probed).
        let out = m.on_verdict(100, seq1, Verdict::Present);
        assert!(matches!(out[0], DynAction::Confirmed { token: 1, .. }));
        assert!(out.iter().any(|a| matches!(a, DynAction::Forward(_))));
        assert_eq!(m.queued(), 0);
        assert_eq!(m.expected().table().len(), 3);
    }

    #[test]
    fn non_overlapping_updates_run_in_parallel() {
        let mut m = monitor();
        let a1 = m.on_flowmod(0, 1, add_fm(10, [10, 0, 0, 1], 2));
        let a2 = m.on_flowmod(0, 2, add_fm(10, [10, 0, 0, 2], 3));
        assert!(matches!(a1[1], DynAction::Inject { token: 1, .. }));
        assert!(matches!(a2[1], DynAction::Inject { token: 2, .. }));
        assert_eq!(m.in_flight(), 2);
        assert_eq!(m.queued(), 0);
    }

    #[test]
    fn unmonitorable_update_acked_optimistically() {
        let mut m = DynamicMonitor::new(DynamicConfig::default(), CatchSpec::default());
        // Empty table: adding a rule whose presence is indistinguishable
        // from a table miss (drop rule over drop-by-miss).
        let fm = FlowMod::add(10, Match::any().with_tp_dst(23), vec![]);
        let acts = m.on_flowmod(0, 9, fm);
        assert!(matches!(acts[0], DynAction::Forward(_)));
        assert_eq!(
            acts[1],
            DynAction::Confirmed {
                token: 9,
                verified: false
            }
        );
    }

    /// Plans a deferred request statelessly against the request's table.
    fn plan_request(req: &PlanRequest) -> Option<ProbePlan> {
        crate::generator::generate_probe(
            &req.table,
            req.rule_id,
            &CatchSpec::default(),
            &GeneratorConfig::default(),
        )
        .ok()
    }

    #[test]
    fn deferred_add_roundtrip() {
        let mut m = monitor();
        m.set_deferred_planning(true);
        let acts = m.on_flowmod(0, 1, add_fm(10, [10, 0, 0, 1], 2));
        // Forward only — the probe is not planned yet.
        assert_eq!(acts.len(), 1);
        assert!(matches!(acts[0], DynAction::Forward(_)));
        assert_eq!(m.awaiting_plans(), 1);
        assert_eq!(m.in_flight(), 0);
        let reqs = m.take_plan_requests();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].token, 1);
        // The neighborhood is post-delta: it contains the new rule.
        assert_eq!(reqs[0].table.len(), 2);
        assert!(reqs[0].table.get(reqs[0].rule_id).is_some());
        let plan = plan_request(&reqs[0]);
        assert!(plan.is_some());
        let acts = m.attach_plan(50, 1, plan);
        assert!(matches!(acts[0], DynAction::Inject { token: 1, .. }));
        assert_eq!(m.in_flight(), 1);
        assert_eq!(m.awaiting_plans(), 0);
        let DynAction::Inject { seq, .. } = acts[0] else {
            panic!()
        };
        let out = m.on_verdict(100, seq, Verdict::Present);
        assert_eq!(
            out[0],
            DynAction::Confirmed {
                token: 1,
                verified: true
            }
        );
    }

    #[test]
    fn deferred_delete_snapshots_pre_delta() {
        let mut m = monitor();
        m.set_deferred_planning(true);
        let acts = m.on_flowmod(0, 1, add_fm(10, [10, 0, 0, 1], 2));
        let reqs = m.take_plan_requests();
        let acts2 = m.attach_plan(1, 1, plan_request(&reqs[0]));
        let DynAction::Inject { seq, .. } = acts2[0] else {
            panic!("{acts:?} {acts2:?}")
        };
        m.on_verdict(2, seq, Verdict::Present);
        // A disjoint bystander: in the table, in nobody's neighborhood.
        m.expected_mut()
            .install(10, Match::any().with_nw_dst([10, 0, 0, 2], 32), vec![])
            .unwrap();
        let victim = m.expected().table().rules()[0].id;
        // Delete: the request's table must still contain the victim.
        let del = FlowMod::delete_strict(10, Match::any().with_nw_dst([10, 0, 0, 1], 32));
        m.on_flowmod(10, 2, del);
        assert_eq!(m.expected().table().len(), 2, "delta applied immediately");
        let reqs = m.take_plan_requests();
        assert_eq!(reqs.len(), 1);
        assert_eq!(
            reqs[0].table.len(),
            2,
            "pre-delta neighborhood for deletes: victim + default route"
        );
        assert_eq!(reqs[0].rule_id, victim, "ids are the expected table's");
        assert!(reqs[0].table.get(victim).is_some());
        let acts = m.attach_plan(20, 2, plan_request(&reqs[0]));
        let DynAction::Inject { seq, .. } = acts[0] else {
            panic!("{acts:?}")
        };
        let out = m.on_verdict(30, seq, Verdict::Absent);
        assert_eq!(
            out[0],
            DynAction::Confirmed {
                token: 2,
                verified: true
            }
        );
    }

    #[test]
    fn deferred_modify_is_synthetic_and_remapped() {
        let mut m = monitor();
        m.set_deferred_planning(true);
        m.on_flowmod(0, 1, add_fm(10, [10, 0, 0, 1], 2));
        let reqs = m.take_plan_requests();
        let acts = m.attach_plan(1, 1, plan_request(&reqs[0]));
        let DynAction::Inject { seq, .. } = acts[0] else {
            panic!()
        };
        m.on_verdict(2, seq, Verdict::Present);
        let fm = FlowMod::modify_strict(
            10,
            Match::any().with_nw_dst([10, 0, 0, 1], 32),
            vec![Action::Output(5)],
        );
        m.on_flowmod(10, 2, fm);
        let reqs = m.take_plan_requests();
        assert_eq!(reqs.len(), 1);
        // §4.1 construction on the neighborhood: the new version, the old
        // one re-inserted just below it, and nothing of lower priority (the
        // default route is gone).
        let prios: Vec<u16> = reqs[0].table.rules().iter().map(|r| r.priority).collect();
        assert_eq!(prios, [10, 9], "modify plans on the synthetic table");
        assert_eq!(reqs[0].table.get(reqs[0].rule_id).unwrap().priority, 10);
        let plan = plan_request(&reqs[0]).expect("old port 2 vs new port 5 distinguishable");
        let acts = m.attach_plan(20, 2, Some(plan));
        let DynAction::Inject { seq, .. } = acts[0] else {
            panic!("{acts:?}")
        };
        // The attached plan's rule id was remapped to the real table's rule.
        let live = m.plan_for_seq(seq).unwrap();
        let real_id = m
            .expected()
            .table()
            .rules()
            .iter()
            .find(|r| r.priority == 10)
            .unwrap()
            .id;
        assert_eq!(live.rule_id, real_id);
        let out = m.on_verdict(30, seq, Verdict::Present);
        assert!(matches!(out[0], DynAction::Confirmed { token: 2, .. }));
    }

    #[test]
    fn deferred_conflict_queues_behind_awaiting() {
        let mut m = monitor();
        m.set_deferred_planning(true);
        let r1 = FlowMod::add(
            10,
            Match::any().with_nw_src([10, 0, 0, 1], 32),
            vec![Action::Output(2)],
        );
        m.on_flowmod(0, 1, r1);
        assert_eq!(m.awaiting_plans(), 1);
        // Overlapping update while the first one's plan is still pending:
        // must queue, not start.
        let r2 = FlowMod::add(
            15,
            Match::any()
                .with_nw_src([10, 0, 0, 0], 24)
                .with_nw_dst([10, 0, 0, 0], 24),
            vec![],
        );
        let acts = m.on_flowmod(5, 2, r2);
        assert!(acts.is_empty());
        assert_eq!(m.queued(), 1);
        // The first update turns out unmonitorable: optimistic ack AND the
        // queued conflicting update is released (as a new plan request).
        let reqs = m.take_plan_requests();
        assert_eq!(reqs.len(), 1);
        let acts = m.attach_plan(10, 1, None);
        assert!(acts.contains(&DynAction::Confirmed {
            token: 1,
            verified: false
        }));
        assert!(acts.iter().any(|a| matches!(a, DynAction::Forward(_))));
        assert_eq!(m.queued(), 0);
        assert_eq!(m.awaiting_plans(), 1, "released update awaits its plan");
        assert_eq!(m.take_plan_requests().len(), 1);
    }

    /// Pins the complexity, not the time: what a [`PlanRequest`] carries is
    /// the probed rule's overlap neighborhood, whatever the table's size.
    #[test]
    fn plan_requests_carry_the_neighborhood_not_the_table() {
        let mut m = monitor();
        for i in 0..2000u32 {
            let dst = [10, 1, (i >> 8) as u8, i as u8];
            m.expected_mut()
                .install(
                    10,
                    Match::any().with_nw_dst(dst, 32),
                    vec![Action::Output(2)],
                )
                .unwrap();
        }
        m.set_deferred_planning(true);
        let host = Match::any().with_nw_dst([10, 1, 3, 7], 32);
        let fresh = Match::any().with_nw_dst([10, 2, 0, 1], 32);
        let script = [
            // (FlowMod, rules overlapping its match before it lands)
            (FlowMod::delete_strict(10, host), 2),
            (FlowMod::add(10, fresh, vec![Action::Output(3)]), 1),
            // §4.1: the default route is dropped, the old version re-inserted.
            (
                FlowMod::modify_strict(10, fresh, vec![Action::Output(4)]),
                2,
            ),
        ];
        for (token, (fm, overlap_before)) in script.into_iter().enumerate() {
            let tern = fm.match_.ternary();
            assert_eq!(
                m.expected().table().overlapping(&tern).len(),
                overlap_before
            );
            m.on_flowmod(0, token as u64, fm);
            let reqs = m.take_plan_requests();
            assert_eq!(reqs.len(), 1);
            let req = &reqs[0];
            assert_eq!(req.table.len(), 2, "victim/new rule + one neighbor");
            assert!(req.table.len() <= overlap_before + 1);
            assert!(req.table.get(req.rule_id).is_some(), "rule_id resolves");
            let plan = plan_request(req);
            assert!(plan.is_some(), "update {token} is monitorable");
            let acts = m.attach_plan(1, token as u64, plan);
            let DynAction::Inject { seq, .. } = acts[0] else {
                panic!("{acts:?}")
            };
            // Both verdicts: whichever confirms this update does.
            m.on_verdict(2, seq, Verdict::Present);
            m.on_verdict(2, seq, Verdict::Absent);
            assert_eq!(m.in_flight(), 0);
        }
        assert_eq!(m.expected().table().len(), 2001);
    }

    mod props {
        use super::*;
        use crate::plan::verify_probe;
        use proptest::prelude::*;

        /// A small value space, so rules overlap and updates conflict.
        fn arb_match() -> impl Strategy<Value = Match> {
            (
                prop::option::of((0u8..2, 0u8..3, prop_oneof![Just(24u8), Just(32)])),
                prop::option::of(prop_oneof![Just(22u16), Just(80)]),
            )
                .prop_map(|(dst, port)| {
                    let mut m = Match::any();
                    if let Some((a, b, plen)) = dst {
                        m = m.with_nw_dst([10, 0, a, b], plen);
                    }
                    if let Some(p) = port {
                        m = m.with_nw_proto(6).with_tp_dst(p);
                    }
                    m
                })
        }

        fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
            prop_oneof![
                Just(vec![]),
                (1u16..5).prop_map(|p| vec![Action::Output(p)]),
                (1u8..4).prop_map(|t| vec![Action::SetNwTos(t), Action::Output(1)]),
            ]
        }

        fn arb_flowmod() -> impl Strategy<Value = FlowMod> {
            (0u8..5, 2u16..6, arb_match(), arb_actions()).prop_map(|(cmd, prio, m, a)| match cmd {
                0 | 1 => FlowMod::add(prio, m, a),
                2 => FlowMod::modify_strict(prio, m, a),
                3 => FlowMod::delete_strict(prio, m),
                _ => FlowMod {
                    command: FlowModCommand::Delete,
                    ..FlowMod::delete_strict(prio, m)
                },
            })
        }

        /// Answers every outstanding injection with both verdicts (one of
        /// them confirms) until the monitor goes quiet, planning whatever
        /// the confirmations release.
        fn confirm_all(
            m: &mut DynamicMonitor,
            planner: &mut Option<ProbeEngine>,
            log: &mut Vec<DynAction>,
            answered: &mut usize,
        ) {
            while *answered < log.len() {
                let action = log[*answered].clone();
                *answered += 1;
                if let DynAction::Inject { seq, .. } = action {
                    for v in [Verdict::Present, Verdict::Absent] {
                        let out = m.on_verdict(5, seq, v);
                        log.extend(out);
                        settle(m, planner, log);
                    }
                }
            }
        }

        /// The transport driver's half of the deferred contract, run
        /// synchronously and depth-first: plan each request with `planner`,
        /// attach, and settle what the attach released before moving on.
        fn settle(
            m: &mut DynamicMonitor,
            planner: &mut Option<ProbeEngine>,
            log: &mut Vec<DynAction>,
        ) {
            for req in m.take_plan_requests() {
                let plan = planner
                    .as_mut()
                    .expect("inline mode hands no requests out")
                    .generate(&req.table, req.rule_id, &CatchSpec::default())
                    .ok();
                log.extend(m.attach_plan(1, req.token, plan));
                settle(m, planner, log);
            }
        }

        fn run_script(script: &[FlowMod], deferred: bool) -> (Vec<DynAction>, Vec<Rule>) {
            let mut m = monitor();
            m.set_deferred_planning(deferred);
            let mut planner = deferred.then(|| ProbeEngine::with_gen(DynamicConfig::default().gen));
            let (mut log, mut answered) = (Vec::new(), 0);
            for (i, fm) in script.iter().enumerate() {
                log.extend(m.on_flowmod(1, i as u64, fm.clone()));
                settle(&mut m, &mut planner, &mut log);
                // Confirm in bursts, so overlapping updates queue in between.
                if i % 3 == 2 {
                    confirm_all(&mut m, &mut planner, &mut log, &mut answered);
                }
            }
            confirm_all(&mut m, &mut planner, &mut log, &mut answered);
            assert_eq!((m.in_flight(), m.queued(), m.awaiting_plans()), (0, 0, 0));
            (log, m.expected().table().rules().to_vec())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Inline planning is the deferred contract plus a synchronous
            /// planner: the same FlowMod script yields the same action
            /// sequence (and expected table) in both modes when the deferred
            /// plans come from the same planning function.
            #[test]
            fn inline_and_deferred_emit_the_same_actions(
                script in prop::collection::vec(arb_flowmod(), 1..16)
            ) {
                let (inline_log, inline_table) = run_script(&script, false);
                let (deferred_log, deferred_table) = run_script(&script, true);
                prop_assert_eq!(inline_log, deferred_log);
                prop_assert_eq!(inline_table, deferred_table);
            }

            /// The §4.1 construction applied to the neighborhood of the
            /// modified match plans like the construction applied to the
            /// whole table (the oracle, kept for this test only): same found
            /// / not found, and the neighborhood's plan verifies on the
            /// full construction with the outcomes it promises.
            #[test]
            fn neighborhood_synthetic_plan_verifies_on_full_synthetic(
                rules in prop::collection::vec((2u16..6, arb_match(), arb_actions()), 1..14),
                pick in any::<usize>(),
                new_actions in arb_actions(),
            ) {
                let mut table = FlowTable::new();
                table.add_rule(1, Match::any(), vec![Action::Output(9)]).unwrap();
                for (prio, m, a) in rules {
                    let _ = table.add_rule(prio, m, a);
                }
                let old = table.rules()[pick % table.len()].clone();
                let fm = FlowMod::modify_strict(old.priority, old.match_, new_actions);
                table.apply(&fm).unwrap();
                let nb = table.neighborhood(&old.tern);
                let (small, small_id) =
                    DynamicMonitor::build_synthetic(&nb, &fm, old.clone()).unwrap();
                let (full, full_id) =
                    DynamicMonitor::build_synthetic(&table, &fm, old).unwrap();
                prop_assert!(small.len() <= full.len());
                let (catch, gen) = (CatchSpec::default(), GeneratorConfig::default());
                let on_small = crate::generator::generate_probe(&small, small_id, &catch, &gen);
                let on_full = crate::generator::generate_probe(&full, full_id, &catch, &gen);
                prop_assert_eq!(on_small.is_ok(), on_full.is_ok(), "{:?} vs {:?}", on_small, on_full);
                if let Ok(plan) = on_small {
                    let oracle = verify_probe(&full, full_id, &plan.header, &[]);
                    prop_assert_eq!(oracle, Some((plan.present, plan.absent)));
                }
            }
        }
    }

    #[test]
    fn alarm_after_attempt_budget() {
        let cfg = DynamicConfig {
            max_attempts: 3,
            ..DynamicConfig::default()
        };
        let mut m = DynamicMonitor::new(cfg, CatchSpec::default());
        m.expected_mut()
            .install(1, Match::any(), vec![Action::Output(99)])
            .unwrap();
        m.on_flowmod(0, 1, add_fm(10, [10, 0, 0, 1], 2));
        let mut alarmed = false;
        for i in 1..10u64 {
            for a in m.on_tick(i * 10_000_000) {
                if matches!(a, DynAction::Alarm { token: 1 }) {
                    alarmed = true;
                }
            }
        }
        assert!(alarmed);
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn alarm_releases_updates_queued_behind_it() {
        let cfg = DynamicConfig {
            max_attempts: 2,
            ..DynamicConfig::default()
        };
        let mut m = DynamicMonitor::new(cfg, CatchSpec::default());
        m.set_deferred_planning(true);
        m.expected_mut()
            .install(1, Match::any(), vec![Action::Output(99)])
            .unwrap();
        // A is forwarded and probed; B overlaps A and queues behind it.
        let a = FlowMod::add(
            10,
            Match::any().with_nw_src([10, 0, 0, 1], 32),
            vec![Action::Output(2)],
        );
        m.on_flowmod(0, 1, a);
        let reqs = m.take_plan_requests();
        m.attach_plan(0, 1, plan_request(&reqs[0]));
        let b = FlowMod::add(
            15,
            Match::any()
                .with_nw_src([10, 0, 0, 0], 24)
                .with_nw_dst([10, 0, 0, 0], 24),
            vec![Action::Output(3)],
        );
        assert!(m.on_flowmod(1, 2, b).is_empty());
        assert_eq!((m.in_flight(), m.queued()), (1, 1));
        // A's probes never return: second attempt, then the alarm — and in
        // that same tick B is forwarded and asks for its plan.
        assert!(!m
            .on_tick(10_000_000)
            .iter()
            .any(|x| matches!(x, DynAction::Alarm { .. })));
        let acts = m.on_tick(20_000_000);
        assert!(acts.contains(&DynAction::Alarm { token: 1 }), "{acts:?}");
        assert!(
            acts.iter().any(|x| matches!(x, DynAction::Forward(_))),
            "B released by the alarm: {acts:?}"
        );
        assert_eq!(
            (m.in_flight(), m.queued(), m.awaiting_plans()),
            (0, 0, 1),
            "B awaits its plan"
        );
        let reqs = m.take_plan_requests();
        assert_eq!(reqs.len(), 1, "B's PlanRequest in the same on_tick");
        let acts = m.attach_plan(20_000_000, 2, plan_request(&reqs[0]));
        let DynAction::Inject { seq, .. } = acts[0] else {
            panic!("B is monitorable: {acts:?}")
        };
        m.on_verdict(21_000_000, seq, Verdict::Present);
        assert_eq!((m.in_flight(), m.queued(), m.awaiting_plans()), (0, 0, 0));
    }
}
