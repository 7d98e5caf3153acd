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
//!   below, per the paper's construction) — each planned by the switch's one
//!   warm planner: inline, by the monitor itself, on its expected table with
//!   its own engine; deferred, by whoever replays its planning steps on a
//!   [`crate::planner::Replica`] of their own;
//! * §4.2 — concurrent updates: probes for non-overlapping updates proceed
//!   in parallel; an update overlapping one in flight is queued until the
//!   conflict clears (the paper's implementation policy), and so is one
//!   overlapping a queued update it does not commute with, so that no update
//!   overtakes another whose result it would change;
//! * transient-inconsistency tolerance: a probe observing the "old" state
//!   does not raise an alarm, it just keeps probing (§4.1);
//! * the switch's own claims: a driver that follows its FlowMods with a
//!   barrier tells the monitor when the switch says they are processed
//!   ([`DynamicMonitor::on_claim`]). A claim is a hint, never proof — some
//!   switches answer barriers before the commit (\[16\]) — but a truthful
//!   one says exactly when a probe can first succeed, so each covered update
//!   is re-probed at once instead of on the clock. Once claims flow, §3.3
//!   silence counts only from an update's claim, an unclaimed update is
//!   never confirmed by silence, and its clock-driven re-probes back off. A
//!   monitor that never hears a claim probes on the clock alone.

use crate::encode::CatchSpec;
use crate::engine::ProbeEngine;
use crate::generator::GeneratorConfig;
use crate::plan::{take_seq, ProbePlan, Verdict};
use crate::planner::{self, PlanKind, Refreshed, Step};
use monocle_openflow::table::ApplyResult;
use monocle_openflow::{FlowMod, FlowModCommand, FlowTable, Rule, RuleId, TableError};
use std::collections::VecDeque;

/// Interval between probe (re)injections for an unconfirmed update, ns.
const PROBE_INTERVAL: u64 = 2_000_000;
/// Silence window for negative probing (§3.3): when the confirming outcome
/// is a drop (unobservable), the update is confirmed once no contrary probe
/// has returned for this long, ns.
pub(crate) const NEGATIVE_CONFIRM_WINDOW: u64 = 12_000_000;

/// Dynamic-monitor configuration.
#[derive(Debug, Clone, Default)]
pub struct DynamicConfig {
    /// Give-up threshold: after this many probes without confirmation an
    /// alarm is raised (0, the default, = never give up).
    pub max_attempts: u32,
    /// Probe generation settings.
    pub gen: GeneratorConfig,
}

/// Actions the dynamic monitor asks the harness to perform.
#[derive(Debug, Clone, PartialEq)]
pub enum DynAction {
    /// Forward update `token`'s FlowMod to the switch now; the driver numbers
    /// it among the FlowMods it sends ([`DynamicMonitor::note_forwarded`]).
    Forward {
        /// Update token.
        token: u64,
        /// The FlowMod.
        fm: FlowMod,
    },
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

/// A [`Step::Plan`] in the form a stateless planner takes: the table to plan
/// on and the rule to probe in it, for update `token`
/// ([`DynamicMonitor::take_plan_requests`]).
///
/// This is the reference the one warm planner is tested against, and the
/// form `benchmark/` drives the proxy with; the product plans on the
/// expected table or a replica of it instead. `table` is not the switch's
/// table but the **overlap neighborhood** of the probed rule
/// ([`FlowTable::neighborhood`]) at the point of the stream §4.1 prescribes:
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
/// the neighborhood and on the full table for every candidate probe of R.
/// The whole-table reads left in generation — spare-value selection in
/// header repair and domain constraints — choose *which* value is tried,
/// never whether a verified plan is valid. Rule ids in `table` are the
/// expected table's own, except in the modify construction, which renumbers
/// ([`DynamicMonitor::attach_plan`] points the plan back at the update's
/// rule).
#[derive(Debug, Clone)]
pub struct PlanRequest {
    /// Update token the resulting plan belongs to.
    pub token: u64,
    /// The probed rule's overlap neighborhood (see the type docs).
    pub table: FlowTable,
    /// The rule to probe, an id of `table`.
    pub rule_id: RuleId,
}

/// Whether applying `a` and `b` in either order leaves the same rules in
/// any table: two deletes (each removes what it hits, whatever the other
/// did), or two commands that each touch one (priority, match) entry only —
/// ADD, strict MODIFY, strict DELETE — naming different entries (an ADD
/// asking for the overlap check excepted: whether it fails depends on the
/// other).
fn commute(a: &FlowMod, b: &FlowMod) -> bool {
    use FlowModCommand::{Add, Delete, DeleteStrict, ModifyStrict};
    let one_entry =
        |f: &FlowMod| matches!(f.command, Add | ModifyStrict | DeleteStrict) && !f.check_overlap;
    let deletes = |f: &FlowMod| matches!(f.command, Delete | DeleteStrict);
    (deletes(a) && deletes(b))
        || (one_entry(a) && one_entry(b) && (a.priority, a.match_) != (b.priority, b.match_))
}

/// An update forwarded to the switch whose plan has not been attached yet.
/// Participates in §4.2 conflict queueing exactly like an actively probed
/// update.
#[derive(Debug)]
struct AwaitingUpdate {
    token: u64,
    fm: FlowMod,
    confirm_on: Verdict,
    /// The expected table's rule the update is proven by; the attached
    /// plan is pointed at it (a §4.1 modify plan carries the construction's
    /// id).
    rule_id: RuleId,
    claim: Claim,
}

/// Where an update's FlowMod stands in the switch's own account.
#[derive(Debug, Clone, Copy, Default)]
struct Claim {
    /// The FlowMod's number among those sent to the switch, from 1
    /// ([`DynamicMonitor::note_forwarded`]).
    forwarded: Option<u64>,
    /// When a claim first covered it ([`DynamicMonitor::on_claim`]).
    at: Option<u64>,
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
    claim: Claim,
    attempts: u32,
    next_probe_at: u64,
    live_seqs: Vec<u32>,
}

/// The per-switch dynamic monitor: the expected table, the catch pins, and
/// — planning inline — the one [`ProbeEngine`] that plans on them, every
/// update's probe and every steady refresh of the proxy. Deferred, it keeps
/// the table and the pins but no engine: the switch's planner, replaying its
/// [`Step`]s on a [`crate::planner::Replica`], holds the only one.
#[derive(Debug)]
pub struct DynamicMonitor {
    cfg: DynamicConfig,
    /// The expected table.
    pub(crate) table: FlowTable,
    /// The collection pins every probe of this switch carries.
    pub(crate) catch: CatchSpec,
    /// Inline planning: the engine on `table`. `None`: deferred
    /// planning, the work recorded as [`Step`]s for an external planner.
    pub(crate) engine: Option<ProbeEngine>,
    active: Vec<ActiveUpdate>,
    queued: VecDeque<(u64, FlowMod)>,
    /// The next probe's sequence number, below
    /// [`crate::plan::STEADY_SEQ_BIT`] ([`take_seq`]).
    next_seq: u32,
    awaiting: Vec<AwaitingUpdate>,
    /// Deferred mode: the steps recorded since the last take.
    steps: Vec<Step>,
    /// Inline mode: plans made as their update started, not yet attached,
    /// in request order.
    planned: VecDeque<(u64, Option<ProbePlan>)>,
    /// [`Self::take_plan_requests`]' replica of the expected table (table
    /// only: it builds requests, it plans nothing).
    request_replica: FlowTable,
    /// Rules added or modified by updates started since the last
    /// [`Self::take_touched_rules`].
    touched: Vec<RuleId>,
    /// A claim has been heard ([`Self::on_claim`]): silence counts from
    /// claims, and unclaimed updates re-probe with backoff.
    claims_heard: bool,
}

impl DynamicMonitor {
    /// Creates a monitor; `catch` is the per-switch collection spec (tag
    /// pins + injection port).
    pub fn new(cfg: DynamicConfig, catch: CatchSpec) -> DynamicMonitor {
        DynamicMonitor {
            engine: Some(ProbeEngine::with_gen(cfg.gen.clone())),
            cfg,
            table: FlowTable::new(),
            catch,
            active: Vec::new(),
            queued: VecDeque::new(),
            next_seq: 0,
            awaiting: Vec::new(),
            steps: Vec::new(),
            planned: VecDeque::new(),
            request_replica: FlowTable::new(),
            touched: Vec::new(),
            claims_heard: false,
        }
    }

    /// A monitor whose first probe gets sequence number `seq`.
    #[cfg(test)]
    pub(crate) fn with_first_seq(cfg: DynamicConfig, catch: CatchSpec, seq: u32) -> Self {
        DynamicMonitor {
            next_seq: seq,
            ..DynamicMonitor::new(cfg, catch)
        }
    }

    /// Chooses who plans the updates' probes and the steady refreshes.
    /// Inline (the default; the simulator/harness path): the monitor, on
    /// itself with its own engine, as each update starts or a refresh is
    /// asked for. Deferred (the transport path): an external planner that
    /// replays the monitor's [`Step`]s ([`Self::take_plan_steps`]) on a
    /// [`crate::planner::Replica`] — in practice a planner thread per group
    /// of switches, so generation overlaps the switches' install latencies
    /// and never runs on the I/O thread — and hands the answers back later
    /// ([`Self::attach_plan`], `MonitorProxy::attach_refresh`). Turning it
    /// on drops the monitor's engine and starts the stream: a
    /// [`Step::Start`] with a copy of the expected table as it is now. It is
    /// one-way: `false` leaves the monitor as it is.
    pub fn set_deferred_planning(&mut self, on: bool) {
        if on {
            self.engine = None;
            self.steps.push(Step::Start {
                table: self.table.clone(),
                catch: self.catch.clone(),
                gen: self.cfg.gen.clone(),
            });
        }
    }

    /// Drains the ids of rules added or modified by the updates started
    /// since the last call (the adaptive steady scheduler's "recently
    /// touched" signal), as resolved by the table's own
    /// [`monocle_openflow::table::ApplyResult`].
    pub fn take_touched_rules(&mut self) -> Vec<RuleId> {
        std::mem::take(&mut self.touched)
    }

    /// Drains the deferred planning steps recorded since the last call, in
    /// order. Transport drivers call this after every
    /// `on_flowmod`/`attach_plan`/`on_verdict`/`on_tick` (a confirmation
    /// can release queued updates, which request plans) and hand the steps
    /// to the switch's planner.
    pub fn take_plan_steps(&mut self) -> Vec<Step> {
        std::mem::take(&mut self.steps)
    }

    /// As [`Self::take_plan_steps`], each plan step turned into the
    /// [`PlanRequest`] a stateless planner takes, built on a table-only
    /// replica the monitor keeps for the purpose. For callers that plan
    /// requests themselves; use one of the two, not both.
    pub fn take_plan_requests(&mut self) -> Vec<PlanRequest> {
        let mut requests = Vec::new();
        for step in self.take_plan_steps() {
            match step {
                Step::Start { table, .. } => self.request_replica = table,
                Step::Refresh { .. } => {}
                Step::Apply(fm) => {
                    let _ = self.request_replica.apply(&fm);
                }
                Step::Plan {
                    token,
                    rule_id,
                    kind,
                } => {
                    let (table, rule_id) =
                        planner::request_table(&self.request_replica, rule_id, &kind);
                    requests.push(PlanRequest {
                        token,
                        table,
                        rule_id,
                    });
                }
            }
        }
        requests
    }

    /// Updates forwarded to the switch whose plan is still being generated.
    pub fn awaiting_plans(&self) -> usize {
        self.awaiting.len()
    }

    /// The expected table (shared view for steady-state plan refresh etc.).
    pub fn expected(&self) -> &FlowTable {
        &self.table
    }

    /// Applies `fm` to the expected table (and, in deferred mode, records it
    /// for the planner's replica). Neither probed nor forwarded — the one
    /// way the table changes, for controller updates ([`Self::on_flowmod`])
    /// and for Monocle's own (preinstalls, drop-postponing finalizers)
    /// alike, so no change escapes a replica.
    pub fn apply_expected(&mut self, fm: &FlowMod) -> Result<ApplyResult, TableError> {
        if self.engine.is_none() {
            self.steps.push(Step::Apply(fm.clone()));
        }
        self.table.apply(fm)
    }

    /// Asks the planner to re-plan the steady probes of `work` on the
    /// expected table as it is now (a [`Step::Refresh`]): answered at once
    /// inline, recorded for the external planner when deferred (`None`).
    pub(crate) fn request_refresh(&mut self, work: Vec<RuleId>) -> Option<Refreshed> {
        let Some(engine) = &mut self.engine else {
            self.steps.push(Step::Refresh { work });
            return None;
        };
        Some(planner::refresh(&self.table, engine, &self.catch, work))
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
        // §4.2: queue updates that conflict with an earlier unfinished one
        // (actively probed, awaiting its plan, or queued itself).
        if self.conflicts(&fm, &self.queued) {
            self.queued.push_back((token, fm));
            return Vec::new();
        }
        let mut actions = self.start_update(token, fm);
        self.attach_planned(now, &mut actions);
        actions
    }

    /// Whether `fm` must wait for an update that came before it and has not
    /// finished: it overlaps one that is actively probed or awaiting its
    /// plan (§4.2: their probes would see each other), or one of
    /// `queued_ahead` that it does not commute with (overtaking that one
    /// would change what the table ends up holding).
    fn conflicts(&self, fm: &FlowMod, queued_ahead: &VecDeque<(u64, FlowMod)>) -> bool {
        let tern = fm.match_.ternary();
        let overlaps = |other: &FlowMod| other.match_.ternary().overlaps(&tern);
        self.active.iter().any(|a| overlaps(&a.fm))
            || self.awaiting.iter().any(|a| overlaps(&a.fm))
            || queued_ahead
                .iter()
                .any(|(_, q)| overlaps(q) && !commute(q, fm))
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
    fn delete_victim(&self, fm: &FlowMod) -> Option<RuleId> {
        match fm.command {
            FlowModCommand::DeleteStrict | FlowModCommand::Delete => {
                let strict = fm.command == FlowModCommand::DeleteStrict;
                let tern = fm.match_.ternary();
                self.table
                    .rules()
                    .iter()
                    .find(|r| {
                        if strict {
                            r.priority == fm.priority && r.match_ == fm.match_
                        } else {
                            tern.subsumes(&r.tern)
                        }
                    })
                    .map(|r| r.id)
            }
            _ => None,
        }
    }

    /// The rule a modify is about to replace (pre-delta lookup).
    fn modify_old_version(&self, fm: &FlowMod) -> Option<Rule> {
        match fm.command {
            FlowModCommand::ModifyStrict | FlowModCommand::Modify => self
                .table
                .rules()
                .iter()
                .find(|r| r.priority == fm.priority && r.match_ == fm.match_)
                .cloned(),
            _ => None,
        }
    }

    /// Asks the planner for update `token`'s probe, at this point of the
    /// expected table's history: recorded as a [`Step::Plan`] in deferred
    /// mode, planned at once on the monitor itself and queued for
    /// [`Self::attach_planned`] inline.
    fn request_plan(&mut self, token: u64, rule_id: RuleId, kind: PlanKind) {
        let Some(engine) = &mut self.engine else {
            return self.steps.push(Step::Plan {
                token,
                rule_id,
                kind,
            });
        };
        let plan = planner::plan(&self.table, engine, &self.catch, rule_id, &kind);
        self.planned.push_back((token, plan.ok()));
    }

    /// Starts an update whose conflicts have cleared: applies it to the
    /// expected table, forwards it, and either parks it behind the one plan
    /// request that can prove it or, when there is nothing to probe,
    /// acknowledges it optimistically. The single add/delete/modify case
    /// analysis, shared by inline and deferred mode.
    fn start_update(&mut self, token: u64, fm: FlowMod) -> Vec<DynAction> {
        // §4.1: a deletion is the opposite of an installation — its probe is
        // the victim's *pre-state* plan, awaited on the absent outcome, so
        // it is requested before the delta lands. Likewise a modify needs
        // the version it replaces (that rule, not the table).
        let victim = self.delete_victim(&fm);
        if let Some(id) = victim {
            self.request_plan(token, id, PlanKind::Absent);
        }
        let old_version = self.modify_old_version(&fm);
        let applied = self.apply_expected(&fm).unwrap_or_default();
        self.touched
            .extend(applied.added.iter().chain(&applied.modified));
        // The rule the update is proven by and the verdict that proves it.
        let probed = match fm.command {
            // OF1.0: a MODIFY with no matching entry behaves as ADD; the
            // table reports it in ApplyResult::added (and nothing in
            // `modified`), so the guard routes it through the same
            // present-probe path as an Add.
            FlowModCommand::Add | FlowModCommand::ModifyStrict | FlowModCommand::Modify
                if !applied.added.is_empty() && applied.modified.is_empty() =>
            {
                self.request_plan(token, applied.added[0], PlanKind::Present);
                Some((applied.added[0], Verdict::Present))
            }
            // An Add whose apply failed (bad actions / overlap flag): no
            // rule to probe.
            FlowModCommand::Add => None,
            FlowModCommand::DeleteStrict | FlowModCommand::Delete => {
                victim.map(|id| (id, Verdict::Absent))
            }
            // A modify keeps its rule's id, so the old version names the
            // new one too; `modified` is empty when the apply failed, and a
            // priority-0 rule has nowhere below it to put the old version.
            FlowModCommand::ModifyStrict | FlowModCommand::Modify => old_version
                .filter(|old| old.priority > 0 && !applied.modified.is_empty())
                .map(|old| {
                    let id = old.id;
                    let old = Box::new(old);
                    self.request_plan(token, id, PlanKind::Modify { old });
                    (id, Verdict::Present)
                }),
        };
        let mut actions = vec![DynAction::Forward {
            token,
            fm: fm.clone(),
        }];
        match probed {
            Some((rule_id, confirm_on)) => self.awaiting.push(AwaitingUpdate {
                token,
                fm,
                confirm_on,
                rule_id,
                claim: Claim::default(),
            }),
            // Unmonitorable update: acknowledge optimistically (the
            // controller can fall back to barriers for these).
            None => actions.push(DynAction::Confirmed {
                token,
                verified: false,
            }),
        }
        actions
    }

    /// Attaches the plans inline mode made, in request order, the ones
    /// that attaching releases included — what a transport driver does with
    /// [`Self::attach_plan`] as its planner answers the steps in order,
    /// synchronously. Nothing to do in deferred mode.
    fn attach_planned(&mut self, now: u64, actions: &mut Vec<DynAction>) {
        while let Some((token, plan)) = self.planned.pop_front() {
            actions.extend(self.attach_plan(now, token, plan));
        }
    }

    /// Registers a planned update as actively probed and emits its first
    /// injection.
    fn activate(&mut self, now: u64, a: AwaitingUpdate, plan: ProbePlan) -> DynAction {
        let seq = take_seq(&mut self.next_seq);
        let confirming_outcome_is_drop = match a.confirm_on {
            Verdict::Present => plan.present.is_drop(),
            Verdict::Absent => plan.absent.is_drop(),
            Verdict::Inconclusive => false,
        };
        self.active.push(ActiveUpdate {
            token: a.token,
            fm: a.fm,
            plan,
            confirm_on: a.confirm_on,
            silent_confirm: confirming_outcome_is_drop,
            last_contrary: now,
            started: now,
            claim: a.claim,
            attempts: 1,
            next_probe_at: now + PROBE_INTERVAL,
            live_seqs: vec![seq],
        });
        DynAction::Inject {
            token: a.token,
            seq,
        }
    }

    /// Completes a plan request: the planner hands back the plan for update
    /// `token` (`None` = generation failed → optimistic ack, like an update
    /// with nothing to probe). The plan is pointed at the update's own rule.
    /// An unmonitorable completion releases conflict-queued updates, since
    /// the update never enters the actively probed set.
    pub fn attach_plan(&mut self, now: u64, token: u64, plan: Option<ProbePlan>) -> Vec<DynAction> {
        let Some(idx) = self.awaiting.iter().position(|a| a.token == token) else {
            return Vec::new(); // unknown or duplicate attach
        };
        let a = self.awaiting.remove(idx);
        match plan {
            Some(mut plan) => {
                plan.rule_id = a.rule_id;
                vec![self.activate(now, a, plan)]
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

    /// The driver sent update `token`'s FlowMod as the `number`-th FlowMod
    /// to the switch (from 1, the driver's own FlowMods counted too), the
    /// number a claim covers ([`Self::on_claim`]).
    pub fn note_forwarded(&mut self, token: u64, number: u64) {
        let awaiting = self.awaiting.iter_mut().map(|a| (a.token, &mut a.claim));
        let mut claims = awaiting.chain(self.active.iter_mut().map(|a| (a.token, &mut a.claim)));
        if let Some((_, claim)) = claims.find(|(t, _)| *t == token) {
            claim.forwarded = Some(number);
        }
    }

    /// The switch claims it has processed the first `covered` FlowMods sent
    /// to it (the reply to a barrier sent after them). A claim is a hint,
    /// never proof: it confirms nothing. Each unconfirmed update it is the
    /// first to cover is probed once now — its earlier probes may all have
    /// met the old state — and re-probed `PROBE_INTERVAL` later; an update
    /// still awaiting its plan is probed when the plan lands. From the first
    /// claim on, silence counts only from an update's claim ([`Self::on_tick`]).
    pub fn on_claim(&mut self, now: u64, covered: u64) -> Vec<DynAction> {
        self.claims_heard = true;
        let newly = |c: &mut Claim| {
            let hit = c.at.is_none() && c.forwarded.is_some_and(|n| n <= covered);
            if hit {
                c.at = Some(now);
            }
            hit
        };
        for a in &mut self.awaiting {
            newly(&mut a.claim);
        }
        let mut actions = Vec::new();
        for a in &mut self.active {
            if newly(&mut a.claim) {
                a.attempts += 1;
                a.next_probe_at = now + PROBE_INTERVAL;
                let seq = take_seq(&mut self.next_seq);
                a.live_seqs.push(seq);
                actions.push(DynAction::Inject {
                    token: a.token,
                    seq,
                });
            }
        }
        actions
    }

    /// Periodic tick: re-inject probes for unconfirmed updates; confirm
    /// silence-based (negative-probed) updates whose window elapsed. Once
    /// claims flow, the window opens at an update's claim (an unclaimed
    /// update is never confirmed by silence), and an unclaimed update's
    /// re-probes back off: each gap doubles from `PROBE_INTERVAL`, capped at
    /// the window.
    pub fn on_tick(&mut self, now: u64) -> Vec<DynAction> {
        let mut actions = Vec::new();
        let max_attempts = self.cfg.max_attempts;
        let claims_heard = self.claims_heard;
        let mut alarmed: Vec<u64> = Vec::new();
        let mut silent_done: Vec<u64> = Vec::new();
        for a in &mut self.active {
            let quiet_since = match (claims_heard, a.claim.at) {
                (false, _) => Some(a.last_contrary.max(a.started)),
                (true, claimed) => claimed.map(|c| c.max(a.last_contrary).max(a.started)),
            };
            if a.silent_confirm
                && a.attempts >= 2
                && quiet_since.is_some_and(|t| now >= t + NEGATIVE_CONFIRM_WINDOW)
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
            a.next_probe_at = now
                + if claims_heard && a.claim.at.is_none() {
                    let doubled = PROBE_INTERVAL.saturating_mul(1 << (a.attempts - 1).min(63));
                    doubled.min(NEGATIVE_CONFIRM_WINDOW)
                } else {
                    PROBE_INTERVAL
                };
            let seq = take_seq(&mut self.next_seq);
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

    /// Starts every conflict-queued update whose conflicts have cleared, in
    /// queue order: one that overlaps an update still in flight, or one
    /// queued ahead of it that stays queued, waits (a released update
    /// re-enters via the awaiting set and requests its plan).
    fn release_queued(&mut self, now: u64) -> Vec<DynAction> {
        let mut actions = Vec::new();
        let mut requeue = VecDeque::new();
        while let Some((token, fm)) = self.queued.pop_front() {
            if self.conflicts(&fm, &requeue) {
                requeue.push_back((token, fm));
            } else {
                actions.extend(self.start_update(token, fm));
            }
        }
        self.queued = requeue;
        self.attach_planned(now, &mut actions);
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
    use crate::planner::{Answer, Replica};
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
        m.apply_expected(&FlowMod::add(1, Match::any(), vec![Action::Output(99)]))
            .unwrap();
        m
    }

    #[test]
    fn add_forwards_and_probes() {
        let mut m = monitor();
        let acts = m.on_flowmod(0, 1, add_fm(10, [10, 0, 0, 1], 2));
        assert!(matches!(acts[0], DynAction::Forward { .. }));
        assert!(matches!(acts[1], DynAction::Inject { token: 1, .. }));
        assert_eq!(m.in_flight(), 1);
        assert_eq!(m.expected().len(), 2);
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
        assert!(matches!(acts[0], DynAction::Forward { .. }));
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
        assert_eq!(m.expected().len(), 1);
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
        assert!(matches!(acts[0], DynAction::Forward { .. }));
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
        assert!(matches!(acts[0], DynAction::Forward { .. }));
        assert!(
            matches!(acts[1], DynAction::Inject { token: 7, .. }),
            "MODIFY-as-ADD must be probed like an install: {acts:?}"
        );
        assert_eq!(m.in_flight(), 1);
        assert_eq!(m.expected().len(), 2, "rule was added");
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
        assert_eq!(m.expected().len(), 2, "no second rule added");
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
        assert!(matches!(acts[0], DynAction::Forward { .. }));
        assert_eq!(
            acts[1],
            DynAction::Confirmed {
                token: 2,
                verified: false
            },
            "no-op strict delete acks optimistically instead of probing a survivor: {acts:?}"
        );
        assert_eq!(m.in_flight(), 0);
        assert_eq!(m.expected().len(), 2, "nothing was deleted");
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
        assert_eq!(m.expected().len(), 2, "queued fm not yet applied");
        // Confirm R1 -> R3 is released (forwarded + probed).
        let out = m.on_verdict(100, seq1, Verdict::Present);
        assert!(matches!(out[0], DynAction::Confirmed { token: 1, .. }));
        assert!(out.iter().any(|a| matches!(a, DynAction::Forward { .. })));
        assert_eq!(m.queued(), 0);
        assert_eq!(m.expected().len(), 3);
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
    fn an_update_waits_behind_a_queued_one_it_does_not_commute_with() {
        let mut m = monitor();
        let dst = |host: u8, plen: u8| Match::any().with_nw_dst([10, 0, 0, host], plen);
        let acts = m.on_flowmod(0, 1, add_fm(10, [10, 0, 0, 1], 2));
        let DynAction::Inject { seq, .. } = acts[1] else {
            panic!("{acts:?}")
        };
        // Behind the add in flight: a non-strict delete of its /24.
        let sweep = FlowMod {
            command: FlowModCommand::Delete,
            ..FlowMod::delete_strict(0, dst(0, 24))
        };
        assert!(m.on_flowmod(1, 2, sweep).is_empty());
        // Inside the /24, clear of the add in flight: an add the sweep must
        // not be overtaken by, then a strict delete of that very entry.
        assert!(m.on_flowmod(2, 3, add_fm(5, [10, 0, 0, 2], 3)).is_empty());
        assert!(m
            .on_flowmod(3, 4, FlowMod::delete_strict(5, dst(2, 32)))
            .is_empty());
        assert_eq!(m.queued(), 3);
        // Deletes commute with each other, and so do single-entry commands
        // naming different entries: this one overtakes the queue (it
        // removes nothing, so it is acked at once).
        let acts = m.on_flowmod(4, 5, FlowMod::delete_strict(9, dst(4, 32)));
        assert_eq!(
            acts[1],
            DynAction::Confirmed {
                token: 5,
                verified: false
            }
        );
        assert_eq!(m.queued(), 3);
        // Drain, confirming everything: the table ends as the script in
        // order leaves it — the sweep took the first add, the strict delete
        // the second.
        let mut log = m.on_verdict(5, seq, Verdict::Present);
        let mut answered = 0;
        while answered < log.len() {
            if let DynAction::Inject { seq, .. } = log[answered] {
                for v in [Verdict::Present, Verdict::Absent] {
                    let out = m.on_verdict(6, seq, v);
                    log.extend(out);
                }
            }
            answered += 1;
        }
        assert_eq!((m.in_flight(), m.queued(), m.awaiting_plans()), (0, 0, 0));
        let prios: Vec<u16> = m.expected().rules().iter().map(|r| r.priority).collect();
        assert_eq!(prios, [1], "{log:?}");
    }

    #[test]
    fn unmonitorable_update_acked_optimistically() {
        let mut m = DynamicMonitor::new(DynamicConfig::default(), CatchSpec::default());
        // Empty table: adding a rule whose presence is indistinguishable
        // from a table miss (drop rule over drop-by-miss).
        let fm = FlowMod::add(10, Match::any().with_tp_dst(23), vec![]);
        let acts = m.on_flowmod(0, 9, fm);
        assert!(matches!(acts[0], DynAction::Forward { .. }));
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

    /// A deferred planner: replays `steps` on `replica` (begun by the
    /// stream's [`Step::Start`]) and returns its answers, in order.
    fn replay(replica: &mut Option<Replica>, steps: Vec<Step>) -> Vec<(u64, Option<ProbePlan>)> {
        let mut answers = Vec::new();
        for step in steps {
            if let Some(Answer::Plan { token, plan }) = Replica::step(replica, step) {
                answers.push((token, plan.ok()));
            }
        }
        answers
    }

    /// A deferred monitor with one confirmed add (10.0.0.1/32 → port 2)
    /// over the default route, and the replica planning for it.
    fn deferred_with_one_rule() -> (DynamicMonitor, Option<Replica>) {
        let mut m = monitor();
        m.set_deferred_planning(true);
        let mut replica = None;
        m.on_flowmod(0, 1, add_fm(10, [10, 0, 0, 1], 2));
        let answers = replay(&mut replica, m.take_plan_steps());
        let acts = m.attach_plan(1, 1, answers[0].1.clone());
        let DynAction::Inject { seq, .. } = acts[0] else {
            panic!("{acts:?}")
        };
        m.on_verdict(2, seq, Verdict::Present);
        (m, replica)
    }

    #[test]
    fn deferred_add_roundtrip() {
        let mut m = monitor();
        m.set_deferred_planning(true);
        let acts = m.on_flowmod(0, 1, add_fm(10, [10, 0, 0, 1], 2));
        // Forward only — the probe is not planned yet.
        assert_eq!(acts.len(), 1);
        assert!(matches!(acts[0], DynAction::Forward { .. }));
        assert_eq!(m.awaiting_plans(), 1);
        assert_eq!(m.in_flight(), 0);
        let steps = m.take_plan_steps();
        // The stream begins with the table deferral found (the default
        // route); the add's request follows its FlowMod.
        let [Step::Start { table, .. }, Step::Apply(fm), Step::Plan {
            token: 1,
            rule_id,
            kind: PlanKind::Present,
        }] = &steps[..]
        else {
            panic!("{steps:?}")
        };
        assert_eq!(table.len(), 1);
        assert_eq!(fm.command, FlowModCommand::Add);
        assert_eq!(m.expected().get(*rule_id).unwrap().priority, 10);
        let mut replica = None;
        let answers = replay(&mut replica, steps);
        assert_eq!(answers.len(), 1);
        let acts = m.attach_plan(50, 1, answers[0].1.clone());
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
        let (mut m, mut replica) = deferred_with_one_rule();
        // A disjoint bystander, installed the way every change is.
        let bystander = FlowMod::add(10, Match::any().with_nw_dst([10, 0, 0, 2], 32), vec![]);
        m.apply_expected(&bystander).unwrap();
        let victim = m.expected().rules()[0].id;
        let del = FlowMod::delete_strict(10, Match::any().with_nw_dst([10, 0, 0, 1], 32));
        m.on_flowmod(10, 2, del);
        assert_eq!(m.expected().len(), 2, "delta applied immediately");
        let steps = m.take_plan_steps();
        // The victim's request comes before the delete: the replica still
        // holds the victim when it plans the probe for its absence.
        assert!(
            matches!(&steps[..], [Step::Apply(b), Step::Plan {
                token: 2,
                rule_id,
                kind: PlanKind::Absent,
            }, Step::Apply(d)] if *b == bystander && *rule_id == victim
                && d.command == FlowModCommand::DeleteStrict),
            "{steps:?}"
        );
        let answers = replay(&mut replica, steps);
        let replica = replica.unwrap();
        assert_eq!(replica.table.rules(), m.expected().rules());
        let acts = m.attach_plan(20, 2, answers[0].1.clone());
        let DynAction::Inject { seq, .. } = acts[0] else {
            panic!("{acts:?}")
        };
        assert_eq!(m.plan_for_seq(seq).unwrap().rule_id, victim);
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
        let (mut m, mut replica) = deferred_with_one_rule();
        let fm = FlowMod::modify_strict(
            10,
            Match::any().with_nw_dst([10, 0, 0, 1], 32),
            vec![Action::Output(5)],
        );
        m.on_flowmod(10, 2, fm);
        let steps = m.take_plan_steps();
        let [Step::Apply(applied), Step::Plan {
            token: 2,
            rule_id,
            kind: PlanKind::Modify { old },
        }] = &steps[..]
        else {
            panic!("{steps:?}")
        };
        assert_eq!(applied.command, FlowModCommand::ModifyStrict);
        assert_eq!(old.actions, vec![Action::Output(2)], "the version replaced");
        assert_eq!(*rule_id, old.id, "a modify keeps its rule's id");
        let real_id = *rule_id;
        let answers = replay(&mut replica, steps);
        let plan = answers[0]
            .1
            .clone()
            .expect("old port 2 vs new port 5 distinguishable");
        assert_ne!(plan.rule_id, real_id, "an id of the renumbered §4.1 table");
        let acts = m.attach_plan(20, 2, Some(plan));
        let DynAction::Inject { seq, .. } = acts[0] else {
            panic!("{acts:?}")
        };
        // The attached plan was pointed at the real table's rule.
        assert_eq!(m.plan_for_seq(seq).unwrap().rule_id, real_id);
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
        assert!(acts.iter().any(|a| matches!(a, DynAction::Forward { .. })));
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
            m.apply_expected(&FlowMod::add(
                10,
                Match::any().with_nw_dst(dst, 32),
                vec![Action::Output(2)],
            ))
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
            let (tern, modify) = (
                fm.match_.ternary(),
                fm.command == FlowModCommand::ModifyStrict,
            );
            assert_eq!(m.expected().overlapping(&tern).len(), overlap_before);
            m.on_flowmod(0, token as u64, fm);
            let reqs = m.take_plan_requests();
            assert_eq!(reqs.len(), 1);
            let req = &reqs[0];
            assert_eq!(req.table.len(), 2, "victim/new rule + one neighbor");
            if modify {
                let prios: Vec<u16> = req.table.rules().iter().map(|r| r.priority).collect();
                assert_eq!(
                    prios,
                    [10, 9],
                    "the new version over the old, nothing below"
                );
            }
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
        assert_eq!(m.expected().len(), 2001);
    }

    /// A deterministic random script, driven through a deferred monitor and
    /// a replica that follows it, with a burst of confirmations every few
    /// updates.
    fn random_flowmod(rng: &mut u64) -> FlowMod {
        let mut draw = |n: u64| {
            *rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*rng >> 33) % n
        };
        let command = [
            FlowModCommand::Add,
            FlowModCommand::Add,
            FlowModCommand::Modify,
            FlowModCommand::ModifyStrict,
            FlowModCommand::Delete,
            FlowModCommand::DeleteStrict,
        ][draw(6) as usize];
        let dst = [10, draw(2) as u8, draw(4) as u8, draw(4) as u8];
        let m = Match::any().with_nw_dst(dst, [16, 24, 32][draw(3) as usize]);
        let actions = vec![Action::Output(1 + draw(4) as u16)];
        FlowMod {
            command,
            ..FlowMod::add(2 + draw(4) as u16, m, actions)
        }
    }

    /// Answers every outstanding injection with both verdicts (one of
    /// them confirms) until the monitor goes quiet, planning whatever
    /// the confirmations release.
    fn confirm_all(
        m: &mut DynamicMonitor,
        planner: &mut Option<Replica>,
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
                    settle(m, planner, log, 5);
                }
            }
        }
    }

    /// The transport driver's half of the deferred contract, run
    /// synchronously: replay the monitor's steps on the replica, in
    /// order, attach the answers, and go again for whatever the
    /// attaches released. Inline mode records no steps.
    fn settle(
        m: &mut DynamicMonitor,
        planner: &mut Option<Replica>,
        log: &mut Vec<DynAction>,
        now: u64,
    ) {
        loop {
            let steps = m.take_plan_steps();
            if steps.is_empty() {
                return;
            }
            for (token, plan) in replay(planner, steps) {
                log.extend(m.attach_plan(now, token, plan));
            }
        }
    }

    #[test]
    fn a_replica_follows_a_long_script_on_one_full_sync() {
        let mut m = monitor();
        m.set_deferred_planning(true);
        let mut replica = None;
        let (mut rng, mut log, mut answered) = (7u64, Vec::new(), 0);
        for token in 0..3000u64 {
            log.extend(m.on_flowmod(1, token, random_flowmod(&mut rng)));
            settle(&mut m, &mut replica, &mut log, 1);
            if token % 4 == 3 {
                confirm_all(&mut m, &mut replica, &mut log, &mut answered);
            }
        }
        confirm_all(&mut m, &mut replica, &mut log, &mut answered);
        assert_eq!((m.in_flight(), m.queued(), m.awaiting_plans()), (0, 0, 0));
        let replica = replica.unwrap();
        assert_eq!(replica.table.rules(), m.expected().rules());
        let planned = replica.engine.stats().cache_hits + replica.engine.stats().cache_misses;
        assert!(planned > 1000, "{planned} plans");
        let stats = replica.engine.engine_stats();
        assert_eq!(
            (stats.syncs_full, stats.syncs_fallback),
            (1, 0),
            "{stats:?}"
        );
    }

    mod props {
        use super::*;
        use crate::generator::generate_probe;
        use crate::plan::verify_probe;
        use crate::planner::build_synthetic;
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

        /// Every command, strict and not: over the small space ADDs replace,
        /// MODIFYs that hit nothing add, and non-strict ones sweep several
        /// rules.
        fn arb_flowmod() -> impl Strategy<Value = FlowMod> {
            let command = prop_oneof![
                2 => Just(FlowModCommand::Add),
                1 => Just(FlowModCommand::Modify),
                1 => Just(FlowModCommand::ModifyStrict),
                1 => Just(FlowModCommand::Delete),
                1 => Just(FlowModCommand::DeleteStrict),
            ];
            (command, 2u16..6, arb_match(), arb_actions()).prop_map(|(command, prio, m, a)| {
                FlowMod {
                    command,
                    ..FlowMod::add(prio, m, a)
                }
            })
        }

        /// The rules of a table as content, ids and insertion order aside.
        fn content(rules: &[Rule]) -> Vec<String> {
            let mut v: Vec<String> = rules
                .iter()
                .map(|r| format!("{} {:?} {:?}", r.priority, r.match_, r.actions))
                .collect();
            v.sort();
            v
        }

        fn run_script(script: &[FlowMod], defer: bool) -> (Vec<DynAction>, Vec<Rule>) {
            let mut m = monitor();
            m.set_deferred_planning(defer);
            let mut planner = None;
            let (mut log, mut answered) = (Vec::new(), 0);
            for (i, fm) in script.iter().enumerate() {
                log.extend(m.on_flowmod(1, i as u64, fm.clone()));
                settle(&mut m, &mut planner, &mut log, 1);
                // Confirm in bursts, so overlapping updates queue in between.
                if i % 3 == 2 {
                    confirm_all(&mut m, &mut planner, &mut log, &mut answered);
                }
            }
            confirm_all(&mut m, &mut planner, &mut log, &mut answered);
            assert_eq!((m.in_flight(), m.queued(), m.awaiting_plans()), (0, 0, 0));
            (log, m.expected().rules().to_vec())
        }

        /// The same script with attempts capped and some probes lost for
        /// good: ticks re-probe, and an update whose probes all go missing
        /// alarms. Runs until nothing is left in flight.
        fn run_lossy(
            script: &[FlowMod],
            losses: &[bool],
            defer: bool,
        ) -> (Vec<DynAction>, (usize, usize, usize)) {
            let cfg = DynamicConfig {
                max_attempts: 3,
                ..DynamicConfig::default()
            };
            let mut m = DynamicMonitor::new(cfg, CatchSpec::default());
            m.apply_expected(&FlowMod::add(1, Match::any(), vec![Action::Output(99)]))
                .unwrap();
            m.set_deferred_planning(defer);
            let mut planner = None;
            let (mut log, mut answered, mut now) = (Vec::new(), 0, 0);
            let mut lost = losses.iter().cycle();
            for (i, fm) in script.iter().enumerate() {
                log.extend(m.on_flowmod(now, i as u64, fm.clone()));
                settle(&mut m, &mut planner, &mut log, now);
            }
            for _ in 0..500 {
                while answered < log.len() {
                    let action = log[answered].clone();
                    answered += 1;
                    let DynAction::Inject { seq, .. } = action else {
                        continue;
                    };
                    if *lost.next().unwrap() {
                        continue;
                    }
                    for v in [Verdict::Present, Verdict::Absent] {
                        log.extend(m.on_verdict(now, seq, v));
                        settle(&mut m, &mut planner, &mut log, now);
                    }
                }
                if (m.in_flight(), m.queued(), m.awaiting_plans()) == (0, 0, 0) {
                    break;
                }
                now += 1_000_000;
                log.extend(m.on_tick(now));
                settle(&mut m, &mut planner, &mut log, now);
            }
            (log, (m.in_flight(), m.queued(), m.awaiting_plans()))
        }

        /// One step of a mirror script: a controller update, one of
        /// Monocle's own FlowMods (a preinstall or a drop-postponing
        /// finalizer), deferral switched on, probes answered, a tick.
        #[derive(Debug, Clone)]
        enum Op {
            Update(FlowMod),
            Own(FlowMod),
            Defer,
            Answer,
            Tick,
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            // Applies that fail: actions that do not compile, or an overlap
            // the ADD asked to be checked.
            let failing = (arb_flowmod(), any::<bool>()).prop_map(|(fm, bad_actions)| {
                if bad_actions {
                    FlowMod {
                        actions: vec![Action::SelectOutput(vec![])],
                        ..fm
                    }
                } else {
                    FlowMod {
                        command: FlowModCommand::Add,
                        check_overlap: true,
                        ..fm
                    }
                }
            });
            prop_oneof![
                6 => arb_flowmod().prop_map(Op::Update),
                1 => failing.prop_map(Op::Update),
                1 => (2u16..6, arb_match())
                    .prop_map(|(p, m)| Op::Own(FlowMod::add(p, m, vec![Action::Output(9)]))),
                1 => (2u16..6, arb_match())
                    .prop_map(|(p, m)| Op::Own(FlowMod::modify_strict(p, m, vec![]))),
                1 => Just(Op::Defer),
                2 => Just(Op::Answer),
                1 => Just(Op::Tick),
            ]
        }

        /// [`settle`] with every plan step checked on the way: the replica
        /// answers it, a stateless planner answers the same step's
        /// [`PlanRequest`] built on a table-only replica, and the two must
        /// agree on found / not found and the error class; a replica plan
        /// must verify, with the outcomes it promises, on the table it was
        /// planned on — the full expected table at that point of the
        /// stream, or the full §4.1 construction over it. After the steps,
        /// replica and expected table are the same table.
        fn settle_checked(
            m: &mut DynamicMonitor,
            replica: &mut Option<Replica>,
            requests: &mut FlowTable,
            log: &mut Vec<DynAction>,
            now: u64,
        ) -> Result<(), TestCaseError> {
            let (catch, gen) = (CatchSpec::default(), GeneratorConfig::default());
            loop {
                let steps = m.take_plan_steps();
                if steps.is_empty() {
                    break;
                }
                let mut answers = Vec::new();
                for step in steps {
                    match step {
                        Step::Start { ref table, .. } => {
                            *requests = table.clone();
                            Replica::step(replica, step);
                        }
                        Step::Apply(ref fm) => {
                            let _ = requests.apply(fm);
                            Replica::step(replica, step);
                        }
                        Step::Refresh { .. } => unreachable!("no steady refresh here"),
                        Step::Plan {
                            token,
                            rule_id,
                            ref kind,
                        } => {
                            let (table, id) = planner::request_table(requests, rule_id, kind);
                            let reference = generate_probe(&table, id, &catch, &gen);
                            let kind = kind.clone();
                            let Some(Answer::Plan { plan: mirror, .. }) =
                                Replica::step(replica, step)
                            else {
                                panic!("a plan step is answered with a plan");
                            };
                            let r = replica.as_ref().unwrap();
                            prop_assert_eq!(mirror.as_ref().err(), reference.as_ref().err());
                            if let Ok(plan) = &mirror {
                                let oracle = match &kind {
                                    PlanKind::Modify { old } => {
                                        let (full, id) = build_synthetic(&r.table, old).unwrap();
                                        verify_probe(&full, id, &plan.header, &catch.all_pins())
                                    }
                                    _ => verify_probe(
                                        &r.table,
                                        rule_id,
                                        &plan.header,
                                        &catch.all_pins(),
                                    ),
                                };
                                prop_assert_eq!(
                                    oracle,
                                    Some((plan.present.clone(), plan.absent.clone()))
                                );
                            }
                            answers.push((token, mirror.ok()));
                        }
                    }
                }
                for (token, plan) in answers {
                    log.extend(m.attach_plan(now, token, plan));
                }
            }
            if let Some(r) = replica {
                let expected = m.expected();
                prop_assert_eq!(r.table.rules(), expected.rules());
                prop_assert_eq!(r.table.fingerprint(), expected.fingerprint());
                prop_assert_eq!(requests.rules(), expected.rules());
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Inline planning is the deferred contract plus a synchronous
            /// planner: the same FlowMod script yields the same action
            /// sequence (and expected table) in both modes, the deferred
            /// plans coming from a replica of the expected table. And §4.2
            /// queueing keeps the script's order where it matters: the final
            /// table holds what applying the script in order gives.
            #[test]
            fn inline_and_deferred_emit_the_same_actions(
                script in prop::collection::vec(arb_flowmod(), 1..16)
            ) {
                let (inline_log, inline_table) = run_script(&script, false);
                let (deferred_log, deferred_table) = run_script(&script, true);
                prop_assert_eq!(inline_log, deferred_log);
                prop_assert_eq!(&inline_table, &deferred_table);
                let mut model = monitor().expected().clone();
                for fm in &script {
                    let _ = model.apply(fm);
                }
                prop_assert_eq!(content(&inline_table), content(model.rules()));
            }

            /// Verified, optimistic or alarmed, every update finishes: with
            /// attempts capped and some probes never answered, the monitor
            /// drains to nothing in flight, queued or awaiting a plan, and
            /// every update is answered exactly once — in both modes, with
            /// the same actions.
            #[test]
            fn updates_drain_with_lost_probes(
                script in prop::collection::vec(arb_flowmod(), 1..16),
                losses in prop::collection::vec(any::<bool>(), 1..8),
            ) {
                let (inline_log, inline_left) = run_lossy(&script, &losses, false);
                let (deferred_log, deferred_left) = run_lossy(&script, &losses, true);
                prop_assert_eq!(inline_left, (0, 0, 0));
                prop_assert_eq!(deferred_left, (0, 0, 0));
                for token in 0..script.len() as u64 {
                    let ends = inline_log
                        .iter()
                        .filter(|a| matches!(a, DynAction::Confirmed { token: t, .. } | DynAction::Alarm { token: t } if *t == token))
                        .count();
                    prop_assert_eq!(ends, 1, "update {} answered {} times", token, ends);
                }
                prop_assert_eq!(inline_log, deferred_log);
            }

            /// The mirror holds: over scripts of every command, failed
            /// applies, Monocle's own FlowMods and deferral switched on
            /// partway, a replica fed the steps is the expected table, its
            /// plans agree with stateless planning on the reference
            /// requests and verify on the full table — and its engine never
            /// re-reads the whole table after the first time.
            #[test]
            fn a_replica_mirrors_the_expected_table_and_plans_on_it(
                ops in prop::collection::vec(arb_op(), 1..40)
            ) {
                let mut m = monitor();
                let (mut replica, mut requests) = (None, FlowTable::new());
                let (mut log, mut answered, mut now) = (Vec::new(), 0, 0);
                for (i, op) in ops.into_iter().enumerate() {
                    match op {
                        Op::Update(fm) => log.extend(m.on_flowmod(now, i as u64, fm)),
                        Op::Own(fm) => {
                            let _ = m.apply_expected(&fm);
                        }
                        Op::Defer => m.set_deferred_planning(true),
                        Op::Answer => {
                            while answered < log.len() {
                                let action = log[answered].clone();
                                answered += 1;
                                if let DynAction::Inject { seq, .. } = action {
                                    for v in [Verdict::Present, Verdict::Absent] {
                                        log.extend(m.on_verdict(now, seq, v));
                                        settle_checked(&mut m, &mut replica, &mut requests, &mut log, now)?;
                                    }
                                }
                            }
                        }
                        Op::Tick => {
                            now += 3_000_000;
                            log.extend(m.on_tick(now));
                        }
                    }
                    settle_checked(&mut m, &mut replica, &mut requests, &mut log, now)?;
                }
                if let Some(r) = &replica {
                    let stats = r.engine.engine_stats();
                    prop_assert!(stats.syncs_full <= 1 && stats.syncs_fallback == 0, "{:?}", stats);
                }
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
                let (small, small_id) = build_synthetic(&nb, &old).unwrap();
                let (full, full_id) = build_synthetic(&table, &old).unwrap();
                prop_assert!(small.len() <= full.len());
                let (catch, gen) = (CatchSpec::default(), GeneratorConfig::default());
                let on_small = generate_probe(&small, small_id, &catch, &gen);
                let on_full = generate_probe(&full, full_id, &catch, &gen);
                prop_assert_eq!(on_small.is_ok(), on_full.is_ok(), "{:?} vs {:?}", on_small, on_full);
                if let Ok(plan) = on_small {
                    let oracle = verify_probe(&full, full_id, &plan.header, &[]);
                    prop_assert_eq!(oracle, Some((plan.present, plan.absent)));
                }
            }
        }
    }

    /// Probes sent for one update no claim covers, ticking every ms for
    /// 60 ms with no answer (2 ms interval, 12 ms window).
    fn probes_of_an_unclaimed_update(claims_flow: bool) -> usize {
        let mut m = monitor();
        if claims_flow {
            assert!(m.on_claim(0, 0).is_empty(), "a claim covering nothing");
        }
        let mut acts = m.on_flowmod(0, 1, add_fm(10, [10, 0, 0, 1], 2));
        for ms in 1..=60u64 {
            acts.extend(m.on_tick(ms * 1_000_000));
        }
        let injects = acts
            .iter()
            .filter(|a| matches!(a, DynAction::Inject { .. }));
        injects.count()
    }

    #[test]
    fn an_unclaimed_update_backs_off_once_claims_flow() {
        // On the clock alone: the first probe, then one every 2 ms.
        assert_eq!(probes_of_an_unclaimed_update(false), 31);
        // Gaps 2, 4, 8, 12, 12, 12 ms: probes at 0, 2, 6, 14, 26, 38, 50.
        assert_eq!(probes_of_an_unclaimed_update(true), 7);
    }

    #[test]
    fn alarm_after_attempt_budget() {
        let cfg = DynamicConfig {
            max_attempts: 3,
            ..DynamicConfig::default()
        };
        let mut m = DynamicMonitor::new(cfg, CatchSpec::default());
        m.apply_expected(&FlowMod::add(1, Match::any(), vec![Action::Output(99)]))
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
        m.apply_expected(&FlowMod::add(1, Match::any(), vec![Action::Output(99)]))
            .unwrap();
        m.set_deferred_planning(true);
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
            acts.iter().any(|x| matches!(x, DynAction::Forward { .. })),
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
