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
//!   warm planner, to which the monitor hands every piece of planning work
//!   as a [`Step`] through one funnel: inline, the monitor answers it at once
//!   on its expected table with its own engine; deferred, whoever replays the
//!   steps on a [`crate::planner::Replica`] of their own answers it later;
//! * §4.2 — concurrent updates: probes for non-overlapping updates proceed
//!   in parallel; an update overlapping one in flight is queued until the
//!   conflict clears (the paper's implementation policy), and so is one
//!   overlapping a queued update it does not commute with, so that no update
//!   overtakes another whose result it would change. Each update's match is
//!   compiled to its ternary once, as it arrives, and kept while the update
//!   is queued and started: those ternaries are what the checks compare;
//! * transient-inconsistency tolerance: a probe observing the "old" state
//!   does not raise an alarm, it just keeps probing (§4.1);
//! * the switch's own refusals: an update whose FlowMod the switch rejects
//!   ends with an alarm, as one still unconfirmed past its
//!   [`UPDATE_DEADLINE`] does (`DynamicMonitor::on_rejected`);
//! * the switch's own claims: a driver that follows its FlowMods with a
//!   barrier tells the monitor when the switch says they are processed
//!   (`DynamicMonitor::on_claim`). A claim is a hint, never proof — some
//!   switches answer barriers before the commit (\[16\]) — but a truthful
//!   one says exactly when a probe can first succeed. Every update has one
//!   claim: the switch's, where claims flow, or its own start, in a driver
//!   that reports none. An update is probed when its plan lands and once at
//!   its claim; §3.3 silence counts from the claim too, so an update no
//!   claim covers yet is neither re-probed nor confirmed by silence;
//! * closed-loop probing: the monitor keeps an RFC 6298 estimate of its
//!   switch's probe round trip (SRTT and RTTVAR, from each probe's injection
//!   to its return) and times its probes out after `T = max(2 ms, SRTT +
//!   4·RTTVAR)`, or 6 ms before the first return. After its claim an update
//!   has one probe outstanding: the next goes once the last has returned
//!   with the old state or timed out, and never sooner than `T` after it was
//!   sent, so a switch whose returns lag is probed less often; while its
//!   probes keep timing out, the wait doubles (RFC 6298 §5.5), so one stays
//!   live until its late return comes back. An update confirmed by a drop
//!   is confirmed by silence once its two live probes, both sent since
//!   silence started counting, have each gone `T` unanswered — at its
//!   claim plus `2·T` when nothing contradicts it.
//!
//! ## What reaches the switch, and in which order
//!
//! The monitor owns every FlowMod sent to its switch: a controller update's
//! as the update starts, a §4.3 drop-postponing finalizer as its update
//! confirms, and Monocle's own rules (`DynamicMonitor::apply_own`). Each
//! is applied to the expected table (and recorded for a deferred planner),
//! numbered (`DynamicMonitor::flowmods_sent`) and emitted as
//! [`ProxyOutput::ToSwitch`] in one step, so the switch, the expected table
//! and the planner's replica see one order. A confirmation emits the
//! update's finalizer, then its [`ProxyOutput::Confirmed`], then whatever it
//! released from the §4.2 queue. Probes go out as [`ProxyOutput::Inject`],
//! built where the plan is in hand, and their returns are judged against
//! that plan here (`DynamicMonitor::on_probe_return`). The outputs are
//! the proxy's own: `MonitorProxy` passes them on unchanged.
//!
//! A call's own outputs come first, then the probes (or optimistic acks) of
//! the updates it started, in request order: an update's plan, inline or
//! deferred, is handed back only after the call that asked for it
//! (`DynamicMonitor::attach_plan`), so a tick that confirms several updates
//! puts out every confirmation before the first probe of an update they
//! released. Inline, `MonitorProxy` hands the answers back at the end of
//! each call (`attach_answers`); deferred, the transport does as its
//! planner answers. The two put out one order.

use crate::encode::CatchSpec;
use crate::engine::ProbeEngine;
use crate::plan::{take_seq, ProbePlan, Verdict};
use crate::planner::{self, Answer, PlanKind, Step};
use crate::proxy::{ProbeInjection, ProxyOutput};
use monocle_openflow::table::ApplyResult;
use monocle_openflow::{
    FlowMod, FlowModCommand, FlowTable, PortNo, Rule, RuleId, TableError, Ternary,
};
use monocle_packet::PacketFields;
use std::collections::VecDeque;

/// The probe timeout before the switch's first probe returns, ns: silence
/// on a switch the monitor knows nothing about takes 12 ms from the claim.
const FIRST_TIMEOUT: u64 = 6_000_000;
/// The least probe timeout, ns, however fast the switch answers.
const MIN_TIMEOUT: u64 = 2_000_000;
/// How long an update may stay unfinished after its claim, ns: one neither
/// confirmed nor alarmed by then ends with an alarm (§4). It is over four
/// times the longest claim-to-ack measured over loopback TCP (2.15 s, in the
/// 64-switch row of a `transport_loopback --updates 300` sweep). An update
/// lives at most this long after its claim, so its wait between probes
/// doubles at most log2(`UPDATE_DEADLINE` / `MIN_TIMEOUT`) + 1 times.
pub const UPDATE_DEADLINE: u64 = 10_000_000_000;

/// The switch's probe round trip, estimated as RFC 6298 does a TCP
/// connection's (α = 1/8, β = 1/4), in ns, from each dynamic probe's
/// injection to its return.
#[derive(Debug, Default)]
struct RoundTrip {
    /// Smoothed round trip (SRTT).
    srtt: u64,
    /// Round-trip variation (RTTVAR).
    rttvar: u64,
    /// Returns sampled so far.
    samples: u64,
}

impl RoundTrip {
    fn sample(&mut self, rtt: u64) {
        if self.samples == 0 {
            (self.srtt, self.rttvar) = (rtt, rtt / 2);
        } else {
            self.rttvar = (3 * self.rttvar + self.srtt.abs_diff(rtt)) / 4;
            self.srtt = (7 * self.srtt + rtt) / 8;
        }
        self.samples += 1;
    }

    /// The probe timeout `T`: how long a probe may go unanswered before the
    /// next one goes, and before its silence counts (§3.3).
    fn timeout(&self) -> u64 {
        match self.samples {
            0 => FIRST_TIMEOUT,
            _ => (self.srtt + 4 * self.rttvar).max(MIN_TIMEOUT),
        }
    }
}

/// One of an update's live probes.
#[derive(Debug, Clone, Copy)]
struct Sent {
    seq: u32,
    /// When it was injected.
    at: u64,
    /// Whether it has come back (with any verdict).
    answered: bool,
}

/// A [`Step::Plan`] in the form a stateless planner takes: the table to plan
/// on and the rule to probe in it, for update `token`
/// ([`crate::proxy::MonitorProxy::take_plan_requests`]).
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
/// ([`crate::proxy::MonitorProxy::attach_plan`] points the plan back at the
/// update's rule).
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

/// A controller update not started yet: just arrived, or conflict-queued
/// (§4.2) behind an earlier one.
#[derive(Debug)]
pub(crate) struct Queued {
    token: u64,
    fm: FlowMod,
    /// Its FlowMod's match, compiled once as it arrived
    /// ([`DynamicMonitor::on_flowmod`]): what the §4.2 checks compare, and
    /// what its [`Update`] keeps once it starts.
    tern: Ternary,
    /// §4.3: the FlowMod that turns its stand-in into the real drop, sent
    /// when it confirms.
    finalize: Option<FlowMod>,
}

/// One started update, from its FlowMod's forward to its confirmation or
/// alarm: awaiting its plan while `plan` is `None`, actively probed after.
/// Awaiting or probed, it takes part in §4.2 conflict queueing.
#[derive(Debug)]
struct Update {
    token: u64,
    /// Its FlowMod's match as compiled on arrival: what a later update's
    /// §4.2 check compares ([`DynamicMonitor::conflicts`]).
    tern: Ternary,
    /// The verdict that confirms it (Present for add/modify, Absent for
    /// delete).
    confirm_on: Verdict,
    /// The expected table's rule it is proven by; the attached plan is
    /// pointed at it (a §4.1 modify plan carries the construction's id).
    rule_id: RuleId,
    /// §4.3: the FlowMod that turns its stand-in into the real drop.
    finalize: Option<FlowMod>,
    /// Its FlowMod's number among those sent to the switch, from 1: what a
    /// claim covers ([`DynamicMonitor::on_claim`]).
    forwarded: u64,
    /// When it was claimed, `None` until then; its deadline is
    /// [`UPDATE_DEADLINE`] later. In a driver that reports no claims it is
    /// claimed as it starts.
    claimed: Option<u64>,
    /// Once it is claimed, when §3.3 silence started counting: the latest of
    /// its claim, its plan's landing and its last contrary verdict.
    quiet_since: u64,
    plan: Option<ProbePlan>,
    /// Its last two probes, oldest first: the ones whose returns are still
    /// judged.
    live: Vec<Sent>,
    /// How many clock probes in a row went out while the one before was
    /// unanswered: the next waits `T · 2^backoff` after the last (RFC 6298
    /// §5.5), so a probe whose return lags several timeouts is still live
    /// when it comes back.
    backoff: u32,
}

impl Update {
    /// Whether the confirming outcome is a drop: confirmation is then
    /// silence-based (§3.3 negative probing).
    fn silent_confirm(&self) -> bool {
        match (&self.plan, self.confirm_on) {
            (Some(plan), Verdict::Present) => plan.present.is_drop(),
            (Some(plan), Verdict::Absent) => plan.absent.is_drop(),
            _ => false,
        }
    }

    /// Whether probe `seq` is one of its live ones.
    fn is_live(&self, seq: u32) -> bool {
        self.live.iter().any(|s| s.seq == seq)
    }

    /// §3.3: whether silence confirms it at `now` under probe timeout `t`.
    /// Its confirming outcome is a drop, and its two live probes were both
    /// sent since silence started counting and have each gone `t`
    /// unanswered.
    fn quiet(&self, now: u64, t: u64) -> bool {
        self.silent_confirm()
            && self.live.len() == 2
            && self
                .live
                .iter()
                .all(|s| !s.answered && s.at >= self.quiet_since && now >= s.at + t)
    }

    /// One more probe of its plan, sent at `now` under a fresh sequence
    /// number; its oldest live probe, if it had two, is given up.
    fn probe(&mut self, now: u64, switch_id: u64, next_seq: &mut u32) -> ProxyOutput {
        let seq = take_seq(next_seq);
        if self.live.len() == 2 {
            self.live.remove(0);
        }
        self.live.push(Sent {
            seq,
            at: now,
            answered: false,
        });
        let plan = self.plan.as_ref().expect("a probed update has its plan");
        ProxyOutput::Inject(ProbeInjection::new(switch_id, plan, seq))
    }
}

/// The per-switch dynamic monitor: the expected table, the catch pins, and
/// — planning inline — the one [`ProbeEngine`] that plans on them, every
/// update's probe and every steady refresh of the proxy. Deferred, it keeps
/// the table and the pins but no engine: the switch's planner, replaying its
/// [`Step`]s on a [`crate::planner::Replica`], holds the only one. Which of
/// the two it is, only its one funnel for planning work asks.
#[derive(Debug)]
pub(crate) struct DynamicMonitor {
    /// The switch's datapath id, stamped into every probe.
    switch_id: u64,
    /// The expected table.
    pub(crate) table: FlowTable,
    /// The collection pins every probe of this switch carries.
    pub(crate) catch: CatchSpec,
    /// Inline planning: the engine on `table`. `None`: deferred
    /// planning, the work recorded as [`Step`]s for an external planner.
    pub(crate) engine: Option<ProbeEngine>,
    /// The started, unfinished updates, one record each, in start order.
    updates: Vec<Update>,
    /// The conflict-queued updates (§4.2), in arrival order.
    pub(crate) queued: VecDeque<Queued>,
    /// The next probe's sequence number, below
    /// [`crate::plan::STEADY_SEQ_BIT`] ([`take_seq`]).
    pub(crate) next_seq: u32,
    /// FlowMods emitted so far (see [`Self::flowmods_sent`]).
    flowmods_sent: u64,
    /// Deferred mode: the steps recorded since the last take.
    steps: Vec<Step>,
    /// Inline mode: the plans answered, by update, not handed back yet, in
    /// request order.
    answers: VecDeque<(u64, Option<ProbePlan>)>,
    /// The controller updates' FlowMods no claim has covered yet, as
    /// `(number, token)` in number order: a switch rejects a FlowMod before
    /// it answers a later barrier, so these are the ones a rejection can
    /// name ([`Self::on_rejected`]). Empty in a driver that reports no
    /// claims (and so no rejections either).
    unclaimed: VecDeque<(u64, u64)>,
    /// [`Self::take_plan_requests`]' replica of the expected table (table
    /// only: it builds requests, it plans nothing).
    request_replica: FlowTable,
    /// Rules added or modified by updates started since the last
    /// [`Self::take_touched_rules`].
    touched: Vec<RuleId>,
    /// A claim has been heard ([`Self::on_claim`]): the driver reports
    /// claims, so an update starts unclaimed and waits for the switch's.
    /// Read as an update starts ([`Self::start_update`]), and by the first
    /// claim, which must come before any FlowMod.
    claims_heard: bool,
    /// The switch's probe round trip, which sets the probe timeout.
    rtt: RoundTrip,
}

impl DynamicMonitor {
    /// Creates the monitor of switch `switch_id` (the datapath id its probes
    /// carry); `catch` is the per-switch collection spec (tag pins +
    /// injection port).
    pub(crate) fn new(catch: CatchSpec, switch_id: u64) -> DynamicMonitor {
        DynamicMonitor {
            engine: Some(planner::engine(&catch)),
            switch_id,
            table: FlowTable::new(),
            catch,
            updates: Vec::new(),
            queued: VecDeque::new(),
            next_seq: 0,
            flowmods_sent: 0,
            steps: Vec::new(),
            answers: VecDeque::new(),
            unclaimed: VecDeque::new(),
            request_replica: FlowTable::new(),
            touched: Vec::new(),
            claims_heard: false,
            rtt: RoundTrip::default(),
        }
    }

    /// Chooses who answers the planning steps, for the updates' probes and
    /// the steady refreshes alike. Inline (the default; the simulator/harness
    /// path): the monitor, on itself with its own engine, the moment each
    /// step is pushed, its plan answers handed back after the call
    /// (`attach_answers`). Deferred (the transport path): an external
    /// planner that replays the monitor's [`Step`]s
    /// ([`Self::take_plan_steps`]) on a [`crate::planner::Replica`] — in
    /// practice a planner thread per group of switches, so generation
    /// overlaps the switches' install latencies and never runs on the I/O
    /// thread — and hands the answers back later (`MonitorProxy::answer`).
    /// Turning it on drops the monitor's engine and starts the stream: a
    /// [`Step::Start`] with a copy of the expected table as it is now. It is
    /// one-way: `false` leaves the monitor as it is.
    pub(crate) fn set_deferred_planning(&mut self, on: bool) {
        if on {
            self.engine = None;
            let _ = self.step(Step::Start {
                table: self.table.clone(),
                catch: self.catch.clone(),
            });
        }
    }

    /// Hands one piece of planning work to the switch's planner, in stream
    /// order: deferred, it is recorded for the external planner
    /// ([`Self::take_plan_steps`]) and `None` returned; inline, it is
    /// answered at once ([`planner::answer`]) on the expected table — which
    /// stands at exactly this point of the stream — with the monitor's own
    /// engine and pins, and the answer returned. The one place the two modes
    /// differ: either way an update's plan lands after the call that asked
    /// for it, inline through [`Self::attach_answers`].
    pub(crate) fn step(&mut self, step: Step) -> Option<Answer> {
        let Some(engine) = &mut self.engine else {
            self.steps.push(step);
            return None;
        };
        planner::answer(Some((&self.table, engine, &self.catch)), &step)
    }

    /// Drains the ids of rules added or modified by the updates started
    /// since the last call (the adaptive steady scheduler's "recently
    /// touched" signal), as resolved by the table's own
    /// [`monocle_openflow::table::ApplyResult`].
    pub(crate) fn take_touched_rules(&mut self) -> Vec<RuleId> {
        std::mem::take(&mut self.touched)
    }

    /// Drains the deferred planning steps recorded since the last call, in
    /// order. Transport drivers call this after every
    /// `on_flowmod`/`attach_plan`/`on_verdict`/`on_tick`/`on_rejected` (a
    /// confirmation or an alarm can release queued updates, which request
    /// plans) and hand the steps to the switch's planner.
    pub(crate) fn take_plan_steps(&mut self) -> Vec<Step> {
        std::mem::take(&mut self.steps)
    }

    /// As [`Self::take_plan_steps`], each plan step turned into the
    /// [`PlanRequest`] a stateless planner takes, built on a table-only
    /// replica the monitor keeps for the purpose. For callers that plan
    /// requests themselves; use one of the two, not both.
    pub(crate) fn take_plan_requests(&mut self) -> Vec<PlanRequest> {
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
    pub(crate) fn awaiting_plans(&self) -> usize {
        self.updates.iter().filter(|u| u.plan.is_none()).count()
    }

    /// The expected table (shared view for steady-state plan refresh etc.).
    pub(crate) fn expected(&self) -> &FlowTable {
        &self.table
    }

    /// Applies `fm` to the expected table (and, in deferred mode, records it
    /// for the planner's replica). Neither probed nor sent — the one way the
    /// table changes, for controller updates ([`Self::on_flowmod`]) and for
    /// Monocle's own ([`Self::apply_own`]) alike, so no change escapes a
    /// replica.
    pub(crate) fn apply_expected(&mut self, fm: &FlowMod) -> Result<ApplyResult, TableError> {
        let _ = self.step(Step::Apply(fm.clone()));
        self.table.apply(fm)
    }

    /// Applies one of Monocle's own FlowMods (a preinstall, a drop-postponing
    /// finalizer) to the expected table and sends it to the switch. Like a
    /// controller update it lands in the table's change log, which the next
    /// steady refresh reads; unlike one it is neither probed nor reported as
    /// churn. One the table refuses is not sent.
    pub(crate) fn apply_own(&mut self, fm: FlowMod) -> Vec<ProxyOutput> {
        let mut out = Vec::new();
        if self.apply_expected(&fm).is_ok() {
            self.send(fm, &mut out);
        }
        out
    }

    /// Numbers `fm` among the FlowMods sent to the switch and emits it;
    /// returns its number.
    fn send(&mut self, fm: FlowMod, out: &mut Vec<ProxyOutput>) -> u64 {
        self.flowmods_sent += 1;
        out.push(ProxyOutput::ToSwitch(fm));
        self.flowmods_sent
    }

    /// How many FlowMods this monitor has emitted as
    /// [`ProxyOutput::ToSwitch`], Monocle's own included: the numbers a
    /// claim covers ([`Self::on_claim`]).
    pub(crate) fn flowmods_sent(&self) -> u64 {
        self.flowmods_sent
    }

    /// Number of unconfirmed (actively probed) updates.
    pub(crate) fn in_flight(&self) -> usize {
        self.updates.iter().filter(|u| u.plan.is_some()).count()
    }

    /// Whether update `token` is queued or started and not finished yet.
    pub(crate) fn is_unfinished(&self, token: u64) -> bool {
        self.updates.iter().any(|u| u.token == token)
            || self.queued.iter().any(|q| q.token == token)
    }

    /// A FlowMod arrives from the controller at `now` as update `token`,
    /// which must not name another unfinished update. `finalize`: §4.3's
    /// FlowMod that turns the stand-in `fm` into the real drop, sent when it
    /// confirms. Its probe goes out when its plan is handed back, after this
    /// call.
    pub(crate) fn on_flowmod(
        &mut self,
        now: u64,
        token: u64,
        fm: FlowMod,
        finalize: Option<FlowMod>,
    ) -> Vec<ProxyOutput> {
        let mut out = Vec::new();
        let update = Queued {
            token,
            tern: fm.match_.ternary(),
            fm,
            finalize,
        };
        // §4.2: queue updates that conflict with an earlier unfinished one
        // (actively probed, awaiting its plan, or queued itself).
        if self.conflicts(&update, &self.queued) {
            self.queued.push_back(update);
        } else {
            self.start_update(now, update, &mut out);
        }
        out
    }

    /// Whether `update` must wait for one that came before it and has not
    /// finished: it overlaps one that is started (§4.2: their probes would
    /// see each other), or one of `queued_ahead` that it does not commute
    /// with (overtaking that one would change what the table ends up
    /// holding). Overlap compares the ternaries compiled as each update
    /// arrived, so the check compiles nothing.
    fn conflicts(&self, update: &Queued, queued_ahead: &VecDeque<Queued>) -> bool {
        self.updates.iter().any(|u| u.tern.overlaps(&update.tern))
            || queued_ahead
                .iter()
                .any(|q| q.tern.overlaps(&update.tern) && !commute(&q.fm, &update.fm))
    }

    /// §4.1 delete victim selection: the rule this delete will actually
    /// remove, mirroring `FlowTable::do_delete`'s hit condition: strict =
    /// exact (priority, match), non-strict = subsumption. Selecting by
    /// subsumption for a strict delete could probe a surviving rule for
    /// absence — an update that would never confirm. `None` for non-deletes
    /// and no-op deletes. `tern` is `fm`'s match, compiled.
    ///
    /// This scan, [`Self::modify_old_version`]'s and the ones inside
    /// `FlowTable::apply` are the per-update O(table) reads left on the
    /// update path: a comparison per rule, no copy and no hashing.
    fn delete_victim(&self, fm: &FlowMod, tern: &Ternary) -> Option<RuleId> {
        match fm.command {
            FlowModCommand::DeleteStrict | FlowModCommand::Delete => {
                let strict = fm.command == FlowModCommand::DeleteStrict;
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
    /// expected table's history (a [`Step::Plan`]). An inline answer waits
    /// for [`Self::attach_answers`].
    fn request_plan(&mut self, token: u64, rule_id: RuleId, kind: PlanKind) {
        let step = Step::Plan {
            token,
            rule_id,
            kind,
        };
        if let Some(Answer::Plan { plan, .. }) = self.step(step) {
            self.answers.push_back((token, plan.ok()));
        }
    }

    /// Starts an update whose conflicts have cleared at `now`: applies it to
    /// the expected table, sends it, and either records it behind the one
    /// plan request that can prove it or, when there is nothing to probe,
    /// acknowledges it optimistically. The single add/delete/modify case
    /// analysis, shared by inline and deferred mode.
    fn start_update(&mut self, now: u64, update: Queued, out: &mut Vec<ProxyOutput>) {
        // §4.1: a deletion is the opposite of an installation — its probe is
        // the victim's *pre-state* plan, awaited on the absent outcome, so
        // it is requested before the delta lands. Likewise a modify needs
        // the version it replaces (that rule, not the table).
        let victim = self.delete_victim(&update.fm, &update.tern);
        if let Some(id) = victim {
            self.request_plan(update.token, id, PlanKind::Absent);
        }
        let old_version = self.modify_old_version(&update.fm);
        let applied = self.apply_expected(&update.fm).unwrap_or_default();
        self.touched
            .extend(applied.added.iter().chain(&applied.modified));
        // The rule the update is proven by and the verdict that proves it.
        let probed = match update.fm.command {
            // OF1.0: a MODIFY with no matching entry behaves as ADD; the
            // table reports it in ApplyResult::added (and nothing in
            // `modified`), so the guard routes it through the same
            // present-probe path as an Add.
            FlowModCommand::Add | FlowModCommand::ModifyStrict | FlowModCommand::Modify
                if !applied.added.is_empty() && applied.modified.is_empty() =>
            {
                self.request_plan(update.token, applied.added[0], PlanKind::Present);
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
                    self.request_plan(update.token, id, PlanKind::Modify { old });
                    (id, Verdict::Present)
                }),
        };
        let forwarded = self.send(update.fm, out);
        if self.claims_heard {
            self.unclaimed.push_back((forwarded, update.token));
        }
        let Some((rule_id, confirm_on)) = probed else {
            // Unmonitorable update: acknowledge optimistically (the
            // controller can fall back to barriers for these).
            return self.acknowledge(update.token, update.finalize, false, out);
        };
        self.updates.push(Update {
            token: update.token,
            tern: update.tern,
            confirm_on,
            rule_id,
            finalize: update.finalize,
            forwarded,
            // Where claims flow, the update waits for the switch's; where
            // none do, it counts as claimed now.
            claimed: (!self.claims_heard).then_some(now),
            quiet_since: now,
            plan: None,
            live: Vec::with_capacity(2),
            backoff: 0,
        });
    }

    /// Hands the inline planner's plan answers back, in request order, the
    /// ones that handing back requests included (an unmonitorable answer
    /// finishes its update, which can release queued ones), and returns what
    /// that puts out — what a transport driver does with
    /// [`Self::attach_plan`] after the call, as its planner answers the
    /// steps in order. `MonitorProxy` calls it after every call that can
    /// start an update, so an inline answer lands where a deferred one
    /// answered at once does: after the call's own outputs. Deferred, there
    /// are none.
    pub(crate) fn attach_answers(&mut self, now: u64) -> Vec<ProxyOutput> {
        let mut out = Vec::new();
        while let Some((token, plan)) = self.answers.pop_front() {
            out.extend(self.attach_plan(now, token, plan));
        }
        out
    }

    /// Completes a plan request: the planner hands back the plan for update
    /// `token` (`None` = generation failed → optimistic ack, like an update
    /// with nothing to probe). The plan is pointed at the update's own rule
    /// and its first probe goes out. An unmonitorable completion releases
    /// conflict-queued updates, since the update is finished.
    pub(crate) fn attach_plan(
        &mut self,
        now: u64,
        token: u64,
        plan: Option<ProbePlan>,
    ) -> Vec<ProxyOutput> {
        let mut out = Vec::new();
        let awaiting = |u: &Update| u.token == token && u.plan.is_none();
        let Some(idx) = self.updates.iter().position(awaiting) else {
            return out; // unknown or duplicate attach
        };
        let Some(mut plan) = plan else {
            self.finish(now, idx, false, &mut out);
            return out;
        };
        let u = &mut self.updates[idx];
        plan.rule_id = u.rule_id;
        u.plan = Some(plan);
        u.quiet_since = u.quiet_since.max(now);
        out.push(u.probe(now, self.switch_id, &mut self.next_seq));
        out
    }

    /// The switch claims it has processed the first `covered` FlowMods sent
    /// to it (the reply to a barrier sent after them). A claim is a hint,
    /// never proof: it confirms nothing. Each unconfirmed update it is the
    /// first to cover is claimed: probed once now — its earlier probe may
    /// have met the old state — and again each time its last probe is
    /// answered or times out ([`Self::on_tick`]), and its silence counts
    /// from now; an update still awaiting its plan is probed when the plan
    /// lands. A driver that
    /// reports claims reports its first before its first FlowMod (a claim
    /// covering none will do), so that every update starts unclaimed.
    pub(crate) fn on_claim(&mut self, now: u64, covered: u64) -> Vec<ProxyOutput> {
        debug_assert!(
            self.claims_heard || self.flowmods_sent == 0,
            "the first claim comes before the first FlowMod"
        );
        self.claims_heard = true;
        let claimed = self.unclaimed.partition_point(|(n, _)| *n <= covered);
        self.unclaimed.drain(..claimed);
        let mut out = Vec::new();
        for u in &mut self.updates {
            if u.claimed.is_some() || u.forwarded > covered {
                continue;
            }
            u.claimed = Some(now);
            u.quiet_since = now;
            if u.plan.is_some() {
                out.push(u.probe(now, self.switch_id, &mut self.next_seq));
            }
        }
        out
    }

    /// Periodic tick, over the claimed updates, with the probe timeout `T`
    /// the round trip sets now: alarm each one still unfinished
    /// [`UPDATE_DEADLINE`] after its claim, its plan landed or not; of the
    /// others that hold their plan, confirm a silence-based
    /// (negative-probed) one whose two live probes went quiet
    /// ([`Update::quiet`]), and probe again each one whose last probe went
    /// out `T` ago or more — by then it has returned with the old state or
    /// timed out — doubling that wait while its probes keep timing out
    /// ([`Update::backoff`]). An update no claim covers yet is left alone.
    pub(crate) fn on_tick(&mut self, now: u64) -> Vec<ProxyOutput> {
        let timeout = self.rtt.timeout();
        let mut out = Vec::new();
        let mut alarmed: Vec<u64> = Vec::new();
        let mut silent_done: Vec<u64> = Vec::new();
        for u in self.updates.iter_mut() {
            let Some(claimed) = u.claimed else {
                continue;
            };
            if now >= claimed + UPDATE_DEADLINE {
                alarmed.push(u.token);
                continue;
            }
            let Some(last) = u.live.last() else {
                continue; // awaiting its plan
            };
            if now < last.at + timeout {
                continue;
            }
            if u.quiet(now, timeout) {
                // §3.3 negative probing: enough probes went quiet.
                silent_done.push(u.token);
                continue;
            }
            if now < last.at + (timeout << u.backoff) {
                continue;
            }
            u.backoff = if last.answered { 0 } else { u.backoff + 1 };
            out.push(u.probe(now, self.switch_id, &mut self.next_seq));
        }
        for token in silent_done {
            let idx = self.updates.iter().position(|u| u.token == token).unwrap();
            self.finish(now, idx, true, &mut out);
        }
        if !alarmed.is_empty() {
            self.alarm(now, alarmed, &mut out);
        }
        out
    }

    /// The switch rejected the FlowMod numbered `number` among those sent to
    /// it ([`Self::flowmods_sent`]), before any claim covered it. Returns the
    /// token of the controller update that FlowMod carried — the controller
    /// is owed the switch's error, whether or not the update is answered
    /// already — or `None` for one of Monocle's own or one a claim has
    /// covered, which changes nothing. An update still unfinished ends with
    /// an alarm; its plan, should one still arrive, is ignored. The expected
    /// table keeps the FlowMod: it holds what the controller asked for.
    pub(crate) fn on_rejected(&mut self, now: u64, number: u64) -> (Option<u64>, Vec<ProxyOutput>) {
        let mut out = Vec::new();
        let Ok(i) = self.unclaimed.binary_search_by_key(&number, |(n, _)| *n) else {
            return (None, out);
        };
        let token = self.unclaimed[i].1;
        if self.updates.iter().any(|u| u.forwarded == number) {
            self.alarm(now, vec![token], &mut out);
        }
        (Some(token), out)
    }

    /// Ends the updates `tokens` with an alarm each. An alarmed update is as
    /// terminal as a confirmed one: whatever was conflict-queued behind it
    /// must not wait for an unrelated confirmation. Its finalizer is never
    /// sent.
    fn alarm(&mut self, now: u64, tokens: Vec<u64>, out: &mut Vec<ProxyOutput>) {
        self.updates.retain(|u| !tokens.contains(&u.token));
        out.extend(tokens.into_iter().map(|token| ProxyOutput::Alarm { token }));
        self.release_queued(now, out);
    }

    /// Update `idx` is confirmed at `now`: out of the record, acknowledged,
    /// and whatever was queued behind it released.
    fn finish(&mut self, now: u64, idx: usize, verified: bool, out: &mut Vec<ProxyOutput>) {
        let u = self.updates.remove(idx);
        self.acknowledge(u.token, u.finalize, verified, out);
        self.release_queued(now, out);
    }

    /// Acknowledges update `token`, after sending its §4.3 finalizer: the
    /// real drop reaches the switch, and the expected table, before any
    /// update the acknowledgment releases.
    fn acknowledge(
        &mut self,
        token: u64,
        finalize: Option<FlowMod>,
        verified: bool,
        out: &mut Vec<ProxyOutput>,
    ) {
        if let Some(fm) = finalize {
            out.extend(self.apply_own(fm));
        }
        out.push(ProxyOutput::Confirmed { token, verified });
    }

    /// Starts every conflict-queued update whose conflicts have cleared, in
    /// queue order: one that overlaps a started update, or one queued ahead
    /// of it that stays queued, waits (a released update requests its plan).
    fn release_queued(&mut self, now: u64, out: &mut Vec<ProxyOutput>) {
        let mut requeue = VecDeque::new();
        while let Some(update) = self.queued.pop_front() {
            if self.conflicts(&update, &requeue) {
                requeue.push_back(update);
            } else {
                self.start_update(now, update, out);
            }
        }
        self.queued = requeue;
    }

    /// Probe `seq` came back: `out_port` is the probed switch's output port
    /// the observation maps to, `fields` the received header. It is judged
    /// against its update's plan while its sequence number is live — until
    /// the update confirms or alarms — and ignored after.
    pub(crate) fn on_probe_return(
        &mut self,
        now: u64,
        seq: u32,
        out_port: PortNo,
        fields: &PacketFields,
    ) -> Vec<ProxyOutput> {
        let update = self.updates.iter().find(|u| u.is_live(seq));
        let Some(plan) = update.and_then(|u| u.plan.as_ref()) else {
            return Vec::new();
        };
        let verdict = plan.classify(out_port, fields);
        self.on_verdict(now, seq, verdict)
    }

    /// Feeds the verdict on probe `seq` back: the verdict-level entry
    /// behind [`Self::on_probe_return`]. A live probe's first return is a
    /// round-trip sample.
    pub(crate) fn on_verdict(&mut self, now: u64, seq: u32, verdict: Verdict) -> Vec<ProxyOutput> {
        let mut out = Vec::new();
        let Some(idx) = self.updates.iter().position(|u| u.is_live(seq)) else {
            return out; // stale
        };
        let u = &mut self.updates[idx];
        let sent = u.live.iter_mut().find(|s| s.seq == seq).unwrap();
        if !sent.answered {
            sent.answered = true;
            self.rtt.sample(now.saturating_sub(sent.at));
        }
        if verdict == u.confirm_on {
            self.finish(now, idx, true, &mut out);
        } else if verdict != Verdict::Inconclusive {
            // Transient inconsistency (§4.1): e.g. the rule is not installed
            // *yet*. Not an alarm; keep probing (and restart the silence
            // count — the old state is demonstrably still active). The
            // deadline stays where the claim put it.
            u.quiet_since = u.quiet_since.max(now);
        }
        out
    }

    /// The probe timeout `T` in force: `max(2 ms, SRTT + 4·RTTVAR)` of the
    /// switch's probe round trip, or 6 ms before its first probe returned.
    pub(crate) fn probe_timeout(&self) -> u64 {
        self.rtt.timeout()
    }

    /// The probe returns the round-trip estimate behind
    /// [`Self::probe_timeout`] has sampled.
    pub(crate) fn probe_rtt_samples(&self) -> u64 {
        self.rtt.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::GeneratorConfig;
    use crate::planner::Replica;
    use monocle_openflow::{Action, Match};

    fn add_fm(prio: u16, dst: [u8; 4], port: u16) -> FlowMod {
        FlowMod::add(
            prio,
            Match::any().with_nw_dst(dst, 32),
            vec![Action::Output(port)],
        )
    }

    fn monitor() -> DynamicMonitor {
        let mut m = DynamicMonitor::new(CatchSpec::default(), 7);
        // A default route so additions are distinguishable from table miss.
        m.apply_expected(&FlowMod::add(1, Match::any(), vec![Action::Output(99)]))
            .unwrap();
        m
    }

    /// Update `token` through [`DynamicMonitor::on_flowmod`], with the
    /// inline answers handed back after the call, as `MonitorProxy` does.
    fn flowmod(m: &mut DynamicMonitor, now: u64, token: u64, fm: FlowMod) -> Vec<ProxyOutput> {
        let mut out = m.on_flowmod(now, token, fm, None);
        out.extend(m.attach_answers(now));
        out
    }

    /// The sequence number of the probe `o` injects, if it is one.
    fn injected(o: &ProxyOutput) -> Option<u32> {
        match o {
            ProxyOutput::Inject(inj) => Some(inj.meta.seq),
            _ => None,
        }
    }

    /// The sequence number of the probe `outs[i]` injects.
    fn seq_of(outs: &[ProxyOutput], i: usize) -> u32 {
        injected(&outs[i]).unwrap_or_else(|| panic!("no injection at {i}: {outs:?}"))
    }

    /// The rule the first probe of `outs` is planned for.
    fn probed_rule(outs: &[ProxyOutput]) -> RuleId {
        let rule = outs.iter().find_map(|o| match o {
            ProxyOutput::Inject(inj) => Some(RuleId(inj.meta.rule_id)),
            _ => None,
        });
        rule.unwrap_or_else(|| panic!("no injection: {outs:?}"))
    }

    #[test]
    fn add_forwards_and_probes() {
        let mut m = monitor();
        let acts = flowmod(&mut m, 0, 1, add_fm(10, [10, 0, 0, 1], 2));
        assert!(matches!(acts[0], ProxyOutput::ToSwitch(_)));
        let ProxyOutput::Inject(inj) = &acts[1] else {
            panic!("{acts:?}")
        };
        // The probe names the switch and the rule the update added.
        let added = m.expected().rules().iter().find(|r| r.priority == 10);
        assert_eq!(inj.meta.switch_id, 7);
        assert_eq!(inj.meta.rule_id, added.unwrap().id.0);
        assert_eq!(m.in_flight(), 1);
        assert_eq!(m.expected().len(), 2);
    }

    #[test]
    fn present_verdict_confirms_add() {
        let mut m = monitor();
        let acts = flowmod(&mut m, 0, 1, add_fm(10, [10, 0, 0, 1], 2));
        let seq = seq_of(&acts, 1);
        let out = m.on_verdict(100, seq, Verdict::Present);
        assert_eq!(
            out[0],
            ProxyOutput::Confirmed {
                token: 1,
                verified: true
            }
        );
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn absent_verdict_keeps_probing_add() {
        let mut m = monitor();
        let acts = flowmod(&mut m, 0, 1, add_fm(10, [10, 0, 0, 1], 2));
        let seq = seq_of(&acts, 1);
        // The switch hasn't installed yet: probe observed the old state.
        assert!(m.on_verdict(100, seq, Verdict::Absent).is_empty());
        assert_eq!(m.in_flight(), 1);
        // Tick re-injects.
        let acts = m.on_tick(10_000_000);
        assert!(matches!(acts[0], ProxyOutput::Inject(_)));
    }

    #[test]
    fn delete_confirms_on_absent() {
        let mut m = monitor();
        let acts = flowmod(&mut m, 0, 1, add_fm(10, [10, 0, 0, 1], 2));
        let seq = seq_of(&acts, 1);
        m.on_verdict(1, seq, Verdict::Present);
        // Now delete it.
        let del = FlowMod::delete_strict(10, Match::any().with_nw_dst([10, 0, 0, 1], 32));
        let acts = flowmod(&mut m, 10, 2, del);
        assert!(matches!(acts[0], ProxyOutput::ToSwitch(_)));
        let seq = seq_of(&acts, 1);
        // Probe still sees the rule: not confirmed.
        assert!(m.on_verdict(20, seq, Verdict::Present).is_empty());
        // Probe sees the without-rule outcome: confirmed.
        let out = m.on_verdict(30, seq, Verdict::Absent);
        assert_eq!(
            out[0],
            ProxyOutput::Confirmed {
                token: 2,
                verified: true
            }
        );
        assert_eq!(m.expected().len(), 1);
    }

    #[test]
    fn modify_probes_new_version() {
        let mut m = monitor();
        let acts = flowmod(&mut m, 0, 1, add_fm(10, [10, 0, 0, 1], 2));
        let seq = seq_of(&acts, 1);
        m.on_verdict(1, seq, Verdict::Present);
        // Modify the rule to forward elsewhere.
        let fm = FlowMod::modify_strict(
            10,
            Match::any().with_nw_dst([10, 0, 0, 1], 32),
            vec![Action::Output(5)],
        );
        let acts = flowmod(&mut m, 10, 2, fm);
        assert!(matches!(acts[0], ProxyOutput::ToSwitch(_)));
        assert!(
            matches!(acts[1], ProxyOutput::Inject(_)),
            "modification must be probeable (old port 2 vs new port 5): {acts:?}"
        );
        let seq = seq_of(&acts, 1);
        let out = m.on_verdict(20, seq, Verdict::Present);
        assert_eq!(
            out[0],
            ProxyOutput::Confirmed {
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
        let acts = flowmod(&mut m, 0, 7, fm);
        assert!(matches!(acts[0], ProxyOutput::ToSwitch(_)));
        assert!(
            matches!(acts[1], ProxyOutput::Inject(_)),
            "MODIFY-as-ADD must be probed like an install: {acts:?}"
        );
        assert_eq!(m.in_flight(), 1);
        assert_eq!(m.expected().len(), 2, "rule was added");
        let seq = seq_of(&acts, 1);
        // Present confirms, exactly like an Add.
        let out = m.on_verdict(100, seq, Verdict::Present);
        assert_eq!(
            out[0],
            ProxyOutput::Confirmed {
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
        let acts = flowmod(&mut m, 200, 8, fm2);
        assert!(matches!(acts[1], ProxyOutput::Inject(_)));
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
        let acts = flowmod(&mut m, 0, 1, specific);
        let seq = seq_of(&acts, 1);
        m.on_verdict(1, seq, Verdict::Present);
        // DeleteStrict(5, 10.0.0.0/24): removes nothing (no rule has that
        // exact match+priority). The specific rule's tern IS subsumed by
        // the delete match, but it must NOT be picked as the victim — that
        // probe would await an Absent outcome that never comes, wedging
        // the update (and queueing everything overlapping behind it).
        let del = FlowMod::delete_strict(5, Match::any().with_nw_dst([10, 0, 0, 0], 24));
        let acts = flowmod(&mut m, 10, 2, del);
        assert!(matches!(acts[0], ProxyOutput::ToSwitch(_)));
        assert_eq!(
            acts[1],
            ProxyOutput::Confirmed {
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
        let acts = flowmod(&mut m, 0, 1, r1);
        let seq1 = seq_of(&acts, 1);
        // R3 overlaps R1 (drop for 10.0.0.0/24 x 10.0.0.0/24): queued.
        let r3 = FlowMod::add(
            15,
            Match::any()
                .with_nw_src([10, 0, 0, 0], 24)
                .with_nw_dst([10, 0, 0, 0], 24),
            vec![],
        );
        let acts = flowmod(&mut m, 5, 3, r3);
        assert!(acts.is_empty(), "queued, not forwarded: {acts:?}");
        assert_eq!(m.queued.len(), 1);
        assert_eq!(m.expected().len(), 2, "queued fm not yet applied");
        // Confirm R1 -> R3 is released (forwarded + probed).
        let out = m.on_verdict(100, seq1, Verdict::Present);
        assert!(matches!(out[0], ProxyOutput::Confirmed { token: 1, .. }));
        assert!(out.iter().any(|a| matches!(a, ProxyOutput::ToSwitch(_))));
        assert_eq!(m.queued.len(), 0);
        assert_eq!(m.expected().len(), 3);
    }

    #[test]
    fn non_overlapping_updates_run_in_parallel() {
        let mut m = monitor();
        let a1 = flowmod(&mut m, 0, 1, add_fm(10, [10, 0, 0, 1], 2));
        let a2 = flowmod(&mut m, 0, 2, add_fm(10, [10, 0, 0, 2], 3));
        let rule = |acts: &[ProxyOutput]| match &acts[1] {
            ProxyOutput::Inject(inj) => inj.meta.rule_id,
            o => panic!("{o:?}"),
        };
        assert_ne!(rule(&a1), rule(&a2), "each update probes its own rule");
        assert_eq!(m.in_flight(), 2);
        assert_eq!(m.queued.len(), 0);
    }

    #[test]
    fn an_update_waits_behind_a_queued_one_it_does_not_commute_with() {
        let mut m = monitor();
        let dst = |host: u8, plen: u8| Match::any().with_nw_dst([10, 0, 0, host], plen);
        let acts = flowmod(&mut m, 0, 1, add_fm(10, [10, 0, 0, 1], 2));
        let seq = seq_of(&acts, 1);
        // Behind the add in flight: a non-strict delete of its /24.
        let sweep = FlowMod {
            command: FlowModCommand::Delete,
            ..FlowMod::delete_strict(0, dst(0, 24))
        };
        assert!(flowmod(&mut m, 1, 2, sweep).is_empty());
        // Inside the /24, clear of the add in flight: an add the sweep must
        // not be overtaken by, then a strict delete of that very entry.
        assert!(flowmod(&mut m, 2, 3, add_fm(5, [10, 0, 0, 2], 3)).is_empty());
        assert!(flowmod(&mut m, 3, 4, FlowMod::delete_strict(5, dst(2, 32))).is_empty());
        assert_eq!(m.queued.len(), 3);
        // Deletes commute with each other, and so do single-entry commands
        // naming different entries: this one overtakes the queue (it
        // removes nothing, so it is acked at once).
        let acts = flowmod(&mut m, 4, 5, FlowMod::delete_strict(9, dst(4, 32)));
        assert_eq!(
            acts[1],
            ProxyOutput::Confirmed {
                token: 5,
                verified: false
            }
        );
        assert_eq!(m.queued.len(), 3);
        // Drain, confirming everything: the table ends as the script in
        // order leaves it — the sweep took the first add, the strict delete
        // the second.
        let mut log = m.on_verdict(5, seq, Verdict::Present);
        log.extend(m.attach_answers(5));
        let mut answered = 0;
        while answered < log.len() {
            if let Some(seq) = injected(&log[answered]) {
                for v in [Verdict::Present, Verdict::Absent] {
                    let out = m.on_verdict(6, seq, v);
                    log.extend(out);
                    log.extend(m.attach_answers(6));
                }
            }
            answered += 1;
        }
        assert_eq!(
            (m.in_flight(), m.queued.len(), m.awaiting_plans()),
            (0, 0, 0)
        );
        let prios: Vec<u16> = m.expected().rules().iter().map(|r| r.priority).collect();
        assert_eq!(prios, [1], "{log:?}");
    }

    #[test]
    fn unmonitorable_update_acked_optimistically() {
        let mut m = DynamicMonitor::new(CatchSpec::default(), 7);
        // Empty table: adding a rule whose presence is indistinguishable
        // from a table miss (drop rule over drop-by-miss).
        let fm = FlowMod::add(10, Match::any().with_tp_dst(23), vec![]);
        let acts = flowmod(&mut m, 0, 9, fm);
        assert!(matches!(acts[0], ProxyOutput::ToSwitch(_)));
        assert_eq!(
            acts[1],
            ProxyOutput::Confirmed {
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
        m.on_flowmod(0, 1, add_fm(10, [10, 0, 0, 1], 2), None);
        let answers = replay(&mut replica, m.take_plan_steps());
        let acts = m.attach_plan(1, 1, answers[0].1.clone());
        let seq = seq_of(&acts, 0);
        m.on_verdict(2, seq, Verdict::Present);
        (m, replica)
    }

    #[test]
    fn deferred_add_roundtrip() {
        let mut m = monitor();
        m.set_deferred_planning(true);
        let acts = m.on_flowmod(0, 1, add_fm(10, [10, 0, 0, 1], 2), None);
        // Forward only — the probe is not planned yet.
        assert_eq!(acts.len(), 1);
        assert!(matches!(acts[0], ProxyOutput::ToSwitch(_)));
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
        assert!(matches!(acts[0], ProxyOutput::Inject(_)));
        assert_eq!(m.in_flight(), 1);
        assert_eq!(m.awaiting_plans(), 0);
        let seq = seq_of(&acts, 0);
        let out = m.on_verdict(100, seq, Verdict::Present);
        assert_eq!(
            out[0],
            ProxyOutput::Confirmed {
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
        m.on_flowmod(0, 2, del, None);
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
        let seq = seq_of(&acts, 0);
        assert_eq!(probed_rule(&acts), victim);
        let out = m.on_verdict(30, seq, Verdict::Absent);
        assert_eq!(
            out[0],
            ProxyOutput::Confirmed {
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
        m.on_flowmod(0, 2, fm, None);
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
        let seq = seq_of(&acts, 0);
        // The attached plan was pointed at the real table's rule.
        assert_eq!(probed_rule(&acts), real_id);
        let out = m.on_verdict(30, seq, Verdict::Present);
        assert!(matches!(out[0], ProxyOutput::Confirmed { token: 2, .. }));
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
        m.on_flowmod(0, 1, r1, None);
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
        let acts = m.on_flowmod(0, 2, r2, None);
        assert!(acts.is_empty());
        assert_eq!(m.queued.len(), 1);
        // The first update turns out unmonitorable: optimistic ack AND the
        // queued conflicting update is released (as a new plan request).
        let reqs = m.take_plan_requests();
        assert_eq!(reqs.len(), 1);
        let acts = m.attach_plan(10, 1, None);
        assert!(acts.contains(&ProxyOutput::Confirmed {
            token: 1,
            verified: false
        }));
        assert!(acts.iter().any(|a| matches!(a, ProxyOutput::ToSwitch(_))));
        assert_eq!(m.queued.len(), 0);
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
            m.on_flowmod(0, token as u64, fm, None);
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
            let seq = seq_of(&acts, 0);
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
        log: &mut Vec<ProxyOutput>,
        answered: &mut usize,
    ) {
        while *answered < log.len() {
            let probe = injected(&log[*answered]);
            *answered += 1;
            if let Some(seq) = probe {
                for v in [Verdict::Present, Verdict::Absent] {
                    let out = m.on_verdict(5, seq, v);
                    log.extend(out);
                    settle(m, planner, log, 5);
                }
            }
        }
    }

    /// What `MonitorProxy` does after every call: inline, hand the
    /// monitor's answers back; deferred, the transport driver's half of the
    /// contract, run synchronously: replay the monitor's steps on the
    /// replica, in order, attach the answers, and go again for whatever the
    /// attaches released. Inline mode records no steps, and deferred mode
    /// answers none itself.
    fn settle(
        m: &mut DynamicMonitor,
        planner: &mut Option<Replica>,
        log: &mut Vec<ProxyOutput>,
        now: u64,
    ) {
        log.extend(m.attach_answers(now));
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
            log.extend(m.on_flowmod(1, token, random_flowmod(&mut rng), None));
            settle(&mut m, &mut replica, &mut log, 1);
            if token % 4 == 3 {
                confirm_all(&mut m, &mut replica, &mut log, &mut answered);
            }
        }
        confirm_all(&mut m, &mut replica, &mut log, &mut answered);
        assert_eq!(
            (m.in_flight(), m.queued.len(), m.awaiting_plans()),
            (0, 0, 0)
        );
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
        use crate::droppost::{self, DropTag};
        use crate::generator::generate_probe;
        use crate::plan::verify_probe;
        use crate::planner::build_synthetic;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

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

        fn run_script(script: &[FlowMod], defer: bool) -> (Vec<ProxyOutput>, Vec<Rule>) {
            let mut m = monitor();
            m.set_deferred_planning(defer);
            let mut planner = None;
            let (mut log, mut answered) = (Vec::new(), 0);
            for (i, fm) in script.iter().enumerate() {
                log.extend(m.on_flowmod(1, i as u64, fm.clone(), None));
                settle(&mut m, &mut planner, &mut log, 1);
                // Confirm in bursts, so overlapping updates queue in between.
                if i % 3 == 2 {
                    confirm_all(&mut m, &mut planner, &mut log, &mut answered);
                }
            }
            confirm_all(&mut m, &mut planner, &mut log, &mut answered);
            assert_eq!(
                (m.in_flight(), m.queued.len(), m.awaiting_plans()),
                (0, 0, 0)
            );
            (log, m.expected().rules().to_vec())
        }

        /// The same script with some probes lost for good: ticks re-probe,
        /// and an update whose probes all go missing alarms on its deadline.
        /// The clock jumps from one tick that can act to the next
        /// ([`next_due`]) until nothing is left in flight.
        fn run_lossy(
            script: &[FlowMod],
            losses: &[bool],
            defer: bool,
        ) -> (Vec<ProxyOutput>, (usize, usize, usize)) {
            let mut m = monitor();
            m.set_deferred_planning(defer);
            let mut planner = None;
            let (mut log, mut answered, mut now) = (Vec::new(), 0, 0);
            let mut lost = losses.iter().cycle();
            for (i, fm) in script.iter().enumerate() {
                log.extend(m.on_flowmod(now, i as u64, fm.clone(), None));
                settle(&mut m, &mut planner, &mut log, now);
            }
            loop {
                while answered < log.len() {
                    let probe = injected(&log[answered]);
                    answered += 1;
                    let Some(seq) = probe else {
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
                let Some(due) = next_due(&m, now) else {
                    break;
                };
                now = due;
                log.extend(m.on_tick(now));
                settle(&mut m, &mut planner, &mut log, now);
                let live = |u: &Update| u.claimed.is_some_and(|c| now < c + UPDATE_DEADLINE);
                assert!(
                    m.updates.iter().all(live),
                    "an update outlived its deadline"
                );
            }
            (log, (m.in_flight(), m.queued.len(), m.awaiting_plans()))
        }

        /// The first time after `now` at which a tick can act on a started
        /// update of `m`: a timeout or the doubled wait after its last
        /// probe, or its deadline. `None` with no update started.
        fn next_due(m: &DynamicMonitor, now: u64) -> Option<u64> {
            let t = m.probe_timeout();
            let due = |u: &Update| {
                let deadline = u.claimed? + UPDATE_DEADLINE;
                let last = u.live.last().map_or(deadline, |s| s.at);
                [last + t, last + (t << u.backoff), deadline]
                    .into_iter()
                    .filter(|&at| at > now)
                    .min()
            };
            m.updates.iter().filter_map(due).min()
        }

        /// The mirror scripts' short tick.
        const TICK: u64 = 3_000_000;

        /// One step of a mirror script: a controller update, one of
        /// Monocle's own FlowMods (a preinstall or a drop-postponing
        /// finalizer), deferral switched on, probes answered, a tick, a
        /// claim (all FlowMods sent but the last `n % (sent + 1)`).
        #[derive(Debug, Clone)]
        enum Op {
            Update(FlowMod),
            Own(FlowMod),
            Defer,
            Answer,
            /// A tick 3 ms on, or (`true`) two update deadlines on.
            Tick(bool),
            Claim(u64),
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
                1 => any::<bool>().prop_map(Op::Tick),
                1 => any::<u64>().prop_map(Op::Claim),
            ]
        }

        /// Applies the FlowMods sent since the last call to `switch` (the
        /// table and how much of `log` it has seen), in the order sent: the
        /// switch then holds what the monitor expects it to.
        fn mirror(
            m: &DynamicMonitor,
            log: &[ProxyOutput],
            switch: &mut (FlowTable, usize),
        ) -> Result<(), TestCaseError> {
            for o in &log[switch.1..] {
                if let ProxyOutput::ToSwitch(fm) = o {
                    let _ = switch.0.apply(fm);
                }
            }
            switch.1 = log.len();
            prop_assert_eq!(switch.0.rules(), m.expected().rules());
            Ok(())
        }

        /// §4.2, checked after every call against the FlowMods the monitor
        /// was given, compiled here: the started, unfinished updates are
        /// pairwise non-overlapping, and an update that started since the
        /// last check (it left the queue, or never entered it) has no
        /// earlier update still queued that it overlaps and does not
        /// commute with.
        #[derive(Default)]
        struct ConflictCheck {
            /// Each update's FlowMod as the monitor got it, by token (tokens
            /// number the updates in arrival order).
            given: BTreeMap<u64, FlowMod>,
            /// The updates queued at the last check, or arrived since.
            waiting: Vec<u64>,
        }

        impl ConflictCheck {
            fn arrive(&mut self, token: u64, fm: &FlowMod) {
                self.given.insert(token, fm.clone());
                self.waiting.push(token);
            }

            fn check(&mut self, m: &DynamicMonitor) -> Result<(), TestCaseError> {
                let tern = |t: u64| self.given[&t].match_.ternary();
                let started: Vec<u64> = m.updates.iter().map(|u| u.token).collect();
                for (i, &a) in started.iter().enumerate() {
                    for &b in &started[i + 1..] {
                        prop_assert!(
                            !tern(a).overlaps(&tern(b)),
                            "started updates {} and {} overlap",
                            a,
                            b
                        );
                    }
                }
                let queued: Vec<u64> = m.queued.iter().map(|q| q.token).collect();
                for &s in self.waiting.iter().filter(|t| !queued.contains(t)) {
                    for &q in queued.iter().filter(|&&q| q < s) {
                        prop_assert!(
                            !tern(q).overlaps(&tern(s))
                                || commute(&self.given[&q], &self.given[&s]),
                            "update {} started ahead of {}, still queued, which it overlaps \
                             and does not commute with",
                            s,
                            q
                        );
                    }
                }
                self.waiting = queued;
                Ok(())
            }
        }

        /// [`settle`] with every plan step checked on the way: the replica
        /// answers it, a stateless planner answers the same step's
        /// [`PlanRequest`] built on a table-only replica, and the two must
        /// agree on found / not found and the error class; a replica plan
        /// must verify, with the outcomes it promises, on the table it was
        /// planned on — the full expected table at that point of the
        /// stream, or the full §4.1 construction over it. After the steps,
        /// replica and expected table are the same table. §4.2 holds after
        /// the call that came before and after each hand-back
        /// ([`ConflictCheck`]).
        fn settle_checked(
            m: &mut DynamicMonitor,
            replica: &mut Option<Replica>,
            requests: &mut FlowTable,
            log: &mut Vec<ProxyOutput>,
            now: u64,
            conflicts: &mut ConflictCheck,
        ) -> Result<(), TestCaseError> {
            let (catch, gen) = (CatchSpec::default(), GeneratorConfig::default());
            conflicts.check(m)?;
            log.extend(m.attach_answers(now));
            conflicts.check(m)?;
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
                    conflicts.check(m)?;
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

        /// Runs a mirror script and returns its outputs, checking the mirror
        /// ([`settle_checked`], [`mirror`]) after every call. `deferred`:
        /// `None` switches deferral on where the script says, `Some` plans
        /// inline or deferred throughout. With `claims`, the driver reports
        /// claims: it announces them before its first FlowMod and makes the
        /// script's; without, it makes none and the monitor keeps no
        /// rejection record. Either way no update holds more than two live
        /// probes, none is confirmed by silence before two probes sent since
        /// its claim (its FlowMod's send, without claims) and its last
        /// contrary return have each gone the timeout then in force
        /// unanswered, none is left unfinished a tick past its claim plus
        /// [`UPDATE_DEADLINE`], and once everything is claimed and answered,
        /// every update is answered exactly once.
        fn run_mirrored(
            ops: &[Op],
            postpone: bool,
            claims: bool,
            deferred: Option<bool>,
        ) -> Result<Vec<ProxyOutput>, TestCaseError> {
            let mut m = monitor();
            if claims {
                prop_assert!(m.on_claim(0, 0).is_empty());
            }
            m.set_deferred_planning(deferred == Some(true));
            let (mut replica, mut requests) = (None, FlowTable::new());
            let (mut log, mut answered, mut now) = (Vec::new(), 0, 0);
            let mut switch = (m.expected().clone(), 0);
            let mut conflicts = ConflictCheck::default();
            // By FlowMod number, from 1: when it was first claimed.
            let mut claimed_at: Vec<Option<u64>> = Vec::new();
            // The script, then a claim of everything, 9 ms in which silence
            // may confirm what the claim covered, and the answers.
            let tick = Op::Tick(false);
            let drain = [Op::Claim(0), tick.clone(), tick.clone(), tick, Op::Answer];
            for (i, op) in ops.iter().chain(&drain).enumerate() {
                match op {
                    Op::Update(fm) => {
                        let postponed = postpone
                            .then(|| droppost::postpone(fm, DropTag(63), 4))
                            .flatten();
                        let (fm, finalize) = match postponed {
                            Some(p) => (p.stand_in, Some(p.finalize)),
                            None => (fm.clone(), None),
                        };
                        conflicts.arrive(i as u64, &fm);
                        log.extend(m.on_flowmod(now, i as u64, fm, finalize));
                    }
                    Op::Own(fm) => log.extend(m.apply_own(fm.clone())),
                    Op::Defer => {
                        if deferred.is_none() {
                            m.set_deferred_planning(true);
                        }
                    }
                    Op::Answer => {
                        while answered < log.len() {
                            let probe = injected(&log[answered]);
                            answered += 1;
                            if let Some(seq) = probe {
                                for v in [Verdict::Present, Verdict::Absent] {
                                    log.extend(m.on_verdict(now, seq, v));
                                    settle_checked(
                                        &mut m,
                                        &mut replica,
                                        &mut requests,
                                        &mut log,
                                        now,
                                        &mut conflicts,
                                    )?;
                                    mirror(&m, &log, &mut switch)?;
                                }
                            }
                        }
                    }
                    Op::Tick(long) => {
                        now += if *long { 2 * UPDATE_DEADLINE } else { TICK };
                        let before: Vec<(u64, u64, Option<u64>, Vec<Sent>)> = (m.updates.iter())
                            .map(|u| {
                                (
                                    u.token,
                                    u.forwarded,
                                    u.claimed.map(|_| u.quiet_since),
                                    u.live.clone(),
                                )
                            })
                            .collect();
                        let timeout = m.probe_timeout();
                        let outs = m.on_tick(now);
                        for o in &outs {
                            // Those a tick confirms, it confirms by silence:
                            // two probes, both sent since silence started
                            // counting (and so since the claim), have each
                            // gone the timeout unanswered.
                            let ProxyOutput::Confirmed {
                                token,
                                verified: true,
                            } = o
                            else {
                                continue;
                            };
                            let (_, number, since, live) =
                                before.iter().find(|(t, ..)| t == token).unwrap();
                            let claim = claimed_at[*number as usize - 1];
                            let quiet = |s: &Sent| {
                                !s.answered
                                    && since.is_some_and(|q| s.at >= q)
                                    && claim.is_some_and(|c| s.at >= c)
                                    && now >= s.at + timeout
                            };
                            prop_assert!(
                                live.len() == 2 && live.iter().all(quiet),
                                "update {} confirmed at {} ms, claimed at {:?}, quiet since \
                                 {:?}, timeout {}: {:?}",
                                token,
                                now / 1_000_000,
                                claim,
                                since,
                                timeout,
                                live
                            );
                        }
                        log.extend(outs);
                    }
                    Op::Claim(n) => {
                        if claims {
                            let sent = m.flowmods_sent();
                            let covered = sent - n % (sent + 1);
                            log.extend(m.on_claim(now, covered));
                            for c in &mut claimed_at[..covered as usize] {
                                c.get_or_insert(now);
                            }
                        }
                    }
                }
                settle_checked(
                    &mut m,
                    &mut replica,
                    &mut requests,
                    &mut log,
                    now,
                    &mut conflicts,
                )?;
                mirror(&m, &log, &mut switch)?;
                // What this call sent: claimed now, where no claims flow.
                claimed_at.resize(m.flowmods_sent() as usize, (!claims).then_some(now));
                prop_assert!(claims || m.unclaimed.is_empty(), "{:?}", m.unclaimed);
                prop_assert!(m.updates.iter().all(|u| u.live.len() <= 2));
                for u in &m.updates {
                    let deadline = u.claimed.map(|c| c + UPDATE_DEADLINE + TICK);
                    prop_assert!(
                        deadline.is_none_or(|d| now <= d),
                        "update {} claimed at {:?}, still unfinished at {}",
                        u.token,
                        u.claimed,
                        now
                    );
                }
            }
            if let Some(r) = &replica {
                let stats = r.engine.engine_stats();
                prop_assert!(
                    stats.syncs_full <= 1 && stats.syncs_fallback == 0,
                    "{:?}",
                    stats
                );
            }
            prop_assert_eq!(
                (m.in_flight(), m.queued.len(), m.awaiting_plans()),
                (0, 0, 0)
            );
            for (token, op) in ops.iter().enumerate() {
                if let Op::Update(_) = op {
                    let answers = log.iter().filter(|o| {
                        matches!(o, ProxyOutput::Confirmed { token: t, .. } | ProxyOutput::Alarm { token: t } if *t == token as u64)
                    });
                    prop_assert_eq!(answers.count(), 1, "update {}", token);
                }
            }
            Ok(log)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Inline planning is the deferred contract plus a synchronous
            /// planner: the same FlowMod script yields the same output stream
            /// (and expected table) in both modes, the deferred plans coming
            /// from a replica of the expected table. And §4.2
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
            /// some probes never answered, the deadline drains the monitor
            /// to nothing in flight, queued or awaiting a plan, and every
            /// update is answered exactly once — in both modes, with the
            /// same outputs.
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
                        .filter(|a| matches!(a, ProxyOutput::Confirmed { token: t, .. } | ProxyOutput::Alarm { token: t } if *t == token))
                        .count();
                    prop_assert_eq!(ends, 1, "update {} answered {} times", token, ends);
                }
                prop_assert_eq!(inline_log, deferred_log);
            }

            /// The mirror holds: over scripts of every command, failed
            /// applies, Monocle's own FlowMods, deferral switched on partway
            /// and, in half the cases, drop installs postponed (§4.3), a
            /// replica fed the steps is the expected table, its plans agree
            /// with stateless planning on the reference requests and verify
            /// on the full table — and its engine never re-reads the whole
            /// table after the first time. And after every call, the
            /// FlowMods sent so far, applied in the order sent, are the
            /// expected table, and §4.2 holds: no two started updates
            /// overlap, and none starts ahead of a queued one it conflicts
            /// with ([`ConflictCheck`]). In half the cases the script runs
            /// as a claims driver's (the checks of [`run_mirrored`] hold
            /// either way), and planning inline throughout puts out what
            /// planning deferred throughout does (deferral switched on
            /// partway starts a cold engine, which may find other probes).
            #[test]
            fn a_replica_mirrors_the_expected_table_and_plans_on_it(
                ops in prop::collection::vec(arb_op(), 1..40),
                postpone in any::<bool>(),
                claims in any::<bool>(),
            ) {
                run_mirrored(&ops, postpone, claims, None)?;
                let inline = run_mirrored(&ops, postpone, claims, Some(false))?;
                let deferred = run_mirrored(&ops, postpone, claims, Some(true))?;
                prop_assert_eq!(inline, deferred);
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

    /// A rejection names the controller update its FlowMod carried until a
    /// claim covers that FlowMod: an unfinished update alarms, which releases
    /// the one queued behind it; one acked already is only named; Monocle's
    /// own FlowMod names none.
    #[test]
    fn a_rejection_names_its_update_until_a_claim_covers_it() {
        let mut m = monitor();
        assert!(m.on_claim(0, 0).is_empty(), "claims are reported");
        // FlowMod #1 is Monocle's own, #2 update 1's; update 2 waits behind 1.
        assert_eq!(m.apply_own(add_fm(5, [10, 0, 0, 9], 3)).len(), 1);
        flowmod(&mut m, 0, 1, add_fm(10, [10, 0, 0, 1], 2));
        flowmod(&mut m, 0, 2, add_fm(20, [10, 0, 0, 1], 4));
        // #3: the expected table refuses it, so it is acked at once.
        let mut refused = add_fm(1, [10, 0, 0, 7], 5);
        refused.check_overlap = true;
        let acked = flowmod(&mut m, 0, 3, refused);
        let ack = ProxyOutput::Confirmed {
            token: 3,
            verified: false,
        };
        assert!(acked.contains(&ack), "{acked:?}");
        assert_eq!(m.on_rejected(1, 1), (None, vec![]));
        assert_eq!(m.on_rejected(1, 3), (Some(3), vec![]));
        let (token, mut out) = m.on_rejected(1, 2);
        out.extend(m.attach_answers(1));
        assert_eq!(
            (token, &out[0]),
            (Some(1), &ProxyOutput::Alarm { token: 1 })
        );
        assert!(matches!(out[1], ProxyOutput::ToSwitch(_)), "{out:?}"); // #4
        assert_eq!((m.in_flight(), m.queued.len()), (1, 0));
        m.on_claim(2, m.flowmods_sent());
        assert_eq!(m.on_rejected(2, 4), (None, vec![]));
        assert_eq!(m.in_flight(), 1);
    }

    /// Probes sent for update 1, an add nobody answers, started now and
    /// ticked every ms for 60 ms (no return: a 6 ms timeout).
    fn probes_in_60_ms(m: &mut DynamicMonitor) -> usize {
        let mut acts = flowmod(m, 0, 1, add_fm(10, [10, 0, 0, 1], 2));
        for ms in 1..=60u64 {
            acts.extend(m.on_tick(ms * 1_000_000));
        }
        acts.iter().filter_map(injected).count()
    }

    #[test]
    fn an_unclaimed_update_waits_for_its_claim() {
        // No claims: claimed as it starts, the first probe, then one each
        // time the last times out (6 ms: no probe has returned), the wait
        // doubling after each: at 0, 6, 18 and 42 ms.
        assert_eq!(probes_in_60_ms(&mut monitor()), 4);
        // Claims flow: the first probe as its plan lands, none on the clock
        // until its claim, one at the claim, then one a timeout later, and
        // the next two timeouts after that.
        let mut m = monitor();
        assert!(m.on_claim(0, 0).is_empty(), "claims are reported");
        assert_eq!(probes_in_60_ms(&mut m), 1);
        let claim = m.on_claim(60_000_000, m.flowmods_sent());
        assert_eq!(claim.iter().filter_map(injected).count(), 1);
        let ticks: Vec<usize> = (61..=72u64)
            .map(|ms| {
                m.on_tick(ms * 1_000_000)
                    .iter()
                    .filter_map(injected)
                    .count()
            })
            .collect();
        assert_eq!(ticks, [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(m.on_tick(78_000_000).iter().filter_map(injected).count(), 1);
    }

    /// The tick, every ms from `from` up to `until`, at which update
    /// `token` is confirmed, with no probe answered.
    fn confirmed_at(m: &mut DynamicMonitor, from: u64, until: u64, token: u64) -> Option<u64> {
        (from / MS + 1..=until / MS).map(|ms| ms * MS).find(|&now| {
            (m.on_tick(now).iter())
                .any(|o| matches!(o, ProxyOutput::Confirmed { token: t, .. } if *t == token))
        })
    }

    const MS: u64 = 1_000_000;

    /// A claims monitor that has seen `n` forwarding updates' probes come
    /// back `rtt` after they were sent, the last at `rtt`.
    fn taught(n: u64, rtt: u64) -> DynamicMonitor {
        let mut m = monitor();
        assert!(m.on_claim(0, 0).is_empty(), "claims are reported");
        for token in 100..100 + n {
            let acts = flowmod(&mut m, 0, token, add_fm(10, [10, 1, 0, token as u8], 2));
            let out = m.on_verdict(rtt, seq_of(&acts, 1), Verdict::Present);
            assert!(matches!(out[0], ProxyOutput::Confirmed { .. }), "{out:?}");
        }
        assert_eq!(m.probe_rtt_samples(), n);
        m
    }

    /// A drop rule over the default route: only §3.3 silence confirms it.
    fn drop_add() -> FlowMod {
        FlowMod::add(20, Match::any().with_nw_dst([10, 9, 0, 0], 16), vec![])
    }

    /// On a switch whose probes come back after 20 ms, a contrary return 15
    /// ms after the claim is a return on time, not a late one: silence has
    /// not confirmed the drop before it (a fixed 12 ms window did), and
    /// counts afresh from it.
    #[test]
    fn silence_waits_for_a_slow_switchs_round_trip() {
        let mut m = taught(8, 20 * MS);
        let before = m.probe_timeout();
        assert!((20 * MS..30 * MS).contains(&before), "{before}");
        let acts = flowmod(&mut m, 20 * MS, 1, drop_add());
        assert_eq!(acts.iter().filter_map(injected).count(), 1);
        let t = 21 * MS;
        let claim = m.on_claim(t, m.flowmods_sent());
        let seq = seq_of(&claim, 0);
        assert_eq!(confirmed_at(&mut m, t, t + 15 * MS, 1), None);
        // The claim's probe meets the old state: the default route.
        assert!(m.on_verdict(t + 15 * MS, seq, Verdict::Absent).is_empty());
        let timeout = m.probe_timeout();
        let at = confirmed_at(&mut m, t + 15 * MS, t + 200 * MS, 1).expect("silence confirms");
        assert!(
            at >= t + 15 * MS + 2 * timeout,
            "confirmed at {at}, T {timeout}"
        );
    }

    /// On a switch whose probes come back in 100 µs the timeout is its 2 ms
    /// floor, and a drop add nothing contradicts is confirmed by silence two
    /// timeouts after its claim, within a tick, and not before.
    #[test]
    fn silence_follows_a_fast_switchs_round_trip() {
        let mut m = taught(1, MS / 10);
        let timeout = m.probe_timeout();
        assert_eq!(timeout, 2 * MS);
        flowmod(&mut m, 5 * MS, 1, drop_add());
        let claim = 10 * MS + MS / 2;
        assert_eq!(m.on_claim(claim, m.flowmods_sent()).len(), 1);
        let at = confirmed_at(&mut m, 10 * MS, 100 * MS, 1).expect("silence confirms");
        assert!(
            (claim + 2 * timeout..=claim + 2 * timeout + MS).contains(&at),
            "confirmed at {at}"
        );
    }

    /// A probe that came back is not a quiet one, even when it came back
    /// with the old state at the instant silence started counting: the two
    /// quiet probes are the two after it.
    #[test]
    fn an_answered_probe_is_not_a_quiet_one() {
        let mut m = taught(1, MS / 10);
        let timeout = m.probe_timeout();
        flowmod(&mut m, 5 * MS, 1, drop_add());
        let claim = 10 * MS;
        let seq = seq_of(&m.on_claim(claim, m.flowmods_sent()), 0);
        assert!(m.on_verdict(claim, seq, Verdict::Absent).is_empty());
        let at = confirmed_at(&mut m, claim, 100 * MS, 1);
        assert_eq!(at, Some(claim + 3 * timeout));
    }

    /// A switch whose every return comes three timeouts after its probe: a
    /// fixed timeout would have given each probe up (two live ones) before
    /// it came back, for ever; the doubling wait keeps one live until its
    /// return, which confirms.
    #[test]
    fn an_update_whose_returns_lag_past_two_timeouts_confirms() {
        let mut m = taught(1, MS / 10);
        let timeout = m.probe_timeout();
        flowmod(&mut m, 0, 1, add_fm(10, [10, 0, 0, 1], 2));
        let mut returns: VecDeque<(u64, u32)> = VecDeque::new();
        let mut outs = m.on_claim(0, m.flowmods_sent());
        for now in (0..=200u64).map(|ms| ms * MS) {
            let sent = outs.iter().filter_map(injected);
            returns.extend(sent.map(|seq| (now + 3 * timeout, seq)));
            outs = Vec::new();
            while returns.front().is_some_and(|&(at, _)| at <= now) {
                let (_, seq) = returns.pop_front().unwrap();
                outs.extend(m.on_verdict(now, seq, Verdict::Present));
            }
            if outs.contains(&ProxyOutput::Confirmed {
                token: 1,
                verified: true,
            }) {
                assert!(now <= 30 * MS, "confirmed at {now}");
                return;
            }
            outs.extend(m.on_tick(now + MS / 2));
        }
        panic!("never confirmed");
    }

    /// An update answered with the old state each ms has at most two live
    /// probes, and after its claim probes again exactly when its last probe
    /// went out a timeout ago.
    #[test]
    fn each_probe_goes_a_timeout_after_the_last() {
        let mut m = taught(1, MS / 10);
        flowmod(&mut m, 0, 1, add_fm(10, [10, 0, 0, 1], 2));
        let claim = m.on_claim(0, m.flowmods_sent());
        let (mut last, mut sent_at) = (seq_of(&claim, 0), 0);
        for now in (1..=40u64).map(|ms| ms * MS) {
            m.on_verdict(now, last, Verdict::Absent);
            let timeout = m.probe_timeout();
            let probe = m.on_tick(now).iter().find_map(injected);
            assert_eq!(probe.is_some(), now >= sent_at + timeout, "at {now}");
            if let Some(seq) = probe {
                (last, sent_at) = (seq, now);
            }
            assert!(m.updates.iter().all(|u| u.live.len() <= 2));
        }
    }

    /// A driver that reports no claims reports no rejections either: its
    /// monitor keeps no record for one to name.
    #[test]
    fn a_claimless_monitor_keeps_no_rejection_record() {
        let mut m = monitor();
        for token in 0..100u64 {
            let acts = flowmod(&mut m, token, token, add_fm(10, [10, 1, 0, token as u8], 2));
            m.on_verdict(token, seq_of(&acts, 1), Verdict::Present);
        }
        assert_eq!(m.in_flight(), 0);
        assert!(m.unclaimed.is_empty(), "{:?}", m.unclaimed);
    }

    /// Ticks `m` every 10 ms from `from` (exclusive) to `until`
    /// (inclusive) and returns the outputs, with no probe answered.
    fn ticks(m: &mut DynamicMonitor, from: u64, until: u64) -> Vec<ProxyOutput> {
        let step = 10 * MS;
        let times = (from / step + 1..=until / step).map(|i| i * step);
        times.flat_map(|now| m.on_tick(now)).collect()
    }

    /// An update nobody answers alarms on the tick that reaches its deadline,
    /// not before; its probes, their wait doubling, stay few.
    #[test]
    fn alarm_at_the_update_deadline() {
        let mut m = monitor();
        let mut acts = flowmod(&mut m, 0, 1, add_fm(10, [10, 0, 0, 1], 2));
        acts.extend(ticks(&mut m, 0, UPDATE_DEADLINE - 10 * MS));
        assert!(!acts.contains(&ProxyOutput::Alarm { token: 1 }));
        let probes = acts.iter().filter_map(injected).count() as u32;
        assert!(
            probes <= (UPDATE_DEADLINE / MIN_TIMEOUT).ilog2() + 2,
            "{probes}"
        );
        assert_eq!(
            m.on_tick(UPDATE_DEADLINE),
            [ProxyOutput::Alarm { token: 1 }]
        );
        assert_eq!(m.in_flight(), 0);
    }

    /// An update the switch keeps answering with the old state moves its
    /// silence count, never its deadline.
    #[test]
    fn contrary_verdicts_do_not_push_the_deadline_back() {
        let mut m = monitor();
        let acts = flowmod(&mut m, 0, 1, add_fm(10, [10, 0, 0, 1], 2));
        let mut last = seq_of(&acts, 1);
        for now in (1..UPDATE_DEADLINE / MS).map(|ms| ms * MS) {
            assert!(m.on_verdict(now, last, Verdict::Absent).is_empty());
            let out = m.on_tick(now);
            assert!(out.iter().all(|o| injected(o).is_some()), "{out:?}");
            last = out.iter().find_map(injected).unwrap_or(last);
        }
        assert_eq!(
            m.on_tick(UPDATE_DEADLINE),
            [ProxyOutput::Alarm { token: 1 }]
        );
    }

    /// The deadline counts from the switch's claim: of two updates claimed
    /// at 5 ms, the one confirmed a tick before its deadline is acked, and
    /// the other alarms on the deadline.
    #[test]
    fn an_update_confirmed_a_tick_before_its_deadline_is_acked() {
        let mut m = monitor();
        assert!(m.on_claim(0, 0).is_empty(), "claims are reported");
        let acts = flowmod(&mut m, 0, 1, add_fm(10, [10, 0, 0, 1], 2));
        flowmod(&mut m, 0, 2, add_fm(10, [10, 0, 0, 2], 2));
        let deadline = 5 * MS + UPDATE_DEADLINE;
        let mut out = m.on_claim(5 * MS, m.flowmods_sent());
        out.extend(ticks(&mut m, 5 * MS, deadline - 10 * MS));
        assert!(out.iter().all(|o| injected(o).is_some()), "{out:?}");
        // Update 1's last probe.
        let rule = probed_rule(&acts).0;
        let last = out.iter().rev().find_map(|o| match o {
            ProxyOutput::Inject(inj) if inj.meta.rule_id == rule => Some(inj.meta.seq),
            _ => None,
        });
        let out = m.on_verdict(deadline - MS, last.unwrap(), Verdict::Present);
        let ack = ProxyOutput::Confirmed {
            token: 1,
            verified: true,
        };
        assert_eq!(out, [ack]);
        assert!(m
            .on_tick(deadline - MS)
            .iter()
            .all(|o| injected(o).is_some()));
        assert_eq!(m.on_tick(deadline), [ProxyOutput::Alarm { token: 2 }]);
    }

    /// An update whose plan has not landed by its deadline alarms all the
    /// same, and releases the one queued behind it; the plan, when it lands,
    /// is dropped.
    #[test]
    fn an_update_awaiting_its_plan_at_its_deadline_alarms() {
        let mut m = monitor();
        m.set_deferred_planning(true);
        let mut replica = None;
        m.on_flowmod(0, 1, add_fm(10, [10, 0, 0, 1], 2), None);
        let late = replay(&mut replica, m.take_plan_steps());
        assert!(m
            .on_flowmod(0, 2, add_fm(20, [10, 0, 0, 1], 3), None)
            .is_empty());
        assert!(m.on_tick(UPDATE_DEADLINE - MS).is_empty());
        let acts = m.on_tick(UPDATE_DEADLINE);
        assert_eq!(acts[0], ProxyOutput::Alarm { token: 1 });
        assert!(matches!(acts[1..], [ProxyOutput::ToSwitch(_)]), "{acts:?}");
        let (table, state) = (m.expected().clone(), (m.awaiting_plans(), m.queued.len()));
        assert_eq!(state, (1, 0), "update 2 started and awaits its plan");
        let [(1, plan)] = &late[..] else {
            panic!("{late:?}")
        };
        assert!(plan.is_some());
        assert!(m.attach_plan(UPDATE_DEADLINE, 1, plan.clone()).is_empty());
        assert_eq!((m.awaiting_plans(), m.queued.len()), state);
        assert_eq!(m.expected().rules(), table.rules());
    }

    /// A, probed and never answered, holds B, which overlaps it, in the
    /// queue until A's deadline; the alarm releases B in the same tick.
    #[test]
    fn alarm_releases_updates_queued_behind_it() {
        let mut m = monitor();
        m.set_deferred_planning(true);
        let a = FlowMod::add(
            10,
            Match::any().with_nw_src([10, 0, 0, 1], 32),
            vec![Action::Output(2)],
        );
        m.on_flowmod(0, 1, a, None);
        let reqs = m.take_plan_requests();
        m.attach_plan(0, 1, plan_request(&reqs[0]));
        let b = FlowMod::add(
            15,
            Match::any()
                .with_nw_src([10, 0, 0, 0], 24)
                .with_nw_dst([10, 0, 0, 0], 24),
            vec![Action::Output(3)],
        );
        assert!(m.on_flowmod(0, 2, b, None).is_empty());
        assert_eq!((m.in_flight(), m.queued.len()), (1, 1));
        let acts = ticks(&mut m, 0, UPDATE_DEADLINE - 10 * MS);
        assert!(acts.iter().all(|o| injected(o).is_some()), "{acts:?}");
        let acts = m.on_tick(UPDATE_DEADLINE);
        assert_eq!(acts[0], ProxyOutput::Alarm { token: 1 });
        assert!(
            matches!(acts[1..], [ProxyOutput::ToSwitch(_)]),
            "B released by the alarm: {acts:?}"
        );
        assert_eq!(
            (m.in_flight(), m.queued.len(), m.awaiting_plans()),
            (0, 0, 1),
            "B awaits its plan"
        );
        let reqs = m.take_plan_requests();
        assert_eq!(reqs.len(), 1, "B's PlanRequest in the same on_tick");
        let acts = m.attach_plan(UPDATE_DEADLINE, 2, plan_request(&reqs[0]));
        let seq = seq_of(&acts, 0);
        m.on_verdict(UPDATE_DEADLINE + MS, seq, Verdict::Present);
        assert_eq!(
            (m.in_flight(), m.queued.len(), m.awaiting_plans()),
            (0, 0, 0)
        );
    }
}
