//! The per-switch Monitor proxy (§7).
//!
//! The paper's Monitor proxy intercepts one controller↔switch connection:
//! it forwards FlowMods immediately (keeping latency off the critical
//! path), tracks the expected flow table, generates and injects probes, and
//! acknowledges updates to the controller once they are provably in the
//! data plane. [`MonitorProxy`] is that component as a pure state machine;
//! the transport lives outside it: [`crate::channel::Channel`] runs it in
//! one OpenFlow session (which `monocle_net::ProxyApp` carries over real TCP
//! connections), and [`crate::harness`] runs it in the packet-level
//! simulator, where it also plays the role of the paper's Multiplexer.
//!
//! Each of the proxy's two monitors owns its probes: it numbers them, builds
//! each [`ProxyOutput::Inject`] where the plan is in hand, judges each
//! returning probe against the plan it was made for, and emits its verdicts.
//! The dynamic monitor also numbers, applies and emits every FlowMod in
//! emission order — controller updates as they start, §4.3 finalizers as
//! their update confirms, and the proxy's own preinstalls — and emits the
//! acks and alarms; the [`SteadyMonitor`] emits `RuleFailed` and
//! `RuleRecovered`. The proxy routes a returning probe to its monitor by the
//! sequence number's steady bit (bit 31) and passes both monitors' outputs
//! on unchanged. Of its own it adds the §4.3 rewrite of a drop install into
//! a stand-in and its finalizer (both handed to the dynamic monitor with the
//! update), hands the rules each update touched to the steady scheduler,
//! and keeps the steady plans up to date with the expected table.

use crate::droppost::{self, DropTag};
use crate::dynamic::DynamicMonitor;
use crate::encode::CatchSpec;
use crate::engine::{EngineStats, ProbeEngine};
use crate::generator::{GenStats, ProbeError};
use crate::plan::{ProbePlan, STEADY_SEQ_BIT};
use crate::planner::{Answer, Refreshed, Step};
use crate::steady::{SteadyConfig, SteadyMonitor};
use monocle_openflow::table::IdHashMap;
use monocle_openflow::{ActionProgram, FlowMod, Match, PortNo, RuleId};
use monocle_packet::{PacketFields, ProbeMeta};

/// Proxy configuration.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Identifier embedded in probe metadata (the switch's datapath id).
    pub switch_id: u64,
    /// Collection pins for this switch's probes. They also set how every
    /// probe of this switch is generated, dynamic and steady alike: it
    /// enters on the pinned injection port, or on port 1.
    pub catch: CatchSpec,
    /// Steady-state monitoring settings (None = dynamic only: no refresh
    /// ever gives the steady monitor a plan).
    pub steady: Option<SteadyConfig>,
    /// Enable §4.3 drop-postponing with this tag and neighbor port.
    pub drop_postpone: Option<(DropTag, PortNo)>,
}

impl ProxyConfig {
    /// Minimal config for one switch.
    pub fn new(switch_id: u64, catch: CatchSpec) -> ProxyConfig {
        ProxyConfig {
            switch_id,
            catch,
            steady: None,
            drop_postpone: None,
        }
    }

    /// Enables steady-state monitoring.
    pub fn with_steady(mut self, cfg: SteadyConfig) -> ProxyConfig {
        self.steady = Some(cfg);
        self
    }
}

/// A probe ready for injection: craft `fields` with `meta` as payload and
/// PacketOut it so it enters the probed switch on `in_port`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeInjection {
    /// Payload metadata (switch, rule, sequence).
    pub meta: ProbeMeta,
    /// Abstract probe header.
    pub fields: PacketFields,
    /// Ingress port at the probed switch.
    pub in_port: u16,
}

impl ProbeInjection {
    /// Probe `seq` of `plan`, on the switch with datapath id `switch_id`.
    pub(crate) fn new(switch_id: u64, plan: &ProbePlan, seq: u32) -> ProbeInjection {
        ProbeInjection {
            meta: ProbeMeta {
                switch_id,
                rule_id: plan.rule_id.0,
                seq,
            },
            fields: plan.fields,
            in_port: plan.in_port,
        }
    }
}

/// Outputs of the proxy state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum ProxyOutput {
    /// Forward this FlowMod to the switch.
    ToSwitch(FlowMod),
    /// Inject this probe.
    Inject(ProbeInjection),
    /// Tell the controller the update `token` is in the data plane.
    Confirmed {
        /// Controller-visible token (e.g. the FlowMod xid).
        token: u64,
        /// Probed (true) vs optimistic (false) confirmation.
        verified: bool,
    },
    /// Steady-state: a rule stopped verifying.
    RuleFailed {
        /// The rule.
        rule_id: RuleId,
        /// Detection time.
        at: u64,
    },
    /// Steady-state: a failed rule verifies again.
    RuleRecovered {
        /// The rule.
        rule_id: RuleId,
    },
    /// An update that failed: the switch rejected its FlowMod, or it was
    /// still unconfirmed past its [`crate::dynamic::UPDATE_DEADLINE`].
    Alarm {
        /// Its token.
        token: u64,
    },
}

/// The monitorable rules of one switch by what the steady refresh found for
/// them ([`MonitorProxy::coverage`]): a probe, or one of the reasons
/// [`ProbeError`] gives for there being none. The first two failure classes
/// are the table's own (§3.5), the rest are the pins' or ours.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Rules with a verified probe plan.
    pub verified: usize,
    /// [`ProbeError::Hidden`]: covered by higher-priority rules.
    pub hidden: usize,
    /// [`ProbeError::Indistinguishable`]: hit-able, no observable difference.
    pub indistinguishable: usize,
    /// [`ProbeError::CatchConflict`].
    pub catch_conflict: usize,
    /// [`ProbeError::RewritesReserved`].
    pub reserved: usize,
    /// [`ProbeError::SolverBudget`].
    pub budget: usize,
    /// [`ProbeError::RepairFailed`].
    pub repair: usize,
}

impl Coverage {
    /// Every class summed: the monitorable rules.
    pub fn total(&self) -> usize {
        self.verified
            + self.hidden
            + self.indistinguishable
            + self.catch_conflict
            + self.reserved
            + self.budget
            + self.repair
    }
}

/// The per-switch Monitor proxy.
#[derive(Debug)]
pub struct MonitorProxy {
    cfg: ProxyConfig,
    dynamic: DynamicMonitor,
    /// Holds plans only with [`ProxyConfig::steady`] set.
    steady: SteadyMonitor,
    /// The expected table's [`monocle_openflow::FlowTable::version`] at the
    /// last steady refresh asked for: its change log since then is the next
    /// one's work.
    steady_version: u64,
    /// Deferred planning: a refresh was asked for and its answer has not
    /// been attached yet ([`Self::attach_refresh`]).
    refresh_outstanding: bool,
    /// A tick made the steady refresh due; it is taken once no update awaits
    /// its plan ([`Self::take_due_refresh`]).
    refresh_due: bool,
    /// Rules for which steady-state probe generation failed (Table 2's
    /// "probes not found" set) with the reason it gave, in table order.
    /// [`Self::coverage`] counts them by reason.
    pub unmonitorable: Vec<(RuleId, ProbeError)>,
    /// [`Self::unmonitorable`] by id, kept by every refresh: the last
    /// failure of each monitorable rule the last refresh left without a plan.
    failures: IdHashMap<RuleId, ProbeError>,
    /// Test oracle: refresh the steady plans the way every refresh once
    /// worked, one batch over the whole table.
    #[cfg(test)]
    whole_table_oracle: bool,
}

impl MonitorProxy {
    /// Creates the proxy.
    pub fn new(cfg: ProxyConfig) -> MonitorProxy {
        let dynamic = DynamicMonitor::new(cfg.catch.clone(), cfg.switch_id);
        let steady = SteadyMonitor::new(cfg.steady.clone().unwrap_or_default(), cfg.switch_id);
        MonitorProxy {
            cfg,
            dynamic,
            steady,
            steady_version: 0,
            refresh_outstanding: false,
            refresh_due: false,
            unmonitorable: Vec::new(),
            failures: IdHashMap::default(),
            #[cfg(test)]
            whole_table_oracle: false,
        }
    }

    /// The expected flow table.
    pub fn expected(&self) -> &monocle_openflow::FlowTable {
        self.dynamic.expected()
    }

    /// Unconfirmed dynamic updates.
    pub fn in_flight(&self) -> usize {
        self.dynamic.in_flight()
    }

    /// The dynamic probe timeout `T` in force, ns: how long an update's
    /// probe may go unanswered before the next one goes, and before its
    /// silence counts (§3.3). It is `max(2 ms, SRTT + 4·RTTVAR)` of this
    /// switch's probe round trip, or 6 ms until the first probe returns, so a
    /// drop-confirmed update is acked about `2·T` after its claim.
    pub fn probe_timeout(&self) -> u64 {
        self.dynamic.probe_timeout()
    }

    /// How many dynamic probe returns [`Self::probe_timeout`]'s round-trip
    /// estimate has sampled.
    pub fn probe_rtt_samples(&self) -> u64 {
        self.dynamic.probe_rtt_samples()
    }

    /// Aggregate probe-generation statistics of this proxy's engine: the
    /// steady refresh and every update's probe (a §4.1 modify is planned on
    /// a table of its own and counted nowhere). Inline only: a deferred
    /// proxy's engine counters live on its planner thread and read as
    /// defaults here.
    pub fn engine_stats(&self) -> GenStats {
        let engine = self.dynamic.engine.as_ref();
        engine.map(ProbeEngine::stats).unwrap_or_default()
    }

    /// Engine cache/invalidation lifecycle counters; inline only, as
    /// [`Self::engine_stats`].
    pub fn engine_lifecycle(&self) -> EngineStats {
        let engine = self.dynamic.engine.as_ref();
        engine.map(ProbeEngine::engine_stats).unwrap_or_default()
    }

    /// Preinstalls a Monocle-owned rule (catching/filter/drop-tag rules):
    /// recorded in the expected table and forwarded, but not probed.
    pub fn preinstall(
        &mut self,
        priority: u16,
        match_: Match,
        actions: ActionProgram,
    ) -> Vec<ProxyOutput> {
        self.dynamic
            .apply_own(FlowMod::add(priority, match_, actions))
    }

    /// How many FlowMods this proxy has emitted as
    /// [`ProxyOutput::ToSwitch`], its own preinstalls and finalizers
    /// included. A driver that follows them with a barrier passes this count
    /// to [`Self::on_barrier_reply`] when the barrier is answered.
    pub(crate) fn flowmods_sent(&self) -> u64 {
        self.dynamic.flowmods_sent()
    }

    /// The switch answered a barrier sent after the first `covered` FlowMods
    /// this proxy emitted ([`Self::flowmods_sent`]): it claims to have
    /// processed them. A hint, never proof — it confirms nothing by itself
    /// — but each unconfirmed update it is the first to cover is claimed:
    /// re-probed at once, and again each time its last probe returns with
    /// the old state or times out ([`Self::probe_timeout`]), its §3.3
    /// silence counts from the claim, and so does its deadline
    /// ([`Self::on_tick`]).
    ///
    /// Every update has one claim. A driver that reports claims reports its
    /// first before its first FlowMod — a claim covering none, `covered` 0,
    /// will do — so that each update waits for the switch's claim before it
    /// is re-probed or confirmed by silence. A driver that
    /// reports none never calls this: each update counts as claimed as it
    /// starts.
    pub(crate) fn on_barrier_reply(&mut self, now: u64, covered: u64) -> Vec<ProxyOutput> {
        self.dynamic.on_claim(now, covered)
    }

    /// The switch answered the FlowMod numbered `number` among those this
    /// proxy emitted ([`Self::flowmods_sent`]) with an error, before any
    /// claim covered it. Returns the token of the controller update that
    /// FlowMod carried, which the switch's error belongs to even when the
    /// update is answered already, or `None` for one of the proxy's own. The
    /// update, if still unfinished, ends with [`ProxyOutput::Alarm`], which
    /// releases the updates queued behind it. A proxy that hears no claims
    /// ([`Self::on_barrier_reply`]) keeps no record of what it sent, and
    /// names none.
    pub(crate) fn on_flowmod_error(
        &mut self,
        now: u64,
        number: u64,
    ) -> (Option<u64>, Vec<ProxyOutput>) {
        let (token, out) = self.dynamic.on_rejected(now, number);
        (token, self.note_touched(now, out))
    }

    /// A FlowMod from the controller, as update `token`: the token its
    /// [`ProxyOutput::Confirmed`] or [`ProxyOutput::Alarm`] carries. A token
    /// names one update until that answer: it must not be reused while the
    /// update it named is unfinished (queued, awaiting its plan, or probed).
    pub fn on_controller_flowmod(&mut self, now: u64, token: u64, fm: FlowMod) -> Vec<ProxyOutput> {
        debug_assert!(
            !self.dynamic.is_unfinished(token),
            "update token {token} reused while its update is unfinished"
        );
        // §4.3: a drop install goes out as its stand-in when drop-postponing
        // is on; the finalizer rides with the update until it confirms.
        let postponed = self
            .cfg
            .drop_postpone
            .and_then(|(tag, port)| droppost::postpone(&fm, tag, port));
        let (fm, finalize) = match postponed {
            Some(p) => (p.stand_in, Some(p.finalize)),
            None => (fm, None),
        };
        let out = self.dynamic.on_flowmod(now, token, fm, finalize);
        self.note_touched(now, out)
    }

    /// Scheduler counters of the steady monitor, with steady monitoring
    /// configured.
    pub fn steady_sched_stats(&self) -> Option<monocle_sched::SchedStats> {
        self.cfg.steady.is_some().then(|| self.steady.sched_stats())
    }

    /// A probe of this switch came back: `out_port` is the probed switch's
    /// output port the observation maps to, `fields` the received header.
    /// The sequence number's steady bit (bit 31) says which monitor sent it,
    /// and that monitor judges it. A probe of another switch is ignored.
    pub fn on_probe_return(
        &mut self,
        now: u64,
        meta: &ProbeMeta,
        out_port: PortNo,
        fields: &PacketFields,
    ) -> Vec<ProxyOutput> {
        if meta.switch_id != self.cfg.switch_id {
            return Vec::new();
        }
        if meta.seq & STEADY_SEQ_BIT != 0 {
            return self.steady.on_probe_return(now, meta.seq, out_port, fields);
        }
        let out = self
            .dynamic
            .on_probe_return(now, meta.seq, out_port, fields);
        self.note_touched(now, out)
    }

    /// Periodic tick: dynamic re-probes and silence confirmations, steady
    /// cycle, lazy plan refresh. And the deadline every update ends on: one
    /// still unconfirmed [`crate::dynamic::UPDATE_DEADLINE`] after its claim
    /// (the switch's reply to a barrier sent after its FlowMod, in a driver
    /// that reports claims, as [`crate::channel::Channel`] does; its start,
    /// in one that reports none) ends with [`ProxyOutput::Alarm`], which releases the updates
    /// queued behind it. So every update is acked or alarmed within that
    /// deadline of its claim, plus one tick.
    pub fn on_tick(&mut self, now: u64) -> Vec<ProxyOutput> {
        let out = self.dynamic.on_tick(now);
        let mut out = self.note_touched(now, out);
        if self.cfg.steady.is_some() {
            self.refresh_due = true;
            self.take_due_refresh();
        }
        out.extend(self.steady.on_tick(now));
        out
    }

    /// Chooses who plans the updates' probes and the steady refreshes: the
    /// proxy's own engine on the expected table, synchronously (inline, the
    /// default — the simulator/harness path), or a transport consumer's
    /// planner, which replays the planning steps drained with
    /// [`Self::take_plan_steps`] after every proxy call on a
    /// [`crate::planner::Replica`] and hands each answer back through
    /// [`Self::answer`]. Turning it on starts the stream with a
    /// [`Step::Start`]; it is one-way.
    pub fn set_deferred_planning(&mut self, on: bool) {
        self.dynamic.set_deferred_planning(on);
    }

    /// Drains the deferred planning steps recorded since the last call.
    pub fn take_plan_steps(&mut self) -> Vec<Step> {
        self.dynamic.take_plan_steps()
    }

    /// Drains the deferred planning steps as the
    /// [`crate::dynamic::PlanRequest`]s a stateless planner takes (instead
    /// of [`Self::take_plan_steps`], not as well), skipping the steady
    /// refreshes: for a proxy without steady monitoring.
    pub fn take_plan_requests(&mut self) -> Vec<crate::dynamic::PlanRequest> {
        self.dynamic.take_plan_requests()
    }

    /// Hands a planner's answer back: the one way back for a deferred
    /// planner's answers and for the inline refresh (an inline plan is handed
    /// back by the proxy itself, at the end of the call that asked for it).
    /// A plan goes to the update it was requested for ([`Self::attach_plan`]),
    /// a refresh into the steady cycle (which reads no clock). A plan for an
    /// update that awaits none — unknown, or answered already — puts nothing
    /// out.
    pub fn answer(&mut self, now: u64, answer: Answer) -> Vec<ProxyOutput> {
        match answer {
            Answer::Plan { token, plan } => self.attach_plan(now, token, plan.ok()),
            Answer::Refresh(refreshed) => {
                self.attach_refresh(refreshed);
                Vec::new()
            }
        }
    }

    /// Hands a deferred plan (or a generation failure, `None`) back to the
    /// update it was requested for. Emits the first injection, or the
    /// optimistic ack for unmonitorable updates.
    pub fn attach_plan(
        &mut self,
        now: u64,
        token: u64,
        plan: Option<ProbePlan>,
    ) -> Vec<ProxyOutput> {
        let out = self.dynamic.attach_plan(now, token, plan);
        let out = self.note_touched(now, out);
        self.take_due_refresh();
        out
    }

    /// Updates forwarded to the switch whose deferred plan is still pending.
    pub fn awaiting_plans(&self) -> usize {
        self.dynamic.awaiting_plans()
    }

    /// Takes the steady refresh a tick made due, once no update awaits its
    /// plan — inline at once, deferred when the last plan lands — if the
    /// plan cycle is stale (the expected table changed since the last
    /// refresh) and quiescent enough to regenerate: no dynamic update in
    /// flight racing the expected table. An update awaiting its plan is in
    /// flight as well, unless the plan finds nothing to probe, which only
    /// its plan tells. A refresh whose answer is outstanding puts the next
    /// one off until it lands ([`Self::refresh_steady_plans`]).
    fn take_due_refresh(&mut self) {
        let d = &self.dynamic;
        let due = self.refresh_due && d.awaiting_plans() == 0;
        self.refresh_due &= !due;
        if due && d.expected().version() != self.steady_version && d.in_flight() == 0 {
            self.refresh_steady_plans();
        }
    }

    /// The collection pins this proxy's probes carry.
    pub fn catch_spec(&self) -> &CatchSpec {
        &self.cfg.catch
    }

    /// Brings the steady-state probe plans up to date with the expected
    /// table and returns (rules with a plan, monitorable rules): the
    /// production rules, not Monocle's own infrastructure (catching, filter
    /// and drop-tag bands — [`crate::pool::monitorable_ids`]). Those no probe
    /// was found for are listed in [`Self::unmonitorable`] with the reason.
    /// Without steady monitoring configured there are no plans to keep:
    /// (0, 0).
    ///
    /// The work follows what changed since the last refresh, not the table:
    /// the rules the expected table's change log names since then
    /// ([`monocle_openflow::FlowTable::changes_since`]; every rule, planned
    /// or not, when the log no longer reaches back that far) and the rules
    /// whose last failure is never cached ([`ProbeError::RepairFailed`]).
    /// The planner adds the rules whose cached result its engine evicted,
    /// re-plans those still monitorable and reports those gone
    /// ([`Step::Refresh`]); the answer is patched into the cycle
    /// ([`SteadyMonitor::patch_plans`]). The first refresh finds every rule
    /// added: the whole table.
    ///
    /// The refresh is asked for as a [`Step::Refresh`] and its answer comes
    /// back through [`Self::answer`]: inline at once, deferred when the
    /// transport hands it back. Until then a deferred proxy asks for no
    /// other and returns what it holds meanwhile.
    pub fn refresh_steady_plans(&mut self) -> (usize, usize) {
        #[cfg(test)]
        if self.whole_table_oracle {
            return self.refresh_steady_plans_whole_table();
        }
        if self.cfg.steady.is_some() && !self.refresh_outstanding {
            let table = self.dynamic.expected();
            let mut work: Vec<RuleId> = match table.changes_since(self.steady_version) {
                Some(changed) => changed.to_vec(),
                None => {
                    let ids = table.rules().iter().map(|r| r.id);
                    ids.chain(self.held()).collect()
                }
            };
            self.steady_version = table.version();
            let repair = self
                .failures
                .iter()
                .filter(|(_, e)| **e == ProbeError::RepairFailed);
            work.extend(repair.map(|(id, _)| *id));
            self.refresh_outstanding = true;
            // Inline, the answer is in already; a refresh answer reads no
            // clock and puts nothing out.
            if let Some(answer) = self.dynamic.step(Step::Refresh { work }) {
                self.answer(0, answer);
            }
        }
        let found = self.steady.plans().len();
        (found, found + self.unmonitorable.len())
    }

    /// Patches a steady refresh's answer into the cycle,
    /// [`Self::unmonitorable`] and the failures behind it: plans for the
    /// rules it found one for, and out with the rules gone or left without
    /// one, whenever [`Self::answer`] hands back the answer of the
    /// [`Step::Refresh`] the switch's planner replayed. An answer planned at
    /// an older version of the expected table is applied all the same:
    /// plans are keyed by rule, and the refresh it left due covers what
    /// changed since. `None`, from a planner that lost the table, drops
    /// every plan and failure: the proxy keeps no steady proofs and raises
    /// no verdicts.
    pub(crate) fn attach_refresh(&mut self, refreshed: Option<Refreshed>) {
        self.refresh_outstanding = false;
        let refreshed = refreshed.unwrap_or_else(|| Refreshed {
            gone: self.held().collect(),
            ..Refreshed::default()
        });
        let mut unmonitorable_moved = false;
        for id in &refreshed.gone {
            unmonitorable_moved |= self.failures.remove(id).is_some();
        }
        let (mut plans, mut unplanned) = (Vec::new(), refreshed.gone);
        for (id, r) in refreshed.results {
            unmonitorable_moved |= match r {
                Ok(plan) => {
                    plans.push(plan);
                    self.failures.remove(&id).is_some()
                }
                Err(e) => {
                    unplanned.push(id);
                    self.failures.insert(id, e.clone()) != Some(e)
                }
            };
        }
        if self.steady.patch_plans(plans, &unplanned) || unmonitorable_moved {
            // The monitorable rules of the table the answer was planned on
            // either have a plan or are unmonitorable: those still in the
            // table in table order, then those removed since, by id.
            let table = self.dynamic.expected();
            let gone = |id: &&RuleId| table.get(**id).is_none();
            let mut removed: Vec<RuleId> = self.failures.keys().filter(gone).copied().collect();
            removed.sort_unstable();
            self.unmonitorable = (crate::pool::monitorable(table).map(|r| r.id).chain(removed))
                .filter_map(|id| Some((id, self.failures.get(&id)?.clone())))
                .collect();
        }
    }

    /// The rules the steady cycle holds a plan or a failure for.
    fn held(&self) -> impl Iterator<Item = RuleId> + '_ {
        let planned = self.steady.plans().keys();
        planned.chain(self.failures.keys()).copied()
    }

    /// How the monitorable rules split by what the last steady refresh
    /// found for them: a probe, or the reason there is none. All zero
    /// without steady monitoring.
    pub fn coverage(&self) -> Coverage {
        let mut c = Coverage {
            verified: self.steady.plans().len(),
            ..Coverage::default()
        };
        for (_, e) in &self.unmonitorable {
            *match e {
                ProbeError::Hidden => &mut c.hidden,
                ProbeError::Indistinguishable => &mut c.indistinguishable,
                ProbeError::CatchConflict(_) => &mut c.catch_conflict,
                ProbeError::RewritesReserved(_) => &mut c.reserved,
                ProbeError::SolverBudget => &mut c.budget,
                ProbeError::RepairFailed => &mut c.repair,
                ProbeError::NoSuchRule(_) => unreachable!("a failure of a rule in the table"),
            } += 1;
        }
        c
    }

    /// Passes on the outputs of a dynamic call that may have started
    /// updates: the call's own, then what handing the inline planner's
    /// answers back puts out ([`DynamicMonitor::attach_answers`]: the probes
    /// of the updates started, in request order) — the one place inline
    /// answers land, after the call, as a deferred planner's do. The rules
    /// those updates added or modified go to the steady scheduler, which
    /// makes them hot unless it runs round-robin (deletes leave the sweep at
    /// the next refresh anyway). The ids come from the table's own
    /// ApplyResult, not from a scan of the table.
    fn note_touched(&mut self, now: u64, mut out: Vec<ProxyOutput>) -> Vec<ProxyOutput> {
        out.extend(self.dynamic.attach_answers(now));
        for id in self.dynamic.take_touched_rules() {
            self.steady.note_rule_modified(id, now);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::verify_probe;
    use crate::planner::{Answer, Replica};
    use crate::pool::monitorable_ids;
    use monocle_openflow::flowmatch::{headervec_to_packet, packet_to_headervec};
    use monocle_openflow::{Action, FlowTable, Match};
    use std::collections::HashSet;

    fn proxy() -> MonitorProxy {
        with_default_route(MonitorProxy::new(ProxyConfig::new(7, CatchSpec::default())))
    }

    /// [`proxy`] in a driver that reports claims: it announces them, with a
    /// claim covering nothing, before its first FlowMod.
    fn claims_proxy() -> MonitorProxy {
        let mut p = MonitorProxy::new(ProxyConfig::new(7, CatchSpec::default()));
        assert!(p.on_barrier_reply(0, 0).is_empty());
        with_default_route(p)
    }

    fn with_default_route(mut p: MonitorProxy) -> MonitorProxy {
        let outs = p.preinstall(1, Match::any(), vec![Action::Output(9)]);
        assert_eq!(outs.len(), 1);
        p
    }

    fn add_fm(dst: [u8; 4], port: u16) -> FlowMod {
        FlowMod::add(
            10,
            Match::any().with_nw_dst(dst, 32),
            vec![Action::Output(port)],
        )
    }

    #[test]
    fn flowmod_forwarded_and_probed() {
        let mut p = proxy();
        let outs = p.on_controller_flowmod(0, 1, add_fm([10, 0, 0, 1], 2));
        assert!(matches!(outs[0], ProxyOutput::ToSwitch(_)));
        let ProxyOutput::Inject(ref inj) = outs[1] else {
            panic!("expected inject: {outs:?}");
        };
        assert_eq!(inj.meta.switch_id, 7);
        assert_eq!(inj.fields.nw_dst, [10, 0, 0, 1]);
        assert_eq!(p.in_flight(), 1);
    }

    #[test]
    fn probe_return_confirms() {
        let mut p = proxy();
        let outs = p.on_controller_flowmod(0, 1, add_fm([10, 0, 0, 1], 2));
        let ProxyOutput::Inject(inj) = outs[1].clone() else {
            panic!()
        };
        // Simulate the probe coming back on the present path: out port 2,
        // unmodified header.
        let plan_hdr = packet_to_headervec(inj.in_port, &inj.fields);
        let fields = headervec_to_packet(&plan_hdr);
        let outs = p.on_probe_return(100, &inj.meta, 2, &fields);
        assert!(outs.contains(&ProxyOutput::Confirmed {
            token: 1,
            verified: true
        }));
        assert_eq!(p.in_flight(), 0);
    }

    #[test]
    fn absent_path_does_not_confirm() {
        let mut p = proxy();
        let outs = p.on_controller_flowmod(0, 1, add_fm([10, 0, 0, 1], 2));
        let ProxyOutput::Inject(inj) = outs[1].clone() else {
            panic!()
        };
        let plan_hdr = packet_to_headervec(inj.in_port, &inj.fields);
        let fields = headervec_to_packet(&plan_hdr);
        // Came back via the default route (port 9): rule not installed yet.
        let outs = p.on_probe_return(100, &inj.meta, 9, &fields);
        assert!(outs.is_empty());
        assert_eq!(p.in_flight(), 1);
    }

    #[test]
    fn foreign_switch_probe_ignored() {
        let mut p = proxy();
        let outs = p.on_controller_flowmod(0, 1, add_fm([10, 0, 0, 1], 2));
        let ProxyOutput::Inject(inj) = outs[1].clone() else {
            panic!()
        };
        let mut meta = inj.meta;
        meta.switch_id = 99;
        let fields = headervec_to_packet(&packet_to_headervec(1, &inj.fields));
        assert!(p.on_probe_return(1, &meta, 2, &fields).is_empty());
    }

    /// The header a probe left with, as it comes back unmodified.
    fn echo(inj: &ProbeInjection) -> PacketFields {
        headervec_to_packet(&packet_to_headervec(inj.in_port, &inj.fields))
    }

    #[test]
    fn dynamic_probes_numbered_past_the_steady_bit_still_confirm() {
        let mut p = MonitorProxy::new(ProxyConfig::new(7, CatchSpec::default()));
        // As if 2^31 - 1 dynamic probes had been sent already.
        p.dynamic.next_seq = STEADY_SEQ_BIT - 1;
        p.preinstall(1, Match::any(), vec![Action::Output(9)]);
        for token in 1..=3u8 {
            let outs = p.on_controller_flowmod(0, token.into(), add_fm([10, 0, 0, token], 2));
            let ProxyOutput::Inject(inj) = &outs[1] else {
                panic!("expected inject: {outs:?}");
            };
            let outs = p.on_probe_return(1, &inj.meta, 2, &echo(inj));
            assert!(
                outs.contains(&ProxyOutput::Confirmed {
                    token: token.into(),
                    verified: true
                }),
                "update {token} (probe seq {}) never confirms: {outs:?}",
                inj.meta.seq
            );
        }
    }

    #[test]
    fn steady_probes_numbered_past_the_steady_bit_are_still_classified() {
        let cfg = ProxyConfig::new(7, CatchSpec::default()).with_steady(SteadyConfig::default());
        let mut p = MonitorProxy::new(cfg);
        // As if 2^31 - 2 steady probes had been sent already.
        p.steady.next_seq = STEADY_SEQ_BIT - 2;
        p.preinstall(1, Match::any(), vec![Action::Output(9)]);
        p.preinstall(
            10,
            Match::any().with_nw_dst([10, 0, 0, 1], 32),
            vec![Action::Output(2)],
        );
        // The fixed sweep alternates the two rules: the third probe is the
        // specific rule's again, numbered past the boundary.
        let mut probes = Vec::new();
        let mut now = 0;
        while probes.len() < 3 {
            probes.extend(p.on_tick(now).into_iter().filter_map(|o| match o {
                ProxyOutput::Inject(i) if i.meta.seq & STEADY_SEQ_BIT != 0 => Some(i),
                _ => None,
            }));
            now += 2_000_000;
        }
        let third = &probes[2];
        assert_eq!(third.meta.rule_id, probes[0].meta.rule_id);
        // The switch lost the rule: the probe comes back by the default route.
        let outs = p.on_probe_return(now, &third.meta, 9, &echo(third));
        assert!(
            outs.iter().any(|o| matches!(o,
                ProxyOutput::RuleFailed { rule_id, .. } if rule_id.0 == third.meta.rule_id)),
            "probe seq {:#x} was not classified: {outs:?}",
            third.meta.seq
        );
    }

    /// A probe's answer counts exactly when its sequence number is live: a
    /// steady probe's while the plan it was made for is held, a dynamic
    /// probe's until its update confirms — whatever else changed in the
    /// table meanwhile.
    #[test]
    fn an_answer_counts_while_its_sequence_number_is_live() {
        let cfg = ProxyConfig::new(7, CatchSpec::default()).with_steady(SteadyConfig::default());
        let mut p = MonitorProxy::new(cfg);
        p.preinstall(1, Match::any(), vec![Action::Output(9)]);
        for (host, port) in [(1, 2), (2, 3)] {
            p.preinstall(
                10,
                Match::any().with_nw_dst([10, 0, 0, host], 32),
                vec![Action::Output(port)],
            );
        }
        let inject = |outs: Vec<ProxyOutput>| -> ProbeInjection {
            let mut injections = outs.into_iter().filter_map(|o| match o {
                ProxyOutput::Inject(i) => Some(i),
                _ => None,
            });
            injections.next().expect("an injection")
        };
        // The first refresh, then the sweep: the two specific rules in turn.
        let first = inject(p.on_tick(0));
        let second = inject(p.on_tick(2_000_000));
        assert_ne!(first.meta.rule_id, second.meta.rule_id);
        assert_eq!(p.steady.plans().len(), 3);
        // Back by the default route, before any refresh: the rule failed.
        let outs = p.on_probe_return(2_500_000, &first.meta, 9, &echo(&first));
        assert!(
            matches!(&outs[..], [ProxyOutput::RuleFailed { rule_id, .. }]
                if rule_id.0 == first.meta.rule_id),
            "{outs:?}"
        );

        // An update, and an unrelated one landing while its probe is out.
        let add = |host, port| add_fm([10, 0, 0, host], port);
        let update = inject(p.on_controller_flowmod(3_000_000, 1, add(4, 4)));
        let bystander = inject(p.on_controller_flowmod(3_000_000, 2, add(5, 5)));
        let outs = p.on_probe_return(3_500_000, &update.meta, 4, &echo(&update));
        assert_eq!(
            outs,
            [ProxyOutput::Confirmed {
                token: 1,
                verified: true
            }]
        );
        p.on_probe_return(3_500_000, &bystander.meta, 5, &echo(&bystander));
        assert_eq!(p.in_flight(), 0);

        // The tick refreshes the steady plans (the two new rules join). The
        // second steady probe was sent before that, but its plan was kept:
        // the same answer that failed the first rule fails the second.
        p.on_tick(4_000_000);
        assert_eq!(p.steady.plans().len(), 5);
        let outs = p.on_probe_return(4_500_000, &second.meta, 9, &echo(&second));
        assert!(
            matches!(&outs[..], [ProxyOutput::RuleFailed { rule_id, .. }]
                if rule_id.0 == second.meta.rule_id),
            "{outs:?}"
        );
        let failed =
            |p: &MonitorProxy| -> Vec<u64> { p.steady.failed_rules().map(|r| r.0).collect() };
        assert_eq!(failed(&p), [first.meta.rule_id, second.meta.rule_id]);

        // A steady probe of the first rule is out when an update replaces
        // the rule's actions: the refresh replaces its plan, and an answer
        // to the probe made for the old one is ignored — even the one the
        // new plan calls present.
        let mut now = 4_000_000;
        let old = loop {
            now += 2_000_000;
            let outs = p.on_tick(now);
            if let Some(i) = outs.into_iter().find_map(|o| match o {
                ProxyOutput::Inject(i) if i.meta.rule_id == first.meta.rule_id => Some(i),
                _ => None,
            }) {
                break i;
            }
        };
        let host1 = Match::any().with_nw_dst([10, 0, 0, 1], 32);
        let fm = FlowMod::modify_strict(10, host1, vec![Action::Output(7)]);
        let modify = inject(p.on_controller_flowmod(now, 3, fm));
        let outs = p.on_probe_return(now, &modify.meta, 7, &echo(&modify));
        assert!(outs.contains(&ProxyOutput::Confirmed {
            token: 3,
            verified: true
        }));
        p.on_tick(now + 1_000_000);
        let outs = p.on_probe_return(now + 1_500_000, &old.meta, 7, &echo(&old));
        assert!(outs.is_empty(), "{outs:?}");
        assert_eq!(failed(&p), [first.meta.rule_id, second.meta.rule_id]);
    }

    #[test]
    fn steady_cycle_and_failure() {
        let cfg = ProxyConfig::new(7, CatchSpec::default()).with_steady(SteadyConfig::default());
        let mut p = MonitorProxy::new(cfg);
        p.preinstall(1, Match::any(), vec![Action::Output(9)]);
        let outs = p.on_controller_flowmod(0, 1, add_fm([10, 0, 0, 1], 2));
        let ProxyOutput::Inject(inj) = outs[1].clone() else {
            panic!()
        };
        let fields = headervec_to_packet(&packet_to_headervec(inj.in_port, &inj.fields));
        p.on_probe_return(1, &inj.meta, 2, &fields);
        // Tick: plans refresh (1 monitorable production rule besides the
        // default route; the default route itself is probed too).
        let outs = p.on_tick(10_000_000);
        let injections: Vec<_> = outs
            .iter()
            .filter_map(|o| match o {
                ProxyOutput::Inject(i) => Some(i.clone()),
                _ => None,
            })
            .collect();
        assert!(!injections.is_empty(), "steady probes flowing: {outs:?}");
        assert!(injections[0].meta.seq & STEADY_SEQ_BIT != 0);
        // Let a steady probe time out -> failure report.
        let mut failed = false;
        for t in 1..200u64 {
            for o in p.on_tick(10_000_000 + t * 2_000_000) {
                if matches!(o, ProxyOutput::RuleFailed { .. }) {
                    failed = true;
                }
            }
        }
        assert!(failed, "no probe returns -> the probed rules must fail");
    }

    #[test]
    fn drop_postpone_lifecycle() {
        let mut cfg = ProxyConfig::new(7, CatchSpec::default());
        cfg.drop_postpone = Some((DropTag(63), 4));
        let mut p = MonitorProxy::new(cfg);
        p.preinstall(1, Match::any(), vec![Action::Output(9)]);
        let drop_fm = FlowMod::add(20, Match::any().with_tp_dst(23).with_nw_proto(6), vec![]);
        let outs = p.on_controller_flowmod(0, 5, drop_fm);
        // Forwarded rule is the stand-in, not the drop.
        let ProxyOutput::ToSwitch(ref fm) = outs[0] else {
            panic!()
        };
        assert!(!fm.actions.is_empty(), "stand-in forwards: {fm:?}");
        let ProxyOutput::Inject(inj) = outs[1].clone() else {
            panic!("stand-in must be positively probeable: {outs:?}")
        };
        // Probe returns tagged on port 4 -> confirm -> finalize emitted.
        let plan_hdr = packet_to_headervec(inj.in_port, &inj.fields);
        let mut tagged = plan_hdr;
        tagged.set_field(monocle_openflow::Field::NwTos, 63);
        let fields = headervec_to_packet(&tagged);
        let outs = p.on_probe_return(50, &inj.meta, 4, &fields);
        assert!(
            outs.iter().any(|o| matches!(o, ProxyOutput::ToSwitch(f)
                if f.command == monocle_openflow::FlowModCommand::ModifyStrict
                && f.actions.is_empty())),
            "finalize to real drop: {outs:?}"
        );
        assert!(outs.contains(&ProxyOutput::Confirmed {
            token: 5,
            verified: true
        }));
        // Expected table now holds the real drop.
        let rule = p
            .expected()
            .rules()
            .iter()
            .find(|r| r.priority == 20)
            .unwrap();
        assert!(rule.fwd.is_drop());
    }

    fn injections(outs: &[ProxyOutput]) -> Vec<ProbeInjection> {
        outs.iter()
            .filter_map(|o| match o {
                ProxyOutput::Inject(i) => Some(i.clone()),
                _ => None,
            })
            .collect()
    }

    /// A drop rule over the default route, clear of [`add_fm`]'s: its
    /// confirming outcome is a drop, so only §3.3 silence confirms it.
    fn drop_fm(port: u16) -> FlowMod {
        let m = Match::any().with_nw_dst([10, 9, 0, 0], 16);
        FlowMod::add(20, m.with_nw_proto(6).with_tp_dst(port), vec![])
    }

    #[test]
    fn a_claim_re_probes_each_update_it_covers_once() {
        let mut p = claims_proxy();
        assert_eq!(p.flowmods_sent(), 1, "the default route");
        let first = p.on_controller_flowmod(0, 1, add_fm([10, 0, 0, 1], 2));
        let second = p.on_controller_flowmod(0, 2, add_fm([10, 0, 0, 2], 3));
        let (r1, r2) = (
            injections(&first)[0].meta.rule_id,
            injections(&second)[0].meta.rule_id,
        );
        // The barrier goes out here, after FlowMod 3; update 3 follows it.
        let barrier = p.flowmods_sent();
        let third = p.on_controller_flowmod(100_000, 3, add_fm([10, 0, 0, 3], 4));
        let r3 = injections(&third)[0].meta.rule_id;
        let rules = |outs: &[ProxyOutput]| {
            let mut ids: Vec<u64> = injections(outs).iter().map(|i| i.meta.rule_id).collect();
            ids.sort_unstable();
            ids
        };
        // Each update the reply covers is probed once, now; the one
        // forwarded after the barrier is not.
        let outs = p.on_barrier_reply(500_000, barrier);
        assert_eq!(rules(&outs), [r1, r2], "{outs:?}");
        assert!(injections(&outs)
            .iter()
            .all(|i| i.meta.seq & STEADY_SEQ_BIT == 0));
        // A later reply re-probes only what no claim covered before.
        assert!(p.on_barrier_reply(600_000, barrier).is_empty());
        assert_eq!(rules(&p.on_barrier_reply(700_000, p.flowmods_sent())), [r3]);
        assert!(p.on_barrier_reply(800_000, p.flowmods_sent()).is_empty());
        // Each probes again once its claim's probe has gone the timeout
        // unanswered (6 ms: no probe has returned yet).
        assert_eq!(p.probe_timeout(), 6_000_000);
        assert!(p.on_tick(6_400_000).is_empty());
        assert_eq!(rules(&p.on_tick(6_500_000)), [r1, r2]);
        assert_eq!(rules(&p.on_tick(6_700_000)), [r3]);
    }

    #[test]
    fn a_claim_covers_an_update_awaiting_its_plan_and_its_first_probe_suffices() {
        let mut p = claims_proxy();
        p.set_deferred_planning(true);
        p.on_controller_flowmod(0, 1, add_fm([10, 0, 0, 1], 2));
        let mut replica = None;
        let answers = replay(&mut replica, p.take_plan_steps());
        // Claimed before the plan lands: nothing to probe yet.
        assert!(p.on_barrier_reply(100, p.flowmods_sent()).is_empty());
        let Some(Answer::Plan { token, plan }) = answers.into_iter().next() else {
            panic!("a plan answer")
        };
        assert_eq!(injections(&p.attach_plan(200, token, plan.ok())).len(), 1);
        assert!(p.on_barrier_reply(300, p.flowmods_sent()).is_empty());
    }

    #[test]
    fn a_claim_never_confirms_by_itself() {
        let mut p = claims_proxy();
        p.on_controller_flowmod(0, 1, add_fm([10, 0, 0, 1], 2));
        p.on_controller_flowmod(0, 2, drop_fm(23));
        let mut now = 0;
        let mut outs = p.on_barrier_reply(now, p.flowmods_sent());
        assert_eq!(injections(&outs).len(), 2);
        // No probe ever comes back; the drop update may confirm by silence
        // after two timeouts, the forwarding one never does.
        while now < 100_000_000 {
            now += 1_000_000;
            outs.extend(p.on_tick(now));
        }
        let confirmed: Vec<u64> = outs
            .iter()
            .filter_map(|o| match o {
                ProxyOutput::Confirmed { token, .. } => Some(*token),
                _ => None,
            })
            .collect();
        assert_eq!(confirmed, [2], "{outs:?}");
        assert_eq!(p.in_flight(), 1);
    }

    /// The tick at which update `token` is confirmed, ticking every ms up to
    /// `until`, with no probe answered.
    fn confirmed_at(p: &mut MonitorProxy, mut now: u64, until: u64, token: u64) -> Option<u64> {
        while now < until {
            now += 1_000_000;
            let outs = p.on_tick(now);
            if outs
                .iter()
                .any(|o| matches!(o, ProxyOutput::Confirmed { token: t, .. } if *t == token))
            {
                return Some(now);
            }
        }
        None
    }

    #[test]
    fn silence_counts_from_the_claim_once_claims_flow() {
        // Without claims, silence counts from the first probe, and takes two
        // timeouts: 6 ms each while no probe has returned.
        let mut p = proxy();
        p.on_controller_flowmod(0, 1, drop_fm(23));
        assert_eq!(p.probe_timeout(), 6_000_000);
        assert_eq!(confirmed_at(&mut p, 0, 100_000_000, 1), Some(12_000_000));

        // A lying claim, 5 ms after the forward and before any commit: the
        // probe it sends meets the old state, and silence counts from then.
        let mut p = claims_proxy();
        let outs = p.on_controller_flowmod(0, 1, drop_fm(23));
        let first = &injections(&outs)[0];
        let claim = 5_000_000;
        let covered = p.flowmods_sent();
        // Update 2 is forwarded after the barrier, so no claim covers it.
        p.on_controller_flowmod(1_000_000, 2, drop_fm(24));
        let outs = p.on_barrier_reply(claim, covered);
        let probe = &injections(&outs)[0];
        assert_eq!(probe.meta.rule_id, first.meta.rule_id);
        // Back by the default route in 100 µs: the drop is not there yet,
        // and the round trip sets the timeout to its 2 ms floor.
        assert!(p
            .on_probe_return(claim + 100_000, &probe.meta, 9, &echo(probe))
            .is_empty());
        let timeout = p.probe_timeout();
        assert_eq!((timeout, p.probe_rtt_samples()), (2_000_000, 1));
        // The next probe goes a timeout after the claim's, the one after it
        // a timeout later, and both are quiet a timeout after that.
        assert_eq!(
            confirmed_at(&mut p, claim, 200_000_000, 1),
            Some(claim + 3 * timeout),
            "silence counts afresh from the contrary answer"
        );
        // The unclaimed drop update is never confirmed by silence...
        assert_eq!(confirmed_at(&mut p, 200_000_000, 300_000_000, 2), None);
        // ... until a claim covers it: its probe and the next are quiet.
        p.on_barrier_reply(300_000_000, p.flowmods_sent());
        assert_eq!(
            confirmed_at(&mut p, 300_000_000, 400_000_000, 2),
            Some(300_000_000 + 2 * timeout)
        );
    }

    /// The FlowMods a claim covers are numbered in the order the proxy
    /// emits them: a drop-postponing finalizer goes out before the update
    /// its confirmation releases, and is numbered before it.
    #[test]
    fn flowmods_are_numbered_in_emission_order() {
        let mut cfg = ProxyConfig::new(7, CatchSpec::default());
        cfg.drop_postpone = Some((DropTag(63), 4));
        let mut p = MonitorProxy::new(cfg);
        assert!(p.on_barrier_reply(0, 0).is_empty(), "claims are reported");
        p.preinstall(1, Match::any(), vec![Action::Output(9)]);
        let drop = FlowMod::add(20, Match::any().with_tp_dst(23).with_nw_proto(6), vec![]);
        let inj = injections(&p.on_controller_flowmod(0, 5, drop))[0].clone();
        // Overlaps the stand-in: queued until it confirms.
        let queued = FlowMod::add(30, Match::any().with_nw_proto(6), vec![Action::Output(3)]);
        assert!(p.on_controller_flowmod(1, 6, queued).is_empty());
        let mut tagged = packet_to_headervec(inj.in_port, &inj.fields);
        tagged.set_field(monocle_openflow::Field::NwTos, 63);
        let outs = p.on_probe_return(50, &inj.meta, 4, &headervec_to_packet(&tagged));
        let sent: Vec<&FlowMod> = outs
            .iter()
            .filter_map(|o| match o {
                ProxyOutput::ToSwitch(fm) => Some(fm),
                _ => None,
            })
            .collect();
        assert_eq!(sent.len(), 2, "{outs:?}");
        assert_eq!(sent[1].priority, 30, "the finalizer first: {outs:?}");
        assert_eq!(p.flowmods_sent(), 4);
        // A claim up to the finalizer does not cover the released update.
        assert!(p.on_barrier_reply(100, 3).is_empty());
        assert_eq!(injections(&p.on_barrier_reply(200, 4)).len(), 1);
    }

    /// A drop-postponed add, then a delete of the same entry queued behind
    /// its stand-in: when the stand-in confirms, the finalizer reaches the
    /// switch before the delete, and the expected table takes them in that
    /// order too. Applied in order, what the proxy sent is what it expects.
    #[test]
    fn a_finalizer_reaches_the_expected_table_in_the_order_it_is_sent() {
        let mut cfg = ProxyConfig::new(7, CatchSpec::default());
        cfg.drop_postpone = Some((DropTag(63), 4));
        let mut p = MonitorProxy::new(cfg);
        let mut switch = FlowTable::new();
        let mut send = |outs: &[ProxyOutput]| {
            for o in outs {
                if let ProxyOutput::ToSwitch(fm) = o {
                    let _ = switch.apply(fm);
                }
            }
        };
        send(&p.preinstall(1, Match::any(), vec![Action::Output(9)]));
        let m = Match::any().with_nw_proto(6).with_tp_dst(23);
        let outs = p.on_controller_flowmod(0, 1, FlowMod::add(20, m, vec![]));
        send(&outs);
        let inj = injections(&outs)[0].clone();
        assert!(p
            .on_controller_flowmod(1, 2, FlowMod::delete_strict(20, m))
            .is_empty());
        let mut tagged = packet_to_headervec(inj.in_port, &inj.fields);
        tagged.set_field(monocle_openflow::Field::NwTos, 63);
        let outs = p.on_probe_return(50, &inj.meta, 4, &headervec_to_packet(&tagged));
        let kinds: Vec<String> = outs
            .iter()
            .map(|o| match o {
                ProxyOutput::ToSwitch(fm) => format!("{:?}", fm.command),
                ProxyOutput::Confirmed { token, .. } => format!("Confirmed {token}"),
                ProxyOutput::Inject(_) => "Inject".into(),
                o => format!("{o:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            ["ModifyStrict", "Confirmed 1", "DeleteStrict", "Inject"]
        );
        send(&outs);
        assert_eq!(switch.len(), 1, "only the default route is left");
        assert_eq!(p.expected().rules(), switch.rules());
    }

    fn steady_injections(outs: &[ProxyOutput]) -> Vec<u64> {
        outs.iter()
            .filter_map(|o| match o {
                ProxyOutput::Inject(i) if i.meta.seq & STEADY_SEQ_BIT != 0 => Some(i.meta.rule_id),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn table_brought_up_by_preinstall_alone_gets_steady_plans() {
        // Regression: preinstall never marked the steady cycle stale, so a
        // table no controller FlowMod ever touched was never swept.
        let cfg = ProxyConfig::new(7, CatchSpec::default()).with_steady(SteadyConfig::default());
        let mut p = MonitorProxy::new(cfg);
        p.preinstall(1, Match::any(), vec![Action::Output(9)]);
        p.preinstall(
            10,
            Match::any().with_nw_dst([10, 0, 0, 1], 32),
            vec![Action::Output(2)],
        );
        let mut probed = Vec::new();
        for t in 0..10u64 {
            probed.extend(steady_injections(&p.on_tick(t * 2_000_000)));
        }
        assert!(
            !probed.is_empty(),
            "no steady probe for a preinstalled table"
        );
    }

    #[test]
    fn preinstall_after_the_first_refresh_joins_the_steady_cycle() {
        // Regression: a rule preinstalled once the cycle was running stayed
        // out of it (and its neighbors kept plans made without it) until the
        // next controller FlowMod.
        let cfg = ProxyConfig::new(7, CatchSpec::default()).with_steady(SteadyConfig::default());
        let mut p = MonitorProxy::new(cfg);
        p.preinstall(1, Match::any(), vec![Action::Output(9)]);
        p.on_controller_flowmod(0, 1, add_fm([10, 0, 0, 1], 2));
        assert_eq!(p.refresh_steady_plans(), (2, 2));
        let late = p.preinstall(
            10,
            Match::any().with_nw_dst([10, 0, 0, 2], 32),
            vec![Action::Output(3)],
        );
        assert_eq!(late.len(), 1);
        let late_id = p.expected().rules().iter().map(|r| r.id.0).max().unwrap();
        // No controller FlowMod from here on: the tick alone must pick the
        // new rule up (the add above is still unconfirmed, so confirm it).
        let mut probed = Vec::new();
        let mut now = 0;
        for _ in 0..40 {
            now += 2_000_000;
            let outs = p.on_tick(now);
            for o in &outs {
                if let ProxyOutput::Inject(inj) = o {
                    if inj.meta.seq & STEADY_SEQ_BIT == 0 {
                        let hdr = packet_to_headervec(inj.in_port, &inj.fields);
                        p.on_probe_return(now, &inj.meta, 2, &headervec_to_packet(&hdr));
                    }
                }
            }
            probed.extend(steady_injections(&outs));
        }
        assert_eq!(p.in_flight(), 0);
        assert!(
            probed.contains(&late_id),
            "rule {late_id} preinstalled after the first refresh is never swept: {probed:?}"
        );
    }

    // ---- differential: incremental refresh vs. the whole-table oracle ----

    impl MonitorProxy {
        /// The refresh [`Self::refresh_steady_plans`] replaced, kept as its
        /// oracle: every monitorable rule through one batch, everything rebuilt.
        pub(super) fn refresh_steady_plans_whole_table(&mut self) -> (usize, usize) {
            let d = &mut self.dynamic;
            let engine = d.engine.as_mut().expect("the oracle plans inline");
            let ids = crate::pool::monitorable_ids(&d.table);
            let results = engine.generate_batch(&d.table, &ids, &d.catch);
            self.steady_version = d.table.version();
            let total = ids.len();
            let mut plans = Vec::with_capacity(total);
            self.unmonitorable.clear();
            for (id, r) in ids.into_iter().zip(results) {
                match r {
                    Ok(plan) => plans.push(plan),
                    Err(e) => self.unmonitorable.push((id, e)),
                }
            }
            let found = plans.len();
            if self.cfg.steady.is_some() {
                let kept: HashSet<RuleId> = plans.iter().map(|p| p.rule_id).collect();
                let s = &mut self.steady;
                let drops: Vec<RuleId> = s
                    .plans()
                    .keys()
                    .filter(|id| !kept.contains(id))
                    .copied()
                    .collect();
                s.patch_plans(plans, &drops);
            }
            (found, total)
        }
    }

    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as usize % n
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }
    }

    /// Two proxies fed the same inputs, one refreshing incrementally and one
    /// through the whole-table oracle, plus the datapath their (identical)
    /// outputs drive. Every call compares everything observable, and the
    /// datapath with the expected table ([`Twins::absorb`]). With a
    /// [`Deferred`] twin, a third proxy is fed the same inputs too.
    struct Twins {
        new: MonitorProxy,
        oracle: MonitorProxy,
        datapath: FlowTable,
        probes: Vec<ProbeInjection>,
        now: u64,
        token: u64,
        twin: Option<Deferred>,
    }

    /// What the updates see of an output stream: FlowMods, acks and alarms,
    /// and a dynamic probe by its metadata alone (its header is the
    /// planner's choice). The steady outputs are left out.
    fn update_view(outs: &[ProxyOutput]) -> Vec<String> {
        let steady = |o: &ProxyOutput| match o {
            ProxyOutput::Inject(i) => i.meta.seq & STEADY_SEQ_BIT != 0,
            ProxyOutput::RuleFailed { .. } | ProxyOutput::RuleRecovered { .. } => true,
            _ => false,
        };
        let view = |o: &ProxyOutput| match o {
            ProxyOutput::Inject(i) => format!("{:?}", i.meta),
            o => format!("{o:?}"),
        };
        outs.iter().filter(|o| !steady(o)).map(view).collect()
    }

    /// A proxy planning deferred, fed what the twins are fed, against a
    /// datapath its own FlowMods drive. A replica of the test's own answers
    /// its steps in order: plans are attached at once, as a planner that
    /// keeps up would; each refresh answer is delivered 0 to `max_delay`
    /// [`Twins`] calls late, and checked against the table it was planned
    /// on when it lands.
    struct Deferred {
        proxy: MonitorProxy,
        replica: Option<Replica>,
        datapath: FlowTable,
        probes: Vec<ProbeInjection>,
        /// The refresh answer on its way: calls left before it lands, the
        /// table it was planned on, the answer.
        answer: Option<(usize, FlowTable, Refreshed)>,
        max_delay: usize,
        rng: Rng,
        /// Whether the last call asked for a refresh.
        asked: bool,
    }

    impl Deferred {
        fn new(cfg: ProxyConfig, max_delay: usize, seed: u64) -> Deferred {
            let mut proxy = MonitorProxy::new(cfg);
            proxy.set_deferred_planning(true);
            Deferred {
                proxy,
                replica: None,
                datapath: FlowTable::new(),
                probes: Vec::new(),
                answer: None,
                max_delay,
                rng: Rng(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1),
                asked: false,
            }
        }

        /// Takes in what a call put out, replays the steps it recorded and
        /// attaches the plans (taking in what that puts out, in turn);
        /// returns the [`update_view`] of it all.
        fn absorb(&mut self, now: u64, mut outs: Vec<ProxyOutput>) -> Vec<String> {
            let mut view = Vec::new();
            loop {
                view.extend(update_view(&outs));
                for o in outs.drain(..) {
                    match o {
                        ProxyOutput::ToSwitch(fm) => {
                            let _ = self.datapath.apply(&fm);
                        }
                        ProxyOutput::Inject(inj) => self.probes.push(inj),
                        _ => {}
                    }
                }
                assert_eq!(self.datapath.rules(), self.proxy.expected().rules());
                let steps = self.proxy.take_plan_steps();
                if steps.is_empty() {
                    return view;
                }
                for step in steps {
                    match Replica::step(&mut self.replica, step) {
                        Some(Answer::Plan { token, plan }) => {
                            outs.extend(self.proxy.attach_plan(now, token, plan.ok()));
                        }
                        Some(Answer::Refresh(Some(refreshed))) => {
                            assert!(self.answer.is_none(), "a second refresh while one is out");
                            let table = self.replica.as_ref().unwrap().table.clone();
                            let delay = self.rng.below(self.max_delay + 1);
                            self.answer = Some((delay, table, refreshed));
                            self.asked = true;
                        }
                        Some(Answer::Refresh(None)) => unreachable!("the replica is never lost"),
                        None => {}
                    }
                }
            }
        }

        /// Answers the pending probes from the datapath but the dynamic ones
        /// `lost` (the steady ones all come back).
        fn answer(&mut self, now: u64, lost: &[u32]) -> Vec<String> {
            let mut view = Vec::new();
            for inj in std::mem::take(&mut self.probes) {
                if inj.meta.seq & STEADY_SEQ_BIT == 0 && lost.contains(&inj.meta.seq) {
                    continue;
                }
                let hdr = packet_to_headervec(inj.in_port, &inj.fields);
                for (port, out) in self.datapath.process(&hdr, 0) {
                    let fields = headervec_to_packet(&out);
                    let outs = self.proxy.on_probe_return(now, &inj.meta, port, &fields);
                    view.extend(self.absorb(now, outs));
                }
            }
            view
        }

        /// Lands the refresh answer once its delay is up (or at once, with
        /// `now`). What the proxy then holds must be right for the table the
        /// answer was planned on: every plan verifies on it, and the planned
        /// and unmonitorable rules are its monitorable rules.
        fn deliver(&mut self, now: bool) {
            match &mut self.answer {
                Some((left, ..)) if *left > 0 && !now => *left -= 1,
                Some(_) => {
                    let (_, table, refreshed) = self.answer.take().unwrap();
                    self.proxy.attach_refresh(Some(refreshed));
                    let plans = self.proxy.steady.plans();
                    let pins = self.proxy.catch_spec().all_pins();
                    for plan in plans.values() {
                        assert_eq!(
                            verify_probe(&table, plan.rule_id, &plan.header, &pins),
                            Some((plan.present.clone(), plan.absent.clone())),
                            "stale plan for {}",
                            plan.rule_id
                        );
                    }
                    let unmonitorable = self.proxy.unmonitorable.iter().map(|(id, _)| *id);
                    let mut held: Vec<RuleId> =
                        plans.keys().copied().chain(unmonitorable).collect();
                    let mut monitorable = monitorable_ids(&table);
                    held.sort_unstable();
                    monitorable.sort_unstable();
                    assert_eq!(held, monitorable);
                }
                None => {}
            }
        }
    }

    impl Twins {
        fn new(cfg: ProxyConfig) -> Twins {
            let mut oracle = MonitorProxy::new(cfg.clone());
            oracle.whole_table_oracle = true;
            Twins {
                new: MonitorProxy::new(cfg),
                oracle,
                datapath: FlowTable::new(),
                probes: Vec::new(),
                now: 0,
                token: 0,
                twin: None,
            }
        }

        /// Gives the deferred twin the call `f` makes and checks it puts out
        /// what the inline twins did (`inline`) for the updates.
        fn shadow(
            &mut self,
            what: &str,
            inline: &[String],
            f: impl FnOnce(&mut Deferred) -> Vec<String>,
        ) {
            let Some(d) = &mut self.twin else {
                return;
            };
            d.asked = false;
            let view = f(d);
            // Answered late, a refresh leaves the replica caching plans the
            // inline engine made at another time, and a delete may then
            // confirm by silence on one side only: the updates agree only
            // when answers land at once.
            if d.max_delay == 0 {
                assert_eq!(view, inline, "deferred {what} at t={}", self.now);
            }
            d.deliver(false);
        }

        /// Once the twins are quiet and every refresh has landed, the
        /// deferred twin plans the rules the inline one does, and finds the
        /// same rules unmonitorable for the same reasons.
        fn assert_deferred_agrees(&mut self) {
            if self.new.steady_version != self.new.expected().version() {
                self.refresh();
            }
            let now = self.now;
            let Some(d) = &mut self.twin else {
                return;
            };
            d.deliver(true);
            while d.proxy.steady_version != d.proxy.expected().version() {
                d.proxy.refresh_steady_plans();
                d.absorb(now, Vec::new());
                d.deliver(true);
            }
            let class = |(id, e): &(RuleId, ProbeError)| (*id, std::mem::discriminant(e));
            let held = |p: &MonitorProxy| {
                let mut ids: Vec<RuleId> = p.steady.plans().keys().copied().collect();
                ids.sort_unstable();
                (ids, p.unmonitorable.iter().map(class).collect::<Vec<_>>())
            };
            // Answered late, the replica's cache holds plans made at other
            // times than the inline engine's: a delete may confirm by
            // silence on one side only, so the twins agree only when answers
            // land at once. Either way the deferred proxy holds what a fresh
            // whole-table plan of its own expected table finds.
            if d.max_delay == 0 {
                assert_eq!(d.proxy.expected().rules(), self.new.expected().rules());
                assert_eq!(held(&d.proxy), held(&self.new));
            }
            let table = d.proxy.expected();
            let ids = monitorable_ids(table);
            let mut fresh = crate::planner::engine(d.proxy.catch_spec());
            let results = fresh.generate_batch(table, &ids, d.proxy.catch_spec());
            let (mut planned, mut failed) = (Vec::new(), Vec::new());
            for (id, r) in ids.into_iter().zip(results) {
                match r {
                    Ok(_) => planned.push(id),
                    Err(e) => failed.push(class(&(id, e))),
                }
            }
            planned.sort_unstable();
            assert_eq!(held(&d.proxy), (planned, failed), "against a fresh plan");
        }

        fn both<T: PartialEq + std::fmt::Debug>(
            &mut self,
            what: &str,
            f: impl Fn(&mut MonitorProxy) -> T,
        ) -> T {
            let a = f(&mut self.new);
            let b = f(&mut self.oracle);
            assert_eq!(a, b, "{what} at t={}", self.now);
            assert_eq!(
                self.new.steady.plans(),
                self.oracle.steady.plans(),
                "plans after {what} at t={}",
                self.now
            );
            assert_eq!(
                self.new.unmonitorable, self.oracle.unmonitorable,
                "unmonitorable after {what} at t={}",
                self.now
            );
            assert_eq!(self.new.steady_version, self.oracle.steady_version);
            a
        }

        /// The switch installs at once; probes wait for [`Self::answer`].
        /// The FlowMods a call sent, applied in the order sent, leave the
        /// switch holding what the proxy expects it to.
        fn absorb(&mut self, outs: Vec<ProxyOutput>) {
            for o in outs {
                match o {
                    ProxyOutput::ToSwitch(fm) => {
                        let _ = self.datapath.apply(&fm);
                    }
                    ProxyOutput::Inject(inj) => self.probes.push(inj),
                    _ => {}
                }
            }
            let expected = self.new.expected().rules();
            assert_eq!(self.datapath.rules(), expected, "mirror at t={}", self.now);
        }

        fn flowmod(&mut self, fm: FlowMod) {
            self.token += 1;
            let (now, token) = (self.now, self.token);
            let outs = self.both("flowmod", |p| {
                p.on_controller_flowmod(now, token, fm.clone())
            });
            self.shadow("flowmod", &update_view(&outs), |d| {
                let outs = d.proxy.on_controller_flowmod(now, token, fm);
                d.absorb(now, outs)
            });
            self.absorb(outs);
        }

        fn preinstall(&mut self, priority: u16, m: Match, actions: ActionProgram) {
            let outs = self.both("preinstall", |p| p.preinstall(priority, m, actions.clone()));
            let now = self.now;
            self.shadow("preinstall", &update_view(&outs), |d| {
                let outs = d.proxy.preinstall(priority, m, actions);
                d.absorb(now, outs)
            });
            self.absorb(outs);
        }

        fn refresh(&mut self) {
            self.both("refresh", |p| p.refresh_steady_plans());
            let now = self.now;
            self.shadow("refresh", &[], |d| {
                d.proxy.refresh_steady_plans();
                d.absorb(now, Vec::new())
            });
        }

        /// A tick. With the deferred twin's answers landing at once, it asks
        /// for a refresh on exactly the ticks the inline twins refresh on.
        fn tick(&mut self, advance: u64) {
            self.now += advance;
            let (now, version) = (self.now, self.new.steady_version);
            let outs = self.both("tick", |p| p.on_tick(now));
            let refreshed = self.new.steady_version != version;
            self.shadow("tick", &update_view(&outs), |d| {
                let outs = d.proxy.on_tick(now);
                d.absorb(now, outs)
            });
            if let Some(d) = self.twin.as_ref().filter(|d| d.max_delay == 0) {
                assert_eq!(d.asked, refreshed, "refresh at t={now}");
            }
            self.absorb(outs);
        }

        /// Answers the pending probes from the datapath, losing `lose`% of them.
        fn answer(&mut self, rng: &mut Rng, lose: usize) {
            let (mut view, mut lost) = (Vec::new(), Vec::new());
            for inj in std::mem::take(&mut self.probes) {
                if rng.chance(lose) {
                    lost.push(inj.meta.seq);
                    continue;
                }
                let hdr = packet_to_headervec(inj.in_port, &inj.fields);
                for (port, out) in self.datapath.process(&hdr, 0) {
                    let (now, fields) = (self.now, headervec_to_packet(&out));
                    let outs = self.both("probe return", |p| {
                        p.on_probe_return(now, &inj.meta, port, &fields)
                    });
                    view.extend(update_view(&outs));
                    self.absorb(outs);
                }
            }
            let now = self.now;
            self.shadow("probe returns", &view, |d| d.answer(now, &lost));
        }
    }

    /// Rules the proxy has asked its engine about, cached or not.
    fn lookups(p: &MonitorProxy) -> u64 {
        p.engine_stats().cache_hits + p.engine_stats().cache_misses
    }

    fn steady_cfg(adaptive: bool, drop_postpone: bool) -> ProxyConfig {
        let steady = SteadyConfig {
            adaptive: adaptive.then(monocle_sched::SchedConfig::default),
        };
        let mut cfg = ProxyConfig::new(7, CatchSpec::default()).with_steady(steady);
        if drop_postpone {
            cfg.drop_postpone = Some((DropTag(63), 4));
        }
        cfg
    }

    /// A small space of overlapping matches and few priorities, so strict
    /// operations hit, ADDs replace, and non-strict ones sweep several rules.
    fn random_match(rng: &mut Rng) -> Match {
        let m = match rng.below(4) {
            0 => Match::any().with_nw_dst([10, 0, 0, 0], 8),
            1 => Match::any().with_nw_dst([10, rng.below(2) as u8, 0, 0], 16),
            2 => Match::any().with_nw_dst([10, rng.below(2) as u8, rng.below(2) as u8, 0], 24),
            _ => Match::any().with_nw_dst(
                [
                    10,
                    rng.below(2) as u8,
                    rng.below(2) as u8,
                    rng.below(3) as u8,
                ],
                32,
            ),
        };
        match rng.below(3) {
            0 => m.with_nw_proto(6).with_tp_dst(80 + rng.below(2) as u16),
            _ => m,
        }
    }

    fn random_actions(rng: &mut Rng) -> ActionProgram {
        match rng.below(8) {
            0 => vec![], // a drop: postponed when drop-postponing is on
            1 => vec![Action::SetNwTos(8), Action::Output(2 + rng.below(3) as u16)],
            _ => vec![Action::Output(2 + rng.below(4) as u16)],
        }
    }

    fn random_step(tw: &mut Twins, rng: &mut Rng) {
        use monocle_openflow::FlowModCommand as C;
        let priority = 10 + 10 * rng.below(4) as u16;
        match rng.below(16) {
            0..=3 => tw.flowmod(FlowMod::add(
                priority,
                random_match(rng),
                random_actions(rng),
            )),
            4..=7 => {
                // Strict or not, modify or delete; a MODIFY that hits
                // nothing is an ADD.
                let command =
                    [C::Modify, C::ModifyStrict, C::Delete, C::DeleteStrict][rng.below(4)];
                let fm = FlowMod::add(priority, random_match(rng), random_actions(rng));
                tw.flowmod(FlowMod { command, ..fm });
            }
            8 => {
                // Monocle's own rules: production band or infrastructure.
                let priority = [priority, crate::catching::CATCH_PRIORITY][rng.below(2)];
                tw.preinstall(priority, random_match(rng), vec![Action::Output(9)]);
            }
            // A refresh whenever, in-flight updates or not.
            9 => tw.refresh(),
            10..=12 => tw.answer(rng, 20),
            _ => tw.tick(1_000_000 * (1 + rng.below(20) as u64)),
        }
    }

    /// Random steps with no refresh between them — no tick, no explicit
    /// refresh — until the expected table's change log no longer reaches
    /// back to the last refresh, then a refresh: the one that has to fall
    /// back to the whole table.
    fn overflow_the_change_log(tw: &mut Twins, rng: &mut Rng) {
        let mut steps = 0;
        while tw
            .new
            .expected()
            .changes_since(tw.new.steady_version)
            .is_some()
        {
            let priority = 10 + 10 * rng.below(4) as u16;
            match rng.below(4) {
                0 => tw.answer(rng, 0),
                1 => {
                    use monocle_openflow::FlowModCommand as C;
                    let command = [C::Add, C::Modify, C::Delete, C::DeleteStrict][rng.below(4)];
                    let fm = FlowMod::add(priority, random_match(rng), random_actions(rng));
                    tw.flowmod(FlowMod { command, ..fm });
                }
                // An ADD over an existing entry replaces it in place.
                _ => tw.preinstall(priority, random_match(rng), random_actions(rng)),
            }
            steps += 1;
            assert!(steps < 10_000, "the change log never overflowed");
        }
        tw.refresh();
    }

    /// One random script through the twins and a deferred twin whose
    /// refresh answers land up to `max_delay` calls late.
    fn random_script(seed: u64, max_delay: usize) {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let cfg = steady_cfg(seed.is_multiple_of(2), !seed.is_multiple_of(3));
        let mut tw = Twins::new(cfg.clone());
        tw.twin = Some(Deferred::new(cfg, max_delay, seed));
        tw.preinstall(1, Match::any(), vec![Action::Output(9)]);
        let (prio, m, acts) = droppost::drop_tag_rule(DropTag(63));
        tw.preinstall(prio, m, acts);
        for step in 0..250 {
            if step == 125 {
                overflow_the_change_log(&mut tw, &mut rng);
            }
            random_step(&mut tw, &mut rng);
        }
        // Drain: everything confirmed or alarmed, one last refresh.
        for _ in 0..30 {
            tw.answer(&mut rng, 0);
            tw.tick(2_000_000);
        }
        assert!(!tw.new.steady.plans().is_empty(), "seed {seed}: no refresh");
        tw.assert_deferred_agrees();
    }

    /// Scripts to run: `PROPTEST_CASES` of them (the deeper pass in
    /// `ci.sh`), 40 by default.
    fn script_count() -> u64 {
        let cases = std::env::var("PROPTEST_CASES").ok();
        cases.and_then(|c| c.parse().ok()).unwrap_or(40)
    }

    #[test]
    fn incremental_refresh_matches_whole_table_oracle_on_random_scripts() {
        for seed in 1..=script_count() {
            random_script(seed, 3);
        }
    }

    /// The staleness window does not widen: answered at once, a deferred
    /// proxy asks for its refresh on exactly the ticks an inline one
    /// refreshes on (checked in [`Twins::tick`]), and puts out what the
    /// inline one does, in the same order. Seeds 90 and 204 are the first
    /// scripts on which an inline plan answer once went out before the next
    /// confirmation of the same tick, ahead of where a deferred one lands.
    #[test]
    fn a_deferred_refresh_is_asked_for_on_the_ticks_an_inline_one_runs() {
        for seed in (1..=script_count()).chain([90, 204]) {
            random_script(seed, 0);
        }
    }

    /// Replays `steps` on `replica`, returning the answers.
    fn replay(replica: &mut Option<Replica>, steps: Vec<Step>) -> Vec<Answer> {
        let answers = steps.into_iter().map(|s| Replica::step(replica, s));
        answers.flatten().collect()
    }

    #[test]
    fn a_late_refresh_answer_is_applied_and_the_next_is_due_at_once() {
        const MS: u64 = 1_000_000;
        let mut p = MonitorProxy::new(steady_cfg(false, false));
        p.set_deferred_planning(true);
        let mut replica = None;
        let host = |h| Match::any().with_nw_dst([10, 0, 0, h], 32);
        let planned = |p: &MonitorProxy| p.steady.plans().len();
        p.preinstall(1, Match::any(), vec![Action::Output(9)]);
        p.preinstall(10, host(1), vec![Action::Output(2)]);
        // The first tick asks for the first refresh, planned on two rules.
        p.on_tick(0);
        let Some(Answer::Refresh(Some(first))) = replay(&mut replica, p.take_plan_steps()).pop()
        else {
            panic!("no refresh asked for");
        };
        assert_eq!(
            (first.results.len(), first.version),
            (2, p.expected().version())
        );
        // A third rule before the answer lands: the refresh is due again by
        // the old rule, but not asked for while the first is out.
        p.preinstall(10, host(2), vec![Action::Output(3)]);
        for t in 1..=3 {
            p.on_tick(t * MS);
            let steps = p.take_plan_steps();
            assert!(
                !steps.iter().any(|s| matches!(s, Step::Refresh { .. })),
                "{steps:?}"
            );
            replay(&mut replica, steps);
        }
        assert_eq!(planned(&p), 0);
        // It lands at a later version and is applied all the same.
        assert!(first.version < p.expected().version());
        p.attach_refresh(Some(first));
        assert_eq!(planned(&p), 2);
        // The next refresh is due at once, on the very next tick, and brings
        // the third rule in.
        p.on_tick(4 * MS);
        let answers = replay(&mut replica, p.take_plan_steps());
        let [Answer::Refresh(Some(second))] = &answers[..] else {
            panic!("{answers:?}");
        };
        let third = p.expected().rules().iter().find(|r| r.match_ == host(2));
        let third = third.unwrap().id;
        assert!(second.results.iter().any(|(id, _)| *id == third));
        p.attach_refresh(Some(second.clone()));
        assert_eq!(planned(&p), 3);
        assert_eq!(p.refresh_steady_plans(), (3, 3));
    }

    /// A planner that lost the switch's table answers a refresh with
    /// `None`. The proxy then drops every steady plan and failure: it keeps
    /// probing nothing the planner can no longer re-plan, and raises no
    /// verdict, not even for the probes still out. The next refresh is asked
    /// for as usual.
    #[test]
    fn a_lost_refresh_answer_drops_every_steady_plan() {
        const MS: u64 = 1_000_000;
        let mut p = MonitorProxy::new(steady_cfg(false, false));
        p.set_deferred_planning(true);
        let mut replica = None;
        let host = |h| Match::any().with_nw_dst([10, 0, 0, h], 32);
        p.preinstall(1, Match::any(), vec![Action::Output(9)]);
        p.preinstall(10, host(1), vec![Action::Output(2)]);
        p.preinstall(5, host(1), vec![Action::Output(3)]); // hidden
        p.on_tick(0);
        let Some(Answer::Refresh(first)) = replay(&mut replica, p.take_plan_steps()).pop() else {
            panic!("no refresh asked for");
        };
        p.attach_refresh(first);
        assert_eq!(p.steady.plans().len(), 2);
        assert_eq!(p.unmonitorable.len(), 1);
        let outs = p.on_tick(MS);
        assert!(!steady_injections(&outs).is_empty(), "{outs:?}");
        // A new rule; its refresh is answered by a planner that lost the
        // table.
        p.preinstall(10, host(2), vec![Action::Output(3)]);
        p.on_tick(2 * MS);
        let steps = p.take_plan_steps();
        assert!(steps.iter().any(|s| matches!(s, Step::Refresh { .. })));
        p.attach_refresh(None);
        assert!(p.steady.plans().is_empty());
        assert!(p.unmonitorable.is_empty());
        // Past every probe's timeout and retries: nothing injected, nothing
        // failed.
        for t in 3..2_000 {
            let outs = p.on_tick(t * MS);
            assert!(outs.is_empty(), "{outs:?}");
        }
        p.preinstall(10, host(3), vec![Action::Output(4)]);
        p.on_tick(2_000 * MS);
        let steps = p.take_plan_steps();
        assert!(steps.iter().any(|s| matches!(s, Step::Refresh { .. })));
    }

    /// Through the one way back, inline and deferred alike: a plan answer
    /// that no update awaits — for a token never started, for an update
    /// still queued, or a second one for an update already answered — puts
    /// nothing out and changes no count.
    #[test]
    fn a_plan_answer_no_update_awaits_changes_nothing() {
        for deferred in [false, true] {
            let mut p = proxy();
            p.set_deferred_planning(deferred);
            let subnet = Match::any().with_nw_dst([10, 0, 0, 0], 24);
            p.on_controller_flowmod(0, 1, FlowMod::add(5, subnet, vec![Action::Output(2)]));
            // Overlaps update 1: queued behind it.
            p.on_controller_flowmod(0, 2, add_fm([10, 0, 0, 1], 3));
            let mut replica = None;
            for answer in replay(&mut replica, p.take_plan_steps()) {
                assert_eq!(injections(&p.answer(1, answer)).len(), 1);
            }
            let counts =
                |p: &MonitorProxy| (p.in_flight(), p.dynamic.queued.len(), p.awaiting_plans());
            assert_eq!(counts(&p), (1, 1, 0), "deferred {deferred}");
            let id = p.expected().rules().iter().find(|r| r.priority == 5);
            let plan = crate::planner::engine(p.catch_spec()).generate(
                p.expected(),
                id.unwrap().id,
                p.catch_spec(),
            );
            assert!(plan.is_ok());
            for token in [1, 2, 99] {
                for plan in [plan.clone(), Err(ProbeError::Hidden)] {
                    let outs = p.answer(2, Answer::Plan { token, plan });
                    assert!(
                        outs.is_empty(),
                        "deferred {deferred}, token {token}: {outs:?}"
                    );
                    assert_eq!(counts(&p), (1, 1, 0), "deferred {deferred}, token {token}");
                }
            }
        }
    }

    /// The same differential once at paper size: the Stanford-like ACL table
    /// (2755 rules and the default route) brought up by preinstall, then 60
    /// updates with ticks, probe returns and stray refreshes between them.
    #[test]
    fn incremental_refresh_matches_whole_table_oracle_on_stanford_like_table() {
        use monocle_datasets::acl::{generate, AclConfig};
        let rules = generate(&AclConfig::stanford_like());
        let mut rng = Rng(0x5747_4f5a);
        let mut tw = Twins::new(steady_cfg(true, false));
        for r in &rules {
            tw.preinstall(r.priority, r.match_, r.actions.clone());
        }
        tw.tick(1_000_000);
        assert_eq!(tw.new.expected().len(), rules.len());
        assert!(tw.new.steady.plans().len() > rules.len() / 2);
        let mut deleted = None;
        for step in 0..60 {
            let r = &rules[rng.below(rules.len())];
            let fm = match step % 5 {
                0 => {
                    deleted = Some(r);
                    FlowMod::delete_strict(r.priority, r.match_)
                }
                1 => {
                    let r = deleted.take().unwrap();
                    FlowMod::add(r.priority, r.match_, r.actions.clone())
                }
                // ADD over an existing (priority, match): a replace.
                2 => FlowMod::add(r.priority, r.match_, vec![Action::Output(3)]),
                _ => FlowMod::modify_strict(
                    r.priority,
                    r.match_,
                    vec![Action::Output(2 + rng.below(14) as u16)],
                ),
            };
            tw.flowmod(fm);
            if rng.chance(25) {
                tw.refresh(); // while the update is in flight
            }
            for _ in 0..1 + rng.below(4) {
                tw.tick(1_000_000);
                tw.answer(&mut rng, 10);
            }
        }
        for _ in 0..20 {
            tw.answer(&mut rng, 0);
            tw.tick(2_000_000);
        }
        assert_eq!(tw.new.in_flight(), 0);
        // The point of it all: the incremental proxy looked up a fraction of
        // what the oracle did, and never fell back to a full resync.
        assert!(lookups(&tw.new) * 4 < lookups(&tw.oracle));
        assert_eq!(tw.new.engine_lifecycle().syncs_full, 1);
    }

    /// The cost side at paper size, as counts: one strict modify of a rule
    /// in a crowd evicts the plans whose probe it can reach — a fraction of
    /// the rules it overlaps, the rest counted as kept — the refresh looks
    /// up no more than those, and what the proxy then holds, re-planned or
    /// kept, is valid on the table as it is now.
    #[test]
    fn strict_modify_re_plans_the_probes_it_reaches_on_stanford_like_table() {
        use crate::plan::verify_probe;
        use monocle_datasets::acl::{generate, AclConfig};
        let mut p = MonitorProxy::new(steady_cfg(true, false));
        for r in generate(&AclConfig::stanford_like()) {
            p.preinstall(r.priority, r.match_, r.actions);
        }
        let (_, total) = p.refresh_steady_plans();
        assert_eq!(total, p.expected().len());
        let table = p.expected();
        let victim = table
            .rules()
            .iter()
            .find(|r| {
                p.steady.plans().contains_key(&r.id)
                    && (40..total / 2).contains(&table.overlapping(&r.tern).len())
            })
            .expect("a planned rule with 40 neighbours");
        let neighbourhood = table.overlapping(&victim.tern).len() as u64;
        let fm = FlowMod::modify_strict(victim.priority, victim.match_, vec![Action::Output(42)]);

        let (looked_up, before) = (lookups(&p), p.engine_lifecycle());
        p.on_controller_flowmod(1_000_000, 1, fm);
        p.refresh_steady_plans();
        let after = p.engine_lifecycle();
        let evicted = after.plans_invalidated - before.plans_invalidated;
        let kept = after.plans_kept - before.plans_kept;
        let hidden_kept = after.hidden_kept - before.hidden_kept;
        assert!(
            evicted >= 1 && evicted * 4 < neighbourhood,
            "{evicted} evicted of {neighbourhood}"
        );
        assert_eq!(
            evicted + kept + hidden_kept,
            neighbourhood,
            "one scan, every neighbour"
        );
        assert!(lookups(&p) - looked_up <= evicted);
        assert_eq!(after.syncs_full, 1);

        let (table, pins) = (p.expected(), p.catch_spec().all_pins());
        let plans = p.steady.plans();
        assert_eq!(plans.len() + p.unmonitorable.len(), total);
        for plan in plans.values() {
            assert_eq!(
                verify_probe(table, plan.rule_id, &plan.header, &pins),
                Some((plan.present.clone(), plan.absent.clone())),
                "stale plan for {}",
                plan.rule_id
            );
        }
    }
}
