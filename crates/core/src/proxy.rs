//! The per-switch Monitor proxy (§7).
//!
//! The paper's Monitor proxy intercepts one controller↔switch connection:
//! it forwards FlowMods immediately (keeping latency off the critical
//! path), tracks the expected flow table, generates and injects probes, and
//! acknowledges updates to the controller once they are provably in the
//! data plane. [`MonitorProxy`] is that component as a pure state machine;
//! the transport lives outside it: `monocle_net::ProxyApp` runs it over
//! real OpenFlow TCP connections, and [`crate::harness`] runs it in the
//! packet-level simulator, where it also plays the role of the paper's
//! Multiplexer.

use crate::droppost::{self, DropTag};
use crate::dynamic::{DynAction, DynamicConfig, DynamicMonitor};
use crate::encode::CatchSpec;
use crate::engine::EngineStats;
use crate::generator::{GenStats, GeneratorConfig, ProbeError};
use crate::plan::{ProbePlan, STEADY_SEQ_BIT};
use crate::steady::{SteadyAction, SteadyConfig, SteadyMonitor};
use monocle_openflow::flowmatch::packet_to_headervec;
use monocle_openflow::table::IdHashMap;
use monocle_openflow::{ActionProgram, FlowMod, Match, PortNo, RuleId};
use monocle_packet::{PacketFields, ProbeMeta};
use std::collections::HashSet;

/// Proxy configuration.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Identifier embedded in probe metadata (the switch's datapath id).
    pub switch_id: u64,
    /// Collection pins for this switch's probes.
    pub catch: CatchSpec,
    /// Dynamic monitoring settings, `gen` among them: how every probe of
    /// this switch is generated, dynamic and steady alike.
    pub dynamic: DynamicConfig,
    /// Steady-state monitoring settings (None = dynamic only).
    pub steady: Option<SteadyConfig>,
    /// Enable §4.3 drop-postponing with this tag and neighbor port.
    pub drop_postpone: Option<(DropTag, PortNo)>,
}

impl ProxyConfig {
    /// Minimal config for one switch.
    pub fn new(switch_id: u64, catch: CatchSpec) -> ProxyConfig {
        let gen = GeneratorConfig {
            default_in_port: catch.in_port.unwrap_or(1),
            ..GeneratorConfig::default()
        };
        ProxyConfig {
            switch_id,
            catch,
            dynamic: DynamicConfig {
                gen,
                ..DynamicConfig::default()
            },
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
    /// An update never confirmed within its budget.
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
    steady: Option<SteadyMonitor>,
    steady_dirty: bool,
    /// With steady monitoring on: rules whose steady plan, if any, predates
    /// their current version (added or modified since the last refresh), or
    /// whose last result is never cached ([`ProbeError::RepairFailed`]).
    /// Together with what the engine evicted, the next refresh's work.
    steady_stale: HashSet<RuleId>,
    /// Rules the last refresh planned (or found unmonitorable) that have
    /// left the expected table since.
    steady_removed: Vec<RuleId>,
    /// Pending drop-postponed finalizations: token -> finalize FlowMod.
    pending_finalize: Vec<(u64, FlowMod)>,
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
        let dynamic = DynamicMonitor::new(cfg.dynamic.clone(), cfg.catch.clone());
        let steady = cfg.steady.clone().map(SteadyMonitor::new);
        MonitorProxy {
            cfg,
            dynamic,
            steady,
            steady_dirty: false,
            steady_stale: HashSet::new(),
            steady_removed: Vec::new(),
            pending_finalize: Vec::new(),
            unmonitorable: Vec::new(),
            failures: IdHashMap::default(),
            #[cfg(test)]
            whole_table_oracle: false,
        }
    }

    /// The switch id.
    pub fn switch_id(&self) -> u64 {
        self.cfg.switch_id
    }

    /// The expected flow table.
    pub fn expected(&self) -> &monocle_openflow::FlowTable {
        self.dynamic.expected()
    }

    /// Unconfirmed dynamic updates.
    pub fn in_flight(&self) -> usize {
        self.dynamic.in_flight()
    }

    /// Aggregate probe-generation statistics of this proxy's engine: the
    /// steady refresh and, in inline mode, every update's probe (a §4.1
    /// modify is planned on a table of its own and counted nowhere).
    pub fn engine_stats(&self) -> GenStats {
        self.dynamic.engine().stats()
    }

    /// Engine cache/invalidation lifecycle counters.
    pub fn engine_lifecycle(&self) -> EngineStats {
        self.dynamic.engine().engine_stats()
    }

    /// Preinstalls a Monocle-owned rule (catching/filter/drop-tag rules):
    /// recorded in the expected table and forwarded, but not probed.
    pub fn preinstall(
        &mut self,
        priority: u16,
        match_: Match,
        actions: ActionProgram,
    ) -> Vec<ProxyOutput> {
        self.apply_own(FlowMod::add(priority, match_, actions))
    }

    /// Applies one of Monocle's own FlowMods (a preinstall, a drop-postponing
    /// finalizer) to the expected table and forwards it. Like a controller
    /// update it leaves the steady cycle stale and its footprint recorded;
    /// unlike one it is neither probed nor reported to the adaptive
    /// scheduler as churn.
    fn apply_own(&mut self, fm: FlowMod) -> Vec<ProxyOutput> {
        let Ok(applied) = self.dynamic.apply_expected(&fm) else {
            return Vec::new();
        };
        let touched = [applied.added, applied.modified].concat();
        self.note_steady_delta(&touched, &applied.removed);
        vec![ProxyOutput::ToSwitch(fm)]
    }

    /// Records a change of the expected table (rules added or modified,
    /// rules removed) for the next steady refresh. Both records stay within
    /// the size of the table however long that refresh is in coming: a
    /// removed rule leaves the stale set, and is only remembered if the last
    /// refresh left something of it to drop.
    fn note_steady_delta(&mut self, touched: &[RuleId], removed: &[RuleId]) {
        let Some(steady) = &self.steady else { return };
        if touched.is_empty() && removed.is_empty() {
            return;
        }
        self.steady_dirty = true;
        self.steady_stale.extend(touched);
        for id in removed {
            self.steady_stale.remove(id);
            if steady.has_plan(*id) || self.failures.contains_key(id) {
                self.steady_removed.push(*id);
            }
        }
    }

    /// A FlowMod from the controller.
    pub fn on_controller_flowmod(&mut self, now: u64, token: u64, fm: FlowMod) -> Vec<ProxyOutput> {
        self.steady_dirty = true;
        // §4.3: intercept drop installs when drop-postponing is on.
        let fm = match self.cfg.drop_postpone {
            Some((tag, port)) if droppost::is_drop_install(&fm) => {
                match droppost::postpone(&fm, tag, port) {
                    Some(p) => {
                        self.pending_finalize.push((token, p.finalize));
                        p.stand_in
                    }
                    None => fm,
                }
            }
            _ => fm,
        };
        let actions = self.dynamic.on_flowmod(now, token, fm);
        self.map_dynamic(now, actions)
    }

    /// Feeds the per-switch transport cost (RTT-derived factor ≥ 1.0 plus a
    /// backpressure flag) into the adaptive steady scheduler. No-op in
    /// fixed-sweep or dynamic-only configurations.
    pub fn set_switch_cost(&mut self, cost: f64, backpressured: bool) {
        if let Some(steady) = &mut self.steady {
            steady.set_switch_cost(cost, backpressured);
        }
    }

    /// Scheduler counters of the steady monitor, when adaptive.
    pub fn steady_sched_stats(&self) -> Option<monocle_sched::SchedStats> {
        self.steady.as_ref().and_then(|s| s.sched_stats())
    }

    /// A probe came back: `out_port` is the probed switch's output port the
    /// observation maps to, `fields` the received header. Its answer counts
    /// exactly when its sequence number is live: that of a probe of an update
    /// still unconfirmed, or of a steady probe still outstanding (every
    /// steady refresh discards those).
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
            let seq = meta.seq & !STEADY_SEQ_BIT;
            let Some(steady) = &mut self.steady else {
                return Vec::new();
            };
            let Some(plan) = steady.plan_for_seq(seq) else {
                return Vec::new();
            };
            let hdr = packet_to_headervec(plan.in_port, fields);
            let verdict = plan.classify(out_port, &hdr);
            let actions = steady.on_verdict(now, seq, verdict);
            actions
                .into_iter()
                .filter_map(|a| self.map_steady_action(a))
                .collect()
        } else {
            let Some(plan) = self.dynamic.plan_for_seq(meta.seq) else {
                return Vec::new();
            };
            let hdr = packet_to_headervec(plan.in_port, fields);
            let verdict = plan.classify(out_port, &hdr);
            let actions = self.dynamic.on_verdict(now, meta.seq, verdict);
            self.map_dynamic(now, actions)
        }
    }

    /// Periodic tick: dynamic re-probes, steady cycle, lazy plan refresh.
    pub fn on_tick(&mut self, now: u64) -> Vec<ProxyOutput> {
        let dyn_actions = self.dynamic.on_tick(now);
        let mut out = self.map_dynamic(now, dyn_actions);
        if self.steady.is_some() {
            if self.steady_needs_refresh() {
                self.refresh_steady_plans();
            }
            let actions = self.steady.as_mut().unwrap().on_tick(now);
            out.extend(
                actions
                    .into_iter()
                    .filter_map(|a| self.map_steady_action(a)),
            );
        }
        out
    }

    /// Chooses who plans the updates' probes: the proxy's own engine on the
    /// expected table, synchronously (inline, the default — the
    /// simulator/harness path), or a transport consumer's planner, which
    /// replays the planning steps drained with [`Self::take_plan_steps`]
    /// after every proxy call on a [`crate::planner::Replica`] and completes
    /// each update via [`Self::attach_plan`]
    /// ([`crate::dynamic::DynamicMonitor::set_deferred_planning`]).
    pub fn set_deferred_planning(&mut self, on: bool) {
        self.dynamic.set_deferred_planning(on);
    }

    /// Drains the deferred planning steps recorded since the last call.
    pub fn take_plan_steps(&mut self) -> Vec<crate::planner::Step> {
        self.dynamic.take_plan_steps()
    }

    /// Drains the deferred planning steps as the
    /// [`crate::dynamic::PlanRequest`]s a stateless planner takes (instead
    /// of [`Self::take_plan_steps`], not as well).
    pub fn take_plan_requests(&mut self) -> Vec<crate::dynamic::PlanRequest> {
        self.dynamic.take_plan_requests()
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
        let actions = self.dynamic.attach_plan(now, token, plan);
        self.map_dynamic(now, actions)
    }

    /// Updates forwarded to the switch whose deferred plan is still pending.
    pub fn awaiting_plans(&self) -> usize {
        self.dynamic.awaiting_plans()
    }

    /// Whether the steady plan cycle is stale and quiescent enough to
    /// regenerate: no dynamic update in flight racing the expected table.
    fn steady_needs_refresh(&self) -> bool {
        self.steady.is_some() && self.steady_dirty && self.dynamic.in_flight() == 0
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
    /// only the rules whose cached result the engine evicted (a changed rule
    /// covers the plan's probe header; a rule that hid this one left or
    /// moved; or a changed rule overlaps a rule no probe was found for for
    /// another reason), the rules added or modified, and the rules whose
    /// last failure is never cached go through
    /// [`crate::engine::ProbeEngine::generate_batch`] again — in table
    /// order, as a sweep of the whole table would reach them — and their
    /// plans are patched into the cycle ([`SteadyMonitor::patch_plans`]).
    /// The first refresh finds every rule added and none planned: the whole
    /// table. What still reads the table is one pass putting the stale ids
    /// in table order (a comparison per rule, nothing hashed or copied) and,
    /// when the set of planned rules changed, the re-index behind
    /// `patch_plans` and the unmonitorable list.
    pub fn refresh_steady_plans(&mut self) -> (usize, usize) {
        #[cfg(test)]
        if self.whole_table_oracle {
            return self.refresh_steady_plans_whole_table();
        }
        if self.steady.is_none() {
            return (0, 0);
        }
        self.steady_dirty = false;
        let mut stale: Vec<RuleId> = self.steady_stale.drain().collect();
        stale.extend(self.dynamic.take_evicted_expected());
        stale.sort_unstable();
        let mut affected: Vec<RuleId> = Vec::new();
        if !stale.is_empty() {
            let monitorable = crate::pool::monitorable(self.dynamic.expected());
            affected.extend(
                monitorable
                    .map(|r| r.id)
                    .filter(|id| stale.binary_search(id).is_ok()),
            );
        }
        let results = self.dynamic.generate_batch_expected(&affected);
        let mut plans = Vec::new();
        // Rules that must not have a plan after this refresh: the removed
        // ones (each was planned or unmonitorable, see `note_steady_delta`)
        // and those no probe was found for.
        let mut unplanned = std::mem::take(&mut self.steady_removed);
        let mut unmonitorable_moved = !unplanned.is_empty();
        for id in &unplanned {
            self.failures.remove(id);
        }
        for (id, r) in affected.into_iter().zip(results) {
            match r {
                Ok(plan) => {
                    unmonitorable_moved |= self.failures.remove(&id).is_some();
                    plans.push(plan);
                }
                Err(e) => {
                    if e == ProbeError::RepairFailed {
                        self.steady_stale.insert(id);
                    }
                    unplanned.push(id);
                    unmonitorable_moved |= self.failures.insert(id, e.clone()) != Some(e);
                }
            }
        }
        let steady = self.steady.as_mut().expect("checked above");
        if steady.patch_plans(plans, &unplanned) || unmonitorable_moved {
            // Monitorable rules either have a plan or are unmonitorable.
            let table = self.dynamic.expected();
            self.unmonitorable = crate::pool::monitorable(table)
                .filter_map(|r| Some((r.id, self.failures.get(&r.id)?.clone())))
                .collect();
            debug_assert_eq!(
                steady.plans().len() + self.unmonitorable.len(),
                crate::pool::monitorable(table).count()
            );
        }
        let found = steady.plans().len();
        (found, found + self.unmonitorable.len())
    }

    /// How the monitorable rules split by what the last steady refresh
    /// found for them: a probe, or the reason there is none. All zero
    /// without steady monitoring.
    pub fn coverage(&self) -> Coverage {
        let mut c = Coverage {
            verified: self.steady.as_ref().map_or(0, |s| s.plans().len()),
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

    fn map_dynamic(&mut self, now: u64, actions: Vec<DynAction>) -> Vec<ProxyOutput> {
        // Adaptive steady scheduling: rules touched by the updates these
        // actions started (added or modified — deletes leave the sweep at
        // the next refresh anyway) become hot. The ids come from the table's
        // own ApplyResult, not from a scan of the table.
        let touched = self.dynamic.take_touched_rules();
        let removed = self.dynamic.take_removed_rules();
        self.note_steady_delta(&touched, &removed);
        if let Some(steady) = self.steady.as_mut().filter(|s| s.is_adaptive()) {
            for id in touched {
                steady.note_rule_modified(id, now);
            }
        }
        let mut out = Vec::new();
        for a in actions {
            match a {
                DynAction::Forward(fm) => out.push(ProxyOutput::ToSwitch(fm)),
                DynAction::Inject { seq, .. } => {
                    if let Some(plan) = self.dynamic.plan_for_seq(seq) {
                        out.push(ProxyOutput::Inject(self.injection(plan, seq)));
                    }
                }
                DynAction::Confirmed { token, verified } => {
                    // Drop-postponing: on confirmation, swap in the real drop.
                    if let Some(pos) = self.pending_finalize.iter().position(|(t, _)| *t == token) {
                        let (_, finalize) = self.pending_finalize.remove(pos);
                        out.extend(self.apply_own(finalize));
                    }
                    out.push(ProxyOutput::Confirmed { token, verified });
                }
                DynAction::Alarm { token } => out.push(ProxyOutput::Alarm { token }),
            }
        }
        out
    }

    fn map_steady_action(&self, a: SteadyAction) -> Option<ProxyOutput> {
        match a {
            SteadyAction::Inject { seq, plan_idx } => {
                let plan = self.steady.as_ref()?.plans().get(plan_idx)?;
                Some(ProxyOutput::Inject(
                    self.injection(plan, seq | STEADY_SEQ_BIT),
                ))
            }
            SteadyAction::RuleFailed { rule_id, at } => {
                Some(ProxyOutput::RuleFailed { rule_id, at })
            }
            SteadyAction::RuleRecovered { rule_id } => Some(ProxyOutput::RuleRecovered { rule_id }),
        }
    }

    fn injection(&self, plan: &ProbePlan, seq: u32) -> ProbeInjection {
        ProbeInjection {
            meta: ProbeMeta {
                switch_id: self.cfg.switch_id,
                rule_id: plan.rule_id.0,
                seq,
            },
            fields: plan.fields,
            in_port: plan.in_port,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monocle_openflow::flowmatch::headervec_to_packet;
    use monocle_openflow::{Action, Match};

    fn proxy() -> MonitorProxy {
        let mut p = MonitorProxy::new(ProxyConfig::new(7, CatchSpec::default()));
        // default route
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
        let cfg = ProxyConfig::new(7, CatchSpec::default());
        let mut p = MonitorProxy::new(cfg.clone());
        // As if 2^31 - 1 dynamic probes had been sent already.
        p.dynamic = DynamicMonitor::with_first_seq(cfg.dynamic, cfg.catch, STEADY_SEQ_BIT - 1);
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
        let mut p = MonitorProxy::new(cfg.clone());
        // As if 2^31 - 2 steady probes had been sent already.
        p.steady = Some(SteadyMonitor::with_first_seq(
            cfg.steady.unwrap(),
            STEADY_SEQ_BIT - 2,
        ));
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
    /// steady probe's until the next refresh, a dynamic probe's until its
    /// update confirms — whatever else changed in the table meanwhile.
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
        assert_eq!(p.steady.as_ref().unwrap().plans().len(), 3);
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

        // The tick refreshes the steady plans (the two new rules join); the
        // second steady probe was sent before that, so the same answer that
        // failed the first rule is now ignored.
        p.on_tick(4_000_000);
        assert_eq!(p.steady.as_ref().unwrap().plans().len(), 5);
        let outs = p.on_probe_return(4_500_000, &second.meta, 9, &echo(&second));
        assert!(outs.is_empty(), "{outs:?}");
        let failed: Vec<u64> = p
            .steady
            .as_ref()
            .unwrap()
            .failed_rules()
            .map(|r| r.0)
            .collect();
        assert_eq!(failed, [first.meta.rule_id]);
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
            let ids = crate::pool::monitorable_ids(self.dynamic.expected());
            let results = self.dynamic.generate_batch_expected(&ids);
            self.steady_dirty = false;
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
            if let Some(s) = &mut self.steady {
                s.set_plans(plans);
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
    /// outputs drive. Every call compares everything observable.
    struct Twins {
        new: MonitorProxy,
        oracle: MonitorProxy,
        datapath: monocle_openflow::FlowTable,
        probes: Vec<ProbeInjection>,
        now: u64,
        token: u64,
    }

    impl Twins {
        fn new(cfg: ProxyConfig) -> Twins {
            let mut oracle = MonitorProxy::new(cfg.clone());
            oracle.whole_table_oracle = true;
            Twins {
                new: MonitorProxy::new(cfg),
                oracle,
                datapath: monocle_openflow::FlowTable::new(),
                probes: Vec::new(),
                now: 0,
                token: 0,
            }
        }

        fn both<T: PartialEq + std::fmt::Debug>(
            &mut self,
            what: &str,
            f: impl Fn(&mut MonitorProxy) -> T,
        ) -> T {
            let a = f(&mut self.new);
            let b = f(&mut self.oracle);
            assert_eq!(a, b, "{what} at t={}", self.now);
            let (sa, sb) = (self.new.steady.as_ref(), self.oracle.steady.as_ref());
            assert_eq!(
                sa.map(|s| s.plans()),
                sb.map(|s| s.plans()),
                "plans after {what} at t={}",
                self.now
            );
            assert_eq!(
                self.new.unmonitorable, self.oracle.unmonitorable,
                "unmonitorable after {what} at t={}",
                self.now
            );
            assert_eq!(self.new.steady_dirty, self.oracle.steady_dirty);
            a
        }

        /// The switch installs at once; probes wait for [`Self::answer`].
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
        }

        fn flowmod(&mut self, fm: FlowMod) {
            self.token += 1;
            let (now, token) = (self.now, self.token);
            let outs = self.both("flowmod", |p| {
                p.on_controller_flowmod(now, token, fm.clone())
            });
            self.absorb(outs);
        }

        fn preinstall(&mut self, priority: u16, m: Match, actions: ActionProgram) {
            let outs = self.both("preinstall", |p| p.preinstall(priority, m, actions.clone()));
            self.absorb(outs);
        }

        fn refresh(&mut self) {
            self.both("refresh", |p| p.refresh_steady_plans());
        }

        fn tick(&mut self, advance: u64) {
            self.now += advance;
            let now = self.now;
            let outs = self.both("tick", |p| p.on_tick(now));
            self.absorb(outs);
        }

        /// Answers the pending probes from the datapath, losing `lose`% of them.
        fn answer(&mut self, rng: &mut Rng, lose: usize) {
            for inj in std::mem::take(&mut self.probes) {
                if rng.chance(lose) {
                    continue;
                }
                let hdr = packet_to_headervec(inj.in_port, &inj.fields);
                for (port, out) in self.datapath.process(&hdr, 0) {
                    let (now, fields) = (self.now, headervec_to_packet(&out));
                    let outs = self.both("probe return", |p| {
                        p.on_probe_return(now, &inj.meta, port, &fields)
                    });
                    self.absorb(outs);
                }
            }
        }
    }

    /// Rules the proxy has asked its engine about, cached or not.
    fn lookups(p: &MonitorProxy) -> u64 {
        p.engine_stats().cache_hits + p.engine_stats().cache_misses
    }

    fn steady_cfg(adaptive: bool, drop_postpone: bool) -> ProxyConfig {
        let steady = SteadyConfig {
            adaptive: adaptive.then(monocle_sched::SchedConfig::default),
            ..SteadyConfig::default()
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

    #[test]
    fn incremental_refresh_matches_whole_table_oracle_on_random_scripts() {
        for seed in 1..=40u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut tw = Twins::new(steady_cfg(seed % 2 == 0, seed % 3 != 0));
            tw.preinstall(1, Match::any(), vec![Action::Output(9)]);
            let (prio, m, acts) = droppost::drop_tag_rule(DropTag(63));
            tw.preinstall(prio, m, acts);
            for _ in 0..250 {
                random_step(&mut tw, &mut rng);
            }
            // Drain: everything confirmed or alarmed, one last refresh.
            for _ in 0..30 {
                tw.answer(&mut rng, 0);
                tw.tick(2_000_000);
            }
            assert!(
                !tw.new.steady.as_ref().unwrap().plans().is_empty(),
                "seed {seed}: no refresh"
            );
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
        assert!(tw.new.steady.as_ref().unwrap().plans().len() > rules.len() / 2);
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
                p.steady.as_ref().unwrap().has_plan(r.id)
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
        let plans = p.steady.as_ref().unwrap().plans();
        assert_eq!(plans.len() + p.unmonitorable.len(), total);
        for plan in plans {
            assert_eq!(
                verify_probe(table, plan.rule_id, &plan.header, &pins),
                Some((plan.present.clone(), plan.absent.clone())),
                "stale plan for {}",
                plan.rule_id
            );
        }
    }
}
