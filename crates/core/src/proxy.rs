//! The per-switch Monitor proxy (§7).
//!
//! The paper's Monitor proxy intercepts one controller↔switch connection:
//! it forwards FlowMods immediately (keeping latency off the critical
//! path), tracks the expected flow table, generates and injects probes, and
//! acknowledges updates to the controller once they are provably in the
//! data plane. [`MonitorProxy`] is that component as a pure state machine;
//! the transport (simulator, or a real OpenFlow connection) lives in
//! [`crate::harness`], which plays the role of the paper's Multiplexer.

use crate::droppost::{self, DropTag};
use crate::dynamic::{DynAction, DynamicConfig, DynamicMonitor};
use crate::encode::CatchSpec;
use crate::engine::EngineStats;
use crate::generator::{GenStats, GeneratorConfig};
use crate::plan::ProbePlan;
use crate::steady::{SteadyAction, SteadyConfig, SteadyMonitor};
use monocle_openflow::flowmatch::packet_to_headervec;
use monocle_openflow::{ActionProgram, FlowMod, Match, PortNo, RuleId};
use monocle_packet::{PacketFields, ProbeMeta};

/// Steady sequence numbers are tagged with this bit to share the probe-meta
/// sequence space with dynamic probes.
const STEADY_SEQ_BIT: u32 = 1 << 31;

/// Proxy configuration.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Identifier embedded in probe metadata.
    pub switch_id: u32,
    /// Collection pins for this switch's probes.
    pub catch: CatchSpec,
    /// Probe generation settings.
    pub gen: GeneratorConfig,
    /// Dynamic monitoring settings.
    pub dynamic: DynamicConfig,
    /// Steady-state monitoring settings (None = dynamic only).
    pub steady: Option<SteadyConfig>,
    /// Enable §4.3 drop-postponing with this tag and neighbor port.
    pub drop_postpone: Option<(DropTag, PortNo)>,
}

impl ProxyConfig {
    /// Minimal config for one switch.
    pub fn new(switch_id: u32, catch: CatchSpec) -> ProxyConfig {
        let gen = GeneratorConfig {
            default_in_port: catch.in_port.unwrap_or(1),
            ..GeneratorConfig::default()
        };
        ProxyConfig {
            switch_id,
            catch: catch.clone(),
            gen: gen.clone(),
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
    /// Payload metadata (switch, rule, epoch, sequence).
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

/// The per-switch Monitor proxy.
#[derive(Debug)]
pub struct MonitorProxy {
    cfg: ProxyConfig,
    dynamic: DynamicMonitor,
    steady: Option<SteadyMonitor>,
    steady_dirty: bool,
    /// Pending drop-postponed finalizations: token -> finalize FlowMod.
    pending_finalize: Vec<(u64, FlowMod)>,
    /// Rules for which steady-state probe generation failed (Table 2's
    /// "probes not found" set).
    pub unmonitorable: Vec<RuleId>,
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
            pending_finalize: Vec::new(),
            unmonitorable: Vec::new(),
        }
    }

    /// The switch id.
    pub fn switch_id(&self) -> u32 {
        self.cfg.switch_id
    }

    /// The expected flow table.
    pub fn expected(&self) -> &monocle_openflow::FlowTable {
        self.dynamic.expected().table()
    }

    /// Unconfirmed dynamic updates.
    pub fn in_flight(&self) -> usize {
        self.dynamic.in_flight()
    }

    /// Aggregate probe-generation statistics of this proxy's engine.
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
        let fm = FlowMod::add(priority, match_, actions);
        self.dynamic.engine_mut().note_flowmod(&fm);
        match self
            .dynamic
            .expected_mut()
            .install(priority, match_, fm.actions.clone())
        {
            Ok(_) => vec![ProxyOutput::ToSwitch(fm)],
            Err(_) => Vec::new(),
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
    /// observation maps to, `fields` the received header.
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
            if meta.epoch != steady.epoch {
                return Vec::new(); // §4.2 invalidation: stale probe
            }
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

    /// Chooses who answers the dynamic monitor's
    /// [`crate::dynamic::PlanRequest`]s (one per monitorable update, carrying
    /// the probed rule's overlap neighborhood): the monitor itself,
    /// synchronously (inline, the default — the simulator/harness path), or
    /// a transport consumer, which drains them with
    /// [`Self::take_plan_requests`] after every proxy call and completes
    /// them via [`Self::attach_plan`] once an external planner (typically an
    /// [`crate::pool::EnginePool`]) has produced the plan.
    pub fn set_deferred_planning(&mut self, on: bool) {
        self.dynamic.set_deferred_planning(on);
    }

    /// Drains the deferred plan requests produced since the last call.
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

    /// The expected table's update epoch (stamped into probe metadata).
    pub fn expected_epoch(&self) -> u32 {
        self.dynamic.expected().epoch()
    }

    /// Regenerates steady-state probe plans from the expected table for
    /// every production rule, skipping Monocle's own infrastructure rules
    /// (catching, filter and drop-tag bands —
    /// [`crate::pool::monitorable_ids`]). Records the rules no probe was
    /// found for in [`Self::unmonitorable`] and returns (found, total).
    ///
    /// Generation runs as one [`crate::engine::ProbeEngine::generate_batch`]
    /// through the proxy's shared engine, so a refresh after unrelated churn
    /// re-solves only the rules whose overlap neighborhood actually changed
    /// — steady-state re-probing of an unchanged table is pure cache hits.
    pub fn refresh_steady_plans(&mut self) -> (usize, usize) {
        let epoch = self.dynamic.expected().epoch();
        let ids = crate::pool::monitorable_ids(self.dynamic.expected().table());
        let results = self.dynamic.generate_batch_expected(&ids);
        self.steady_dirty = false;
        let total = ids.len();
        let mut plans = Vec::with_capacity(total);
        self.unmonitorable.clear();
        for (id, r) in ids.into_iter().zip(results) {
            match r {
                Ok(plan) => plans.push(plan),
                Err(_) => self.unmonitorable.push(id),
            }
        }
        let found = plans.len();
        if let Some(s) = &mut self.steady {
            s.set_plans(plans, epoch);
        }
        (found, total)
    }

    fn map_dynamic(&mut self, now: u64, actions: Vec<DynAction>) -> Vec<ProxyOutput> {
        // Adaptive steady scheduling: rules touched by the updates these
        // actions started (added or modified — deletes leave the sweep at
        // the next refresh anyway) become hot. The ids come from the table's
        // own ApplyResult, not from a scan of the table.
        let touched = self.dynamic.take_touched_rules();
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
                        self.dynamic.engine_mut().note_flowmod(&finalize);
                        let _ = self.dynamic.expected_mut().apply(&finalize);
                        out.push(ProxyOutput::ToSwitch(finalize));
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
                let steady = self.steady.as_ref()?;
                let plan = steady.plans().get(plan_idx)?;
                Some(ProxyOutput::Inject(self.injection_with_epoch(
                    plan,
                    seq | STEADY_SEQ_BIT,
                    steady.epoch,
                )))
            }
            SteadyAction::RuleFailed { rule_id, at } => {
                Some(ProxyOutput::RuleFailed { rule_id, at })
            }
            SteadyAction::RuleRecovered { rule_id } => Some(ProxyOutput::RuleRecovered { rule_id }),
        }
    }

    fn injection(&self, plan: &ProbePlan, seq: u32) -> ProbeInjection {
        self.injection_with_epoch(plan, seq, self.dynamic.expected().epoch())
    }

    fn injection_with_epoch(&self, plan: &ProbePlan, seq: u32, epoch: u32) -> ProbeInjection {
        ProbeInjection {
            meta: ProbeMeta {
                switch_id: self.cfg.switch_id,
                rule_id: plan.rule_id.0,
                epoch,
                seq,
                expected_code: plan.present.observations.len() as u32,
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
}
