//! Simulation harness: Monocle proxies wired into the network simulator.
//!
//! This module plays the paper's *Multiplexer* (§7): it owns one
//! [`MonitorProxy`] per monitored switch, routes PacketIns carrying probe
//! metadata to the right Monitor, turns probe injections into PacketOuts at
//! the upstream switch, and preinstalls the catching rules of the §6 plan.
//!
//! Experiments implement [`Experiment`]; [`MonocleApp`] drives them two ways:
//!
//! * [`MonocleApp::build`] — updates to monitored switches flow through the
//!   proxies; confirmations are probe-verified (rule provably in the data
//!   plane);
//! * [`MonocleApp::unmonitored`] — the baseline: every FlowMod is followed by
//!   a BarrierRequest, and the BarrierReply is taken as confirmation (which
//!   premature-ack switches render false, recreating the Fig. 5 blackholes).
//!   `build` treats every switch it does not monitor the same way.

use crate::catching::{self, CatchPlan, Strategy};
use crate::droppost::{drop_tag_rule, DropTag};
use crate::encode::CatchSpec;
use crate::proxy::{MonitorProxy, ProxyConfig, ProxyOutput};
use crate::steady::SteadyConfig;
use monocle_openflow::{Field, FlowMod, OfMessage, PortNo, RuleId};
use monocle_packet::ProbeMeta;
use monocle_switchsim::{AppCtx, ControlApp, Network, NodeRef, SimTime};
use std::collections::{BTreeMap, HashMap};

/// Timer token reserved for the harness's probe tick.
const TICK_TOKEN: u64 = u64::MAX;

/// Experiment-side IO: queued FlowMods and timers.
#[derive(Debug)]
pub struct ExpIo {
    /// Current time.
    pub now: SimTime,
    pub(crate) flowmods: Vec<(usize, u64, FlowMod)>,
    pub(crate) timers: Vec<(SimTime, u64)>,
}

impl ExpIo {
    fn new(now: SimTime) -> ExpIo {
        ExpIo {
            now,
            flowmods: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// Sends a FlowMod to `sw`; `token` is echoed in the confirmation.
    pub fn send_flowmod(&mut self, sw: usize, token: u64, fm: FlowMod) {
        self.flowmods.push((sw, token, fm));
    }

    /// Requests an [`Experiment::on_timer`] at absolute time `at`.
    pub fn timer_at(&mut self, at: SimTime, token: u64) {
        assert_ne!(token, TICK_TOKEN, "reserved token");
        self.timers.push((at, token));
    }
}

/// Controller logic under test (the consistent updater, the batch
/// installer, ...).
pub trait Experiment {
    /// Called once at simulation start.
    fn on_start(&mut self, io: &mut ExpIo);
    /// An update is confirmed: probe-verified under Monocle, barrier-acked
    /// under the baseline.
    fn on_confirmed(&mut self, _io: &mut ExpIo, _sw: usize, _token: u64, _verified: bool) {}
    /// Steady-state monitoring reports a failed rule.
    fn on_rule_failed(&mut self, _io: &mut ExpIo, _sw: usize, _rule: RuleId) {}
    /// A previously failed rule recovered.
    fn on_rule_recovered(&mut self, _io: &mut ExpIo, _sw: usize, _rule: RuleId) {}
    /// A requested timer fired.
    fn on_timer(&mut self, _io: &mut ExpIo, _token: u64) {}
}

/// One timestamped harness event (for experiment post-processing).
#[derive(Debug, Clone, PartialEq)]
pub enum HarnessEvent {
    /// Update confirmed.
    Confirmed {
        /// Switch.
        sw: usize,
        /// Token.
        token: u64,
        /// Time.
        at: SimTime,
        /// Probe-verified?
        verified: bool,
    },
    /// Update alarmed: the monitor gave it up unconfirmed, its
    /// [`crate::dynamic::UPDATE_DEADLINE`] past.
    Alarm {
        /// Switch.
        sw: usize,
        /// Token.
        token: u64,
        /// Time.
        at: SimTime,
    },
    /// Rule failure detected.
    RuleFailed {
        /// Switch.
        sw: usize,
        /// Rule.
        rule: RuleId,
        /// Time.
        at: SimTime,
    },
}

/// Proxy tick period, ns: one steady probe slot per tick (500 probes/s per
/// switch).
const TICK: SimTime = 2_000_000;
/// Budget for the exact coloring solver of the catch plan.
const COLORING_BUDGET: u64 = 100_000;

/// Harness configuration.
#[derive(Debug, Clone, Default)]
pub struct HarnessConfig {
    /// Steady-state config applied to monitored switches (None = dynamic
    /// monitoring only).
    pub steady: Option<SteadyConfig>,
    /// Enable §4.3 drop-postponing with this tag: drop installs become
    /// rewrite-and-forward stand-ins (positively probeable), finalized into
    /// real drops after confirmation. Drop-tag rules are preinstalled on
    /// every switch.
    pub drop_postpone: Option<DropTag>,
}

/// The Monocle-enabled controller application.
pub struct MonocleApp<E: Experiment> {
    /// The experiment logic.
    pub experiment: E,
    cfg: HarnessConfig,
    /// By switch: the probe tick goes through them in switch order, so a
    /// run repeats itself.
    proxies: BTreeMap<usize, MonitorProxy>,
    /// (switch, port) -> (peer switch, peer port), switch-switch links only.
    adjacency: HashMap<(usize, PortNo), (usize, PortNo)>,
    /// Per monitored switch: (upstream switch, upstream port toward probed).
    upstream: HashMap<usize, (usize, PortNo)>,
    /// The §6 catch plan.
    pub catch_plan: CatchPlan,
    /// Barrier-based confirmation for unmonitored switches: xid -> (sw, token).
    barrier_waits: HashMap<u32, (usize, u64)>,
    next_xid: u32,
    /// Timestamped confirmations/failures.
    pub events: Vec<HarnessEvent>,
}

impl<E: Experiment> MonocleApp<E> {
    /// Builds the app: derives the topology from `net`, plans catching
    /// rules, and instantiates proxies for `monitored` switches.
    ///
    /// The harness wires up the paper's strategy 1 (single reserved field —
    /// the configuration §8.3.2 concludes is the practical one). Strategy 2
    /// is implemented at the planning level ([`crate::catching`], evaluated
    /// in the Fig. 9 harness) but not as a live probe path.
    pub fn build(experiment: E, net: &Network, monitored: &[usize], cfg: HarnessConfig) -> Self {
        // Switch-switch adjacency + topology graph.
        let mut adjacency = HashMap::new();
        let mut graph = monocle_netgraph::Graph::new(net.num_switches());
        for (a, pa, b, pb) in net.links() {
            if let (NodeRef::Switch(sa), NodeRef::Switch(sb)) = (a, b) {
                adjacency.insert((sa, pa), (sb, pb));
                adjacency.insert((sb, pb), (sa, pa));
                graph.add_edge(sa, sb);
            }
        }
        let catch_plan = catching::plan(&graph, Strategy::OneField, COLORING_BUDGET);
        let mut proxies = BTreeMap::new();
        let mut upstream = HashMap::new();
        for &sw in monitored {
            // Injection point: the first switch-facing port.
            let (in_port, up) = adjacency
                .iter()
                .filter(|((s, _), _)| *s == sw)
                .map(|((_, p), peer)| (*p, *peer))
                .min_by_key(|(p, _)| *p)
                .unwrap_or_else(|| panic!("switch {sw} has no switch neighbor to inject from"));
            let catch =
                CatchSpec::tag(Field::DlVlan, catch_plan.probe_tag(sw)).with_in_port(in_port);
            let mut pcfg = ProxyConfig::new(sw as u64, catch);
            if let Some(s) = &cfg.steady {
                pcfg = pcfg.with_steady(s.clone());
            }
            if let Some(tag) = cfg.drop_postpone {
                // The stand-in forwards to the upstream neighbor (Figure 3's
                // port A), which carries the preinstalled drop-tag rule.
                pcfg.drop_postpone = Some((tag, in_port));
            }
            proxies.insert(sw, MonitorProxy::new(pcfg));
            upstream.insert(sw, up);
        }
        MonocleApp {
            cfg,
            proxies,
            adjacency,
            upstream,
            catch_plan,
            ..MonocleApp::unmonitored(experiment)
        }
    }

    /// The baseline app: monitors no switch, preinstalls nothing and runs no
    /// probe tick, so every update is confirmed by its barrier alone.
    pub fn unmonitored(experiment: E) -> Self {
        MonocleApp {
            experiment,
            cfg: HarnessConfig::default(),
            proxies: BTreeMap::new(),
            adjacency: HashMap::new(),
            upstream: HashMap::new(),
            catch_plan: catching::plan(&monocle_netgraph::Graph::new(0), Strategy::OneField, 0),
            barrier_waits: HashMap::new(),
            next_xid: 1,
            events: Vec::new(),
        }
    }

    /// Access a proxy (tests/inspection).
    pub fn proxy(&self, sw: usize) -> Option<&MonitorProxy> {
        self.proxies.get(&sw)
    }

    /// Aggregate probe-generation statistics across every monitored
    /// switch's [`crate::engine::ProbeEngine`] — the Multiplexer-level view
    /// of cache behavior (Fig. 8 instrumentation).
    pub fn probe_engine_stats(&self) -> crate::generator::GenStats {
        let mut total = crate::generator::GenStats::default();
        for p in self.proxies.values() {
            total.merge(&p.engine_stats());
        }
        total
    }

    fn adjacency_switch_count(&self) -> usize {
        self.adjacency
            .keys()
            .map(|(sw, _)| *sw + 1)
            .max()
            .unwrap_or(0)
    }

    fn xid(&mut self) -> u32 {
        self.next_xid += 1;
        self.next_xid
    }

    fn emit_outputs(&mut self, ctx: &mut AppCtx, sw: usize, outputs: Vec<ProxyOutput>) {
        let mut exp_io = ExpIo::new(ctx.now);
        for o in outputs {
            match o {
                ProxyOutput::ToSwitch(fm) => {
                    let xid = self.xid();
                    ctx.send(sw, xid, OfMessage::FlowMod(fm));
                }
                ProxyOutput::Inject(inj) => {
                    let Some(&(up_sw, up_port)) = self.upstream.get(&sw) else {
                        continue;
                    };
                    let frame = match monocle_packet::craft_packet(&inj.fields, &inj.meta.encode())
                    {
                        Ok(f) => f,
                        Err(_) => continue,
                    };
                    let xid = self.xid();
                    ctx.send(
                        up_sw,
                        xid,
                        OfMessage::PacketOut {
                            in_port: monocle_openflow::messages::PORT_NONE,
                            actions: vec![monocle_openflow::Action::Output(up_port)],
                            data: frame,
                        },
                    );
                }
                ProxyOutput::Confirmed { token, verified } => {
                    self.events.push(HarnessEvent::Confirmed {
                        sw,
                        token,
                        at: ctx.now,
                        verified,
                    });
                    self.experiment
                        .on_confirmed(&mut exp_io, sw, token, verified);
                }
                ProxyOutput::RuleFailed { rule_id, at } => {
                    self.events.push(HarnessEvent::RuleFailed {
                        sw,
                        rule: rule_id,
                        at,
                    });
                    self.experiment.on_rule_failed(&mut exp_io, sw, rule_id);
                }
                ProxyOutput::RuleRecovered { rule_id } => {
                    self.experiment.on_rule_recovered(&mut exp_io, sw, rule_id);
                }
                ProxyOutput::Alarm { token } => {
                    let at = ctx.now;
                    self.events.push(HarnessEvent::Alarm { sw, token, at });
                }
            }
        }
        self.apply_exp_io(ctx, exp_io);
    }

    fn apply_exp_io(&mut self, ctx: &mut AppCtx, io: ExpIo) {
        for (at, token) in io.timers {
            ctx.timer_at(at, token);
        }
        for (sw, token, fm) in io.flowmods {
            self.route_flowmod(ctx, sw, token, fm);
        }
    }

    fn route_flowmod(&mut self, ctx: &mut AppCtx, sw: usize, token: u64, fm: FlowMod) {
        if let Some(proxy) = self.proxies.get_mut(&sw) {
            let outputs = proxy.on_controller_flowmod(ctx.now, token, fm);
            self.emit_outputs(ctx, sw, outputs);
        } else {
            // Unmonitored switch: FlowMod + barrier; reply = confirmation.
            let xid = self.xid();
            ctx.send(sw, xid, OfMessage::FlowMod(fm));
            let bxid = self.xid();
            ctx.send(sw, bxid, OfMessage::BarrierRequest);
            self.barrier_waits.insert(bxid, (sw, token));
        }
    }
}

impl<E: Experiment> ControlApp for MonocleApp<E> {
    fn on_start(&mut self, ctx: &mut AppCtx) {
        // Preinstall the catching plan (§6): through proxies on monitored
        // switches (recorded in expected tables), directly elsewhere.
        let rules = self.catch_plan.rules.clone();
        for pr in rules {
            if let Some(proxy) = self.proxies.get_mut(&pr.switch) {
                let outputs = proxy.preinstall(pr.priority, pr.match_, pr.actions.clone());
                self.emit_outputs(ctx, pr.switch, outputs);
            } else {
                let xid = self.xid();
                ctx.send(
                    pr.switch,
                    xid,
                    OfMessage::FlowMod(FlowMod::add(pr.priority, pr.match_, pr.actions)),
                );
            }
        }
        // Drop-postponing prerequisite: every switch drops tagged traffic.
        if let Some(tag) = self.cfg.drop_postpone {
            let (prio, m, actions) = drop_tag_rule(tag);
            let switches: Vec<usize> = (0..self.adjacency_switch_count()).collect();
            for sw in switches {
                if let Some(proxy) = self.proxies.get_mut(&sw) {
                    let outputs = proxy.preinstall(prio, m, actions.clone());
                    self.emit_outputs(ctx, sw, outputs);
                } else {
                    let xid = self.xid();
                    ctx.send(
                        sw,
                        xid,
                        OfMessage::FlowMod(FlowMod::add(prio, m, actions.clone())),
                    );
                }
            }
        }
        if !self.proxies.is_empty() {
            ctx.timer_at(ctx.now + TICK, TICK_TOKEN);
        }
        let mut io = ExpIo::new(ctx.now);
        self.experiment.on_start(&mut io);
        self.apply_exp_io(ctx, io);
    }

    fn on_message(&mut self, ctx: &mut AppCtx, sw: usize, xid: u32, msg: OfMessage) {
        match msg {
            OfMessage::PacketIn { in_port, data, .. } => {
                let Ok((fields, payload)) = monocle_packet::parse_packet(&data) else {
                    return;
                };
                let Some(meta) = ProbeMeta::decode(&payload) else {
                    return; // production traffic reaching the controller
                };
                let probed = meta.switch_id as usize;
                // Where did the probed switch emit this probe? The catcher
                // `sw` received it on `in_port`; the adjacent peer must be
                // the probed switch.
                let Some(&(peer, peer_port)) = self.adjacency.get(&(sw, in_port)) else {
                    return;
                };
                if peer != probed {
                    // Caught by a non-adjacent switch (strategy-1 stray):
                    // cannot attribute an output port; ignore.
                    return;
                }
                if let Some(proxy) = self.proxies.get_mut(&probed) {
                    let outputs = proxy.on_probe_return(ctx.now, &meta, peer_port, &fields);
                    self.emit_outputs(ctx, probed, outputs);
                }
            }
            OfMessage::BarrierReply => {
                if let Some((bsw, token)) = self.barrier_waits.remove(&xid) {
                    self.events.push(HarnessEvent::Confirmed {
                        sw: bsw,
                        token,
                        at: ctx.now,
                        verified: false,
                    });
                    let mut io = ExpIo::new(ctx.now);
                    self.experiment.on_confirmed(&mut io, bsw, token, false);
                    self.apply_exp_io(ctx, io);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx, token: u64) {
        if token == TICK_TOKEN {
            let sws: Vec<usize> = self.proxies.keys().copied().collect();
            for sw in sws {
                let outputs = self.proxies.get_mut(&sw).unwrap().on_tick(ctx.now);
                self.emit_outputs(ctx, sw, outputs);
            }
            ctx.timer_at(ctx.now + TICK, TICK_TOKEN);
        } else {
            let mut io = ExpIo::new(ctx.now);
            self.experiment.on_timer(&mut io, token);
            self.apply_exp_io(ctx, io);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monocle_openflow::{Action, Match};
    use monocle_switchsim::{time, NetworkConfig, SwitchProfile};

    /// Triangle of switches; S0 is monitored.
    fn triangle_net(profile: SwitchProfile) -> Network {
        let mut net = Network::new(NetworkConfig::default());
        let s0 = net.add_switch(profile);
        let s1 = net.add_switch(SwitchProfile::ideal());
        let s2 = net.add_switch(SwitchProfile::ideal());
        net.connect(NodeRef::Switch(s0), NodeRef::Switch(s1));
        net.connect(NodeRef::Switch(s1), NodeRef::Switch(s2));
        net.connect(NodeRef::Switch(s2), NodeRef::Switch(s0));
        net
    }

    struct OneUpdate {
        sent: bool,
    }
    impl Experiment for OneUpdate {
        fn on_start(&mut self, io: &mut ExpIo) {
            // Default route out of port 1 (toward S1), then a specific rule
            // out of port 2 (toward S2).
            io.send_flowmod(0, 1, FlowMod::add(5, Match::any(), vec![Action::Output(1)]));
            io.send_flowmod(
                0,
                2,
                FlowMod::add(
                    10,
                    Match::any().with_nw_dst([10, 9, 9, 9], 32),
                    vec![Action::Output(2)],
                ),
            );
            self.sent = true;
        }
    }

    #[test]
    fn dynamic_confirmation_end_to_end() {
        let mut net = triangle_net(SwitchProfile::ideal());
        let mut app = MonocleApp::build(
            OneUpdate { sent: false },
            &net,
            &[0],
            HarnessConfig::default(),
        );
        net.start(&mut app);
        net.run_for(&mut app, time::s(2));
        let confirmed: Vec<u64> = app
            .events
            .iter()
            .filter_map(|e| match e {
                HarnessEvent::Confirmed {
                    token,
                    verified: true,
                    ..
                } => Some(*token),
                _ => None,
            })
            .collect();
        assert!(
            confirmed.contains(&2),
            "specific rule probe-confirmed: {:?}",
            app.events
        );
        // The data plane really holds the rules (catch rules + 2 production).
        assert!(net.switch(0).dataplane().len() >= 3);
    }

    /// The default route at start, then at 100 ms one more rule.
    struct LateUpdate;
    impl Experiment for LateUpdate {
        fn on_start(&mut self, io: &mut ExpIo) {
            io.send_flowmod(0, 1, FlowMod::add(5, Match::any(), vec![Action::Output(1)]));
            io.timer_at(time::ms(100), 0);
        }

        fn on_timer(&mut self, io: &mut ExpIo, _token: u64) {
            let specific = Match::any().with_nw_dst([10, 9, 9, 9], 32);
            io.send_flowmod(0, 2, FlowMod::add(10, specific, vec![Action::Output(2)]));
        }
    }

    /// A switch that acknowledges an install and swallows it: the update is
    /// never confirmed, and alarms on the first tick of its deadline.
    #[test]
    fn a_swallowed_install_alarms_on_its_deadline() {
        let mut net = triangle_net(SwitchProfile::ideal());
        let mut app = MonocleApp::build(LateUpdate, &net, &[0], HarnessConfig::default());
        net.start(&mut app);
        net.run_for(&mut app, time::ms(50));
        net.switch_mut(0).swallow_next_installs(1);
        let deadline = time::ms(100) + crate::dynamic::UPDATE_DEADLINE;
        net.run_until(&mut app, deadline + TICK);
        let ends: Vec<&HarnessEvent> = (app.events.iter())
            .filter(|e| {
                matches!(
                    e,
                    HarnessEvent::Confirmed { token: 2, .. } | HarnessEvent::Alarm { .. }
                )
            })
            .collect();
        assert!(
            matches!(ends[..], [HarnessEvent::Alarm { sw: 0, token: 2, at }] if *at >= deadline),
            "{ends:?}"
        );
    }

    #[test]
    fn premature_ack_switch_still_confirms_only_after_install() {
        let mut net = triangle_net(SwitchProfile::hp5406zl());
        let mut app = MonocleApp::build(
            OneUpdate { sent: false },
            &net,
            &[0],
            HarnessConfig::default(),
        );
        net.start(&mut app);
        net.run_for(&mut app, time::s(3));
        // Find the Monocle confirmation time of token 2.
        let t_confirm = app
            .events
            .iter()
            .find_map(|e| match e {
                HarnessEvent::Confirmed {
                    token: 2,
                    at,
                    verified: true,
                    ..
                } => Some(*at),
                _ => None,
            })
            .expect("confirmed");
        // The HP profile's install latency is 4ms/rule and the catch plan
        // installs rules first; the confirmation cannot beat the minimum
        // install latency of one rule.
        assert!(t_confirm >= time::ms(4), "confirmed at {t_confirm}");
    }

    #[test]
    fn steady_detects_failed_rule_in_simulator() {
        let mut net = triangle_net(SwitchProfile::ideal());
        let cfg = HarnessConfig {
            steady: Some(SteadyConfig::default()),
            ..Default::default()
        };
        let mut app = MonocleApp::build(OneUpdate { sent: false }, &net, &[0], cfg);
        net.start(&mut app);
        net.run_for(&mut app, time::s(2));
        // Fail the specific rule in the data plane, silently.
        let victim = net
            .switch(0)
            .dataplane()
            .rules()
            .iter()
            .find(|r| r.priority == 10)
            .map(|r| r.id)
            .expect("rule installed");
        net.switch_mut(0).fail_rule(victim);
        net.run_for(&mut app, time::s(4));
        let failed: Vec<_> = app
            .events
            .iter()
            .filter(|e| matches!(e, HarnessEvent::RuleFailed { .. }))
            .collect();
        assert!(
            !failed.is_empty(),
            "steady monitor must detect the failure: {:?}",
            app.events.len()
        );
    }

    #[test]
    fn adaptive_steady_detects_failed_rule_in_simulator() {
        let mut net = triangle_net(SwitchProfile::ideal());
        let cfg = HarnessConfig {
            steady: Some(SteadyConfig {
                adaptive: Some(monocle_sched::SchedConfig::default()),
            }),
            ..Default::default()
        };
        let mut app = MonocleApp::build(OneUpdate { sent: false }, &net, &[0], cfg);
        net.start(&mut app);
        net.run_for(&mut app, time::s(2));
        let victim = net
            .switch(0)
            .dataplane()
            .rules()
            .iter()
            .find(|r| r.priority == 10)
            .map(|r| r.id)
            .expect("rule installed");
        net.switch_mut(0).fail_rule(victim);
        net.run_for(&mut app, time::s(4));
        assert!(
            app.events
                .iter()
                .any(|e| matches!(e, HarnessEvent::RuleFailed { .. })),
            "adaptive steady monitor must detect the failure"
        );
        let stats = app.proxy(0).unwrap().steady_sched_stats().unwrap();
        assert!(stats.released > 0, "scheduler actually drove probes");
    }

    /// On each of two switches, a default route and a drop rule over it,
    /// which only §3.3 silence confirms: on a tick, the same tick on both.
    struct DropsOnTwo;
    impl Experiment for DropsOnTwo {
        fn on_start(&mut self, io: &mut ExpIo) {
            for sw in [0, 1] {
                io.send_flowmod(
                    sw,
                    1,
                    FlowMod::add(5, Match::any(), vec![Action::Output(1)]),
                );
                let drop = Match::any().with_nw_dst([10, 9, 9, 9], 32);
                io.send_flowmod(sw, 2, FlowMod::add(10, drop, vec![]));
            }
        }
    }

    /// Two monitored switches whose updates confirm on the same ticks: the
    /// probe tick goes through the proxies in switch order, so every run of
    /// one build puts out the same events in the same order.
    #[test]
    fn a_run_with_two_monitored_switches_repeats_itself() {
        let run = || {
            let mut net = triangle_net(SwitchProfile::ideal());
            let cfg = HarnessConfig::default();
            let mut app = MonocleApp::build(DropsOnTwo, &net, &[0, 1], cfg);
            net.start(&mut app);
            net.run_for(&mut app, time::ms(200));
            app.events
        };
        let first = run();
        let confirmed = |sw| {
            let on =
                |e: &&HarnessEvent| matches!(e, HarnessEvent::Confirmed { sw: s, .. } if *s == sw);
            first.iter().filter(on).count()
        };
        assert_eq!((confirmed(0), confirmed(1)), (2, 2), "{first:?}");
        for _ in 0..4 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn barrier_baseline_confirms_via_barrier() {
        let mut net = triangle_net(SwitchProfile::ideal());
        let mut app = MonocleApp::unmonitored(OneUpdate { sent: false });
        net.start(&mut app);
        net.run_for(&mut app, time::s(1));
        assert_eq!(app.events.len(), 2);
        assert!(app.events.iter().all(|e| matches!(
            e,
            HarnessEvent::Confirmed {
                verified: false,
                ..
            }
        )));
    }
}
