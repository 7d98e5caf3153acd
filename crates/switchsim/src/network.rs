//! The network: event loop, links, hosts, control channel.

use crate::controller::{AppCmd, AppCtx, ControlApp};
use crate::profile::SwitchProfile;
use crate::switch::{Effect, SimSwitch};
use crate::SimTime;
use monocle_openflow::{wire, OfMessage, PortNo};
use monocle_packet::PacketFields;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Host index.
pub type HostId = usize;

/// Link index.
pub type LinkId = usize;

/// A node endpoint: switch or host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRef {
    /// Switch by index.
    Switch(usize),
    /// Host by index.
    Host(HostId),
}

/// Network construction and runtime parameters.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Seed for all randomness (loss, ECMP salt).
    pub seed: u64,
    /// One-way controller↔switch latency.
    pub ctrl_latency: SimTime,
    /// Default one-way link latency.
    pub link_latency: SimTime,
    /// Record host packet arrivals into the trace.
    pub record_host_trace: bool,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            seed: 0,
            ctrl_latency: crate::time::us(500),
            link_latency: crate::time::us(50),
            record_host_trace: false,
        }
    }
}

#[derive(Debug)]
struct Link {
    a: (NodeRef, PortNo),
    b: (NodeRef, PortNo),
    latency: SimTime,
    up: bool,
    loss: f64,
}

/// A periodic traffic generator attached to a host.
#[derive(Debug, Clone)]
struct HostFlow {
    fields: PacketFields,
    tag: u64,
    interval: SimTime,
    until: SimTime,
}

/// A host: one access link, optional flow generators, receive counters.
#[derive(Debug, Default)]
struct Host {
    link: Option<LinkId>,
    flows: Vec<HostFlow>,
    received: u64,
}

/// One record in the observation trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// The receiving host.
    pub node: NodeRef,
    /// Ingress port (hosts: the access port, always 1).
    pub in_port: PortNo,
    /// Flow tag parsed from the first 8 payload bytes (0 if absent).
    pub flow_tag: u64,
}

#[derive(Debug)]
enum Ev {
    FrameAt {
        node: NodeRef,
        port: PortNo,
        frame: Vec<u8>,
    },
    AgentWake {
        sw: usize,
    },
    InstallTick {
        sw: usize,
    },
    CtrlToSwitch {
        sw: usize,
        bytes: Vec<u8>,
    },
    CtrlToApp {
        sw: usize,
        bytes: Vec<u8>,
    },
    AppTimer {
        token: u64,
    },
    HostEmit {
        host: HostId,
        flow: usize,
        seq: u64,
    },
}

struct QueuedEvent {
    time: SimTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The simulated network.
pub struct Network {
    cfg: NetworkConfig,
    now: SimTime,
    seq: u64,
    events: BinaryHeap<Reverse<QueuedEvent>>,
    switches: Vec<SimSwitch>,
    hosts: Vec<Host>,
    links: Vec<Link>,
    /// `(node, port) -> link` mapping.
    port_links: std::collections::HashMap<(NodeRef, PortNo), LinkId>,
    next_port: std::collections::HashMap<NodeRef, PortNo>,
    rng: StdRng,
    ecmp_salt: u64,
    /// Observation trace (host arrivals), if enabled.
    pub trace: Vec<TraceEvent>,
    /// Messages delivered to the app are also counted here.
    pub app_messages: u64,
}

impl Network {
    /// Creates an empty network.
    pub fn new(cfg: NetworkConfig) -> Network {
        let rng = StdRng::seed_from_u64(cfg.seed);
        let ecmp_salt = cfg.seed ^ 0x5bd1_e995;
        Network {
            cfg,
            now: 0,
            seq: 0,
            events: BinaryHeap::new(),
            switches: Vec::new(),
            hosts: Vec::new(),
            links: Vec::new(),
            port_links: std::collections::HashMap::new(),
            next_port: std::collections::HashMap::new(),
            rng,
            ecmp_salt,
            trace: Vec::new(),
            app_messages: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Adds a switch; ports are assigned by subsequent [`Network::connect`]
    /// calls.
    pub fn add_switch(&mut self, profile: SwitchProfile) -> usize {
        let id = self.switches.len();
        self.switches.push(SimSwitch::new(id, profile, Vec::new()));
        id
    }

    /// Adds a host.
    pub fn add_host(&mut self) -> HostId {
        self.hosts.push(Host::default());
        self.hosts.len() - 1
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Read access to a switch.
    pub fn switch(&self, id: usize) -> &SimSwitch {
        &self.switches[id]
    }

    /// Mutable access to a switch (test setup / fault injection).
    pub fn switch_mut(&mut self, id: usize) -> &mut SimSwitch {
        &mut self.switches[id]
    }

    /// Packets received by a host.
    pub fn host_received(&self, h: HostId) -> u64 {
        self.hosts[h].received
    }

    /// Connects two nodes with a new link; returns the link id. Ports are
    /// auto-assigned starting at 1 on each node.
    pub fn connect(&mut self, a: NodeRef, b: NodeRef) -> LinkId {
        let pa = self.alloc_port(a);
        let pb = self.alloc_port(b);
        let id = self.links.len();
        self.links.push(Link {
            a: (a, pa),
            b: (b, pb),
            latency: self.cfg.link_latency,
            up: true,
            loss: 0.0,
        });
        self.port_links.insert((a, pa), id);
        self.port_links.insert((b, pb), id);
        id
    }

    fn alloc_port(&mut self, n: NodeRef) -> PortNo {
        let next = self.next_port.entry(n).or_insert(1);
        let p = *next;
        *next += 1;
        p
    }

    /// The link attached to `(node, port)`, if any.
    pub fn link_at(&self, node: NodeRef, port: PortNo) -> Option<LinkId> {
        self.port_links.get(&(node, port)).copied()
    }

    /// Enumerates all links as `(node_a, port_a, node_b, port_b)` — the
    /// Monocle harness uses this to build its adjacency and catch plans.
    pub fn links(&self) -> Vec<(NodeRef, PortNo, NodeRef, PortNo)> {
        self.links
            .iter()
            .map(|l| (l.a.0, l.a.1, l.b.0, l.b.1))
            .collect()
    }

    /// Fault injection: take a link down (in-flight frames still arrive).
    pub fn fail_link(&mut self, link: LinkId) {
        self.links[link].up = false;
    }

    /// Restores a failed link.
    pub fn restore_link(&mut self, link: LinkId) {
        self.links[link].up = true;
    }

    /// Sets a loss probability on a link (fault injection).
    pub fn set_link_loss(&mut self, link: LinkId, loss: f64) {
        self.links[link].loss = loss.clamp(0.0, 1.0);
    }

    /// Attaches a periodic flow generator to a host: every `interval` the
    /// host emits a frame with the given abstract header and an 16-byte
    /// payload carrying `tag` and a sequence number. Generation starts at
    /// `start` and stops at `until`.
    pub fn add_host_flow(
        &mut self,
        host: HostId,
        fields: PacketFields,
        tag: u64,
        start: SimTime,
        interval: SimTime,
        until: SimTime,
    ) {
        let flow_idx = self.hosts[host].flows.len();
        self.hosts[host].flows.push(HostFlow {
            fields,
            tag,
            interval,
            until,
        });
        self.push_at(
            start,
            Ev::HostEmit {
                host,
                flow: flow_idx,
                seq: 0,
            },
        );
    }

    fn push(&mut self, dt: SimTime, ev: Ev) {
        self.push_at(self.now + dt, ev);
    }

    fn push_at(&mut self, at: SimTime, ev: Ev) {
        let at = at.max(self.now);
        self.seq += 1;
        self.events.push(Reverse(QueuedEvent {
            time: at,
            seq: self.seq,
            ev,
        }));
    }

    /// App-side send: encodes the message and schedules delivery at the
    /// switch after the control-channel latency.
    pub fn app_send(&mut self, sw: usize, xid: u32, msg: &OfMessage) {
        let bytes = wire::encode(msg, xid);
        self.push(self.cfg.ctrl_latency, Ev::CtrlToSwitch { sw, bytes });
    }

    /// Runs the simulation until `deadline` (inclusive), dispatching app
    /// callbacks on `app`. Returns the number of events processed.
    pub fn run_until(&mut self, app: &mut dyn ControlApp, deadline: SimTime) -> u64 {
        let mut processed = 0;
        while let Some(Reverse(q)) = self.events.peek() {
            if q.time > deadline {
                break;
            }
            let Reverse(q) = self.events.pop().unwrap();
            self.now = q.time;
            self.dispatch(app, q.ev);
            processed += 1;
        }
        self.now = self.now.max(deadline);
        processed
    }

    /// Runs `dt` beyond the current time.
    pub fn run_for(&mut self, app: &mut dyn ControlApp, dt: SimTime) -> u64 {
        self.run_until(app, self.now + dt)
    }

    /// Calls the app's `on_start` and applies its commands.
    pub fn start(&mut self, app: &mut dyn ControlApp) {
        let mut ctx = AppCtx::new(self.now);
        app.on_start(&mut ctx);
        self.apply_cmds(ctx);
    }

    /// True when no events remain.
    pub fn idle(&self) -> bool {
        self.events.is_empty()
    }

    fn apply_cmds(&mut self, ctx: AppCtx) {
        for cmd in ctx.cmds {
            match cmd {
                AppCmd::Send { sw, xid, msg } => self.app_send(sw, xid, &msg),
                AppCmd::Timer { at, token } => self.push_at(at, Ev::AppTimer { token }),
            }
        }
    }

    fn dispatch(&mut self, app: &mut dyn ControlApp, ev: Ev) {
        match ev {
            Ev::CtrlToSwitch { sw, bytes } => match wire::decode(&bytes) {
                Ok((msg, xid, _)) => {
                    let fx = self.switches[sw].enqueue_ctrl(self.now, msg, xid);
                    self.apply_effects(sw, fx);
                }
                Err(e) => panic!("undecodable control message to switch {sw}: {e}"),
            },
            Ev::AgentWake { sw } => {
                let fx = self.switches[sw].agent_step(self.now);
                self.apply_effects(sw, fx);
            }
            Ev::InstallTick { sw } => {
                let fx = self.switches[sw].install_tick(self.now);
                self.apply_effects(sw, fx);
            }
            Ev::CtrlToApp { sw, bytes } => {
                let (msg, xid, _) =
                    wire::decode(&bytes).expect("undecodable message toward controller");
                self.app_messages += 1;
                let mut ctx = AppCtx::new(self.now);
                app.on_message(&mut ctx, sw, xid, msg);
                self.apply_cmds(ctx);
            }
            Ev::AppTimer { token } => {
                let mut ctx = AppCtx::new(self.now);
                app.on_timer(&mut ctx, token);
                self.apply_cmds(ctx);
            }
            Ev::FrameAt { node, port, frame } => match node {
                NodeRef::Switch(sw) => {
                    let fx = self.switches[sw].handle_frame(self.now, port, &frame, self.ecmp_salt);
                    self.apply_effects(sw, fx);
                }
                NodeRef::Host(h) => {
                    self.hosts[h].received += 1;
                    if self.cfg.record_host_trace {
                        let tag = parse_tag(&frame);
                        self.trace.push(TraceEvent {
                            time: self.now,
                            node,
                            in_port: port,
                            flow_tag: tag,
                        });
                    }
                }
            },
            Ev::HostEmit { host, flow, seq } => {
                let Some(link) = self.hosts[host].link else {
                    return;
                };
                let f = self.hosts[host].flows[flow].clone();
                let mut payload = Vec::with_capacity(16);
                payload.extend_from_slice(&f.tag.to_be_bytes());
                payload.extend_from_slice(&seq.to_be_bytes());
                if let Ok(frame) = monocle_packet::craft_packet(&f.fields, &payload) {
                    self.emit_on_link(NodeRef::Host(host), link, frame);
                }
                let next = self.now + f.interval;
                if next <= f.until {
                    self.push_at(
                        next,
                        Ev::HostEmit {
                            host,
                            flow,
                            seq: seq + 1,
                        },
                    );
                }
            }
        }
    }

    fn apply_effects(&mut self, sw: usize, effects: Vec<Effect>) {
        for e in effects {
            match e {
                Effect::WakeAgentAt(at) => self.push_at(at, Ev::AgentWake { sw }),
                Effect::InstallTickAt(at) => self.push_at(at, Ev::InstallTick { sw }),
                Effect::ToController { msg, xid, at } => {
                    let bytes = wire::encode(&msg, xid);
                    self.push_at(at + self.cfg.ctrl_latency, Ev::CtrlToApp { sw, bytes });
                }
                Effect::EmitFrame { port, frame, at } => {
                    let node = NodeRef::Switch(sw);
                    if let Some(link) = self.link_at(node, port) {
                        let hold = at.saturating_sub(self.now);
                        self.emit_on_link_delayed(node, link, frame, hold);
                    }
                    // No link on that port: frame exits the network silently
                    // (an egress port, §3.5).
                }
            }
        }
    }

    fn emit_on_link(&mut self, from: NodeRef, link: LinkId, frame: Vec<u8>) {
        self.emit_on_link_delayed(from, link, frame, 0);
    }

    fn emit_on_link_delayed(&mut self, from: NodeRef, link: LinkId, frame: Vec<u8>, hold: SimTime) {
        let l = &self.links[link];
        if !l.up {
            return;
        }
        if l.loss > 0.0 && self.rng.random::<f64>() < l.loss {
            return;
        }
        let (to, to_port) = if l.a.0 == from { l.b } else { l.a };
        let latency = l.latency;
        self.push(
            hold + latency,
            Ev::FrameAt {
                node: to,
                port: to_port,
                frame,
            },
        );
    }

    /// Convenience for tests: attaches the host's single access link.
    pub fn connect_host(&mut self, host: HostId, sw: usize) -> LinkId {
        let link = self.connect(NodeRef::Host(host), NodeRef::Switch(sw));
        self.hosts[host].link = Some(link);
        link
    }
}

/// Extracts the 8-byte flow tag from a frame's payload (0 when absent).
fn parse_tag(frame: &[u8]) -> u64 {
    match monocle_packet::parse_packet(frame) {
        Ok((_, payload)) if payload.len() >= 8 => {
            u64::from_be_bytes(payload[..8].try_into().unwrap())
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::NullApp;
    use monocle_openflow::{Action, FlowMod, Match};

    fn line_network() -> (Network, HostId, HostId, usize, usize) {
        // H1 - S0 - S1 - H2
        let mut net = Network::new(NetworkConfig {
            record_host_trace: true,
            ..Default::default()
        });
        let s0 = net.add_switch(SwitchProfile::ideal());
        let s1 = net.add_switch(SwitchProfile::ideal());
        let h1 = net.add_host();
        let h2 = net.add_host();
        net.connect_host(h1, s0); // s0 port 1
        net.connect(NodeRef::Switch(s0), NodeRef::Switch(s1)); // s0 p2, s1 p1
        net.connect_host(h2, s1); // s1 port 2
        (net, h1, h2, s0, s1)
    }

    fn install_forwarding(net: &mut Network, app: &mut dyn ControlApp, s0: usize, s1: usize) {
        net.app_send(
            s0,
            1,
            &OfMessage::FlowMod(FlowMod::add(1, Match::any(), vec![Action::Output(2)])),
        );
        net.app_send(
            s1,
            2,
            &OfMessage::FlowMod(FlowMod::add(1, Match::any(), vec![Action::Output(2)])),
        );
        net.run_for(app, crate::time::ms(100));
    }

    #[test]
    fn end_to_end_forwarding() {
        let (mut net, h1, h2, s0, s1) = line_network();
        let mut app = NullApp;
        install_forwarding(&mut net, &mut app, s0, s1);
        assert_eq!(net.switch(s0).dataplane().len(), 1);
        // 10 packets at 1ms intervals.
        net.add_host_flow(
            h1,
            PacketFields::default(),
            0xfeed,
            net.now(),
            crate::time::ms(1),
            net.now() + crate::time::ms(9),
        );
        net.run_for(&mut app, crate::time::ms(50));
        assert_eq!(net.host_received(h2), 10);
        assert_eq!(net.host_received(h1), 0);
        // Trace carries the flow tag.
        assert_eq!(net.trace.len(), 10);
        assert!(net.trace.iter().all(|t| t.flow_tag == 0xfeed));
    }

    #[test]
    fn table_miss_blackholes() {
        let (mut net, h1, h2, s0, _s1) = line_network();
        let mut app = NullApp;
        // Only s0 forwards; s1 has no rules -> drop at s1.
        net.app_send(
            s0,
            1,
            &OfMessage::FlowMod(FlowMod::add(1, Match::any(), vec![Action::Output(2)])),
        );
        net.run_for(&mut app, crate::time::ms(50));
        net.add_host_flow(
            h1,
            PacketFields::default(),
            1,
            net.now(),
            crate::time::ms(1),
            net.now() + crate::time::ms(4),
        );
        net.run_for(&mut app, crate::time::ms(50));
        assert_eq!(net.host_received(h2), 0);
        assert!(net.switch(1).stats.frames_dropped >= 5);
    }

    #[test]
    fn link_failure_stops_traffic() {
        let (mut net, h1, h2, s0, s1) = line_network();
        let mut app = NullApp;
        install_forwarding(&mut net, &mut app, s0, s1);
        let trunk = net.link_at(NodeRef::Switch(s0), 2).unwrap();
        net.add_host_flow(
            h1,
            PacketFields::default(),
            1,
            net.now(),
            crate::time::ms(1),
            net.now() + crate::time::s(1),
        );
        net.run_for(&mut app, crate::time::ms(10));
        let before = net.host_received(h2);
        assert!(before > 0);
        net.fail_link(trunk);
        net.run_for(&mut app, crate::time::ms(100));
        let after = net.host_received(h2);
        assert!(after <= before + 1, "at most one in-flight frame arrives");
    }

    #[test]
    fn lossy_link_drops_some() {
        let (mut net, h1, h2, s0, s1) = line_network();
        let mut app = NullApp;
        install_forwarding(&mut net, &mut app, s0, s1);
        let trunk = net.link_at(NodeRef::Switch(s0), 2).unwrap();
        net.set_link_loss(trunk, 0.5);
        net.add_host_flow(
            h1,
            PacketFields::default(),
            1,
            net.now(),
            crate::time::ms(1),
            net.now() + crate::time::ms(199),
        );
        net.run_for(&mut app, crate::time::s(1));
        let got = net.host_received(h2);
        assert!(got > 20 && got < 180, "~50% loss, got {got}/200");
    }

    #[test]
    fn app_timer_fires() {
        #[derive(Default)]
        struct TimerApp {
            fired: Vec<(SimTime, u64)>,
        }
        impl ControlApp for TimerApp {
            fn on_start(&mut self, ctx: &mut AppCtx) {
                ctx.timer_in(crate::time::ms(5), 1);
                ctx.timer_in(crate::time::ms(2), 2);
            }
            fn on_message(&mut self, _: &mut AppCtx, _: usize, _: u32, _: OfMessage) {}
            fn on_timer(&mut self, ctx: &mut AppCtx, token: u64) {
                self.fired.push((ctx.now, token));
                if token == 2 && self.fired.len() < 3 {
                    ctx.timer_in(crate::time::ms(1), 3);
                }
            }
        }
        let mut net = Network::new(NetworkConfig::default());
        let mut app = TimerApp::default();
        net.start(&mut app);
        net.run_until(&mut app, crate::time::ms(100));
        assert_eq!(app.fired.len(), 3);
        assert_eq!(app.fired[0], (crate::time::ms(2), 2));
        assert_eq!(app.fired[1], (crate::time::ms(3), 3));
        assert_eq!(app.fired[2], (crate::time::ms(5), 1));
    }

    #[test]
    fn barrier_roundtrip_through_channel() {
        struct BarrierApp {
            replies: Vec<(SimTime, u32)>,
        }
        impl ControlApp for BarrierApp {
            fn on_message(&mut self, ctx: &mut AppCtx, _sw: usize, xid: u32, msg: OfMessage) {
                if matches!(msg, OfMessage::BarrierReply) {
                    self.replies.push((ctx.now, xid));
                }
            }
        }
        let mut net = Network::new(NetworkConfig::default());
        let s = net.add_switch(SwitchProfile::ideal());
        let mut app = BarrierApp {
            replies: Vec::new(),
        };
        net.app_send(s, 77, &OfMessage::BarrierRequest);
        net.run_for(&mut app, crate::time::ms(50));
        assert_eq!(app.replies.len(), 1);
        assert_eq!(app.replies[0].1, 77);
        // Round trip >= 2x control latency.
        assert!(app.replies[0].0 >= 2 * crate::time::us(500));
    }

    #[test]
    fn packet_out_injection_reaches_host() {
        let (mut net, _h1, h2, s0, s1) = line_network();
        let mut app = NullApp;
        install_forwarding(&mut net, &mut app, s0, s1);
        let frame =
            monocle_packet::craft_packet(&PacketFields::default(), &7u64.to_be_bytes()).unwrap();
        net.app_send(
            s0,
            5,
            &OfMessage::PacketOut {
                in_port: 0xffff,
                actions: vec![Action::Output(2)],
                data: frame,
            },
        );
        net.run_for(&mut app, crate::time::ms(50));
        assert_eq!(net.host_received(h2), 1);
        assert_eq!(net.switch(s0).stats.packetouts, 1);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let (mut net, h1, _h2, s0, s1) = line_network();
            let mut app = NullApp;
            install_forwarding(&mut net, &mut app, s0, s1);
            let trunk = net.link_at(NodeRef::Switch(s0), 2).unwrap();
            net.set_link_loss(trunk, 0.3);
            net.add_host_flow(
                h1,
                PacketFields::default(),
                1,
                net.now(),
                crate::time::us(100),
                net.now() + crate::time::ms(100),
            );
            net.run_for(&mut app, crate::time::s(1));
            net.trace.clone()
        };
        assert_eq!(run(), run());
    }
}
