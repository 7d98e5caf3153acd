//! One OpenFlow 1.0 session between a switch and its controller, with
//! Monocle in the middle (§7), as a sans-IO state machine: a [`Channel`]
//! takes each side's messages, its planner's answers and the clock, and puts
//! out the frames each side is sent, in order, and the planning [`Step`]s
//! for the switch's planner. It reads no clock and owns no socket:
//! `monocle_net::ProxyApp` runs one per switch connection over TCP, and the
//! tests here run it on a virtual clock.
//!
//! ## The session
//!
//! 1. The channel greets the switch (`Hello` + `FeaturesRequest`). The
//!    switch's `FeaturesReply` carries its datapath id: the channel creates
//!    its [`MonitorProxy`] in deferred-planning mode, announces that the
//!    session reports claims (step 4), and preinstalls the default route.
//!    Its transport dials the controller then.
//! 2. The controller's `FeaturesRequest` is answered, under its xid, with
//!    the switch's own `FeaturesReply`: its datapath id, tables and ports.
//! 3. Each side's `EchoRequest` (OpenFlow keepalive) is answered by the
//!    channel under its xid and never crosses to the other side. Frames the
//!    channel neither consumes, originates nor renumbers pass through under
//!    their own xid in both directions.
//! 4. FlowMods are intercepted: the monitor sends each to the switch (its
//!    own preinstalls too) under an xid that carries its number among the
//!    monitor's FlowMods, and each FlowMod is an update of its own, whatever
//!    xid it came under. Its ack goes back as `BarrierReply { xid = FlowMod
//!    xid }`, its alarm as an `Error` under the same xid. Probes go to the
//!    switch as `PacketOut`s under [`PROBE_XID`], and probe `PacketIn`s are
//!    absorbed (one stamped with another datapath id — a neighbour's, caught
//!    here — is dropped: it is never production traffic). Every batch of
//!    FlowMods the channel sends is followed by a `BarrierRequest` of its
//!    own, whose xid carries how many FlowMods it covers; its reply never
//!    leaves the channel. It tells the monitor that the switch claims those
//!    FlowMods processed (`MonitorProxy::on_barrier_reply`), a hint that
//!    re-probes the updates it covers at once and starts their §3.3 silence
//!    count — never a confirmation. Until its claim an update is probed only
//!    when its plan lands; after it, again each time its last probe returns
//!    with the old state or times out (the wait doubling while its probes
//!    keep timing out). The timeout follows the session's own probe round
//!    trip ([`MonitorProxy::probe_timeout`], published as
//!    [`SessionStats::probe_timeout_ns`]), and a drop-confirmed update is
//!    acked once two probes sent since its claim have each gone that long
//!    unanswered. Every update ends in an ack or an alarm within
//!    [`crate::dynamic::UPDATE_DEADLINE`] of its claim (plus one probe
//!    tick). The session announces claims before its first FlowMod with a
//!    claim covering none (step 1), so even the updates that start before
//!    the switch answers its first barrier wait for their claim.
//! 5. The controller's `BarrierRequest` is Monocle's to answer, never the
//!    switch's: the channel answers it itself, under the controller's xid,
//!    once every FlowMod the controller sent before it is acked or alarmed
//!    *and* the switch has answered a barrier of the channel's sent after
//!    the last frame those FlowMods, and any message passed through before
//!    it, put on the wire. The barrier after each batch of FlowMods covers
//!    those; for a passed-through frame the channel sends one of its own
//!    when the controller's barrier comes. So the reply is never weaker than the switch's own barrier, and on a
//!    truthful switch it never comes before the commit. With nothing
//!    outstanding it is answered at once. A reply goes after every ack and
//!    alarm it covers, and replies go in the order their requests came.
//!
//! An `Error` the switch sends under a FlowMod's xid goes through the
//! monitor (`MonitorProxy::on_flowmod_error`), which names the controller
//! update that FlowMod carried, if no claim covers it yet — the switch sends
//! an error for a FlowMod before its reply to any later barrier. The
//! controller gets the switch's `Error` as the switch sent it, under its
//! FlowMod's xid. An update not answered yet gets no ack: it ends with an
//! alarm (the error stands in for the channel's own), and the updates queued
//! behind it are released. One answered already — an update with nothing to
//! probe is acked at once — gets the error after its ack. An error for one
//! of Monocle's own FlowMods goes no further. Any other `Error` passes
//! through under its xid.
//!
//! The channel numbers its own frames at the top of the xid space
//! (`0x8000_0000` and up; FlowMod and barrier numbers wrap at 2³⁰). A
//! controller whose own xids fall there keeps them, but an `Error` for one
//! of its frames may be taken for one of Monocle's.
//!
//! `RuleFailed` / `RuleRecovered` have no OpenFlow message to ride on; they
//! are counted ([`SessionStats::rules_failed`],
//! [`SessionStats::rules_recovered`]). Every session's monitor catches with
//! [`CatchSpec::default`]: one global spec cannot carry §6's per-switch
//! catching tags, which wait for a topology-aware layer over the sessions.

use std::collections::{BTreeMap, VecDeque};

use crate::proxy::{MonitorProxy, ProxyConfig, ProxyOutput};
use crate::{encode::CatchSpec, planner::Answer, planner::Step, steady::SteadyConfig};
use monocle_openflow::{messages::PORT_TABLE, Action, Match, OfMessage, PortNo};
use monocle_packet::ProbeMeta;
use monocle_sched::Ewma;

/// The end of the session a frame goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The switch.
    Switch,
    /// The controller.
    Controller,
}

/// A frame the channel puts out: where it goes, the message, its xid.
pub type Frame = (Side, OfMessage, u32);

/// The xid of the channel's probes: a frame to the switch under it is a
/// probe, discretionary traffic a transport may hold back under
/// backpressure.
pub const PROBE_XID: u32 = 0x8000_0000;
/// The tag of a FlowMod's xid; its low 30 bits are the FlowMod's number.
const FLOWMOD_XID: u32 = 0x8000_0000;
/// The tag of a barrier's xid; its low 30 bits are how many FlowMods it
/// covers.
const BARRIER_XID: u32 = 0xc000_0000;
const TAG: u32 = 0xc000_0000;
/// The `Error` an alarm goes back as (`OFPET_FLOW_MOD_FAILED`).
const ALARM: OfMessage = OfMessage::Error {
    err_type: 5,
    code: 0,
};

/// Per-switch counters ([`Channel::stats`]).
#[derive(Debug, Default, Clone)]
pub struct SessionStats {
    /// Datapath id of the session.
    pub dpid: u64,
    /// FlowMods intercepted from the controller.
    pub flowmods: u64,
    /// Probes injected: PacketOuts for the switch, counted as the channel
    /// puts them out (parked ones included).
    pub probes_injected: u64,
    /// Probe PacketIns absorbed.
    pub probes_returned: u64,
    /// Updates confirmed (verified or optimistic).
    pub confirmed: u64,
    /// Verified confirmations only.
    pub verified: u64,
    /// Alarms raised.
    pub alarms: u64,
    /// Probes parked by write backpressure (counted by the transport).
    pub paused: u64,
    /// EWMA of FlowMod→confirmation latency, nanoseconds (0 until the
    /// first sample).
    pub ack_rtt_ewma_ns: f64,
    /// Confirmations that contributed an ack RTT sample.
    pub ack_rtt_samples: u64,
    /// Steady-state: rules that stopped verifying.
    pub rules_failed: u64,
    /// Steady-state: failed rules that verified again.
    pub rules_recovered: u64,
    /// The channel's own barriers answered by the switch (claims fed to the
    /// monitor).
    pub claims: u64,
    /// The monitor's dynamic probe timeout when the counters were read, ns
    /// ([`MonitorProxy::probe_timeout`]): a drop-confirmed update is acked
    /// about twice this after its claim.
    pub probe_timeout_ns: u64,
    /// Probe returns the round-trip estimate behind `probe_timeout_ns`
    /// sampled.
    pub probe_rtt_samples: u64,
}

/// One switch session (module docs).
#[derive(Debug)]
pub struct Channel {
    preinstall_default: Option<(u16, PortNo)>,
    steady: Option<SteadyConfig>,
    /// The switch's `FeaturesReply`, once it came.
    features: Option<OfMessage>,
    /// Created by the switch's `FeaturesReply`.
    proxy: Option<MonitorProxy>,
    /// Unanswered updates by token, with when their FlowMod came. A token
    /// is the FlowMod's number among the controller's, above the xid its
    /// ack, alarm or error goes back under.
    updates: BTreeMap<u64, u64>,
    /// FlowMods sent to the switch: the last one's number.
    sent: u64,
    /// The channel's barriers sent, and answered.
    barriers: u64,
    answered: u64,
    /// A controller frame passed through to the switch since the channel's
    /// last barrier.
    passed: bool,
    /// The controller barriers not answered yet, in the order they came:
    /// `(xid, controller FlowMods before it, own barriers it waits for)`,
    /// the last set — to the channel's barriers sent by then — once every
    /// update before it is answered.
    held: VecDeque<(u32, u64, Option<u64>)>,
    frames: Vec<Frame>,
    /// FlowMod→confirmation latency, α 0.2.
    ack_rtt: Ewma,
    stats: SessionStats,
}

impl Channel {
    /// A session with a switch that has just connected: the greeting is
    /// the first frames out. `preinstall_default`: the `(priority, output
    /// port)` of the catch-all default route preinstalled on the switch,
    /// which gives probes a distinguishable absent path; `steady`: the
    /// monitor's steady-state monitoring, if any.
    pub fn new(preinstall_default: Option<(u16, PortNo)>, steady: Option<SteadyConfig>) -> Channel {
        let frames = vec![
            (Side::Switch, OfMessage::Hello, 0),
            (Side::Switch, OfMessage::FeaturesRequest, 0),
        ];
        Channel {
            preinstall_default,
            steady,
            features: None,
            proxy: None,
            updates: BTreeMap::new(),
            sent: 0,
            barriers: 0,
            answered: 0,
            passed: false,
            held: VecDeque::new(),
            frames,
            ack_rtt: Ewma::new(0.2),
            stats: SessionStats::default(),
        }
    }

    /// The switch's datapath id, once its `FeaturesReply` came: from then
    /// on the channel has frames for the controller.
    pub fn dpid(&self) -> Option<u64> {
        self.proxy.as_ref().map(|_| self.stats.dpid)
    }

    /// The frames put out since the last call, in order.
    pub fn frames(&mut self) -> std::vec::Drain<'_, Frame> {
        self.frames.drain(..)
    }

    /// The planning steps recorded since the last call, in order, for the
    /// switch's planner: it answers each on a [`crate::planner::Replica`]
    /// and hands the answers back through [`Self::answer`].
    pub fn take_steps(&mut self) -> Vec<Step> {
        let proxy = self.proxy.as_mut();
        proxy.map_or_else(Vec::new, MonitorProxy::take_plan_steps)
    }

    /// The session's counters, the probe timeout as of now.
    pub fn stats(&self) -> SessionStats {
        let mut stats = self.stats.clone();
        if let Some(p) = &self.proxy {
            stats.probe_timeout_ns = p.probe_timeout();
            stats.probe_rtt_samples = p.probe_rtt_samples();
        }
        stats
    }

    /// A message from the switch at `now`.
    pub fn on_switch(&mut self, now: u64, msg: OfMessage, xid: u32) {
        match msg {
            OfMessage::Hello => {}
            OfMessage::FeaturesReply { datapath_id, .. } if self.proxy.is_none() => {
                self.open(now, datapath_id, msg)
            }
            OfMessage::PacketIn {
                in_port, ref data, ..
            } => {
                // Probe payloads are self-identifying (magic + checksum):
                // this switch's go to its monitor, another switch's are
                // dropped, and everything else is production traffic.
                let parsed = monocle_packet::parse_packet(data).ok();
                let probe = parsed.and_then(|(f, p)| Some((f, ProbeMeta::decode(&p)?)));
                match probe {
                    Some((fields, meta)) if meta.switch_id == self.stats.dpid => {
                        self.stats.probes_returned += 1;
                        self.drive(now, |p| p.on_probe_return(now, &meta, in_port, &fields));
                    }
                    Some(_) => {}
                    None => self.put(Side::Controller, msg, xid),
                }
            }
            OfMessage::EchoRequest(data) => self.put(Side::Switch, OfMessage::EchoReply(data), xid),
            // The channel relays no barrier: every reply answers its own.
            OfMessage::BarrierReply if self.proxy.is_some() => {
                self.stats.claims += 1;
                self.answered = (self.answered + 1).min(self.barriers);
                let covered = self.number(xid);
                self.drive(now, |p| p.on_barrier_reply(now, covered));
            }
            OfMessage::Error { .. } if xid & TAG == FLOWMOD_XID && self.proxy.is_some() => {
                let number = self.number(xid);
                let proxy = self.proxy.as_mut().expect("checked");
                // A controller's error goes back as the switch sent it,
                // under the FlowMod's xid, in place of the update's ack or
                // alarm if it has none yet; one for Monocle's own goes no
                // further.
                let (token, outputs) = proxy.on_flowmod_error(now, number);
                if let Some(token) = token {
                    self.updates.remove(&token);
                    self.put(Side::Controller, msg, token as u32);
                }
                self.apply(now, outputs);
            }
            // FlowRemoved, …: pass through unchanged.
            other => self.put(Side::Controller, other, xid),
        }
    }

    /// A message from the controller at `now`.
    pub fn on_controller(&mut self, now: u64, msg: OfMessage, xid: u32) {
        match msg {
            OfMessage::Hello => {}
            OfMessage::FeaturesRequest => {
                let reply = self.features.clone().map(|f| (Side::Controller, f, xid));
                self.frames.extend(reply);
            }
            OfMessage::FlowMod(fm) => {
                self.stats.flowmods += 1;
                let token = self.stats.flowmods << 32 | u64::from(xid);
                self.updates.insert(token, now);
                self.drive(now, |p| p.on_controller_flowmod(now, token, fm));
            }
            OfMessage::EchoRequest(d) => self.put(Side::Controller, OfMessage::EchoReply(d), xid),
            OfMessage::BarrierRequest => {
                if self.passed {
                    self.send_barrier();
                }
                self.held.push_back((xid, self.stats.flowmods, None));
                self.settle();
            }
            // PacketOut, …: pass through to the switch.
            other => {
                self.passed = true;
                self.put(Side::Switch, other, xid);
            }
        }
    }

    /// The probe tick at `now`: re-probes, silence confirmations, deadlines
    /// and the steady cycle.
    pub fn on_tick(&mut self, now: u64) {
        self.drive(now, |p| p.on_tick(now))
    }

    /// The switch's planner answered a step at `now`.
    pub fn answer(&mut self, now: u64, answer: Answer) {
        self.drive(now, |p| p.answer(now, answer))
    }

    /// The switch said who it is: the monitor starts, claims announced, and
    /// the default route goes out.
    fn open(&mut self, now: u64, dpid: u64, features: OfMessage) {
        self.stats.dpid = dpid;
        self.features = Some(features);
        let mut cfg = ProxyConfig::new(dpid, CatchSpec::default());
        cfg.steady = self.steady.clone();
        let mut proxy = MonitorProxy::new(cfg);
        proxy.set_deferred_planning(true);
        // A claim covering nothing puts nothing out.
        let _ = proxy.on_barrier_reply(now, 0);
        let outputs = match self.preinstall_default {
            Some((prio, port)) => proxy.preinstall(prio, Match::any(), vec![Action::Output(port)]),
            None => Vec::new(),
        };
        self.proxy = Some(proxy);
        self.apply(now, outputs);
    }

    /// Calls `f` on the monitor, if there is one yet, and applies what it
    /// puts out.
    fn drive(&mut self, now: u64, f: impl FnOnce(&mut MonitorProxy) -> Vec<ProxyOutput>) {
        if let Some(outputs) = self.proxy.as_mut().map(f) {
            self.apply(now, outputs);
        }
    }

    /// Turns the monitor's outputs into frames — FlowMods sent are followed
    /// by one barrier of the channel's own — and answers the controller
    /// barriers whose time has come.
    fn apply(&mut self, now: u64, outputs: Vec<ProxyOutput>) {
        let sent = self.sent;
        for o in outputs {
            match o {
                ProxyOutput::ToSwitch(fm) => {
                    self.sent += 1;
                    let xid = FLOWMOD_XID | (self.sent as u32 & !TAG);
                    self.put(Side::Switch, OfMessage::FlowMod(fm), xid);
                }
                ProxyOutput::Inject(inj) => {
                    let payload = inj.meta.encode();
                    if let Ok(data) = monocle_packet::craft_packet(&inj.fields, &payload) {
                        self.stats.probes_injected += 1;
                        let (in_port, actions) = (inj.in_port, vec![Action::Output(PORT_TABLE)]);
                        let probe = OfMessage::PacketOut {
                            in_port,
                            actions,
                            data,
                        };
                        self.put(Side::Switch, probe, PROBE_XID);
                    }
                }
                ProxyOutput::Confirmed { token, verified } => {
                    self.stats.confirmed += 1;
                    self.stats.verified += u64::from(verified);
                    if let Some(came) = self.updates.remove(&token) {
                        self.ack_rtt.update(now.saturating_sub(came) as f64);
                        self.stats.ack_rtt_ewma_ns = self.ack_rtt.get();
                        self.stats.ack_rtt_samples = self.ack_rtt.samples();
                        self.put(Side::Controller, OfMessage::BarrierReply, token as u32);
                    }
                }
                ProxyOutput::Alarm { token } => {
                    self.stats.alarms += 1;
                    if self.updates.remove(&token).is_some() {
                        self.put(Side::Controller, ALARM, token as u32);
                    }
                }
                ProxyOutput::RuleFailed { .. } => self.stats.rules_failed += 1,
                ProxyOutput::RuleRecovered { .. } => self.stats.rules_recovered += 1,
            }
        }
        // The monitor numbers the FlowMods the channel sends.
        let numbered = self.proxy.as_ref().map(MonitorProxy::flowmods_sent);
        debug_assert!(numbered.is_none_or(|n| n == self.sent));
        if self.sent > sent {
            self.send_barrier();
        }
        self.settle();
    }

    /// Sends the switch a barrier of the channel's own, covering every
    /// FlowMod sent so far.
    fn send_barrier(&mut self) {
        self.barriers += 1;
        self.passed = false;
        let xid = BARRIER_XID | (self.sent as u32 & !TAG);
        self.put(Side::Switch, OfMessage::BarrierRequest, xid);
    }

    /// The number of the FlowMod (or of the last FlowMod a barrier covers)
    /// whose xid is `xid`: the latest sent that it names.
    fn number(&self, xid: u32) -> u64 {
        let back = (self.sent as u32).wrapping_sub(xid) & !TAG;
        self.sent.saturating_sub(u64::from(back))
    }

    /// Answers the controller barriers whose time has come, in the order
    /// they came (module docs, step 5).
    fn settle(&mut self) {
        let oldest = self.updates.keys().next().map_or(u64::MAX, |t| t >> 32);
        let (barriers, answered) = (self.barriers, self.answered);
        for (_, _, need) in self.held.iter_mut().take_while(|h| h.1 < oldest) {
            need.get_or_insert(barriers);
        }
        let ready = |h: &&(u32, u64, Option<u64>)| h.2.is_some_and(|need| need <= answered);
        while let Some(&(xid, ..)) = self.held.front().filter(ready) {
            self.held.pop_front();
            self.put(Side::Controller, OfMessage::BarrierReply, xid);
        }
    }

    fn put(&mut self, side: Side, msg: OfMessage, xid: u32) {
        self.frames.push((side, msg, xid));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Replica;
    use monocle_openflow::messages::PacketInReason;
    use monocle_openflow::{FlowMod, FlowModCommand};
    use monocle_packet::PacketFields;
    use monocle_switchsim::switch::Effect;
    use monocle_switchsim::{SimSwitch, SwitchProfile};
    use std::collections::HashMap;

    /// The datapath id of every test switch.
    const DPID: u64 = 1;

    /// What a switch with `n_tables` tables and `ports` says of itself.
    fn features(n_tables: u8, ports: std::ops::RangeInclusive<u16>) -> OfMessage {
        OfMessage::FeaturesReply {
            datapath_id: DPID,
            n_tables,
            ports: ports.collect(),
        }
    }

    /// A `PacketIn` of `frame`, caught on `port`.
    fn packet_in(port: PortNo, frame: Vec<u8>) -> OfMessage {
        OfMessage::PacketIn {
            buffer_id: 0xffff_ffff,
            in_port: port,
            reason: PacketInReason::Action,
            data: frame,
        }
    }

    /// An add of a rule for host `10.0.0.{host}` out of port 3: off the
    /// default route (port 2), so its probe tells it apart.
    fn host(host: u8) -> FlowMod {
        let m = Match::any().with_nw_dst([10, 0, 0, host], 32);
        FlowMod::add(10, m, vec![Action::Output(3)])
    }

    /// The `Error` a rejecting switch answers with: not the one the channel
    /// makes up for an alarm (code 0).
    const REJECTION: OfMessage = OfMessage::Error {
        err_type: 5, // OFPET_FLOW_MOD_FAILED
        code: 1,     // OFPFMFC_OVERLAP
    };

    /// A channel on a virtual clock standing still, whose planner answers
    /// every step at once on a replica, and a switch the test drives by
    /// hand: the frames the channel sends it wait in `inbox` until the test
    /// serves them. The session is open: the switch has said who it is.
    struct Rig {
        chan: Channel,
        replica: Option<Replica>,
        /// Frames sent to the switch, not served yet.
        inbox: VecDeque<(OfMessage, u32)>,
        /// Frames sent to the controller.
        got: Vec<(OfMessage, u32)>,
        /// The priority of every FlowMod served, in order.
        installs: Vec<u16>,
        /// FlowMods of these priorities are answered with [`REJECTION`]
        /// and not installed.
        reject: Vec<u16>,
        /// The switch's data plane, which served probes run through.
        sw: SimSwitch,
    }

    impl Rig {
        fn with_features(features: OfMessage) -> Rig {
            let mut sw = SimSwitch::new(0, SwitchProfile::ideal(), (1..=8).collect());
            sw.datapath_id = DPID;
            let mut rig = Rig {
                chan: Channel::new(Some((1, 2)), None),
                replica: None,
                inbox: VecDeque::new(),
                got: Vec::new(),
                installs: Vec::new(),
                reject: Vec::new(),
                sw,
            };
            rig.pump();
            let greeting = [(OfMessage::Hello, 0), (OfMessage::FeaturesRequest, 0)];
            assert_eq!(rig.inbox.drain(..).collect::<Vec<_>>(), greeting);
            rig.switch(features, 0);
            assert_eq!(rig.chan.dpid(), Some(DPID));
            rig
        }

        fn new() -> Rig {
            Rig::with_features(features(1, 1..=8))
        }

        fn switch(&mut self, msg: OfMessage, xid: u32) {
            self.chan.on_switch(0, msg, xid);
            self.pump();
        }

        fn controller(&mut self, msg: OfMessage, xid: u32) {
            self.chan.on_controller(0, msg, xid);
            self.pump();
        }

        /// Moves the frames put out to their side, and hands the planner's
        /// answers back until it has none.
        fn pump(&mut self) {
            loop {
                for (side, msg, xid) in self.chan.frames() {
                    match side {
                        Side::Switch => self.inbox.push_back((msg, xid)),
                        Side::Controller => self.got.push((msg, xid)),
                    }
                }
                let steps = self.chan.take_steps().into_iter();
                let answers: Vec<Answer> = steps
                    .filter_map(|s| Replica::step(&mut self.replica, s))
                    .collect();
                if answers.is_empty() {
                    return;
                }
                for answer in answers {
                    self.chan.answer(0, answer);
                }
            }
        }

        /// The switch takes the waiting frames `which` picks, in order, and
        /// the ones they lead to: it installs a FlowMod at once (or rejects
        /// it), answers a barrier, and runs a `PacketOut` through its data
        /// plane, every frame that leaves it coming back as a `PacketIn`.
        fn serve(&mut self, which: impl Fn(&OfMessage) -> bool) {
            let mut rest = VecDeque::new();
            while let Some((msg, xid)) = self.inbox.pop_front() {
                if !which(&msg) {
                    rest.push_back((msg, xid));
                    continue;
                }
                match msg {
                    OfMessage::FlowMod(fm) => {
                        self.installs.push(fm.priority);
                        if self.reject.contains(&fm.priority) {
                            self.switch(REJECTION, xid);
                        } else {
                            let _ = self.sw.dataplane_mut().apply(&fm);
                        }
                    }
                    OfMessage::BarrierRequest => self.switch(OfMessage::BarrierReply, xid),
                    OfMessage::PacketOut { in_port, data, .. } => {
                        for effect in self.sw.handle_frame(0, in_port, &data, 0) {
                            if let Effect::EmitFrame { port, frame, .. } = effect {
                                self.switch(packet_in(port, frame), 0);
                            }
                        }
                    }
                    other => panic!("the switch cannot serve {other:?}"),
                }
            }
            self.inbox = rest;
        }

        /// The xids of the `BarrierReply`s the controller got, in order.
        fn replies(&self) -> Vec<u32> {
            let replies = self
                .got
                .iter()
                .filter(|(m, _)| *m == OfMessage::BarrierReply);
            replies.map(|(_, xid)| *xid).collect()
        }
    }

    /// The controller sees the switch's own features, under its own xid:
    /// the channel makes up neither the table count nor the ports.
    #[test]
    fn the_controller_sees_the_switchs_own_features() {
        let sixteen_ports = features(2, 1..=16);
        let mut rig = Rig::with_features(sixteen_ports.clone());
        rig.controller(OfMessage::FeaturesRequest, 9);
        assert_eq!(rig.got, [(sixteen_ports, 9)]);
    }

    /// OpenFlow keepalive: the channel answers each side's `EchoRequest`
    /// itself, with the request's payload under its xid, and neither echo
    /// crosses to the other side.
    #[test]
    fn echo_requests_are_answered_on_their_own_side() {
        let mut rig = Rig::new();
        rig.inbox.clear(); // the default route and its barrier
        rig.switch(OfMessage::EchoRequest(b"ka".to_vec()), 77);
        rig.controller(OfMessage::EchoRequest(b"ctl".to_vec()), 78);
        let reply = |payload: &[u8], xid| (OfMessage::EchoReply(payload.to_vec()), xid);
        assert_eq!(rig.inbox, [reply(b"ka", 77)]);
        assert_eq!(rig.got, [reply(b"ctl", 78)]);
    }

    /// A probe another switch stamped is never production traffic: the
    /// channel drops it, and the controller gets the ordinary `PacketIn`
    /// only. A probe of this switch that answers nothing the monitor asked
    /// goes no further either.
    #[test]
    fn a_probe_of_another_switch_never_reaches_the_controller() {
        let mut rig = Rig::new();
        let fields = PacketFields::default();
        let stamped = |switch_id| {
            let meta = ProbeMeta {
                switch_id,
                rule_id: 1,
                seq: 1,
            };
            meta.encode().to_vec()
        };
        let production = b"production traffic".to_vec();
        for payload in [stamped(2), stamped(DPID), production.clone()] {
            let frame = monocle_packet::craft_packet(&fields, &payload).unwrap();
            rig.switch(packet_in(3, frame), 0);
        }
        let payloads: Vec<Vec<u8>> = (rig.got.iter())
            .filter_map(|(m, _)| match m {
                OfMessage::PacketIn { data, .. } => monocle_packet::parse_packet(data).ok(),
                _ => None,
            })
            .map(|(_, payload)| payload)
            .collect();
        assert_eq!(payloads, [production]);
        assert_eq!(rig.chan.stats().probes_returned, 1);
    }

    /// The controller's xid is not the monitor's update token: two FlowMods
    /// under one xid are two updates, each verified and acked under that
    /// xid.
    #[test]
    fn two_flowmods_under_one_xid_are_two_updates() {
        let mut rig = Rig::new();
        rig.controller(OfMessage::FlowMod(host(1)), 5);
        rig.controller(OfMessage::FlowMod(host(2)), 5);
        rig.serve(|_| true);
        assert_eq!(rig.replies(), [5, 5]);
        let stats = rig.chan.stats();
        assert_eq!((stats.flowmods, stats.confirmed, stats.verified), (2, 2, 2));
        assert_eq!(stats.ack_rtt_samples, 2);
    }

    /// The channel's own barriers stay inside it: the controller gets one
    /// `BarrierReply` per FlowMod (the ack) and one per barrier it sent,
    /// under that barrier's xid and after the ack — never one for a barrier
    /// the channel sent, even with the controller numbering its barriers
    /// where the channel numbers its own.
    #[test]
    fn the_proxys_barriers_stay_inside_the_proxy() {
        let mut rig = Rig::new();
        for i in 1..=8 {
            rig.controller(OfMessage::FlowMod(host(i as u8)), i);
            rig.controller(OfMessage::BarrierRequest, BARRIER_XID | i);
        }
        rig.serve(|_| true);
        let replies = rig.replies();
        for i in 1..=8 {
            let at = |xid| replies.iter().position(|&r| r == xid);
            assert!(at(i) < at(BARRIER_XID | i), "{replies:x?}");
        }
        let mut sorted = replies.clone();
        sorted.sort_unstable();
        let barriers = (1..=8).map(|i| BARRIER_XID | i);
        assert_eq!(sorted, (1..=8).chain(barriers).collect::<Vec<_>>());
        let stats = rig.chan.stats();
        assert_eq!((stats.confirmed, stats.verified), (8, 8));
        assert!(stats.claims > 0, "no claim reached the monitor");
    }

    /// The switch rejects the channel's default route and the controller's
    /// first and third FlowMods, and never returns a probe. The controller
    /// hears nothing of the first rejection. Of the second it hears the
    /// switch's own `Error`, under its FlowMod's xid, and no ack: the
    /// monitor ends that update with an alarm at once, not on its deadline,
    /// and the update queued behind it reaches the switch. The third, with
    /// nothing to probe (it asks the switch to check for overlaps at the
    /// default route's priority, and the expected table refuses it), was
    /// acked at once; the switch's `Error` for it follows the ack, under its
    /// xid.
    #[test]
    fn a_rejected_flowmod_alarms_its_update_under_the_controllers_xid() {
        let mut rig = Rig::new();
        rig.reject = vec![1, 10];
        let subnet = Match::any().with_nw_dst([10, 0, 0, 0], 24);
        let host = Match::any().with_nw_dst([10, 0, 0, 1], 32);
        // Both forward off the default route (port 2): monitorable.
        let first = FlowMod::add(10, subnet, vec![Action::Output(3)]);
        let second = FlowMod::add(20, host, vec![Action::Output(4)]);
        let other = Match::any().with_nw_dst([10, 0, 1, 0], 24);
        let mut third = FlowMod::add(1, other, vec![Action::Output(4)]);
        third.check_overlap = true;
        for (xid, fm) in [(1, first), (2, second), (3, third)] {
            rig.controller(OfMessage::FlowMod(fm), xid);
        }
        rig.serve(|m| !matches!(m, OfMessage::PacketOut { .. }));
        let mut answers: Vec<(u32, OfMessage)> =
            rig.got.iter().map(|(m, x)| (*x, m.clone())).collect();
        answers.sort_by_key(|(xid, _)| *xid); // stable: per xid, as sent
        let expected = [(1, REJECTION), (3, OfMessage::BarrierReply), (3, REJECTION)];
        assert_eq!(answers, expected);
        assert_eq!(rig.installs, [1, 10, 1, 20]);
        let stats = rig.chan.stats();
        assert_eq!((stats.flowmods, stats.alarms, stats.confirmed), (3, 1, 1));
    }

    /// The controller's barrier is Monocle's: idle, it is answered at once,
    /// without asking the switch. Otherwise it waits for both the answer of
    /// every update before it and the switch's reply to a barrier the
    /// channel sent after their FlowMods — whichever comes last — and for a
    /// barrier of the channel's own sent behind any frame passed through
    /// before it.
    #[test]
    fn a_controller_barrier_waits_for_the_answers_and_the_claim_before_it() {
        let mut rig = Rig::new();
        rig.serve(|_| true); // the default route, installed and claimed
        rig.controller(OfMessage::BarrierRequest, 50);
        assert_eq!(rig.replies(), [50]);
        assert!(rig.inbox.is_empty(), "{:?}", rig.inbox);

        // The probe proves the update before the switch answers the barrier
        // behind its FlowMod: the controller's barrier waits for that.
        rig.controller(OfMessage::FlowMod(host(1)), 1);
        rig.controller(OfMessage::BarrierRequest, 51);
        rig.serve(|m| *m != OfMessage::BarrierRequest);
        assert_eq!(rig.replies(), [50, 1]);
        rig.serve(|_| true);
        assert_eq!(rig.replies(), [50, 1, 51]);

        // The switch answers the barrier before it installs the rule (it
        // lies): the controller's barrier waits for the ack.
        rig.controller(OfMessage::FlowMod(host(2)), 2);
        rig.controller(OfMessage::BarrierRequest, 52);
        rig.serve(|m| *m == OfMessage::BarrierRequest);
        assert_eq!(rig.replies(), [50, 1, 51]);
        rig.serve(|_| true);
        assert_eq!(rig.replies(), [50, 1, 51, 2, 52]);

        // A frame passed through: a barrier of the channel's own follows it,
        // and the controller's waits for its reply.
        let frame = monocle_packet::craft_packet(&PacketFields::default(), b"x").unwrap();
        let packet_out = OfMessage::PacketOut {
            in_port: 1,
            actions: vec![Action::Output(4)],
            data: frame,
        };
        rig.controller(packet_out.clone(), 7);
        rig.controller(OfMessage::BarrierRequest, 53);
        let sent: Vec<&OfMessage> = rig.inbox.iter().map(|(m, _)| m).collect();
        assert_eq!(sent, [&packet_out, &OfMessage::BarrierRequest]);
        assert_eq!(rig.replies(), [50, 1, 51, 2, 52]);
        rig.serve(|_| true);
        assert_eq!(rig.replies(), [50, 1, 51, 2, 52, 53]);
    }

    /// One step of a controller's script.
    #[derive(Debug, Clone)]
    enum Op {
        /// A FlowMod under this xid (1–3: some share one).
        FlowMod(FlowMod, u32),
        Barrier,
        Echo,
        /// A production `PacketOut`, passed through to the switch.
        PacketOut,
    }

    /// An event of [`Net`]'s virtual clock.
    enum Ev {
        Agent,
        Install,
        FromSwitch(OfMessage, u32),
        FromController(OfMessage, u32),
        Answer(Answer),
        Tick,
    }

    /// A channel between a controller script and a [`SimSwitch`], on one
    /// virtual clock: the switch model runs as the simulator runs it, and
    /// the planner answers each step on a replica, in order, after a delay
    /// drawn from a seeded generator (0–2 ms).
    struct Net {
        chan: Channel,
        sw: SimSwitch,
        replica: Option<Replica>,
        due: BTreeMap<(u64, u64), Ev>,
        arrivals: u64,
        now: u64,
        seed: u64,
        /// When the planner's last answer lands: answers land in order.
        planned: u64,
        /// What the controller got, with when.
        got: Vec<(u64, OfMessage, u32)>,
        /// When the FlowMod with each cookie committed.
        commits: HashMap<u64, u64>,
    }

    impl Net {
        fn new(profile: SwitchProfile, seed: u64) -> Net {
            let mut sw = SimSwitch::new(0, profile, (1..=8).collect());
            sw.datapath_id = DPID;
            let mut net = Net {
                chan: Channel::new(Some((1, 2)), None),
                sw,
                replica: None,
                due: BTreeMap::new(),
                arrivals: 0,
                now: 0,
                seed,
                planned: 0,
                got: Vec::new(),
                commits: HashMap::new(),
            };
            net.at(1_000_000, Ev::Tick);
            net.flush();
            net
        }

        fn at(&mut self, at: u64, ev: Ev) {
            self.arrivals += 1;
            self.due.insert((at, self.arrivals), ev);
        }

        fn effects(&mut self, effects: Vec<Effect>) {
            for effect in effects {
                match effect {
                    Effect::WakeAgentAt(at) => self.at(at, Ev::Agent),
                    Effect::InstallTickAt(at) => self.at(at, Ev::Install),
                    Effect::ToController { msg, xid, at } => self.at(at, Ev::FromSwitch(msg, xid)),
                    Effect::EmitFrame { port, frame, at } => {
                        self.at(at, Ev::FromSwitch(packet_in(port, frame), 0))
                    }
                }
            }
        }

        /// Delivers what the channel put out: frames to their side, steps
        /// to the planner.
        fn flush(&mut self) {
            let frames: Vec<Frame> = self.chan.frames().collect();
            for (side, msg, xid) in frames {
                match side {
                    Side::Switch => {
                        let effects = self.sw.enqueue_ctrl(self.now, msg, xid);
                        self.effects(effects);
                    }
                    Side::Controller => self.got.push((self.now, msg, xid)),
                }
            }
            for step in self.chan.take_steps() {
                if let Some(answer) = Replica::step(&mut self.replica, step) {
                    self.seed ^= self.seed << 13;
                    self.seed ^= self.seed >> 7;
                    self.seed ^= self.seed << 17;
                    self.planned = self.planned.max(self.now + self.seed % 2_000_000);
                    self.at(self.planned, Ev::Answer(answer));
                }
            }
        }

        /// Runs the clock until `done` holds, then 20 ms more; false if the
        /// clock passed `horizon` first.
        fn run(&mut self, horizon: u64, done: impl Fn(&Net) -> bool) -> bool {
            let mut until = horizon;
            while let Some(((at, _), ev)) = self.due.pop_first() {
                if at > until {
                    return until < horizon;
                }
                self.now = at;
                match ev {
                    Ev::Agent => {
                        let effects = self.sw.agent_step(at);
                        self.effects(effects);
                    }
                    Ev::Install => {
                        if let Some(fm) = self.sw.next_commit() {
                            self.commits.insert(fm.cookie, at);
                        }
                        let effects = self.sw.install_tick(at);
                        self.effects(effects);
                    }
                    Ev::FromSwitch(msg, xid) => self.chan.on_switch(at, msg, xid),
                    Ev::FromController(msg, xid) => self.chan.on_controller(at, msg, xid),
                    Ev::Answer(answer) => self.chan.answer(at, answer),
                    Ev::Tick => {
                        self.chan.on_tick(at);
                        self.at(at + 1_000_000, Ev::Tick);
                    }
                }
                self.flush();
                if until == horizon && done(self) {
                    until = at + 20_000_000;
                }
            }
            unreachable!("the tick never stops")
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_flowmod() -> impl Strategy<Value = FlowMod> {
            let command = prop_oneof![
                3 => Just(FlowModCommand::Add),
                1 => Just(FlowModCommand::ModifyStrict),
                1 => Just(FlowModCommand::DeleteStrict),
                1 => Just(FlowModCommand::Delete),
            ];
            let dst = (0u8..2, 0u8..3, prop_oneof![Just(24u8), Just(32)]);
            let actions = prop_oneof![
                1 => Just(vec![]),
                3 => (2u16..6).prop_map(|p| vec![Action::Output(p)]),
            ];
            (command, 2u16..5, dst, actions).prop_map(|(command, prio, (a, b, len), actions)| {
                let m = Match::any().with_nw_dst([10, 0, a, b], len);
                FlowMod {
                    command,
                    ..FlowMod::add(prio, m, actions)
                }
            })
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                6 => (arb_flowmod(), 1u32..4).prop_map(|(fm, xid)| Op::FlowMod(fm, xid)),
                2 => Just(Op::Barrier),
                1 => Just(Op::Echo),
                1 => Just(Op::PacketOut),
            ]
        }

        /// Runs `script` (each op after its gap, in µs) through a channel
        /// to a switch with `profile`, and checks what the controller got:
        /// every update answered exactly once, under its xid; every barrier
        /// and echo answered once; no `BarrierReply` before the answers of
        /// the FlowMods sent before its request; and, where the switch's
        /// barriers are truthful, none before those FlowMods' commits.
        fn check(profile: SwitchProfile, script: &[(u64, Op)], seed: u64) -> TestCaseResult {
            let truthful = !profile.premature_ack;
            let mut net = Net::new(profile, seed | 1);
            let mut now = 5_000_000; // the default route is in by then
            let mut flowmods = 0;
            for (i, (gap, op)) in script.iter().enumerate() {
                now += gap;
                let i = i as u32;
                let (msg, xid) = match op {
                    Op::FlowMod(fm, xid) => {
                        flowmods += 1;
                        let fm = FlowMod {
                            cookie: i.into(),
                            ..fm.clone()
                        };
                        (OfMessage::FlowMod(fm), *xid)
                    }
                    Op::Barrier => (OfMessage::BarrierRequest, 100 + i),
                    Op::Echo => (OfMessage::EchoRequest(vec![i as u8]), 200 + i),
                    Op::PacketOut => {
                        let frame = monocle_packet::craft_packet(&PacketFields::default(), b"x");
                        let actions = vec![Action::Output(4)];
                        let out = OfMessage::PacketOut {
                            in_port: 1,
                            actions,
                            data: frame.unwrap(),
                        };
                        (out, 300 + i)
                    }
                };
                net.at(now, Ev::FromController(msg, xid));
            }
            let barriers = script
                .iter()
                .filter(|(_, o)| matches!(o, Op::Barrier))
                .count();
            let answers = |net: &Net| {
                let answer =
                    |m: &OfMessage| matches!(m, OfMessage::BarrierReply | OfMessage::Error { .. });
                let ack = |m: &OfMessage, x: u32| (1..4).contains(&x) && answer(m);
                net.got.iter().filter(|(_, m, x)| ack(m, *x)).count()
            };
            let replies = |net: &Net| {
                let barrier = |m: &OfMessage, x: u32| *m == OfMessage::BarrierReply && x >= 100;
                net.got.iter().filter(|(_, m, x)| barrier(m, *x)).count()
            };
            // An update that never confirms (a non-strict delete of several
            // rules is probed for one of them) alarms on its deadline, and
            // one queued behind it may too.
            let horizon =
                now + (flowmods as u64 + 1) * (crate::dynamic::UPDATE_DEADLINE + 1_000_000_000);
            let done = net.run(horizon, |net| {
                answers(net) >= flowmods && replies(net) >= barriers
            });
            prop_assert!(
                done,
                "{}: unanswered at {horizon} ns: {:?}\n{:?}",
                net.sw.profile().name,
                net.got,
                script
            );
            // Frames under `xid` among `got`, and FlowMods under it in `ops`.
            let under = |xid: u32, got: &[(u64, OfMessage, u32)]| {
                got.iter().filter(|(_, _, x)| *x == xid).count()
            };
            let sent = |xid: u32, ops: &[(u64, Op)]| {
                let sent = |(_, o): &&(u64, Op)| matches!(o, Op::FlowMod(_, x) if *x == xid);
                ops.iter().filter(sent).count()
            };
            for xid in 1..4 {
                let (got, sent) = (under(xid, &net.got), sent(xid, script));
                prop_assert_eq!(got, sent, "answers under xid {}", xid);
            }
            for (i, (_, op)) in script.iter().enumerate() {
                let xid = i as u32;
                match op {
                    Op::Barrier => {
                        prop_assert_eq!(under(100 + xid, &net.got), 1, "barrier {}", i);
                        let reply = net.got.iter().position(|(_, _, x)| *x == 100 + xid);
                        let (at, msg, _) = &net.got[reply.unwrap()];
                        prop_assert_eq!(msg, &OfMessage::BarrierReply);
                        for (j, (_, before)) in script[..i].iter().enumerate() {
                            let Op::FlowMod(_, fm_xid) = before else {
                                continue;
                            };
                            let answered = under(*fm_xid, &net.got[..reply.unwrap()]);
                            prop_assert!(
                                answered >= sent(*fm_xid, &script[..=j]),
                                "barrier {} replied before the answer of FlowMod {}",
                                i,
                                j
                            );
                            let committed = net.commits.get(&(j as u64));
                            prop_assert!(
                                !truthful || committed.is_some_and(|c| c <= at),
                                "barrier {} replied at {} ns, FlowMod {} committed at {:?}",
                                i,
                                at,
                                j,
                                committed
                            );
                        }
                    }
                    Op::Echo => {
                        let replies = net.got.iter().filter(|(_, _, x)| *x == 200 + xid);
                        let replies: Vec<&OfMessage> = replies.map(|(_, m, _)| m).collect();
                        prop_assert_eq!(replies, [&OfMessage::EchoReply(vec![i as u8])]);
                    }
                    Op::FlowMod(..) | Op::PacketOut => {}
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// §4's promise through one channel, on a virtual clock, against
            /// the switch model itself: random controller scripts of
            /// FlowMods (some sharing an xid), barriers, echoes and
            /// pass-through `PacketOut`s, with the planner answering after
            /// a seeded delay. Every update is answered exactly once under
            /// its xid, every barrier and echo once, no `BarrierReply`
            /// comes before the answers it covers and, on the truthful
            /// `ideal` switch, none before the commits it covers. On
            /// `hp5406zl` and `pica8` the switch's barriers lie; the
            /// channel's still wait for the answers.
            #[test]
            fn barrier_replies_follow_the_answers_and_commits_they_cover(
                script in prop::collection::vec((0u64..2_000, arb_op()), 1..24),
                seed in any::<u64>(),
            ) {
                let script: Vec<(u64, Op)> =
                    script.into_iter().map(|(us, op)| (us * 1_000, op)).collect();
                for profile in [
                    SwitchProfile::ideal(),
                    SwitchProfile::hp5406zl(),
                    SwitchProfile::pica8(),
                ] {
                    check(profile, &script, seed)?;
                }
            }
        }
    }
}
