//! Loopback endpoints for driving the TCP proxy: a simulated OpenFlow
//! switch fleet and a workload-generating controller.
//!
//! Both are [`Driver`]s over the same [`crate::event_loop::EventLoop`]
//! runtime the proxy uses, so a full Monocle deployment — controller,
//! proxy, N switches — runs as three event loops on three threads connected
//! by real TCP sockets.
//!
//! ## The simulated switch
//!
//! [`SwitchSim`] is a TCP shell around [`SimSwitch`], the switch model the
//! in-process [`monocle_switchsim::Network`] drives: one switch per datapath
//! id, each with its own [`SwitchProfile`]. The shell keeps each switch's
//! pending [`Effect`]s in time order, with the loop's `now_ns` as the
//! switch's clock. On every message or timer it runs each due entry at its
//! own virtual time, sends what leaves the switch, and arms one loop timer
//! for the next entry. The loop keeps that timer to the microsecond, so an
//! entry runs close to its own time; the wakeup's own lateness (tens of
//! microseconds) does not add up either, since every entry is run at the
//! virtual time it was due, not at the time the loop woke.
//!
//! Installs are serial, as on the paper's switches: the agent takes one
//! message at a time at its profile's cost, then the install pipeline
//! commits one rule per `dataplane_install_time`. The profile decides
//! whether barriers are truthful or premature and whether installs are
//! reordered; [`SwitchProfile::hp5406zl`] and [`SwitchProfile::pica8`] lie.
//!
//! Each switch is a *virtual catch-all neighbor*: a `PacketOut` that
//! outputs to `PORT_TABLE` goes through the switch's own data plane, and
//! every frame the data plane emits on port `p` comes straight back to the
//! proxy as a `PacketIn` with `in_port = p`. This models the paper's
//! deployment where every neighbor of the probed switch carries a catching
//! rule, collapsed onto a single control channel.
//!
//! Messages a controller never sends a switch (`FeaturesReply`, `PacketIn`,
//! `BarrierReply`, …) are outside input from the TCP peer: the shell drops
//! them instead of handing them to the model.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use monocle_openflow::messages::PacketInReason;
use monocle_openflow::{Action, FlowMod, Match, OfMessage};
use monocle_switchsim::switch::{Effect, SwitchStats};
use monocle_switchsim::{SimSwitch, SimTime, SwitchProfile};

use crate::event_loop::{ConnId, Driver, IoCtx, TransportEvent};

/// Configuration of a simulated switch fleet.
#[derive(Debug, Clone)]
pub struct SwitchSimConfig {
    /// Address of the proxy's switch-facing listener.
    pub proxy_addr: SocketAddr,
    /// One switch (and TCP session) per entry: datapath id and profile.
    pub switches: Vec<(u64, SwitchProfile)>,
}

/// One switch of the fleet and the effects it has yet to run.
struct Shell {
    conn: ConnId,
    sw: SimSwitch,
    /// Pending effects by `(time, arrival)`.
    due: BTreeMap<(SimTime, u64), Effect>,
    arrivals: u64,
    /// Deadline of the earliest loop timer still armed for this switch.
    armed: Option<SimTime>,
    /// When a FlowMod carrying each cookie last committed to the data plane.
    commits: HashMap<u64, SimTime>,
}

impl Shell {
    fn push(&mut self, effects: Vec<Effect>) {
        for effect in effects {
            let at = match effect {
                Effect::WakeAgentAt(at) | Effect::InstallTickAt(at) => at,
                Effect::ToController { at, .. } | Effect::EmitFrame { at, .. } => at,
            };
            self.arrivals += 1;
            self.due.insert((at, self.arrivals), effect);
        }
    }

    /// Runs every entry due by now at its own time, sends what leaves the
    /// switch, and arms timer `token` for the next entry.
    fn run_due(&mut self, ctx: &mut IoCtx<'_>, token: u64) {
        let now = ctx.now_ns();
        self.armed = self.armed.filter(|&t| t > now);
        while let Some(entry) = self.due.first_entry().filter(|e| e.key().0 <= now) {
            let ((at, _), effect) = entry.remove_entry();
            let (msg, xid) = match effect {
                Effect::WakeAgentAt(_) => {
                    let fx = self.sw.agent_step(at);
                    self.push(fx);
                    continue;
                }
                Effect::InstallTickAt(_) => {
                    if let Some(fm) = self.sw.next_commit() {
                        self.commits.insert(fm.cookie, at);
                    }
                    let fx = self.sw.install_tick(at);
                    self.push(fx);
                    continue;
                }
                Effect::ToController { msg, xid, .. } => (msg, xid),
                Effect::EmitFrame { port, frame, .. } => {
                    let packet_in = OfMessage::PacketIn {
                        buffer_id: 0xffff_ffff,
                        in_port: port,
                        reason: PacketInReason::Action,
                        data: frame,
                    };
                    (packet_in, 0)
                }
            };
            let _ = ctx.send(self.conn, &msg, xid);
        }
        if let Some(&(next, _)) = self.due.keys().next() {
            if self.armed.is_none_or(|t| next < t) {
                ctx.schedule_at(next, token);
                self.armed = Some(next);
            }
        }
    }
}

/// Driver simulating a fleet of switches, one TCP session each; the index
/// of a switch in [`SwitchSimConfig::switches`] is its timer token.
pub struct SwitchSim {
    cfg: SwitchSimConfig,
    shells: Vec<Shell>,
    by_conn: HashMap<ConnId, usize>,
    stats: Arc<Mutex<HashMap<u64, SwitchStats>>>,
}

impl SwitchSim {
    /// Creates the fleet driver (connections are dialed by [`Self::start`]).
    pub fn new(cfg: SwitchSimConfig) -> Self {
        Self {
            cfg,
            shells: Vec::new(),
            by_conn: HashMap::new(),
            stats: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Shared handle to each switch's counters by datapath id, filled in
    /// when its session closes.
    pub fn stats(&self) -> Arc<Mutex<HashMap<u64, SwitchStats>>> {
        Arc::clone(&self.stats)
    }

    /// Dials one connection per configured switch.
    pub fn start(&mut self, ctx: &mut IoCtx<'_>) -> std::io::Result<()> {
        for (i, (dpid, profile)) in self.cfg.switches.iter().enumerate() {
            let conn = ctx.connect(self.cfg.proxy_addr)?;
            let mut sw = SimSwitch::new(i, profile.clone(), (1..=8).collect());
            sw.datapath_id = *dpid;
            self.by_conn.insert(conn, i);
            self.shells.push(Shell {
                conn,
                sw,
                due: BTreeMap::new(),
                arrivals: 0,
                armed: None,
                commits: HashMap::new(),
            });
        }
        Ok(())
    }

    /// The switch with datapath id `dpid`, to read or to inject a fault
    /// into ([`SimSwitch::swallow_next_installs`]).
    pub fn switch(&mut self, dpid: u64) -> Option<&mut SimSwitch> {
        self.shells
            .iter_mut()
            .map(|s| &mut s.sw)
            .find(|sw| sw.datapath_id == dpid)
    }

    /// Loop time at which the last FlowMod carrying `cookie` committed to
    /// the data plane of switch `dpid`.
    pub fn committed_at(&self, dpid: u64, cookie: u64) -> Option<u64> {
        let shell = self.shells.iter().find(|s| s.sw.datapath_id == dpid)?;
        shell.commits.get(&cookie).copied()
    }
}

impl Driver for SwitchSim {
    fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
        match ev {
            TransportEvent::Message { conn, msg, xid } => {
                let Some(&i) = self.by_conn.get(&conn) else {
                    return;
                };
                let shell = &mut self.shells[i];
                let modeled = matches!(
                    msg,
                    OfMessage::Hello
                        | OfMessage::FeaturesRequest
                        | OfMessage::EchoRequest(_)
                        | OfMessage::FlowMod(_)
                        | OfMessage::PacketOut { .. }
                        | OfMessage::BarrierRequest
                );
                if modeled {
                    let fx = shell.sw.enqueue_ctrl(ctx.now_ns(), msg, xid);
                    shell.push(fx);
                }
                shell.run_due(ctx, i as u64);
            }
            TransportEvent::Timer { token } => {
                if let Some(shell) = self.shells.get_mut(token as usize) {
                    shell.run_due(ctx, token);
                }
            }
            TransportEvent::Closed { conn } => {
                if let Some(i) = self.by_conn.remove(&conn) {
                    let sw = &self.shells[i].sw;
                    let mut stats = self.stats.lock().expect("no holder of the stats panics");
                    stats.insert(sw.datapath_id, sw.stats);
                    if self.by_conn.is_empty() {
                        ctx.stop();
                    }
                }
            }
            _ => {}
        }
    }
}

/// Workload of a [`ControllerSim`]: install `updates_per_switch` distinct
/// high-priority rules on every switch and wait for Monocle's
/// probe-verified confirmations (BarrierReply with the FlowMod's xid).
#[derive(Debug, Clone)]
pub struct ControllerSimConfig {
    /// Number of switch channels expected (the proxy dials one per switch).
    pub switches: usize,
    /// FlowMods to send per switch.
    pub updates_per_switch: usize,
    /// Abort the run after this long (0 = no deadline).
    pub deadline_ns: u64,
}

/// Confirmation record for one update.
#[derive(Debug, Clone, Copy)]
pub struct AckRecord {
    /// Datapath the update went to.
    pub dpid: u64,
    /// Send → BarrierReply latency.
    pub latency_ns: u64,
}

/// Shared results of a controller run.
#[derive(Debug, Default)]
pub struct ControllerStats {
    /// Confirmed updates in arrival order.
    pub acks: Vec<AckRecord>,
    /// Alarm notifications (proxy `Error` frames).
    pub alarms: u64,
    /// Whether the deadline fired before all acks arrived.
    pub deadlined: bool,
    /// Wall-clock duration from first FlowMod sent to last ack.
    pub elapsed_ns: u64,
}

const DEADLINE_TOKEN: u64 = u64::MAX;

struct ControllerChannel {
    dpid: u64,
    sent: usize,
}

/// Driver for the upstream controller: listens, handshakes each proxy
/// channel, pushes the workload pipelined, and collects acks.
pub struct ControllerSim {
    cfg: ControllerSimConfig,
    channels: HashMap<ConnId, ControllerChannel>,
    /// xid -> (dpid, send time).
    outstanding: HashMap<u32, (u64, u64)>,
    next_xid: u32,
    acked: usize,
    first_send_ns: u64,
    stats: Arc<Mutex<ControllerStats>>,
}

impl ControllerSim {
    /// Creates the controller driver.
    pub fn new(cfg: ControllerSimConfig) -> Self {
        Self {
            cfg,
            channels: HashMap::new(),
            outstanding: HashMap::new(),
            next_xid: 1,
            acked: 0,
            first_send_ns: 0,
            stats: Arc::new(Mutex::new(ControllerStats::default())),
        }
    }

    /// Shared handle to the run results.
    pub fn stats(&self) -> Arc<Mutex<ControllerStats>> {
        Arc::clone(&self.stats)
    }

    /// Binds the listening socket and arms the deadline. Returns the bound
    /// address for the proxy to dial.
    pub fn start(&mut self, ctx: &mut IoCtx<'_>) -> std::io::Result<SocketAddr> {
        let l = ctx.listen("127.0.0.1:0")?;
        if self.cfg.deadline_ns > 0 {
            ctx.schedule_in(self.cfg.deadline_ns, DEADLINE_TOKEN);
        }
        ctx.listener_addr(l)
    }

    /// The i-th update for a switch: a /32 rule over the default route,
    /// output port varying so present/absent outcomes stay distinguishable.
    pub fn workload_flowmod(i: usize) -> FlowMod {
        let dst = [10, 1, (i >> 8) as u8, i as u8];
        FlowMod::add(
            10,
            Match::any().with_nw_dst(dst, 32),
            vec![Action::Output(3 + (i as u16 % 4))],
        )
    }

    fn push_workload(&mut self, ctx: &mut IoCtx<'_>, conn: ConnId) {
        let Some(ch) = self.channels.get(&conn) else {
            return;
        };
        let (dpid, already) = (ch.dpid, ch.sent);
        if self.first_send_ns == 0 {
            self.first_send_ns = ctx.now_ns();
        }
        for i in already..self.cfg.updates_per_switch {
            let fm = Self::workload_flowmod(i);
            let xid = self.next_xid;
            self.next_xid += 1;
            self.outstanding.insert(xid, (dpid, ctx.now_ns()));
            let _ = ctx.send(conn, &OfMessage::FlowMod(fm), xid);
        }
        if let Some(ch) = self.channels.get_mut(&conn) {
            ch.sent = self.cfg.updates_per_switch;
        }
    }

    fn total_expected(&self) -> usize {
        self.cfg.switches * self.cfg.updates_per_switch
    }

    fn finish(&mut self, ctx: &mut IoCtx<'_>, deadlined: bool) {
        let mut stats = self.stats.lock().unwrap();
        stats.deadlined = deadlined;
        stats.elapsed_ns = ctx.now_ns().saturating_sub(self.first_send_ns);
        drop(stats);
        ctx.stop();
    }
}

impl Driver for ControllerSim {
    fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
        match ev {
            TransportEvent::Accepted { conn, .. } => {
                let _ = ctx.send(conn, &OfMessage::Hello, 0);
                let xid = self.next_xid;
                self.next_xid += 1;
                let _ = ctx.send(conn, &OfMessage::FeaturesRequest, xid);
            }
            TransportEvent::Message { conn, msg, xid } => match msg {
                OfMessage::Hello => {}
                OfMessage::FeaturesReply { datapath_id, .. } => {
                    self.channels.insert(
                        conn,
                        ControllerChannel {
                            dpid: datapath_id,
                            sent: 0,
                        },
                    );
                    self.push_workload(ctx, conn);
                }
                OfMessage::BarrierReply => {
                    if let Some((dpid, sent_at)) = self.outstanding.remove(&xid) {
                        self.acked += 1;
                        self.stats.lock().unwrap().acks.push(AckRecord {
                            dpid,
                            latency_ns: ctx.now_ns().saturating_sub(sent_at),
                        });
                        if self.acked == self.total_expected() {
                            self.finish(ctx, false);
                        }
                    }
                }
                OfMessage::Error { .. } => {
                    self.stats.lock().unwrap().alarms += 1;
                }
                _ => {}
            },
            TransportEvent::Timer {
                token: DEADLINE_TOKEN,
            } => self.finish(ctx, true),
            _ => {}
        }
    }
}
