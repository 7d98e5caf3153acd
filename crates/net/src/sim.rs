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
//! Each switch session owns a real [`FlowTable`] (`monocle_openflow`'s
//! datapath model) and behaves as a *virtual catch-all neighbor*: a
//! `PacketOut` whose action list outputs to [`PORT_TABLE`] is submitted to
//! the flow table, and every frame the table emits on egress port `p` comes
//! straight back to the proxy as a `PacketIn` with `in_port = p`. This
//! models the paper's deployment where every neighbor of the probed switch
//! carries a catching rule, collapsed onto a single control channel.
//!
//! FlowMods take effect only after a configurable install latency —
//! mirroring the hundreds-of-microseconds-to-milliseconds rule-installation
//! delay the paper measures on hardware — so probe-based confirmation is
//! *latency-bound*, not CPU-bound, and many switch sessions overlap their
//! waits on one event loop.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use monocle_openflow::flowmatch::{headervec_to_packet, packet_to_headervec};
use monocle_openflow::messages::PORT_TABLE;
use monocle_openflow::{Action, FlowMod, FlowTable, Match, OfMessage};

use crate::event_loop::{ConnId, Driver, IoCtx, TransportEvent};

/// Configuration of a simulated switch fleet.
#[derive(Debug, Clone)]
pub struct SwitchSimConfig {
    /// Address of the proxy's switch-facing listener.
    pub proxy_addr: SocketAddr,
    /// Datapath ids to connect (one TCP session each).
    pub dpids: Vec<u64>,
    /// Delay between receiving a FlowMod and it taking effect in the
    /// datapath.
    pub install_latency_ns: u64,
}

#[derive(Debug, Default, Clone)]
struct SwitchCounters {
    flowmods: u64,
    packet_outs: u64,
    packet_ins: u64,
}

/// Aggregate counters of a [`SwitchSim`] run.
#[derive(Debug, Default, Clone)]
pub struct SwitchSimStats {
    /// FlowMods received (after the proxy), per dpid.
    pub flowmods: HashMap<u64, u64>,
    /// PacketOuts received, per dpid.
    pub packet_outs: HashMap<u64, u64>,
    /// PacketIns emitted, per dpid.
    pub packet_ins: HashMap<u64, u64>,
}

struct SwitchSession {
    dpid: u64,
    table: FlowTable,
    /// FlowMods whose install latency has not elapsed yet.
    pending_installs: usize,
    /// Barrier xids queued behind pending installs (truthful barriers).
    queued_barriers: Vec<u32>,
    counters: SwitchCounters,
}

/// Driver simulating `dpids.len()` switches, one TCP session each.
pub struct SwitchSim {
    cfg: SwitchSimConfig,
    sessions: HashMap<ConnId, SwitchSession>,
    /// conn -> dpid for connections not yet `Connected`.
    dialing: HashMap<ConnId, u64>,
    /// timer token -> (conn, delayed FlowMod).
    installs: HashMap<u64, (ConnId, FlowMod)>,
    next_install: u64,
    opened: usize,
    stats: Arc<Mutex<SwitchSimStats>>,
}

impl SwitchSim {
    /// Creates the fleet driver (connections are dialed by [`Self::start`]).
    pub fn new(cfg: SwitchSimConfig) -> Self {
        Self {
            cfg,
            sessions: HashMap::new(),
            dialing: HashMap::new(),
            installs: HashMap::new(),
            next_install: 0,
            opened: 0,
            stats: Arc::new(Mutex::new(SwitchSimStats::default())),
        }
    }

    /// Shared handle to the run counters.
    pub fn stats(&self) -> Arc<Mutex<SwitchSimStats>> {
        Arc::clone(&self.stats)
    }

    /// Dials one connection per configured dpid.
    pub fn start(&mut self, ctx: &mut IoCtx<'_>) -> std::io::Result<()> {
        for dpid in self.cfg.dpids.clone() {
            let conn = ctx.connect(self.cfg.proxy_addr)?;
            self.dialing.insert(conn, dpid);
        }
        Ok(())
    }

    fn on_switch_msg(&mut self, ctx: &mut IoCtx<'_>, conn: ConnId, msg: OfMessage, xid: u32) {
        let Some(sess) = self.sessions.get_mut(&conn) else {
            return;
        };
        match msg {
            OfMessage::Hello => {}
            OfMessage::FeaturesRequest => {
                let _ = ctx.send(
                    conn,
                    &OfMessage::FeaturesReply {
                        datapath_id: sess.dpid,
                        n_tables: 1,
                        ports: (1..=8).collect(),
                    },
                    xid,
                );
            }
            OfMessage::EchoRequest(data) => {
                let _ = ctx.send(conn, &OfMessage::EchoReply(data), xid);
            }
            OfMessage::FlowMod(fm) => {
                sess.counters.flowmods += 1;
                if self.cfg.install_latency_ns == 0 {
                    let _ = sess.table.apply(&fm);
                } else {
                    sess.pending_installs += 1;
                    let token = self.next_install;
                    self.next_install += 1;
                    self.installs.insert(token, (conn, fm));
                    ctx.schedule_in(self.cfg.install_latency_ns, token);
                }
            }
            OfMessage::BarrierRequest => {
                if sess.pending_installs == 0 {
                    let _ = ctx.send(conn, &OfMessage::BarrierReply, xid);
                } else {
                    sess.queued_barriers.push(xid);
                }
            }
            OfMessage::PacketOut {
                in_port,
                actions,
                data,
            } => {
                sess.counters.packet_outs += 1;
                if !actions.contains(&Action::Output(PORT_TABLE)) {
                    return;
                }
                for packet_in in datapath_packet_ins(&sess.table, in_port, &data) {
                    sess.counters.packet_ins += 1;
                    let _ = ctx.send(conn, &packet_in, xid);
                }
            }
            _ => {}
        }
    }

    fn finish_install(&mut self, ctx: &mut IoCtx<'_>, token: u64) {
        let Some((conn, fm)) = self.installs.remove(&token) else {
            return;
        };
        let Some(sess) = self.sessions.get_mut(&conn) else {
            return;
        };
        let _ = sess.table.apply(&fm);
        sess.pending_installs -= 1;
        if sess.pending_installs == 0 {
            for xid in std::mem::take(&mut sess.queued_barriers) {
                let _ = ctx.send(conn, &OfMessage::BarrierReply, xid);
            }
        }
    }

    fn teardown(&mut self, ctx: &mut IoCtx<'_>, conn: ConnId) {
        if let Some(sess) = self.sessions.remove(&conn) {
            let mut stats = self.stats.lock().unwrap();
            stats.flowmods.insert(sess.dpid, sess.counters.flowmods);
            stats
                .packet_outs
                .insert(sess.dpid, sess.counters.packet_outs);
            stats.packet_ins.insert(sess.dpid, sess.counters.packet_ins);
        }
        self.dialing.remove(&conn);
        if self.opened > 0 && self.sessions.is_empty() && self.dialing.is_empty() {
            ctx.stop();
        }
    }
}

/// The virtual catch-all neighbor: submits the frame of a `PacketOut` to
/// `table` on `in_port` and returns one `PacketIn` per egress leg, with
/// `in_port` = the egress port (ECMP picks leg 0, deterministically, matching
/// the expected table the proxy plans against). Unparseable frames, table
/// misses and drops yield nothing.
pub fn datapath_packet_ins(table: &FlowTable, in_port: u16, data: &[u8]) -> Vec<OfMessage> {
    let Ok((fields, payload)) = monocle_packet::parse_packet(data) else {
        return Vec::new();
    };
    let hdr = packet_to_headervec(in_port, &fields);
    table
        .process(&hdr, 0)
        .into_iter()
        .filter_map(|(port, out_hdr)| {
            let frame =
                monocle_packet::craft_packet(&headervec_to_packet(&out_hdr), &payload).ok()?;
            Some(OfMessage::PacketIn {
                buffer_id: 0xffff_ffff,
                in_port: port,
                reason: monocle_openflow::messages::PacketInReason::Action,
                data: frame,
            })
        })
        .collect()
}

impl Driver for SwitchSim {
    fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
        match ev {
            TransportEvent::Connected { conn } => {
                if let Some(dpid) = self.dialing.remove(&conn) {
                    self.opened += 1;
                    self.sessions.insert(
                        conn,
                        SwitchSession {
                            dpid,
                            table: FlowTable::new(),
                            pending_installs: 0,
                            queued_barriers: Vec::new(),
                            counters: SwitchCounters::default(),
                        },
                    );
                }
            }
            TransportEvent::Message { conn, msg, xid } => {
                self.on_switch_msg(ctx, conn, msg, xid);
            }
            TransportEvent::Timer { token } => self.finish_install(ctx, token),
            TransportEvent::Closed { conn } => self.teardown(ctx, conn),
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
