//! The TCP load generator: a benchmark-owned controller endpoint and a
//! benchmark-owned switch endpoint on one event loop and one thread, around
//! the proxy under test (which runs on its own loop thread).
//!
//! ```text
//!   controller endpoint ──FlowMod──▶ ProxyApp ──FlowMod/PacketOut──▶ switch endpoint
//!          ▲ BarrierReply ───────────┘    ▲ PacketIn ─────────────────────┘
//!          └──────────── same thread, same clock ─────────────────────────┘
//! ```
//!
//! Both endpoints share `IoCtx::now_ns`, so the per-update stage stamps
//! (send, FlowMod at switch, probes, install, ack) need no clock alignment.
//! Nothing here comes from `monocle_net::sim`: fault-injection work may
//! change those endpoints freely without moving this benchmark.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;

use monocle_net::TransportEvent;
use monocle_net::{ConnId, Driver, EventLoop, IoCtx, ProxyApp, ProxyAppConfig, SessionStats};
use monocle_openflow::messages::{PacketInReason, PORT_TABLE};
use monocle_openflow::{Action, FlowMod, FlowTable, OfMessage};
use monocle_packet::{PacketFields, ProbeMeta};

use crate::affinity;
use crate::inputs::{answer_probe, table_content, OpStream, TableSpec};

/// Datapath id the switch endpoint announces.
const DPID: u64 = 1;
/// Xids at and above this value are the idle `BarrierRequest` round trips.
const RTT_XID_BASE: u32 = 0xF000_0000;
/// Steady-state probe sequence numbers carry this bit (`core::proxy`).
pub const STEADY_SEQ_BIT: u32 = 1 << 31;
/// Frames kept for the wire/packet replays of the traced run.
const MAX_RECORDED_FRAMES: usize = 20_000;

/// The traced run's closed-loop phase alternates stamping off (even
/// slices) and on (odd slices).
pub const TRACE_SLICES: u64 = 8;

const T_INSTALL: u64 = 1;
const T_OPEN_TICK: u64 = 2;
const T_TRACE_FLIP: u64 = 3;
const T_DEADLINE: u64 = 4;
const T_SETTLE: u64 = 5;

/// Timer tokens carry the phase generation so a stale one-shot is ignored.
fn token(kind: u64, gen: u64) -> u64 {
    kind | (gen << 8)
}

/// Open-loop send schedule by absolute due time: op `k` is due at
/// `t0 + k * interval`, whatever time the timer actually fired. Re-arming
/// "interval from now" instead drifts by the wake-up latency on every op
/// (the prototype lost 3–6 % of its offered rate that way).
#[derive(Debug, Clone)]
pub struct OpenLoop {
    pub t0_ns: u64,
    pub interval_ns: u64,
    pub total: u64,
    pub sent: u64,
}

impl OpenLoop {
    pub fn due_ns(&self, k: u64) -> u64 {
        self.t0_ns + k * self.interval_ns
    }

    /// Ops due at `now` that have not been sent: returns their indices and
    /// marks them sent.
    pub fn take_due(&mut self, now_ns: u64) -> std::ops::Range<u64> {
        let first = self.sent;
        if now_ns >= self.t0_ns {
            let due_count = (now_ns - self.t0_ns) / self.interval_ns + 1;
            self.sent = due_count.min(self.total).max(first);
        }
        first..self.sent
    }

    /// Absolute time to arm the next timer for, if any op is left.
    pub fn next_wakeup_ns(&self) -> Option<u64> {
        (self.sent < self.total).then(|| self.due_ns(self.sent))
    }
}

#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Delay between a FlowMod reaching the switch endpoint and it taking
    /// effect in the datapath.
    pub install_latency_ns: u64,
    /// Outstanding updates during the preload.
    pub preload_window: usize,
    /// Phase A: open-loop rate and duration (0 s skips the phase).
    pub open_rate_per_s: f64,
    pub open_secs: f64,
    /// Phase B: closed-loop window and duration (0 s skips the phase).
    pub closed_window: usize,
    pub closed_secs: f64,
    /// Idle `BarrierRequest` round trips measured after the preload.
    pub rtt_probes: usize,
    /// Record stage stamps, probe attribution and frames (`--trace 1`).
    pub trace: bool,
    /// A phase that makes no progress for this long is abandoned and its
    /// unacked updates count as failed.
    pub deadline_ns: u64,
    pub seed: u64,
}

/// Which part of the run an update belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    Preload,
    Open,
    Closed,
}

/// Everything stamped for one update, on the loop clock (0 = never).
#[derive(Debug, Clone)]
pub struct UpdateRec {
    pub part: Part,
    /// Whether stage stamps were being taken when it was sent.
    pub traced: bool,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub at_switch_ns: u64,
    pub installed_ns: u64,
    pub first_probe_ns: u64,
    /// First probe after the install that the datapath answered with a
    /// `PacketIn` (never set for updates confirmed by silence).
    pub verify_ns: u64,
    pub ack_ns: u64,
    pub acks: u32,
    pub alarmed: bool,
    pub probes: u32,
    pub probes_before_install: u32,
}

#[derive(Debug, Default)]
pub struct SessionReport {
    pub connect_ms: f64,
    /// Dial → last preload ack.
    pub setup_s: f64,
    pub updates: Vec<UpdateRec>,
    pub alarms: u64,
    pub duplicate_acks: u64,
    pub stray_acks: u64,
    pub deadlined: bool,
    /// Endpoint datapath equals the op-stream model at the end.
    pub table_matches: bool,
    pub table_rules: usize,
    pub probes_seen: u64,
    pub packet_ins: u64,
    pub rtt_us: Vec<f64>,
    /// Start of the closed-loop phase on the loop clock.
    pub closed_start_ns: u64,
    /// Frames crossing the endpoints while tracing (wire replay input).
    pub frames: Vec<(OfMessage, u32)>,
    /// Probe headers seen while tracing (packet replay input).
    pub probe_fields: Vec<(PacketFields, Vec<u8>)>,
    /// Proxy-side counters, read after the proxy thread joined.
    pub proxy: SessionStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Connecting,
    Preload,
    Rtt,
    Open,
    OpenDrain,
    Closed,
    ClosedDrain,
    Settle,
    Done,
}

struct LoadGen {
    cfg: SessionConfig,
    proxy_addr: SocketAddr,
    phase: Phase,
    gen: u64,
    dial_ns: u64,
    sw_conn: ConnId,
    ctl_conn: Option<ConnId>,
    // Switch endpoint.
    datapath: FlowTable,
    installs: VecDeque<(u64, FlowMod)>,
    received_fms: u64,
    installed_fms: u64,
    queued_barriers: Vec<(u32, u64)>,
    /// Trace only: the proxy's expected table replayed in arrival order,
    /// which reproduces its rule ids and attributes probes to updates.
    mirror: FlowTable,
    rule_to_update: HashMap<u64, usize>,
    // Controller endpoint.
    preload: Vec<FlowMod>,
    next_preload: usize,
    ops: OpStream,
    outstanding: usize,
    open: OpenLoop,
    closed_send_until_ns: u64,
    rtt_sent_ns: u64,
    tracing: bool,
    last_progress_ns: u64,
    report: SessionReport,
}

impl LoadGen {
    fn new(cfg: SessionConfig, table: &TableSpec, proxy_addr: SocketAddr) -> LoadGen {
        let preload: Vec<FlowMod> = table
            .preload_order()
            .map(|r| FlowMod::add(r.priority, r.match_, r.actions.clone()))
            .collect();
        let cooldown = cfg.closed_window.max(cfg.preload_window).max(16);
        let open_total = (cfg.open_rate_per_s * cfg.open_secs).round() as u64;
        LoadGen {
            ops: OpStream::new(table, cfg.seed, cooldown),
            open: OpenLoop {
                t0_ns: 0,
                interval_ns: (1e9 / cfg.open_rate_per_s.max(1e-9)) as u64,
                total: open_total,
                sent: 0,
            },
            cfg,
            proxy_addr,
            phase: Phase::Connecting,
            gen: 0,
            dial_ns: 0,
            sw_conn: 0,
            ctl_conn: None,
            datapath: FlowTable::new(),
            installs: VecDeque::new(),
            received_fms: 0,
            installed_fms: 0,
            queued_barriers: Vec::new(),
            mirror: FlowTable::new(),
            rule_to_update: HashMap::new(),
            preload,
            next_preload: 0,
            outstanding: 0,
            closed_send_until_ns: 0,
            rtt_sent_ns: 0,
            tracing: false,
            last_progress_ns: 0,
            report: SessionReport::default(),
        }
    }

    fn start(&mut self, ctx: &mut IoCtx<'_>) -> std::io::Result<()> {
        self.dial_ns = ctx.now_ns();
        self.sw_conn = ctx.connect(self.proxy_addr)?;
        self.arm_deadline(ctx);
        Ok(())
    }

    fn arm_deadline(&mut self, ctx: &mut IoCtx<'_>) {
        self.last_progress_ns = ctx.now_ns();
        ctx.schedule_in(self.cfg.deadline_ns, token(T_DEADLINE, self.gen));
    }

    /// Keeps the frames of the open-loop phase: with that phase's confirmed
    /// updates as the divisor they give the bytes on the wire per update.
    fn record_frame(&mut self, msg: &OfMessage, xid: u32) {
        let open = matches!(self.phase, Phase::Open | Phase::OpenDrain);
        if self.tracing && open && self.report.frames.len() < MAX_RECORDED_FRAMES {
            self.report.frames.push((msg.clone(), xid));
        }
    }

    // ---- controller endpoint -------------------------------------------

    fn send_update(&mut self, ctx: &mut IoCtx<'_>, mut fm: FlowMod, part: Part, due_ns: u64) {
        let Some(ctl) = self.ctl_conn else { return };
        let uid = self.report.updates.len();
        fm.cookie = uid as u64 + 1;
        let xid = uid as u32 + 1;
        let now = ctx.now_ns();
        self.report.updates.push(UpdateRec {
            part,
            traced: self.tracing,
            due_ns: if due_ns == 0 { now } else { due_ns },
            sent_ns: now,
            at_switch_ns: 0,
            installed_ns: 0,
            first_probe_ns: 0,
            verify_ns: 0,
            ack_ns: 0,
            acks: 0,
            alarmed: false,
            probes: 0,
            probes_before_install: 0,
        });
        self.outstanding += 1;
        let msg = OfMessage::FlowMod(fm);
        self.record_frame(&msg, xid);
        let _ = ctx.send(ctl, &msg, xid);
    }

    fn on_ack(&mut self, ctx: &mut IoCtx<'_>, xid: u32, alarm: bool) {
        let now = ctx.now_ns();
        let Some(rec) = (xid as usize)
            .checked_sub(1)
            .and_then(|uid| self.report.updates.get_mut(uid))
        else {
            self.report.stray_acks += 1;
            return;
        };
        rec.acks += 1;
        if rec.acks > 1 {
            self.report.duplicate_acks += 1;
            return;
        }
        rec.ack_ns = now;
        rec.alarmed = alarm;
        if alarm {
            self.report.alarms += 1;
        }
        self.outstanding -= 1;
        self.last_progress_ns = now;
        self.pump(ctx);
    }

    /// Sends whatever the current phase allows and moves on when it is done.
    fn pump(&mut self, ctx: &mut IoCtx<'_>) {
        match self.phase {
            Phase::Preload => {
                while self.outstanding < self.cfg.preload_window
                    && self.next_preload < self.preload.len()
                {
                    let fm = self.preload[self.next_preload].clone();
                    self.next_preload += 1;
                    self.send_update(ctx, fm, Part::Preload, 0);
                }
                if self.outstanding == 0 && self.next_preload == self.preload.len() {
                    self.report.setup_s = (ctx.now_ns() - self.dial_ns) as f64 / 1e9;
                    self.enter(ctx, Phase::Rtt);
                }
            }
            Phase::Closed => {
                let now = ctx.now_ns();
                while now < self.closed_send_until_ns && self.outstanding < self.cfg.closed_window {
                    let op = self.ops.next_op();
                    self.send_update(ctx, op.fm, Part::Closed, 0);
                }
                if now >= self.closed_send_until_ns {
                    self.enter(ctx, Phase::ClosedDrain);
                }
            }
            Phase::OpenDrain | Phase::ClosedDrain if self.outstanding == 0 => {
                let next = if self.phase == Phase::OpenDrain {
                    Phase::Closed
                } else {
                    Phase::Settle
                };
                self.enter(ctx, next);
            }
            _ => {}
        }
    }

    fn enter(&mut self, ctx: &mut IoCtx<'_>, phase: Phase) {
        self.gen += 1;
        self.phase = phase;
        self.arm_deadline(ctx);
        let now = ctx.now_ns();
        match phase {
            Phase::Preload => self.pump(ctx),
            Phase::Rtt => {
                if self.cfg.trace && self.cfg.rtt_probes > 0 {
                    self.send_rtt_probe(ctx);
                } else {
                    self.enter(ctx, Phase::Open);
                }
            }
            Phase::Open => {
                if self.open.total == 0 {
                    return self.enter(ctx, Phase::Closed);
                }
                self.tracing = self.cfg.trace;
                // A millisecond of slack so op 0 is not late by construction.
                self.open.t0_ns = now + 1_000_000;
                ctx.schedule_at(self.open.t0_ns, token(T_OPEN_TICK, self.gen));
            }
            Phase::Closed => {
                if self.cfg.closed_secs <= 0.0 {
                    return self.enter(ctx, Phase::Settle);
                }
                // The traced run alternates stamping off and on over
                // `TRACE_SLICES` equal slices of this phase: the ratio of the
                // two throughputs is the tracing overhead.
                self.tracing = false;
                self.report.closed_start_ns = now;
                let dur = (self.cfg.closed_secs * 1e9) as u64;
                self.closed_send_until_ns = now + dur;
                if self.cfg.trace {
                    for slice in 1..TRACE_SLICES {
                        ctx.schedule_at(
                            now + dur * slice / TRACE_SLICES,
                            token(T_TRACE_FLIP, self.gen),
                        );
                    }
                }
                self.pump(ctx);
            }
            Phase::OpenDrain | Phase::ClosedDrain => self.pump(ctx),
            Phase::Settle => {
                // Let installs still in their latency window land before the
                // datapath is compared with the model.
                ctx.schedule_in(
                    2 * self.cfg.install_latency_ns + 5_000_000,
                    token(T_SETTLE, self.gen),
                );
            }
            Phase::Done => self.finish(ctx),
            Phase::Connecting => {}
        }
    }

    fn send_rtt_probe(&mut self, ctx: &mut IoCtx<'_>) {
        let Some(ctl) = self.ctl_conn else { return };
        self.rtt_sent_ns = ctx.now_ns();
        let xid = RTT_XID_BASE + self.report.rtt_us.len() as u32;
        let _ = ctx.send(ctl, &OfMessage::BarrierRequest, xid);
    }

    fn on_rtt_reply(&mut self, ctx: &mut IoCtx<'_>) {
        let now = ctx.now_ns();
        self.report
            .rtt_us
            .push((now - self.rtt_sent_ns) as f64 / 1e3);
        self.last_progress_ns = now;
        if self.report.rtt_us.len() < self.cfg.rtt_probes {
            self.send_rtt_probe(ctx);
        } else {
            self.enter(ctx, Phase::Open);
        }
    }

    fn on_open_tick(&mut self, ctx: &mut IoCtx<'_>) {
        let now = ctx.now_ns();
        for k in self.open.take_due(now) {
            let op = self.ops.next_op();
            let due = self.open.due_ns(k);
            self.send_update(ctx, op.fm, Part::Open, due);
        }
        match self.open.next_wakeup_ns() {
            Some(at) => ctx.schedule_at(at, token(T_OPEN_TICK, self.gen)),
            None => self.enter(ctx, Phase::OpenDrain),
        }
    }

    fn on_controller_msg(&mut self, ctx: &mut IoCtx<'_>, msg: OfMessage, xid: u32) {
        match msg {
            OfMessage::FeaturesReply { .. } if self.phase == Phase::Connecting => {
                self.report.connect_ms = (ctx.now_ns() - self.dial_ns) as f64 / 1e6;
                self.enter(ctx, Phase::Preload);
            }
            OfMessage::BarrierReply if xid >= RTT_XID_BASE => self.on_rtt_reply(ctx),
            OfMessage::BarrierReply => {
                self.record_frame(&msg, xid);
                self.on_ack(ctx, xid, false);
            }
            OfMessage::Error { .. } => self.on_ack(ctx, xid, true),
            OfMessage::EchoRequest(data) => {
                if let Some(ctl) = self.ctl_conn {
                    let _ = ctx.send(ctl, &OfMessage::EchoReply(data), xid);
                }
            }
            _ => {}
        }
    }

    // ---- switch endpoint -----------------------------------------------

    fn on_switch_msg(&mut self, ctx: &mut IoCtx<'_>, msg: OfMessage, xid: u32) {
        let conn = self.sw_conn;
        match msg {
            OfMessage::FeaturesRequest => {
                let _ = ctx.send(
                    conn,
                    &OfMessage::FeaturesReply {
                        datapath_id: DPID,
                        n_tables: 1,
                        ports: (1..=16).collect(),
                    },
                    xid,
                );
            }
            OfMessage::EchoRequest(data) => {
                let _ = ctx.send(conn, &OfMessage::EchoReply(data), xid);
            }
            OfMessage::FlowMod(fm) => self.on_switch_flowmod(ctx, fm, xid),
            OfMessage::BarrierRequest => {
                if self.installed_fms == self.received_fms {
                    let _ = ctx.send(conn, &OfMessage::BarrierReply, xid);
                } else {
                    self.queued_barriers.push((xid, self.received_fms));
                }
            }
            OfMessage::PacketOut {
                in_port,
                actions,
                data,
            } => self.on_packet_out(ctx, in_port, &actions, data, xid),
            _ => {}
        }
    }

    fn on_switch_flowmod(&mut self, ctx: &mut IoCtx<'_>, fm: FlowMod, xid: u32) {
        let now = ctx.now_ns();
        self.received_fms += 1;
        let uid = (fm.cookie as usize).wrapping_sub(1);
        if let Some(rec) = self.report.updates.get_mut(uid) {
            rec.at_switch_ns = now;
        }
        if self.cfg.trace {
            // Every FlowMod goes through the mirror, stamped or not, so its
            // rule ids stay in step with the proxy's expected table.
            if let Ok(res) = self.mirror.apply(&fm) {
                for id in res.added.iter().chain(&res.modified).chain(&res.removed) {
                    self.rule_to_update.insert(id.0, uid);
                }
            }
            self.record_frame(&OfMessage::FlowMod(fm.clone()), xid);
        }
        if self.cfg.install_latency_ns == 0 {
            self.install(ctx, fm);
        } else {
            let due = now + self.cfg.install_latency_ns;
            self.installs.push_back((due, fm));
            ctx.schedule_at(due, token(T_INSTALL, 0));
        }
    }

    fn install(&mut self, ctx: &mut IoCtx<'_>, fm: FlowMod) {
        let _ = self.datapath.apply(&fm);
        self.installed_fms += 1;
        let uid = (fm.cookie as usize).wrapping_sub(1);
        if let Some(rec) = self.report.updates.get_mut(uid) {
            rec.installed_ns = ctx.now_ns();
        }
        let installed = self.installed_fms;
        let conn = self.sw_conn;
        self.queued_barriers.retain(|&(xid, need)| {
            if need <= installed {
                let _ = ctx.send(conn, &OfMessage::BarrierReply, xid);
                false
            } else {
                true
            }
        });
    }

    fn on_install_timer(&mut self, ctx: &mut IoCtx<'_>) {
        let now = ctx.now_ns();
        while self.installs.front().is_some_and(|(due, _)| *due <= now) {
            if let Some((_, fm)) = self.installs.pop_front() {
                self.install(ctx, fm);
            }
        }
    }

    fn on_packet_out(
        &mut self,
        ctx: &mut IoCtx<'_>,
        in_port: u16,
        actions: &[Action],
        data: Vec<u8>,
        xid: u32,
    ) {
        if !actions.contains(&Action::Output(PORT_TABLE)) {
            return;
        }
        let Ok((fields, payload)) = monocle_packet::parse_packet(&data) else {
            return;
        };
        self.report.probes_seen += 1;
        let now = ctx.now_ns();
        let legs = answer_probe(&self.datapath, in_port, &fields);
        if self.tracing {
            self.note_probe(now, &fields, &payload, !legs.is_empty());
            self.record_frame(
                &OfMessage::PacketOut {
                    in_port,
                    actions: actions.to_vec(),
                    data,
                },
                xid,
            );
        }
        for (port, out_fields) in legs {
            let Ok(frame) = monocle_packet::craft_packet(&out_fields, &payload) else {
                continue;
            };
            self.report.packet_ins += 1;
            let msg = OfMessage::PacketIn {
                buffer_id: 0xffff_ffff,
                in_port: port,
                reason: PacketInReason::Action,
                data: frame,
            };
            self.record_frame(&msg, xid);
            let _ = ctx.send(self.sw_conn, &msg, xid);
        }
    }

    /// Attributes a probe to the update whose rule it tests (trace only).
    fn note_probe(&mut self, now: u64, fields: &PacketFields, payload: &[u8], answered: bool) {
        if self.report.probe_fields.len() < MAX_RECORDED_FRAMES {
            self.report.probe_fields.push((*fields, payload.to_vec()));
        }
        let Some(meta) = ProbeMeta::decode(payload) else {
            return;
        };
        if meta.seq & STEADY_SEQ_BIT != 0 {
            return;
        }
        let Some(rec) = self
            .rule_to_update
            .get(&meta.rule_id)
            .and_then(|&uid| self.report.updates.get_mut(uid))
        else {
            return;
        };
        if rec.acks > 0 {
            return;
        }
        rec.probes += 1;
        if rec.first_probe_ns == 0 {
            rec.first_probe_ns = now;
        }
        if rec.installed_ns == 0 {
            rec.probes_before_install += 1;
        } else if rec.verify_ns == 0 && answered {
            rec.verify_ns = now;
        }
    }

    // ---- run control ---------------------------------------------------

    fn on_timer(&mut self, ctx: &mut IoCtx<'_>, tok: u64) {
        let (kind, gen) = (tok & 0xff, tok >> 8);
        if kind == T_INSTALL {
            return self.on_install_timer(ctx);
        }
        if gen != self.gen {
            return; // armed by a phase that has ended
        }
        match kind {
            T_OPEN_TICK => self.on_open_tick(ctx),
            T_TRACE_FLIP => self.tracing = !self.tracing,
            T_SETTLE => {
                self.report.table_matches =
                    table_content(&self.datapath) == self.ops.model() && self.installs.is_empty();
                self.report.table_rules = self.datapath.len();
                self.enter(ctx, Phase::Done);
            }
            T_DEADLINE => {
                let now = ctx.now_ns();
                let idle = now.saturating_sub(self.last_progress_ns);
                if idle >= self.cfg.deadline_ns {
                    self.report.deadlined = true;
                    self.outstanding = 0;
                    self.enter(ctx, Phase::Settle);
                } else {
                    ctx.schedule_in(self.cfg.deadline_ns - idle, token(T_DEADLINE, self.gen));
                }
            }
            _ => {}
        }
    }

    fn finish(&mut self, ctx: &mut IoCtx<'_>) {
        // Closing the switch connection tears the proxy session down; the
        // proxy loop then exits because it is idle.
        ctx.close(self.sw_conn);
        if let Some(ctl) = self.ctl_conn.take() {
            ctx.close(ctl);
        }
        ctx.stop();
    }
}

impl Driver for LoadGen {
    fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
        match ev {
            TransportEvent::Accepted { conn, .. } => {
                // The proxy dialing its "controller".
                self.ctl_conn = Some(conn);
                let _ = ctx.send(conn, &OfMessage::Hello, 0);
                let _ = ctx.send(conn, &OfMessage::FeaturesRequest, 0);
            }
            TransportEvent::Connected { conn } if conn == self.sw_conn => {
                let _ = ctx.send(conn, &OfMessage::Hello, 0);
            }
            TransportEvent::Message { conn, msg, xid } => {
                if conn == self.sw_conn {
                    self.on_switch_msg(ctx, msg, xid);
                } else if Some(conn) == self.ctl_conn {
                    self.on_controller_msg(ctx, msg, xid);
                }
            }
            TransportEvent::Timer { token } => self.on_timer(ctx, token),
            TransportEvent::Closed { .. } if self.phase != Phase::Done => {
                // The proxy went away mid-run: nothing more can be acked.
                self.report.deadlined = true;
                self.phase = Phase::Done;
                self.finish(ctx);
            }
            _ => {}
        }
    }
}

/// Runs one session: proxy thread up, connect, preload, the configured
/// phases, teardown, proxy thread joined.
pub fn run_session(cfg: &SessionConfig, table: &TableSpec) -> std::io::Result<SessionReport> {
    let mut gen_loop = EventLoop::new()?;
    let listener = gen_loop.with_ctx(|ctx| {
        let l = ctx.listen("127.0.0.1:0")?;
        ctx.listener_addr(l)
    })?;

    let mut proxy_loop = EventLoop::new()?;
    let mut proxy_cfg = ProxyAppConfig::new(listener);
    proxy_cfg.pool = monocle::PoolConfig::with_workers(1);
    // The tables carry their own default route (installed first).
    proxy_cfg.preinstall_default = None;
    // Fixed CPU layout (see `affinity`): the planner threads, spawned inside
    // `ProxyApp::new`, inherit the second CPU; both loops run on the first.
    let original = affinity::Restore::current();
    let layout = original.cpus().filter(|cpus| cpus.len() >= 2);
    if let Some(cpus) = &layout {
        affinity::set_current(&affinity::CpuSet::single(cpus[1]));
    }
    let mut proxy = ProxyApp::new(proxy_cfg, proxy_loop.waker());
    if let Some(cpus) = &layout {
        affinity::set_current(&affinity::CpuSet::single(cpus[0]));
    }
    let proxy_stats = proxy.stats();
    let proxy_addr = proxy_loop.with_ctx(|ctx| proxy.start(ctx))?;
    let proxy_thread = std::thread::Builder::new()
        .name("proxy-loop".to_string())
        .spawn(move || proxy_loop.run(&mut proxy))?;

    let mut gen = LoadGen::new(cfg.clone(), table, proxy_addr);
    let run = gen_loop
        .with_ctx(|ctx| gen.start(ctx))
        .and_then(|()| gen_loop.run(&mut gen));
    // Dropping the loop closes any socket still open, which ends the proxy
    // session even when the run failed half way.
    drop(gen_loop);
    let joined = proxy_thread.join();
    drop(original);
    run?;
    joined.map_err(|_| std::io::Error::other("proxy loop thread panicked"))??;

    let mut report = gen.report;
    report.proxy = proxy_stats
        .lock()
        .map_err(|_| std::io::Error::other("proxy stats mutex poisoned"))?
        .values()
        .next()
        .cloned()
        .unwrap_or_default();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_is_scheduled_by_absolute_due_time() {
        let mut ol = OpenLoop {
            t0_ns: 1_000,
            interval_ns: 100,
            total: 50,
            sent: 0,
        };
        assert_eq!(ol.take_due(999), 0..0);
        // Every wake-up is 37 ns late; "interval from now" re-arming would
        // push op k out by 37 * k.
        let mut now = ol.t0_ns;
        let mut sent_at = Vec::new();
        while let Some(at) = ol.next_wakeup_ns() {
            now = now.max(at) + 37;
            for k in ol.take_due(now) {
                sent_at.push((k, now));
            }
        }
        assert_eq!(sent_at.len(), 50);
        for (k, at) in sent_at {
            assert_eq!(ol.due_ns(k), 1_000 + k * 100);
            assert!(at - ol.due_ns(k) <= 37, "op {k} drifted: sent {at}");
        }
    }

    #[test]
    fn open_loop_catches_up_after_a_stall_and_stops_at_total() {
        let mut ol = OpenLoop {
            t0_ns: 0,
            interval_ns: 10,
            total: 8,
            sent: 0,
        };
        assert_eq!(ol.take_due(0), 0..1);
        // A 35 ns stall: ops 1..=3 are all due and go out together, each
        // still timed from its own due time.
        assert_eq!(ol.take_due(35), 1..4);
        assert_eq!(ol.next_wakeup_ns(), Some(40));
        assert_eq!(ol.take_due(10_000), 4..8);
        assert_eq!(ol.next_wakeup_ns(), None);
        assert_eq!(ol.take_due(20_000), 8..8);
    }

    #[test]
    fn timer_tokens_carry_their_phase() {
        let t = token(T_DEADLINE, 9);
        assert_eq!((t & 0xff, t >> 8), (T_DEADLINE, 9));
    }
}
