//! The Monocle proxy as an event-loop driver: N switch sessions, one
//! upstream controller connection each, a few planner threads.
//!
//! ## Session lifecycle
//!
//! 1. A switch connects to the proxy's listener; the proxy (acting as a
//!    controller) sends `Hello` + `FeaturesRequest`.
//! 2. The `FeaturesReply` carries the datapath id: the proxy instantiates a
//!    [`MonitorProxy`] in deferred-planning mode, preinstalls the
//!    catching/default rules, and dials the upstream controller.
//! 3. The upstream handshake mirrors a real switch: the controller's
//!    `FeaturesRequest` is answered with the cached datapath id.
//! 4. From then on every frame is proxied xid-preserving in both
//!    directions, except the frames Monocle consumes or originates:
//!    FlowMods are intercepted, probes are injected as `PacketOut`s,
//!    probe `PacketIn`s are absorbed, and confirmations surface as
//!    `BarrierReply { xid = flowmod xid }` (alarms as `Error`).
//!
//! ## Deferred planning
//!
//! Probe planning is SAT solving — milliseconds of CPU in the worst case —
//! so per-update planning never runs on the I/O thread. Each session's
//! monitor runs in deferred mode and records its planning work as an
//! ordered stream of [`Step`]s ([`MonitorProxy::take_plan_steps`]): a copy
//! of the expected table when the session starts, every FlowMod applied to
//! it since, and one plan request per monitorable update — a delete's
//! before its FlowMod, an add's or a modify's after it. The loop thread
//! forwards the steps, in order, to the planner thread the session is
//! pinned to (`session % ProxyAppConfig::pool.workers`; the threads are
//! spawned by [`ProxyApp::new`]). That thread keeps one [`Replica`] per
//! session — a mirror of the expected table plus one warm
//! [`monocle::ProbeEngine`] — advances it by each step and answers each
//! request on it, so every update is planned on exactly the table §4.1
//! prescribes, by an engine that synchronizes in O(delta) and keeps its
//! plan cache across updates. Nothing the loop thread sends grows with the
//! table but the one copy at the start. Finished plans come back through
//! one channel and the loop's waker (once per burst a thread drains) and
//! are attached with [`MonitorProxy::attach_plan`]. While a plan is in
//! flight the update's FlowMod has already been forwarded — planning
//! overlaps switch installation latency, which is where the multi-switch
//! throughput scaling comes from.
//!
//! A step that panics costs only its session's replica: the thread catches
//! the panic, drops the replica, and answers the session's later requests
//! with no plan (optimistic acks); its other sessions never notice.
//!
//! **Not deferred:** with [`ProxyAppConfig::steady`] set, the steady-state
//! refresh ([`MonitorProxy::refresh_steady_plans`], run from the proxy's
//! tick once an update has dirtied the table and nothing is in flight)
//! still plans on the loop thread. It re-plans only what the FlowMods since
//! the last refresh invalidated — the rules whose cached plan the proxy's
//! engine evicted, the rules added or modified — and the engine it plans on
//! synchronizes to the table in O(1) when nothing changed and in O(delta)
//! otherwise, so its cost follows the change, not the table (the first
//! refresh of a session, and a FlowMod that overlaps everything, such as a
//! default route, are the whole table). Moving it onto the planner threads,
//! whose replicas already hold the table, is the next step.
//!
//! ## Steady-state verdicts
//!
//! `RuleFailed` / `RuleRecovered` have no OpenFlow message to ride on; they
//! are counted per session ([`SessionStats::rules_failed`],
//! [`SessionStats::rules_recovered`]).
//!
//! ## Backpressure
//!
//! Probe injections are discretionary traffic: when a switch connection's
//! write buffer passes the high-water mark they are parked per session and
//! flushed, in order, on `Drained`. A parked probe needs no revalidation:
//! when it comes back its answer is matched by sequence number like any
//! other, so it counts only if that number is still live (its update
//! unconfirmed, or its steady probe still outstanding).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};

use monocle::encode::CatchSpec;
use monocle::planner::{Replica, Step};
use monocle::proxy::{MonitorProxy, ProbeInjection, ProxyConfig, ProxyOutput};
use monocle::steady::SteadyConfig;
use monocle::PoolConfig;
use monocle_openflow::messages::PORT_TABLE;
use monocle_openflow::{Action, Match, OfMessage, PortNo};
use monocle_packet::ProbeMeta;
use monocle_sched::SwitchTelemetry;

use crate::event_loop::{ConnId, Driver, IoCtx, TransportEvent};

/// Timer token for the global probe tick.
const TICK_TOKEN: u64 = 0;

/// Echo liveness timers live above this base; the low bits carry the
/// session id (`ECHO_TOKEN_BASE + session`).
const ECHO_TOKEN_BASE: u64 = 1 << 32;

/// Payload marking proxy-originated liveness echoes, so replies are
/// consumed here rather than forwarded and can't be confused with echoes
/// relayed on behalf of the controller.
const LIVENESS_MAGIC: &[u8] = b"MNCL-LIVE";

/// Half-life for per-switch telemetry decay (churn, backpressure heat).
const TELEMETRY_HALF_LIFE_NS: u64 = 1_000_000_000;

/// A message to a planner thread.
enum ToPlanner {
    /// The next step of a session's planning stream.
    Step { session: u64, step: Box<Step> },
    /// The session is gone: drop its replica.
    Close { session: u64 },
    /// Test-only fault injection: panic while serving this session.
    #[cfg(test)]
    Panic { session: u64 },
}

/// A finished plan coming back from a planner thread.
struct PlanDone {
    session: u64,
    token: u64,
    plan: Option<monocle::ProbePlan>,
}

/// Per-switch counters, exposed through [`ProxyApp::stats`].
#[derive(Debug, Default, Clone)]
pub struct SessionStats {
    /// Datapath id of the session.
    pub dpid: u64,
    /// FlowMods intercepted from the controller.
    pub flowmods: u64,
    /// Probes injected (PacketOuts sent to the switch).
    pub probes_injected: u64,
    /// Probe PacketIns absorbed.
    pub probes_returned: u64,
    /// Updates confirmed (verified or optimistic).
    pub confirmed: u64,
    /// Verified confirmations only.
    pub verified: u64,
    /// Alarms raised.
    pub alarms: u64,
    /// Injections parked by write backpressure.
    pub paused: u64,
    /// EWMA of FlowMod→confirmation latency, nanoseconds (0 until the
    /// first sample).
    pub ack_rtt_ewma_ns: f64,
    /// Confirmations that contributed an ack RTT sample.
    pub ack_rtt_samples: u64,
    /// EWMA of liveness echo round-trip time, nanoseconds.
    pub echo_rtt_ewma_ns: f64,
    /// Liveness EchoRequests sent to the switch.
    pub echo_sent: u64,
    /// Liveness EchoReplies received.
    pub echo_replies: u64,
    /// Liveness echoes still unanswered when the next one was due.
    pub echo_timeouts: u64,
    /// Steady-state: rules that stopped verifying.
    pub rules_failed: u64,
    /// Steady-state: failed rules that verified again.
    pub rules_recovered: u64,
}

/// Shared view of all sessions' counters (keyed by session id).
pub type SharedStats = Arc<Mutex<HashMap<u64, SessionStats>>>;

/// Configuration of the TCP proxy application.
#[derive(Debug, Clone)]
pub struct ProxyAppConfig {
    /// Switch-facing listen address (e.g. `"127.0.0.1:0"`).
    pub listen_addr: String,
    /// Upstream controller address.
    pub controller_addr: SocketAddr,
    /// Catching spec handed to every per-switch monitor.
    pub catch: CatchSpec,
    /// Low-priority default route preinstalled on every switch
    /// (`(priority, output port)`); gives probes a distinguishable
    /// absent-path so confirmations are positive rather than
    /// silence-window based.
    pub preinstall_default: Option<(u16, PortNo)>,
    /// Probe tick period.
    pub tick_ns: u64,
    /// Planner threads: `pool.workers` of them (at least one), each keeping
    /// a [`Replica`] for every session pinned to it. Every session plans
    /// with its own monitor's generator settings.
    pub pool: PoolConfig,
    /// Stop the loop once all sessions have closed (after at least one
    /// session existed).
    pub exit_when_idle: bool,
    /// Steady-state monitoring config applied to every per-switch monitor
    /// (`None` disables steady probing; set `adaptive` inside for the
    /// priority scheduler).
    pub steady: Option<SteadyConfig>,
    /// Liveness echo period per switch session (0 disables).
    pub echo_interval_ns: u64,
}

impl ProxyAppConfig {
    /// Sensible defaults for a loopback deployment.
    pub fn new(controller_addr: SocketAddr) -> Self {
        Self {
            listen_addr: "127.0.0.1:0".to_string(),
            controller_addr,
            catch: CatchSpec::default(),
            preinstall_default: Some((1, 2)),
            tick_ns: 1_000_000,
            pool: PoolConfig::with_workers(4),
            exit_when_idle: true,
            steady: None,
            echo_interval_ns: 250_000_000,
        }
    }
}

enum Side {
    Switch,
    Controller,
}

struct Session {
    dpid: u64,
    switch_conn: ConnId,
    controller_conn: Option<ConnId>,
    /// The controller dial's handshake completed; until then nothing may
    /// be sent upstream (the dial is non-blocking).
    controller_ready: bool,
    proxy: Option<MonitorProxy>,
    /// Frames for the controller buffered until the dial completes.
    to_controller: Vec<(OfMessage, u32)>,
    /// Injections parked by backpressure, flushed on `Drained`.
    paused_injections: Vec<ProbeInjection>,
    /// FlowMod xid → send time, for ack RTT measurement.
    flowmod_sent: HashMap<u32, u64>,
    /// Rolling per-switch estimators feeding the adaptive scheduler's
    /// switch-cost term.
    telemetry: SwitchTelemetry,
    /// Outstanding liveness echo: (xid, send time).
    echo_pending: Option<(u32, u64)>,
    stats: SessionStats,
}

/// The proxy driver. Create with [`ProxyApp::new`], call
/// [`ProxyApp::start`] inside `EventLoop::with_ctx`, then run the loop.
pub struct ProxyApp {
    cfg: ProxyAppConfig,
    sessions: HashMap<u64, Session>,
    by_conn: HashMap<ConnId, (u64, Side)>,
    next_session: u64,
    /// Xid space for proxy-originated frames to the switch; high range so
    /// they can never collide with controller xids in logs.
    next_xid: u32,
    /// One channel per planner thread; session `s` goes to
    /// `planners[s % planners.len()]`. Emptied (closing the threads) on
    /// exit.
    planners: Vec<Sender<ToPlanner>>,
    results_rx: Receiver<PlanDone>,
    planner_threads: Vec<std::thread::JoinHandle<()>>,
    had_session: bool,
    listen_addr: Option<SocketAddr>,
    stats: SharedStats,
}

impl ProxyApp {
    /// Creates the proxy app and its planner threads (`cfg.pool.workers`,
    /// at least one). `waker` must be the event loop's waker
    /// (`EventLoop::waker()`), used by the planners to signal finished
    /// plans.
    pub fn new(cfg: ProxyAppConfig, waker: Arc<mio::Waker>) -> Self {
        let (done_tx, done_rx) = std::sync::mpsc::channel::<PlanDone>();
        let (planners, planner_threads) = (0..cfg.pool.workers.max(1))
            .map(|_| {
                let (tx, rx) = std::sync::mpsc::channel::<ToPlanner>();
                let (done, waker) = (done_tx.clone(), Arc::clone(&waker));
                (
                    tx,
                    std::thread::spawn(move || planner_main(rx, done, waker)),
                )
            })
            .unzip();
        Self {
            cfg,
            sessions: HashMap::new(),
            by_conn: HashMap::new(),
            next_session: 0,
            next_xid: 0x8000_0000,
            planners,
            results_rx: done_rx,
            planner_threads,
            had_session: false,
            listen_addr: None,
            stats: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Shared handle to per-session counters.
    pub fn stats(&self) -> SharedStats {
        Arc::clone(&self.stats)
    }

    /// Binds the switch-facing listener and arms the probe tick. Returns
    /// the bound address for switches to dial.
    pub fn start(&mut self, ctx: &mut IoCtx<'_>) -> std::io::Result<SocketAddr> {
        let l = ctx.listen(&self.cfg.listen_addr)?;
        let addr = ctx.listener_addr(l)?;
        self.listen_addr = Some(addr);
        ctx.schedule_in(self.cfg.tick_ns, TICK_TOKEN);
        Ok(addr)
    }

    /// The switch-facing address (after [`Self::start`]).
    pub fn listen_addr(&self) -> Option<SocketAddr> {
        self.listen_addr
    }

    fn xid(&mut self) -> u32 {
        self.next_xid = self.next_xid.wrapping_add(1);
        self.next_xid
    }

    /// Applies proxy outputs for `session`, then sends any new planning
    /// steps to its planner.
    fn process_outputs(&mut self, ctx: &mut IoCtx<'_>, session: u64, outputs: Vec<ProxyOutput>) {
        let now = ctx.now_ns();
        for o in outputs {
            let Some(sess) = self.sessions.get_mut(&session) else {
                return;
            };
            match o {
                ProxyOutput::ToSwitch(fm) => {
                    let conn = sess.switch_conn;
                    let xid = self.xid();
                    let _ = ctx.send(conn, &OfMessage::FlowMod(fm), xid);
                }
                ProxyOutput::Inject(inj) => {
                    if ctx.over_high_water(sess.switch_conn) {
                        sess.stats.paused += 1;
                        sess.telemetry.backpressure.bump(now);
                        sess.paused_injections.push(inj);
                    } else {
                        self.send_injection(ctx, session, &inj);
                    }
                }
                ProxyOutput::Confirmed { token, verified } => {
                    sess.stats.confirmed += 1;
                    if verified {
                        sess.stats.verified += 1;
                    }
                    if let Some(sent) = sess.flowmod_sent.remove(&(token as u32)) {
                        sess.telemetry
                            .ack_rtt_ns
                            .update(now.saturating_sub(sent) as f64);
                        sess.stats.ack_rtt_ewma_ns = sess.telemetry.ack_rtt_ns.get();
                        sess.stats.ack_rtt_samples += 1;
                    }
                    Self::send_to_controller(ctx, sess, OfMessage::BarrierReply, token as u32);
                }
                ProxyOutput::Alarm { token } => {
                    sess.stats.alarms += 1;
                    sess.flowmod_sent.remove(&(token as u32));
                    Self::send_to_controller(
                        ctx,
                        sess,
                        OfMessage::Error {
                            err_type: 5, // OFPET_FLOW_MOD_FAILED
                            code: 0,
                        },
                        token as u32,
                    );
                }
                ProxyOutput::RuleFailed { .. } => sess.stats.rules_failed += 1,
                ProxyOutput::RuleRecovered { .. } => sess.stats.rules_recovered += 1,
            }
        }
        let proxy = self
            .sessions
            .get_mut(&session)
            .and_then(|s| s.proxy.as_mut());
        for step in proxy.map(|p| p.take_plan_steps()).unwrap_or_default() {
            let step = Box::new(step);
            self.to_planner(session, ToPlanner::Step { session, step });
        }
    }

    /// Sends `msg` upstream, or parks it until the controller handshake
    /// completes (the dial is non-blocking, so early frames must buffer).
    fn send_to_controller(ctx: &mut IoCtx<'_>, sess: &mut Session, msg: OfMessage, xid: u32) {
        match (sess.controller_conn, sess.controller_ready) {
            (Some(cc), true) => {
                let _ = ctx.send(cc, &msg, xid);
            }
            _ => sess.to_controller.push((msg, xid)),
        }
    }

    fn send_injection(&mut self, ctx: &mut IoCtx<'_>, session: u64, inj: &ProbeInjection) {
        let Some(sess) = self.sessions.get_mut(&session) else {
            return;
        };
        let Ok(frame) = monocle_packet::craft_packet(&inj.fields, &inj.meta.encode()) else {
            return;
        };
        sess.stats.probes_injected += 1;
        let conn = sess.switch_conn;
        let xid = self.xid();
        let _ = ctx.send(
            conn,
            &OfMessage::PacketOut {
                in_port: inj.in_port,
                actions: vec![Action::Output(PORT_TABLE)],
                data: frame,
            },
            xid,
        );
    }

    /// Sends `msg` to the planner thread `session` is pinned to (nowhere
    /// once the threads are closed).
    fn to_planner(&self, session: u64, msg: ToPlanner) {
        let n = self.planners.len() as u64;
        if n > 0 {
            let _ = self.planners[(session % n) as usize].send(msg);
        }
    }

    fn on_switch_msg(&mut self, ctx: &mut IoCtx<'_>, session: u64, msg: OfMessage, xid: u32) {
        let Some(sess) = self.sessions.get_mut(&session) else {
            return;
        };
        match msg {
            OfMessage::Hello => {}
            OfMessage::FeaturesReply { datapath_id, .. } if sess.proxy.is_none() => {
                sess.dpid = datapath_id;
                sess.stats.dpid = datapath_id;
                let mut pcfg = ProxyConfig::new(datapath_id, self.cfg.catch.clone());
                if let Some(sc) = &self.cfg.steady {
                    pcfg = pcfg.with_steady(sc.clone());
                }
                let mut proxy = MonitorProxy::new(pcfg);
                proxy.set_deferred_planning(true);
                let mut outputs = Vec::new();
                if let Some((prio, port)) = self.cfg.preinstall_default {
                    outputs = proxy.preinstall(prio, Match::any(), vec![Action::Output(port)]);
                }
                sess.proxy = Some(proxy);
                let controller = ctx.connect(self.cfg.controller_addr);
                match controller {
                    Ok(cc) => {
                        self.by_conn.insert(cc, (session, Side::Controller));
                        sess.controller_conn = Some(cc);
                    }
                    Err(_) => {
                        self.teardown(ctx, session);
                        return;
                    }
                }
                self.process_outputs(ctx, session, outputs);
                #[cfg(test)]
                if datapath_id == tests::PANIC_DPID {
                    self.to_planner(session, ToPlanner::Panic { session });
                }
            }
            OfMessage::PacketIn {
                in_port, ref data, ..
            } => {
                // Probe payloads are self-identifying (magic + checksum);
                // everything else is production traffic for the controller.
                if let Ok((fields, payload)) = monocle_packet::parse_packet(data) {
                    if let Some(meta) = ProbeMeta::decode(&payload) {
                        if meta.switch_id == sess.dpid {
                            sess.stats.probes_returned += 1;
                            let now = ctx.now_ns();
                            let outputs = sess
                                .proxy
                                .as_mut()
                                .map(|p| p.on_probe_return(now, &meta, in_port, &fields))
                                .unwrap_or_default();
                            self.process_outputs(ctx, session, outputs);
                            return;
                        }
                    }
                }
                self.forward_to_controller(ctx, session, msg, xid);
            }
            OfMessage::EchoRequest(data) => {
                let conn = sess.switch_conn;
                let _ = ctx.send(conn, &OfMessage::EchoReply(data), xid);
            }
            OfMessage::EchoReply(ref data) if data.as_slice() == LIVENESS_MAGIC => {
                // Our own liveness probe coming home; consume it.
                if let Some((exid, sent_ns)) = sess.echo_pending {
                    if exid == xid {
                        sess.echo_pending = None;
                        let rtt = ctx.now_ns().saturating_sub(sent_ns);
                        sess.telemetry.echo_rtt_ns.update(rtt as f64);
                        sess.stats.echo_rtt_ewma_ns = sess.telemetry.echo_rtt_ns.get();
                        sess.stats.echo_replies += 1;
                    }
                }
            }
            // BarrierReply, FlowRemoved, Error, …: pass through unchanged.
            other => self.forward_to_controller(ctx, session, other, xid),
        }
    }

    /// Fires the per-session liveness timer: counts an unanswered echo as
    /// a timeout, sends the next one, re-arms. The timer dies with the
    /// session (no re-arm once the session is gone).
    fn on_echo_timer(&mut self, ctx: &mut IoCtx<'_>, session: u64) {
        let now = ctx.now_ns();
        let xid = self.xid();
        let Some(sess) = self.sessions.get_mut(&session) else {
            return;
        };
        if sess.echo_pending.take().is_some() {
            sess.stats.echo_timeouts += 1;
        }
        let conn = sess.switch_conn;
        sess.echo_pending = Some((xid, now));
        sess.stats.echo_sent += 1;
        let _ = ctx.send(conn, &OfMessage::EchoRequest(LIVENESS_MAGIC.to_vec()), xid);
        ctx.schedule_in(self.cfg.echo_interval_ns, ECHO_TOKEN_BASE + session);
    }

    fn on_controller_msg(&mut self, ctx: &mut IoCtx<'_>, session: u64, msg: OfMessage, xid: u32) {
        let Some(sess) = self.sessions.get_mut(&session) else {
            return;
        };
        match msg {
            OfMessage::Hello => {}
            OfMessage::FeaturesRequest => {
                let reply = OfMessage::FeaturesReply {
                    datapath_id: sess.dpid,
                    n_tables: 1,
                    ports: (1..=8).collect(),
                };
                if let Some(cc) = sess.controller_conn {
                    let _ = ctx.send(cc, &reply, xid);
                }
            }
            OfMessage::FlowMod(fm) => {
                sess.stats.flowmods += 1;
                let now = ctx.now_ns();
                sess.flowmod_sent.insert(xid, now);
                sess.telemetry.flowmod_churn.bump(now);
                let outputs = sess
                    .proxy
                    .as_mut()
                    .map(|p| p.on_controller_flowmod(now, u64::from(xid), fm))
                    .unwrap_or_default();
                self.process_outputs(ctx, session, outputs);
            }
            OfMessage::EchoRequest(data) => {
                if let Some(cc) = sess.controller_conn {
                    let _ = ctx.send(cc, &OfMessage::EchoReply(data), xid);
                }
            }
            // BarrierRequest, PacketOut, …: pass through to the switch.
            other => {
                let conn = sess.switch_conn;
                let _ = ctx.send(conn, &other, xid);
            }
        }
    }

    fn forward_to_controller(
        &mut self,
        ctx: &mut IoCtx<'_>,
        session: u64,
        msg: OfMessage,
        xid: u32,
    ) {
        let Some(sess) = self.sessions.get_mut(&session) else {
            return;
        };
        Self::send_to_controller(ctx, sess, msg, xid);
    }

    /// Flushes backpressure-parked injections once the switch connection
    /// drained.
    fn flush_paused(&mut self, ctx: &mut IoCtx<'_>, session: u64) {
        let Some(sess) = self.sessions.get_mut(&session) else {
            return;
        };
        if sess.paused_injections.is_empty() || !ctx.below_low_water(sess.switch_conn) {
            return;
        }
        let parked = std::mem::take(&mut sess.paused_injections);
        for inj in parked {
            let Some(sess) = self.sessions.get_mut(&session) else {
                return;
            };
            if ctx.over_high_water(sess.switch_conn) {
                sess.paused_injections.push(inj);
                continue;
            }
            self.send_injection(ctx, session, &inj);
        }
    }

    fn on_notified(&mut self, ctx: &mut IoCtx<'_>) {
        while let Ok(done) = self.results_rx.try_recv() {
            let Some(sess) = self.sessions.get_mut(&done.session) else {
                continue;
            };
            let now = ctx.now_ns();
            let outputs = sess
                .proxy
                .as_mut()
                .map(|p| p.attach_plan(now, done.token, done.plan))
                .unwrap_or_default();
            self.process_outputs(ctx, done.session, outputs);
        }
    }

    fn on_tick(&mut self, ctx: &mut IoCtx<'_>) {
        let ids: Vec<u64> = self.sessions.keys().copied().collect();
        let now = ctx.now_ns();
        for id in ids {
            // Refresh the adaptive scheduler's view of this switch before
            // ticking: RTT/churn-derived cost plus live backpressure.
            if let Some(sess) = self.sessions.get_mut(&id) {
                let bp = ctx.over_high_water(sess.switch_conn);
                let cost = sess.telemetry.cost(now);
                if let Some(p) = sess.proxy.as_mut() {
                    p.set_switch_cost(cost, bp);
                }
            }
            let outputs = self
                .sessions
                .get_mut(&id)
                .and_then(|s| s.proxy.as_mut())
                .map(|p| p.on_tick(now))
                .unwrap_or_default();
            if !outputs.is_empty() {
                self.process_outputs(ctx, id, outputs);
            }
        }
        ctx.schedule_in(self.cfg.tick_ns, TICK_TOKEN);
    }

    fn teardown(&mut self, ctx: &mut IoCtx<'_>, session: u64) {
        self.to_planner(session, ToPlanner::Close { session });
        if let Some(sess) = self.sessions.remove(&session) {
            self.by_conn.remove(&sess.switch_conn);
            ctx.close(sess.switch_conn);
            if let Some(cc) = sess.controller_conn {
                self.by_conn.remove(&cc);
                ctx.close(cc);
            }
            self.stats.lock().unwrap().insert(session, sess.stats);
        }
        if self.cfg.exit_when_idle && self.had_session && self.sessions.is_empty() {
            // Dropping the senders ends the planner threads' recv loops.
            self.planners.clear();
            for h in self.planner_threads.drain(..) {
                let _ = h.join();
            }
            ctx.stop();
        }
    }
}

impl Driver for ProxyApp {
    fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
        match ev {
            TransportEvent::Accepted { conn, .. } => {
                let id = self.next_session;
                self.next_session += 1;
                self.had_session = true;
                self.by_conn.insert(conn, (id, Side::Switch));
                self.sessions.insert(
                    id,
                    Session {
                        dpid: 0,
                        switch_conn: conn,
                        controller_conn: None,
                        controller_ready: false,
                        proxy: None,
                        to_controller: Vec::new(),
                        paused_injections: Vec::new(),
                        flowmod_sent: HashMap::new(),
                        telemetry: SwitchTelemetry::new(TELEMETRY_HALF_LIFE_NS),
                        echo_pending: None,
                        stats: SessionStats::default(),
                    },
                );
                let _ = ctx.send(conn, &OfMessage::Hello, 0);
                let xid = self.xid();
                let _ = ctx.send(conn, &OfMessage::FeaturesRequest, xid);
                if self.cfg.echo_interval_ns > 0 {
                    ctx.schedule_in(self.cfg.echo_interval_ns, ECHO_TOKEN_BASE + id);
                }
            }
            TransportEvent::Connected { conn } => {
                // Controller dial completed: introduce ourselves and flush
                // anything buffered while the handshake was in flight.
                if let Some(&(session, Side::Controller)) = self.by_conn.get(&conn) {
                    let _ = ctx.send(conn, &OfMessage::Hello, 0);
                    if let Some(sess) = self.sessions.get_mut(&session) {
                        sess.controller_ready = true;
                        for (msg, xid) in std::mem::take(&mut sess.to_controller) {
                            let _ = ctx.send(conn, &msg, xid);
                        }
                    }
                }
            }
            TransportEvent::Message { conn, msg, xid } => match self.by_conn.get(&conn) {
                Some(&(session, Side::Switch)) => self.on_switch_msg(ctx, session, msg, xid),
                Some(&(session, Side::Controller)) => {
                    self.on_controller_msg(ctx, session, msg, xid)
                }
                None => {}
            },
            TransportEvent::Drained { conn } => {
                if let Some(&(session, Side::Switch)) = self.by_conn.get(&conn) {
                    self.flush_paused(ctx, session);
                }
            }
            TransportEvent::Closed { conn } => {
                if let Some(&(session, _)) = self.by_conn.get(&conn) {
                    self.teardown(ctx, session);
                }
            }
            TransportEvent::Timer { token: TICK_TOKEN } => self.on_tick(ctx),
            TransportEvent::Timer { token } if token >= ECHO_TOKEN_BASE => {
                self.on_echo_timer(ctx, token - ECHO_TOKEN_BASE)
            }
            TransportEvent::Timer { .. } => {}
            TransportEvent::Notified => self.on_notified(ctx),
        }
    }
}

/// Planner thread main: keeps a [`Replica`] per session it serves, advances
/// each by its session's steps in arrival order, and ships every plan back;
/// wakes the loop once per burst of messages drained. Exits when the channel
/// closes.
fn planner_main(rx: Receiver<ToPlanner>, done: Sender<PlanDone>, waker: Arc<mio::Waker>) {
    // `None`: no replica — the stream has not started, or a step panicked
    // and took the replica with it.
    let mut replicas: HashMap<u64, Option<Replica>> = HashMap::new();
    while let Ok(first) = rx.recv() {
        let mut answered = false;
        for msg in std::iter::once(first).chain(std::iter::from_fn(|| rx.try_recv().ok())) {
            let (session, step) = match msg {
                ToPlanner::Step { session, step } => (session, step),
                ToPlanner::Close { session } => {
                    replicas.remove(&session);
                    continue;
                }
                #[cfg(test)]
                ToPlanner::Panic { session } => {
                    let slot = replicas.entry(session).or_default();
                    guarded(slot, |_| -> Option<()> { panic!("injected planner panic") });
                    continue;
                }
            };
            let token = match *step {
                Step::Plan { token, .. } => Some(token),
                _ => None,
            };
            let slot = replicas.entry(session).or_default();
            let answer = guarded(slot, |slot| Replica::step(slot, *step));
            // Every request is answered: without a replica, or when
            // planning panicked, with no plan.
            let Some(token) = token else { continue };
            let plan = answer.and_then(|(_, plan)| plan.ok());
            if done
                .send(PlanDone {
                    session,
                    token,
                    plan,
                })
                .is_err()
            {
                return; // the proxy is gone
            }
            answered = true;
        }
        if answered {
            let _ = waker.wake();
        }
    }
}

/// Runs `f` on a session's replica slot; if it panics, the replica (whose
/// state may be mid-mutation) is dropped and the answer is `None`.
fn guarded<T>(
    slot: &mut Option<Replica>,
    f: impl FnOnce(&mut Option<Replica>) -> Option<T>,
) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(slot))).unwrap_or_else(|_| {
        *slot = None;
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_loop::EventLoop;
    use crate::sim::{
        ControllerSim, ControllerSimConfig, ControllerStats, SwitchSim, SwitchSimConfig,
    };

    /// Test-only fault injection: the planner panics while serving the
    /// session of this datapath, right after its stream starts.
    pub(super) const PANIC_DPID: u64 = 0xdead;

    /// Runs a controller sending `updates` FlowMods to each switch of
    /// `dpids`, the proxy with one planner thread, and the switch fleet over
    /// loopback TCP, to the end; returns the controller's results and the
    /// proxy's per-session counters.
    fn run(
        dpids: Vec<u64>,
        updates: u64,
        deadline_ns: u64,
    ) -> (ControllerStats, HashMap<u64, SessionStats>) {
        let mut controller_loop = EventLoop::new().unwrap();
        let mut controller = ControllerSim::new(ControllerSimConfig {
            switches: dpids.len(),
            updates_per_switch: updates as usize,
            deadline_ns,
        });
        let controller_stats = controller.stats();
        let controller_addr = controller_loop.with_ctx(|ctx| controller.start(ctx).unwrap());
        let mut proxy_loop = EventLoop::new().unwrap();
        let mut cfg = ProxyAppConfig::new(controller_addr);
        cfg.pool = PoolConfig::with_workers(1);
        let mut proxy = ProxyApp::new(cfg, proxy_loop.waker());
        let proxy_stats = proxy.stats();
        let proxy_addr = proxy_loop.with_ctx(|ctx| proxy.start(ctx).unwrap());
        let mut switch_loop = EventLoop::new().unwrap();
        let mut fleet = SwitchSim::new(SwitchSimConfig {
            proxy_addr,
            dpids,
            install_latency_ns: 1_000_000,
        });
        let threads = [
            std::thread::spawn(move || controller_loop.run(&mut controller).unwrap()),
            std::thread::spawn(move || proxy_loop.run(&mut proxy).unwrap()),
            std::thread::spawn(move || {
                switch_loop.with_ctx(|ctx| fleet.start(ctx).unwrap());
                switch_loop.run(&mut fleet).unwrap()
            }),
        ];
        for t in threads {
            t.join().unwrap();
        }
        let cs = std::mem::take(&mut *controller_stats.lock().unwrap());
        let ps = std::mem::take(&mut *proxy_stats.lock().unwrap());
        (cs, ps)
    }

    /// One planner thread serves four sessions and panics on one of them.
    /// That session's updates are all still answered, each exactly once —
    /// optimistically, its replica being gone; the other three sessions,
    /// planned by the same thread, keep verifying every update; and the
    /// run ends long before its deadline.
    #[test]
    fn a_planner_panic_costs_its_session_the_proofs_and_nothing_else() {
        let dpids = vec![1, 2, PANIC_DPID, 4];
        let updates = 12u64;
        let (cs, ps) = run(dpids.clone(), updates, 30_000_000_000);
        assert!(!cs.deadlined, "the run hit its deadline");
        assert_eq!(cs.acks.len() as u64, dpids.len() as u64 * updates);
        assert_eq!(cs.alarms, 0);
        assert_eq!(ps.len(), dpids.len());
        for sess in ps.values() {
            assert_eq!(
                (sess.flowmods, sess.confirmed),
                (updates, updates),
                "dpid {}: every update answered exactly once",
                sess.dpid
            );
            let verified = if sess.dpid == PANIC_DPID { 0 } else { updates };
            assert_eq!(sess.verified, verified, "dpid {}", sess.dpid);
        }
    }

    /// A datapath id above 2³², as the MAC-derived ids of real switches
    /// are: the proxy stamps the whole id into its probes and recognizes
    /// them when they come back, so every update is verified and acked
    /// once, and none is left to the controller's deadline.
    #[test]
    fn a_switch_with_a_64_bit_datapath_id_verifies() {
        let dpid = 0x1_0000_0001;
        let updates = 4u64;
        let (cs, ps) = run(vec![dpid], updates, 10_000_000_000);
        assert!(!cs.deadlined, "the run hit its deadline");
        assert_eq!(cs.acks.len() as u64, updates);
        assert_eq!(cs.alarms, 0);
        let sess = ps.values().next().expect("one session");
        assert_eq!(sess.dpid, dpid);
        assert_eq!(
            (sess.flowmods, sess.confirmed, sess.verified),
            (updates, updates, updates)
        );
        assert!(sess.probes_returned > 0);
    }
}
