//! The Monocle proxy as an event-loop driver: N switch sessions, one
//! upstream controller connection each, a few planner threads.
//!
//! ## Session lifecycle
//!
//! 1. A switch connects to the proxy's listener; the proxy (acting as a
//!    controller) sends `Hello` + `FeaturesRequest`.
//! 2. The `FeaturesReply` carries the datapath id: the proxy instantiates a
//!    [`MonitorProxy`] in deferred-planning mode, announces that the session
//!    reports claims (step 4), preinstalls the catching/default rules, and
//!    dials the upstream controller.
//! 3. The upstream handshake mirrors a real switch: the controller's
//!    `FeaturesRequest` is answered, under its xid, with the switch's own
//!    datapath id, table count and ports, kept from its `FeaturesReply`.
//! 4. From then on frames pass through under their own xid in both
//!    directions, except the frames Monocle consumes, originates or
//!    renumbers. FlowMods are intercepted: the monitor sends each to the
//!    switch (its own preinstalls and finalizers too) under a fresh proxy
//!    xid, and the update's ack surfaces as
//!    `BarrierReply { xid = flowmod xid }` (its alarm as `Error`, under the
//!    same xid). Probes are injected as `PacketOut`s under proxy xids, and
//!    probe `PacketIn`s are absorbed (a probe stamped with another datapath
//!    id — a neighbour's, caught here — is dropped: it is never production
//!    traffic). Every batch of FlowMods the proxy forwards is followed by a
//!    `BarrierRequest` of its own; its reply never leaves the proxy. It
//!    tells the monitor that the switch claims those FlowMods processed
//!    ([`MonitorProxy::on_barrier_reply`]), a hint that re-probes the
//!    updates it covers at once and starts their §3.3 silence count — never
//!    a confirmation. Until its claim an update is probed only when its
//!    plan lands; after it, again each time its last probe returns with the
//!    old state or times out (the wait doubling while its probes keep
//!    timing out). The timeout follows the session's own probe
//!    round trip ([`MonitorProxy::probe_timeout`], published as
//!    [`SessionStats::probe_timeout_ns`]), and a drop-confirmed update is
//!    acked once two probes sent since its claim have each gone that long
//!    unanswered. Every update ends in an ack or an alarm within
//!    [`monocle::dynamic::UPDATE_DEADLINE`] of its claim (plus one probe
//!    tick): one the switch claims but never installs is alarmed then, and
//!    the controller gets an `Error` under its FlowMod's xid, with no ack.
//!    The session announces this before its first FlowMod with
//!    a claim covering none (step 2), so even the updates that start before
//!    the switch answers its first barrier wait for their claim. The
//!    controller's own `BarrierRequest`s go to the switch under a proxy xid
//!    too, so the two can never be confused, and their replies go back
//!    upstream under the controller's xid. Each side's `EchoRequest`
//!    (OpenFlow keepalive) is answered by the proxy under its xid and never
//!    crosses to the other side.
//!
//! An `Error` the switch sends for a FlowMod it was sent goes through the
//! monitor: the session remembers each FlowMod's proxy xid with its number
//! among the monitor's FlowMods ([`MonitorProxy::flowmods_sent`]) until a
//! claim covers it, and an error under one of those xids goes to
//! [`MonitorProxy::on_flowmod_error`], which names the controller update the
//! FlowMod carried. The controller gets the switch's `Error` as the switch
//! sent it, under its FlowMod's xid. An update not answered yet gets no ack:
//! it ends with an alarm (the error stands in for the proxy's own), and the
//! updates queued behind it are released. An update alarmed on its deadline
//! instead (step 4) gets the proxy's own `Error`, under the same xid. One answered already — an update
//! with nothing to probe is acked at once — gets the error after its ack.
//! An error for one of Monocle's own FlowMods goes no further. Any other
//! `Error` passes through under its xid.
//!
//! Every session's monitor catches with [`CatchSpec::default`]: one global
//! spec cannot carry §6's per-switch catching tags, which wait for a
//! topology-aware layer over the sessions.
//!
//! ## Deferred planning
//!
//! Probe planning is SAT solving — milliseconds of CPU in the worst case —
//! so it never runs on the I/O thread, for updates and steady refreshes
//! alike; a session's monitor keeps no engine at all. Each session's
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
//! table but the one copy at the start. Answers come back through one
//! channel and the loop's waker (once per burst a thread drains) and are
//! handed to [`MonitorProxy::answer`], the one way back for plans and
//! refreshes alike. While a plan is in flight the update's FlowMod has
//! already been forwarded — planning overlaps switch installation latency,
//! which is where the multi-switch throughput scaling comes from.
//!
//! The steady refresh is one more step: with [`ProxyAppConfig::steady`]
//! set, the monitor asks for it on the tick its plans fall due (the
//! expected table moved and no update is in flight), the thread answers it
//! on the same replica, in stream order with the plan requests, and the
//! monitor patches the answer in when it lands.
//! While one is outstanding the monitor asks for no other; an answer
//! planned on an older table is applied all the same, and the next refresh
//! is then due at once.
//!
//! A step that panics costs only its session's replica: the thread catches
//! the panic, drops the replica, and answers that step and the session's
//! later ones as a planner without the table does — requests with no plan
//! (optimistic acks) and refreshes with the table lost, on which the
//! session drops its steady plans; its other sessions never notice.
//!
//! ## Steady-state verdicts
//!
//! `RuleFailed` / `RuleRecovered` have no OpenFlow message to ride on; they
//! are counted per session ([`SessionStats::rules_failed`],
//! [`SessionStats::rules_recovered`]).
//!
//! 5. When a session closes, its counters are published
//!    ([`ProxyApp::stats`]); once every session that came has closed, the
//!    proxy closes its planner threads and stops the loop.
//!
//! ## Backpressure
//!
//! Probe injections are discretionary traffic: when a switch connection's
//! write buffer passes the high-water mark they are parked per session and
//! flushed, in order, on `Drained`. That parking is the proxy's only
//! backpressure mechanism: the steady scheduler is told nothing about the
//! switch. A parked probe needs no revalidation:
//! when it comes back its answer is matched by sequence number like any
//! other, so it counts only if that number is still live: its update
//! unconfirmed, or, for a steady probe, its window open and the plan it was
//! made for still held — a refresh that keeps the plan keeps the probe.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};

use monocle::encode::CatchSpec;
use monocle::planner::{self, Answer, Replica, Step};
use monocle::proxy::{MonitorProxy, ProbeInjection, ProxyConfig, ProxyOutput};
use monocle::steady::SteadyConfig;
use monocle::PoolConfig;
use monocle_openflow::messages::PORT_TABLE;
use monocle_openflow::{Action, Match, OfMessage, PortNo};
use monocle_packet::ProbeMeta;
use monocle_sched::Ewma;

use crate::event_loop::{ConnId, Driver, IoCtx, TransportEvent};

/// Timer token for the global probe tick.
const TICK_TOKEN: u64 = 0;

/// Probe tick period.
const TICK_NS: u64 = 1_000_000;

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

/// A planner thread's answer for a session: a plan or a steady refresh.
struct PlanDone {
    session: u64,
    answer: Answer,
}

/// Per-switch counters, exposed through [`ProxyApp::stats`] once the session
/// closes.
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
    /// Steady-state: rules that stopped verifying.
    pub rules_failed: u64,
    /// Steady-state: failed rules that verified again.
    pub rules_recovered: u64,
    /// The proxy's own barriers answered by the switch (claims fed to the
    /// monitor).
    pub claims: u64,
    /// The monitor's dynamic probe timeout when the session closed, ns
    /// ([`MonitorProxy::probe_timeout`]): a drop-confirmed update is acked
    /// about twice this after its claim.
    pub probe_timeout_ns: u64,
    /// Probe returns the round-trip estimate behind `probe_timeout_ns`
    /// sampled.
    pub probe_rtt_samples: u64,
}

/// Shared view of the closed sessions' counters (keyed by session id): a
/// session's counters are published when it closes, and not before.
pub type SharedStats = Arc<Mutex<HashMap<u64, SessionStats>>>;

/// Configuration of the TCP proxy application.
#[derive(Debug, Clone)]
pub struct ProxyAppConfig {
    /// Switch-facing listen address (e.g. `"127.0.0.1:0"`).
    pub listen_addr: String,
    /// Upstream controller address.
    pub controller_addr: SocketAddr,
    /// Low-priority default route preinstalled on every switch
    /// (`(priority, output port)`); gives probes a distinguishable
    /// absent-path so confirmations are positive rather than
    /// silence-window based.
    pub preinstall_default: Option<(u16, PortNo)>,
    /// Planner threads: `pool.workers` of them (at least one), each keeping
    /// a [`Replica`] for every session pinned to it. Every session plans
    /// with its own monitor's generator settings.
    pub pool: PoolConfig,
    /// Steady-state monitoring config applied to every per-switch monitor
    /// (`None` disables steady probing; `adaptive` inside picks the
    /// scheduler's configuration, round-robin by default).
    pub steady: Option<SteadyConfig>,
}

impl ProxyAppConfig {
    /// Sensible defaults for a loopback deployment.
    pub fn new(controller_addr: SocketAddr) -> Self {
        Self {
            listen_addr: "127.0.0.1:0".to_string(),
            controller_addr,
            preinstall_default: Some((1, 2)),
            pool: PoolConfig::with_workers(4),
            steady: None,
        }
    }
}

enum Side {
    Switch,
    Controller,
}

/// What the reply to a `BarrierRequest` the proxy sent the switch answers.
enum Barrier {
    /// The proxy's own, sent once the first `covered` FlowMods were.
    Own { covered: u64 },
    /// The controller's, sent under its xid.
    Relayed { xid: u32 },
}

struct Session {
    dpid: u64,
    /// The switch's `FeaturesReply`: the controller's `FeaturesRequest` is
    /// answered with it.
    features: Option<OfMessage>,
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
    /// Unanswered update token → when its FlowMod came, for the ack RTT.
    /// A token's low 32 bits are the FlowMod's xid, which its ack, alarm or
    /// error goes back under.
    updates: HashMap<u64, u64>,
    /// Barriers sent to the switch and not answered yet, by proxy xid.
    barriers: HashMap<u32, Barrier>,
    /// FlowMods sent to the switch, by proxy xid: each one's number among
    /// the monitor's ([`MonitorProxy::flowmods_sent`]), kept until a claim
    /// covers it — the switch sends an error for a FlowMod before its reply
    /// to any barrier sent after it.
    flowmod_numbers: HashMap<u32, u64>,
    /// FlowMod→confirmation latency, α 0.2 (`stats.ack_rtt_ewma_ns` and
    /// `stats.ack_rtt_samples` copy it).
    ack_rtt: Ewma,
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

    /// Shared handle to per-session counters. A session's counters appear
    /// when the session closes: its teardown is the only writer.
    pub fn stats(&self) -> SharedStats {
        Arc::clone(&self.stats)
    }

    /// Binds the switch-facing listener and arms the probe tick. Returns
    /// the bound address for switches to dial.
    pub fn start(&mut self, ctx: &mut IoCtx<'_>) -> std::io::Result<SocketAddr> {
        let l = ctx.listen(&self.cfg.listen_addr)?;
        let addr = ctx.listener_addr(l)?;
        self.listen_addr = Some(addr);
        ctx.schedule_in(TICK_NS, TICK_TOKEN);
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

    /// Calls `f` on `session`'s monitor, if it has one, with the loop's
    /// clock, and applies what it puts out.
    fn drive(
        &mut self,
        ctx: &mut IoCtx<'_>,
        session: u64,
        f: impl FnOnce(&mut MonitorProxy, u64) -> Vec<ProxyOutput>,
    ) {
        let now = ctx.now_ns();
        let proxy = self
            .sessions
            .get_mut(&session)
            .and_then(|s| s.proxy.as_mut());
        if let Some(outputs) = proxy.map(|p| f(p, now)) {
            self.process_outputs(ctx, session, outputs);
        }
    }

    /// Applies proxy outputs for `session` — FlowMods forwarded are
    /// followed by one barrier of the proxy's own — then sends any new
    /// planning steps to its planner.
    fn process_outputs(&mut self, ctx: &mut IoCtx<'_>, session: u64, outputs: Vec<ProxyOutput>) {
        let now = ctx.now_ns();
        let mut forwarded = Vec::new();
        for o in outputs {
            let Some(sess) = self.sessions.get_mut(&session) else {
                return;
            };
            match o {
                ProxyOutput::ToSwitch(fm) => {
                    let conn = sess.switch_conn;
                    let xid = self.xid();
                    let _ = ctx.send(conn, &OfMessage::FlowMod(fm), xid);
                    forwarded.push(xid);
                }
                ProxyOutput::Inject(inj) => {
                    if ctx.over_high_water(sess.switch_conn) {
                        sess.stats.paused += 1;
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
                    if let Some(sent) = sess.updates.remove(&token) {
                        sess.ack_rtt.update(now.saturating_sub(sent) as f64);
                        sess.stats.ack_rtt_ewma_ns = sess.ack_rtt.get();
                        sess.stats.ack_rtt_samples = sess.ack_rtt.samples();
                        let xid = token as u32;
                        Self::send_to_controller(ctx, sess, OfMessage::BarrierReply, xid);
                    }
                }
                ProxyOutput::Alarm { token } => {
                    sess.stats.alarms += 1;
                    if sess.updates.remove(&token).is_some() {
                        let error = OfMessage::Error {
                            err_type: 5, // OFPET_FLOW_MOD_FAILED
                            code: 0,
                        };
                        Self::send_to_controller(ctx, sess, error, token as u32);
                    }
                }
                ProxyOutput::RuleFailed { .. } => sess.stats.rules_failed += 1,
                ProxyOutput::RuleRecovered { .. } => sess.stats.rules_recovered += 1,
            }
        }
        let Some(sess) = self.sessions.get_mut(&session) else {
            return;
        };
        let Some(proxy) = sess.proxy.as_mut() else {
            return;
        };
        let (covered, steps) = (proxy.flowmods_sent(), proxy.take_plan_steps());
        // The FlowMods just sent are the last ones the monitor numbered.
        let first = covered + 1 - forwarded.len() as u64;
        sess.flowmod_numbers
            .extend(forwarded.iter().copied().zip(first..));
        if !forwarded.is_empty() {
            self.send_barrier(ctx, session, Barrier::Own { covered });
        }
        for step in steps {
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

    /// Sends the switch a `BarrierRequest` under a fresh proxy xid and
    /// remembers what its reply answers.
    fn send_barrier(&mut self, ctx: &mut IoCtx<'_>, session: u64, barrier: Barrier) {
        let xid = self.xid();
        if let Some(sess) = self.sessions.get_mut(&session) {
            sess.barriers.insert(xid, barrier);
            let _ = ctx.send(sess.switch_conn, &OfMessage::BarrierRequest, xid);
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
                sess.features = Some(msg);
                sess.stats.dpid = datapath_id;
                let mut pcfg = ProxyConfig::new(datapath_id, CatchSpec::default());
                if let Some(sc) = &self.cfg.steady {
                    pcfg = pcfg.with_steady(sc.clone());
                }
                let mut proxy = MonitorProxy::new(pcfg);
                proxy.set_deferred_planning(true);
                // The session reports claims: it says so before its first
                // FlowMod, so every update waits for the switch's claim (a
                // claim covering nothing puts nothing out).
                let _ = proxy.on_barrier_reply(ctx.now_ns(), 0);
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
                // Probe payloads are self-identifying (magic + checksum):
                // this switch's go to its monitor, another switch's are
                // dropped, and everything else is production traffic for the
                // controller.
                if let Ok((fields, payload)) = monocle_packet::parse_packet(data) {
                    if let Some(meta) = ProbeMeta::decode(&payload) {
                        if meta.switch_id == sess.dpid {
                            sess.stats.probes_returned += 1;
                            self.drive(ctx, session, |p, now| {
                                p.on_probe_return(now, &meta, in_port, &fields)
                            });
                        }
                        return;
                    }
                }
                Self::send_to_controller(ctx, sess, msg, xid);
            }
            OfMessage::EchoRequest(data) => {
                let conn = sess.switch_conn;
                let _ = ctx.send(conn, &OfMessage::EchoReply(data), xid);
            }
            OfMessage::BarrierReply => match sess.barriers.remove(&xid) {
                Some(Barrier::Own { covered }) => {
                    sess.stats.claims += 1;
                    sess.flowmod_numbers.retain(|_, number| *number > covered);
                    self.drive(ctx, session, |p, now| p.on_barrier_reply(now, covered));
                }
                Some(Barrier::Relayed { xid }) => Self::send_to_controller(ctx, sess, msg, xid),
                None => Self::send_to_controller(ctx, sess, msg, xid),
            },
            OfMessage::Error { .. } => {
                let number = sess.flowmod_numbers.remove(&xid);
                let Some((number, proxy)) = number.zip(sess.proxy.as_mut()) else {
                    return Self::send_to_controller(ctx, sess, msg, xid);
                };
                // A FlowMod the monitor sent: a controller's error goes back
                // as the switch sent it, under the FlowMod's xid, in place of
                // the update's ack or alarm if it has none yet; one for
                // Monocle's own goes no further.
                let (token, outputs) = proxy.on_flowmod_error(ctx.now_ns(), number);
                if let Some(token) = token {
                    sess.updates.remove(&token);
                    Self::send_to_controller(ctx, sess, msg, token as u32);
                }
                self.process_outputs(ctx, session, outputs);
            }
            // FlowRemoved, …: pass through unchanged.
            other => Self::send_to_controller(ctx, sess, other, xid),
        }
    }

    fn on_controller_msg(&mut self, ctx: &mut IoCtx<'_>, session: u64, msg: OfMessage, xid: u32) {
        let Some(sess) = self.sessions.get_mut(&session) else {
            return;
        };
        match msg {
            OfMessage::Hello => {}
            OfMessage::FeaturesRequest => {
                if let (Some(cc), Some(features)) = (sess.controller_conn, &sess.features) {
                    let _ = ctx.send(cc, features, xid);
                }
            }
            OfMessage::FlowMod(fm) => {
                sess.stats.flowmods += 1;
                // Each FlowMod is an update of its own whatever xid it came
                // under: its token is its number in the session, above the
                // xid its answer goes back under.
                let token = sess.stats.flowmods << 32 | u64::from(xid);
                sess.updates.insert(token, ctx.now_ns());
                self.drive(ctx, session, |p, now| {
                    p.on_controller_flowmod(now, token, fm)
                });
            }
            OfMessage::EchoRequest(data) => {
                if let Some(cc) = sess.controller_conn {
                    let _ = ctx.send(cc, &OfMessage::EchoReply(data), xid);
                }
            }
            OfMessage::BarrierRequest => self.send_barrier(ctx, session, Barrier::Relayed { xid }),
            // PacketOut, …: pass through to the switch.
            other => {
                let conn = sess.switch_conn;
                let _ = ctx.send(conn, &other, xid);
            }
        }
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
        while let Ok(PlanDone { session, answer }) = self.results_rx.try_recv() {
            self.drive(ctx, session, |p, now| p.answer(now, answer));
        }
    }

    fn on_tick(&mut self, ctx: &mut IoCtx<'_>) {
        let ids: Vec<u64> = self.sessions.keys().copied().collect();
        for id in ids {
            // A tick that put nothing out may have asked for a refresh.
            self.drive(ctx, id, |p, now| p.on_tick(now));
        }
        ctx.schedule_in(TICK_NS, TICK_TOKEN);
    }

    fn teardown(&mut self, ctx: &mut IoCtx<'_>, session: u64) {
        self.to_planner(session, ToPlanner::Close { session });
        if let Some(mut sess) = self.sessions.remove(&session) {
            if let Some(p) = &sess.proxy {
                sess.stats.probe_timeout_ns = p.probe_timeout();
                sess.stats.probe_rtt_samples = p.probe_rtt_samples();
            }
            self.by_conn.remove(&sess.switch_conn);
            ctx.close(sess.switch_conn);
            if let Some(cc) = sess.controller_conn {
                self.by_conn.remove(&cc);
                ctx.close(cc);
            }
            self.stats.lock().unwrap().insert(session, sess.stats);
        }
        if self.had_session && self.sessions.is_empty() {
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
                        features: None,
                        switch_conn: conn,
                        controller_conn: None,
                        controller_ready: false,
                        proxy: None,
                        to_controller: Vec::new(),
                        paused_injections: Vec::new(),
                        updates: HashMap::new(),
                        barriers: HashMap::new(),
                        flowmod_numbers: HashMap::new(),
                        ack_rtt: Ewma::new(0.2),
                        stats: SessionStats::default(),
                    },
                );
                let _ = ctx.send(conn, &OfMessage::Hello, 0);
                let xid = self.xid();
                let _ = ctx.send(conn, &OfMessage::FeaturesRequest, xid);
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
            TransportEvent::Timer { .. } => {}
            TransportEvent::Notified => self.on_notified(ctx),
        }
    }
}

/// Planner thread main: keeps a [`Replica`] per session it serves, advances
/// each by its session's steps in arrival order, and ships every answer back;
/// wakes the loop once per burst of messages drained. Exits when the channel
/// closes.
fn planner_main(rx: Receiver<ToPlanner>, done: Sender<PlanDone>, waker: Arc<mio::Waker>) {
    // `None`: no replica — the stream has not started, or a step panicked
    // and took the replica with it.
    let mut replicas: HashMap<u64, Option<Replica>> = HashMap::new();
    #[cfg(test)]
    let mut poisoned = std::collections::HashSet::new();
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
                    poisoned.insert(session);
                    continue;
                }
            };
            let slot = replicas.entry(session).or_default();
            // A step that panics may leave the replica mid-mutation: it is
            // dropped, and the step answered as a lost replica answers it.
            let lost = planner::answer(None, &step);
            let advanced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                #[cfg(test)]
                if matches!(*step, Step::Plan { .. }) && poisoned.remove(&session) {
                    panic!("injected planner panic");
                }
                Replica::step(slot, *step)
            }));
            let answer = advanced.unwrap_or_else(|_| {
                *slot = None;
                lost
            });
            let Some(answer) = answer else {
                continue;
            };
            if done.send(PlanDone { session, answer }).is_err() {
                return; // the proxy is gone
            }
            answered = true;
        }
        if answered {
            let _ = waker.wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_loop::EventLoop;
    use crate::sim::{
        ControllerSim, ControllerSimConfig, ControllerStats, SwitchSim, SwitchSimConfig,
    };
    use monocle_openflow::FlowMod;
    use monocle_switchsim::SwitchProfile;

    /// Test-only fault injection: the planner panics on the first plan
    /// request of the session of this datapath.
    pub(super) const PANIC_DPID: u64 = 0xdead;

    /// Runs a controller sending `updates` FlowMods to each switch of
    /// `dpids`, the proxy with one planner thread and `steady` monitoring,
    /// and the switch fleet over loopback TCP, to the end; returns the
    /// controller's results and the proxy's per-session counters.
    fn run(
        dpids: Vec<u64>,
        updates: u64,
        deadline_ns: u64,
        steady: Option<SteadyConfig>,
    ) -> (ControllerStats, HashMap<u64, SessionStats>) {
        let mut controller_loop = EventLoop::new().unwrap();
        let mut controller = ControllerSim::new(ControllerSimConfig {
            switches: dpids.len(),
            updates_per_switch: updates as usize,
            deadline_ns,
        });
        let controller_stats = controller.stats();
        let controller_addr = controller_loop.with_ctx(|ctx| controller.start(ctx).unwrap());
        let ps = deploy(controller_loop, controller, controller_addr, dpids, steady);
        let cs = std::mem::take(&mut *controller_stats.lock().unwrap());
        (cs, ps)
    }

    /// Runs `controller` on its loop, listening at `controller_addr`, the
    /// proxy with one planner thread and `steady` monitoring, and a fleet of
    /// `dpids` (1 ms installs) to the end; returns the proxy's per-session
    /// counters.
    fn deploy<C: Driver + Send + 'static>(
        mut controller_loop: EventLoop,
        mut controller: C,
        controller_addr: SocketAddr,
        dpids: Vec<u64>,
        steady: Option<SteadyConfig>,
    ) -> HashMap<u64, SessionStats> {
        let mut proxy_loop = EventLoop::new().unwrap();
        let mut cfg = ProxyAppConfig::new(controller_addr);
        cfg.pool = PoolConfig::with_workers(1);
        cfg.steady = steady;
        let mut proxy = ProxyApp::new(cfg, proxy_loop.waker());
        let proxy_stats = proxy.stats();
        let proxy_addr = proxy_loop.with_ctx(|ctx| proxy.start(ctx).unwrap());
        let mut switch_loop = EventLoop::new().unwrap();
        let profile = SwitchProfile {
            dataplane_install_time: 1_000_000,
            ..SwitchProfile::ideal()
        };
        let mut fleet = SwitchSim::new(SwitchSimConfig {
            proxy_addr,
            switches: dpids.into_iter().map(|d| (d, profile.clone())).collect(),
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
        let ps = std::mem::take(&mut *proxy_stats.lock().unwrap());
        ps
    }

    /// One planner thread serves four sessions and panics on one of them.
    /// That session's updates are all still answered, each exactly once —
    /// optimistically, its replica being gone; the other three sessions,
    /// planned by the same thread, keep verifying every update; and the
    /// run ends long before its deadline. With steady monitoring on (the
    /// round-robin configuration), the same, and the lost session's steady
    /// refreshes, answered with the table lost, raise no verdict.
    #[test]
    fn a_planner_panic_costs_its_session_the_proofs_and_nothing_else() {
        let dpids = vec![1, 2, PANIC_DPID, 4];
        let updates = 12u64;
        for steady in [None, Some(SteadyConfig::default())] {
            let on = steady.is_some();
            let (cs, ps) = run(dpids.clone(), updates, 30_000_000_000, steady);
            assert!(!cs.deadlined, "steady {on}: the run hit its deadline");
            assert_eq!(cs.acks.len() as u64, dpids.len() as u64 * updates);
            assert_eq!(cs.alarms, 0);
            assert_eq!(ps.len(), dpids.len());
            for sess in ps.values() {
                assert_eq!(
                    (sess.flowmods, sess.confirmed),
                    (updates, updates),
                    "steady {on}, dpid {}: every update answered exactly once",
                    sess.dpid
                );
                let verified = if sess.dpid == PANIC_DPID { 0 } else { updates };
                assert_eq!(sess.verified, verified, "steady {on}, dpid {}", sess.dpid);
                assert_eq!(sess.rules_failed, 0, "steady {on}, dpid {}", sess.dpid);
            }
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
        let (cs, ps) = run(vec![dpid], updates, 10_000_000_000, None);
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
        // The probe timeout the session closed with, and what it rests on:
        // the returns of its dynamic probes, on a loopback switch well
        // under the 2 ms floor.
        assert!(sess.probe_rtt_samples > 0, "{sess:?}");
        assert!(sess.probe_rtt_samples <= sess.probes_returned, "{sess:?}");
        assert!(sess.probe_timeout_ns >= 2_000_000, "{sess:?}");
    }

    /// Set in the xids of [`BarrierController`]'s own barriers: the top of
    /// the xid space, where the proxy numbers the frames it originates.
    const CONTROLLER_BARRIER: u32 = 0x8000_0000;
    const SETTLED: u64 = 1;
    const GIVE_UP: u64 = 2;

    /// A controller that follows each of its FlowMods (xid `i`) with a
    /// barrier of its own (xid `CONTROLLER_BARRIER | i`), while the proxy's
    /// barrier for that FlowMod is still out, and records the xid of every
    /// `BarrierReply` it is sent until a while after the last one it
    /// expects.
    struct BarrierController {
        updates: u32,
        replies: Arc<Mutex<Vec<u32>>>,
    }

    impl Driver for BarrierController {
        fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
            match ev {
                TransportEvent::Accepted { conn, .. } => {
                    let _ = ctx.send(conn, &OfMessage::Hello, 0);
                    let _ = ctx.send(conn, &OfMessage::FeaturesRequest, 0);
                }
                TransportEvent::Message {
                    conn,
                    msg: OfMessage::FeaturesReply { .. },
                    ..
                } => {
                    for i in 1..=self.updates {
                        let fm = ControllerSim::workload_flowmod(i as usize);
                        let _ = ctx.send(conn, &OfMessage::FlowMod(fm), i);
                        let _ = ctx.send(conn, &OfMessage::BarrierRequest, CONTROLLER_BARRIER | i);
                    }
                }
                TransportEvent::Message {
                    msg: OfMessage::BarrierReply,
                    xid,
                    ..
                } => {
                    let mut replies = self.replies.lock().unwrap();
                    replies.push(xid);
                    if replies.len() == 2 * self.updates as usize {
                        ctx.schedule_in(50_000_000, SETTLED);
                    }
                }
                TransportEvent::Timer { .. } => ctx.stop(),
                _ => {}
            }
        }
    }

    /// The proxy's own barriers stay inside it: the controller gets one
    /// `BarrierReply` per FlowMod (the ack) and one per barrier it sent,
    /// under that barrier's xid — never one for a barrier the proxy sent,
    /// even with the controller numbering its barriers in the proxy's xid
    /// range.
    #[test]
    fn the_proxys_barriers_stay_inside_the_proxy() {
        let updates = 24u32;
        let replies = Arc::new(Mutex::new(Vec::new()));
        let mut controller_loop = EventLoop::new().unwrap();
        let controller_addr = controller_loop.with_ctx(|ctx| {
            let l = ctx.listen("127.0.0.1:0").unwrap();
            ctx.schedule_in(30_000_000_000, GIVE_UP);
            ctx.listener_addr(l).unwrap()
        });
        let controller = BarrierController {
            updates,
            replies: Arc::clone(&replies),
        };
        let ps = deploy(controller_loop, controller, controller_addr, vec![1], None);
        let mut got = std::mem::take(&mut *replies.lock().unwrap());
        got.sort_unstable();
        let acks = 1..=updates;
        let barriers = (1..=updates).map(|i| CONTROLLER_BARRIER | i);
        assert_eq!(got, acks.chain(barriers).collect::<Vec<_>>());
        let sess = ps.values().next().expect("one session");
        let updates = u64::from(updates);
        assert_eq!((sess.confirmed, sess.verified), (updates, updates));
        assert!(sess.claims > 0, "no claim reached the monitor");
    }

    /// A controller that sends `updates` non-overlapping FlowMods, all under
    /// one xid, and records the xid of every `BarrierReply` it is sent until
    /// a while after the last one it expects.
    struct OneXidController {
        updates: usize,
        replies: Arc<Mutex<Vec<u32>>>,
    }

    const SHARED_XID: u32 = 5;

    impl Driver for OneXidController {
        fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
            match ev {
                TransportEvent::Accepted { conn, .. } => {
                    let _ = ctx.send(conn, &OfMessage::Hello, 0);
                    let _ = ctx.send(conn, &OfMessage::FeaturesRequest, 0);
                }
                TransportEvent::Message {
                    conn,
                    msg: OfMessage::FeaturesReply { .. },
                    ..
                } => {
                    for i in 1..=self.updates {
                        let fm = ControllerSim::workload_flowmod(i);
                        let _ = ctx.send(conn, &OfMessage::FlowMod(fm), SHARED_XID);
                    }
                }
                TransportEvent::Message {
                    msg: OfMessage::BarrierReply,
                    xid,
                    ..
                } => {
                    let mut replies = self.replies.lock().unwrap();
                    replies.push(xid);
                    if replies.len() == self.updates {
                        ctx.schedule_in(50_000_000, SETTLED);
                    }
                }
                TransportEvent::Timer { .. } => ctx.stop(),
                _ => {}
            }
        }
    }

    /// The controller's xid is not the monitor's update token: two FlowMods
    /// under one xid are two updates, each verified and acked under that
    /// xid.
    #[test]
    fn two_flowmods_under_one_xid_are_two_updates() {
        let replies = Arc::new(Mutex::new(Vec::new()));
        let mut controller_loop = EventLoop::new().unwrap();
        let controller_addr = controller_loop.with_ctx(|ctx| {
            let l = ctx.listen("127.0.0.1:0").unwrap();
            ctx.schedule_in(30_000_000_000, GIVE_UP);
            ctx.listener_addr(l).unwrap()
        });
        let controller = OneXidController {
            updates: 2,
            replies: Arc::clone(&replies),
        };
        let ps = deploy(controller_loop, controller, controller_addr, vec![1], None);
        assert_eq!(*replies.lock().unwrap(), [SHARED_XID, SHARED_XID]);
        let sess = ps.values().next().expect("one session");
        assert_eq!((sess.flowmods, sess.confirmed, sess.verified), (2, 2, 2));
        assert_eq!(sess.ack_rtt_samples, 2);
    }

    /// The payload of the ordinary `PacketIn` [`StrayProbeSwitch`] sends.
    const PRODUCTION: &[u8] = b"production traffic";

    /// A switch (datapath id 1) that answers the proxy's `FeaturesRequest`
    /// and then sends two `PacketIn`s: a probe stamped with datapath id 2 —
    /// a neighbour's probe, caught here — and an ordinary packet. It stops
    /// when the proxy hangs up.
    struct StrayProbeSwitch;

    impl Driver for StrayProbeSwitch {
        fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
            match ev {
                TransportEvent::Message {
                    conn,
                    msg: OfMessage::FeaturesRequest,
                    xid,
                } => {
                    let features = OfMessage::FeaturesReply {
                        datapath_id: 1,
                        n_tables: 1,
                        ports: (1..=8).collect(),
                    };
                    let _ = ctx.send(conn, &features, xid);
                    let meta = ProbeMeta {
                        switch_id: 2,
                        rule_id: 1,
                        seq: 1,
                    };
                    let fields = monocle_packet::PacketFields::default();
                    for payload in [meta.encode().to_vec(), PRODUCTION.to_vec()] {
                        let packet_in = OfMessage::PacketIn {
                            buffer_id: 0xffff_ffff,
                            in_port: 3,
                            reason: monocle_openflow::messages::PacketInReason::Action,
                            data: monocle_packet::craft_packet(&fields, &payload).unwrap(),
                        };
                        let _ = ctx.send(conn, &packet_in, 0);
                    }
                }
                TransportEvent::Closed { .. } => ctx.stop(),
                _ => {}
            }
        }
    }

    /// A controller that records the payload of every `PacketIn` it is sent
    /// until a while after the ordinary one.
    struct PacketInController {
        payloads: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl Driver for PacketInController {
        fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
            match ev {
                TransportEvent::Accepted { conn, .. } => {
                    let _ = ctx.send(conn, &OfMessage::Hello, 0);
                    let _ = ctx.send(conn, &OfMessage::FeaturesRequest, 0);
                }
                TransportEvent::Message {
                    msg: OfMessage::PacketIn { data, .. },
                    ..
                } => {
                    let (_, payload) = monocle_packet::parse_packet(&data).unwrap();
                    if payload == PRODUCTION {
                        ctx.schedule_in(50_000_000, SETTLED);
                    }
                    self.payloads.lock().unwrap().push(payload);
                }
                TransportEvent::Timer { .. } => ctx.stop(),
                _ => {}
            }
        }
    }

    /// A probe another switch stamped is never production traffic: the
    /// proxy drops it, and the controller gets the ordinary `PacketIn` only.
    #[test]
    fn a_probe_of_another_switch_never_reaches_the_controller() {
        let payloads = Arc::new(Mutex::new(Vec::new()));
        let controller = PacketInController {
            payloads: Arc::clone(&payloads),
        };
        between(controller, StrayProbeSwitch);
        assert_eq!(*payloads.lock().unwrap(), [PRODUCTION]);
    }

    /// A switch (datapath id 1) with 2 tables and 16 ports that answers the
    /// proxy's `FeaturesRequest` and stops when the proxy hangs up.
    struct SixteenPortSwitch;

    /// What [`SixteenPortSwitch`] reports.
    fn sixteen_ports() -> OfMessage {
        OfMessage::FeaturesReply {
            datapath_id: 1,
            n_tables: 2,
            ports: (1..=16).collect(),
        }
    }

    impl Driver for SixteenPortSwitch {
        fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
            match ev {
                TransportEvent::Message {
                    conn,
                    msg: OfMessage::FeaturesRequest,
                    xid,
                } => {
                    let _ = ctx.send(conn, &sixteen_ports(), xid);
                }
                TransportEvent::Closed { .. } => ctx.stop(),
                _ => {}
            }
        }
    }

    /// A controller that asks for the switch's features under xid 9 and
    /// records every `FeaturesReply` it is sent, with its xid, until a while
    /// after the first.
    struct FeaturesController {
        replies: Arc<Mutex<Vec<(OfMessage, u32)>>>,
    }

    impl Driver for FeaturesController {
        fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
            match ev {
                TransportEvent::Accepted { conn, .. } => {
                    let _ = ctx.send(conn, &OfMessage::Hello, 0);
                    let _ = ctx.send(conn, &OfMessage::FeaturesRequest, 9);
                }
                TransportEvent::Message { msg, xid, .. } => {
                    if let OfMessage::FeaturesReply { .. } = msg {
                        ctx.schedule_in(50_000_000, SETTLED);
                        self.replies.lock().unwrap().push((msg, xid));
                    }
                }
                TransportEvent::Timer { .. } => ctx.stop(),
                _ => {}
            }
        }
    }

    /// The controller sees the switch's own features, under its own xid:
    /// the proxy makes up neither the table count nor the ports.
    #[test]
    fn the_controller_sees_the_switchs_own_features() {
        let replies = Arc::new(Mutex::new(Vec::new()));
        let controller = FeaturesController {
            replies: Arc::clone(&replies),
        };
        between(controller, SixteenPortSwitch);
        assert_eq!(*replies.lock().unwrap(), [(sixteen_ports(), 9)]);
    }

    /// Runs `controller` (listening, with a 30 s deadline), the proxy with
    /// one planner thread, and one hand-written `switch` dialing the proxy,
    /// to the end; returns the proxy's per-session counters.
    fn between<C, S>(mut controller: C, mut switch: S) -> HashMap<u64, SessionStats>
    where
        C: Driver + Send + 'static,
        S: Driver + Send + 'static,
    {
        let mut controller_loop = EventLoop::new().unwrap();
        let controller_addr = controller_loop.with_ctx(|ctx| {
            let l = ctx.listen("127.0.0.1:0").unwrap();
            ctx.schedule_in(30_000_000_000, GIVE_UP);
            ctx.listener_addr(l).unwrap()
        });
        let mut proxy_loop = EventLoop::new().unwrap();
        let mut cfg = ProxyAppConfig::new(controller_addr);
        cfg.pool = PoolConfig::with_workers(1);
        let mut proxy = ProxyApp::new(cfg, proxy_loop.waker());
        let proxy_stats = proxy.stats();
        let proxy_addr = proxy_loop.with_ctx(|ctx| proxy.start(ctx).unwrap());
        let mut switch_loop = EventLoop::new().unwrap();
        let threads = [
            std::thread::spawn(move || controller_loop.run(&mut controller).unwrap()),
            std::thread::spawn(move || proxy_loop.run(&mut proxy).unwrap()),
            std::thread::spawn(move || {
                switch_loop.with_ctx(|ctx| ctx.connect(proxy_addr).unwrap());
                switch_loop.run(&mut switch).unwrap()
            }),
        ];
        for t in threads {
            t.join().unwrap();
        }
        let ps = std::mem::take(&mut *proxy_stats.lock().unwrap());
        ps
    }

    /// The echo frames one side of the proxy was sent, with their xids.
    type Echoes = Arc<Mutex<Vec<(OfMessage, u32)>>>;

    fn record_echo(echoes: &Echoes, msg: OfMessage, xid: u32) {
        if matches!(msg, OfMessage::EchoRequest(_) | OfMessage::EchoReply(_)) {
            echoes.lock().unwrap().push((msg, xid));
        }
    }

    /// A switch (datapath id 1) that answers the proxy's `FeaturesRequest`,
    /// sends an `EchoRequest(b"ka")` under xid 77, and records every echo
    /// frame it is sent. It stops when the proxy hangs up.
    struct KeepaliveSwitch {
        echoes: Echoes,
    }

    impl Driver for KeepaliveSwitch {
        fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
            match ev {
                TransportEvent::Message {
                    conn,
                    msg: OfMessage::FeaturesRequest,
                    xid,
                } => {
                    let features = OfMessage::FeaturesReply {
                        datapath_id: 1,
                        n_tables: 1,
                        ports: (1..=8).collect(),
                    };
                    let _ = ctx.send(conn, &features, xid);
                    let _ = ctx.send(conn, &OfMessage::EchoRequest(b"ka".to_vec()), 77);
                }
                TransportEvent::Message { msg, xid, .. } => record_echo(&self.echoes, msg, xid),
                TransportEvent::Closed { .. } => ctx.stop(),
                _ => {}
            }
        }
    }

    /// A controller that sends an `EchoRequest(b"ctl")` under xid 78 once
    /// the handshake is done, and records every echo frame it is sent until
    /// a while after its reply.
    struct KeepaliveController {
        echoes: Echoes,
    }

    impl Driver for KeepaliveController {
        fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
            match ev {
                TransportEvent::Accepted { conn, .. } => {
                    let _ = ctx.send(conn, &OfMessage::Hello, 0);
                    let _ = ctx.send(conn, &OfMessage::FeaturesRequest, 0);
                }
                TransportEvent::Message {
                    conn,
                    msg: OfMessage::FeaturesReply { .. },
                    ..
                } => {
                    let _ = ctx.send(conn, &OfMessage::EchoRequest(b"ctl".to_vec()), 78);
                }
                TransportEvent::Message { msg, xid, .. } => {
                    if matches!(msg, OfMessage::EchoReply(_)) {
                        ctx.schedule_in(50_000_000, SETTLED);
                    }
                    record_echo(&self.echoes, msg, xid);
                }
                TransportEvent::Timer { .. } => ctx.stop(),
                _ => {}
            }
        }
    }

    /// OpenFlow keepalive: the proxy answers each side's `EchoRequest`
    /// itself, with the request's payload under its xid, and neither echo
    /// crosses to the other side.
    #[test]
    fn echo_requests_are_answered_on_their_own_side() {
        let (switch_echoes, controller_echoes) = (Echoes::default(), Echoes::default());
        let controller = KeepaliveController {
            echoes: Arc::clone(&controller_echoes),
        };
        let switch = KeepaliveSwitch {
            echoes: Arc::clone(&switch_echoes),
        };
        between(controller, switch);
        let reply = |payload: &[u8], xid| (OfMessage::EchoReply(payload.to_vec()), xid);
        assert_eq!(*switch_echoes.lock().unwrap(), [reply(b"ka", 77)]);
        assert_eq!(*controller_echoes.lock().unwrap(), [reply(b"ctl", 78)]);
    }

    /// The priorities [`RejectingSwitch`] answers with an `Error`: the
    /// proxy's default route's, and so the controller's first and third
    /// updates.
    const REJECTED: [u16; 2] = [1, 10];

    /// The `Error` [`RejectingSwitch`] answers with: not the one the proxy
    /// makes up for an alarm (code 0).
    const REJECTION: OfMessage = OfMessage::Error {
        err_type: 5, // OFPET_FLOW_MOD_FAILED
        code: 1,     // OFPFMFC_OVERLAP
    };

    /// A switch (datapath id 1) that answers the proxy's `FeaturesRequest`
    /// and barriers, records the priority of every FlowMod it is sent, and
    /// rejects those of [`REJECTED`] priority with [`REJECTION`] under the
    /// FlowMod's xid. It never returns a probe, and stops when the proxy
    /// hangs up.
    struct RejectingSwitch {
        installs: Arc<Mutex<Vec<u16>>>,
    }

    impl Driver for RejectingSwitch {
        fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
            let TransportEvent::Message { conn, msg, xid } = ev else {
                if matches!(ev, TransportEvent::Closed { .. }) {
                    ctx.stop();
                }
                return;
            };
            let reply = match msg {
                OfMessage::FeaturesRequest => OfMessage::FeaturesReply {
                    datapath_id: 1,
                    n_tables: 1,
                    ports: (1..=8).collect(),
                },
                OfMessage::BarrierRequest => OfMessage::BarrierReply,
                OfMessage::FlowMod(fm) => {
                    self.installs.lock().unwrap().push(fm.priority);
                    if !REJECTED.contains(&fm.priority) {
                        return;
                    }
                    REJECTION
                }
                _ => return,
            };
            let _ = ctx.send(conn, &reply, xid);
        }
    }

    /// A controller that sends two overlapping FlowMods, under xids 1 and 2,
    /// then under xid 3 one that overlaps neither but asks the switch to
    /// check for overlaps at the default route's priority — the expected
    /// table refuses it, so there is nothing to probe — and records every
    /// `Error` and `BarrierReply` it is sent, with its xid, until a while
    /// after the first `Error`.
    struct RejectedController {
        answers: Arc<Mutex<Vec<(u32, OfMessage)>>>,
    }

    impl Driver for RejectedController {
        fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
            match ev {
                TransportEvent::Accepted { conn, .. } => {
                    let _ = ctx.send(conn, &OfMessage::Hello, 0);
                    let _ = ctx.send(conn, &OfMessage::FeaturesRequest, 0);
                }
                TransportEvent::Message {
                    conn,
                    msg: OfMessage::FeaturesReply { .. },
                    ..
                } => {
                    let subnet = Match::any().with_nw_dst([10, 0, 0, 0], 24);
                    let host = Match::any().with_nw_dst([10, 0, 0, 1], 32);
                    // Both forward off the default route (port 2): monitorable.
                    let first = FlowMod::add(10, subnet, vec![Action::Output(3)]);
                    let second = FlowMod::add(20, host, vec![Action::Output(4)]);
                    let other = Match::any().with_nw_dst([10, 0, 1, 0], 24);
                    let mut third = FlowMod::add(1, other, vec![Action::Output(4)]);
                    third.check_overlap = true;
                    let _ = ctx.send(conn, &OfMessage::FlowMod(first), 1);
                    let _ = ctx.send(conn, &OfMessage::FlowMod(second), 2);
                    let _ = ctx.send(conn, &OfMessage::FlowMod(third), 3);
                }
                TransportEvent::Message { msg, xid, .. } => {
                    if matches!(msg, OfMessage::Error { .. }) {
                        ctx.schedule_in(100_000_000, SETTLED);
                    }
                    if matches!(msg, OfMessage::Error { .. } | OfMessage::BarrierReply) {
                        self.answers.lock().unwrap().push((xid, msg));
                    }
                }
                TransportEvent::Timer { .. } => ctx.stop(),
                _ => {}
            }
        }
    }

    /// The switch rejects the proxy's default route and the controller's
    /// first and third FlowMods. The controller hears nothing of the first
    /// rejection. Of the second it hears the switch's own `Error`, under its
    /// FlowMod's xid, and no ack: the monitor ends that update with an alarm
    /// at once, not on its deadline, and the update queued behind it
    /// reaches the switch. The third, with nothing to probe, was acked at
    /// once; the switch's `Error` for it follows the ack, under its xid.
    #[test]
    fn a_rejected_flowmod_alarms_its_update_under_the_controllers_xid() {
        let (answers, installs) = (Arc::default(), Arc::default());
        let controller = RejectedController {
            answers: Arc::clone(&answers),
        };
        let switch = RejectingSwitch {
            installs: Arc::clone(&installs),
        };
        let ps = between(controller, switch);
        let mut answers = answers.lock().unwrap().clone();
        answers.sort_by_key(|(xid, _)| *xid); // stable: per xid, as sent
        let expected = [(1, REJECTION), (3, OfMessage::BarrierReply), (3, REJECTION)];
        assert_eq!(answers, expected);
        assert_eq!(*installs.lock().unwrap(), [1, 10, 1, 20]);
        let sess = ps.values().next().expect("one session");
        assert_eq!((sess.flowmods, sess.alarms, sess.confirmed), (3, 1, 1));
    }
}
