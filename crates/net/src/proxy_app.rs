//! The Monocle proxy as an event-loop driver: N switch sessions, one
//! upstream controller connection each, a few planner threads.
//!
//! What the proxy says to each side is decided by one
//! [`monocle::channel::Channel`] per switch session — the OpenFlow protocol
//! half: the handshake, echoes, FlowMods, probes, claims, and the
//! controller's barriers, which the channel answers itself. `ProxyApp` keeps
//! what only a transport can do: the listener and the controller dial, the
//! frames for the controller buffered until the dial completes, the planner
//! threads, backpressure parking of probes, and teardown.
//!
//! ## Session lifecycle
//!
//! 1. A switch connects to the proxy's listener: the session's channel is
//!    created, and its greeting goes out.
//! 2. Once the switch's `FeaturesReply` has told the channel who it is, the
//!    proxy dials the upstream controller. Frames for the controller wait
//!    until the dial completes; then the proxy's `Hello` goes first and they
//!    follow, in order.
//! 3. From then on every message from either side goes to the channel, and
//!    the frames it puts out go to their side.
//! 4. When either connection closes, the session's counters are published
//!    ([`ProxyApp::stats`]); once every session that came has closed, the
//!    proxy closes its planner threads and stops the loop.
//!
//! ## Deferred planning
//!
//! Probe planning is SAT solving — milliseconds of CPU in the worst case —
//! so it never runs on the I/O thread, for updates and steady refreshes
//! alike; a session's monitor keeps no engine at all. Each session's
//! channel records its planning work as an ordered stream of [`Step`]s
//! ([`Channel::take_steps`]): a copy of the expected table when the session
//! starts, every FlowMod applied to it since, and one plan request per
//! monitorable update — a delete's before its FlowMod, an add's or a
//! modify's after it. The loop thread forwards the steps, in order, to the
//! planner thread the session is pinned to (`session %
//! ProxyAppConfig::pool.workers`; the threads are spawned by
//! [`ProxyApp::new`]). That thread keeps one [`Replica`] per session — a
//! mirror of the expected table plus one warm [`monocle::ProbeEngine`] —
//! advances it by each step and answers each request on it, so every update
//! is planned on exactly the table §4.1 prescribes, by an engine that
//! synchronizes in O(delta) and keeps its plan cache across updates.
//! Nothing the loop thread sends grows with the table but the one copy at
//! the start. Answers come back through one channel and the loop's waker
//! (once per burst a thread drains) and are handed to [`Channel::answer`],
//! the one way back for plans and refreshes alike. While a plan is in flight
//! the update's FlowMod has already been forwarded — planning overlaps
//! switch installation latency, which is where the multi-switch throughput
//! scaling comes from.
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
//! ## Backpressure
//!
//! Probe injections are discretionary traffic: a probe (a `PacketOut` under
//! [`PROBE_XID`]) due while a switch connection's write buffer is past the
//! high-water mark is parked per session and flushed, in order, on
//! `Drained`. That parking is the proxy's only backpressure mechanism: the
//! steady scheduler is told nothing about the switch. A parked probe needs
//! no revalidation: when it comes back its answer is matched by sequence
//! number like any other, so it counts only if that number is still live:
//! its update unconfirmed, or, for a steady probe, its window open and the
//! plan it was made for still held — a refresh that keeps the plan keeps
//! the probe.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};

use monocle::channel::{Channel, Side, PROBE_XID};
use monocle::planner::{self, Answer, Replica, Step};
use monocle::{steady::SteadyConfig, PoolConfig};
use monocle_openflow::{OfMessage, PortNo};

use crate::event_loop::{ConnId, Driver, IoCtx, TransportEvent};

pub use monocle::channel::SessionStats;

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

struct Session {
    channel: Channel,
    switch_conn: ConnId,
    controller_conn: Option<ConnId>,
    /// Frames for the controller, buffered until the dial's handshake
    /// completes (the dial is non-blocking, so nothing may be sent upstream
    /// before); `None` from then on.
    to_controller: Option<Vec<(OfMessage, u32)>>,
    /// Probes parked by backpressure, flushed on `Drained`.
    parked: Vec<(OfMessage, u32)>,
    /// Probes ever parked.
    paused: u64,
}

/// The proxy driver. Create with [`ProxyApp::new`], call
/// [`ProxyApp::start`] inside `EventLoop::with_ctx`, then run the loop.
pub struct ProxyApp {
    cfg: ProxyAppConfig,
    sessions: HashMap<u64, Session>,
    by_conn: HashMap<ConnId, (u64, Side)>,
    next_session: u64,
    /// One channel per planner thread; session `s` goes to
    /// `planners[s % planners.len()]`. Emptied (closing the threads) on
    /// exit.
    planners: Vec<Sender<ToPlanner>>,
    /// The planner threads' answers, each with its session: a plan or a
    /// steady refresh.
    results_rx: Receiver<(u64, Answer)>,
    planner_threads: Vec<std::thread::JoinHandle<()>>,
    had_session: bool,
    stats: SharedStats,
}

impl ProxyApp {
    /// Creates the proxy app and its planner threads (`cfg.pool.workers`,
    /// at least one). `waker` must be the event loop's waker
    /// (`EventLoop::waker()`), used by the planners to signal finished
    /// plans.
    pub fn new(cfg: ProxyAppConfig, waker: Arc<mio::Waker>) -> Self {
        let (done_tx, done_rx) = std::sync::mpsc::channel::<(u64, Answer)>();
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
            planners,
            results_rx: done_rx,
            planner_threads,
            had_session: false,
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
        ctx.schedule_in(TICK_NS, TICK_TOKEN);
        ctx.listener_addr(l)
    }

    /// Sends `msg` to the planner thread `session` is pinned to (nowhere
    /// once the threads are closed).
    fn to_planner(planners: &[Sender<ToPlanner>], session: u64, msg: ToPlanner) {
        if !planners.is_empty() {
            let _ = planners[(session % planners.len() as u64) as usize].send(msg);
        }
    }

    /// Calls `f` on `session`'s channel with the loop's clock, then puts the
    /// frames it put out on their way and its planning steps to its
    /// planner, and dials the controller once the switch has said who it is.
    fn drive(&mut self, ctx: &mut IoCtx<'_>, session: u64, f: impl FnOnce(&mut Channel, u64)) {
        let now = ctx.now_ns();
        let Some(sess) = self.sessions.get_mut(&session) else {
            return;
        };
        f(&mut sess.channel, now);
        for (side, msg, xid) in sess.channel.frames() {
            match side {
                Side::Switch if xid == PROBE_XID && ctx.over_high_water(sess.switch_conn) => {
                    sess.paused += 1;
                    sess.parked.push((msg, xid));
                }
                Side::Switch => {
                    let _ = ctx.send(sess.switch_conn, &msg, xid);
                }
                Side::Controller => match (&mut sess.to_controller, sess.controller_conn) {
                    (Some(buffered), _) => buffered.push((msg, xid)),
                    (None, cc) => {
                        let _ = ctx.send(cc.expect("connected"), &msg, xid);
                    }
                },
            }
        }
        for step in sess.channel.take_steps() {
            let step = Box::new(step);
            Self::to_planner(&self.planners, session, ToPlanner::Step { session, step });
        }
        let dpid = sess.channel.dpid();
        let Some(_dpid) = dpid.filter(|_| sess.controller_conn.is_none()) else {
            return;
        };
        let Ok(cc) = ctx.connect(self.cfg.controller_addr) else {
            return self.teardown(ctx, session);
        };
        sess.controller_conn = Some(cc);
        self.by_conn.insert(cc, (session, Side::Controller));
        #[cfg(test)]
        if _dpid == tests::PANIC_DPID {
            Self::to_planner(&self.planners, session, ToPlanner::Panic { session });
        }
    }

    /// Flushes backpressure-parked probes once the switch connection
    /// drained.
    fn flush_parked(&mut self, ctx: &mut IoCtx<'_>, session: u64) {
        let sess = self.sessions.get_mut(&session);
        let Some(sess) = sess.filter(|s| ctx.below_low_water(s.switch_conn)) else {
            return;
        };
        for (msg, xid) in std::mem::take(&mut sess.parked) {
            if ctx.over_high_water(sess.switch_conn) {
                sess.parked.push((msg, xid));
            } else {
                let _ = ctx.send(sess.switch_conn, &msg, xid);
            }
        }
    }

    fn on_tick(&mut self, ctx: &mut IoCtx<'_>) {
        let ids: Vec<u64> = self.sessions.keys().copied().collect();
        for id in ids {
            self.drive(ctx, id, |c, now| c.on_tick(now));
        }
        ctx.schedule_in(TICK_NS, TICK_TOKEN);
    }

    fn teardown(&mut self, ctx: &mut IoCtx<'_>, session: u64) {
        Self::to_planner(&self.planners, session, ToPlanner::Close { session });
        if let Some(sess) = self.sessions.remove(&session) {
            self.by_conn.remove(&sess.switch_conn);
            ctx.close(sess.switch_conn);
            if let Some(cc) = sess.controller_conn {
                self.by_conn.remove(&cc);
                ctx.close(cc);
            }
            let mut stats = sess.channel.stats();
            stats.paused = sess.paused;
            self.stats.lock().unwrap().insert(session, stats);
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
                let channel = Channel::new(self.cfg.preinstall_default, self.cfg.steady.clone());
                let session = Session {
                    channel,
                    switch_conn: conn,
                    controller_conn: None,
                    to_controller: Some(Vec::new()),
                    parked: Vec::new(),
                    paused: 0,
                };
                self.sessions.insert(id, session);
                self.drive(ctx, id, |_, _| {}); // the greeting
            }
            TransportEvent::Connected { conn } => {
                // Controller dial completed: introduce ourselves and flush
                // anything buffered while the handshake was in flight.
                if let Some(&(session, Side::Controller)) = self.by_conn.get(&conn) {
                    let _ = ctx.send(conn, &OfMessage::Hello, 0);
                    if let Some(sess) = self.sessions.get_mut(&session) {
                        for (msg, xid) in sess.to_controller.take().unwrap_or_default() {
                            let _ = ctx.send(conn, &msg, xid);
                        }
                    }
                }
            }
            TransportEvent::Message { conn, msg, xid } => match self.by_conn.get(&conn) {
                Some(&(session, Side::Switch)) => {
                    self.drive(ctx, session, |c, now| c.on_switch(now, msg, xid))
                }
                Some(&(session, Side::Controller)) => {
                    self.drive(ctx, session, |c, now| c.on_controller(now, msg, xid))
                }
                None => {}
            },
            TransportEvent::Drained { conn } => {
                if let Some(&(session, Side::Switch)) = self.by_conn.get(&conn) {
                    self.flush_parked(ctx, session);
                }
            }
            TransportEvent::Closed { conn } => {
                if let Some(&(session, _)) = self.by_conn.get(&conn) {
                    self.teardown(ctx, session);
                }
            }
            TransportEvent::Timer { token: TICK_TOKEN } => self.on_tick(ctx),
            TransportEvent::Timer { .. } => {}
            TransportEvent::Notified => {
                while let Ok((session, answer)) = self.results_rx.try_recv() {
                    self.drive(ctx, session, |c, now| c.answer(now, answer));
                }
            }
        }
    }
}

/// Planner thread main: keeps a [`Replica`] per session it serves, advances
/// each by its session's steps in arrival order, and ships every answer back;
/// wakes the loop once per burst of messages drained. Exits when the channel
/// closes.
fn planner_main(rx: Receiver<ToPlanner>, done: Sender<(u64, Answer)>, waker: Arc<mio::Waker>) {
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
            if done.send((session, answer)).is_err() {
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
    use monocle_switchsim::SwitchProfile;

    /// Test-only fault injection: the planner panics on the first plan
    /// request of the session of this datapath.
    pub(super) const PANIC_DPID: u64 = 0xdead;

    /// Runs a controller sending `updates` FlowMods to each switch of
    /// `dpids`, the proxy with one planner thread and `steady` monitoring,
    /// and the switch fleet (1 ms installs) over loopback TCP, to the end;
    /// returns the controller's results and the proxy's per-session
    /// counters.
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
        let cs = std::mem::take(&mut *controller_stats.lock().unwrap());
        let ps = std::mem::take(&mut *proxy_stats.lock().unwrap());
        (cs, ps)
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
}
