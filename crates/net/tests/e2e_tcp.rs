//! End-to-end loopback test: controller ⇄ Monocle proxy ⇄ simulated
//! switches, all over real TCP on one machine.
//!
//! Controller, proxy and switch fleet each run their own event loop on
//! their own thread. The controller pushes FlowMods; the proxy intercepts
//! them, plans probes on its planner threads (one replica of each switch's
//! expected table, one warm engine on it), injects them
//! as PacketOuts, absorbs the returning PacketIns, and acks each update
//! with a BarrierReply carrying the FlowMod's original xid.
//!
//! The switches are `monocle_switchsim`'s model behind a TCP shell, so the
//! same runs can face switches whose barriers lie (`hp5406zl`, `pica8`).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use monocle_net::sim::ControllerStats;
use monocle_net::{
    ConnId, ControllerSim, ControllerSimConfig, Driver, EventLoop, IoCtx, ProxyApp, ProxyAppConfig,
    SwitchProfile, SwitchSim, SwitchSimConfig, SwitchStats, TransportEvent,
};
use monocle_openflow::messages::PacketInReason;
use monocle_openflow::{Action, FlowMod, FlowModCommand, FlowTable, Match, OfMessage};

struct Deployment {
    controller_stats: Arc<Mutex<ControllerStats>>,
    proxy_stats: monocle_net::proxy_app::SharedStats,
    switch_stats: Arc<Mutex<HashMap<u64, SwitchStats>>>,
    switches: usize,
    updates_per_switch: usize,
}

/// The ideal (truthful, fast) switch with a per-rule install time.
fn ideal_installing_in(install_ns: u64) -> SwitchProfile {
    SwitchProfile {
        dataplane_install_time: install_ns,
        ..SwitchProfile::ideal()
    }
}

/// Runs a full deployment and waits for every thread to finish.
fn run_deployment(
    switches: usize,
    updates_per_switch: usize,
    profile: SwitchProfile,
) -> Deployment {
    // Controller loop (binds first so the proxy knows where to dial).
    let mut controller_loop = EventLoop::new().unwrap();
    let mut controller = ControllerSim::new(ControllerSimConfig {
        switches,
        updates_per_switch,
        deadline_ns: 30_000_000_000, // 30 s safety net
    });
    let controller_stats = controller.stats();
    let controller_addr = controller_loop.with_ctx(|ctx| controller.start(ctx).unwrap());

    // Proxy loop.
    let mut proxy_loop = EventLoop::new().unwrap();
    let mut proxy = ProxyApp::new(ProxyAppConfig::new(controller_addr), proxy_loop.waker());
    let proxy_stats = proxy.stats();
    let proxy_addr = proxy_loop.with_ctx(|ctx| proxy.start(ctx).unwrap());

    // Switch fleet loop.
    let mut switch_loop = EventLoop::new().unwrap();
    let mut fleet = SwitchSim::new(SwitchSimConfig {
        proxy_addr,
        switches: (1..=switches as u64)
            .map(|dpid| (dpid, profile.clone()))
            .collect(),
    });
    let switch_stats = fleet.stats();

    let controller_thread = std::thread::spawn(move || {
        controller_loop.run(&mut controller).unwrap();
        // Controller exits once all acks arrive (or deadline): dropping the
        // loop closes its sockets, which cascades the shutdown.
    });
    let proxy_thread = std::thread::spawn(move || {
        proxy_loop.run(&mut proxy).unwrap();
    });
    let switch_thread = std::thread::spawn(move || {
        switch_loop.with_ctx(|ctx| fleet.start(ctx).unwrap());
        switch_loop.run(&mut fleet).unwrap();
    });

    controller_thread.join().unwrap();
    proxy_thread.join().unwrap();
    switch_thread.join().unwrap();

    Deployment {
        controller_stats,
        proxy_stats,
        switch_stats,
        switches,
        updates_per_switch,
    }
}

#[test]
fn eight_switches_verified_over_tcp() {
    let d = run_deployment(8, 10, ideal_installing_in(2_000_000));
    let total = d.switches * d.updates_per_switch;

    let cs = d.controller_stats.lock().unwrap();
    assert!(!cs.deadlined, "deployment hit the 30s deadline");
    assert_eq!(cs.acks.len(), total, "every FlowMod must be acked");
    assert_eq!(cs.alarms, 0);
    // Each switch channel acked exactly its own updates (xids preserved
    // end-to-end; a cross-wired ack would misattribute the dpid).
    for dpid in 1..=d.switches as u64 {
        let n = cs.acks.iter().filter(|a| a.dpid == dpid).count();
        assert_eq!(n, d.updates_per_switch, "dpid {dpid}");
    }
    // Confirmations are latency-bound: each ack waited at least one 2ms
    // install (the probe cannot verify before the rule exists).
    for a in cs.acks.iter() {
        assert!(
            a.latency_ns >= 2_000_000,
            "ack faster than install latency: {}ns",
            a.latency_ns
        );
    }
    drop(cs);

    // Proxy-side: every session planned and injected probes, and every
    // confirmation was probe-verified (not optimistic).
    let ps = d.proxy_stats.lock().unwrap();
    assert_eq!(ps.len(), d.switches);
    for sess in ps.values() {
        assert_eq!(sess.flowmods as usize, d.updates_per_switch);
        assert_eq!(sess.confirmed as usize, d.updates_per_switch);
        assert_eq!(
            sess.verified, sess.confirmed,
            "dpid {}: all confirmations must be probe-verified",
            sess.dpid
        );
        assert!(sess.probes_injected as usize >= d.updates_per_switch);
        assert!(sess.probes_returned > 0);
        assert_eq!(sess.alarms, 0);
    }
    drop(ps);

    // Switch-side: FlowMods arrived (workload + preinstalled default route)
    // and the datapath actually processed probe PacketOuts.
    let ss = d.switch_stats.lock().unwrap();
    for dpid in 1..=d.switches as u64 {
        assert_eq!(
            ss[&dpid].flowmods_processed as usize,
            d.updates_per_switch + 1,
            "dpid {dpid}: workload + default route"
        );
        assert!(ss[&dpid].packetouts > 0);
        assert!(ss[&dpid].frames_processed > 0);
    }
}

#[test]
fn echo_liveness_and_adaptive_steady_over_tcp() {
    // Same topology, but with per-session liveness echoes on a tight
    // period and adaptive steady-state monitoring enabled, so the run
    // exercises the telemetry path end to end: echo RTT estimation, ack
    // RTT estimation, and scheduler-driven steady probes over real TCP.
    let switches = 2;
    let updates = 8;

    let mut controller_loop = EventLoop::new().unwrap();
    let mut controller = ControllerSim::new(ControllerSimConfig {
        switches,
        updates_per_switch: updates,
        deadline_ns: 30_000_000_000,
    });
    let controller_stats = controller.stats();
    let controller_addr = controller_loop.with_ctx(|ctx| controller.start(ctx).unwrap());

    let mut proxy_loop = EventLoop::new().unwrap();
    let mut cfg = ProxyAppConfig::new(controller_addr);
    // 1ms: the pipelined run is only install-latency-bound (~2-5ms wall
    // clock), so the interval must sit well inside that window for the
    // timer to fire before teardown regardless of scheduler load.
    cfg.echo_interval_ns = 1_000_000;
    cfg.steady = Some(monocle::steady::SteadyConfig {
        adaptive: Some(monocle_sched::SchedConfig::default()),
    });
    let mut proxy = ProxyApp::new(cfg, proxy_loop.waker());
    let proxy_stats = proxy.stats();
    let proxy_addr = proxy_loop.with_ctx(|ctx| proxy.start(ctx).unwrap());

    let mut switch_loop = EventLoop::new().unwrap();
    let mut fleet = SwitchSim::new(SwitchSimConfig {
        proxy_addr,
        switches: (1..=switches as u64)
            .map(|dpid| (dpid, ideal_installing_in(2_000_000)))
            .collect(),
    });

    let ct = std::thread::spawn(move || controller_loop.run(&mut controller).unwrap());
    let pt = std::thread::spawn(move || proxy_loop.run(&mut proxy).unwrap());
    let st = std::thread::spawn(move || {
        switch_loop.with_ctx(|ctx| fleet.start(ctx).unwrap());
        switch_loop.run(&mut fleet).unwrap();
    });
    ct.join().unwrap();
    pt.join().unwrap();
    st.join().unwrap();

    let cs = controller_stats.lock().unwrap();
    assert!(!cs.deadlined);
    assert_eq!(cs.acks.len(), switches * updates);
    assert_eq!(cs.alarms, 0);
    drop(cs);

    let ps = proxy_stats.lock().unwrap();
    assert_eq!(ps.len(), switches);
    for sess in ps.values() {
        // Liveness echoes flowed and came home with a measurable RTT.
        assert!(sess.echo_sent > 0, "dpid {}: no echoes sent", sess.dpid);
        assert!(sess.echo_replies > 0, "dpid {}: no echo replies", sess.dpid);
        assert!(sess.echo_rtt_ewma_ns > 0.0);
        // Every confirmation produced an ack RTT sample, and the install
        // latency (2ms) bounds the estimate from below.
        assert_eq!(sess.ack_rtt_samples, sess.confirmed);
        assert!(sess.ack_rtt_ewma_ns >= 2_000_000.0);
        // Updates still verified with the adaptive scheduler active.
        assert_eq!(sess.confirmed as usize, updates);
        assert_eq!(sess.verified, sess.confirmed);
        assert_eq!(sess.alarms, 0);
    }
}

#[test]
fn single_switch_instant_install() {
    // Zero install time: still verified, acks can be fast.
    let d = run_deployment(1, 5, ideal_installing_in(0));
    let cs = d.controller_stats.lock().unwrap();
    assert!(!cs.deadlined);
    assert_eq!(cs.acks.len(), 5);
    assert_eq!(cs.alarms, 0);
    let ps = d.proxy_stats.lock().unwrap();
    let sess = ps.values().next().unwrap();
    assert_eq!(sess.verified, 5);
}

#[test]
fn overlapping_sessions_share_one_wall_clock() {
    // With serial 2ms installs, one switch's 6 updates and default route
    // take at least 14ms of install time alone. Eight switches overlapping
    // on one event loop must NOT take 8x that: check the whole run
    // finishes well under the serialized bound.
    let t0 = std::time::Instant::now();
    let d = run_deployment(8, 6, ideal_installing_in(2_000_000));
    let elapsed = t0.elapsed();
    let cs = d.controller_stats.lock().unwrap();
    assert!(!cs.deadlined);
    assert_eq!(cs.acks.len(), 48);
    // Serialized floor would be 8 switches x 7 installs x 2ms = 112ms of
    // pure install time; overlapped it is ~7 x 2ms plus overhead.
    assert!(
        elapsed < Duration::from_millis(5_000),
        "took {elapsed:?} — sessions are not overlapping"
    );
}

/// What [`ScriptedEndpoints`] saw, in its own loop's nanoseconds.
#[derive(Debug, Default)]
struct ScriptReport {
    /// Proxy confirmations (BarrierReplies carrying the FlowMod's xid) per
    /// script index.
    acks: Vec<u32>,
    /// First confirmation time per script index.
    acked_at: Vec<u64>,
    /// Time the passthrough BarrierReply sent after script entry `i` came
    /// back (the control arm: what a barrier-trusting controller sees).
    barrier_at: Vec<u64>,
    /// Time the switch committed script entry `i` to its data plane.
    installed_at: Vec<u64>,
    alarms: u64,
    deadlined: bool,
    /// The datapath's table when the run ended.
    switch_table: FlowTable,
}

const DEADLINE: u64 = u64::MAX;
/// Timer that ends the run a little after the last ack.
const SETTLED: u64 = u64::MAX - 1;
const WINDOW: usize = 8;
/// Set in the xid of the BarrierRequest that follows each FlowMod.
const BARRIER_XID: u32 = 0x8000_0000;
const DPID: u64 = 1;

/// Controller and switch on ONE event loop (one clock, so an ack time and a
/// commit time compare): the controller side sends a FlowMod script with
/// `WINDOW` updates outstanding, FlowMod `i` carrying xid and cookie `i + 1`
/// (the proxy forwards under a new xid but keeps the cookie) and followed by
/// a BarrierRequest the proxy passes through; the switch side is a
/// [`SwitchSim`] fleet of one, which reports when each cookie committed.
struct ScriptedEndpoints {
    script: Vec<FlowMod>,
    sent: usize,
    acked: usize,
    controller_conn: Option<ConnId>,
    fleet: SwitchSim,
    report: Arc<Mutex<ScriptReport>>,
}

impl ScriptedEndpoints {
    fn send_window(&mut self, ctx: &mut IoCtx<'_>) {
        let Some(conn) = self.controller_conn else {
            return;
        };
        while self.sent < self.script.len() && self.sent - self.acked < WINDOW {
            let mut fm = self.script[self.sent].clone();
            self.sent += 1;
            fm.cookie = self.sent as u64;
            let xid = self.sent as u32;
            let _ = ctx.send(conn, &OfMessage::FlowMod(fm), xid);
            let _ = ctx.send(conn, &OfMessage::BarrierRequest, BARRIER_XID | xid);
        }
    }

    /// Ends the run once the switch has committed the whole script (and
    /// the proxy's default route); until then, looks again later.
    fn settle(&mut self, ctx: &mut IoCtx<'_>) {
        let committed = self
            .fleet
            .switch(DPID)
            .map_or(0, |sw| sw.stats.installs_committed);
        if committed as usize > self.script.len() {
            self.finish(ctx, false);
        } else {
            ctx.schedule_in(20_000_000, SETTLED);
        }
    }

    fn finish(&mut self, ctx: &mut IoCtx<'_>, deadlined: bool) {
        let mut report = self.report.lock().unwrap();
        report.deadlined = deadlined;
        for i in 0..self.script.len() {
            let cookie = i as u64 + 1;
            report.installed_at[i] = self.fleet.committed_at(DPID, cookie).unwrap_or(u64::MAX);
        }
        if let Some(sw) = self.fleet.switch(DPID) {
            report.switch_table = sw.dataplane().clone();
        }
        ctx.stop();
    }

    fn on_controller_msg(&mut self, ctx: &mut IoCtx<'_>, msg: OfMessage, xid: u32) {
        match msg {
            OfMessage::FeaturesReply { .. } => self.send_window(ctx),
            OfMessage::BarrierReply if xid & BARRIER_XID != 0 => {
                let i = (xid & !BARRIER_XID) as usize - 1;
                let mut report = self.report.lock().unwrap();
                if report.barrier_at[i] == 0 {
                    report.barrier_at[i] = ctx.now_ns();
                }
            }
            OfMessage::BarrierReply => {
                let i = xid as usize - 1;
                let mut report = self.report.lock().unwrap();
                report.acks[i] += 1;
                if report.acks[i] > 1 {
                    return;
                }
                report.acked_at[i] = ctx.now_ns();
                drop(report);
                self.acked += 1;
                if self.acked == self.script.len() {
                    // Let a duplicate ack, if any, arrive before stopping.
                    ctx.schedule_in(20_000_000, SETTLED);
                }
                self.send_window(ctx);
            }
            OfMessage::Error { .. } => self.report.lock().unwrap().alarms += 1,
            _ => {}
        }
    }
}

impl Driver for ScriptedEndpoints {
    fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
        match ev {
            TransportEvent::Accepted { conn, .. } => {
                self.controller_conn = Some(conn);
                let _ = ctx.send(conn, &OfMessage::Hello, 0);
                let _ = ctx.send(conn, &OfMessage::FeaturesRequest, u32::MAX);
            }
            TransportEvent::Message { conn, msg, xid } if Some(conn) == self.controller_conn => {
                self.on_controller_msg(ctx, msg, xid);
            }
            TransportEvent::Timer { token: DEADLINE } => self.finish(ctx, true),
            TransportEvent::Timer { token: SETTLED } => self.settle(ctx),
            TransportEvent::Closed { .. } => self.finish(ctx, true),
            ev => self.fleet.handle(ctx, ev),
        }
    }
}

/// The disjoint-/32 workloads above never make a neighborhood bigger than
/// two rules, so a wrong pre-/post-delta choice could not show there. Here
/// 300 ACL rules with real overlap are loaded through the proxy onto a
/// switch with `profile`, then a third of them are strictly deleted,
/// re-added and modified, with eight updates outstanding so overlapping
/// ones queue behind each other. Asserts what holds on every profile,
/// truthful or not, and returns what the acks and barriers showed.
fn acl_script_over_tcp(profile: SwitchProfile) -> AclRun {
    use monocle_datasets::acl::{generate, AclConfig};
    let name = profile.name;
    let rules = generate(&AclConfig {
        rules: 300,
        subnet_pool: 36,
        default_rule: false,
        ..AclConfig::stanford_like()
    });
    let mut script: Vec<FlowMod> = rules
        .iter()
        .map(|r| FlowMod::add(r.priority, r.match_, r.actions.clone()))
        .collect();
    for (i, r) in rules.iter().enumerate().filter(|(i, _)| i % 3 == 0) {
        // Forwarding rules move to another port, drops start forwarding.
        let other = match r.actions.first() {
            Some(Action::Output(p)) => vec![Action::Output(p % 7 + 3)],
            _ => vec![Action::Output(4)],
        };
        match i % 9 {
            0 => script.push(FlowMod::delete_strict(r.priority, r.match_)),
            3 => {
                script.push(FlowMod::delete_strict(r.priority, r.match_));
                script.push(FlowMod::add(r.priority, r.match_, other));
            }
            _ => script.push(FlowMod::modify_strict(r.priority, r.match_, other)),
        }
    }
    let n = script.len();
    // The model: the proxy's preinstalled default route, then the script in
    // order (strict operations on different rules commute, and the proxy
    // keeps operations on one rule in order). On the way, mark the updates
    // whose confirming outcome may be a drop, which the proxy confirms by
    // silence (§3.3): a drop rule's add, or the delete of a rule over a
    // lower-priority drop rule.
    let mut model = FlowTable::new();
    model
        .add_rule(1, Match::any(), vec![Action::Output(2)])
        .unwrap();
    let mut silent = Vec::with_capacity(n);
    for fm in &script {
        silent.push(match fm.command {
            FlowModCommand::DeleteStrict => model
                .overlapping(&fm.match_.ternary())
                .iter()
                .any(|r| r.priority < fm.priority && r.actions.is_empty()),
            _ => fm.actions.is_empty(),
        });
        model.apply(fm).unwrap();
    }

    let report = Arc::new(Mutex::new(ScriptReport {
        acks: vec![0; n],
        acked_at: vec![0; n],
        barrier_at: vec![0; n],
        installed_at: vec![0; n],
        ..Default::default()
    }));
    let mut ends_loop = EventLoop::new().unwrap();
    let controller_addr = ends_loop.with_ctx(|ctx| {
        let l = ctx.listen("127.0.0.1:0").unwrap();
        ctx.schedule_in(60_000_000_000, DEADLINE);
        ctx.listener_addr(l).unwrap()
    });
    let mut proxy_loop = EventLoop::new().unwrap();
    let mut proxy = ProxyApp::new(ProxyAppConfig::new(controller_addr), proxy_loop.waker());
    let proxy_stats = proxy.stats();
    let proxy_addr = proxy_loop.with_ctx(|ctx| proxy.start(ctx).unwrap());
    let mut endpoints = ScriptedEndpoints {
        script,
        sent: 0,
        acked: 0,
        controller_conn: None,
        fleet: SwitchSim::new(SwitchSimConfig {
            proxy_addr,
            switches: vec![(DPID, profile)],
        }),
        report: Arc::clone(&report),
    };
    ends_loop.with_ctx(|ctx| endpoints.fleet.start(ctx).unwrap());
    let pt = std::thread::spawn(move || proxy_loop.run(&mut proxy).unwrap());
    ends_loop.run(&mut endpoints).unwrap();
    drop(ends_loop); // closes both sockets; the proxy exits when idle
    pt.join().unwrap();

    let report = report.lock().unwrap();
    assert!(
        !report.deadlined,
        "{name}: run hit its deadline or lost a socket"
    );
    assert_eq!(report.alarms, 0, "{name}");
    assert!(
        report.acks.iter().all(|&a| a == 1),
        "{name}: every FlowMod acked exactly once: {:?}",
        report.acks
    );
    let ps = proxy_stats.lock().unwrap();
    let sess = ps.values().next().unwrap();
    assert_eq!(sess.flowmods as usize, n, "{name}");
    assert_eq!(sess.confirmed as usize, n, "{name}");
    // About an eighth of the generated ACL is shadowed or indistinct by
    // construction (nothing to probe: optimistic ack). Planning any class of
    // update on the wrong side of its delta would lose that whole class.
    assert!(
        sess.verified as usize * 8 >= n * 7,
        "{name}: only {} of {n} updates were probe-verified",
        sess.verified
    );
    let before_commit = |at: &[u64], i: usize| at[i] < report.installed_at[i];
    let early_acks: Vec<usize> = (0..n)
        .filter(|&i| before_commit(&report.acked_at, i))
        .collect();
    // The datapath ended where the script says.
    let rows = |t: &FlowTable| {
        let mut rows: Vec<String> = t
            .rules()
            .iter()
            .map(|r| format!("{} {:?} {:?}", r.priority, r.match_, r.actions))
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(rows(&report.switch_table), rows(&model), "{name}");
    assert!(
        report.barrier_at.iter().all(|&t| t > 0),
        "{name}: a barrier went unanswered"
    );
    let run = AclRun {
        name,
        optimistic: sess.confirmed - sess.verified,
        early_acks: early_acks.len(),
        early_silent: early_acks.iter().filter(|&&i| silent[i]).count(),
        early_barriers: (0..n)
            .filter(|&i| before_commit(&report.barrier_at, i))
            .count(),
    };
    eprintln!(
        "{name}: {n} updates, {} optimistic, {} acks before commit ({} of {} silence-confirmed \
         ones), {} barrier replies before commit",
        run.optimistic,
        run.early_acks,
        run.early_silent,
        silent.iter().filter(|&&s| s).count(),
        run.early_barriers
    );
    run
}

/// What the acks and the passthrough barriers of one ACL run showed.
struct AclRun {
    name: &'static str,
    /// Acks given with nothing to probe.
    optimistic: u64,
    /// Updates acked before the switch committed them.
    early_acks: usize,
    /// Of those, the ones the proxy confirmed by silence.
    early_silent: usize,
    /// Passthrough BarrierReplies that came back before their FlowMod
    /// committed (the control arm).
    early_barriers: usize,
}

impl AclRun {
    /// A verified ack never precedes the commit it vouches for; only the
    /// optimistic acks (nothing to probe) may.
    fn assert_no_verified_ack_precedes_its_commit(&self) {
        assert!(
            self.early_acks as u64 <= self.optimistic,
            "{}: {} acks before commit ({} confirmed by silence), {} optimistic",
            self.name,
            self.early_acks,
            self.early_silent,
            self.optimistic
        );
    }
}

#[test]
fn acl_table_delete_readd_modify_over_tcp() {
    acl_script_over_tcp(SwitchProfile::ideal()).assert_no_verified_ack_precedes_its_commit();
}

/// HP 5406zl answers barriers before its TCAM commits (\[16\]): a controller
/// trusting the passthrough BarrierReplies sees rules that are not there
/// yet, where the proxy's acks wait for the commit (below).
#[test]
fn acl_script_over_tcp_on_hp5406zl_barriers_lie() {
    assert!(acl_script_over_tcp(SwitchProfile::hp5406zl()).early_barriers > 0);
}

/// Pica8 answers barriers early and reorders installs by priority.
#[test]
fn acl_script_over_tcp_on_pica8_barriers_lie() {
    assert!(acl_script_over_tcp(SwitchProfile::pica8()).early_barriers > 0);
}

/// HP 5406zl's agent takes a FlowMod in 3.3 ms, so with eight updates
/// outstanding a probe PacketOut waits behind them longer than the proxy's
/// 12 ms silence window. Silence still proves nothing early here: the
/// window opens only at the switch's claim (the reply to the proxy's own
/// barrier), and the probe the claim sends meets the old state until the
/// commit.
#[test]
fn acl_script_over_tcp_on_hp5406zl_acks_do_not_precede_commits() {
    acl_script_over_tcp(SwitchProfile::hp5406zl()).assert_no_verified_ack_precedes_its_commit();
}

/// Known defect: silence is no proof on Pica8. Its claims come early, and
/// highest-priority-first commits starve the proxy's priority-1 default
/// route until the install queue drains, so until then the old state drops
/// probes too: about 120 updates are acked before they commit, against 38
/// optimistic acks, 93 of them among the 115 updates the proxy confirms by
/// silence.
#[test]
#[ignore = "known defect: Pica8 claims early and commits the default route last, so \
            silence-confirmed acks precede their commit"]
fn acl_script_over_tcp_on_pica8_acks_do_not_precede_commits() {
    acl_script_over_tcp(SwitchProfile::pica8()).assert_no_verified_ack_precedes_its_commit();
}

/// Plays the proxy toward a fleet of one: after the handshake it sends the
/// switch messages only a switch sends, then a FlowMod and a barrier.
struct OddPeer {
    fleet: SwitchSim,
    peer: Option<ConnId>,
    barrier_replied: bool,
}

impl Driver for OddPeer {
    fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
        match ev {
            TransportEvent::Accepted { conn, .. } => {
                self.peer = Some(conn);
                let frame = monocle_packet::craft_packet(&Default::default(), b"x").unwrap();
                let odd = [
                    OfMessage::FeaturesReply {
                        datapath_id: 9,
                        n_tables: 1,
                        ports: vec![1],
                    },
                    OfMessage::PacketIn {
                        buffer_id: 0xffff_ffff,
                        in_port: 1,
                        reason: PacketInReason::Action,
                        data: frame,
                    },
                    OfMessage::BarrierReply,
                    OfMessage::FlowMod(FlowMod::add(5, Match::any(), vec![Action::Output(3)])),
                    OfMessage::BarrierRequest,
                ];
                for (xid, msg) in odd.iter().enumerate() {
                    let _ = ctx.send(conn, msg, xid as u32 + 1);
                }
            }
            TransportEvent::Message {
                conn,
                msg: OfMessage::BarrierReply,
                xid: 5,
            } if Some(conn) == self.peer => {
                self.barrier_replied = true;
                ctx.stop();
            }
            TransportEvent::Timer { token: DEADLINE } => ctx.stop(),
            ev => self.fleet.handle(ctx, ev),
        }
    }
}

/// The fleet's peer is outside input: messages a controller never sends a
/// switch are dropped, not handed to the model (whose agent panics on them
/// in the in-process simulator), and later FlowMods still install.
#[test]
fn switch_bound_odd_messages_never_panic_the_fleet() {
    let dpid = 0x42;
    let fleet_thread = std::thread::spawn(move || {
        let mut ev_loop = EventLoop::new().unwrap();
        let addr = ev_loop.with_ctx(|ctx| {
            let l = ctx.listen("127.0.0.1:0").unwrap();
            ctx.schedule_in(10_000_000_000, DEADLINE);
            ctx.listener_addr(l).unwrap()
        });
        let mut peer = OddPeer {
            fleet: SwitchSim::new(SwitchSimConfig {
                proxy_addr: addr,
                switches: vec![(dpid, SwitchProfile::ideal())],
            }),
            peer: None,
            barrier_replied: false,
        };
        ev_loop.with_ctx(|ctx| peer.fleet.start(ctx).unwrap());
        ev_loop.run(&mut peer).unwrap();
        peer
    });
    let peer = fleet_thread.join().expect("the fleet thread panicked");
    assert!(peer.barrier_replied, "the fleet stopped answering");
    let sw = peer.fleet.switch(dpid).unwrap();
    assert_eq!(sw.stats.flowmods_processed, 1);
    assert_eq!(
        sw.dataplane().len(),
        1,
        "the FlowMod after the odd ones installed"
    );
}
