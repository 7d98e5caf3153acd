//! End-to-end loopback test: controller ⇄ Monocle proxy ⇄ simulated
//! switches, all over real TCP on one machine.
//!
//! Controller, proxy and switch fleet each run their own event loop on
//! their own thread. The controller pushes FlowMods; the proxy intercepts
//! them, plans probes on its planner threads (one replica of each switch's
//! expected table, one warm engine on it), injects them
//! as PacketOuts, absorbs the returning PacketIns, and acks each update
//! with a BarrierReply carrying the FlowMod's original xid.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use monocle_net::sim::{datapath_packet_ins, ControllerStats};
use monocle_net::{
    ConnId, ControllerSim, ControllerSimConfig, Driver, EventLoop, IoCtx, ProxyApp, ProxyAppConfig,
    SwitchSim, SwitchSimConfig, TransportEvent,
};
use monocle_openflow::messages::PORT_TABLE;
use monocle_openflow::{Action, FlowMod, FlowTable, Match, OfMessage};

struct Deployment {
    controller_stats: Arc<Mutex<ControllerStats>>,
    proxy_stats: monocle_net::proxy_app::SharedStats,
    switch_stats: Arc<Mutex<monocle_net::sim::SwitchSimStats>>,
    switches: usize,
    updates_per_switch: usize,
}

/// Runs a full deployment and waits for every thread to finish.
fn run_deployment(
    switches: usize,
    updates_per_switch: usize,
    install_latency_ns: u64,
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
        dpids: (1..=switches as u64).collect(),
        install_latency_ns,
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
    let d = run_deployment(8, 10, 2_000_000);
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
    // Confirmations are latency-bound: each ack waited at least the 2ms
    // install latency (the probe cannot verify before the rule exists).
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
            ss.flowmods[&dpid] as usize,
            d.updates_per_switch + 1,
            "dpid {dpid}: workload + default route"
        );
        assert!(ss.packet_outs[&dpid] > 0);
        assert!(ss.packet_ins[&dpid] > 0);
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
        ..Default::default()
    });
    let mut proxy = ProxyApp::new(cfg, proxy_loop.waker());
    let proxy_stats = proxy.stats();
    let proxy_addr = proxy_loop.with_ctx(|ctx| proxy.start(ctx).unwrap());

    let mut switch_loop = EventLoop::new().unwrap();
    let mut fleet = SwitchSim::new(SwitchSimConfig {
        proxy_addr,
        dpids: (1..=switches as u64).collect(),
        install_latency_ns: 2_000_000,
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
    // Zero install latency: still verified, acks can be fast.
    let d = run_deployment(1, 5, 0);
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
    // With a 2ms install latency and sequential-confirmation per update,
    // one switch's 6 updates take at least ~12ms of latency alone. Eight
    // switches overlapping on one event loop must NOT take 8x that: check
    // the whole run finishes well under the serialized bound.
    let t0 = std::time::Instant::now();
    let d = run_deployment(8, 6, 2_000_000);
    let elapsed = t0.elapsed();
    let cs = d.controller_stats.lock().unwrap();
    assert!(!cs.deadlined);
    assert_eq!(cs.acks.len(), 48);
    // Serialized floor would be 8 switches x 6 updates x 2ms = 96ms of
    // pure install latency; overlapped it is ~6 x 2ms plus overhead.
    assert!(
        elapsed < Duration::from_millis(5_000),
        "took {elapsed:?} — sessions are not overlapping"
    );
}

/// What [`ScriptedEndpoints`] saw, in its own loop's nanoseconds.
#[derive(Debug, Default)]
struct ScriptReport {
    /// BarrierReplies per script index.
    acks: Vec<u32>,
    /// First ack time per script index.
    acked_at: Vec<u64>,
    /// Time the switch made script entry `i` effective.
    installed_at: Vec<u64>,
    alarms: u64,
    deadlined: bool,
    /// The datapath's table when the run ended.
    switch_table: FlowTable,
}

const DEADLINE: u64 = u64::MAX;
/// Timer that ends the run a little after the last ack.
const SETTLED: u64 = u64::MAX - 1;
const INSTALL_LATENCY_NS: u64 = 1_000_000;
const WINDOW: usize = 8;

/// Controller and switch on ONE event loop (one clock, so an ack time and an
/// install time compare): the controller side sends a FlowMod script with
/// `WINDOW` updates outstanding, FlowMod `i` carrying xid and cookie `i + 1`
/// (the proxy forwards under a new xid but keeps the cookie); the switch
/// side is `SwitchSim`'s datapath, additionally logging when each cookie
/// took effect.
struct ScriptedEndpoints {
    script: Vec<FlowMod>,
    sent: usize,
    acked: usize,
    controller_conn: Option<ConnId>,
    table: FlowTable,
    installs: HashMap<u64, FlowMod>,
    next_install: u64,
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
            let _ = ctx.send(conn, &OfMessage::FlowMod(fm), self.sent as u32);
        }
    }

    fn finish(&mut self, ctx: &mut IoCtx<'_>, deadlined: bool) {
        let mut report = self.report.lock().unwrap();
        report.deadlined = deadlined;
        report.switch_table = self.table.clone();
        ctx.stop();
    }

    fn on_controller_msg(&mut self, ctx: &mut IoCtx<'_>, msg: OfMessage, xid: u32) {
        match msg {
            OfMessage::FeaturesReply { .. } => self.send_window(ctx),
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

    fn on_switch_msg(&mut self, ctx: &mut IoCtx<'_>, conn: ConnId, msg: OfMessage, xid: u32) {
        match msg {
            OfMessage::FeaturesRequest => {
                let reply = OfMessage::FeaturesReply {
                    datapath_id: 1,
                    n_tables: 1,
                    ports: (1..=8).collect(),
                };
                let _ = ctx.send(conn, &reply, xid);
            }
            OfMessage::EchoRequest(data) => {
                let _ = ctx.send(conn, &OfMessage::EchoReply(data), xid);
            }
            OfMessage::FlowMod(fm) => {
                self.installs.insert(self.next_install, fm);
                ctx.schedule_in(INSTALL_LATENCY_NS, self.next_install);
                self.next_install += 1;
            }
            OfMessage::PacketOut {
                in_port,
                actions,
                data,
            } if actions.contains(&Action::Output(PORT_TABLE)) => {
                for packet_in in datapath_packet_ins(&self.table, in_port, &data) {
                    let _ = ctx.send(conn, &packet_in, xid);
                }
            }
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
            TransportEvent::Message { conn, msg, xid } => {
                if Some(conn) == self.controller_conn {
                    self.on_controller_msg(ctx, msg, xid);
                } else {
                    self.on_switch_msg(ctx, conn, msg, xid);
                }
            }
            TransportEvent::Timer { token: DEADLINE } => self.finish(ctx, true),
            TransportEvent::Timer { token: SETTLED } => self.finish(ctx, false),
            TransportEvent::Timer { token } => {
                if let Some(fm) = self.installs.remove(&token) {
                    let _ = self.table.apply(&fm);
                    if fm.cookie > 0 {
                        let now = ctx.now_ns();
                        self.report.lock().unwrap().installed_at[fm.cookie as usize - 1] = now;
                    }
                }
            }
            TransportEvent::Closed { .. } => self.finish(ctx, true),
            _ => {}
        }
    }
}

/// The disjoint-/32 workloads above never make a neighborhood bigger than
/// two rules, so a wrong pre-/post-delta choice could not show there. Here
/// a few hundred ACL rules with real overlap are loaded through the proxy,
/// then a third of them are strictly deleted, re-added and modified, with
/// eight updates outstanding so overlapping ones queue behind each other.
#[test]
fn acl_table_delete_readd_modify_over_tcp() {
    use monocle_datasets::acl::{generate, AclConfig};
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
    // keeps operations on one rule in order).
    let mut model = FlowTable::new();
    model
        .add_rule(1, Match::any(), vec![Action::Output(2)])
        .unwrap();
    for fm in &script {
        model.apply(fm).unwrap();
    }

    let report = Arc::new(Mutex::new(ScriptReport {
        acks: vec![0; n],
        acked_at: vec![0; n],
        installed_at: vec![0; n],
        ..Default::default()
    }));
    let mut endpoints = ScriptedEndpoints {
        script,
        sent: 0,
        acked: 0,
        controller_conn: None,
        table: FlowTable::new(),
        installs: HashMap::new(),
        next_install: 0,
        report: Arc::clone(&report),
    };
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
    ends_loop.with_ctx(|ctx| ctx.connect(proxy_addr).unwrap());
    let pt = std::thread::spawn(move || proxy_loop.run(&mut proxy).unwrap());
    ends_loop.run(&mut endpoints).unwrap();
    drop(ends_loop); // closes both sockets; the proxy exits when idle
    pt.join().unwrap();

    let report = report.lock().unwrap();
    assert!(!report.deadlined, "run hit its deadline or lost a socket");
    assert_eq!(report.alarms, 0);
    assert!(
        report.acks.iter().all(|&a| a == 1),
        "every FlowMod acked exactly once: {:?}",
        report.acks
    );
    let ps = proxy_stats.lock().unwrap();
    let sess = ps.values().next().unwrap();
    assert_eq!(sess.flowmods as usize, n);
    assert_eq!(sess.confirmed as usize, n);
    // About an eighth of the generated ACL is shadowed or indistinct by
    // construction (nothing to probe: optimistic ack). Planning any class of
    // update on the wrong side of its delta would lose that whole class.
    assert!(
        sess.verified as usize * 8 >= n * 7,
        "only {} of {n} updates were probe-verified",
        sess.verified
    );
    // A verified ack never precedes the install it vouches for; only the
    // optimistic acks (nothing to probe) may.
    let early = (0..n)
        .filter(|&i| report.acked_at[i] < report.installed_at[i])
        .count() as u64;
    assert!(
        early <= sess.confirmed - sess.verified,
        "{early} acks before install, {} optimistic",
        sess.confirmed - sess.verified
    );
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
    assert_eq!(rows(&report.switch_table), rows(&model));
}
