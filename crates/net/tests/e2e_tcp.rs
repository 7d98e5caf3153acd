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
//! The controller's own barriers never reach the switch: the proxy answers
//! them, once every FlowMod before them is acked or alarmed and the switch
//! has answered a barrier of the proxy's sent after them.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use monocle_net::sim::ControllerStats;
use monocle_net::{
    ConnId, ControllerSim, ControllerSimConfig, Driver, EventLoop, IoCtx, ProxyApp, ProxyAppConfig,
    SessionStats, SwitchProfile, SwitchSim, SwitchSimConfig, SwitchStats, TransportEvent,
};
use monocle_openflow::messages::PacketInReason;
use monocle_openflow::{Action, FlowMod, FlowModCommand, FlowTable, Match, OfMessage};
use monocle_switchsim::switch::Effect;
use monocle_switchsim::SimSwitch;

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
fn adaptive_steady_over_tcp() {
    // Same topology, with adaptive steady-state monitoring enabled: ack RTT
    // estimation and scheduler-driven steady probes over real TCP.
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
    /// Time the reply to the BarrierRequest sent after script entry `i`
    /// came back: the proxy's answer, what a barrier-trusting controller
    /// sees.
    barrier_at: Vec<u64>,
    /// Time the switch committed script entry `i` to its data plane.
    installed_at: Vec<u64>,
    /// Time the proxy's `Error` for script entry `i` came (its alarm).
    alarmed_at: Vec<u64>,
    alarms: u64,
    deadlined: bool,
    /// The datapath's table when the run ended.
    switch_table: FlowTable,
}

const DEADLINE: u64 = u64::MAX;
/// Timer that ends the run a little after the last ack.
const SETTLED: u64 = u64::MAX - 1;
/// Timer that looks again whether the script may start.
const HOLD: u64 = u64::MAX - 2;
const WINDOW: usize = 8;
/// Set in the xid of the BarrierRequest that follows each FlowMod.
const BARRIER_XID: u32 = 0x8000_0000;
const DPID: u64 = 1;

/// Controller and switch on ONE event loop (one clock, so an ack time and a
/// commit time compare): the controller side sends a FlowMod script with
/// `WINDOW` updates outstanding, FlowMod `i` carrying xid and cookie `i + 1`
/// (the proxy forwards under a new xid but keeps the cookie) and followed by
/// a BarrierRequest the proxy answers; the switch side is a
/// [`SwitchSim`] fleet of one, which reports when each cookie committed.
/// With `swallow_first`, the switch swallows the script's first FlowMod: the
/// script starts once the proxy's default route has committed, so that
/// FlowMod is the next install, and the switch acknowledges it but never
/// installs it.
struct ScriptedEndpoints {
    script: Vec<FlowMod>,
    swallow_first: bool,
    sent: usize,
    /// Script entries acked or alarmed.
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

    /// Starts the script, with `swallow_first` once the switch has
    /// committed the proxy's default route; until then, looks again later.
    fn hold(&mut self, ctx: &mut IoCtx<'_>) {
        if !self.swallow_first {
            return self.send_window(ctx);
        }
        match self.fleet.switch(DPID) {
            Some(sw) if sw.stats.installs_committed > 0 => {
                sw.swallow_next_installs(1);
                self.send_window(ctx);
            }
            _ => ctx.schedule_in(1_000_000, HOLD),
        }
    }

    /// One more script entry is answered, acked or alarmed.
    fn answered(&mut self, ctx: &mut IoCtx<'_>) {
        self.acked += 1;
        if self.acked == self.script.len() {
            // Let a duplicate answer, if any, arrive before stopping.
            ctx.schedule_in(20_000_000, SETTLED);
        }
        self.send_window(ctx);
    }

    fn on_controller_msg(&mut self, ctx: &mut IoCtx<'_>, msg: OfMessage, xid: u32) {
        match msg {
            OfMessage::FeaturesReply { .. } => self.hold(ctx),
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
                self.answered(ctx);
            }
            OfMessage::Error { .. } => {
                let mut report = self.report.lock().unwrap();
                report.alarms += 1;
                if let Some(at) = report.alarmed_at.get_mut((xid as usize).wrapping_sub(1)) {
                    *at = ctx.now_ns();
                }
                drop(report);
                self.answered(ctx);
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
            TransportEvent::Message { conn, msg, xid } if Some(conn) == self.controller_conn => {
                self.on_controller_msg(ctx, msg, xid);
            }
            TransportEvent::Timer { token: DEADLINE } => self.finish(ctx, true),
            TransportEvent::Timer { token: SETTLED } => self.settle(ctx),
            TransportEvent::Timer { token: HOLD } => self.hold(ctx),
            TransportEvent::Closed { .. } => self.finish(ctx, true),
            ev => self.fleet.handle(ctx, ev),
        }
    }
}

/// Runs `script` through a proxy with [`ProxyAppConfig::new`]'s settings (a
/// priority-1 default route to port 2 preinstalled) onto a switch with
/// `profile`, through [`ScriptedEndpoints`] (`swallow_first` is its own).
/// Returns what the endpoints saw and the proxy's counters for the session.
fn run_script(
    script: Vec<FlowMod>,
    profile: SwitchProfile,
    swallow_first: bool,
) -> (ScriptReport, SessionStats) {
    let n = script.len();
    let report = Arc::new(Mutex::new(ScriptReport {
        acks: vec![0; n],
        acked_at: vec![0; n],
        barrier_at: vec![0; n],
        installed_at: vec![0; n],
        alarmed_at: vec![0; n],
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
        swallow_first,
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
    let sess = proxy_stats.lock().unwrap().values().next().cloned();
    let report = std::mem::take(&mut *report.lock().unwrap());
    (report, sess.expect("the session's counters"))
}

/// The first claim races the first updates. The switch's barriers are
/// truthful, but its installs are serial and take 40 ms, so the reply to the
/// barrier after the proxy's default route — the session's first claim from
/// the switch — comes at about 40 ms. The controller's one FlowMod, a drop
/// the default route makes distinguishable, is forwarded a few ms in; until
/// the default route commits a table miss drops every probe, so only §3.3
/// silence can confirm it. Silence must count from the drop's own claim
/// (about 80 ms), not from its start: the ack follows the commit.
#[test]
fn an_update_forwarded_before_the_first_claim_waits_for_its_own() {
    let drop = FlowMod::add(10, Match::any().with_nw_dst([10, 0, 0, 1], 32), vec![]);
    let (report, sess) = run_script(vec![drop], ideal_installing_in(40_000_000), false);
    assert!(!report.deadlined && report.alarms == 0, "{report:?}");
    assert_eq!((report.acks[0], sess.verified), (1, 1), "{sess:?}");
    assert!(
        report.acked_at[0] >= report.installed_at[0],
        "acked at {} ms, committed at {} ms",
        report.acked_at[0] / 1_000_000,
        report.installed_at[0] / 1_000_000
    );
}

/// The switch claims the controller's first FlowMod but never installs it,
/// and a second FlowMod, which overlaps it, waits behind it in the proxy
/// (§4.2). The update ends on its deadline: the controller gets an `Error`
/// under the first FlowMod's xid and no ack, within the deadline (plus two
/// probe timeouts and a tick of slack) of the switch's claim, which comes at
/// the swallowed commit or before it; then the second FlowMod is forwarded,
/// installed and acked.
fn a_swallowed_flowmod_alarms_on_its_deadline(profile: SwitchProfile) {
    let name = profile.name;
    let dst = Match::any().with_nw_dst([10, 0, 0, 1], 32);
    let script = vec![
        FlowMod::add(10, dst, vec![Action::Output(3)]),
        FlowMod::add(20, dst, vec![Action::Output(4)]),
    ];
    let (report, sess) = run_script(script, profile, true);
    assert!(!report.deadlined, "{name}: {report:?}");
    assert_eq!((report.acks, report.alarms), (vec![0, 1], 1), "{name}");
    // The proxy's probe tick is 1 ms.
    let slack = 2 * sess.probe_timeout_ns + 1_000_000;
    let (claimed_by, alarmed) = (report.installed_at[0], report.alarmed_at[0]);
    assert!(
        alarmed > 0 && alarmed <= claimed_by + monocle::UPDATE_DEADLINE + slack,
        "{name}: swallowed at {claimed_by} ns, alarmed at {alarmed} ns"
    );
    let (installed, acked) = (report.installed_at[1], report.acked_at[1]);
    assert!(
        alarmed < installed && installed <= acked,
        "{name}: alarmed at {alarmed} ns, then installed at {installed} and acked at {acked}"
    );
}

#[test]
fn a_swallowed_flowmod_alarms_on_its_deadline_on_ideal() {
    a_swallowed_flowmod_alarms_on_its_deadline(SwitchProfile::ideal());
}

#[test]
fn a_swallowed_flowmod_alarms_on_its_deadline_on_hp5406zl() {
    a_swallowed_flowmod_alarms_on_its_deadline(SwitchProfile::hp5406zl());
}

#[test]
fn a_swallowed_flowmod_alarms_on_its_deadline_on_pica8() {
    a_swallowed_flowmod_alarms_on_its_deadline(SwitchProfile::pica8());
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

    let (report, sess) = run_script(script, profile, false);
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
    // The controller's barrier is Monocle's: its reply never comes before
    // the ack or alarm of a FlowMod sent before it.
    let mut answered = 0;
    for i in 0..n {
        answered = answered.max(report.acked_at[i].max(report.alarmed_at[i]));
        assert!(
            report.barrier_at[i] >= answered,
            "{name}: the barrier after update {i} was answered at {} ns, before an update up to \
             it was (at {answered} ns)",
            report.barrier_at[i]
        );
    }
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
         ones)",
        run.optimistic,
        run.early_acks,
        run.early_silent,
        silent.iter().filter(|&&s| s).count(),
    );
    eprintln!(
        "{name}: {} barrier replies before commit",
        run.early_barriers
    );
    run
}

/// What the acks and the controller's barriers of one ACL run showed.
struct AclRun {
    name: &'static str,
    /// Acks given with nothing to probe.
    optimistic: u64,
    /// Updates acked before the switch committed them.
    early_acks: usize,
    /// Of those, the ones the proxy confirmed by silence.
    early_silent: usize,
    /// Replies to the controller's barriers that came back before the
    /// FlowMod sent just before each committed.
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

/// On a truthful switch the proxy's answer to a barrier is never weaker
/// than the switch's own: no reply comes before the commit of a FlowMod
/// sent before its request.
#[test]
fn acl_table_delete_readd_modify_over_tcp() {
    let run = acl_script_over_tcp(SwitchProfile::ideal());
    run.assert_no_verified_ack_precedes_its_commit();
    assert_eq!(run.early_barriers, 0, "barrier replies before commit");
}

/// Sends a switch with `profile` a FlowMod and a barrier straight, in
/// process: no proxy, no TCP. Returns when the barrier's reply left the
/// switch and when the rule committed, in ns.
fn barrier_reply_and_commit(profile: SwitchProfile) -> (u64, u64) {
    let mut sw = SimSwitch::new(0, profile, (1..=8).collect());
    let fm = FlowMod::add(10, Match::any().with_nw_dst([10, 0, 0, 1], 32), vec![]);
    let mut effects = sw.enqueue_ctrl(0, OfMessage::FlowMod(fm), 1);
    effects.extend(sw.enqueue_ctrl(0, OfMessage::BarrierRequest, 2));
    // Pending effects by (time, arrival).
    let (mut due, mut arrivals) = (BTreeMap::new(), 0);
    let (mut reply, mut commit) = (None, None);
    loop {
        for effect in effects.drain(..) {
            let at = match effect {
                Effect::WakeAgentAt(at) | Effect::InstallTickAt(at) => at,
                Effect::ToController { at, .. } | Effect::EmitFrame { at, .. } => at,
            };
            arrivals += 1;
            due.insert((at, arrivals), effect);
        }
        if let (Some(reply), Some(commit)) = (reply, commit) {
            return (reply, commit);
        }
        let ((at, _), effect) = due.pop_first().expect("the switch went idle");
        match effect {
            Effect::WakeAgentAt(_) => effects = sw.agent_step(at),
            Effect::InstallTickAt(_) => {
                commit = Some(at);
                effects = sw.install_tick(at);
            }
            Effect::ToController {
                msg: OfMessage::BarrierReply,
                ..
            } => reply = Some(at),
            _ => {}
        }
    }
}

/// HP 5406zl answers barriers before its TCAM commits (\[16\]): sent
/// straight to the switch, a barrier's reply comes before the commit of the
/// FlowMod before it. Through the proxy the controller's barrier is the
/// proxy's: its reply waits for the acks before it (checked in
/// [`acl_script_over_tcp`]), and the run prints how many replies still came
/// before a commit. An ack that comes early (an optimistic one, which does
/// not wait for the switch's claim yet: ROADMAP item 3(b)) lets one, so the
/// count is printed, not bounded.
#[test]
fn acl_script_over_tcp_on_hp5406zl_barriers_lie() {
    let (reply, commit) = barrier_reply_and_commit(SwitchProfile::hp5406zl());
    assert!(
        reply < commit,
        "replied at {reply} ns, committed at {commit} ns"
    );
    acl_script_over_tcp(SwitchProfile::hp5406zl());
}

/// Pica8 answers barriers early and reorders installs by priority: the
/// same, on its profile. Its silence-confirmed acks come early too (ROADMAP
/// item 2(b)), and with them some replies: printed, not bounded.
#[test]
fn acl_script_over_tcp_on_pica8_barriers_lie() {
    let (reply, commit) = barrier_reply_and_commit(SwitchProfile::pica8());
    assert!(
        reply < commit,
        "replied at {reply} ns, committed at {commit} ns"
    );
    acl_script_over_tcp(SwitchProfile::pica8());
}

/// HP 5406zl's agent takes a FlowMod in 3.3 ms, so with eight updates
/// outstanding a probe PacketOut waits behind them for tens of ms. Silence
/// still proves nothing early here: it counts only from the switch's claim
/// (the reply to the proxy's own barrier), the probe the claim sends meets
/// the old state until the commit, and the probe timeout follows the
/// session's measured round trip, which those queued probes lengthen.
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
    let mut peer = fleet_thread.join().expect("the fleet thread panicked");
    assert!(peer.barrier_replied, "the fleet stopped answering");
    let sw = peer.fleet.switch(dpid).unwrap();
    assert_eq!(sw.stats.flowmods_processed, 1);
    assert_eq!(
        sw.dataplane().len(),
        1,
        "the FlowMod after the odd ones installed"
    );
}
