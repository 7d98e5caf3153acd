//! One-call loopback deployment: controller ⇄ proxy ⇄ switch fleet, each
//! on its own event-loop thread, connected over real TCP on 127.0.0.1.
//!
//! Used by the transport benchmark and `examples/tcp_proxy.rs`; the e2e
//! test builds the same topology by hand to assert on wiring details. Every
//! switch of the fleet is the ideal [`SwitchProfile`] with the configured
//! per-rule install time (see [`crate::sim`] for the model: serial
//! installs, truthful barriers).

use std::collections::HashMap;

use monocle_switchsim::switch::SwitchStats;
use monocle_switchsim::SwitchProfile;

use crate::event_loop::EventLoop;
use crate::proxy_app::{ProxyApp, ProxyAppConfig, SessionStats};
use crate::sim::{ControllerSim, ControllerSimConfig, ControllerStats, SwitchSim, SwitchSimConfig};

/// Parameters of a loopback deployment run.
#[derive(Debug, Clone)]
pub struct LoopbackConfig {
    /// Number of simulated switches (= proxy sessions).
    pub switches: usize,
    /// FlowMods the controller sends per switch.
    pub updates_per_switch: usize,
    /// Per-rule install time of every switch's serial install pipeline, ns.
    pub install_time_ns: u64,
    /// The proxy's planner threads (`ProxyAppConfig::pool.workers`).
    pub pool_workers: usize,
    /// Controller gives up after this long.
    pub deadline_ns: u64,
}

impl Default for LoopbackConfig {
    fn default() -> Self {
        Self {
            switches: 8,
            updates_per_switch: 20,
            install_time_ns: 2_000_000,
            pool_workers: 4,
            deadline_ns: 60_000_000_000,
        }
    }
}

/// Everything a finished deployment run reports.
#[derive(Debug)]
pub struct LoopbackReport {
    /// Controller-side ack records and timings.
    pub controller: ControllerStats,
    /// Proxy per-session counters (keyed by session id).
    pub proxy: HashMap<u64, SessionStats>,
    /// Switch counters by datapath id.
    pub switches: HashMap<u64, SwitchStats>,
}

impl LoopbackReport {
    /// Confirmed updates per second over the controller-observed window.
    pub fn flowmods_per_sec(&self) -> f64 {
        let secs = self.controller.elapsed_ns as f64 / 1e9;
        if secs <= 0.0 {
            return 0.0;
        }
        self.controller.acks.len() as f64 / secs
    }

    /// Ack-latency percentile (confirmation round trip), in nanoseconds.
    pub fn latency_percentile_ns(&self, p: f64) -> u64 {
        let mut lat: Vec<u64> = self.controller.acks.iter().map(|a| a.latency_ns).collect();
        if lat.is_empty() {
            return 0;
        }
        lat.sort_unstable();
        let idx = ((lat.len() - 1) as f64 * p).round() as usize;
        lat[idx]
    }
}

/// Runs a full deployment to completion and joins all three threads.
pub fn run_loopback(cfg: &LoopbackConfig) -> std::io::Result<LoopbackReport> {
    let mut controller_loop = EventLoop::new()?;
    let mut controller = ControllerSim::new(ControllerSimConfig {
        switches: cfg.switches,
        updates_per_switch: cfg.updates_per_switch,
        deadline_ns: cfg.deadline_ns,
    });
    let controller_stats = controller.stats();
    let controller_addr = controller_loop.with_ctx(|ctx| controller.start(ctx))?;

    let mut proxy_loop = EventLoop::new()?;
    let mut proxy_cfg = ProxyAppConfig::new(controller_addr);
    proxy_cfg.pool = monocle::PoolConfig::with_workers(cfg.pool_workers);
    let mut proxy = ProxyApp::new(proxy_cfg, proxy_loop.waker());
    let proxy_stats = proxy.stats();
    let proxy_addr = proxy_loop.with_ctx(|ctx| proxy.start(ctx))?;

    let mut switch_loop = EventLoop::new()?;
    let profile = SwitchProfile {
        dataplane_install_time: cfg.install_time_ns,
        ..SwitchProfile::ideal()
    };
    let mut fleet = SwitchSim::new(SwitchSimConfig {
        proxy_addr,
        switches: (1..=cfg.switches as u64)
            .map(|dpid| (dpid, profile.clone()))
            .collect(),
    });
    let switch_stats = fleet.stats();

    let ct = std::thread::spawn(move || controller_loop.run(&mut controller));
    let pt = std::thread::spawn(move || proxy_loop.run(&mut proxy));
    let st = std::thread::spawn(move || {
        switch_loop.with_ctx(|ctx| fleet.start(ctx))?;
        switch_loop.run(&mut fleet)
    });
    ct.join().expect("controller thread panicked")?;
    pt.join().expect("proxy thread panicked")?;
    st.join().expect("switch thread panicked")?;

    let controller = std::mem::take(&mut *controller_stats.lock().unwrap());
    let proxy = proxy_stats.lock().unwrap().clone();
    let switches = switch_stats.lock().unwrap().clone();
    Ok(LoopbackReport {
        controller,
        proxy,
        switches,
    })
}
