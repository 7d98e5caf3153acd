//! Sharded monitoring: one monitor process, 64 simulated switches (§7).
//!
//! A ring of 64 switches is monitored simultaneously. Steady-state plan
//! generation for all proxies is pushed through the sharded
//! [`monocle::pool::EnginePool`] — engines stay worker-private (warm caches
//! survive between sweeps), jobs land on their home worker and idle workers
//! steal. Three refresh rounds show the live aggregate statistics:
//!
//! 1. cold — every plan is a fresh SAT encode;
//! 2. warm — the same tables again: pure cache hits, zero solves;
//! 3. churn — the controller installs extra rules on every switch first, so
//!    the warm engines re-plan only what changed.
//!
//! Run: `cargo run --release --example sharded_monitoring`

use monocle::harness::{ExpIo, Experiment, HarnessConfig, HarnessEvent, MonocleApp};
use monocle::pool::{EnginePool, PoolConfig};
use monocle::steady::SteadyConfig;
use monocle_datasets::fib::l3_host_routes;
use monocle_openflow::FlowMod;
use monocle_switchsim::{time, Network, NetworkConfig, NodeRef, SwitchProfile};
use std::time::Instant;

const SWITCHES: usize = 64;
const ROUTES_PER_SWITCH: usize = 30;
const CHURN_PER_SWITCH: usize = 5;

/// Installs a distinct FIB slice on every switch; on the churn timer it adds
/// a few more routes everywhere.
struct FleetFib;

impl Experiment for FleetFib {
    fn on_start(&mut self, io: &mut ExpIo) {
        let mut token = 0u64;
        for sw in 0..SWITCHES {
            for r in l3_host_routes(ROUTES_PER_SWITCH, 2, sw as u64).into_iter() {
                io.send_flowmod(sw, token, FlowMod::add(r.priority, r.match_, r.actions));
                token += 1;
            }
        }
        io.timer_at(io.now + time::s(2), 1);
    }

    fn on_timer(&mut self, io: &mut ExpIo, _token: u64) {
        let mut token = 1_000_000u64;
        for sw in 0..SWITCHES {
            for r in l3_host_routes(CHURN_PER_SWITCH, 2, 0xC000 + sw as u64).into_iter() {
                io.send_flowmod(sw, token, FlowMod::add(r.priority, r.match_, r.actions));
                token += 1;
            }
        }
    }
}

fn refresh_round(label: &str, app: &mut MonocleApp<FleetFib>, pool: &EnginePool) {
    let before = pool.stats();
    let t0 = Instant::now();
    let out = app.refresh_steady_parallel(pool);
    let wall = t0.elapsed();
    let found: usize = out.iter().map(|(_, (f, _))| f).sum();
    let total: usize = out.iter().map(|(_, (_, t))| t).sum();
    let s = pool.stats();
    println!(
        "{label}\t{} switches\t{found}/{total} plans\t{:.1} ms\t\
         +{} solves\t+{} cache hits\t+{} fast-path",
        out.len(),
        wall.as_secs_f64() * 1e3,
        s.solver_calls - before.solver_calls,
        s.cache_hits - before.cache_hits,
        s.fast_path_hits - before.fast_path_hits,
    );
}

fn main() {
    // Ring of 64 switches, every one monitored: each has two neighbors to
    // host its catching rules.
    let mut net = Network::new(NetworkConfig::default());
    let sws: Vec<usize> = (0..SWITCHES)
        .map(|_| net.add_switch(SwitchProfile::ideal()))
        .collect();
    for i in 0..SWITCHES {
        net.connect(
            NodeRef::Switch(sws[i]),
            NodeRef::Switch(sws[(i + 1) % SWITCHES]),
        );
    }

    let cfg = HarnessConfig {
        steady: Some(SteadyConfig::default()),
        ..HarnessConfig::default()
    };
    let mut app = MonocleApp::build(FleetFib, &net, &sws, cfg);
    net.start(&mut app);
    net.run_for(&mut app, time::s(1)); // let the FIBs install

    let pool = EnginePool::new(PoolConfig::with_workers(4));
    println!(
        "== Sharded monitoring: {SWITCHES} switches, {} workers ==",
        pool.workers()
    );
    println!("round\tswitches\tcoverage\twall\tdelta stats");
    refresh_round("cold", &mut app, &pool);
    refresh_round("warm", &mut app, &pool);

    // Churn: the t=2s timer installs CHURN_PER_SWITCH extra routes on every
    // switch; the warm engines then re-plan only what changed.
    net.run_for(&mut app, time::s(2));
    refresh_round("churn", &mut app, &pool);

    // Per-worker share of the generation work (work stealing keeps it even).
    let per_worker = pool.worker_stats();
    let shares: Vec<String> = per_worker
        .iter()
        .enumerate()
        .map(|(w, s)| format!("w{w}: {} plans", s.cache_hits + s.cache_misses))
        .collect();
    println!("worker shares\t{}", shares.join("  "));

    // The pooled plans drive the live steady cycle: probes keep flowing and
    // nothing is falsely reported.
    net.run_for(&mut app, time::s(2));
    let failures = app
        .events
        .iter()
        .filter(|e| matches!(e, HarnessEvent::RuleFailed { .. }))
        .count();
    let gs = app.probe_engine_stats();
    println!(
        "after 2 s of steady monitoring: {failures} false alarms, \
         proxy engines {} solves / {} cache hits",
        gs.solver_calls, gs.cache_hits
    );
}
