//! Monocle over real TCP: controller ⇄ proxy ⇄ simulated switches on
//! loopback sockets, with live per-switch probe/ack statistics.
//!
//! Three event loops on three threads (the paper's §7 deployment shape):
//!
//! * a workload controller that pushes FlowMods and waits for
//!   confirmations,
//! * the Monocle proxy — one epoll loop multiplexing every switch session,
//!   per-switch monitors in deferred-planning mode, probe planning on
//!   planner threads that each keep a replica of their switches' expected
//!   tables,
//! * a switch fleet: `switchsim`'s switch model behind a TCP shell, one
//!   switch per datapath id on the ideal profile with a 2 ms per-rule
//!   install time. Installs are serial, barriers truthful, and probe
//!   PacketOuts run through the switch's data plane and come back as
//!   PacketIns (virtual catch-all neighbor).
//!
//! Run with: `cargo run --release --example tcp_proxy [switches] [updates]`

use monocle_net::{run_loopback, LoopbackConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let switches: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let updates: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(20);

    let cfg = LoopbackConfig {
        switches,
        updates_per_switch: updates,
        ..LoopbackConfig::default()
    };
    println!(
        "tcp_proxy: {switches} switches x {updates} updates, 2ms serial installs, \
         proxy on one event loop\n"
    );

    let report = run_loopback(&cfg).expect("deployment failed");

    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>10} {:>9} {:>7} {:>7}",
        "dpid", "flowmods", "injected", "returned", "confirmed", "verified", "alarms", "paused"
    );
    let mut sessions: Vec<_> = report.proxy.values().collect();
    sessions.sort_by_key(|s| s.dpid);
    for s in sessions {
        println!(
            "{:>6} {:>9} {:>9} {:>9} {:>10} {:>9} {:>7} {:>7}",
            s.dpid,
            s.flowmods,
            s.probes_injected,
            s.probes_returned,
            s.confirmed,
            s.verified,
            s.alarms,
            s.paused
        );
    }

    let total = report.controller.acks.len();
    println!(
        "\n{} updates confirmed in {:.1} ms  ({:.0} flow_mods/sec)",
        total,
        report.controller.elapsed_ns as f64 / 1e6,
        report.flowmods_per_sec()
    );
    println!(
        "confirmation RTT: p50 {:.2} ms, p95 {:.2} ms, max {:.2} ms",
        report.latency_percentile_ns(0.50) as f64 / 1e6,
        report.latency_percentile_ns(0.95) as f64 / 1e6,
        report.latency_percentile_ns(1.0) as f64 / 1e6,
    );
    if report.controller.deadlined {
        println!("WARNING: run hit the deadline before all acks arrived");
        std::process::exit(1);
    }
}
