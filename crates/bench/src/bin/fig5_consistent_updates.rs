//! **Figure 5**: consistent update of 300 flows — barrier-based vs
//! Monocle-verified confirmations on switches with control/data plane
//! inconsistencies.
//!
//! Topology: triangle S0-S1-S2 with H1 at S0 and H2 at S1; 300 flows run
//! H1→S0→S1→H2 and are rerouted one by one to H1→S0→S2→S1→H2. The
//! controller must not update S0 before S2's rule is really in the data
//! plane. With barriers on a premature-ack switch this fails (blackholes);
//! with Monocle it does not.
//!
//! Paper reference: 8297 dropped packets on HP, 4857 on Pica8 with
//! barriers; no drops with Monocle; comparable total update time.
//!
//! Usage: `fig5_consistent_updates [--flows N] [--pps N] [--profile hp|pica8]`

use monocle::harness::{ExpIo, Experiment, HarnessConfig, MonocleApp};
use monocle_datasets::workload::{flow_match, forward_to, reroute_flows, FlowPath};
use monocle_openflow::FlowMod;
use monocle_switchsim::{time, ControlApp, Network, NetworkConfig, NodeRef, SwitchProfile};

/// Ports (assigned by construction order below):
/// S0: 1 = S1, 2 = S2, 3 = H1;  S1: 1 = S0, 2 = S2, 3 = H2;  S2: 1 = S0, 2 = S1.
const S0: usize = 0;
const S1: usize = 1;
const S2: usize = 2;

struct Reroute {
    flows: Vec<FlowPath>,
    /// Phase per flow: 0 = install S2 rule, 1 = update S0 rule, 2 = done.
    done_at: Vec<Option<u64>>,
    upstream_at: Vec<Option<u64>>,
}

impl Reroute {
    fn new(n: usize) -> Reroute {
        Reroute {
            flows: reroute_flows(n),
            done_at: vec![None; n],
            upstream_at: vec![None; n],
        }
    }
}

impl Experiment for Reroute {
    fn on_start(&mut self, io: &mut ExpIo) {
        // Initial state: S0 forwards every flow to S1 (port 1), S1 delivers
        // to H2 (port 3). Installed with high token ids we ignore.
        for (i, f) in self.flows.iter().enumerate() {
            io.send_flowmod(
                S0,
                1_000_000 + i as u64,
                FlowMod::add(100, flow_match(f), forward_to(1)),
            );
            io.send_flowmod(
                S1,
                2_000_000 + i as u64,
                FlowMod::add(100, flow_match(f), forward_to(3)),
            );
            // S2: route to S1 for when traffic shifts (phase-1 rule, sent at
            // reroute time).
        }
        // Kick off the reroute after traffic is flowing (t = 1s).
        io.timer_at(time::s(1), 42);
    }

    fn on_timer(&mut self, io: &mut ExpIo, _token: u64) {
        // Phase 1 for every flow: install the S2 rule (forward to S1 = port 2).
        for (i, f) in self.flows.iter().enumerate() {
            io.send_flowmod(
                S2,
                i as u64,
                FlowMod::add(100, flow_match(f), forward_to(2)),
            );
        }
    }

    fn on_confirmed(&mut self, io: &mut ExpIo, sw: usize, token: u64, _verified: bool) {
        if sw == S2 && (token as usize) < self.flows.len() {
            // Phase 2: S2's rule is (reportedly) ready -> update S0.
            let i = token as usize;
            self.upstream_at[i] = Some(io.now);
            let f = &self.flows[i];
            io.send_flowmod(
                S0,
                3_000_000 + i as u64,
                FlowMod::modify_strict(100, flow_match(f), forward_to(2)),
            );
        } else if sw == S0 && token >= 3_000_000 {
            let i = (token - 3_000_000) as usize;
            self.done_at[i] = Some(io.now);
        }
    }
}

struct RunResult {
    sent: u64,
    received: u64,
    completion_s: f64,
}

fn run(mode: &str, profile: SwitchProfile, flows: usize, pps: u64) -> RunResult {
    let mut net = Network::new(NetworkConfig {
        record_host_trace: false,
        ..NetworkConfig::default()
    });
    let s0 = net.add_switch(SwitchProfile::ideal());
    let s1 = net.add_switch(SwitchProfile::ideal());
    let s2 = net.add_switch(profile);
    assert_eq!((s0, s1, s2), (S0, S1, S2));
    net.connect(NodeRef::Switch(S0), NodeRef::Switch(S1)); // S0p1, S1p1
    net.connect(NodeRef::Switch(S0), NodeRef::Switch(S2)); // S0p2, S2p1
    net.connect(NodeRef::Switch(S1), NodeRef::Switch(S2)); // S1p2, S2p2
    let h1 = net.add_host();
    let h2 = net.add_host();
    net.connect_host(h1, S0); // S0p3
    net.connect_host(h2, S1); // S1p3

    let exp = Reroute::new(flows);
    // Traffic: each flow at `pps` during the window [0.5s, 4s].
    let interval = time::per_sec(pps as f64);
    let t_end = time::s(4);
    let mut sent_per_flow = 0u64;
    {
        let mut t = time::ms(500);
        while t <= t_end {
            sent_per_flow += 1;
            t += interval;
        }
    }
    for f in &exp.flows {
        net.add_host_flow(
            h1,
            f.fields,
            u64::from(f.id),
            time::ms(500),
            interval,
            t_end,
        );
    }
    let (received, completion_s) = match mode {
        "monocle" => {
            let mut app = MonocleApp::build(exp, &net, &[S2], HarnessConfig::default());
            net.start(&mut app);
            net.run_until(&mut app, time::s(6));
            let done = app
                .experiment
                .done_at
                .iter()
                .filter_map(|x| *x)
                .max()
                .unwrap_or(0);
            (
                net.host_received(h2),
                time::to_secs(done.saturating_sub(time::s(1))),
            )
        }
        _ => {
            let mut app = MonocleApp::unmonitored(exp);
            net.start(&mut app);
            net.run_until(&mut app, time::s(6));
            let done = app
                .experiment
                .done_at
                .iter()
                .filter_map(|x| *x)
                .max()
                .unwrap_or(0);
            (
                net.host_received(h2),
                time::to_secs(done.saturating_sub(time::s(1))),
            )
        }
    };
    RunResult {
        sent: sent_per_flow * flows as u64,
        received,
        completion_s,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut flows = 300usize;
    let mut pps = 300u64;
    let mut profiles: Vec<(&str, SwitchProfile)> = vec![
        ("HP 5406zl", SwitchProfile::hp5406zl()),
        ("Pica8 (emulated)", SwitchProfile::pica8()),
    ];
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--flows" => {
                flows = args[i + 1].parse().unwrap();
                i += 2;
            }
            "--pps" => {
                pps = args[i + 1].parse().unwrap();
                i += 2;
            }
            "--profile" => {
                profiles = match args[i + 1].as_str() {
                    "hp" => vec![("HP 5406zl", SwitchProfile::hp5406zl())],
                    _ => vec![("Pica8 (emulated)", SwitchProfile::pica8())],
                };
                i += 2;
            }
            other => panic!("unknown arg {other}"),
        }
    }
    println!("== Figure 5: consistent update of {flows} flows at {pps} pkt/s each ==");
    println!("(paper: barriers drop 8297 [HP] / 4857 [Pica8] packets; Monocle drops none)");
    println!("switch\tmode\tsent\trecv\tdropped\tupdate time [s]");
    for (name, profile) in profiles {
        for mode in ["barriers", "monocle"] {
            let r = run(mode, profile.clone(), flows, pps);
            println!(
                "{name}\t{mode}\t{}\t{}\t{}\t{:.2}",
                r.sent,
                r.received,
                r.sent - r.received.min(r.sent),
                r.completion_s
            );
        }
    }
}

// Silence unused-import lint for ControlApp (used via trait objects above).
#[allow(unused)]
fn _assert_traits(x: &dyn ControlApp) {
    let _ = x;
}
