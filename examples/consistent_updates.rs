//! Consistent network updates with reliable acknowledgments (§4, §8.1.2).
//!
//! A controller reroutes flows from path S0→S1 to S0→S2→S1, but switch S2
//! acknowledges rule installations *before* its data plane commits them
//! (the HP 5406zl / Pica8 pathology). With barrier-based confirmation this
//! opens a blackhole; with Monocle's probe-verified confirmations it does
//! not. The example runs both and prints the packet loss.
//!
//! Run: `cargo run --release --example consistent_updates`

use monocle::harness::{ExpIo, Experiment, HarnessConfig, MonocleApp};
use monocle_datasets::workload::{flow_match, forward_to, reroute_flows, FlowPath};
use monocle_openflow::FlowMod;
use monocle_switchsim::{time, Network, NetworkConfig, NodeRef, SwitchProfile};

const FLOWS: usize = 40;

struct Reroute {
    flows: Vec<FlowPath>,
}

impl Experiment for Reroute {
    fn on_start(&mut self, io: &mut ExpIo) {
        // Initial forwarding: S0 -> S1 (port 1) and S1 -> H2 (port 3).
        for (i, f) in self.flows.iter().enumerate() {
            io.send_flowmod(
                0,
                10_000 + i as u64,
                FlowMod::add(100, flow_match(f), forward_to(1)),
            );
            io.send_flowmod(
                1,
                20_000 + i as u64,
                FlowMod::add(100, flow_match(f), forward_to(3)),
            );
        }
        io.timer_at(time::ms(500), 1);
    }

    fn on_timer(&mut self, io: &mut ExpIo, _token: u64) {
        // Phase 1: S2 rules toward S1 (S2's port 2).
        for (i, f) in self.flows.iter().enumerate() {
            io.send_flowmod(2, i as u64, FlowMod::add(100, flow_match(f), forward_to(2)));
        }
    }

    fn on_confirmed(&mut self, io: &mut ExpIo, sw: usize, token: u64, _verified: bool) {
        if sw == 2 && (token as usize) < self.flows.len() {
            // Phase 2: only now is it safe to shift traffic at S0 (port 2
            // faces S2).
            let f = &self.flows[token as usize];
            io.send_flowmod(
                0,
                30_000 + token,
                FlowMod::modify_strict(100, flow_match(f), forward_to(2)),
            );
        }
    }
}

fn build() -> (Network, usize, usize) {
    let mut net = Network::new(NetworkConfig::default());
    let _s0 = net.add_switch(SwitchProfile::ideal());
    let _s1 = net.add_switch(SwitchProfile::ideal());
    let _s2 = net.add_switch(SwitchProfile::hp5406zl()); // the liar
    net.connect(NodeRef::Switch(0), NodeRef::Switch(1)); // S0p1-S1p1
    net.connect(NodeRef::Switch(0), NodeRef::Switch(2)); // S0p2-S2p1
    net.connect(NodeRef::Switch(1), NodeRef::Switch(2)); // S1p2-S2p2
    let h1 = net.add_host();
    let h2 = net.add_host();
    net.connect_host(h1, 0); // S0p3
    net.connect_host(h2, 1); // S1p3
                             // Traffic: each flow 200 pkt/s from t=0.2s to t=3s.
    for f in reroute_flows(FLOWS) {
        net.add_host_flow(
            h1,
            f.fields,
            u64::from(f.id),
            time::ms(200),
            time::per_sec(200.0),
            time::s(3),
        );
    }
    (net, h1, h2)
}

fn main() {
    let sent = (FLOWS as u64) * (200 * 28 / 10); // 2.8 s at 200 pkt/s
    println!("rerouting {FLOWS} flows through a premature-ack switch; ~{sent} packets in flight");

    let (mut net, _h1, h2) = build();
    let mut app = MonocleApp::unmonitored(Reroute {
        flows: reroute_flows(FLOWS),
    });
    net.start(&mut app);
    net.run_until(&mut app, time::s(4));
    let recv_barrier = net.host_received(h2);

    let (mut net, _h1, h2) = build();
    let mut app = MonocleApp::build(
        Reroute {
            flows: reroute_flows(FLOWS),
        },
        &net,
        &[2],
        HarnessConfig::default(),
    );
    net.start(&mut app);
    net.run_until(&mut app, time::s(4));
    let recv_monocle = net.host_received(h2);

    println!("barrier-confirmed update: {recv_barrier} packets delivered");
    println!("monocle-confirmed update: {recv_monocle} packets delivered");
    println!(
        "monocle prevented {} packet drops",
        recv_monocle.saturating_sub(recv_barrier)
    );
    assert!(recv_monocle >= recv_barrier);
}
