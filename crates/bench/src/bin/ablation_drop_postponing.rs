//! **§3.3/§4.3 ablation**: negative probing vs drop-postponing when a
//! switch silently swallows a drop-rule installation.
//!
//! The paper motivates drop-postponing with the false-positive risk of
//! negative probing: if a drop rule's installation is confirmed by
//! *silence*, a switch that swallowed the rule (or a lossy network) looks
//! identical to a working one. This harness injects exactly that fault and
//! compares:
//!
//! * **negative probing** — Monocle (wrongly) confirms the swallowed rule;
//! * **drop-postponing** — the stand-in must return a positively tagged
//!   probe, so the swallowed install is never confirmed: it alarms once
//!   [`UPDATE_DEADLINE`] has passed since it started, and the controller
//!   can retry instead of proceeding with a broken policy.
//!
//! Each scenario runs 1 s past the drop rule's deadline.
//!
//! Usage: `ablation_drop_postponing`

use monocle::droppost::DropTag;
use monocle::harness::{ExpIo, Experiment, HarnessConfig, HarnessEvent, MonocleApp};
use monocle::UPDATE_DEADLINE;
use monocle_openflow::{Action, FlowMod, Match};
use monocle_switchsim::{time, Network, NetworkConfig, NodeRef, SwitchProfile};

struct InstallDrop;

impl Experiment for InstallDrop {
    fn on_start(&mut self, io: &mut ExpIo) {
        // Forwarding default now; the deny rule arrives later (so the fault
        // can be armed to hit exactly it).
        io.send_flowmod(0, 1, FlowMod::add(5, Match::any(), vec![Action::Output(1)]));
        io.timer_at(time::ms(100), 7);
    }

    fn on_timer(&mut self, io: &mut ExpIo, _token: u64) {
        io.send_flowmod(
            0,
            2,
            FlowMod::add(10, Match::any().with_nw_proto(6).with_tp_dst(23), vec![]),
        );
    }
}

/// Fault scenarios.
#[derive(Clone, Copy, PartialEq)]
enum Fault {
    /// Switch behaves.
    None,
    /// Switch acks but never installs the drop rule.
    Swallow,
    /// Switch swallows the rule AND the probe path loses every packet —
    /// the §3.3 false-positive scenario ("monitoring packets get lost or
    /// delayed for other reasons").
    SwallowAndLoss,
}

/// Runs one scenario; returns (confirmation time, alarm time, rule really
/// in the data plane?).
fn run(postpone: bool, fault: Fault) -> (Option<f64>, Option<f64>, bool) {
    let mut net = Network::new(NetworkConfig::default());
    let s0 = net.add_switch(SwitchProfile::ideal());
    let s1 = net.add_switch(SwitchProfile::ideal());
    let s2 = net.add_switch(SwitchProfile::ideal());
    let l01 = net.connect(NodeRef::Switch(s0), NodeRef::Switch(s1));
    let l12 = net.connect(NodeRef::Switch(s1), NodeRef::Switch(s2));
    let l20 = net.connect(NodeRef::Switch(s2), NodeRef::Switch(s0));
    let cfg = HarnessConfig {
        drop_postpone: postpone.then_some(DropTag(63)),
        ..HarnessConfig::default()
    };
    let mut app = MonocleApp::build(InstallDrop, &net, &[s0], cfg);
    net.start(&mut app);
    if fault != Fault::None {
        // Let the startup rules (catching plan, drop-tag rule, default
        // route) install cleanly, then arm the fault for the drop rule,
        // which arrives at t = 100 ms.
        net.run_for(&mut app, time::ms(50));
        net.switch_mut(s0).swallow_next_installs(u32::MAX);
        if fault == Fault::SwallowAndLoss {
            for l in [l01, l12, l20] {
                net.set_link_loss(l, 1.0);
            }
        }
    }
    net.run_until(&mut app, time::ms(100) + UPDATE_DEADLINE + time::s(1));
    let confirmed = app.events.iter().find_map(|e| match e {
        HarnessEvent::Confirmed { token: 2, at, .. } => Some(*at),
        _ => None,
    });
    let alarmed = app.events.iter().find_map(|e| match e {
        HarnessEvent::Alarm { token: 2, at, .. } => Some(*at),
        _ => None,
    });
    let in_dataplane = net
        .switch(s0)
        .dataplane()
        .rules()
        .iter()
        .any(|r| r.priority == 10 && r.fwd.is_drop());
    (
        confirmed.map(time::to_secs),
        alarmed.map(time::to_secs),
        in_dataplane,
    )
}

fn main() {
    println!("== §3.3/§4.3 ablation: confirming drop-rule installation ==");
    println!("(fault: the switch acknowledges but silently swallows installs)");
    println!("method\tfault\tconfirmed?\talarmed?\tin dataplane?\tverdict");
    for (postpone, label) in [(false, "negative probing"), (true, "drop-postponing")] {
        for (fault, fname) in [
            (Fault::None, "healthy"),
            (Fault::Swallow, "swallowed"),
            (Fault::SwallowAndLoss, "swallowed+lossy"),
        ] {
            let (confirmed, alarmed, present) = run(postpone, fault);
            let verdict = match (confirmed.is_some(), alarmed.is_some(), present) {
                (true, _, true) => "correct confirm",
                (true, _, false) => "FALSE POSITIVE",
                (false, true, false) => "correctly alarmed",
                (false, false, false) => "correctly withheld",
                (false, _, true) => "missed confirm",
            };
            let at =
                |t: Option<f64>, what: &str| t.map_or("no".into(), |t| format!("{what} @{t:.3}s"));
            println!(
                "{label}\t{fname}\t{}\t{}\t{present}\t{verdict}",
                at(confirmed, "yes"),
                at(alarmed, "alarmed"),
            );
        }
    }
    println!();
    println!("(paper: negative probing tolerates false positives; drop-postponing");
    println!(" trades an extra modification + transient neighbor load for certainty)");
}
