//! The steady refresh follows the change, not the table — and changes
//! nothing else. Public API only, so the golden script below runs unchanged
//! on older commits (with the `STEADY_SEQ_BIT` test, which needs that
//! constant public, left out): its output stream is committed next to this
//! file, one line per output, and a change that moves it moves lines there.

use monocle::generator::{generate_probe, GeneratorConfig, ProbeError};
use monocle::pool::monitorable_ids;
use monocle::proxy::{Coverage, MonitorProxy, ProbeInjection, ProxyConfig, ProxyOutput};
use monocle::steady::SteadyConfig;
use monocle::{CatchSpec, STEADY_SEQ_BIT};
use monocle_datasets::acl::{generate, AclConfig};
use monocle_datasets::RuleSpec;
use monocle_openflow::flowmatch::{headervec_to_packet, packet_to_headervec};
use monocle_openflow::{Action, FlowMod, FlowTable, RuleId};
use monocle_sched::SchedConfig;
use std::collections::VecDeque;

const MS: u64 = 1_000_000;
/// More than a tick each, so a refresh that came a tick early or late, or
/// once too often, drops different outstanding probes.
const INSTALL_NS: u64 = 2 * MS;
const PROBE_RTT_NS: u64 = 3 * MS;

fn adaptive_proxy() -> MonitorProxy {
    let steady = SteadyConfig {
        adaptive: Some(SchedConfig::default()),
    };
    MonitorProxy::new(ProxyConfig::new(1, CatchSpec::default()).with_steady(steady))
}

enum Event {
    Install(FlowMod),
    Probe(ProbeInjection),
}

/// A sans-IO proxy on a virtual clock (1 ms tick, 2 ms install, 3 ms probe
/// round trip) against a datapath table of the test's own, every
/// `ProxyOutput` written down as one line of the stream ([`line`]).
struct World {
    proxy: MonitorProxy,
    datapath: FlowTable,
    now: u64,
    events: VecDeque<(u64, Event)>,
    confirmed: u64,
    /// Every probe injected, in order.
    injected: Vec<ProbeInjection>,
    /// Every output, as [`line`] writes it.
    stream: Vec<String>,
}

impl World {
    fn new() -> World {
        World {
            proxy: adaptive_proxy(),
            datapath: FlowTable::new(),
            now: 0,
            events: VecDeque::new(),
            confirmed: 0,
            injected: Vec::new(),
            stream: Vec::new(),
        }
    }

    fn handle(&mut self, outputs: Vec<ProxyOutput>) {
        for o in outputs {
            self.stream.push(line(self.now, &o));
            match o {
                ProxyOutput::ToSwitch(fm) => self
                    .events
                    .push_back((self.now + INSTALL_NS, Event::Install(fm))),
                ProxyOutput::Inject(inj) => {
                    self.injected.push(inj.clone());
                    self.events
                        .push_back((self.now + PROBE_RTT_NS, Event::Probe(inj)))
                }
                ProxyOutput::Confirmed { .. } => self.confirmed += 1,
                ProxyOutput::RuleFailed { .. }
                | ProxyOutput::RuleRecovered { .. }
                | ProxyOutput::Alarm { .. } => {}
            }
        }
    }

    fn flowmod(&mut self, token: u64, fm: FlowMod) {
        let outputs = self.proxy.on_controller_flowmod(self.now, token, fm);
        self.handle(outputs);
    }

    fn tick(&mut self) {
        let now = self.now;
        // Two latencies, one queue: deliver whatever is due, in send order.
        let mut i = 0;
        while i < self.events.len() {
            if self.events[i].0 > now {
                i += 1;
                continue;
            }
            match self.events.remove(i) {
                Some((_, Event::Install(fm))) => {
                    let _ = self.datapath.apply(&fm);
                }
                Some((_, Event::Probe(inj))) => {
                    let hdr = packet_to_headervec(inj.in_port, &inj.fields);
                    for (port, out) in self.datapath.process(&hdr, 0) {
                        let fields = headervec_to_packet(&out);
                        let outputs = self.proxy.on_probe_return(now, &inj.meta, port, &fields);
                        self.handle(outputs);
                    }
                }
                None => {}
            }
        }
        let outputs = self.proxy.on_tick(now);
        self.handle(outputs);
        self.now += MS;
    }
}

/// 64-bit FNV-1a of `item`'s `Debug` form.
fn fnv1a(item: &impl std::fmt::Debug) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{item:?}").bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One output as a line of the golden stream: the virtual ms it went out
/// at, its kind, the token or rule id it names, the probe's sequence number
/// (a FlowMod's command and priority, an ack's `verified`), and the hash of
/// its whole `Debug` form, so that the line pins every byte of it.
fn line(now: u64, o: &ProxyOutput) -> String {
    let what = match o {
        ProxyOutput::ToSwitch(fm) => format!("ToSwitch {:?} p{}", fm.command, fm.priority),
        ProxyOutput::Inject(inj) => format!("Inject r{} s{}", inj.meta.rule_id, inj.meta.seq),
        ProxyOutput::Confirmed { token, verified } => format!("Confirmed t{token} {verified}"),
        ProxyOutput::RuleFailed { rule_id, .. } => format!("RuleFailed {rule_id}"),
        ProxyOutput::RuleRecovered { rule_id } => format!("RuleRecovered {rule_id}"),
        ProxyOutput::Alarm { token } => format!("Alarm t{token}"),
    };
    format!("{} {what} {:016x}", now / MS, fnv1a(o))
}

/// The committed output stream of [`output_stream_of_a_fixed_script_is_pinned`].
const GOLDEN_STREAM: &str = "tests/output_stream.golden";

/// Checks `stream` line by line against [`GOLDEN_STREAM`]. On a mismatch
/// the stream produced is written under the test target's scratch directory
/// and the first lines that differ are printed: re-pinning is copying that
/// file over the committed one, and the diff is the explanation.
fn assert_matches_golden_stream(stream: &[String]) {
    let committed = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_STREAM);
    let golden = std::fs::read_to_string(&committed).unwrap_or_default();
    let golden: Vec<&str> = golden.lines().collect();
    if golden == stream {
        return;
    }
    let produced = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("output_stream.golden");
    std::fs::write(&produced, stream.join("\n") + "\n").expect("write the produced stream");
    println!("produced stream: {}", produced.display());
    println!("committed stream: {}", committed.display());
    let len = golden.len().max(stream.len());
    let differing =
        (0..len).filter(|&i| golden.get(i).copied() != stream.get(i).map(String::as_str));
    for i in differing.take(10) {
        println!("line {}:", i + 1);
        println!("  committed {}", golden.get(i).unwrap_or(&"(none)"));
        println!(
            "  produced  {}",
            stream.get(i).map_or("(none)", String::as_str)
        );
    }
    panic!(
        "the output stream moved ({} lines committed, {} produced)",
        golden.len(),
        stream.len()
    );
}

fn acl(rules: usize) -> Vec<RuleSpec> {
    generate(&AclConfig {
        rules,
        ..AclConfig::stanford_like()
    })
}

/// "Bit-identical" as a tier-1 check: a fixed 300-rule script — paced
/// preload, then ten virtual seconds of strict modifies, strict deletes
/// and re-adds every 50 ms with every probe answered by the datapath, and a
/// rule silently lost from the datapath every 400 ms — must produce the
/// committed `ProxyOutput` stream ([`GOLDEN_STREAM`]), every output in
/// order and to the byte, and end with the same unmonitorable rules. The
/// stream was first taken at 68dddec, where every refresh re-planned the
/// whole table.
#[test]
fn output_stream_of_a_fixed_script_is_pinned() {
    let rules = acl(300);
    let mut w = World::new();
    let mut sent = 0u64;
    let mut next = rules.iter();
    while w.confirmed < rules.len() as u64 {
        while sent - w.confirmed < 16 {
            let Some(r) = next.next() else { break };
            sent += 1;
            w.flowmod(sent, FlowMod::add(r.priority, r.match_, r.actions.clone()));
        }
        w.tick();
    }
    let mut token = sent;
    let mut lcg = 0x9E37_79B9_7F4A_7C15u64;
    let mut draw = |n: usize| {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (lcg >> 33) as usize % n
    };
    let mut deleted: Option<&RuleSpec> = None;
    for step in 0..10_000u64 {
        if step % 50 == 0 {
            token += 1;
            let fm = match (step / 50) % 4 {
                0 => {
                    let r = &rules[draw(rules.len() - 1)];
                    deleted = Some(r);
                    FlowMod::delete_strict(r.priority, r.match_)
                }
                1 => {
                    let r = deleted.take().expect("deleted on the previous step");
                    FlowMod::add(r.priority, r.match_, r.actions.clone())
                }
                _ => {
                    let r = &rules[draw(rules.len() - 1)];
                    let port = 2 + draw(14) as u16;
                    FlowMod::modify_strict(r.priority, r.match_, vec![Action::Output(port)])
                }
            };
            w.flowmod(token, fm);
        }
        if step % 400 == 200 {
            let r = &rules[draw(rules.len() - 1)];
            let _ = w
                .datapath
                .apply(&FlowMod::delete_strict(r.priority, r.match_));
        }
        w.tick();
    }
    let unmonitorable = w.proxy.unmonitorable.iter().map(|(id, _)| id.to_string());
    let unmonitorable: Vec<String> = unmonitorable.collect();
    w.stream
        .push(format!("unmonitorable {}", unmonitorable.join(" ")));
    assert_matches_golden_stream(&w.stream);
}

/// The steady bit on the wire tells the two monitors' probes apart: with no
/// update in flight every probe the proxy injects carries it (the §3 sweep),
/// and the probes an update adds (§4) do not, all of them for the rule the
/// update modified.
#[test]
fn the_steady_bit_tells_sweep_probes_from_update_probes() {
    let steady = |inj: &ProbeInjection| inj.meta.seq & STEADY_SEQ_BIT != 0;
    let rules = acl(40);
    let mut w = World::new();
    let mut token = 0u64;
    for r in &rules {
        token += 1;
        w.flowmod(token, FlowMod::add(r.priority, r.match_, r.actions.clone()));
    }
    while w.confirmed < token {
        w.tick();
    }
    assert!(w.injected.iter().any(|i| !steady(i)), "no update probe");

    w.injected.clear();
    for _ in 0..500 {
        w.tick();
    }
    assert!(!w.injected.is_empty(), "no sweep probe");
    assert!(
        w.injected.iter().all(steady),
        "an update probe with no update"
    );

    w.injected.clear();
    let r = &rules[0];
    token += 1;
    w.flowmod(
        token,
        FlowMod::modify_strict(r.priority, r.match_, vec![Action::Output(9)]),
    );
    while w.confirmed < token {
        w.tick();
    }
    let update: Vec<u64> = w
        .injected
        .iter()
        .filter(|i| !steady(i))
        .map(|i| i.meta.rule_id)
        .collect();
    assert!(!update.is_empty(), "the modify sent no update probe");
    assert!(update.iter().all(|&id| id == update[0]), "{update:?}");
}

/// The cost side, as counts: after one strict modify on the Stanford-like
/// table a refresh looks up only the rules the modify can have affected —
/// at most its overlap neighborhood (the plans among them go only if the
/// modified rule covers their probe: `proxy::tests::strict_modify_re_plans_…`
/// pins that fraction), plus the rules whose failure is never cached (at
/// most the unmonitorable ones) — and never falls back to a full
/// resynchronization, nor to a diff of every rule: the expected table's own
/// change log names the modified rule. A refresh with nothing changed looks
/// nothing up.
#[test]
fn refresh_after_one_modify_looks_up_the_affected_rules_only() {
    let rules = generate(&AclConfig::stanford_like());
    let mut proxy = adaptive_proxy();
    for r in &rules {
        proxy.preinstall(r.priority, r.match_, r.actions.clone());
    }
    let lookups = |p: &MonitorProxy| p.engine_stats().cache_hits + p.engine_stats().cache_misses;
    let (found, total) = proxy.refresh_steady_plans();
    assert_eq!(total, rules.len());
    assert_eq!(found + proxy.unmonitorable.len(), total);
    assert_eq!(
        lookups(&proxy),
        total as u64,
        "the first refresh is the table"
    );
    assert_eq!(proxy.engine_lifecycle().syncs_full, 1);

    // A victim with a plan and a neighborhood that is not the table.
    let table = proxy.expected();
    let victim = table
        .rules()
        .iter()
        .find(|r| {
            proxy.unmonitorable.iter().all(|(id, _)| *id != r.id)
                && (2..200).contains(&table.overlapping(&r.tern).len())
        })
        .expect("a rule with a small neighborhood");
    let neighborhood = table.overlapping(&victim.tern).len() as u64;
    let budget = neighborhood + proxy.unmonitorable.len() as u64;
    assert!(budget < total as u64 / 2, "budget {budget} says nothing");
    let fm = FlowMod::modify_strict(victim.priority, victim.match_, vec![Action::Output(42)]);

    let before = lookups(&proxy);
    proxy.on_controller_flowmod(MS, 1, fm);
    assert_eq!(proxy.refresh_steady_plans(), (found, total));
    let spent = lookups(&proxy) - before;
    assert!(
        (1..=budget).contains(&spent),
        "{spent} lookups, budget {budget}"
    );
    let lifecycle = proxy.engine_lifecycle();
    assert_eq!(lifecycle.syncs_full, 1);
    assert!(lifecycle.syncs_delta >= 1);
    assert_eq!(lifecycle.syncs_fallback, 0);

    let before = lookups(&proxy);
    assert_eq!(proxy.refresh_steady_plans(), (found, total));
    assert_eq!(
        lookups(&proxy),
        before,
        "nothing changed, nothing looked up"
    );
    assert_eq!(proxy.engine_lifecycle().syncs_full, 1);
    assert_eq!(proxy.engine_lifecycle().syncs_fallback, 0);
}

/// Every "not verified" carries its reason: on the Stanford-like table
/// brought up by preinstall, `unmonitorable` lists exactly the monitorable
/// rules stateless generation finds no probe for, each with the error it
/// returns, and the coverage classes count them and sum to the monitorable
/// total. The same holds after the rules hiding others are deleted,
/// re-added and modified — the churn whose `Hidden` verdicts the engine
/// keeps on their certificate.
#[test]
fn coverage_classes_are_the_stateless_verdicts_on_stanford_like_table() {
    let rules = generate(&AclConfig::stanford_like());
    let mut w = World::new();
    for r in &rules {
        let outputs = w.proxy.preinstall(r.priority, r.match_, r.actions.clone());
        w.handle(outputs);
    }
    let refreshed = w.proxy.refresh_steady_plans();
    let hidden = assert_coverage_is_stateless(&w.proxy, refreshed);
    // A rule of higher priority covering each of the first hidden rules.
    let table = w.proxy.expected();
    let covers: Vec<_> = hidden
        .iter()
        .filter_map(|&id| {
            let h = table.get(id)?;
            table
                .overlapping(&h.tern)
                .into_iter()
                .find(|c| c.priority > h.priority && c.tern.subsumes(&h.tern))
                .cloned()
        })
        .take(4)
        .collect();
    assert_eq!(covers.len(), 4);
    let kept = w.proxy.engine_lifecycle().hidden_kept;
    let mut token = 0;
    for c in &covers {
        for fm in [
            FlowMod::delete_strict(c.priority, c.match_),
            FlowMod::add(c.priority, c.match_, c.actions.clone()),
            FlowMod::modify_strict(c.priority, c.match_, vec![Action::Output(42)]),
        ] {
            // One update at a time, each confirmed before the next: none
            // waits behind another it conflicts with.
            token += 1;
            w.flowmod(token, fm);
            while w.proxy.in_flight() > 0 {
                assert!(w.now < 10_000 * MS, "update {token} never confirmed");
                w.tick();
            }
            let (found, total) = w.proxy.refresh_steady_plans();
            let coverage = w.proxy.coverage();
            assert_eq!((coverage.verified, coverage.total()), (found, total));
        }
    }
    assert!(w.proxy.engine_lifecycle().hidden_kept > kept);
    let refreshed = w.proxy.refresh_steady_plans();
    assert_coverage_is_stateless(&w.proxy, refreshed);
}

/// Checks the refresh's `(found, total)`, `unmonitorable` and `coverage()`
/// against stateless generation on every monitorable rule; returns the
/// hidden ones.
fn assert_coverage_is_stateless(
    proxy: &MonitorProxy,
    (found, total): (usize, usize),
) -> Vec<RuleId> {
    let (table, catch) = (proxy.expected(), proxy.catch_spec());
    let mut expected = Vec::new();
    for id in monitorable_ids(table) {
        if let Err(e) = generate_probe(table, id, catch, &GeneratorConfig::default()) {
            expected.push((id, e));
        }
    }
    assert_eq!(proxy.unmonitorable, expected);
    let coverage = proxy.coverage();
    let class = |f: fn(&ProbeError) -> bool| expected.iter().filter(|(_, e)| f(e)).count();
    assert_eq!(
        coverage,
        Coverage {
            verified: found,
            hidden: class(|e| *e == ProbeError::Hidden),
            indistinguishable: class(|e| *e == ProbeError::Indistinguishable),
            catch_conflict: class(|e| matches!(e, ProbeError::CatchConflict(_))),
            reserved: class(|e| matches!(e, ProbeError::RewritesReserved(_))),
            budget: class(|e| *e == ProbeError::SolverBudget),
            repair: class(|e| *e == ProbeError::RepairFailed),
        }
    );
    assert_eq!(coverage.total(), total);
    assert_eq!(total, monitorable_ids(table).len());
    assert!(coverage.hidden > 0 && coverage.indistinguishable > 0);
    let hidden = expected.iter().filter(|(_, e)| *e == ProbeError::Hidden);
    hidden.map(|(id, _)| *id).collect()
}
