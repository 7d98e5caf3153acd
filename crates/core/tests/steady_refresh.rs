//! The steady refresh follows the change, not the table — and changes
//! nothing else. Public API only, so the golden script below runs unchanged
//! on the commit its digest was taken from (with the `STEADY_SEQ_BIT` test,
//! which needs that constant public, left out).

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
/// `ProxyOutput` folded into an FNV-1a digest of its `Debug` form.
struct World {
    proxy: MonitorProxy,
    datapath: FlowTable,
    now: u64,
    events: VecDeque<(u64, Event)>,
    confirmed: u64,
    failed: Vec<u64>,
    /// Every probe injected, in order.
    injected: Vec<ProbeInjection>,
    outputs: u64,
    digest: u64,
}

impl World {
    fn new() -> World {
        World {
            proxy: adaptive_proxy(),
            datapath: FlowTable::new(),
            now: 0,
            events: VecDeque::new(),
            confirmed: 0,
            failed: Vec::new(),
            injected: Vec::new(),
            outputs: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn fold(&mut self, item: &impl std::fmt::Debug) {
        for b in format!("{item:?}").bytes() {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn handle(&mut self, outputs: Vec<ProxyOutput>) {
        for o in outputs {
            self.outputs += 1;
            self.fold(&o);
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
                ProxyOutput::RuleFailed { rule_id, .. } => self.failed.push(rule_id.0),
                ProxyOutput::RuleRecovered { .. } | ProxyOutput::Alarm { .. } => {}
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
/// `ProxyOutput` stream it produced at the parent commit (68dddec, where
/// every refresh re-planned the whole table), to the byte.
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
    let unmonitorable: Vec<RuleId> = w.proxy.unmonitorable.iter().map(|(id, _)| *id).collect();
    w.fold(&unmonitorable);
    println!(
        "outputs {} confirmed {} failed {} unmonitorable {} digest {:#018x}",
        w.outputs,
        w.confirmed,
        w.failed.len(),
        unmonitorable.len(),
        w.digest
    );
    assert_eq!(
        (
            w.outputs,
            w.confirmed,
            w.failed.len(),
            unmonitorable.len(),
            w.digest
        ),
        GOLDEN
    );
}

/// (outputs, confirmed updates, `RuleFailed`s, unmonitorable rules at the
/// end, FNV-1a digest of the output stream and then the unmonitorable ids) of
/// the script above at 68dddec. The digest was re-pinned when `ProbeMeta`
/// lost its `epoch` and `expected_code` fields: it is 68dddec's stream with
/// the `epoch: N, ` and `, expected_code: N` substrings deleted from each
/// output's `Debug` form before folding (4842 outputs, digest
/// 0x58cb_8911_6e67_5863). It moved again when a refresh stopped discarding
/// the outstanding probes of the plans it keeps: those probes now run their
/// window out, so 36 more resends go out (2966 → 3002 steady injections,
/// 4842 → 4878 outputs), while the same 17 rules fail in the same order and
/// the other counts stay.
const GOLDEN: (u64, u64, usize, usize, u64) = (4878, 501, 17, 31, 0xcc4e_8856_e904_fb7b);

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
