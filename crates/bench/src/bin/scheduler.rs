//! **Scheduler**: detection latency of the adaptive probe scheduler vs the
//! paper's fixed round-robin sweep, at an identical probe budget.
//!
//! A time-stepped simulation drives two [`SteadyMonitor`]s — one fixed,
//! one adaptive — through the same workload schedule: rule modifications
//! (flow_mod churn) and rule breakages, with probe verdicts returned after
//! a fixed RTT. Measured: time from a rule breaking to the monitor's
//! `RuleFailed` report. Both arms pace one probe per `PROBE_INTERVAL`, and
//! the adaptive arm's staleness SLO is set to the fixed arm's cycle time
//! (`rules x interval`), so neither arm gets more budget or a laxer
//! worst-case revisit than the other.
//!
//! Workloads (all breakage is injected, never spontaneous):
//! * `modify_churn` — a hot 10% of rules is modified continuously and 80%
//!   of breakages hit a recently-modified rule (Monocle's premise: updates
//!   are when rules break);
//! * `correlated_failures` — periodic consistent-update bursts touch a
//!   contiguous rule block and half the block then fails installation;
//! * `update_storm` — adversarial: storms modify 30% of the table while
//!   breakage stays uniform, pulling the adaptive budget *away* from the
//!   rules that will break (worst case stays SLO-bounded).
//!
//! Usage: `scheduler [--rules N] [--horizon-s S] [--seed S] [--small]
//! [--json PATH]`

use monocle::plan::{ConcreteOutcome, ProbePlan, Verdict};
use monocle::steady::{SteadyAction, SteadyConfig, SteadyMonitor, PROBE_INTERVAL};
use monocle_openflow::{Action, Forwarding, HeaderVec, RuleId};
use monocle_packet::PacketFields;
use monocle_sched::SchedConfig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};

const MS: u64 = 1_000_000;

/// A probe plan for synthetic rule `id`: present ⇒ port 1, absent ⇒ port 2.
fn mk_plan(id: u64) -> ProbePlan {
    ProbePlan {
        rule_id: RuleId(id),
        priority: 100,
        fields: PacketFields::default(),
        header: HeaderVec::ZERO,
        in_port: 1,
        present: ConcreteOutcome::of(
            &Forwarding::compile(&[Action::Output(1)]).unwrap(),
            &HeaderVec::ZERO,
        ),
        absent: ConcreteOutcome::of(
            &Forwarding::compile(&[Action::Output(2)]).unwrap(),
            &HeaderVec::ZERO,
        ),
        uses_counting: false,
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// A flow_mod touched `rule` (reported to the monitor; churn signal).
    Modify { rule: u64 },
    /// `rule` silently breaks in the data plane.
    Break { rule: u64 },
}

/// Deterministic workload: time-sorted events shared by both arms.
fn make_workload(name: &str, rules: usize, horizon: u64, seed: u64) -> Vec<(u64, Event)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ev: Vec<(u64, Event)> = Vec::new();
    let mut broken: HashSet<u64> = HashSet::new();
    let pick_unbroken = |rng: &mut StdRng, broken: &HashSet<u64>, pool: &[u64]| -> Option<u64> {
        for _ in 0..64 {
            let r = pool[rng.random_range(0..pool.len())];
            if !broken.contains(&r) {
                return Some(r);
            }
        }
        None
    };
    match name {
        "modify_churn" => {
            let hot: Vec<u64> = (0..(rules as u64 / 10).max(1)).collect();
            let all: Vec<u64> = (0..rules as u64).collect();
            let mut recent: VecDeque<(u64, u64)> = VecDeque::new(); // (t, rule)
            let mut t = 0;
            while t < horizon {
                t += 10 * MS;
                let r = hot[rng.random_range(0..hot.len())];
                ev.push((t, Event::Modify { rule: r }));
                recent.push_back((t, r));
                while recent.front().is_some_and(|&(tm, _)| tm + 300 * MS < t) {
                    recent.pop_front();
                }
                if t % (500 * MS) < 10 * MS {
                    // 80%: break something modified in the last 300 ms.
                    let correlated = rng.random_range(0..10) < 8 && !recent.is_empty();
                    let pool: Vec<u64> = if correlated {
                        recent.iter().map(|&(_, r)| r).collect()
                    } else {
                        all.clone()
                    };
                    if let Some(r) = pick_unbroken(&mut rng, &broken, &pool) {
                        broken.insert(r);
                        ev.push((t + MS, Event::Break { rule: r }));
                    }
                }
            }
        }
        "correlated_failures" => {
            let block = 20.min(rules);
            let mut t = 0;
            while t + 2_000 * MS < horizon {
                t += 2_000 * MS;
                // A consistent update sweeps a contiguous block...
                let base = rng.random_range(0..(rules - block + 1)) as u64;
                for k in 0..block as u64 {
                    ev.push((t + k * MS / 4, Event::Modify { rule: base + k }));
                }
                // ...and half the block fails to install.
                for k in 0..(block as u64) / 2 {
                    let r = base + k * 2;
                    if broken.insert(r) {
                        ev.push((t + 50 * MS, Event::Break { rule: r }));
                    }
                }
            }
        }
        "update_storm" => {
            let all: Vec<u64> = (0..rules as u64).collect();
            let mut t = 0;
            while t < horizon {
                t += 1_000 * MS;
                for _ in 0..(rules * 3 / 10) {
                    let r = all[rng.random_range(0..all.len())];
                    ev.push((
                        t + rng.random_range(0..50u64) * MS,
                        Event::Modify { rule: r },
                    ));
                }
                if let Some(r) = pick_unbroken(&mut rng, &broken, &all) {
                    broken.insert(r);
                    ev.push((t + 500 * MS, Event::Break { rule: r }));
                }
            }
        }
        other => panic!("unknown workload {other}"),
    }
    ev.sort_by_key(|&(t, _)| t);
    ev
}

#[derive(Debug)]
struct ArmResult {
    detect_ms: Vec<f64>,
    missed: usize,
    probes: u64,
}

/// Runs one monitor through the workload. `rtt_ns` is probe round-trip
/// time; broken rules answer via the absent path, intact ones via present.
fn run_arm(
    adaptive: bool,
    rules: usize,
    workload: &[(u64, Event)],
    horizon: u64,
    rtt_ns: u64,
) -> ArmResult {
    let cfg = SteadyConfig {
        adaptive: adaptive.then(|| SchedConfig {
            // Same worst-case revisit as the fixed sweep's cycle time.
            slo_ns: (rules as u64 * PROBE_INTERVAL).max(100 * MS),
            ..SchedConfig::default()
        }),
    };
    let mut m = SteadyMonitor::new(cfg);
    m.patch_plans((0..rules as u64).map(mk_plan).collect(), &[]);

    let mut broken: HashSet<u64> = HashSet::new();
    let mut break_at: HashMap<u64, u64> = HashMap::new();
    let mut detect_ms: Vec<f64> = Vec::new();
    let mut in_flight: VecDeque<(u64, u32, Verdict)> = VecDeque::new(); // (deliver, seq, v)
    let mut probes = 0u64;
    let mut next_event = 0usize;

    let mut now = 0u64;
    while now <= horizon {
        while next_event < workload.len() && workload[next_event].0 <= now {
            match workload[next_event].1 {
                Event::Modify { rule } => m.note_rule_modified(RuleId(rule), now),
                Event::Break { rule } => {
                    broken.insert(rule);
                    break_at.insert(rule, now);
                }
            }
            next_event += 1;
        }
        while in_flight.front().is_some_and(|&(d, _, _)| d <= now) {
            let (_, seq, v) = in_flight.pop_front().unwrap();
            for a in m.on_verdict(now, seq, v) {
                if let SteadyAction::RuleFailed { rule_id, at } = a {
                    if let Some(t0) = break_at.remove(&rule_id.0) {
                        detect_ms.push(at.saturating_sub(t0) as f64 / MS as f64);
                    }
                }
            }
        }
        for a in m.on_tick(now) {
            match a {
                SteadyAction::Inject { seq, rule_id } => {
                    probes += 1;
                    let v = if broken.contains(&rule_id.0) {
                        Verdict::Absent
                    } else {
                        Verdict::Present
                    };
                    in_flight.push_back((now + rtt_ns, seq, v));
                }
                SteadyAction::RuleFailed { rule_id, at } => {
                    if let Some(t0) = break_at.remove(&rule_id.0) {
                        detect_ms.push(at.saturating_sub(t0) as f64 / MS as f64);
                    }
                }
                SteadyAction::RuleRecovered { .. } => {}
            }
        }
        now += MS;
    }
    ArmResult {
        detect_ms,
        missed: break_at.len(),
        probes,
    }
}

fn pctl(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

struct Row {
    workload: &'static str,
    arm: &'static str,
    detections: usize,
    missed: usize,
    median_ms: f64,
    p95_ms: f64,
    mean_ms: f64,
    probes: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut rules = 400usize;
    let mut horizon_s = 30u64;
    let mut seed = 1u64;
    let mut json_path: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--rules" => {
                rules = args[i + 1].parse().unwrap();
                i += 2;
            }
            "--horizon-s" => {
                horizon_s = args[i + 1].parse().unwrap();
                i += 2;
            }
            "--seed" => {
                seed = args[i + 1].parse().unwrap();
                i += 2;
            }
            "--json" => {
                json_path = Some(args[i + 1].clone());
                i += 2;
            }
            "--small" => {
                rules = 100;
                horizon_s = 10;
                i += 1;
            }
            other => panic!("unknown arg {other}"),
        }
    }
    let horizon = horizon_s * 1_000 * MS;
    let rtt = 3 * MS;

    println!("== Adaptive scheduler vs fixed sweep: breakage detection latency ==");
    println!(
        "({rules} rules, 500 probes/s both arms, adaptive SLO = fixed cycle time, \
         {horizon_s}s horizon, rtt {}ms)",
        rtt / MS
    );
    println!("workload\tarm\tn\tmiss\tp50[ms]\tp95[ms]\tmean[ms]\tprobes");

    let mut rows: Vec<Row> = Vec::new();
    for workload in ["modify_churn", "correlated_failures", "update_storm"] {
        let ev = make_workload(workload, rules, horizon, seed);
        for (adaptive, arm) in [(false, "fixed"), (true, "adaptive")] {
            let r = run_arm(adaptive, rules, &ev, horizon + 5_000 * MS, rtt);
            let mut d = r.detect_ms.clone();
            d.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mean = if d.is_empty() {
                f64::NAN
            } else {
                d.iter().sum::<f64>() / d.len() as f64
            };
            println!(
                "{workload}\t{arm}\t{}\t{}\t{:.0}\t{:.0}\t{:.0}\t{}",
                d.len(),
                r.missed,
                pctl(&d, 0.5),
                pctl(&d, 0.95),
                mean,
                r.probes
            );
            rows.push(Row {
                workload,
                arm,
                detections: d.len(),
                missed: r.missed,
                median_ms: pctl(&d, 0.5),
                p95_ms: pctl(&d, 0.95),
                mean_ms: mean,
                probes: r.probes,
            });
        }
    }

    // Headline: the churn workload's median win at equal budget.
    let median = |w: &str, a: &str| {
        rows.iter()
            .find(|r| r.workload == w && r.arm == a)
            .map(|r| r.median_ms)
            .unwrap_or(f64::NAN)
    };
    let churn_win = median("modify_churn", "fixed") / median("modify_churn", "adaptive");
    println!("modify_churn median speedup (fixed/adaptive): {churn_win:.2}x");
    assert!(
        churn_win > 1.0,
        "adaptive must beat fixed on the churn workload at equal budget"
    );

    if let Some(path) = json_path {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"bench\": \"scheduler\",\n");
        out.push_str(&format!("  \"rules\": {rules},\n"));
        out.push_str(&format!("  \"horizon_s\": {horizon_s},\n"));
        out.push_str(&format!("  \"seed\": {seed},\n"));
        out.push_str("  \"probe_budget_pps\": 500,\n");
        out.push_str(
            "  \"notes\": \"detection latency of injected rule breakage; both arms pace one \
             probe per 2ms and the adaptive SLO equals the fixed sweep's cycle time, so the \
             comparison is equal-budget and equal-worst-case; adaptive spends the budget on \
             recently-modified/churning/failing rules first\",\n",
        );
        out.push_str(&format!(
            "  \"modify_churn_median_speedup\": {churn_win:.3},\n"
        ));
        out.push_str("  \"arms\": [\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"arm\": \"{}\", \"detections\": {}, \
                 \"missed\": {}, \"median_ms\": {:.1}, \"p95_ms\": {:.1}, \"mean_ms\": {:.1}, \
                 \"probes\": {}}}{}\n",
                r.workload,
                r.arm,
                r.detections,
                r.missed,
                r.median_ms,
                r.p95_ms,
                r.mean_ms,
                r.probes,
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        std::fs::write(&path, out).expect("write json");
        println!("wrote {path}");
    }
}
