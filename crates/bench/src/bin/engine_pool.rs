//! **Engine pool**: aggregate probe-generation throughput of the sharded
//! [`monocle::pool::EnginePool`] as worker count grows — one monitor
//! process driving many switches (the paper's §7 Multiplexer, parallelized).
//!
//! The Campus ACL dataset is sliced into per-switch flow tables; each arm
//! sweeps every switch ([`monocle::pool::JobSpec::All`]) and reports
//! aggregate probes/second:
//!
//! * `compute` / `compute-warm` — pure generation (cold engines, then the
//!   warm re-sweep). CPU-bound: scales only with physical cores, so on a
//!   single-CPU host these arms stay flat by construction (`host_cpus` is
//!   recorded in the JSON for exactly this reason).
//! * `paced` — each dispatched job additionally pays a per-probe injection
//!   service time on the worker thread (`--service-us`, default 200 µs ≙ a
//!   5 000 probes/s per-switch ceiling — optimistic against the §8 hardware
//!   rates of 250–1 000 probes/s). This is the deployment regime: the
//!   monitor waits on switch injection pacing, and sharding overlaps those
//!   waits, so throughput scales with workers even on one CPU.
//! * `paced-churn` — the paced sweep while a writer concurrently publishes
//!   FlowMod churn through every switch's [`monocle_openflow::SharedTable`];
//!   exercises lock-free snapshots + epoch validation under load (stale
//!   results and replans are reported).
//!
//! Usage: `engine_pool [--switches N] [--rules-per-switch N]
//! [--service-us U] [--workers 1,2,4,8] [--churn-every-us U] [--json PATH]`

use monocle::pool::{EnginePool, JobSpec, PoolConfig, ProbeJob};
use monocle::CatchSpec;
use monocle_datasets::acl::{generate, AclConfig};
use monocle_openflow::{Action, FlowMod, FlowTable, Match, SharedTable};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct ArmResult {
    label: &'static str,
    workers: usize,
    wall_s: f64,
    probes: usize,
    found: usize,
    stale_jobs: usize,
    replans: u64,
    solver_calls: u64,
    cache_hits: u64,
}

impl ArmResult {
    fn probes_per_sec(&self) -> f64 {
        self.found as f64 / self.wall_s.max(1e-12)
    }
}

/// Slices the Campus-like ACL into `switches` per-switch tables of
/// `rules_per_switch` rules each (plus a default route so probes have an
/// absent outcome).
fn build_tables(switches: usize, rules_per_switch: usize) -> Vec<Arc<SharedTable>> {
    let rules = generate(&AclConfig::campus_like());
    let mut out = Vec::with_capacity(switches);
    let mut it = rules.iter().cycle();
    for _ in 0..switches {
        let mut t = FlowTable::new();
        for r in it.by_ref().take(rules_per_switch) {
            let _ = t.add_rule(r.priority.max(2), r.match_, r.actions.clone());
        }
        let _ = t.add_rule(1, Match::any(), vec![Action::Output(9)]);
        out.push(Arc::new(SharedTable::new(t)));
    }
    out
}

fn jobs_for(tables: &[Arc<SharedTable>]) -> Vec<ProbeJob> {
    tables
        .iter()
        .enumerate()
        .map(|(sw, t)| ProbeJob {
            switch_id: sw as u32,
            table: Arc::clone(t),
            catch: CatchSpec::default(),
            spec: JobSpec::All,
        })
        .collect()
}

fn summarize(
    label: &'static str,
    workers: usize,
    wall_s: f64,
    results: &[monocle::pool::JobResult],
    pool: &EnginePool,
) -> ArmResult {
    let stats = pool.stats();
    ArmResult {
        label,
        workers,
        wall_s,
        probes: results.iter().map(|r| r.ids.len()).sum(),
        found: results
            .iter()
            .filter(|r| !r.stale)
            .map(|r| r.results.iter().filter(|p| p.is_ok()).count())
            .sum(),
        stale_jobs: results.iter().filter(|r| r.stale).count(),
        replans: results.iter().map(|r| u64::from(r.replans)).sum(),
        solver_calls: stats.solver_calls,
        cache_hits: stats.cache_hits,
    }
}

fn pool_with(workers: usize, service_us: u64) -> EnginePool {
    let mut cfg = PoolConfig::with_workers(workers);
    if service_us > 0 {
        cfg.dispatch = Some(Arc::new(move |r: &monocle::pool::JobResult| {
            let probes = r.results.iter().filter(|p| p.is_ok()).count() as u64;
            std::thread::sleep(Duration::from_micros(service_us * probes));
        }));
    }
    EnginePool::new(cfg)
}

/// Cold sweep + warm re-sweep, no pacing (CPU-bound arms).
fn run_compute(tables: &[Arc<SharedTable>], workers: usize) -> (ArmResult, ArmResult) {
    let pool = pool_with(workers, 0);
    let t0 = Instant::now();
    let cold = pool.run_batch(jobs_for(tables));
    let cold_s = t0.elapsed().as_secs_f64();
    let cold_arm = summarize("compute", workers, cold_s, &cold, &pool);
    let t1 = Instant::now();
    let warm = pool.run_batch(jobs_for(tables));
    let warm_s = t1.elapsed().as_secs_f64();
    let warm_arm = summarize("compute-warm", workers, warm_s, &warm, &pool);
    (cold_arm, warm_arm)
}

/// Cold paced sweep (injection service time on the worker threads).
fn run_paced(tables: &[Arc<SharedTable>], workers: usize, service_us: u64) -> ArmResult {
    let pool = pool_with(workers, service_us);
    let t0 = Instant::now();
    let results = pool.run_batch(jobs_for(tables));
    let wall = t0.elapsed().as_secs_f64();
    summarize("paced", workers, wall, &results, &pool)
}

/// Paced sweep under concurrent FlowMod churn published through the shared
/// tables (round-robin writer, one edit every `churn_every_us`).
fn run_paced_churn(
    tables: &[Arc<SharedTable>],
    workers: usize,
    service_us: u64,
    churn_every_us: u64,
) -> ArmResult {
    let pool = pool_with(workers, service_us);
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let tables: Vec<Arc<SharedTable>> = tables.to_vec();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                let t = &tables[(i as usize) % tables.len()];
                let m = Match::any().with_nw_dst([10, 200, (i % 5) as u8, (i % 251) as u8], 32);
                if i % 3 == 2 {
                    let _ = t.apply(&FlowMod::delete_strict(4, m));
                } else {
                    let _ = t.apply(&FlowMod::add(4, m, vec![Action::Output(2)]));
                }
                i += 1;
                std::thread::sleep(Duration::from_micros(churn_every_us));
            }
        })
    };
    let t0 = Instant::now();
    let results = pool.run_batch(jobs_for(tables));
    let wall = t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::Release);
    writer.join().expect("churn writer");
    summarize("paced-churn", workers, wall, &results, &pool)
}

fn write_json(
    path: &str,
    switches: usize,
    rules_per_switch: usize,
    service_us: u64,
    churn_every_us: u64,
    arms: &[ArmResult],
) {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"engine_pool\",\n");
    out.push_str("  \"dataset\": \"Campus\",\n");
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str(&format!("  \"switches\": {switches},\n"));
    out.push_str(&format!("  \"rules_per_switch\": {rules_per_switch},\n"));
    out.push_str(&format!("  \"service_us_per_probe\": {service_us},\n"));
    out.push_str(&format!("  \"churn_every_us\": {churn_every_us},\n"));
    out.push_str(
        "  \"notes\": \"compute arms are CPU-bound and scale only with host_cpus; \
         paced arms model the per-switch probe-injection service time (the deployment \
         bottleneck) and scale with workers by overlapping injection waits\",\n",
    );
    // Scaling headline: paced and paced-churn speedup at each worker count
    // relative to 1 worker.
    for label in ["paced", "paced-churn"] {
        let base = arms
            .iter()
            .find(|a| a.label == label && a.workers == 1)
            .map(|a| a.probes_per_sec());
        if let Some(base) = base {
            for a in arms.iter().filter(|a| a.label == label && a.workers > 1) {
                out.push_str(&format!(
                    "  \"speedup_{}_{}w_vs_1w\": {:.3},\n",
                    label.replace('-', "_"),
                    a.workers,
                    a.probes_per_sec() / base.max(1e-12)
                ));
            }
        }
    }
    out.push_str("  \"arms\": [\n");
    for (i, a) in arms.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"workers\": {}, \"wall_s\": {:.6}, \
             \"probes_planned\": {}, \"probes_found\": {}, \"probes_per_sec\": {:.1}, \
             \"stale_jobs\": {}, \"replans\": {}, \"solver_calls\": {}, \
             \"cache_hits\": {}}}{}\n",
            a.label,
            a.workers,
            a.wall_s,
            a.probes,
            a.found,
            a.probes_per_sec(),
            a.stale_jobs,
            a.replans,
            a.solver_calls,
            a.cache_hits,
            if i + 1 < arms.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write json baseline");
    println!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut switches = 64usize;
    let mut rules_per_switch = 40usize;
    let mut service_us = 200u64;
    let mut churn_every_us = 500u64;
    let mut worker_counts: Vec<usize> = vec![1, 2, 4, 8];
    let mut json_path: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--switches" => {
                switches = args[i + 1].parse().expect("--switches N");
                i += 2;
            }
            "--rules-per-switch" => {
                rules_per_switch = args[i + 1].parse().expect("--rules-per-switch N");
                i += 2;
            }
            "--service-us" => {
                service_us = args[i + 1].parse().expect("--service-us U");
                i += 2;
            }
            "--churn-every-us" => {
                churn_every_us = args[i + 1].parse().expect("--churn-every-us U");
                i += 2;
            }
            "--workers" => {
                worker_counts = args[i + 1]
                    .split(',')
                    .map(|w| w.parse().expect("--workers 1,2,4"))
                    .collect();
                i += 2;
            }
            "--json" => {
                json_path = Some(args[i + 1].clone());
                i += 2;
            }
            other => panic!("unknown arg {other}"),
        }
    }
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("== Engine pool: aggregate probe generation vs worker count ==");
    println!(
        "(Campus slices: {switches} switches x {rules_per_switch} rules; \
         service {service_us} us/probe; host cpus: {host_cpus})"
    );
    println!("arm\tworkers\twall [s]\tprobes/s\tfound\tstale\treplans");
    let mut arms: Vec<ArmResult> = Vec::new();
    for &w in &worker_counts {
        // Fresh tables per worker count so every arm starts from identical
        // (unchurned) state.
        let tables = build_tables(switches, rules_per_switch);
        let (cold, warm) = run_compute(&tables, w);
        let paced = run_paced(&tables, w, service_us);
        let churn = run_paced_churn(&tables, w, service_us, churn_every_us);
        for a in [cold, warm, paced, churn] {
            println!(
                "{}\t{}\t{:.3}\t{:.0}\t{} / {}\t{}\t{}",
                a.label,
                a.workers,
                a.wall_s,
                a.probes_per_sec(),
                a.found,
                a.probes,
                a.stale_jobs,
                a.replans
            );
            arms.push(a);
        }
    }
    for label in ["paced", "paced-churn"] {
        if let Some(base) = arms
            .iter()
            .find(|a| a.label == label && a.workers == 1)
            .map(|a| a.probes_per_sec())
        {
            for a in arms.iter().filter(|a| a.label == label && a.workers > 1) {
                println!(
                    "{label}\tspeedup {}w vs 1w: {:.2}x",
                    a.workers,
                    a.probes_per_sec() / base.max(1e-12)
                );
            }
        }
    }
    if let Some(path) = json_path {
        write_json(
            &path,
            switches,
            rules_per_switch,
            service_us,
            churn_every_us,
            &arms,
        );
    }
}
