//! **Table 2**: probe generation time and success rate on the two ACL
//! datasets — now with an engine-vs-stateless comparison.
//!
//! Paper reference (measured on a 2.93-GHz Xeon X5647, PicoSAT backend):
//!
//! ```text
//! Data set   avg [ms]  max [ms]  probes found
//! Campus     4.03      5.29      10642 / 10958
//! Stanford   1.48      3.85      2442  / 2755
//! ```
//!
//! Three arms per dataset:
//!
//! * `stateless` — per-rule [`monocle::generator::generate_probe`], the
//!   paper's §5.3 formulation (full re-encode per call);
//! * `engine-batch` — one cold [`monocle::engine::ProbeEngine::generate_batch`]
//!   over the same rules (guess-and-verify fast path, then the stateless
//!   arm's own encode-and-solve for each surviving rule);
//! * `engine-reprobe` — the batch again on the unchanged engine: the
//!   steady-state §3 sweep, which must be pure cache hits (zero solves).
//!
//! The binary asserts engine ≡ stateless on probes found, and zero solver
//! calls on the re-probe.
//!
//! Usage: `table2_probe_generation [--rules N] [--json PATH]`
//!
//! `--json` writes a machine-readable baseline (see
//! `BENCH_probe_generation.json` at the repo root) so future changes have a
//! perf trajectory.

use monocle::engine::ProbeEngine;
use monocle::generator::{generate_probe_with_stats, GenStats, GeneratorConfig};
use monocle::CatchSpec;
use monocle_datasets::acl::{generate, AclConfig};
use monocle_openflow::{FlowTable, RuleId};
use std::time::Instant;

struct ArmResult {
    label: &'static str,
    total_s: f64,
    avg_ms: f64,
    max_ms: f64,
    found: usize,
    total: usize,
    stats: GenStats,
}

struct DatasetResult {
    name: &'static str,
    rules: usize,
    /// `stateless`, `engine-batch`, `engine-reprobe`.
    arms: [ArmResult; 3],
}

fn build_table(cfg: &AclConfig, limit: Option<usize>) -> (FlowTable, Vec<RuleId>) {
    let rules = generate(cfg);
    let mut table = FlowTable::new();
    let mut ids = Vec::new();
    for r in &rules {
        if let Ok(id) = table.add_rule(r.priority, r.match_, r.actions.clone()) {
            ids.push(id);
        }
    }
    let ids = match limit {
        Some(n) => ids.into_iter().take(n).collect(),
        None => ids,
    };
    (table, ids)
}

fn run_stateless(
    table: &FlowTable,
    ids: &[RuleId],
    gen_cfg: &GeneratorConfig,
    catch: &CatchSpec,
) -> ArmResult {
    let mut times_ms: Vec<f64> = Vec::with_capacity(ids.len());
    let mut found = 0usize;
    let mut agg = GenStats::default();
    let t_all = Instant::now();
    for &id in ids {
        let t0 = Instant::now();
        let res = generate_probe_with_stats(table, id, catch, gen_cfg);
        times_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Ok((_, stats)) = res {
            found += 1;
            agg.merge(&stats);
        }
    }
    ArmResult {
        label: "stateless",
        total_s: t_all.elapsed().as_secs_f64(),
        avg_ms: times_ms.iter().sum::<f64>() / times_ms.len().max(1) as f64,
        max_ms: times_ms.iter().cloned().fold(0.0, f64::max),
        found,
        total: ids.len(),
        stats: agg,
    }
}

fn run_engine(
    engine: &mut ProbeEngine,
    label: &'static str,
    table: &FlowTable,
    ids: &[RuleId],
    catch: &CatchSpec,
) -> ArmResult {
    let t_all = Instant::now();
    let (results, times, stats) = engine.generate_batch_timed(table, ids, catch);
    let total_s = t_all.elapsed().as_secs_f64();
    let found = results.iter().filter(|r| r.is_ok()).count();
    let times_ms: Vec<f64> = times.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ArmResult {
        label,
        total_s,
        avg_ms: times_ms.iter().sum::<f64>() / times_ms.len().max(1) as f64,
        max_ms: times_ms.iter().cloned().fold(0.0, f64::max),
        found,
        total: ids.len(),
        stats,
    }
}

fn run_dataset(name: &'static str, cfg: &AclConfig, limit: Option<usize>) -> DatasetResult {
    let (table, ids) = build_table(cfg, limit);
    let gen_cfg = GeneratorConfig::default();
    let catch = CatchSpec::default();

    let stateless = run_stateless(&table, &ids, &gen_cfg, &catch);
    let mut engine = ProbeEngine::with_gen(gen_cfg);
    let [cold, warm] = ["engine-batch", "engine-reprobe"]
        .map(|label| run_engine(&mut engine, label, &table, &ids, &catch));
    let arms = [stateless, cold, warm];

    for arm in &arms {
        let props_per_solve = arm.stats.solver_propagations / arm.stats.solver_calls.max(1);
        println!(
            "{name}\t{}\t{:.3}\t{:.3}\t{} / {}\t({:.2}s total | {} solves | \
             {} props/solve | {} cache hits | {} fast-path)",
            arm.label,
            arm.avg_ms,
            arm.max_ms,
            arm.found,
            arm.total,
            arm.total_s,
            arm.stats.solver_calls,
            props_per_solve,
            arm.stats.cache_hits,
            arm.stats.fast_path_hits,
        );
    }
    let [stateless, cold, warm] = &arms;
    println!(
        "{name}\tspeedup: engine-batch {:.1}x vs stateless; re-probe solver calls: {}",
        stateless.total_s / cold.total_s.max(1e-12),
        warm.stats.solver_calls
    );
    // Acceptance: the engine finds exactly the probes stateless generation
    // finds, and an unchanged table re-probes from the cache.
    assert_eq!(
        (cold.found, warm.found),
        (stateless.found, stateless.found),
        "{name}: engine and stateless disagree on probes found"
    );
    assert_eq!(
        warm.stats.solver_calls, 0,
        "{name}: re-probe must not solve"
    );
    DatasetResult {
        name,
        rules: table.len(),
        arms,
    }
}

fn json_escape_free(s: &str) -> &str {
    // Labels/names here are static identifiers; assert instead of escaping.
    assert!(!s.contains(['"', '\\']), "label needs escaping: {s}");
    s
}

fn write_json(path: &str, datasets: &[DatasetResult]) {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"table2_probe_generation\",\n");
    out.push_str(
        "  \"notes\": \"the engine arms share the stateless arm's encoder and one-shot solver: \
         engine-batch is the plan cache and the guess-and-verify fast path in front of the same \
         per-rule generation\",\n",
    );
    out.push_str("  \"datasets\": [\n");
    for (di, d) in datasets.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"name\": \"{}\",\n      \"rules\": {},\n",
            json_escape_free(d.name),
            d.rules
        ));
        let [stateless, cold, _] = &d.arms;
        out.push_str(&format!(
            "      \"speedup_engine_batch_vs_stateless\": {:.3},\n",
            stateless.total_s / cold.total_s.max(1e-12)
        ));
        out.push_str("      \"arms\": [\n");
        for (ai, a) in d.arms.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"label\": \"{}\", \"total_s\": {:.6}, \"avg_ms\": {:.6}, \
                 \"max_ms\": {:.6}, \"found\": {}, \"total\": {}, \"solver_calls\": {}, \
                 \"cache_hits\": {}, \"cache_misses\": {}, \"fast_path_hits\": {}, \
                 \"instances_built\": {}, \
                 \"solver_propagations\": {}, \"arena_bytes\": {}, \
                 \"arena_reallocs\": {}}}{}\n",
                json_escape_free(a.label),
                a.total_s,
                a.avg_ms,
                a.max_ms,
                a.found,
                a.total,
                a.stats.solver_calls,
                a.stats.cache_hits,
                a.stats.cache_misses,
                a.stats.fast_path_hits,
                a.stats.instances_built,
                a.stats.solver_propagations,
                a.stats.arena_bytes,
                a.stats.arena_reallocs,
                if ai + 1 < d.arms.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if di + 1 < datasets.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write json baseline");
    println!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut limit = None;
    let mut json_path: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--rules" => {
                limit = Some(args[i + 1].parse().expect("--rules N"));
                i += 2;
            }
            "--json" => {
                json_path = Some(args[i + 1].clone());
                i += 2;
            }
            other => panic!("unknown arg {other}"),
        }
    }
    println!("== Table 2: time Monocle takes to generate a probe ==");
    println!("(paper: Campus 4.03/5.29 ms, 10642/10958; Stanford 1.48/3.85 ms, 2442/2755)");
    println!("Data set\tarm\tavg [ms]\tmax [ms]\tprobes found");
    let campus = run_dataset("Campus", &AclConfig::campus_like(), limit);
    let stanford = run_dataset("Stanford", &AclConfig::stanford_like(), limit);
    if let Some(path) = json_path {
        write_json(&path, &[campus, stanford]);
    }
}
