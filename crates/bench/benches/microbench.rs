//! Criterion microbenchmarks: probe generation (per dataset), the §8.2
//! solver ablation (CDCL vs DPLL on the same instances), SAT solving,
//! flow-table operations, coloring, and the wire codec.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use monocle::encode::{build_instance, CatchSpec};
use monocle::engine::ProbeEngine;
use monocle::generator::{generate_probe, GeneratorConfig};
use monocle_datasets::acl::{generate, AclConfig};
use monocle_datasets::fib::l3_host_routes;
use monocle_netgraph::{color_dsatur, color_exact, color_greedy, generators};
use monocle_openflow::{wire, FlowMod, FlowTable, Match, OfMessage};
use monocle_sat::{CdclSolver, Cnf, DpllSolver};
use std::hint::black_box;

fn load_table(cfg: &AclConfig, limit: usize) -> FlowTable {
    let mut t = FlowTable::new();
    for r in generate(cfg).into_iter().take(limit) {
        let _ = t.add_rule(r.priority, r.match_, r.actions);
    }
    t
}

/// Table 2's core operation: one probe generation on each dataset.
fn bench_probe_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("probe_generation");
    g.sample_size(20);
    for (name, cfg, limit) in [
        ("stanford_2755", AclConfig::stanford_like(), usize::MAX),
        ("campus_2000", AclConfig::campus_like(), 2000),
    ] {
        let table = load_table(&cfg, limit);
        let ids: Vec<_> = table.rules().iter().map(|r| r.id).collect();
        let gen_cfg = GeneratorConfig::default();
        let catch = CatchSpec::default();
        let mut i = 0;
        g.bench_function(BenchmarkId::new("generate", name), |b| {
            b.iter(|| {
                let id = ids[i % ids.len()];
                i += 1;
                black_box(generate_probe(&table, id, &catch, &gen_cfg)).ok()
            })
        });
        // Engine comparison arms on the same table/rule stream.
        let mut warm = ProbeEngine::default();
        let mut j = 0;
        g.bench_function(BenchmarkId::new("engine_warm", name), |b| {
            b.iter(|| {
                let id = ids[j % ids.len()];
                j += 1;
                black_box(warm.generate(&table, id, &catch)).ok()
            })
        });
        g.bench_function(BenchmarkId::new("engine_cold_batch", name), |b| {
            b.iter(|| {
                let mut eng = ProbeEngine::default();
                black_box(eng.generate_batch(&table, &ids, &catch).len())
            })
        });
    }
    g.finish();
}

/// §8.2 ablation: solver choice on the same instances.
fn bench_solver_ablation(c: &mut Criterion) {
    let table = load_table(&AclConfig::stanford_like(), 1500);
    let probed: Vec<_> = table
        .rules()
        .iter()
        .filter(|r| table.overlapping(&r.tern).len() > 3)
        .take(32)
        .cloned()
        .collect();
    let catch = CatchSpec::default();
    let mut g = c.benchmark_group("ablation_solvers");
    g.sample_size(20);
    g.bench_function("build+cdcl/Implication", |b| {
        b.iter(|| {
            for r in &probed {
                if let Ok(inst) = build_instance(&table, r, &catch) {
                    black_box(CdclSolver::new().solve(&inst.cnf));
                }
            }
        })
    });
    // DPLL on the same instances (the "a simple solver suffices?" question).
    g.bench_function("build+dpll/Implication", |b| {
        b.iter(|| {
            for r in &probed {
                if let Ok(inst) = build_instance(&table, r, &catch) {
                    black_box(
                        DpllSolver::new()
                            .with_decision_budget(100_000)
                            .solve(&inst.cnf),
                    );
                }
            }
        })
    });
    g.finish();
}

fn bench_sat_solver(c: &mut Criterion) {
    // Pigeonhole PHP(7,6): a dense UNSAT instance.
    let mut php = Cnf::new();
    let holes = 6u32;
    let var = |p: u32, h: u32| (p * holes + h + 1) as i32;
    for p in 0..=holes {
        let clause: Vec<i32> = (0..holes).map(|h| var(p, h)).collect();
        php.add_clause(&clause);
    }
    for h in 0..holes {
        for p1 in 0..=holes {
            for p2 in (p1 + 1)..=holes {
                php.add_clause(&[-var(p1, h), -var(p2, h)]);
            }
        }
    }
    c.bench_function("sat/php_7_6_unsat", |b| {
        b.iter(|| black_box(CdclSolver::new().solve(&php)))
    });
}

fn bench_flow_table(c: &mut Criterion) {
    let table = load_table(&AclConfig::campus_like(), 10000);
    let probe = table.rules()[500].tern.sample_packet();
    c.bench_function("flowtable/lookup_10k", |b| {
        b.iter(|| black_box(table.lookup(&probe)))
    });
    c.bench_function("flowtable/lookup_10k_linear", |b| {
        b.iter(|| black_box(table.lookup_linear(&probe)))
    });
    let tern = table.rules()[500].tern;
    c.bench_function("flowtable/overlap_scan_10k", |b| {
        b.iter(|| black_box(table.overlapping(&tern).len()))
    });
    c.bench_function("flowtable/overlap_scan_10k_linear", |b| {
        b.iter(|| black_box(table.overlapping_linear(&tern).len()))
    });
    let fib = l3_host_routes(1000, 4, 1);
    c.bench_function("flowtable/install_1000", |b| {
        b.iter(|| {
            let mut t = FlowTable::new();
            for r in &fib {
                t.add_rule(r.priority, r.match_, r.actions.clone()).unwrap();
            }
            black_box(t.len())
        })
    });
}

fn bench_coloring(c: &mut Criterion) {
    let zoo = generators::waxman(200, 0.15, 0.4, 7);
    let ba = generators::barabasi_albert(1000, 2, 7);
    c.bench_function("coloring/greedy_ba1000", |b| {
        b.iter(|| black_box(color_greedy(&ba).num_colors))
    });
    c.bench_function("coloring/dsatur_waxman200", |b| {
        b.iter(|| black_box(color_dsatur(&zoo).num_colors))
    });
    c.bench_function("coloring/exact_waxman200", |b| {
        b.iter(|| black_box(color_exact(&zoo, 50_000).num_colors))
    });
    c.bench_function("coloring/square_ba1000", |b| {
        b.iter(|| black_box(ba.square().num_edges()))
    });
}

fn bench_wire_codec(c: &mut Criterion) {
    let fm = OfMessage::FlowMod(FlowMod::add(
        100,
        Match::any()
            .with_nw_src([10, 0, 0, 1], 32)
            .with_nw_dst([10, 2, 0, 0], 16)
            .with_nw_proto(6)
            .with_tp_dst(443),
        vec![monocle_openflow::Action::Output(3)],
    ));
    let bytes = wire::encode(&fm, 7);
    c.bench_function("wire/encode_flowmod", |b| {
        b.iter(|| black_box(wire::encode(&fm, 7).len()))
    });
    c.bench_function("wire/decode_flowmod", |b| {
        b.iter(|| black_box(wire::decode(&bytes).unwrap().2))
    });
}

criterion_group!(
    benches,
    bench_probe_generation,
    bench_solver_ablation,
    bench_sat_solver,
    bench_flow_table,
    bench_coloring,
    bench_wire_codec
);
criterion_main!(benches);
