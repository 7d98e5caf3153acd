//! The outside-in per-layer profile of the `--trace 1` run.
//!
//! No product source is touched: every number here is measured around calls
//! into a layer's public functions, replaying the workload's own table and
//! update stream (and, for the codecs, the frames its TCP session
//! recorded). The rows and the end-to-end metric each one should move are
//! tabulated in the README.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use monocle::pool::monitorable_ids;
use monocle::proxy::{MonitorProxy, ProxyConfig, ProxyOutput};
use monocle::steady::SteadyConfig;
use monocle::{
    generate_probe, CatchSpec, EngineConfig, EnginePool, GeneratorConfig, JobSpec, PoolConfig,
    ProbeEngine, ProbeJob,
};
use monocle_openflow::{wire, FlowTable, HeaderVec, OfMessage, SharedTable};
use monocle_packet::PacketFields;
use monocle_sched::{AdaptiveScheduler, SchedConfig};

use crate::inputs::{answer_probe, Op, OpStream, TableSpec};
use crate::stats::{median, percentile, sorted};
use crate::trace::Trace;
use crate::workload::LayerMetric;

pub struct LayerInputs<'a> {
    pub table: &'a TableSpec,
    pub seed: u64,
    /// Frames a traced TCP session recorded at its two endpoints.
    pub frames: &'a [(OfMessage, u32)],
    /// Probe headers and payloads the same session saw.
    pub probes: &'a [(PacketFields, Vec<u8>)],
    /// Confirmed updates the recorded frames belong to.
    pub updates_in_frames: usize,
    pub smoke: bool,
}

/// Repeats `pass` (which performs `per_pass` operations) until `min_secs`
/// have been measured; returns nanoseconds per operation.
fn ns_per_op(per_pass: usize, min_secs: f64, mut pass: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut passes = 0usize;
    while passes == 0 || t0.elapsed().as_secs_f64() < min_secs {
        pass();
        passes += 1;
    }
    t0.elapsed().as_nanos() as f64 / (passes * per_pass.max(1)) as f64
}

fn p(values: &[f64], q: f64) -> f64 {
    percentile(&sorted(values.to_vec()), q)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn ops_of(inp: &LayerInputs<'_>, salt: u64, n: usize) -> Vec<Op> {
    let mut stream = OpStream::new(inp.table, inp.seed ^ salt, 16);
    (0..n).map(|_| stream.next_op()).collect()
}

/// `openflow.wire`: encode and decode of the recorded frame mix.
fn wire_rows(inp: &LayerInputs<'_>, budget: f64, rows: &mut Vec<LayerMetric>) {
    let fallback: Vec<(OfMessage, u32)>;
    let frames = if inp.frames.is_empty() {
        fallback = ops_of(inp, 1, 64)
            .into_iter()
            .map(|op| (OfMessage::FlowMod(op.fm), op.index as u32))
            .collect();
        &fallback[..]
    } else {
        inp.frames
    };
    let encode_ns = ns_per_op(frames.len(), budget, || {
        for (msg, xid) in frames {
            black_box(wire::encode(black_box(msg), *xid));
        }
    });
    let encoded: Vec<Vec<u8>> = frames
        .iter()
        .map(|(m, x)| wire::encode(m, *x).to_vec())
        .collect();
    let decode_ns = ns_per_op(encoded.len(), budget, || {
        for buf in &encoded {
            black_box(wire::decode(black_box(buf)).is_ok());
        }
    });
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    rows.push(("wire.encode_ns", encode_ns, "ns"));
    rows.push(("wire.decode_ns", decode_ns, "ns"));
    rows.push((
        "wire.bytes_per_update",
        bytes as f64 / inp.updates_in_frames.max(1) as f64,
        "B",
    ));
}

/// `packet`: probe craft and parse.
fn packet_rows(inp: &LayerInputs<'_>, budget: f64, rows: &mut Vec<LayerMetric>) {
    let fallback = [(PacketFields::default(), vec![0u8; 32])];
    let probes = if inp.probes.is_empty() {
        &fallback[..]
    } else {
        inp.probes
    };
    let craft_ns = ns_per_op(probes.len(), budget, || {
        for (fields, payload) in probes {
            black_box(monocle_packet::craft_packet(black_box(fields), payload).is_ok());
        }
    });
    let frames: Vec<Vec<u8>> = probes
        .iter()
        .filter_map(|(f, pl)| monocle_packet::craft_packet(f, pl).ok())
        .collect();
    let parse_ns = ns_per_op(frames.len(), budget, || {
        for frame in &frames {
            black_box(monocle_packet::parse_packet(black_box(frame)).is_ok());
        }
    });
    rows.push(("packet.craft_ns", craft_ns, "ns"));
    rows.push(("packet.parse_ns", parse_ns, "ns"));
}

/// `openflow.table` at the workload's table size.
fn table_rows(
    inp: &LayerInputs<'_>,
    table: &FlowTable,
    headers: &[HeaderVec],
    budget: f64,
    rows: &mut Vec<LayerMetric>,
) {
    let ops = ops_of(inp, 2, if inp.smoke { 50 } else { 1000 });
    let apply_ns = ns_per_op(ops.len(), budget, || {
        // The clone is part of the pass but three orders of magnitude below
        // a thousand applies; it restores the table the ops assume.
        let mut t = table.clone();
        for op in &ops {
            black_box(t.apply(&op.fm).is_ok());
        }
    });
    let lookup_ns = ns_per_op(headers.len(), budget, || {
        for h in headers {
            black_box(table.lookup(black_box(h)).is_some());
        }
    });
    let sample: Vec<_> = table
        .rules()
        .iter()
        .step_by((table.len() / 500).max(1))
        .collect();
    let overlap_ns = ns_per_op(sample.len(), budget, || {
        for r in &sample {
            black_box(table.overlapping(black_box(&r.tern)).len());
        }
    });
    let clone_us = ns_per_op(1, budget, || {
        black_box(table.clone());
    }) / 1e3;
    let shared = SharedTable::new(table.clone());
    let snapshot_ns = ns_per_op(1000, budget, || {
        for _ in 0..1000 {
            black_box(shared.snapshot().epoch);
        }
    });
    rows.push(("table.apply_ns", apply_ns, "ns"));
    rows.push(("table.lookup_ns", lookup_ns, "ns"));
    rows.push(("table.overlap_ns", overlap_ns, "ns"));
    rows.push(("table.clone_us", clone_us, "us"));
    rows.push(("table.snapshot_ns", snapshot_ns, "ns"));
}

/// `sat` and `core.engine`: single `generate` calls on a fresh engine (the
/// call the dynamic monitor makes), then the write-then-read churn a steady
/// refresh makes. Returns the probe headers of the plans it found, which
/// the table lookups replay.
fn engine_rows(
    inp: &LayerInputs<'_>,
    table: &FlowTable,
    trace: &mut Trace,
    rows: &mut Vec<LayerMetric>,
) -> Vec<HeaderVec> {
    let catch = CatchSpec::default();
    let mut engine = ProbeEngine::new(EngineConfig::default());
    let ids = monitorable_ids(table);
    let stride = (ids.len() / if inp.smoke { 50 } else { 1000 }).max(1);
    let mut generate_us = Vec::new();
    let mut solve_us = Vec::new();
    let mut headers = Vec::new();
    for &id in ids.iter().step_by(stride) {
        let span = trace.begin("engine.generate", id.0);
        let t0 = Instant::now();
        let (res, st) = engine.generate_with_stats(table, id, &catch);
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        trace.end(span);
        generate_us.push(us);
        if st.solver_calls > 0 {
            solve_us.push(us);
        }
        if let Ok(plan) = res {
            headers.push(plan.header);
        }
    }
    let cold = engine.stats();

    // Warm the rest, then churn.
    let mut table = table.clone();
    engine.generate_batch(&table, &ids, &catch);
    let before = (engine.stats(), engine.engine_stats());
    let ops = ops_of(inp, 3, if inp.smoke { 10 } else { 60 });
    let mut resync_us = Vec::new();
    for op in &ops {
        engine.note_flowmod(&op.fm);
        let _ = table.apply(&op.fm);
        let ids = monitorable_ids(&table);
        let first = ids[op.index as usize % ids.len()];
        let span = trace.begin("engine.resync", op.index + 1);
        let t0 = Instant::now();
        black_box(engine.generate(&table, first, &catch).is_ok());
        resync_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        trace.end(span);
        trace.time("engine.replan_all", op.index + 1, || {
            engine.generate_batch(&table, &ids, &catch).len()
        });
    }
    let after = (engine.stats(), engine.engine_stats());
    let hits = after.0.cache_hits - before.0.cache_hits;
    let misses = after.0.cache_misses - before.0.cache_misses;

    rows.push((
        "sat.solves_per_probe",
        ratio(cold.solver_calls, cold.cache_misses),
        "count",
    ));
    rows.push((
        "sat.propagations_per_solve",
        ratio(cold.solver_propagations, cold.solver_calls),
        "count",
    ));
    rows.push((
        "sat.arena_mb",
        after.0.arena_bytes as f64 / (1024.0 * 1024.0),
        "MB",
    ));
    rows.push(("sat.solve_us_p50", p(&solve_us, 50.0), "us"));
    rows.push(("sat.solve_us_p99", p(&solve_us, 99.0), "us"));
    rows.push(("engine.generate_us_p50", p(&generate_us, 50.0), "us"));
    rows.push(("engine.generate_us_p99", p(&generate_us, 99.0), "us"));
    rows.push((
        "engine.fast_path_share",
        ratio(cold.fast_path_hits, cold.cache_misses),
        "share",
    ));
    rows.push((
        "engine.cache_hit_share",
        ratio(hits, hits + misses),
        "share",
    ));
    rows.push(("engine.resync_us", median(&resync_us), "us"));
    rows.push((
        "engine.invalidated_per_update",
        ratio(
            after.1.plans_invalidated - before.1.plans_invalidated,
            ops.len() as u64,
        ),
        "count",
    ));
    headers
}

/// `core.pool`: single-rule `run_batch` against a fresh table snapshot —
/// the call `proxy_app`'s planner thread makes per `PlanJob`, clone
/// included.
fn pool_rows(
    inp: &LayerInputs<'_>,
    table: &FlowTable,
    trace: &mut Trace,
    rows: &mut Vec<LayerMetric>,
) {
    let pool = EnginePool::new(PoolConfig::with_workers(1));
    let mut table = table.clone();
    let mut job_us = Vec::new();
    let mut stale = 0u64;
    let ops = ops_of(inp, 4, if inp.smoke { 10 } else { 100 });
    for op in &ops {
        let _ = table.apply(&op.fm);
        let ids = monitorable_ids(&table);
        let id = ids[op.index as usize % ids.len()];
        let span = trace.begin("pool.job", op.index + 1);
        let t0 = Instant::now();
        let results = pool.run_batch(vec![ProbeJob {
            switch_id: 1,
            table: Arc::new(SharedTable::new(table.clone())),
            catch: CatchSpec::default(),
            spec: JobSpec::Rules(vec![id]),
        }]);
        job_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        trace.end(span);
        stale += results.iter().filter(|r| r.stale).count() as u64;
    }
    rows.push(("pool.job_us_p50", p(&job_us, 50.0), "us"));
    rows.push(("pool.job_us_p99", p(&job_us, 99.0), "us"));
    rows.push(("pool.stale_share", ratio(stale, ops.len() as u64), "share"));
}

fn preinstalled(inp: &LayerInputs<'_>, cfg: ProxyConfig) -> (MonitorProxy, FlowTable) {
    let mut proxy = MonitorProxy::new(cfg);
    for r in inp.table.preload_order() {
        proxy.preinstall(r.priority, r.match_, r.actions.clone());
    }
    (proxy, inp.table.build())
}

/// `core.proxy`: sans-IO replay of the TCP op stream in deferred mode, the
/// datapath answering at once.
fn proxy_rows(inp: &LayerInputs<'_>, trace: &mut Trace, rows: &mut Vec<LayerMetric>) {
    let catch = CatchSpec::default();
    let (mut proxy, mut datapath) = preinstalled(inp, ProxyConfig::new(1, catch.clone()));
    proxy.set_deferred_planning(true);
    let gen_cfg = GeneratorConfig::default();
    let (mut flowmod_us, mut attach_us, mut return_us, mut tick_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut injected = 0u64;
    let mut now = 0u64;
    let ops = ops_of(inp, 5, if inp.smoke { 10 } else { 150 });
    let us = |t0: Instant| t0.elapsed().as_nanos() as f64 / 1e3;
    for op in &ops {
        let xid = op.index + 1;
        now += 1_000_000;
        let span = trace.begin("proxy.on_flowmod", xid);
        let t0 = Instant::now();
        let mut outputs = proxy.on_controller_flowmod(now, xid, op.fm.clone());
        flowmod_us.push(us(t0));
        trace.end(span);
        let _ = datapath.apply(&op.fm);
        for req in proxy.take_plan_requests() {
            let plan = generate_probe(&req.table, req.rule_id, &catch, &gen_cfg).ok();
            let span = trace.begin("proxy.attach_plan", xid);
            let t0 = Instant::now();
            outputs.extend(proxy.attach_plan(now, req.token, plan));
            attach_us.push(us(t0));
            trace.end(span);
        }
        // Answer every injection from the (already updated) datapath until
        // the update confirms or goes quiet.
        let mut pending = outputs;
        for _ in 0..8 {
            let mut next = Vec::new();
            for out in pending {
                let ProxyOutput::Inject(inj) = out else {
                    continue;
                };
                injected += 1;
                for (port, fields) in answer_probe(&datapath, inj.in_port, &inj.fields) {
                    let span = trace.begin("proxy.on_probe_return", xid);
                    let t0 = Instant::now();
                    next.extend(proxy.on_probe_return(now, &inj.meta, port, &fields));
                    return_us.push(us(t0));
                    trace.end(span);
                }
            }
            now += 1_000_000;
            let span = trace.begin("proxy.on_tick", xid);
            let t0 = Instant::now();
            next.extend(proxy.on_tick(now));
            tick_us.push(us(t0));
            trace.end(span);
            if proxy.in_flight() == 0 && proxy.awaiting_plans() == 0 {
                break;
            }
            pending = next;
        }
        // Silent (drop-outcome) confirmations need their 12 ms window.
        for _ in 0..16 {
            if proxy.in_flight() == 0 {
                break;
            }
            now += 2_000_000;
            black_box(proxy.on_tick(now).len());
        }
    }

    // Steady refresh after a delta, inline planning, adaptive scheduler.
    let steady = SteadyConfig {
        adaptive: Some(SchedConfig::default()),
        ..Default::default()
    };
    let (mut proxy, _) = preinstalled(inp, ProxyConfig::new(1, catch).with_steady(steady));
    proxy.refresh_steady_plans();
    let mut refresh_ms = Vec::new();
    for op in ops.iter().take(if inp.smoke { 3 } else { 12 }) {
        now += 1_000_000;
        black_box(
            proxy
                .on_controller_flowmod(now, op.index + 1, op.fm.clone())
                .len(),
        );
        let span = trace.begin("proxy.steady_refresh", op.index + 1);
        let t0 = Instant::now();
        black_box(proxy.refresh_steady_plans());
        refresh_ms.push(us(t0) / 1e3);
        trace.end(span);
    }

    rows.push(("proxy.on_flowmod_us", median(&flowmod_us), "us"));
    rows.push(("proxy.attach_plan_us", median(&attach_us), "us"));
    rows.push(("proxy.on_probe_return_us", median(&return_us), "us"));
    rows.push(("proxy.on_tick_us", median(&tick_us), "us"));
    rows.push(("proxy.steady_refresh_ms", median(&refresh_ms), "ms"));
    rows.push((
        "proxy.probes_per_update",
        ratio(injected, ops.len() as u64),
        "count",
    ));
}

/// `sched`: the adaptive scheduler alone, one key per table rule, on a
/// virtual clock with the switch backpressured a tenth of the time.
fn sched_rows(rules: usize, smoke: bool, rows: &mut Vec<LayerMetric>) {
    let keys: Vec<u64> = (0..rules as u64).collect();
    let mut sched = AdaptiveScheduler::new(SchedConfig::default());
    sched.sync(&keys, 0);
    // The per-refresh call: every key already known.
    let sync_us = ns_per_op(1, if smoke { 0.005 } else { 0.1 }, || sched.sync(&keys, 0)) / 1e3;
    let ticks: u64 = if smoke { 2_000 } else { 60_000 };
    let t0 = Instant::now();
    for tick in 0..ticks {
        let now = tick * 1_000_000;
        if tick % 1000 == 0 {
            sched.set_switch_cost(1.0, true);
        } else if tick % 1000 == 100 {
            sched.set_switch_cost(1.0, false);
        }
        if let Some(key) = sched.next_due(now) {
            sched.note_verdict(black_box(key), now, true);
        }
    }
    let release_ns = t0.elapsed().as_nanos() as f64 / ticks as f64;
    let stats = sched.stats();
    rows.push(("sched.release_ns", release_ns, "ns"));
    rows.push(("sched.sync_us", sync_us, "us"));
    rows.push((
        "sched.slo_forced_share",
        ratio(stats.slo_forced, stats.released),
        "share",
    ));
}

/// Runs every replay; the `net.*`/`stage.*` rows come from the TCP session
/// itself (`tcp::net_metrics`).
pub fn profile(inp: &LayerInputs<'_>, trace: &mut Trace) -> Vec<LayerMetric> {
    let mut rows = Vec::new();
    let budget = if inp.smoke { 0.005 } else { 0.15 };
    let table = inp.table.build();

    let span = trace.begin("layers.engine", 0);
    let headers = engine_rows(inp, &table, trace, &mut rows);
    trace.end(span);
    trace.time("layers.wire", 0, || wire_rows(inp, budget, &mut rows));
    trace.time("layers.packet", 0, || packet_rows(inp, budget, &mut rows));
    trace.time("layers.table", 0, || {
        table_rows(inp, &table, &headers, budget, &mut rows)
    });
    let span = trace.begin("layers.pool", 0);
    pool_rows(inp, &table, trace, &mut rows);
    trace.end(span);
    let span = trace.begin("layers.proxy", 0);
    proxy_rows(inp, trace, &mut rows);
    trace.end(span);
    trace.time("layers.sched", 0, || {
        sched_rows(table.len(), inp.smoke, &mut rows)
    });
    rows
}
