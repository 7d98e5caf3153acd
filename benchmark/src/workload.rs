//! What every workload takes and returns.

use std::path::PathBuf;

use crate::json::Json;
use crate::stats::Summary;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    pub trace: bool,
    /// Schema-and-checks mode: tiny tables, every workload under 2 s.
    pub smoke: bool,
    /// Scratch directory for cached inputs, run reports and span files.
    pub out_dir: PathBuf,
}

/// A per-layer metric of the traced run.
pub type LayerMetric = (&'static str, f64, &'static str);

/// One finished workload. The six end-to-end metrics have one meaning per
/// workload (see the README's table); `info` keeps the native names and
/// everything else worth reading.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub setup_s: f64,
    /// Milliseconds.
    pub latency: Summary,
    pub throughput_per_s: f64,
    pub verified_share: f64,
    pub info: Json,
    /// Filled by the traced run only.
    pub layers: Vec<LayerMetric>,
}

/// The end-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("verified_share", "share"),
    ("peak_rss_mb", "MB"),
];

/// Names of the per-layer metrics every traced run must report.
pub const PER_LAYER: [&str; 42] = [
    "trace_overhead_share",
    "net.connect_ms",
    "net.passthrough_rtt_us",
    "stage.forward_us",
    "stage.install_us",
    "stage.first_probe_us",
    "stage.install_to_verify_us",
    "stage.verify_to_ack_us",
    "stage.wasted_probe_share",
    "wire.encode_ns",
    "wire.decode_ns",
    "wire.bytes_per_update",
    "packet.craft_ns",
    "packet.parse_ns",
    "table.apply_ns",
    "table.lookup_ns",
    "table.overlap_ns",
    "table.clone_us",
    "table.snapshot_ns",
    "sat.solves_per_probe",
    "sat.propagations_per_solve",
    "sat.arena_mb",
    "sat.solve_us_p50",
    "sat.solve_us_p99",
    "engine.generate_us_p50",
    "engine.generate_us_p99",
    "engine.fast_path_share",
    "engine.cache_hit_share",
    "engine.resync_us",
    "engine.invalidated_per_update",
    "pool.job_us_p50",
    "pool.job_us_p99",
    "pool.stale_share",
    "proxy.on_flowmod_us",
    "proxy.attach_plan_us",
    "proxy.on_probe_return_us",
    "proxy.on_tick_us",
    "proxy.steady_refresh_ms",
    "proxy.probes_per_update",
    "sched.release_ns",
    "sched.sync_us",
    "sched.slo_forced_share",
];

pub const WORKLOADS: [&str; 4] = [
    "tcp_large_table",
    "tcp_small_table",
    "plan_tables",
    "detect_breakage",
];
