//! `tcp_large_table` and `tcp_small_table`: confirmed updates through the
//! proxy over loopback TCP, one session, 1 ms switch install latency.
//!
//! Same driver, same op mix; only the table differs. On the 2755-rule table
//! the O(table) work per update dominates (the `FlowTable` clone in
//! `PlanJob`, engine resync, the dynamic conflict scan); on the 100-rule
//! table the per-message cost does (wire codec, `Connection`, event loop,
//! packet craft/parse, tick cadence). A table-side optimisation must leave
//! `tcp_small_table` unchanged and a codec-side one `tcp_large_table`.

use crate::inputs::{self, Dataset, TableSpec};
use crate::json::Json;
use crate::layers;
use crate::loadgen::{run_session, Part, SessionConfig, SessionReport, UpdateRec, TRACE_SLICES};
use crate::stats::{self, median, quiet_min, quiet_rate, quiet_time, summarize, Summary};
use crate::trace::Trace;
use crate::workload::{LayerMetric, Outcome, RunArgs};

/// Switch install latency of both TCP workloads.
const INSTALL_LATENCY_NS: u64 = 1_000_000;
/// Phase A offered rate, updates per second.
const OPEN_RATE_PER_S: f64 = 100.0;
/// Share of `--seconds` spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.4;
/// Phase A is read in slices of this many consecutive updates (one second's
/// worth), phase B in this many slices per trace slice; the workload's
/// numbers are the slices' better quartiles (`stats::quiet_time`).
const OPEN_SLICE_UPDATES: usize = 100;
const CLOSED_SLICES_PER_TRACE_SLICE: u64 = 3;

fn session_config(args: &RunArgs, large: bool) -> SessionConfig {
    let seconds = if args.smoke { 0.5 } else { args.seconds };
    SessionConfig {
        install_latency_ns: INSTALL_LATENCY_NS,
        preload_window: 16,
        open_rate_per_s: OPEN_RATE_PER_S,
        open_secs: seconds * OPEN_SHARE,
        closed_window: if large { 8 } else { 64 },
        closed_secs: seconds * (1.0 - OPEN_SHARE),
        rtt_probes: if args.smoke { 20 } else { 200 },
        trace: args.trace,
        deadline_ns: 20_000_000_000,
        seed: args.seed,
    }
}

fn table_for(args: &RunArgs, large: bool) -> TableSpec {
    match (args.smoke, large) {
        (true, true) => inputs::load_small(Dataset::Stanford, 60),
        (true, false) => inputs::load_small(Dataset::Stanford, 20),
        (false, true) => inputs::load(Dataset::Stanford, &args.out_dir),
        (false, false) => inputs::load(Dataset::Stanford, &args.out_dir).truncated(100),
    }
}

fn acked(u: &UpdateRec) -> bool {
    u.ack_ns > 0 && !u.alarmed
}

fn ms(from_ns: u64, to_ns: u64) -> f64 {
    to_ns.saturating_sub(from_ns) as f64 / 1e6
}

/// Confirmed updates per second inside `[from, to)` of the closed-loop
/// phase, by ack time.
fn closed_rate(report: &SessionReport, from_ns: u64, to_ns: u64) -> f64 {
    let acks = report
        .updates
        .iter()
        .filter(|u| u.part == Part::Closed && acked(u) && (from_ns..to_ns).contains(&u.ack_ns))
        .count();
    acks as f64 / (to_ns.saturating_sub(from_ns) as f64 / 1e9)
}

/// Violations of the correctness checks, by name.
fn violations(report: &SessionReport) -> Vec<(&'static str, u64)> {
    let unacked = report.updates.iter().filter(|u| u.acks == 0).count() as u64;
    // §4 invariant: no probe-verified ack before the endpoint installed the
    // rule. The wire does not say which acks were verified, so early acks
    // are set against the proxy's own count of optimistic ones, which are
    // sent on forward and legitimately early.
    let early = report
        .updates
        .iter()
        .filter(|u| u.ack_ns > 0 && !u.alarmed && u.ack_ns < u.installed_ns)
        .count() as u64;
    let optimistic = report.proxy.confirmed.saturating_sub(report.proxy.verified);
    vec![
        ("alarms", report.alarms),
        ("unacked", unacked),
        ("duplicate_acks", report.duplicate_acks),
        ("stray_acks", report.stray_acks),
        ("early_acks", early.saturating_sub(optimistic)),
        ("table_mismatch", u64::from(!report.table_matches)),
        ("deadlined", u64::from(report.deadlined)),
    ]
}

/// `net.*` and `stage.*` per-layer metrics from a traced session, plus the
/// stage spans themselves.
///
/// The four additive stages (forward, install, install→verify, verify→ack)
/// partition send → ack of an update confirmed by a returning probe. Medians
/// of parts do not add up to the median of the whole (install→verify has two
/// modes, one probe interval apart), so the rows are the stages *of the
/// median update*: means over the updates whose send → ack time lies between
/// the 40th and 60th percentile. They sum to that group's mean send → ack
/// time, which is the p50 to within the band.
fn net_metrics(report: &SessionReport, trace: &mut Trace) -> Vec<LayerMetric> {
    let traced: Vec<&UpdateRec> = report
        .updates
        .iter()
        .filter(|u| u.traced && u.part == Part::Open && acked(u))
        .collect();
    for (i, u) in report.updates.iter().enumerate() {
        if !(u.traced && u.ack_ns > 0) {
            continue;
        }
        let xid = i as u64 + 1;
        trace.record("stage.forward", xid, u.sent_ns, u.at_switch_ns);
        trace.record("stage.install", xid, u.at_switch_ns, u.installed_ns);
        if u.first_probe_ns > 0 {
            trace.record("stage.first_probe", xid, u.at_switch_ns, u.first_probe_ns);
        }
        if u.verify_ns > 0 {
            trace.record("stage.install_to_verify", xid, u.installed_ns, u.verify_ns);
            trace.record("stage.verify_to_ack", xid, u.verify_ns, u.ack_ns);
        }
    }

    let mut answered: Vec<&UpdateRec> =
        traced.iter().copied().filter(|u| u.verify_ns > 0).collect();
    answered.sort_by_key(|u| u.ack_ns - u.sent_ns);
    let band = &answered[answered.len() * 2 / 5..(answered.len() * 3).div_ceil(5)];
    let mean_us = |part: fn(&UpdateRec) -> (u64, u64)| -> f64 {
        let total: u64 = band
            .iter()
            .map(|u| {
                let (from, to) = part(u);
                to.saturating_sub(from)
            })
            .sum();
        total as f64 / band.len().max(1) as f64 / 1e3
    };
    let first_probe_us = median(
        &traced
            .iter()
            .filter(|u| u.first_probe_ns > 0)
            .map(|u| (u.first_probe_ns - u.at_switch_ns) as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let probes: u64 = traced.iter().map(|u| u64::from(u.probes)).sum();
    let wasted: u64 = traced
        .iter()
        .map(|u| u64::from(u.probes_before_install))
        .sum();
    vec![
        ("net.connect_ms", report.connect_ms, "ms"),
        ("net.passthrough_rtt_us", median(&report.rtt_us), "us"),
        (
            "stage.forward_us",
            mean_us(|u| (u.sent_ns, u.at_switch_ns)),
            "us",
        ),
        (
            "stage.install_us",
            mean_us(|u| (u.at_switch_ns, u.installed_ns)),
            "us",
        ),
        ("stage.first_probe_us", first_probe_us, "us"),
        (
            "stage.install_to_verify_us",
            mean_us(|u| (u.installed_ns, u.verify_ns)),
            "us",
        ),
        (
            "stage.verify_to_ack_us",
            mean_us(|u| (u.verify_ns, u.ack_ns)),
            "us",
        ),
        (
            "stage.wasted_probe_share",
            if probes == 0 {
                0.0
            } else {
                wasted as f64 / probes as f64
            },
            "share",
        ),
    ]
}

/// Every per-layer row a traced session can feed: its own `net.*` and
/// `stage.*` rows, then the in-process layer replays at `table`'s size, with
/// the session's recorded frames and probes as the codec inputs.
fn session_layer_rows(
    args: &RunArgs,
    session: &SessionReport,
    table: &TableSpec,
    trace: &mut Trace,
) -> Vec<LayerMetric> {
    let mut rows = net_metrics(session, trace);
    let updates_in_frames = session
        .updates
        .iter()
        .filter(|u| u.part == Part::Open && u.ack_ns > 0)
        .count();
    rows.extend(layers::profile(
        &layers::LayerInputs {
            table,
            seed: args.seed,
            frames: &session.frames,
            probes: &session.probe_fields,
            updates_in_frames,
            smoke: args.smoke,
        },
        trace,
    ));
    rows
}

/// The same rows for the in-process workloads, whose traced run has no
/// session of its own: a short traced open-loop session on `session_table`
/// supplies the `net.*`/`stage.*` rows and the frame mix.
pub fn probe_session_layer_rows(
    args: &RunArgs,
    session_table: &TableSpec,
    table: &TableSpec,
    trace: &mut Trace,
) -> std::io::Result<Vec<LayerMetric>> {
    let mut cfg = session_config(args, true);
    cfg.trace = true;
    cfg.open_secs = if args.smoke { 0.2 } else { 2.0 };
    cfg.closed_secs = 0.0;
    let session = run_session(&cfg, session_table)?;
    Ok(session_layer_rows(args, &session, table, trace))
}

pub fn run(args: &RunArgs, large: bool, trace: &mut Trace) -> std::io::Result<Outcome> {
    let table = table_for(args, large);
    let cfg = session_config(args, large);

    // Set-up is bringing a switch up through the proxy: connect, handshake
    // and the paced preload. It is repeated on fresh proxies and the median
    // reported; only the last session goes on to the measured phases.
    let setups = match (args.smoke || args.trace, large) {
        (true, _) => 1,
        (false, true) => 3,
        (false, false) => 9,
    };
    let mut setup_samples = Vec::new();
    let preload_only = SessionConfig {
        open_secs: 0.0,
        closed_secs: 0.0,
        rtt_probes: 0,
        trace: false,
        ..cfg.clone()
    };
    let mut failed_setups = 0u64;
    for _ in 1..setups {
        let r = run_session(&preload_only, &table)?;
        failed_setups += violations(&r).iter().map(|(_, n)| n).sum::<u64>();
        setup_samples.push(r.setup_s);
    }
    let report = run_session(&cfg, &table)?;
    setup_samples.push(report.setup_s);

    let open: Vec<&UpdateRec> = report
        .updates
        .iter()
        .filter(|u| u.part == Part::Open)
        .collect();
    let open_slices: Vec<Summary> = open
        .chunks(OPEN_SLICE_UPDATES)
        .filter(|c| c.len() == OPEN_SLICE_UPDATES || open.len() < OPEN_SLICE_UPDATES)
        .map(|c| {
            summarize(
                c.iter()
                    .filter(|u| acked(u))
                    .map(|u| ms(u.due_ns, u.ack_ns))
                    .collect(),
            )
        })
        .collect();
    let of_slices =
        |f: fn(&Summary) -> f64| quiet_time(&open_slices.iter().map(f).collect::<Vec<_>>());
    let latency = Summary {
        p50: of_slices(|s| s.p50),
        tail: of_slices(|s| s.tail),
        ..open_slices[0]
    };
    let lateness_ms = stats::sorted(open.iter().map(|u| ms(u.due_ns, u.sent_ns)).collect());

    let closed_ns = (cfg.closed_secs * 1e9) as u64;
    let send_until = report.closed_start_ns + closed_ns;
    // The traced run stamps in the odd trace slices of phase B only; the
    // even ones are its like-for-like untraced rate.
    let slices = TRACE_SLICES * CLOSED_SLICES_PER_TRACE_SLICE;
    let slice_rate = |traced: Option<bool>| {
        let rates: Vec<f64> = (0..slices)
            .filter(|s| {
                traced.is_none_or(|odd| (s / CLOSED_SLICES_PER_TRACE_SLICE % 2 == 1) == odd)
            })
            .map(|s| {
                let from = report.closed_start_ns + closed_ns * s / slices;
                let to = report.closed_start_ns + closed_ns * (s + 1) / slices;
                closed_rate(&report, from, to)
            })
            .collect();
        quiet_rate(&rates)
    };
    let updates_per_s = slice_rate(args.trace.then_some(false));

    let checks = violations(&report);
    let failed = failed_setups + checks.iter().map(|(_, n)| n).sum::<u64>();
    let attempted = report.updates.len() as u64;
    let verified_share = report.proxy.verified as f64 / (report.proxy.flowmods.max(1)) as f64;

    let mut info = Json::obj();
    info.set("table_rules", report.table_rules)
        .set("inputgen_s", table.inputgen_s)
        .set(
            "setup_samples_s",
            Json::Arr(setup_samples.iter().map(|&s| s.into()).collect()),
        )
        .set("ack_p50_ms", latency.p50)
        .set("ack_tail_ms", latency.tail)
        .set("ack_tail_percentile", latency.tail_p)
        .set("ack_samples_per_slice", latency.samples)
        .set("ack_slices", open_slices.len())
        .set(
            "updates_per_s_whole_phase",
            closed_rate(&report, report.closed_start_ns, send_until),
        )
        .set("open_rate_per_s", cfg.open_rate_per_s)
        .set(
            "generator_lateness_p50_ms",
            stats::percentile(&lateness_ms, 50.0),
        )
        .set(
            "generator_lateness_max_ms",
            stats::percentile(&lateness_ms, 100.0),
        )
        .set("updates_per_s", updates_per_s)
        .set("closed_window", cfg.closed_window)
        .set(
            "closed_updates",
            report
                .updates
                .iter()
                .filter(|u| u.part == Part::Closed)
                .count(),
        )
        .set("verified", report.proxy.verified)
        .set("confirmed", report.proxy.confirmed)
        .set("probes_injected", report.proxy.probes_injected)
        .set("probes_at_switch", report.probes_seen)
        .set("packet_ins", report.packet_ins)
        .set("connect_ms", report.connect_ms);
    for (name, n) in &checks {
        info.set(name, *n);
    }

    let mut layer_rows = Vec::new();
    if args.trace {
        layer_rows = session_layer_rows(args, &report, &table, trace);
        let traced_rate = slice_rate(Some(true));
        layer_rows.push((
            "trace_overhead_share",
            1.0 - traced_rate / updates_per_s,
            "share",
        ));
        // How much of the ack latency the stage spans explain (send →
        // ack, so generator lateness is left out on both sides).
        let stage_sum_ms: f64 = layer_rows
            .iter()
            .filter(|(n, _, _)| {
                matches!(
                    *n,
                    "stage.forward_us"
                        | "stage.install_us"
                        | "stage.install_to_verify_us"
                        | "stage.verify_to_ack_us"
                )
            })
            .map(|(_, v, _)| v / 1e3)
            .sum();
        let sent_to_ack_p50 = median(
            &open
                .iter()
                .filter(|u| acked(u) && u.verify_ns > 0)
                .map(|u| ms(u.sent_ns, u.ack_ns))
                .collect::<Vec<_>>(),
        );
        // Against the workload's own `ack_p50_ms` (timed from the due time,
        // over all updates) the generator's lateness has to be added back.
        let lateness_p50_ms = stats::percentile(&lateness_ms, 50.0);
        info.set("stage_sum_ms", stage_sum_ms)
            .set("stage_sum_over_ack_p50", stage_sum_ms / sent_to_ack_p50)
            .set(
                "stage_sum_plus_lateness_over_workload_ack_p50",
                (stage_sum_ms + lateness_p50_ms) / latency.p50,
            );
    }

    Ok(Outcome {
        attempted,
        failed,
        correct: failed == 0,
        setup_s: quiet_min(&setup_samples),
        latency,
        throughput_per_s: updates_per_s,
        verified_share,
        info,
        layers: layer_rows,
    })
}
