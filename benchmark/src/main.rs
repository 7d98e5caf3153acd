//! The Monocle benchmark. One command, four named workloads:
//!
//! ```text
//! monocle_benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! monocle_benchmark compare --a <run.json|dir>… --b <run.json|dir>… [--spec BENCHMARK.json]
//! ```
//!
//! A run prints a human-readable summary on stderr, writes a full report
//! (native metric names, counts, checks) under `<out>/runs/`, and ends its
//! stdout with one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off; with `--trace 1` they are the per-layer ones and the spans
//! are written next to the report. See `README.md`.

mod affinity;
mod compare;
mod detect;
mod inputs;
mod json;
mod layers;
mod loadgen;
mod plan;
mod procfs;
mod stats;
mod tcp;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use json::{metric, Json};
use trace::Trace;
use workload::{Outcome, RunArgs, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str = "usage:
  monocle_benchmark --workload <tcp_large_table|tcp_small_table|plan_tables|detect_breakage>
                    [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
  monocle_benchmark compare --a <run.json|dir>... --b <run.json|dir>... [--spec BENCHMARK.json]";

fn parse_run_args(argv: &[String]) -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/target"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds >= 1.0 && args.seconds <= 60.0) {
        return Err(format!(
            "--seconds must be within 1..=60, got {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn run_workload(args: &RunArgs, trace: &mut Trace) -> std::io::Result<Outcome> {
    match args.workload.as_str() {
        "tcp_large_table" => tcp::run(args, true, trace),
        "tcp_small_table" => tcp::run(args, false, trace),
        "plan_tables" => plan::run(args, trace),
        _ => detect::run(args, trace),
    }
}

/// A metric value that would not survive JSON (NaN from an empty sample)
/// reads as 0; the report's `info` shows the sample count behind it.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_run_args(argv)?;
    let started = Instant::now();
    let mut trace = Trace::new(args.trace);
    let out = run_workload(&args, &mut trace).map_err(|e| format!("{}: {e}", args.workload))?;
    let peak_rss_mb = procfs::peak_rss_mb().unwrap_or(0.0);

    let mut end_to_end = Json::obj();
    let values = [
        out.setup_s,
        out.latency.p50,
        out.latency.tail,
        out.throughput_per_s,
        out.verified_share,
        peak_rss_mb,
    ];
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        end_to_end.set(name, metric(finite(value), unit));
    }
    let mut per_layer = Json::obj();
    for name in PER_LAYER {
        if let Some((_, value, unit)) = out.layers.iter().find(|(n, _, _)| *n == name) {
            per_layer.set(name, metric(finite(*value), unit));
        } else if args.trace {
            return Err(format!("traced run did not measure {name}"));
        }
    }

    let mut result = Json::obj();
    result
        .set("correct", out.correct)
        .set("attempted", out.attempted.max(1))
        .set("failed", out.failed)
        .set(
            "metrics",
            if args.trace {
                per_layer
            } else {
                end_to_end.clone()
            },
        );

    let mut info = out.info;
    info.set("latency_samples", out.latency.samples)
        .set("latency_tail_percentile", out.latency.tail_p)
        .set("cpu_s", procfs::cpu_seconds().unwrap_or(0.0))
        .set("wall_s", started.elapsed().as_secs_f64())
        .set(
            "host_cpus",
            std::thread::available_parallelism().map_or(0, usize::from),
        );
    if args.trace {
        // The traced run still measured the end-to-end numbers (with spans
        // off); they are kept for reference, never as the run's result.
        info.set("end_to_end_untraced_part", end_to_end);
    }
    let mut report = Json::obj();
    report
        .set("workload", args.workload.as_str())
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("smoke", args.smoke)
        .set("result", result.clone())
        .set("info", info);

    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let stem = format!(
        "{}.seed{}.trace{}.{stamp}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let runs = args.out_dir.join("runs");
    // The report and spans are conveniences; the result line is the
    // contract, so a read-only checkout still gets its answer.
    let saved = std::fs::create_dir_all(&runs)
        .and_then(|()| std::fs::write(runs.join(format!("{stem}.json")), report.render() + "\n"));
    match saved {
        Ok(()) => eprintln!("report: {}", runs.join(format!("{stem}.json")).display()),
        Err(e) => eprintln!("report not written: {e}"),
    }
    if args.trace {
        let path = runs.join(format!("{stem}.spans.jsonl"));
        match trace.write_to(&path) {
            Ok(()) => eprintln!("spans: {} ({})", path.display(), trace.spans().len()),
            Err(e) => eprintln!("spans not written: {e}"),
        }
    }

    if let Some(fields) = result.get("metrics").and_then(Json::as_obj) {
        for (name, m) in fields {
            eprintln!(
                "  {name:<32} {:>16.6} {}",
                m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                m.get("unit").and_then(Json::as_str).unwrap_or("")
            );
        }
    }
    if let Some(info) = report.get("info") {
        eprintln!("info: {}", info.render());
    }
    println!("{}", result.render());
    Ok(())
}

fn compare_cmd(argv: &[String]) -> Result<usize, String> {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut side: Option<&mut Vec<PathBuf>> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--a" => side = Some(&mut a),
            "--b" => side = Some(&mut b),
            "--spec" => {
                spec = PathBuf::from(it.next().ok_or("--spec needs a path")?);
            }
            path => side
                .as_mut()
                .ok_or_else(|| format!("{path}: name a side with --a or --b first"))?
                .push(PathBuf::from(path)),
        }
    }
    if a.is_empty() || b.is_empty() {
        return Err("compare needs run reports on both --a and --b".to_string());
    }
    compare::run(&spec, &a, &b)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => compare_cmd(&argv[1..]).map(|regressions| regressions == 0),
        Some("-h" | "--help") | None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        _ => run(&argv).map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_run_args(&args(&[
            "--workload",
            "plan_tables",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("plan_tables", 7, 15.0, true)
        );
        assert!(parse_run_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_run_args(&args(&["--workload", "plan_tables", "--trace", "2"])).is_err());
        assert!(parse_run_args(&args(&["--workload", "plan_tables", "--bogus"])).is_err());
        assert!(parse_run_args(&args(&["--workload", "plan_tables", "--seconds", "0"])).is_err());
    }

    /// `BENCHMARK.json` is the contract the driver checks the output
    /// against; its names, units and workloads must be the ones emitted.
    #[test]
    fn benchmark_json_matches_what_is_emitted() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |section: &str, key: &str| -> Vec<String> {
            spec.get(section)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get(key).and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads", "name"), WORKLOADS);
        assert_eq!(
            names("end_to_end", "name"),
            END_TO_END.map(|(n, _)| n.to_string())
        );
        assert_eq!(
            names("end_to_end", "unit"),
            END_TO_END.map(|(_, u)| u.to_string())
        );
        assert_eq!(names("per_layer", "name"), PER_LAYER);
        let mut keys: Vec<&str> = spec
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }
}
