//! `compare --a <runs…> --b <runs…>`: medians and quartiles per metric and
//! workload for two sets of run reports, judged against the bounds fixed in
//! `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::json::{metrics_of, Json};
use crate::stats::{quartiles, spread_share};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// The spread of A or B exceeds the bound, so a difference of the
    /// bound's size cannot be told from noise — unless every run of B reads
    /// better than every run of A.
    Unresolved,
    /// Fewer than two runs on a side.
    TooFew,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::TooFew => "too few runs",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some((_, med_a, _)), Some((_, med_b, _))) = (quartiles(a), quartiles(b)) else {
        return Verdict::TooFew;
    };
    let noisy = [a, b]
        .iter()
        .any(|v| spread_share(v).is_some_and(|s| s > bound));
    if noisy {
        let b_always_better = b
            .iter()
            .all(|&y| a.iter().all(|&x| worsening(x, y, better) < 0.0));
        return if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(med_a, med_b, better) > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// One metric's definition from `BENCHMARK.json` (`bound` is absent on
/// per-layer metrics).
#[derive(Debug, Clone)]
struct MetricSpec {
    name: String,
    unit: String,
    better: Better,
    bound: Option<f64>,
}

fn load_spec(path: &Path) -> Result<Vec<MetricSpec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = Json::parse(&text)?;
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        for m in spec.get(section).and_then(Json::as_arr).unwrap_or(&[]) {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("");
            out.push(MetricSpec {
                name: field("name").to_string(),
                unit: field("unit").to_string(),
                better: if field("better") == "higher" {
                    Better::Higher
                } else {
                    Better::Lower
                },
                bound: m.get("bound").and_then(Json::as_f64),
            });
        }
    }
    Ok(out)
}

/// workload → metric → values, from run report files (directories are
/// expanded to the `.json` files directly inside them).
fn load_runs(paths: &[PathBuf]) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut files = Vec::new();
    for p in paths {
        if p.is_dir() {
            let entries = std::fs::read_dir(p).map_err(|e| format!("{}: {e}", p.display()))?;
            let mut inside: Vec<PathBuf> = entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|f| f.extension().is_some_and(|x| x == "json"))
                .collect();
            inside.sort();
            files.extend(inside);
        } else {
            files.push(p.clone());
        }
    }
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let report = Json::parse(text.trim()).map_err(|e| format!("{}: {e}", f.display()))?;
        let workload = report
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: not a run report (no \"workload\")", f.display()))?;
        let result = report
            .get("result")
            .ok_or_else(|| format!("{}: not a run report (no \"result\")", f.display()))?;
        let by_metric = out.entry(workload.to_string()).or_default();
        for (name, value) in metrics_of(result) {
            by_metric.entry(name).or_default().push(value);
        }
    }
    Ok(out)
}

fn cell(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, med, q3)) => format!("{med:.5} [{q1:.5}, {q3:.5}] n={}", values.len()),
        None => format!("n={}", values.len()),
    }
}

/// Prints the comparison; returns the number of regressions.
pub fn run(spec_path: &Path, a: &[PathBuf], b: &[PathBuf]) -> Result<usize, String> {
    let spec = load_spec(spec_path)?;
    let runs_a = load_runs(a)?;
    let runs_b = load_runs(b)?;
    let mut regressions = 0;
    for (workload, metrics_a) in &runs_a {
        let Some(metrics_b) = runs_b.get(workload) else {
            println!("{workload}: no runs on side B");
            continue;
        };
        println!("{workload}");
        for m in &spec {
            let (Some(va), Some(vb)) = (metrics_a.get(&m.name), metrics_b.get(&m.name)) else {
                continue;
            };
            let change = match (quartiles(va), quartiles(vb)) {
                (Some((_, ma, _)), Some((_, mb, _))) => {
                    format!("{:+.2}%", 100.0 * (mb - ma) / ma.abs())
                }
                _ => "n/a".to_string(),
            };
            let verdict = match m.bound {
                Some(bound) => {
                    let v = judge(va, vb, m.better, bound);
                    regressions += usize::from(v == Verdict::Regression);
                    format!("bound {:.0}%: {}", bound * 100.0, v.label())
                }
                None => "per-layer, no bound".to_string(),
            };
            println!(
                "  {:<32} {:<6} A {}  B {}  {change}  {verdict}",
                m.name,
                m.unit,
                cell(va),
                cell(vb)
            );
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_bound_is_ok_and_beyond_is_a_regression() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [111.0, 112.0, 110.0, 111.5, 110.5];
        assert_eq!(judge(&a, &a, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(&a, &slower, Better::Lower, 0.10), Verdict::Regression);
        assert_eq!(judge(&a, &slower, Better::Lower, 0.15), Verdict::Ok);
        // The same numbers as a throughput: higher is better, so B improved.
        assert_eq!(judge(&a, &slower, Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&slower, &a, Better::Higher, 0.05),
            Verdict::Regression
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_wins_every_pairing() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        let similar = [85.0, 105.0, 125.0, 95.0, 115.0];
        assert_eq!(
            judge(&noisy, &similar, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        let far_better = [40.0, 50.0, 60.0, 45.0, 55.0];
        assert_eq!(judge(&noisy, &far_better, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&[1.0], &[1.0, 2.0], Better::Lower, 0.1),
            Verdict::TooFew
        );
    }
}
