//! Order statistics: medians, the tail percentile a sample can support, and
//! the quartiles the driver computes.

/// Candidate tail percentiles in permille, highest first (integers, so
/// "exactly ten beyond" is not lost to rounding).
const TAILS_PERMILLE: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest percentile with at least ten samples beyond it (the
/// choosing-metrics rule); the median when the sample supports no tail.
pub fn tail_percentile(samples: usize) -> f64 {
    TAILS_PERMILLE
        .into_iter()
        .find(|p| samples * (1000 - p) >= 10 * 1000)
        .map_or(50.0, |p| p as f64 / 10.0)
}

/// Percentile `p` (0..=100) of an ascending slice, linearly interpolated
/// so the value keeps all its digits. Empty input reads as NaN.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// A latency sample summarised the way every workload reports it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    /// Which percentile `tail` is.
    pub tail_p: f64,
    pub tail: f64,
}

pub fn summarize(values: Vec<f64>) -> Summary {
    let v = sorted(values);
    let tail_p = tail_percentile(v.len());
    Summary {
        samples: v.len(),
        p50: percentile(&v, 50.0),
        tail_p,
        tail: percentile(&v, tail_p),
    }
}

/// Readings of one quantity taken in several slices of a run, reduced to the
/// one the program would give on a quiet host.
///
/// The sandbox host slows the whole VM down in bursts: a fixed spin loop reads
/// 100 ms when quiet and 100–150 ms for 0.5–5 s at a time, a third to half of
/// the time, so the noise is one-sided and a median over a run moves with how
/// much of the run the bursts happened to cover. Each timed quantity is
/// therefore taken in slices spread over the run. The same work repeated
/// (set-ups, cold passes, replays of one churn step) reads as its minimum:
/// the host can only add to it. Slices of a stream, whose work differs a
/// little from slice to slice, read as their better quartile: the lower one
/// for times, the upper one for rates.
pub fn quiet_min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// `quiet_min` of each item over the rounds that replayed it.
pub fn quiet_each(rounds: &[Vec<f64>]) -> Vec<f64> {
    let items = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..items)
        .map(|i| quiet_min(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

pub fn quiet_time(slices: &[f64]) -> f64 {
    percentile(&sorted(slices.to_vec()), 25.0)
}

pub fn quiet_rate(slices: &[f64]) -> f64 {
    percentile(&sorted(slices.to_vec()), 75.0)
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method), which is what the driver applies to ten runs.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values.to_vec());
    let m = v.len();
    if m < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile range as a share of the median (the driver's spread).
pub fn spread_share(values: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn quiet_readings_take_the_better_side() {
        assert_eq!(quiet_min(&[3.0, 1.0, 2.0]), 1.0);
        assert!(quiet_min(&[]).is_nan());
        assert_eq!(
            quiet_each(&[vec![3.0, 1.0], vec![2.0, 5.0]]),
            vec![2.0, 1.0]
        );
        let v = [5.0, 1.0, 2.0, 4.0, 3.0];
        assert_eq!(quiet_time(&v), 2.0);
        assert_eq!(quiet_rate(&v), 4.0);
        assert_eq!(quiet_time(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(spread_share(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
