//! Streaming estimators, O(1) per update and allocation-free after
//! construction:
//!
//! * [`Ewma`] — exponentially weighted moving average; `monocle_net` keeps
//!   one per switch session for the FlowMod→confirmation latency
//!   (`SessionStats::ack_rtt_ewma_ns`);
//! * `DecayCounter` — an exponentially decayed event counter ("heat"):
//!   recent events dominate, old ones fade with a half-life (flow_mod churn
//!   per rule);
//! * `WindowedRatio` — success ratio over the last N boolean outcomes
//!   (probe verdicts per rule).
//!
//! The last two are the scheduler's and private to the crate.

/// Exponentially weighted moving average.
///
/// `alpha` is the weight of a new sample (0 < alpha ≤ 1). The first sample
/// initializes the average directly so the estimate is never biased toward
/// zero.
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    value: f64,
    samples: u64,
}

impl Ewma {
    /// Creates an EWMA with the given new-sample weight.
    pub fn new(alpha: f64) -> Ewma {
        Ewma {
            alpha,
            value: 0.0,
            samples: 0,
        }
    }

    /// Folds in one sample.
    pub fn update(&mut self, sample: f64) {
        if self.samples == 0 {
            self.value = sample;
        } else {
            self.value += self.alpha * (sample - self.value);
        }
        self.samples += 1;
    }

    /// Current estimate (0.0 before the first sample).
    pub fn get(&self) -> f64 {
        self.value
    }

    /// Number of samples folded in so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// Exponentially decayed event counter ("heat").
///
/// Each `bump` adds 1; the accumulated value halves every
/// `half_life_ns`. Querying decays lazily from the last touch, so idle
/// counters cost nothing.
#[derive(Debug, Clone)]
pub(crate) struct DecayCounter {
    half_life_ns: u64,
    value: f64,
    last_ns: u64,
}

impl DecayCounter {
    /// Creates a counter with the given half-life.
    pub(crate) fn new(half_life_ns: u64) -> DecayCounter {
        DecayCounter {
            half_life_ns: half_life_ns.max(1),
            value: 0.0,
            last_ns: 0,
        }
    }

    fn decay_to(&mut self, now: u64) {
        if now > self.last_ns && self.value > 0.0 {
            let dt = (now - self.last_ns) as f64 / self.half_life_ns as f64;
            // 2^-dt; exp2 keeps this a single libm call.
            self.value *= (-dt).exp2();
            if self.value < 1e-9 {
                self.value = 0.0;
            }
        }
        self.last_ns = self.last_ns.max(now);
    }

    /// Records one event at time `now` (monotone ns).
    pub(crate) fn bump(&mut self, now: u64) {
        self.decay_to(now);
        self.value += 1.0;
    }

    /// Decayed count as of `now`.
    pub(crate) fn get(&mut self, now: u64) -> f64 {
        self.decay_to(now);
        self.value
    }
}

/// Success ratio over a fixed-size ring of boolean outcomes.
#[derive(Debug, Clone)]
pub(crate) struct WindowedRatio {
    ring: Vec<bool>,
    len: usize,
    head: usize,
    successes: usize,
}

impl WindowedRatio {
    /// Creates a window over the last `capacity` outcomes.
    pub(crate) fn new(capacity: usize) -> WindowedRatio {
        WindowedRatio {
            ring: vec![false; capacity.max(1)],
            len: 0,
            head: 0,
            successes: 0,
        }
    }

    /// Records one outcome.
    pub(crate) fn record(&mut self, ok: bool) {
        if self.len == self.ring.len() {
            // Evict the oldest outcome (the slot we are about to overwrite).
            if self.ring[self.head] {
                self.successes -= 1;
            }
        } else {
            self.len += 1;
        }
        self.ring[self.head] = ok;
        if ok {
            self.successes += 1;
        }
        self.head = (self.head + 1) % self.ring.len();
    }

    /// Fraction of successes in the window; 1.0 while empty (innocent until
    /// proven failing — an empty history must not look urgent).
    pub(crate) fn ratio(&self) -> f64 {
        if self.len == 0 {
            1.0
        } else {
            self.successes as f64 / self.len as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_first_sample_initializes() {
        let mut e = Ewma::new(0.1);
        assert_eq!(e.get(), 0.0);
        e.update(100.0);
        assert_eq!(e.get(), 100.0);
        e.update(0.0);
        assert!((e.get() - 90.0).abs() < 1e-9);
        assert_eq!(e.samples(), 2);
    }

    #[test]
    fn decay_counter_halves_per_half_life() {
        let mut c = DecayCounter::new(1_000);
        c.bump(0);
        c.bump(0);
        assert!((c.get(0) - 2.0).abs() < 1e-9);
        assert!((c.get(1_000) - 1.0).abs() < 1e-9);
        assert!((c.get(2_000) - 0.5).abs() < 1e-9);
        // Fully idle counters collapse to zero eventually.
        assert_eq!(c.get(100_000), 0.0);
    }

    #[test]
    fn decay_counter_time_never_goes_backwards() {
        let mut c = DecayCounter::new(1_000);
        c.bump(5_000);
        let v = c.get(5_000);
        // A stale timestamp must not resurrect decayed mass.
        assert_eq!(c.get(1_000), v);
    }

    #[test]
    fn windowed_ratio_evicts_oldest() {
        let mut w = WindowedRatio::new(4);
        assert_eq!(w.ratio(), 1.0);
        for ok in [true, true, false, false] {
            w.record(ok);
        }
        assert!((w.ratio() - 0.5).abs() < 1e-9);
        // Two more successes evict the two initial trues: still 0.5.
        w.record(true);
        w.record(true);
        assert!((w.ratio() - 0.5).abs() < 1e-9);
        // Two more: the two falses leave the window.
        w.record(true);
        w.record(true);
        assert!((w.ratio() - 1.0).abs() < 1e-9);
        assert_eq!(w.len, 4);
    }
}
