//! Streaming estimators: the telemetry primitives the scheduler feeds on.
//!
//! Everything here is O(1) per update and allocation-free after
//! construction, because updates happen on the transport hot path (per
//! flow_mod ack, per probe verdict). Three primitives cover the signals
//! named in the roadmap:
//!
//! * [`Ewma`] — exponentially weighted moving average for latencies and
//!   rates (ack RTT, echo RTT);
//! * [`DecayCounter`] — an exponentially decayed event counter whose value
//!   is a "heat" score: recent events dominate, old ones fade with a
//!   configurable half-life (flow_mod churn per rule, backpressure pauses);
//! * `WindowedRatio` — success ratio over the last N boolean outcomes
//!   (probe verdicts per rule; private to the scheduler, its one user).
//!
//! [`SwitchTelemetry`] bundles the per-switch estimators and condenses them
//! into a single scalar *cost* the scheduler uses to stretch probe
//! intervals on slow or congested switches.

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
/// Each [`DecayCounter::bump`] adds 1; the accumulated value halves every
/// `half_life_ns`. Querying decays lazily from the last touch, so idle
/// counters cost nothing.
#[derive(Debug, Clone)]
pub struct DecayCounter {
    half_life_ns: u64,
    value: f64,
    last_ns: u64,
}

impl DecayCounter {
    /// Creates a counter with the given half-life.
    pub fn new(half_life_ns: u64) -> DecayCounter {
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
    pub fn bump(&mut self, now: u64) {
        self.add(now, 1.0);
    }

    /// Records `weight` events at time `now`.
    pub fn add(&mut self, now: u64, weight: f64) {
        self.decay_to(now);
        self.value += weight;
    }

    /// Decayed count as of `now`.
    pub fn get(&mut self, now: u64) -> f64 {
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

/// RTT above which a switch starts looking expensive (5 ms).
const RTT_COST_SCALE_NS: f64 = 5_000_000.0;

/// Per-switch rolling telemetry, fed from the transport layer.
#[derive(Debug, Clone)]
pub struct SwitchTelemetry {
    /// Controller→switch flow_mod ack RTT (barrier/confirm), ns.
    pub ack_rtt_ns: Ewma,
    /// Echo-request liveness RTT, ns.
    pub echo_rtt_ns: Ewma,
    /// Backpressure-pause heat (write buffer over high water).
    pub backpressure: DecayCounter,
}

impl SwitchTelemetry {
    /// Creates per-switch telemetry with sensible half-lives: RTT EWMAs at
    /// α = 0.2, backpressure heat halving every `half_life_ns`.
    pub fn new(half_life_ns: u64) -> SwitchTelemetry {
        SwitchTelemetry {
            ack_rtt_ns: Ewma::new(0.2),
            echo_rtt_ns: Ewma::new(0.2),
            backpressure: DecayCounter::new(half_life_ns),
        }
    }

    /// Condensed switch cost ≥ 1.0: how much to stretch non-critical probe
    /// intervals on this switch. RTT contributes linearly above 5 ms;
    /// backpressure heat adds one unit per recent pause.
    pub fn cost(&mut self, now: u64) -> f64 {
        let rtt = self.ack_rtt_ns.get().max(self.echo_rtt_ns.get());
        1.0 + rtt / RTT_COST_SCALE_NS + self.backpressure.get(now)
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

    #[test]
    fn switch_cost_grows_with_rtt_and_backpressure() {
        let mut t = SwitchTelemetry::new(1_000_000_000);
        let base = t.cost(0);
        assert!((base - 1.0).abs() < 1e-9);
        t.ack_rtt_ns.update(10_000_000.0); // 10 ms
        assert!(t.cost(0) > 2.9);
        t.backpressure.bump(0);
        assert!(t.cost(0) > 3.9);
    }
}
