//! Adaptive probe scheduler: earliest-deadline-first over per-rule urgency.
//!
//! The fixed steady-state sweep (§3 of the paper) spends its probe budget
//! uniformly: a rule modified a millisecond ago waits as long as one that
//! has verified unchanged for an hour. This scheduler keeps the *same
//! global budget* but spends it where the data plane is most likely to be
//! wrong, following CeMon-style cost-aware polling:
//!
//! * every rule carries a **deadline** — `last_probed + interval` where the
//!   interval shrinks from the staleness SLO toward a floor as the rule's
//!   urgency *score* grows;
//! * the score blends recency of modification (exponential decay), churn
//!   heat, and failure history, damped by the per-switch cost (RTT,
//!   backpressure) from [`crate::telemetry::SwitchTelemetry`];
//! * releases are gated by a token bucket so the probe rate never exceeds
//!   the configured budget, burst included;
//! * the staleness SLO is the safety net: scores only ever *shorten*
//!   intervals, so no rule waits longer than `slo_ns` for its next probe
//!   (as long as the budget covers `rules / slo` and the caller polls).
//!
//! The queue is a lazy-deletion binary heap: reschedules push a fresh
//! generation-stamped entry and stale entries are discarded when popped,
//! keeping every operation O(log n) without a decrease-key primitive.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

use crate::telemetry::{DecayCounter, WindowedRatio};

/// Scheduler key for a rule (the raw `RuleId` value; kept as `u64` so this
/// crate stays dependency-free).
pub type RuleKey = u64;

/// Adaptive scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Global probe budget, probes per second (default 500, §3's rate).
    pub budget_pps: f64,
    /// Token-bucket burst: probes that may be released back-to-back after
    /// an idle stretch (default 4).
    pub burst: f64,
    /// Staleness SLO: no rule goes unprobed longer than this, ns
    /// (default 2 s).
    pub slo_ns: u64,
    /// Floor interval for the hottest rules, ns (default 50 ms).
    pub min_interval_ns: u64,
    /// Half-life of churn heat and modification recency, ns (default 1 s).
    pub half_life_ns: u64,
    /// Score weight of recency-of-modification.
    pub w_modified: f64,
    /// Score weight of churn heat (repeated modifications).
    pub w_churn: f64,
    /// Score weight of failure history.
    pub w_fail: f64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            budget_pps: 500.0,
            burst: 4.0,
            slo_ns: 2_000_000_000,
            min_interval_ns: 50_000_000,
            half_life_ns: 1_000_000_000,
            w_modified: 8.0,
            w_churn: 2.0,
            w_fail: 4.0,
        }
    }
}

/// Scheduler counters (monotone, for telemetry export).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedStats {
    /// Probes released by [`AdaptiveScheduler::next_due`].
    pub released: u64,
    /// Calls gated by an empty token bucket.
    pub throttled: u64,
    /// Releases deferred because the switch was backpressured and the rule
    /// was not yet SLO-critical.
    pub deferred_backpressure: u64,
    /// Releases forced through backpressure because the SLO was at stake.
    pub slo_forced: u64,
}

#[derive(Debug)]
struct RuleState {
    last_probed: u64,
    last_modified: Option<u64>,
    heat: DecayCounter,
    verdicts: WindowedRatio,
    consec_fails: u32,
    deadline: u64,
    gen: u64,
}

/// The adaptive priority scheduler. See the module docs for the model.
#[derive(Debug)]
pub struct AdaptiveScheduler {
    cfg: SchedConfig,
    rules: HashMap<RuleKey, RuleState>,
    /// Min-heap of `(deadline, gen, key)`; entries whose `gen` no longer
    /// matches the rule's are stale and skipped on pop.
    heap: BinaryHeap<Reverse<(u64, u64, RuleKey)>>,
    tokens: f64,
    tokens_at: u64,
    switch_cost: f64,
    backpressured: bool,
    next_gen: u64,
    stats: SchedStats,
}

/// How many backpressure-deferred entries one `next_due` call will skip
/// past while looking for an SLO-critical rule.
const BACKPRESSURE_SCAN: usize = 8;

impl AdaptiveScheduler {
    /// Creates an empty scheduler with a full token bucket.
    pub fn new(cfg: SchedConfig) -> AdaptiveScheduler {
        let tokens = cfg.burst.max(1.0);
        AdaptiveScheduler {
            cfg,
            rules: HashMap::new(),
            heap: BinaryHeap::new(),
            tokens,
            tokens_at: 0,
            switch_cost: 1.0,
            backpressured: false,
            next_gen: 0,
            stats: SchedStats::default(),
        }
    }

    /// Scheduler counters.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Number of rules under management.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether no rules are under management.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Reconciles the rule set with `keys` (the rules the current steady
    /// plans cover). Rules already known keep their telemetry and
    /// deadline across plan refreshes; new rules are due immediately
    /// (freshly planned rules are exactly the recently-modified ones);
    /// rules that vanished are dropped.
    pub fn sync(&mut self, keys: &[RuleKey], now: u64) {
        let keep: std::collections::HashSet<RuleKey> = keys.iter().copied().collect();
        self.rules.retain(|k, _| keep.contains(k));
        for &key in keys {
            if let Entry::Vacant(slot) = self.rules.entry(key) {
                let gen = self.next_gen;
                self.next_gen += 1;
                slot.insert(RuleState {
                    last_probed: now,
                    last_modified: None,
                    heat: DecayCounter::new(self.cfg.half_life_ns),
                    verdicts: WindowedRatio::new(8),
                    consec_fails: 0,
                    deadline: now,
                    gen,
                });
                self.heap.push(Reverse((now, gen, key)));
            }
        }
    }

    /// Whether `key` is under management.
    pub fn contains(&self, key: RuleKey) -> bool {
        self.rules.contains_key(&key)
    }

    /// Updates the switch cost factor (≥ 1.0) and backpressure flag; see
    /// [`crate::telemetry::SwitchTelemetry::cost`]. While backpressured,
    /// only SLO-critical probes are released.
    pub fn set_switch_cost(&mut self, cost: f64, backpressured: bool) {
        self.switch_cost = cost.max(1.0);
        self.backpressured = backpressured;
    }

    /// Records that `key` was modified by a flow_mod at `now`: bumps churn
    /// heat and pulls the rule's deadline forward to the floor interval.
    pub fn note_modified(&mut self, key: RuleKey, now: u64) {
        let min_iv = self.cfg.min_interval_ns;
        let Some(st) = self.rules.get_mut(&key) else {
            return;
        };
        st.heat.bump(now);
        st.last_modified = Some(now);
        let want = now + min_iv;
        if want < st.deadline {
            st.deadline = want;
            st.gen = self.next_gen;
            self.next_gen += 1;
            self.heap.push(Reverse((st.deadline, st.gen, key)));
        }
    }

    /// Records a probe verdict for `key`. Failures pull the next probe
    /// forward so recovery is observed quickly.
    pub fn note_verdict(&mut self, key: RuleKey, now: u64, ok: bool) {
        let min_iv = self.cfg.min_interval_ns;
        let Some(st) = self.rules.get_mut(&key) else {
            return;
        };
        st.verdicts.record(ok);
        if ok {
            st.consec_fails = 0;
        } else {
            st.consec_fails = st.consec_fails.saturating_add(1);
            let want = now + min_iv;
            if want < st.deadline {
                st.deadline = want;
                st.gen = self.next_gen;
                self.next_gen += 1;
                self.heap.push(Reverse((st.deadline, st.gen, key)));
            }
        }
    }

    /// Urgency score: higher ⇒ probe more often. Damped by switch cost so
    /// congested/slow switches relax toward SLO-paced coverage.
    fn score(&self, st: &mut RuleState, now: u64) -> f64 {
        let mut score = 0.0;
        if let Some(tm) = st.last_modified {
            let age = now.saturating_sub(tm) as f64 / self.cfg.half_life_ns as f64;
            score += self.cfg.w_modified * (-age).exp2();
        }
        score += self.cfg.w_churn * st.heat.get(now);
        let failing = 1.0 - st.verdicts.ratio();
        score += self.cfg.w_fail * (failing + f64::from(st.consec_fails.min(3)));
        score / self.switch_cost
    }

    /// Probe interval for the rule's current score, clamped to
    /// `[min_interval, slo]`.
    fn interval(&self, st: &mut RuleState, now: u64) -> u64 {
        let score = self.score(st, now);
        let iv = self.cfg.slo_ns as f64 / (1.0 + score);
        (iv as u64).clamp(self.cfg.min_interval_ns, self.cfg.slo_ns)
    }

    fn refill(&mut self, now: u64) {
        if now > self.tokens_at {
            let dt = (now - self.tokens_at) as f64 / 1e9;
            self.tokens = (self.tokens + dt * self.cfg.budget_pps).min(self.cfg.burst.max(1.0));
        }
        self.tokens_at = self.tokens_at.max(now);
    }

    /// Picks the most overdue rule to probe, or `None` when nothing is due
    /// or the budget is exhausted. A returned rule is immediately
    /// rescheduled at `now + interval`, so callers just inject the probe —
    /// no separate acknowledgement call.
    pub fn next_due(&mut self, now: u64) -> Option<RuleKey> {
        self.refill(now);
        if self.tokens < 1.0 {
            self.stats.throttled += 1;
            return None;
        }
        let mut deferred = 0usize;
        while let Some(&Reverse((deadline, gen, key))) = self.heap.peek() {
            match self.rules.get(&key) {
                Some(st) if st.gen == gen => {
                    if deadline > now {
                        return None; // nothing due yet
                    }
                }
                // Stale entry (rescheduled or removed rule): discard.
                _ => {
                    self.heap.pop();
                    continue;
                }
            }
            self.heap.pop();
            // Under backpressure, hold discretionary probes back and let the
            // write buffer drain — unless skipping would break the SLO.
            let slo_critical = {
                let st = &self.rules[&key];
                now >= st.last_probed.saturating_add(self.cfg.slo_ns)
            };
            if self.backpressured && !slo_critical {
                self.stats.deferred_backpressure += 1;
                let st = self.rules.get_mut(&key).unwrap();
                st.deadline = now + self.cfg.min_interval_ns;
                st.gen = self.next_gen;
                self.next_gen += 1;
                self.heap.push(Reverse((st.deadline, st.gen, key)));
                deferred += 1;
                if deferred >= BACKPRESSURE_SCAN {
                    return None;
                }
                continue;
            }
            if self.backpressured {
                self.stats.slo_forced += 1;
            }
            self.tokens -= 1.0;
            self.stats.released += 1;
            let mut st = self.rules.remove(&key).unwrap();
            st.last_probed = now;
            st.deadline = now + self.interval(&mut st, now);
            st.gen = self.next_gen;
            self.next_gen += 1;
            self.heap.push(Reverse((st.deadline, st.gen, key)));
            self.rules.insert(key, st);
            return Some(key);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;
    const S: u64 = 1_000_000_000;

    fn sched(budget: f64) -> AdaptiveScheduler {
        AdaptiveScheduler::new(SchedConfig {
            budget_pps: budget,
            ..SchedConfig::default()
        })
    }

    /// Drains all rules due at `now` (respecting the budget).
    fn drain(s: &mut AdaptiveScheduler, now: u64) -> Vec<RuleKey> {
        let mut out = Vec::new();
        while let Some(k) = s.next_due(now) {
            out.push(k);
        }
        out
    }

    #[test]
    fn new_rules_are_due_immediately_and_budget_gates_burst() {
        let mut s = sched(500.0);
        s.sync(&[1, 2, 3, 4, 5, 6, 7, 8], 0);
        // Burst is 4: only 4 release at t=0 even though all 8 are due.
        assert_eq!(drain(&mut s, 0).len(), 4);
        // 10 ms later the bucket has refilled 5 tokens; the rest release.
        assert_eq!(drain(&mut s, 10 * MS).len(), 4);
    }

    #[test]
    fn cold_rules_cycle_at_the_slo() {
        let mut s = sched(500.0);
        s.sync(&[1], 0);
        assert_eq!(s.next_due(0), Some(1));
        // Not due again until the SLO elapses (cold rule, score ≈ 0).
        assert_eq!(s.next_due(S), None);
        assert_eq!(s.next_due(2 * S), Some(1));
    }

    #[test]
    fn modified_rule_jumps_the_queue() {
        let mut s = sched(500.0);
        let keys: Vec<RuleKey> = (0..100).collect();
        s.sync(&keys, 0);
        let mut t = 0;
        while s.next_due(t).is_some() || t < S {
            t += 2 * MS;
            if t >= S {
                break;
            }
        }
        // Rule 42 is modified at t; it must be the next release once its
        // floor interval elapses, ahead of every cold rule.
        s.note_modified(42, t);
        let due = s.next_due(t + 51 * MS);
        assert_eq!(due, Some(42));
        // And because it is now hot, its next interval is far below the SLO.
        let again = s.rules[&42].deadline - (t + 51 * MS);
        assert!(again < S, "hot rule rescheduled at SLO pace: {again}");
    }

    #[test]
    fn failing_rule_is_reprobed_quickly() {
        let mut s = sched(500.0);
        s.sync(&[7], 0);
        assert_eq!(s.next_due(0), Some(7));
        s.note_verdict(7, 10 * MS, false);
        // Deadline pulled to the floor interval, not the SLO.
        assert_eq!(s.next_due(10 * MS + 51 * MS), Some(7));
    }

    #[test]
    fn backpressure_defers_until_slo_critical() {
        let mut s = sched(500.0);
        s.sync(&[1], 0);
        assert_eq!(s.next_due(0), Some(1));
        // Make the rule hot so its deadline lands well before the SLO.
        s.note_modified(1, 10 * MS);
        s.set_switch_cost(5.0, true);
        // Due (floor interval elapsed), but backpressured and nowhere near
        // SLO-critical: deferred.
        assert_eq!(s.next_due(70 * MS), None);
        assert!(s.stats().deferred_backpressure > 0);
        // Once the SLO is at stake the probe is forced through.
        assert_eq!(s.next_due(2 * S + MS), Some(1));
        assert!(s.stats().slo_forced > 0);
    }

    #[test]
    fn sync_preserves_state_and_drops_vanished_rules() {
        let mut s = sched(500.0);
        s.sync(&[1, 2], 0);
        drain(&mut s, 0);
        s.note_modified(1, 10 * MS);
        // Refresh epoch: rule 2 vanished, rule 3 is new.
        s.sync(&[1, 3], 20 * MS);
        assert!(s.contains(1) && s.contains(3) && !s.contains(2));
        // Rule 1 kept its modification heat: due at the floor, not at sync
        // time; rule 3 (new) is due immediately.
        assert_eq!(s.next_due(20 * MS), Some(3));
        assert_eq!(s.next_due(10 * MS + 51 * MS), Some(1));
        // Rule 2's stale heap entries never resurface.
        let mut seen = Vec::new();
        for t in 0..200 {
            if let Some(k) = s.next_due(t * 50 * MS) {
                seen.push(k);
            }
        }
        assert!(!seen.contains(&2));
    }

    #[test]
    fn budget_bounds_release_rate() {
        let mut s = sched(100.0); // 100 pps
        let keys: Vec<RuleKey> = (0..1000).collect();
        s.sync(&keys, 0);
        // Poll aggressively for one second: at most burst + budget releases.
        let mut released = 0;
        for t in 0..10_000 {
            if s.next_due(t * 100_000).is_some() {
                released += 1;
            }
        }
        assert!(released <= 104, "budget exceeded: {released}");
        assert!(released >= 95, "budget underused: {released}");
    }
}
