//! Adaptive probe scheduler: earliest-deadline-first over per-rule urgency.
//!
//! The fixed steady-state sweep (§3 of the paper) spends its probe budget
//! uniformly: a rule modified a millisecond ago waits as long as one that
//! has verified unchanged for an hour. This scheduler spends the *same*
//! budget where the data plane is most likely to be wrong, following
//! CeMon-style cost-aware polling:
//!
//! * every rule carries a **deadline** — `last_probed + interval` where the
//!   interval shrinks from the staleness SLO toward a floor as the rule's
//!   urgency *score* grows;
//! * the score blends recency of modification (exponential decay), churn
//!   heat, and failure history, damped by the per-switch cost (RTT,
//!   backpressure) from [`crate::telemetry::SwitchTelemetry`];
//! * the staleness SLO is the safety net: scores only ever *shorten*
//!   intervals, so a rule is due again at most `slo_ns` after its last
//!   release, and past that it waits only behind rules due no later than
//!   it, each released at most once before it.
//!
//! The budget is the caller's: at most one [`AdaptiveScheduler::next_due`]
//! release per injection slot, and the scheduler only picks which rule the
//! slot goes to. Its one product caller, `monocle::steady::SteadyMonitor`, opens one
//! slot per probe interval; the pacing and the SLO are property-tested
//! there.
//!
//! The queue is a lazy-deletion binary heap: reschedules push a fresh
//! generation-stamped entry and stale entries are discarded when popped,
//! keeping every operation O(log n) without a decrease-key primitive.
//!
//! # The fixed sweep as a configuration
//!
//! With `slo_ns = 0` and `min_interval_ns = 0` every interval is zero: a
//! released rule is due again at once, behind the rules released before it,
//! and every rule is always SLO-critical, so neither scores nor backpressure
//! reorder anything. Releases then go by (last release, insertion order) —
//! a round-robin over the rules in the order they joined, rules that leave
//! dropping out and rules that join queuing at the back. That is the
//! paper's fixed sweep (`tests/prop_sched.rs` checks it against a queue).

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
    /// Staleness SLO: a rule is due again at most this long after its last
    /// release, ns (default 2 s).
    pub slo_ns: u64,
    /// Floor interval for the hottest rules, ns (default 50 ms).
    pub min_interval_ns: u64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            slo_ns: 2_000_000_000,
            min_interval_ns: 50_000_000,
        }
    }
}

/// Half-life of churn heat and modification recency, ns.
const HALF_LIFE_NS: u64 = 1_000_000_000;
/// Score weight of recency-of-modification.
const W_MODIFIED: f64 = 8.0;
/// Score weight of churn heat (repeated modifications). Zeroed, the
/// `scheduler` bench (400 rules, 30 s) reads `modify_churn` adaptive p95
/// 494→902, 636→730 and 868→888 ms on seeds 1–3, so the term stays; it
/// reads 862→756 and 840→752 ms on seeds 4–5.
const W_CHURN: f64 = 2.0;
/// Score weight of failure history. Zeroed, the same bench reads
/// `update_storm` adaptive p95 887→1153 ms on seed 1 and 781→1165 ms on
/// seed 5 (2–4 within 10 ms), so the term stays.
const W_FAIL: f64 = 4.0;

/// Scheduler counters (monotone, for telemetry export).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedStats {
    /// Probes released by [`AdaptiveScheduler::next_due`].
    pub released: u64,
    /// Always 0: the scheduler has no budget gate of its own. Kept only
    /// because the benchmark's `detect_breakage` report reads it.
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
    switch_cost: f64,
    backpressured: bool,
    next_gen: u64,
    stats: SchedStats,
}

/// How many backpressure-deferred entries one `next_due` call will skip
/// past while looking for an SLO-critical rule.
const BACKPRESSURE_SCAN: usize = 8;

impl AdaptiveScheduler {
    /// Creates an empty scheduler.
    pub fn new(cfg: SchedConfig) -> AdaptiveScheduler {
        AdaptiveScheduler {
            cfg,
            rules: HashMap::new(),
            heap: BinaryHeap::new(),
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
    /// plans cover): rules that vanished are dropped ([`Self::remove`]) and
    /// new ones join in `keys` order ([`Self::insert`]).
    pub fn sync(&mut self, keys: &[RuleKey], now: u64) {
        let keep: std::collections::HashSet<RuleKey> = keys.iter().copied().collect();
        self.rules.retain(|k, _| keep.contains(k));
        for &key in keys {
            self.insert(key, now);
        }
    }

    /// Puts `key` under management, due at `now` behind every rule already
    /// due by then (a freshly planned rule is exactly a recently-modified
    /// one). A rule already known keeps its telemetry and deadline.
    pub fn insert(&mut self, key: RuleKey, now: u64) {
        if let Entry::Vacant(slot) = self.rules.entry(key) {
            let gen = self.next_gen;
            self.next_gen += 1;
            slot.insert(RuleState {
                last_probed: now,
                last_modified: None,
                heat: DecayCounter::new(HALF_LIFE_NS),
                verdicts: WindowedRatio::new(8),
                consec_fails: 0,
                deadline: now,
                gen,
            });
            self.heap.push(Reverse((now, gen, key)));
        }
    }

    /// Drops `key` and its state; its queued entries go stale.
    pub fn remove(&mut self, key: RuleKey) {
        self.rules.remove(&key);
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
            let age = now.saturating_sub(tm) as f64 / HALF_LIFE_NS as f64;
            score += W_MODIFIED * (-age).exp2();
        }
        score += W_CHURN * st.heat.get(now);
        let failing = 1.0 - st.verdicts.ratio();
        score += W_FAIL * (failing + f64::from(st.consec_fails.min(3)));
        score / self.switch_cost
    }

    /// Probe interval for the rule's current score, clamped to
    /// `[min_interval, slo]`.
    fn interval(&self, st: &mut RuleState, now: u64) -> u64 {
        let score = self.score(st, now);
        let iv = self.cfg.slo_ns as f64 / (1.0 + score);
        (iv as u64).clamp(self.cfg.min_interval_ns, self.cfg.slo_ns)
    }

    /// Picks the most overdue rule to probe, or `None` when nothing is due.
    /// Every call may release a rule, so the caller paces the calls: it
    /// stops calling once a slot has released one, and its slots are the
    /// release-rate limit. A returned rule is immediately rescheduled at
    /// `now + interval`, so callers just inject the probe — no separate
    /// acknowledgement call.
    pub fn next_due(&mut self, now: u64) -> Option<RuleKey> {
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

    fn sched() -> AdaptiveScheduler {
        AdaptiveScheduler::new(SchedConfig::default())
    }

    /// Drains all rules due at `now`.
    fn drain(s: &mut AdaptiveScheduler, now: u64) -> Vec<RuleKey> {
        let mut out = Vec::new();
        while let Some(k) = s.next_due(now) {
            out.push(k);
        }
        out
    }

    #[test]
    fn cold_rules_cycle_at_the_slo() {
        let mut s = sched();
        s.sync(&[1], 0);
        assert_eq!(s.next_due(0), Some(1));
        // Not due again until the SLO elapses (cold rule, score ≈ 0).
        assert_eq!(s.next_due(S), None);
        assert_eq!(s.next_due(2 * S), Some(1));
    }

    #[test]
    fn modified_rule_jumps_the_queue() {
        let mut s = sched();
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
        let mut s = sched();
        s.sync(&[7], 0);
        assert_eq!(s.next_due(0), Some(7));
        s.note_verdict(7, 10 * MS, false);
        // Deadline pulled to the floor interval, not the SLO.
        assert_eq!(s.next_due(10 * MS + 51 * MS), Some(7));
    }

    #[test]
    fn backpressure_defers_until_slo_critical() {
        let mut s = sched();
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
        let mut s = sched();
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
}
