//! Steady-state monitoring (§3, evaluated in §8.1.1 / Fig. 4).
//!
//! The monitor cycles through all monitorable rules of one switch at a
//! configured probe rate, tracks outstanding probes, retries within the
//! detection window and reports per-rule failures. The Fig. 4 parameters
//! (500 probes/s, 150 ms timeout, up to 3 resends) are the defaults.
//!
//! This is a pure, time-driven state machine: the harness feeds it ticks
//! and classified probe verdicts and executes the actions it returns.
//!
//! # One scheduler, two configurations
//!
//! A [`monocle_sched::AdaptiveScheduler`] picks which rule each injection
//! slot goes to. With [`SteadyConfig::adaptive`] unset it runs its
//! round-robin configuration (`slo_ns = 0`, `min_interval_ns = 0`: every
//! rule always due, released in the order it last was): the paper's fixed
//! sweep, in the order the rules joined it. With a [`SchedConfig`] set,
//! recently-modified, high-churn and failing rules are probed more often
//! while every rule still meets the staleness SLO. The injection *pacing*
//! is the same either way (one probe per `probe_interval`, and the
//! scheduler's token bucket is derived from the same interval), so the
//! configuration redistributes the budget without raising it.

use crate::plan::{take_seq, ProbePlan, Verdict};
use monocle_openflow::table::{IdHashMap, IdHashSet};
use monocle_openflow::RuleId;
use monocle_sched::{AdaptiveScheduler, SchedConfig, SchedStats};
use std::collections::{BTreeMap, BTreeSet};

/// Steady-state monitor configuration.
#[derive(Debug, Clone)]
pub struct SteadyConfig {
    /// Time between consecutive probe injections, ns (default 2 ms ⇒ 500/s).
    pub probe_interval: u64,
    /// Detection window from the first injection, ns (default 150 ms).
    pub timeout: u64,
    /// Maximum number of resends within the window (default 3).
    pub max_retries: u32,
    /// The scheduler's configuration; `None` (default) is its round-robin
    /// configuration, the paper's fixed sweep. Either way the probe budget
    /// is overridden to `1e9 / probe_interval`, so both spend the same.
    pub adaptive: Option<SchedConfig>,
}

impl Default for SteadyConfig {
    fn default() -> Self {
        SteadyConfig {
            probe_interval: 2_000_000,
            timeout: 150_000_000,
            max_retries: 3,
            adaptive: None,
        }
    }
}

/// Actions the steady monitor asks the harness to perform.
#[derive(Debug, Clone, PartialEq)]
pub enum SteadyAction {
    /// Inject the probe of `rule_id`'s plan with this sequence number.
    Inject {
        /// Probe sequence number (echoed back in the verdict).
        seq: u32,
        /// The probed rule: its plan is [`SteadyMonitor::plans`]' entry.
        rule_id: RuleId,
    },
    /// The rule failed verification (missing or misbehaving in the data
    /// plane).
    RuleFailed {
        /// The failed rule.
        rule_id: RuleId,
        /// Time of detection.
        at: u64,
    },
    /// A previously failed rule now verifies again.
    RuleRecovered {
        /// The recovered rule.
        rule_id: RuleId,
    },
}

#[derive(Debug, Clone)]
struct Outstanding {
    rule_id: RuleId,
    first_sent: u64,
    last_sent: u64,
    attempts: u32,
}

/// The per-switch steady-state monitor.
#[derive(Debug)]
pub struct SteadyMonitor {
    cfg: SteadyConfig,
    plans: IdHashMap<RuleId, ProbePlan>,
    next_inject_at: u64,
    outstanding: BTreeMap<u32, Outstanding>,
    failed: BTreeSet<RuleId>,
    /// The next probe's sequence number, below
    /// [`crate::plan::STEADY_SEQ_BIT`] ([`take_seq`]); the proxy sets the
    /// bit on the wire.
    next_seq: u32,
    /// Holds exactly the planned rules; its state survives plan refreshes.
    sched: AdaptiveScheduler,
    /// Latest time observed via `on_tick`/`on_verdict`; stamps the rules
    /// joining the scheduler (`patch_plans` carries no clock).
    now_hint: u64,
}

impl SteadyMonitor {
    /// Creates a monitor with the given configuration.
    pub fn new(cfg: SteadyConfig) -> SteadyMonitor {
        let mut sc = cfg.adaptive.clone().unwrap_or(SchedConfig {
            slo_ns: 0,
            min_interval_ns: 0,
            ..SchedConfig::default()
        });
        // Same budget in both configurations, whatever the caller put in.
        sc.budget_pps = 1e9 / cfg.probe_interval.max(1) as f64;
        SteadyMonitor {
            cfg,
            plans: IdHashMap::default(),
            next_inject_at: 0,
            outstanding: BTreeMap::new(),
            failed: BTreeSet::new(),
            next_seq: 0,
            sched: AdaptiveScheduler::new(sc),
            now_hint: 0,
        }
    }

    /// A monitor whose first probe gets sequence number `seq`.
    #[cfg(test)]
    pub(crate) fn with_first_seq(cfg: SteadyConfig, seq: u32) -> Self {
        SteadyMonitor {
            next_seq: seq,
            ..SteadyMonitor::new(cfg)
        }
    }

    /// Scheduler counters.
    pub fn sched_stats(&self) -> SchedStats {
        self.sched.stats()
    }

    /// Refreshes the plans: each plan of `upserts` replaces its rule's plan
    /// or joins the cycle (at its back, in the order given), and the rules
    /// of `drops` leave it, their failure and scheduler state with them.
    /// A rule's outstanding probes are discarded — an answer to one is then
    /// ignored — when it leaves or its plan is replaced by a different one;
    /// a plan kept, or replaced by an equal one, keeps its probes, their
    /// retries and its place in the cycle. Work follows `upserts` and
    /// `drops`, not the plan list. Returns whether the set of planned rules
    /// changed.
    pub fn patch_plans(&mut self, upserts: Vec<ProbePlan>, drops: &[RuleId]) -> bool {
        let mut discard = IdHashSet::default();
        let mut changed = false;
        for plan in upserts {
            let id = plan.rule_id;
            match self.plans.insert(id, plan) {
                Some(old) if old != self.plans[&id] => {
                    discard.insert(id);
                }
                Some(_) => {}
                None => {
                    self.sched.insert(id.0, self.now_hint);
                    changed = true;
                }
            }
        }
        for &id in drops {
            if self.plans.remove(&id).is_some() {
                self.sched.remove(id.0);
                self.failed.remove(&id);
                discard.insert(id);
                changed = true;
            }
        }
        if !discard.is_empty() {
            self.outstanding
                .retain(|_, o| !discard.contains(&o.rule_id));
        }
        changed
    }

    /// Tells the scheduler `rule` was just modified by a flow_mod: its next
    /// probe is pulled forward and its churn heat bumped (no reordering in
    /// the round-robin configuration). No-op for rules without a plan.
    pub fn note_rule_modified(&mut self, rule: RuleId, now: u64) {
        self.now_hint = self.now_hint.max(now);
        self.sched.note_modified(rule.0, now);
    }

    /// Updates the per-switch cost factor and backpressure flag feeding the
    /// scheduler (see [`monocle_sched::SwitchTelemetry::cost`]).
    pub fn set_switch_cost(&mut self, cost: f64, backpressured: bool) {
        self.sched.set_switch_cost(cost, backpressured);
    }

    /// The plans currently being cycled, by rule.
    pub fn plans(&self) -> &IdHashMap<RuleId, ProbePlan> {
        &self.plans
    }

    /// Rules currently considered failed.
    pub fn failed_rules(&self) -> impl Iterator<Item = RuleId> + '_ {
        self.failed.iter().copied()
    }

    /// Periodic tick; `now` must be monotone. Returns actions (at most one
    /// new injection per tick plus any timeout consequences).
    pub fn on_tick(&mut self, now: u64) -> Vec<SteadyAction> {
        self.now_hint = self.now_hint.max(now);
        let mut actions = Vec::new();
        // 1. Handle timeouts / retries.
        let retry_after = self.cfg.timeout / u64::from(self.cfg.max_retries + 1);
        let mut to_remove = Vec::new();
        let mut to_resend = Vec::new();
        for (&seq, o) in &self.outstanding {
            let rule_id = o.rule_id;
            let negative = self.plans[&rule_id].is_negative();
            if now >= o.first_sent + self.cfg.timeout {
                // Window expired with no conclusive observation.
                if negative {
                    // Negative probing (§3.3): silence is the (weak)
                    // confirmation that the drop rule is present.
                    self.sched.note_verdict(rule_id.0, now, true);
                    if self.failed.remove(&rule_id) {
                        actions.push(SteadyAction::RuleRecovered { rule_id });
                    }
                } else {
                    self.sched.note_verdict(rule_id.0, now, false);
                    if self.failed.insert(rule_id) {
                        actions.push(SteadyAction::RuleFailed { rule_id, at: now });
                    }
                }
                to_remove.push(seq);
            } else if !negative
                && o.attempts <= self.cfg.max_retries
                && now >= o.last_sent + retry_after
            {
                to_resend.push(seq);
            }
        }
        for seq in to_remove {
            self.outstanding.remove(&seq);
        }
        for seq in to_resend {
            let o = self.outstanding.get_mut(&seq).unwrap();
            o.attempts += 1;
            o.last_sent = now;
            let rule_id = o.rule_id;
            actions.push(SteadyAction::Inject { seq, rule_id });
        }
        // 2. Inject into this pacing slot the rule the scheduler releases
        //    (the slot stays open if nothing is due, so an idle scheduler
        //    underspends the budget but never exceeds it).
        if !self.plans.is_empty() && now >= self.next_inject_at {
            if let Some(key) = self.sched.next_due(now) {
                let rule_id = RuleId(key);
                self.next_inject_at = now + self.cfg.probe_interval;
                let seq = take_seq(&mut self.next_seq);
                self.outstanding.insert(
                    seq,
                    Outstanding {
                        rule_id,
                        first_sent: now,
                        last_sent: now,
                        attempts: 1,
                    },
                );
                actions.push(SteadyAction::Inject { seq, rule_id });
            }
        }
        actions
    }

    /// Feed a classified probe observation back.
    pub fn on_verdict(&mut self, now: u64, seq: u32, verdict: Verdict) -> Vec<SteadyAction> {
        self.now_hint = self.now_hint.max(now);
        let Some(o) = self.outstanding.get(&seq) else {
            return Vec::new(); // no longer outstanding, or a duplicate
        };
        let rule_id = o.rule_id;
        let mut actions = Vec::new();
        match verdict {
            Verdict::Present => {
                self.outstanding.remove(&seq);
                self.sched.note_verdict(rule_id.0, now, true);
                if self.failed.remove(&rule_id) {
                    actions.push(SteadyAction::RuleRecovered { rule_id });
                }
            }
            Verdict::Absent => {
                self.outstanding.remove(&seq);
                self.sched.note_verdict(rule_id.0, now, false);
                if self.failed.insert(rule_id) {
                    actions.push(SteadyAction::RuleFailed { rule_id, at: now });
                }
            }
            Verdict::Inconclusive => {}
        }
        actions
    }

    /// The plan for an outstanding sequence number (harness lookup).
    pub fn plan_for_seq(&self, seq: u32) -> Option<&ProbePlan> {
        self.outstanding.get(&seq).map(|o| &self.plans[&o.rule_id])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ConcreteOutcome;
    use monocle_openflow::{Action, Forwarding, HeaderVec};
    use monocle_packet::PacketFields;

    fn mk_plan(rule: u64, negative: bool) -> ProbePlan {
        let present = if negative {
            ConcreteOutcome::dropped()
        } else {
            ConcreteOutcome::of(
                &Forwarding::compile(&[Action::Output(1)]).unwrap(),
                &HeaderVec::ZERO,
            )
        };
        let absent = ConcreteOutcome::of(
            &Forwarding::compile(&[Action::Output(2)]).unwrap(),
            &HeaderVec::ZERO,
        );
        ProbePlan {
            rule_id: RuleId(rule),
            priority: 10,
            fields: PacketFields::default(),
            header: HeaderVec::ZERO,
            in_port: 1,
            present,
            absent,
            uses_counting: false,
        }
    }

    /// A monitor with `plans` joined in the order given.
    fn monitor(cfg: SteadyConfig, plans: Vec<ProbePlan>) -> SteadyMonitor {
        let mut m = SteadyMonitor::new(cfg);
        m.patch_plans(plans, &[]);
        m
    }

    fn injected(actions: &[SteadyAction]) -> Option<(u32, RuleId)> {
        actions.iter().find_map(|a| match *a {
            SteadyAction::Inject { seq, rule_id } => Some((seq, rule_id)),
            _ => None,
        })
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn cycles_through_rules() {
        let mut m = monitor(
            SteadyConfig::default(),
            vec![mk_plan(1, false), mk_plan(2, false)],
        );
        let a0 = m.on_tick(0);
        assert!(matches!(
            a0[0],
            SteadyAction::Inject {
                rule_id: RuleId(1),
                ..
            }
        ));
        let a1 = m.on_tick(2 * MS);
        assert!(matches!(
            a1[0],
            SteadyAction::Inject {
                rule_id: RuleId(2),
                ..
            }
        ));
        let a2 = m.on_tick(4 * MS);
        assert!(matches!(
            a2[0],
            SteadyAction::Inject {
                rule_id: RuleId(1),
                ..
            }
        ));
    }

    #[test]
    fn present_verdict_clears_outstanding() {
        let mut m = monitor(SteadyConfig::default(), vec![mk_plan(1, false)]);
        let a = m.on_tick(0);
        let SteadyAction::Inject { seq, .. } = a[0] else {
            panic!()
        };
        assert!(m.plan_for_seq(seq).is_some());
        let out = m.on_verdict(MS, seq, Verdict::Present);
        assert!(out.is_empty());
        assert!(m.plan_for_seq(seq).is_none());
        // No failure after the timeout window.
        let later = m.on_tick(200 * MS);
        assert!(!later
            .iter()
            .any(|x| matches!(x, SteadyAction::RuleFailed { .. })));
    }

    #[test]
    fn timeout_raises_failure_and_retries_first() {
        let mut m = monitor(SteadyConfig::default(), vec![mk_plan(7, false)]);
        let a = m.on_tick(0);
        let SteadyAction::Inject { seq, .. } = a[0] else {
            panic!()
        };
        // Retries at ~37.5ms intervals (150/4).
        let acts = m.on_tick(40 * MS);
        assert!(
            acts.iter()
                .any(|x| matches!(x, SteadyAction::Inject { seq: s, .. } if *s == seq)),
            "expected a resend, got {acts:?}"
        );
        // After the full window: failure.
        let acts = m.on_tick(151 * MS);
        assert!(acts.iter().any(
            |x| matches!(x, SteadyAction::RuleFailed { rule_id, .. } if *rule_id == RuleId(7))
        ));
        assert_eq!(m.failed_rules().collect::<Vec<_>>(), vec![RuleId(7)]);
    }

    #[test]
    fn absent_verdict_fails_immediately() {
        let mut m = monitor(SteadyConfig::default(), vec![mk_plan(3, false)]);
        let a = m.on_tick(0);
        let SteadyAction::Inject { seq, .. } = a[0] else {
            panic!()
        };
        let acts = m.on_verdict(5 * MS, seq, Verdict::Absent);
        assert!(
            matches!(acts[0], SteadyAction::RuleFailed { rule_id, .. } if rule_id == RuleId(3))
        );
    }

    #[test]
    fn negative_probe_silence_is_ok_and_reply_is_failure() {
        let mut m = monitor(SteadyConfig::default(), vec![mk_plan(5, true)]);
        m.on_tick(0);
        // Timeout without observation: fine for a drop rule. The same tick
        // also injects the next probe in the cycle.
        let acts = m.on_tick(151 * MS);
        assert!(!acts
            .iter()
            .any(|x| matches!(x, SteadyAction::RuleFailed { .. })));
        let (seq2, _) = injected(&acts).unwrap();
        let acts = m.on_verdict(153 * MS, seq2, Verdict::Absent);
        assert!(matches!(acts[0], SteadyAction::RuleFailed { .. }));
    }

    #[test]
    fn recovery_reported() {
        let mut m = monitor(SteadyConfig::default(), vec![mk_plan(1, false)]);
        let a = m.on_tick(0);
        let SteadyAction::Inject { seq, .. } = a[0] else {
            panic!()
        };
        m.on_verdict(1, seq, Verdict::Absent);
        assert_eq!(m.failed_rules().count(), 1);
        // Next probe of the same rule succeeds -> recovered.
        let (seq, _) = injected(&m.on_tick(3 * MS)).unwrap();
        let acts = m.on_verdict(4 * MS, seq, Verdict::Present);
        assert!(matches!(acts[0], SteadyAction::RuleRecovered { .. }));
        assert_eq!(m.failed_rules().count(), 0);
    }

    #[test]
    fn probe_rate_respected() {
        let mut m = monitor(
            SteadyConfig::default(),
            (0..10).map(|i| mk_plan(i, false)).collect(),
        );
        let mut injections = 0;
        // Tick every 1 ms for 20 ms: interval is 2 ms -> ~10 injections.
        for t in 0..20 {
            for a in m.on_tick(t * MS) {
                if matches!(a, SteadyAction::Inject { .. }) {
                    injections += 1;
                }
            }
        }
        assert!(injections <= 11, "rate limiting failed: {injections}");
        assert!(injections >= 9);
    }

    fn adaptive() -> SteadyConfig {
        SteadyConfig {
            adaptive: Some(SchedConfig::default()),
            ..SteadyConfig::default()
        }
    }

    #[test]
    fn adaptive_pacing_matches_fixed_sweep() {
        // Equal budget: over the same window, the adaptive monitor may not
        // inject more probes than the fixed sweep at the same interval.
        let plans = || (0..10).map(|i| mk_plan(i, false)).collect();
        let mut fixed = monitor(SteadyConfig::default(), plans());
        let mut adapt = monitor(adaptive(), plans());
        let count = |m: &mut SteadyMonitor| {
            let mut n = 0;
            for t in 0..100 {
                for a in m.on_tick(t * MS) {
                    if matches!(a, SteadyAction::Inject { .. }) {
                        n += 1;
                    }
                }
            }
            n
        };
        let nf = count(&mut fixed);
        let na = count(&mut adapt);
        assert!(na <= nf, "adaptive overspent the budget: {na} > {nf}");
        assert!(na > 0, "adaptive mode injected nothing");
    }

    #[test]
    fn adaptive_modified_rule_probed_before_cold_rules() {
        let mut m = monitor(adaptive(), (0..50).map(|i| mk_plan(i, false)).collect());
        // Burn the initial everybody-is-new burst; answer each probe so no
        // failure heat accumulates.
        for t in 0..200u64 {
            for a in m.on_tick(t * 2 * MS) {
                if let SteadyAction::Inject { seq, .. } = a {
                    m.on_verdict(t * 2 * MS + 1, seq, Verdict::Present);
                }
            }
        }
        let t0 = 500 * MS;
        m.note_rule_modified(RuleId(33), t0);
        // Within the floor interval the modified rule must be the one the
        // scheduler picks next.
        let mut first = None;
        let mut t = t0 + 51 * MS;
        while first.is_none() && t < t0 + 400 * MS {
            first = injected(&m.on_tick(t)).map(|(_, rule)| rule);
            t += 2 * MS;
        }
        assert_eq!(
            first,
            Some(RuleId(33)),
            "modified rule did not jump the queue"
        );
    }

    #[test]
    fn adaptive_timeout_retries_then_fails_like_fixed() {
        // The retry path is scheduler-independent: timeouts still resend
        // up to max_retries and then raise RuleFailed.
        let mut m = monitor(adaptive(), vec![mk_plan(7, false)]);
        let a = m.on_tick(0);
        let SteadyAction::Inject { seq, .. } = a[0] else {
            panic!()
        };
        let acts = m.on_tick(40 * MS);
        assert!(
            acts.iter()
                .any(|x| matches!(x, SteadyAction::Inject { seq: s, .. } if *s == seq)),
            "expected a resend, got {acts:?}"
        );
        let acts = m.on_tick(151 * MS);
        assert!(acts.iter().any(
            |x| matches!(x, SteadyAction::RuleFailed { rule_id, .. } if *rule_id == RuleId(7))
        ));
        // The failure fed the scheduler: the rule's next probe comes at the
        // floor interval, well before the SLO.
        assert!(m.sched_stats().released >= 1);
        let mut reprobed = false;
        for t in 152..260u64 {
            if m.on_tick(t * MS)
                .iter()
                .any(|x| matches!(x, SteadyAction::Inject { .. }))
            {
                reprobed = true;
                break;
            }
        }
        assert!(reprobed, "failing rule was not re-probed quickly");
    }

    #[test]
    fn adaptive_recovery_path_reports_and_clears() {
        let mut m = monitor(adaptive(), vec![mk_plan(1, false)]);
        let a = m.on_tick(0);
        let SteadyAction::Inject { seq, .. } = a[0] else {
            panic!()
        };
        m.on_verdict(1, seq, Verdict::Absent);
        assert_eq!(m.failed_rules().count(), 1);
        // The scheduler reprobes the failing rule at the floor; answer it.
        let mut recovered = false;
        for t in 1..300u64 {
            let acts = m.on_tick(t * MS);
            for a in acts {
                if let SteadyAction::Inject { seq, .. } = a {
                    let out = m.on_verdict(t * MS + 1, seq, Verdict::Present);
                    if out
                        .iter()
                        .any(|x| matches!(x, SteadyAction::RuleRecovered { .. }))
                    {
                        recovered = true;
                    }
                }
            }
            if recovered {
                break;
            }
        }
        assert!(recovered);
        assert_eq!(m.failed_rules().count(), 0);
    }

    fn failures(actions: &[SteadyAction]) -> Vec<RuleId> {
        let failed = actions.iter().filter_map(|a| match *a {
            SteadyAction::RuleFailed { rule_id, .. } => Some(rule_id),
            _ => None,
        });
        failed.collect()
    }

    /// A refresh that carries a rule's plan unchanged leaves its probe out:
    /// the window it was sent in still ends in a verdict.
    #[test]
    fn a_kept_plan_keeps_its_probe_across_a_refresh() {
        let mut m = monitor(SteadyConfig::default(), vec![mk_plan(1, false)]);
        let (seq, _) = injected(&m.on_tick(0)).unwrap();
        m.patch_plans(vec![mk_plan(1, false), mk_plan(2, false)], &[]);
        assert!(m.plan_for_seq(seq).is_some());
        assert_eq!(failures(&m.on_tick(151 * MS)), [RuleId(1)]);
    }

    /// A probe made for a plan the refresh replaced says nothing about the
    /// rule as it is now: it is discarded, and its silence raises nothing.
    #[test]
    fn a_replaced_plan_loses_its_probe() {
        let mut m = monitor(SteadyConfig::default(), vec![mk_plan(1, false)]);
        let (seq, _) = injected(&m.on_tick(0)).unwrap();
        let replaced = ProbePlan {
            in_port: 2,
            ..mk_plan(1, false)
        };
        m.patch_plans(vec![replaced], &[]);
        assert!(m.plan_for_seq(seq).is_none());
        assert!(m.on_verdict(MS, seq, Verdict::Absent).is_empty());
        assert_eq!(failures(&m.on_tick(151 * MS)), []);
    }

    /// A rule that leaves takes its probes and its failure with it.
    #[test]
    fn a_dropped_rule_leaves_the_failed_set_and_loses_its_probe() {
        let plans = vec![mk_plan(1, false), mk_plan(2, false)];
        let mut m = monitor(SteadyConfig::default(), plans);
        let (first, _) = injected(&m.on_tick(0)).unwrap();
        m.on_verdict(MS, first, Verdict::Absent);
        let (second, _) = injected(&m.on_tick(2 * MS)).unwrap();
        assert_eq!(m.failed_rules().collect::<Vec<_>>(), [RuleId(1)]);
        m.patch_plans(Vec::new(), &[RuleId(1), RuleId(2)]);
        assert_eq!(m.failed_rules().count(), 0);
        assert!(m.plan_for_seq(second).is_none());
        assert!(m.on_tick(200 * MS).is_empty());
    }

    /// The round-robin configuration keeps its place across a refresh:
    /// rules that stay keep their turn (a replaced plan included), a joiner
    /// queues at the back and a rule that leaves drops out.
    #[test]
    fn a_refresh_keeps_the_sweep_position() {
        let mut m = monitor(
            SteadyConfig::default(),
            (1..=4).map(|i| mk_plan(i, false)).collect(),
        );
        let mut order = Vec::new();
        let mut t = 0;
        let mut tick = |m: &mut SteadyMonitor, order: &mut Vec<u64>| {
            order.push(injected(&m.on_tick(t)).unwrap().1 .0);
            t += 2 * MS;
        };
        tick(&mut m, &mut order);
        tick(&mut m, &mut order);
        m.patch_plans(vec![mk_plan(5, false), mk_plan(3, false)], &[RuleId(4)]);
        for _ in 0..5 {
            tick(&mut m, &mut order);
        }
        assert_eq!(order, [1, 2, 3, 1, 2, 5, 3]);
    }
}
