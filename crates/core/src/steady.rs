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
//! # Scheduling modes
//!
//! With [`SteadyConfig::adaptive`] unset, injections walk the plan list
//! round-robin (the paper's fixed sweep). With it set, a
//! [`monocle_sched::AdaptiveScheduler`] picks which rule each injection
//! slot goes to — recently-modified, high-churn and failing rules are
//! probed more often while every rule still meets the staleness SLO. The
//! injection *pacing* is identical in both modes (one probe per
//! `probe_interval`, and the scheduler's token bucket is derived from the
//! same interval), so switching modes redistributes the budget without
//! raising it.

use crate::plan::{take_seq, ProbePlan, Verdict};
use monocle_openflow::RuleId;
use monocle_sched::{AdaptiveScheduler, SchedConfig, SchedStats};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Steady-state monitor configuration.
#[derive(Debug, Clone)]
pub struct SteadyConfig {
    /// Time between consecutive probe injections, ns (default 2 ms ⇒ 500/s).
    pub probe_interval: u64,
    /// Detection window from the first injection, ns (default 150 ms).
    pub timeout: u64,
    /// Maximum number of resends within the window (default 3).
    pub max_retries: u32,
    /// Adaptive scheduling; `None` (default) keeps the fixed round-robin
    /// sweep. The scheduler's probe budget is overridden to
    /// `1e9 / probe_interval` so both modes spend the same budget.
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
    /// Inject the probe for `plan` with this sequence number.
    Inject {
        /// Probe sequence number (echoed back in the verdict).
        seq: u32,
        /// Index into the monitor's plan list.
        plan_idx: usize,
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
    plan_idx: usize,
    first_sent: u64,
    last_sent: u64,
    attempts: u32,
}

/// The per-switch steady-state monitor.
#[derive(Debug, Default)]
pub struct SteadyMonitor {
    cfg: SteadyConfig,
    plans: Vec<ProbePlan>,
    cursor: usize,
    next_inject_at: u64,
    outstanding: BTreeMap<u32, Outstanding>,
    failed: std::collections::BTreeSet<RuleId>,
    /// The next probe's sequence number, below
    /// [`crate::plan::STEADY_SEQ_BIT`] ([`take_seq`]); the proxy sets the
    /// bit on the wire.
    next_seq: u32,
    /// Adaptive scheduler (None ⇒ fixed round-robin sweep). Its state is
    /// keyed by rule id and survives plan refreshes.
    sched: Option<AdaptiveScheduler>,
    /// Rule id → index into `plans`, rebuilt whenever the set of planned
    /// rules changes.
    by_rule: HashMap<u64, usize>,
    /// Latest time observed via `on_tick`/`on_verdict`; used to stamp
    /// scheduler state when plans are swapped (set_plans carries no clock).
    now_hint: u64,
}

impl SteadyMonitor {
    /// Creates a monitor with the given configuration.
    pub fn new(cfg: SteadyConfig) -> SteadyMonitor {
        let sched = cfg.adaptive.clone().map(|mut sc| {
            // Same budget as the fixed sweep, whatever the caller put in.
            sc.budget_pps = 1e9 / cfg.probe_interval.max(1) as f64;
            AdaptiveScheduler::new(sc)
        });
        SteadyMonitor {
            cfg,
            sched,
            ..Default::default()
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

    /// Whether injections are driven by the adaptive scheduler.
    pub fn is_adaptive(&self) -> bool {
        self.sched.is_some()
    }

    /// Scheduler counters, when adaptive.
    pub fn sched_stats(&self) -> Option<SchedStats> {
        self.sched.as_ref().map(|s| s.stats())
    }

    /// Replaces the probe plans wholesale, in the order given; outstanding
    /// probes are discarded, so an answer to a probe sent before is ignored.
    /// In adaptive mode, per-rule scheduler state (heat, deadlines, failure
    /// history) carries over for rules that survive the refresh.
    pub fn set_plans(&mut self, plans: Vec<ProbePlan>) {
        self.plans = plans;
        self.restart();
        self.reindex();
    }

    /// Refreshes the plans after a table change that invalidated only some
    /// of them: each plan of `upserts` (in table order: priority descending,
    /// rule id ascending, the order the plan list is then kept in) replaces
    /// its rule's plan or joins the cycle, and the rules of `drops` leave
    /// it. Outstanding probes are discarded and the fixed sweep restarts, as
    /// in [`Self::set_plans`]. Work follows `upserts` and `drops`, not the
    /// plan list, as long as the set of planned rules stays the same; when
    /// it does not, the list is re-merged and re-indexed and the adaptive
    /// scheduler reconciled. Returns whether it changed.
    pub fn patch_plans(&mut self, upserts: Vec<ProbePlan>, drops: &[RuleId]) -> bool {
        self.restart();
        let mut joining = Vec::new();
        for plan in upserts {
            match self.by_rule.get(&plan.rule_id.0) {
                Some(&i) => self.plans[i] = plan,
                None => joining.push(plan),
            }
        }
        let leaving: HashSet<u64> = drops
            .iter()
            .map(|id| id.0)
            .filter(|id| self.by_rule.contains_key(id))
            .collect();
        if leaving.is_empty() && joining.is_empty() {
            return false;
        }
        self.plans.retain(|p| !leaving.contains(&p.rule_id.0));
        self.plans.extend(joining);
        // Two runs, each already in table order: the stable sort is one merge.
        self.plans.sort_by_key(|p| (Reverse(p.priority), p.rule_id));
        self.reindex();
        true
    }

    /// The part of a refresh that does not depend on its size: outstanding
    /// probes discarded (a sequence number comes round again only 2³¹
    /// probes later, so no answer to one of them counts from here on), fixed
    /// sweep restarted.
    fn restart(&mut self) {
        self.cursor = 0;
        self.outstanding.clear();
    }

    /// Rebuilds the rule index and reconciles the adaptive scheduler after
    /// the set of planned rules changed.
    fn reindex(&mut self) {
        self.by_rule = self
            .plans
            .iter()
            .enumerate()
            .map(|(i, p)| (p.rule_id.0, i))
            .collect();
        if let Some(sched) = self.sched.as_mut() {
            let keys: Vec<u64> = self.plans.iter().map(|p| p.rule_id.0).collect();
            sched.sync(&keys, self.now_hint);
        }
    }

    /// Whether `rule` has a plan in the cycle.
    pub fn has_plan(&self, rule: RuleId) -> bool {
        self.by_rule.contains_key(&rule.0)
    }

    /// Tells the scheduler `rule` was just modified by a flow_mod: its next
    /// probe is pulled forward and its churn heat bumped. No-op in fixed
    /// mode or for rules without a plan.
    pub fn note_rule_modified(&mut self, rule: RuleId, now: u64) {
        self.now_hint = self.now_hint.max(now);
        if let Some(sched) = self.sched.as_mut() {
            sched.note_modified(rule.0, now);
        }
    }

    /// Updates the per-switch cost factor and backpressure flag feeding the
    /// scheduler (see [`monocle_sched::SwitchTelemetry::cost`]). No-op in
    /// fixed mode.
    pub fn set_switch_cost(&mut self, cost: f64, backpressured: bool) {
        if let Some(sched) = self.sched.as_mut() {
            sched.set_switch_cost(cost, backpressured);
        }
    }

    /// The plans currently being cycled.
    pub fn plans(&self) -> &[ProbePlan] {
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
            let plan = &self.plans[o.plan_idx];
            if now >= o.first_sent + self.cfg.timeout {
                // Window expired with no conclusive observation.
                if plan.is_negative() {
                    // Negative probing (§3.3): silence is the (weak)
                    // confirmation that the drop rule is present.
                    if let Some(sched) = self.sched.as_mut() {
                        sched.note_verdict(plan.rule_id.0, now, true);
                    }
                    if self.failed.remove(&plan.rule_id) {
                        actions.push(SteadyAction::RuleRecovered {
                            rule_id: plan.rule_id,
                        });
                    }
                } else {
                    if let Some(sched) = self.sched.as_mut() {
                        sched.note_verdict(plan.rule_id.0, now, false);
                    }
                    if self.failed.insert(plan.rule_id) {
                        actions.push(SteadyAction::RuleFailed {
                            rule_id: plan.rule_id,
                            at: now,
                        });
                    }
                }
                to_remove.push(seq);
            } else if !plan.is_negative()
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
            let plan_idx = o.plan_idx;
            actions.push(SteadyAction::Inject { seq, plan_idx });
        }
        // 2. Inject into this pacing slot: next rule in the cycle (fixed)
        //    or the most urgent due rule (adaptive; the slot stays open if
        //    nothing is due, so an idle scheduler underspends the budget
        //    but never exceeds it).
        if !self.plans.is_empty() && now >= self.next_inject_at {
            let plan_idx = match self.sched.as_mut() {
                Some(sched) => sched
                    .next_due(now)
                    .and_then(|key| self.by_rule.get(&key).copied()),
                None => {
                    let idx = self.cursor;
                    self.cursor = (self.cursor + 1) % self.plans.len();
                    Some(idx)
                }
            };
            if let Some(plan_idx) = plan_idx {
                self.next_inject_at = now + self.cfg.probe_interval;
                let seq = take_seq(&mut self.next_seq);
                self.outstanding.insert(
                    seq,
                    Outstanding {
                        plan_idx,
                        first_sent: now,
                        last_sent: now,
                        attempts: 1,
                    },
                );
                actions.push(SteadyAction::Inject { seq, plan_idx });
            }
        }
        actions
    }

    /// Feed a classified probe observation back.
    pub fn on_verdict(&mut self, now: u64, seq: u32, verdict: Verdict) -> Vec<SteadyAction> {
        self.now_hint = self.now_hint.max(now);
        let Some(o) = self.outstanding.get(&seq) else {
            return Vec::new(); // sent before the last refresh, or a duplicate
        };
        let plan_idx = o.plan_idx;
        let rule_id = self.plans[plan_idx].rule_id;
        let mut actions = Vec::new();
        match verdict {
            Verdict::Present => {
                self.outstanding.remove(&seq);
                if let Some(sched) = self.sched.as_mut() {
                    sched.note_verdict(rule_id.0, now, true);
                }
                if self.failed.remove(&rule_id) {
                    actions.push(SteadyAction::RuleRecovered { rule_id });
                }
            }
            Verdict::Absent => {
                self.outstanding.remove(&seq);
                if let Some(sched) = self.sched.as_mut() {
                    sched.note_verdict(rule_id.0, now, false);
                }
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
        self.outstanding.get(&seq).map(|o| &self.plans[o.plan_idx])
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

    const MS: u64 = 1_000_000;

    #[test]
    fn cycles_through_rules() {
        let mut m = SteadyMonitor::new(SteadyConfig::default());
        m.set_plans(vec![mk_plan(1, false), mk_plan(2, false)]);
        let a0 = m.on_tick(0);
        assert!(matches!(a0[0], SteadyAction::Inject { plan_idx: 0, .. }));
        let a1 = m.on_tick(2 * MS);
        assert!(matches!(a1[0], SteadyAction::Inject { plan_idx: 1, .. }));
        let a2 = m.on_tick(4 * MS);
        assert!(matches!(a2[0], SteadyAction::Inject { plan_idx: 0, .. }));
    }

    #[test]
    fn present_verdict_clears_outstanding() {
        let mut m = SteadyMonitor::new(SteadyConfig::default());
        m.set_plans(vec![mk_plan(1, false)]);
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
        let mut m = SteadyMonitor::new(SteadyConfig::default());
        m.set_plans(vec![mk_plan(7, false)]);
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
        let mut m = SteadyMonitor::new(SteadyConfig::default());
        m.set_plans(vec![mk_plan(3, false)]);
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
        let mut m = SteadyMonitor::new(SteadyConfig::default());
        m.set_plans(vec![mk_plan(5, true)]);
        let a = m.on_tick(0);
        let SteadyAction::Inject { seq, .. } = a[0] else {
            panic!()
        };
        // Timeout without observation: fine for a drop rule. The same tick
        // also injects the next probe in the cycle.
        let acts = m.on_tick(151 * MS);
        assert!(!acts
            .iter()
            .any(|x| matches!(x, SteadyAction::RuleFailed { .. })));
        let SteadyAction::Inject { seq: seq2, .. } = acts
            .iter()
            .find_map(|x| match x {
                SteadyAction::Inject { .. } => Some(x.clone()),
                _ => None,
            })
            .unwrap()
        else {
            panic!()
        };
        let _ = seq;
        let acts = m.on_verdict(153 * MS, seq2, Verdict::Absent);
        assert!(matches!(acts[0], SteadyAction::RuleFailed { .. }));
    }

    #[test]
    fn recovery_reported() {
        let mut m = SteadyMonitor::new(SteadyConfig::default());
        m.set_plans(vec![mk_plan(1, false)]);
        let a = m.on_tick(0);
        let SteadyAction::Inject { seq, .. } = a[0] else {
            panic!()
        };
        m.on_verdict(1, seq, Verdict::Absent);
        assert_eq!(m.failed_rules().count(), 1);
        // Next probe of the same rule succeeds -> recovered.
        let a = m.on_tick(3 * MS);
        let SteadyAction::Inject { seq, .. } = a
            .iter()
            .find_map(|x| match x {
                SteadyAction::Inject { .. } => Some(x.clone()),
                _ => None,
            })
            .unwrap()
        else {
            panic!()
        };
        let acts = m.on_verdict(4 * MS, seq, Verdict::Present);
        assert!(matches!(acts[0], SteadyAction::RuleRecovered { .. }));
        assert_eq!(m.failed_rules().count(), 0);
    }

    #[test]
    fn probe_rate_respected() {
        let mut m = SteadyMonitor::new(SteadyConfig::default());
        m.set_plans((0..10).map(|i| mk_plan(i, false)).collect());
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
        let mut fixed = SteadyMonitor::new(SteadyConfig::default());
        let mut adapt = SteadyMonitor::new(adaptive());
        fixed.set_plans((0..10).map(|i| mk_plan(i, false)).collect());
        adapt.set_plans((0..10).map(|i| mk_plan(i, false)).collect());
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
        let mut m = SteadyMonitor::new(adaptive());
        m.set_plans((0..50).map(|i| mk_plan(i, false)).collect());
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
            for a in m.on_tick(t) {
                if let SteadyAction::Inject { plan_idx, .. } = a {
                    first = Some(plan_idx);
                    break;
                }
            }
            t += 2 * MS;
        }
        assert_eq!(first, Some(33), "modified rule did not jump the queue");
    }

    #[test]
    fn adaptive_timeout_retries_then_fails_like_fixed() {
        // The retry path is scheduler-independent: timeouts still resend
        // up to max_retries and then raise RuleFailed.
        let mut m = SteadyMonitor::new(adaptive());
        m.set_plans(vec![mk_plan(7, false)]);
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
        let stats = m.sched_stats().unwrap();
        assert!(stats.released >= 1);
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
        let mut m = SteadyMonitor::new(adaptive());
        m.set_plans(vec![mk_plan(1, false)]);
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

    #[test]
    fn set_plans_clears_outstanding() {
        let mut m = SteadyMonitor::new(SteadyConfig::default());
        m.set_plans(vec![mk_plan(1, false)]);
        m.on_tick(0);
        m.set_plans(vec![mk_plan(2, false)]);
        // Old seq is gone; no spurious failure later.
        let acts = m.on_tick(200 * MS);
        assert!(!acts
            .iter()
            .any(|x| matches!(x, SteadyAction::RuleFailed { .. })));
    }
}
