//! Steady-state monitoring (§3, evaluated in §8.1.1 / Fig. 4).
//!
//! The monitor cycles through all monitorable rules of one switch at a
//! fixed probe rate, tracks outstanding probes, retries within the
//! detection window and reports per-rule failures. The rate, window and
//! resends are Fig. 4's: 500 probes/s ([`PROBE_INTERVAL`]), a 150 ms
//! timeout and up to 3 resends.
//!
//! This is a pure, time-driven state machine that emits the proxy's own
//! outputs: it builds each [`ProxyOutput::Inject`] where the plan is in
//! hand, numbering its probes with the steady bit (bit 31) set, judges each
//! returning probe against the plan it was made for
//! ([`SteadyMonitor::on_probe_return`]), and raises
//! [`ProxyOutput::RuleFailed`] and [`ProxyOutput::RuleRecovered`].
//! `MonitorProxy` passes them on unchanged.
//!
//! # One budget, two configurations
//!
//! The monitor opens one injection slot per [`PROBE_INTERVAL`]: a new
//! probe's first injection is never closer than that to the previous one.
//! That slot is the one release-rate limit. A
//! [`monocle_sched::AdaptiveScheduler`] only picks which rule each slot goes
//! to. With [`SteadyConfig::adaptive`] unset it runs its round-robin
//! configuration (`slo_ns = 0`, `min_interval_ns = 0`: every rule always
//! due, released in the order it last was): the paper's fixed sweep, in the
//! order the rules joined it. With a [`SchedConfig`] set,
//! recently-modified, high-churn and failing rules are probed more often
//! while every rule still meets the staleness SLO. The configuration
//! redistributes the budget without raising it (`tests::props` checks the
//! pacing and each rule's longest wait in both).

use crate::plan::{take_seq, ProbePlan, Verdict, STEADY_SEQ_BIT};
use crate::proxy::{ProbeInjection, ProxyOutput};
use monocle_openflow::table::{IdHashMap, IdHashSet};
use monocle_openflow::{PortNo, RuleId};
use monocle_packet::PacketFields;
use monocle_sched::{AdaptiveScheduler, SchedConfig, SchedStats};
use std::collections::{BTreeMap, BTreeSet};

/// Time between consecutive first injections, ns: 2 ms ⇒ 500 probes/s.
pub const PROBE_INTERVAL: u64 = 2_000_000;
/// Detection window from a probe's first injection, ns.
const TIMEOUT: u64 = 150_000_000;
/// Resends within the detection window, one every `TIMEOUT / 4`.
const MAX_RETRIES: u32 = 3;

/// Steady-state monitor configuration.
#[derive(Debug, Clone, Default)]
pub struct SteadyConfig {
    /// The scheduler's configuration; `None` (default) is its round-robin
    /// configuration, the paper's fixed sweep. Either way one probe goes
    /// out per [`PROBE_INTERVAL`], so both spend the same.
    pub adaptive: Option<SchedConfig>,
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
    /// The switch's datapath id, stamped into every probe.
    switch_id: u64,
    plans: IdHashMap<RuleId, ProbePlan>,
    next_inject_at: u64,
    /// By the probe's sequence number on the wire ([`STEADY_SEQ_BIT`] set).
    outstanding: BTreeMap<u32, Outstanding>,
    failed: BTreeSet<RuleId>,
    /// Counts the probes below [`STEADY_SEQ_BIT`] ([`take_seq`]); a probe's
    /// number is the count with the bit set.
    pub(crate) next_seq: u32,
    /// Holds exactly the planned rules; its state survives plan refreshes.
    sched: AdaptiveScheduler,
    /// Latest time observed via `on_tick`/`on_verdict`; stamps the rules
    /// joining the scheduler (`patch_plans` carries no clock).
    now_hint: u64,
}

impl SteadyMonitor {
    /// Creates the monitor of switch `switch_id` (the datapath id its
    /// probes carry) with the given configuration.
    pub fn new(cfg: SteadyConfig, switch_id: u64) -> SteadyMonitor {
        let sc = cfg.adaptive.unwrap_or(SchedConfig {
            slo_ns: 0,
            min_interval_ns: 0,
        });
        SteadyMonitor {
            switch_id,
            plans: IdHashMap::default(),
            next_inject_at: 0,
            outstanding: BTreeMap::new(),
            failed: BTreeSet::new(),
            next_seq: 0,
            sched: AdaptiveScheduler::new(sc),
            now_hint: 0,
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

    /// The plans currently being cycled, by rule.
    pub fn plans(&self) -> &IdHashMap<RuleId, ProbePlan> {
        &self.plans
    }

    /// Rules currently considered failed.
    pub fn failed_rules(&self) -> impl Iterator<Item = RuleId> + '_ {
        self.failed.iter().copied()
    }

    /// Probe `seq` of `rule_id`'s plan.
    fn inject(&self, seq: u32, rule_id: RuleId) -> ProxyOutput {
        let plan = &self.plans[&rule_id];
        ProxyOutput::Inject(ProbeInjection::new(self.switch_id, plan, seq))
    }

    /// Periodic tick; `now` must be monotone. Returns outputs (at most one
    /// new injection per tick plus any timeout consequences).
    pub fn on_tick(&mut self, now: u64) -> Vec<ProxyOutput> {
        self.now_hint = self.now_hint.max(now);
        let mut out = Vec::new();
        // 1. Handle timeouts / retries.
        let retry_after = TIMEOUT / u64::from(MAX_RETRIES + 1);
        let mut to_remove = Vec::new();
        let mut to_resend = Vec::new();
        for (&seq, o) in &self.outstanding {
            let rule_id = o.rule_id;
            let negative = self.plans[&rule_id].is_negative();
            if now >= o.first_sent + TIMEOUT {
                // Window expired with no conclusive observation.
                if negative {
                    // Negative probing (§3.3): silence is the (weak)
                    // confirmation that the drop rule is present.
                    self.sched.note_verdict(rule_id.0, now, true);
                    if self.failed.remove(&rule_id) {
                        out.push(ProxyOutput::RuleRecovered { rule_id });
                    }
                } else {
                    self.sched.note_verdict(rule_id.0, now, false);
                    if self.failed.insert(rule_id) {
                        out.push(ProxyOutput::RuleFailed { rule_id, at: now });
                    }
                }
                to_remove.push(seq);
            } else if !negative && o.attempts <= MAX_RETRIES && now >= o.last_sent + retry_after {
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
            out.push(self.inject(seq, rule_id));
        }
        // 2. Inject into this pacing slot the rule the scheduler releases
        //    (the slot stays open if nothing is due, so an idle scheduler
        //    underspends the budget but never exceeds it). At most one
        //    release per slot: the slot is the scheduler's rate limit.
        if !self.plans.is_empty() && now >= self.next_inject_at {
            if let Some(key) = self.sched.next_due(now) {
                let rule_id = RuleId(key);
                self.next_inject_at = now + PROBE_INTERVAL;
                let seq = take_seq(&mut self.next_seq) | STEADY_SEQ_BIT;
                self.outstanding.insert(
                    seq,
                    Outstanding {
                        rule_id,
                        first_sent: now,
                        last_sent: now,
                        attempts: 1,
                    },
                );
                out.push(self.inject(seq, rule_id));
            }
        }
        out
    }

    /// Probe `seq` came back: `out_port` is the probed switch's output port
    /// the observation maps to, `fields` the received header. It is judged
    /// against the plan it was made for while it is outstanding — until its
    /// window closes, or a refresh drops or replaces that plan
    /// ([`Self::patch_plans`]) — and ignored after.
    pub fn on_probe_return(
        &mut self,
        now: u64,
        seq: u32,
        out_port: PortNo,
        fields: &PacketFields,
    ) -> Vec<ProxyOutput> {
        let Some(o) = self.outstanding.get(&seq) else {
            return Vec::new();
        };
        let verdict = self.plans[&o.rule_id].classify(out_port, fields);
        self.on_verdict(now, seq, verdict)
    }

    /// Feeds the verdict on probe `seq` back: the verdict-level entry
    /// behind [`Self::on_probe_return`].
    pub fn on_verdict(&mut self, now: u64, seq: u32, verdict: Verdict) -> Vec<ProxyOutput> {
        self.now_hint = self.now_hint.max(now);
        let Some(o) = self.outstanding.get(&seq) else {
            return Vec::new(); // no longer outstanding, or a duplicate
        };
        let rule_id = o.rule_id;
        let mut out = Vec::new();
        match verdict {
            Verdict::Present => {
                self.outstanding.remove(&seq);
                self.sched.note_verdict(rule_id.0, now, true);
                if self.failed.remove(&rule_id) {
                    out.push(ProxyOutput::RuleRecovered { rule_id });
                }
            }
            Verdict::Absent => {
                self.outstanding.remove(&seq);
                self.sched.note_verdict(rule_id.0, now, false);
                if self.failed.insert(rule_id) {
                    out.push(ProxyOutput::RuleFailed { rule_id, at: now });
                }
            }
            Verdict::Inconclusive => {}
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ConcreteOutcome;
    use monocle_openflow::flowmatch::{headervec_to_packet, packet_to_headervec};
    use monocle_openflow::{Action, Forwarding};

    /// The datapath id of the switch every test monitor watches.
    const SWITCH: u64 = 7;

    /// Rule `rule`'s plan: present ⇒ out port 1 (nothing, for a drop
    /// rule), absent ⇒ out port 2, the header unchanged either way.
    fn mk_plan(rule: u64, negative: bool) -> ProbePlan {
        let fields = PacketFields::default();
        let header = packet_to_headervec(1, &fields);
        let port =
            |p| ConcreteOutcome::of(&Forwarding::compile(&[Action::Output(p)]).unwrap(), &header);
        ProbePlan {
            rule_id: RuleId(rule),
            priority: 10,
            fields,
            header,
            in_port: 1,
            present: if negative {
                ConcreteOutcome::dropped()
            } else {
                port(1)
            },
            absent: port(2),
            uses_counting: false,
        }
    }

    /// A monitor with `plans` joined in the order given.
    fn monitor(cfg: SteadyConfig, plans: Vec<ProbePlan>) -> SteadyMonitor {
        let mut m = SteadyMonitor::new(cfg, SWITCH);
        m.patch_plans(plans, &[]);
        m
    }

    /// The probe `o` injects, as (sequence number, rule), checked to be
    /// this monitor's: stamped with its switch, numbered with the steady bit.
    fn probe(o: &ProxyOutput) -> Option<(u32, RuleId)> {
        let ProxyOutput::Inject(inj) = o else {
            return None;
        };
        assert_eq!(inj.meta.switch_id, SWITCH, "{inj:?}");
        assert_ne!(inj.meta.seq & STEADY_SEQ_BIT, 0, "{inj:?}");
        Some((inj.meta.seq, RuleId(inj.meta.rule_id)))
    }

    /// The first probe `out` injects.
    fn injected(out: &[ProxyOutput]) -> Option<(u32, RuleId)> {
        out.iter().find_map(probe)
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn cycles_through_rules() {
        let mut m = monitor(
            SteadyConfig::default(),
            vec![mk_plan(1, false), mk_plan(2, false)],
        );
        let rule = |out: Vec<ProxyOutput>| probe(&out[0]).map(|(_, rule)| rule);
        assert_eq!(rule(m.on_tick(0)), Some(RuleId(1)));
        assert_eq!(rule(m.on_tick(2 * MS)), Some(RuleId(2)));
        assert_eq!(rule(m.on_tick(4 * MS)), Some(RuleId(1)));
    }

    #[test]
    fn present_verdict_clears_outstanding() {
        let mut m = monitor(SteadyConfig::default(), vec![mk_plan(1, false)]);
        let (seq, _) = probe(&m.on_tick(0)[0]).unwrap();
        assert!(m.outstanding.contains_key(&seq));
        let out = m.on_verdict(MS, seq, Verdict::Present);
        assert!(out.is_empty());
        assert!(!m.outstanding.contains_key(&seq));
        // No failure after the timeout window.
        let later = m.on_tick(200 * MS);
        assert!(!later
            .iter()
            .any(|x| matches!(x, ProxyOutput::RuleFailed { .. })));
    }

    /// A returning probe is judged against the plan it was made for, once:
    /// back on the present path it clears, on the absent path it fails the
    /// rule, and a second copy of it finds nothing outstanding.
    #[test]
    fn a_returning_probe_is_judged_against_its_plan() {
        let mut m = monitor(SteadyConfig::default(), vec![mk_plan(1, false)]);
        let received = headervec_to_packet(&m.plans()[&RuleId(1)].header);
        let (seq, _) = injected(&m.on_tick(0)).unwrap();
        assert!(m.on_probe_return(MS, seq, 1, &received).is_empty());
        assert!(!m.outstanding.contains_key(&seq));
        let (seq, _) = injected(&m.on_tick(2 * MS)).unwrap();
        // Out of a port neither outcome names: inconclusive, still out.
        assert!(m.on_probe_return(3 * MS, seq, 3, &received).is_empty());
        assert!(m.outstanding.contains_key(&seq));
        assert_eq!(
            m.on_probe_return(3 * MS, seq, 2, &received),
            [ProxyOutput::RuleFailed {
                rule_id: RuleId(1),
                at: 3 * MS
            }]
        );
        assert!(m.on_probe_return(3 * MS, seq, 2, &received).is_empty());
    }

    #[test]
    fn timeout_raises_failure_and_retries_first() {
        let mut m = monitor(SteadyConfig::default(), vec![mk_plan(7, false)]);
        let (seq, _) = probe(&m.on_tick(0)[0]).unwrap();
        // Retries at ~37.5ms intervals (150/4).
        let acts = m.on_tick(40 * MS);
        assert!(
            acts.iter().filter_map(probe).any(|(s, _)| s == seq),
            "expected a resend, got {acts:?}"
        );
        // After the full window: failure.
        let acts = m.on_tick(151 * MS);
        assert!(acts.iter().any(
            |x| matches!(x, ProxyOutput::RuleFailed { rule_id, .. } if *rule_id == RuleId(7))
        ));
        assert_eq!(m.failed_rules().collect::<Vec<_>>(), vec![RuleId(7)]);
    }

    #[test]
    fn absent_verdict_fails_immediately() {
        let mut m = monitor(SteadyConfig::default(), vec![mk_plan(3, false)]);
        let (seq, _) = probe(&m.on_tick(0)[0]).unwrap();
        let acts = m.on_verdict(5 * MS, seq, Verdict::Absent);
        assert!(matches!(acts[0], ProxyOutput::RuleFailed { rule_id, .. } if rule_id == RuleId(3)));
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
            .any(|x| matches!(x, ProxyOutput::RuleFailed { .. })));
        let (seq2, _) = injected(&acts).unwrap();
        let acts = m.on_verdict(153 * MS, seq2, Verdict::Absent);
        assert!(matches!(acts[0], ProxyOutput::RuleFailed { .. }));
    }

    #[test]
    fn recovery_reported() {
        let mut m = monitor(SteadyConfig::default(), vec![mk_plan(1, false)]);
        let (seq, _) = probe(&m.on_tick(0)[0]).unwrap();
        m.on_verdict(1, seq, Verdict::Absent);
        assert_eq!(m.failed_rules().count(), 1);
        // Next probe of the same rule succeeds -> recovered.
        let (seq, _) = injected(&m.on_tick(3 * MS)).unwrap();
        let acts = m.on_verdict(4 * MS, seq, Verdict::Present);
        assert!(matches!(acts[0], ProxyOutput::RuleRecovered { .. }));
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
            injections += m.on_tick(t * MS).iter().filter_map(probe).count();
        }
        assert!(injections <= 11, "rate limiting failed: {injections}");
        assert!(injections >= 9);
    }

    fn adaptive() -> SteadyConfig {
        SteadyConfig {
            adaptive: Some(SchedConfig::default()),
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
            let ticks = (0..100).map(|t| m.on_tick(t * MS).iter().filter_map(probe).count());
            ticks.sum::<usize>()
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
            for (seq, _) in m.on_tick(t * 2 * MS).iter().filter_map(probe) {
                m.on_verdict(t * 2 * MS + 1, seq, Verdict::Present);
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
        // up to MAX_RETRIES and then raise RuleFailed.
        let mut m = monitor(adaptive(), vec![mk_plan(7, false)]);
        let (seq, _) = probe(&m.on_tick(0)[0]).unwrap();
        let acts = m.on_tick(40 * MS);
        assert!(
            acts.iter().filter_map(probe).any(|(s, _)| s == seq),
            "expected a resend, got {acts:?}"
        );
        let acts = m.on_tick(151 * MS);
        assert!(acts.iter().any(
            |x| matches!(x, ProxyOutput::RuleFailed { rule_id, .. } if *rule_id == RuleId(7))
        ));
        // The failure fed the scheduler: the rule's next probe comes at the
        // floor interval, well before the SLO.
        assert!(m.sched_stats().released >= 1);
        let mut reprobed = false;
        for t in 152..260u64 {
            if injected(&m.on_tick(t * MS)).is_some() {
                reprobed = true;
                break;
            }
        }
        assert!(reprobed, "failing rule was not re-probed quickly");
    }

    #[test]
    fn adaptive_recovery_path_reports_and_clears() {
        let mut m = monitor(adaptive(), vec![mk_plan(1, false)]);
        let (seq, _) = probe(&m.on_tick(0)[0]).unwrap();
        m.on_verdict(1, seq, Verdict::Absent);
        assert_eq!(m.failed_rules().count(), 1);
        // The scheduler reprobes the failing rule at the floor; answer it.
        let mut recovered = false;
        for t in 1..300u64 {
            for (seq, _) in m.on_tick(t * MS).iter().filter_map(probe) {
                let out = m.on_verdict(t * MS + 1, seq, Verdict::Present);
                if out
                    .iter()
                    .any(|x| matches!(x, ProxyOutput::RuleRecovered { .. }))
                {
                    recovered = true;
                }
            }
            if recovered {
                break;
            }
        }
        assert!(recovered);
        assert_eq!(m.failed_rules().count(), 0);
    }

    fn failures(out: &[ProxyOutput]) -> Vec<RuleId> {
        let failed = out.iter().filter_map(|o| match *o {
            ProxyOutput::RuleFailed { rule_id, .. } => Some(rule_id),
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
        assert!(m.outstanding.contains_key(&seq));
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
        assert!(!m.outstanding.contains_key(&seq));
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
        assert!(!m.outstanding.contains_key(&second));
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

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// Rule ids are drawn below this, so at most this many are planned.
        const RULES: u64 = 8;
        /// Ticks come 0.5–3 ms apart.
        const MAX_TICK: u64 = 3 * MS;

        /// One call into the monitor.
        #[derive(Debug, Clone)]
        enum Op {
            /// The clock advances this far, then the monitor ticks; a new
            /// probe the tick sends is answered at once, if at all.
            Tick(u64, Option<Verdict>),
            /// The `i`-th latest probe sent (mod their count) is answered;
            /// an answer to a probe no longer outstanding is ignored.
            Answer(usize, Verdict),
            /// A refresh: upsert `(rule, variant)` plans, drop rules.
            Patch(Vec<(u64, u16)>, Vec<u64>),
            /// A flow_mod touched the rule.
            Modify(u64),
        }

        fn arb_upserts() -> impl Strategy<Value = Vec<(u64, u16)>> {
            prop::collection::vec((0..RULES, 1u16..3), 0..6)
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            let verdict = || {
                prop_oneof![
                    Just(Verdict::Present),
                    Just(Verdict::Absent),
                    Just(Verdict::Inconclusive),
                ]
            };
            // Mostly healthy answers and modifications that mostly miss the
            // planned rules, so that some rules cool down and the SLO, not
            // the floor, paces them.
            let answer = prop_oneof![
                30 => Just(Some(Verdict::Present)),
                1 => prop::option::of(verdict()),
            ];
            prop_oneof![
                16 => (MS / 2..MAX_TICK + 1, answer).prop_map(|(dt, v)| Op::Tick(dt, v)),
                2 => (0usize..8, verdict()).prop_map(|(i, v)| Op::Answer(i, v)),
                1 => (arb_upserts(), prop::collection::vec(0..RULES, 0..3))
                    .prop_map(|(up, drop)| Op::Patch(up, drop)),
                1 => (0..16 * RULES).prop_map(Op::Modify),
            ]
        }

        /// Rule `rule`'s plan; a different `variant` is a replaced plan.
        /// Every third rule is a drop rule, confirmed by silence.
        fn plan(rule: u64, variant: u16) -> ProbePlan {
            ProbePlan {
                in_port: variant,
                ..mk_plan(rule, rule.is_multiple_of(3))
            }
        }

        /// Drives a monitor planned with `initial` through `ops` and checks
        /// after every call:
        /// * no two new probes went out closer than [`PROBE_INTERVAL`]
        ///   (resends reuse their probe's number and ride outside the slot);
        /// * no planned rule has waited for a new probe longer than its SLO
        ///   (0 in the round-robin configuration) plus one slot for itself
        ///   and each other rule — a slot being at most one interval plus
        ///   one tick. A rule is late only behind rules due no later than
        ///   it, and each of those goes at most once before it.
        fn run(
            cfg: SteadyConfig,
            initial: Vec<(u64, u16)>,
            ops: Vec<Op>,
        ) -> Result<(), TestCaseError> {
            let slo = cfg.adaptive.as_ref().map_or(0, |c| c.slo_ns);
            let longest_wait = slo + RULES * (PROBE_INTERVAL + MAX_TICK);
            let mut m = SteadyMonitor::new(cfg, SWITCH);
            let mut now = 0;
            // Planned rule -> when it joined or last got a new probe.
            let mut since: HashMap<RuleId, u64> = HashMap::new();
            let mut sent: Vec<u32> = Vec::new();
            let mut last_new: Option<u64> = None;
            for op in std::iter::once(Op::Patch(initial, Vec::new())).chain(ops) {
                match op {
                    Op::Tick(dt, answer) => {
                        now += dt;
                        for (seq, rule_id) in m.on_tick(now).iter().filter_map(probe) {
                            if sent.contains(&seq) {
                                continue; // a resend
                            }
                            if let Some(prev) = last_new {
                                prop_assert!(
                                    now - prev >= PROBE_INTERVAL,
                                    "new probes {}ns apart at {}",
                                    now - prev,
                                    now
                                );
                            }
                            last_new = Some(now);
                            sent.push(seq);
                            since.insert(rule_id, now);
                            if let Some(v) = answer {
                                m.on_verdict(now, seq, v);
                            }
                        }
                    }
                    Op::Answer(i, v) => {
                        if !sent.is_empty() {
                            m.on_verdict(now, sent[sent.len() - 1 - i % sent.len()], v);
                        }
                    }
                    Op::Patch(up, drop) => {
                        let plans = up.into_iter().map(|(r, v)| plan(r, v)).collect();
                        let drop: Vec<RuleId> = drop.into_iter().map(RuleId).collect();
                        m.patch_plans(plans, &drop);
                        since.retain(|rule, _| m.plans().contains_key(rule));
                        for &rule in m.plans().keys() {
                            since.entry(rule).or_insert(now);
                        }
                    }
                    Op::Modify(rule) => m.note_rule_modified(RuleId(rule), now),
                }
                for (rule, &t) in &since {
                    prop_assert!(
                        now - t <= longest_wait,
                        "{:?} unprobed for {}ms at {}ms",
                        rule,
                        (now - t) / MS,
                        now / MS
                    );
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The round-robin configuration, the paper's fixed sweep.
            #[test]
            fn fixed_sweep_keeps_the_probe_interval(
                initial in arb_upserts(),
                ops in prop::collection::vec(arb_op(), 1..1500),
            ) {
                run(SteadyConfig::default(), initial, ops)?;
            }

            /// The adaptive configuration: the same pacing, and the SLO
            /// however modifications and failures skew the scores.
            #[test]
            fn adaptive_keeps_the_probe_interval_and_the_slo(
                initial in arb_upserts(),
                ops in prop::collection::vec(arb_op(), 1..1500),
            ) {
                let cfg = SteadyConfig {
                    adaptive: Some(SchedConfig { slo_ns: 100 * MS, min_interval_ns: 20 * MS }),
                };
                run(cfg, initial, ops)?;
            }
        }
    }
}
