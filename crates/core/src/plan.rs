//! Probe plans: the concrete observable outcomes a probe distinguishes, and
//! the semantic verifier used both at generation time (soundness net under
//! the §5.2 spare-value repair) and as the property-test oracle.

use monocle_openflow::flowmatch::headervec_to_packet;
use monocle_openflow::{FlowTable, Forwarding, ForwardingKind, HeaderVec, PortNo, RuleId};
use monocle_packet::PacketFields;
use std::sync::Arc;

/// What the network observably does with a specific probe packet under one
/// hypothesis (rule present / rule absent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcreteOutcome {
    /// Multicast = all observations occur; ECMP = exactly one occurs.
    pub kind: ForwardingKind,
    /// `(output port, rewritten header)` pairs. Empty = dropped. Immutable
    /// and shared, so a cached plan is handed out without copying it.
    pub observations: Arc<[(PortNo, HeaderVec)]>,
}

impl ConcreteOutcome {
    /// Outcome of `fwd` processing `probe`.
    pub fn of(fwd: &Forwarding, probe: &HeaderVec) -> ConcreteOutcome {
        ConcreteOutcome {
            kind: fwd.kind,
            observations: fwd
                .legs
                .iter()
                .map(|l| (l.port, l.rewrite.apply(probe)))
                .collect(),
        }
    }

    /// The drop outcome.
    pub fn dropped() -> ConcreteOutcome {
        ConcreteOutcome {
            kind: ForwardingKind::Multicast,
            observations: Arc::default(),
        }
    }

    /// True when nothing is emitted.
    pub fn is_drop(&self) -> bool {
        self.observations.is_empty()
    }

    /// Could this outcome produce observation `(port, hdr)`?
    pub fn may_produce(&self, port: PortNo, hdr: &HeaderVec) -> bool {
        self.observations
            .iter()
            .any(|(p, h)| *p == port && h == hdr)
    }

    /// Deduplicated observation set.
    fn obs_set(&self) -> Vec<(PortNo, HeaderVec)> {
        let mut v = self.observations.to_vec();
        v.sort_by_key(|(p, h)| (*p, h.0));
        v.dedup();
        v
    }
}

/// Concrete (per-probe) distinguishability of two outcomes — the semantic
/// mirror of §3.4's `DiffOutcome`, used for verification.
pub fn outcomes_distinguishable(a: &ConcreteOutcome, b: &ConcreteOutcome) -> bool {
    use ForwardingKind::*;
    let sa = a.obs_set();
    let sb = b.obs_set();
    match (a.kind, b.kind) {
        // Both multicast: the full observation sets are visible.
        (Multicast, Multicast) => sa != sb,
        // Both ECMP: one arbitrary element of each set is visible; need
        // no possible collision.
        (Ecmp, Ecmp) => sa.iter().all(|x| !sb.contains(x)),
        // Mixed: all-of-M vs one-of-E.
        (Multicast, Ecmp) => mixed_distinguishable(&sa, &sb),
        (Ecmp, Multicast) => mixed_distinguishable(&sb, &sa),
    }
}

fn mixed_distinguishable(m: &[(PortNo, HeaderVec)], e: &[(PortNo, HeaderVec)]) -> bool {
    // An M-observation outside E's possible set is conclusive; otherwise
    // only counting (|M| != 1) separates "all of M" from "one of E".
    m.iter().any(|x| !e.contains(x)) || m.len() != 1
}

/// Classification verdicts when a probe observation arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Consistent only with the rule being in the data plane.
    Present,
    /// Consistent only with the rule being absent/misbehaving.
    Absent,
    /// Consistent with both (should not happen for a verified plan) or with
    /// neither (foreign/corrupted probe).
    Inconclusive,
}

/// Dynamic and steady probes share the one `u32` sequence space of the
/// probe metadata: the proxy tags steady probes with this bit and routes a
/// returning probe by it, so each monitor numbers its probes below it
/// ([`take_seq`]).
pub(crate) const STEADY_SEQ_BIT: u32 = 1 << 31;

/// Takes the next probe sequence number from `counter`, which wraps below
/// [`STEADY_SEQ_BIT`].
pub(crate) fn take_seq(counter: &mut u32) -> u32 {
    let seq = *counter;
    *counter = seq.wrapping_add(1) & !STEADY_SEQ_BIT;
    seq
}

/// A complete, verified probe plan for one rule.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbePlan {
    /// The rule under test.
    pub rule_id: RuleId,
    /// Its priority (for logs).
    pub priority: u16,
    /// The probe in abstract packet form (what to hand the crafter).
    pub fields: PacketFields,
    /// The header-space point of the probe *at the probed switch*.
    pub header: HeaderVec,
    /// Ingress port the probe must arrive on.
    pub in_port: u16,
    /// What the switch does when the rule IS installed.
    pub present: ConcreteOutcome,
    /// What the switch does when the rule is NOT installed.
    pub absent: ConcreteOutcome,
    /// True when present/absent can only be separated by counting received
    /// probes (§3.4 exception).
    pub uses_counting: bool,
}

impl ProbePlan {
    /// True when the plan relies on negative probing (§3.3): the
    /// present-state emits nothing, so only the *absence* of returning
    /// probes confirms the rule — with the false-positive caveat the paper
    /// describes.
    pub fn is_negative(&self) -> bool {
        self.present.is_drop()
    }

    /// Classifies a single received observation.
    pub fn classify(&self, port: PortNo, hdr: &HeaderVec) -> Verdict {
        let p = self.present.may_produce(port, hdr);
        let a = self.absent.may_produce(port, hdr);
        match (p, a) {
            (true, false) => Verdict::Present,
            (false, true) => Verdict::Absent,
            _ => Verdict::Inconclusive,
        }
    }
}

/// Semantic verification of a candidate probe (the generation-time oracle):
///
/// 1. the probe is processed by the probed rule (highest match in `table`);
/// 2. it satisfies every catch pin;
/// 3. the outcome with the rule differs observably from the outcome without
///    it.
///
/// Returns the (present, absent) outcomes on success.
pub fn verify_probe(
    table: &FlowTable,
    probed_id: RuleId,
    probe: &HeaderVec,
    pins: &[(monocle_openflow::Field, u64)],
) -> Option<(ConcreteOutcome, ConcreteOutcome)> {
    let probed = table.get(probed_id)?;
    // (2) pins
    for &(field, value) in pins {
        if probe.field(field) != value {
            return None;
        }
    }
    // (1) highest match
    let hit = table.lookup(probe)?;
    if hit.id != probed_id {
        return None;
    }
    let present = ConcreteOutcome::of(&probed.fwd, probe);
    // (3) outcome without the rule
    let absent = match table.lookup_excluding(probe, probed_id) {
        Some(r) => ConcreteOutcome::of(&r.fwd, probe),
        None => ConcreteOutcome::dropped(),
    };
    if outcomes_distinguishable(&present, &absent) {
        Some((present, absent))
    } else {
        None
    }
}

/// Converts a probe header into abstract packet fields plus ingress port.
pub fn header_to_probe(h: &HeaderVec) -> (u16, PacketFields) {
    let in_port = h.field(monocle_openflow::Field::InPort) as u16;
    (in_port, headervec_to_packet(h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use monocle_openflow::flowmatch::packet_to_headervec;
    use monocle_openflow::{Action, Match};

    fn hdr(dst: [u8; 4]) -> HeaderVec {
        packet_to_headervec(
            1,
            &PacketFields {
                nw_dst: dst,
                ..Default::default()
            },
        )
    }

    #[test]
    fn unicast_vs_unicast() {
        let f1 = Forwarding::compile(&[Action::Output(1)]).unwrap();
        let f2 = Forwarding::compile(&[Action::Output(2)]).unwrap();
        let p = hdr([1, 1, 1, 1]);
        let a = ConcreteOutcome::of(&f1, &p);
        let b = ConcreteOutcome::of(&f2, &p);
        assert!(outcomes_distinguishable(&a, &b));
        assert!(!outcomes_distinguishable(&a, &a));
    }

    #[test]
    fn unicast_vs_drop_and_negative_detection() {
        let f1 = Forwarding::compile(&[Action::Output(1)]).unwrap();
        let p = hdr([1, 1, 1, 1]);
        let fwd = ConcreteOutcome::of(&f1, &p);
        let drop = ConcreteOutcome::dropped();
        assert!(outcomes_distinguishable(&fwd, &drop));
        assert!(drop.is_drop());
    }

    #[test]
    fn rewrite_only_difference() {
        let plain = Forwarding::compile(&[Action::Output(1)]).unwrap();
        let marked = Forwarding::compile(&[Action::SetNwTos(0x2e), Action::Output(1)]).unwrap();
        // A probe whose ToS is already 0x2e is ambiguous; any other is fine.
        let p_clean = hdr([1, 1, 1, 1]);
        let a = ConcreteOutcome::of(&marked, &p_clean);
        let b = ConcreteOutcome::of(&plain, &p_clean);
        assert!(outcomes_distinguishable(&a, &b));
        let mut p_marked = p_clean;
        p_marked.set_field(monocle_openflow::Field::NwTos, 0x2e);
        let a = ConcreteOutcome::of(&marked, &p_marked);
        let b = ConcreteOutcome::of(&plain, &p_marked);
        assert!(!outcomes_distinguishable(&a, &b));
    }

    #[test]
    fn ecmp_collision_rules() {
        let e12 = Forwarding::compile(&[Action::SelectOutput(vec![1, 2])]).unwrap();
        let e23 = Forwarding::compile(&[Action::SelectOutput(vec![2, 3])]).unwrap();
        let e34 = Forwarding::compile(&[Action::SelectOutput(vec![3, 4])]).unwrap();
        let p = hdr([1, 1, 1, 1]);
        let a = ConcreteOutcome::of(&e12, &p);
        assert!(!outcomes_distinguishable(
            &a,
            &ConcreteOutcome::of(&e23, &p)
        ));
        assert!(outcomes_distinguishable(&a, &ConcreteOutcome::of(&e34, &p)));
    }

    #[test]
    fn mixed_counting() {
        let mc12 = Forwarding::compile(&[Action::Output(1), Action::Output(2)]).unwrap();
        let e12 = Forwarding::compile(&[Action::SelectOutput(vec![1, 2])]).unwrap();
        let u1 = Forwarding::compile(&[Action::Output(1)]).unwrap();
        let e13 = Forwarding::compile(&[Action::SelectOutput(vec![1, 3])]).unwrap();
        let p = hdr([1, 1, 1, 1]);
        // {1,2}-multicast vs {1,2}-ECMP: counting (2 vs 1 probes).
        assert!(outcomes_distinguishable(
            &ConcreteOutcome::of(&mc12, &p),
            &ConcreteOutcome::of(&e12, &p)
        ));
        // unicast {1} vs ECMP {1,3}: ambiguous.
        assert!(!outcomes_distinguishable(
            &ConcreteOutcome::of(&u1, &p),
            &ConcreteOutcome::of(&e13, &p)
        ));
    }

    #[test]
    fn verify_probe_end_to_end() {
        let mut t = FlowTable::new();
        let probed = t
            .add_rule(
                30,
                Match::any()
                    .with_nw_src([10, 0, 0, 1], 32)
                    .with_nw_dst([10, 0, 0, 2], 32),
                vec![Action::Output(1)],
            )
            .unwrap();
        t.add_rule(
            20,
            Match::any().with_nw_src([10, 0, 0, 1], 32),
            vec![Action::Output(2)],
        )
        .unwrap();
        t.add_rule(10, Match::any(), vec![Action::Output(1)])
            .unwrap();
        // The paper's probe: (10.0.0.1, 10.0.0.2).
        let good = packet_to_headervec(
            1,
            &PacketFields {
                nw_src: [10, 0, 0, 1],
                nw_dst: [10, 0, 0, 2],
                ..Default::default()
            },
        );
        let (present, absent) = verify_probe(&t, probed, &good, &[]).unwrap();
        assert_eq!(present.observations[0].0, 1);
        assert_eq!(absent.observations[0].0, 2);
        // A probe that misses the probed rule fails verification.
        let bad = hdr([9, 9, 9, 9]);
        assert!(verify_probe(&t, probed, &bad, &[]).is_none());
        // Pins are enforced.
        assert!(verify_probe(&t, probed, &good, &[(monocle_openflow::Field::DlVlan, 3)]).is_none());
    }

    #[test]
    fn classify_verdicts() {
        let p = hdr([1, 2, 3, 4]);
        let f1 = Forwarding::compile(&[Action::Output(1)]).unwrap();
        let f2 = Forwarding::compile(&[Action::Output(2)]).unwrap();
        let plan = ProbePlan {
            rule_id: RuleId(1),
            priority: 5,
            fields: PacketFields::default(),
            header: p,
            in_port: 1,
            present: ConcreteOutcome::of(&f1, &p),
            absent: ConcreteOutcome::of(&f2, &p),
            uses_counting: false,
        };
        assert!(!plan.is_negative());
        assert_eq!(plan.classify(1, &p), Verdict::Present);
        assert_eq!(plan.classify(2, &p), Verdict::Absent);
        assert_eq!(plan.classify(3, &p), Verdict::Inconclusive);
    }
}
