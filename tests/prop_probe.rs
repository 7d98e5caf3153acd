//! Cross-crate property tests: the heart of the reproduction's correctness
//! argument. For random flow tables, every probe the generator emits must
//! pass the *semantic* oracle (simulating the table with and without the
//! probed rule), both encodings must agree, and every generated probe must
//! survive the full wire round trip.

use monocle::encode::{CatchSpec, EncodingStyle};
use monocle::generator::{generate_probe, GeneratorConfig, ProbeError};
use monocle::plan::verify_probe;
use monocle_openflow::flowmatch::packet_to_headervec;
use monocle_openflow::{Action, FlowMod, FlowTable, Match, Rule, RuleId, Ternary};
use monocle_packet::{craft_packet, parse_packet, validate_packet};
use proptest::prelude::*;

/// Random matches over a deliberately small value space so rules overlap.
fn arb_match() -> impl Strategy<Value = Match> {
    (
        prop::option::of((0u8..4, 0u8..4, prop_oneof![Just(16u8), Just(24), Just(32)])),
        prop::option::of((0u8..4, 0u8..4, prop_oneof![Just(16u8), Just(24), Just(32)])),
        prop::option::of(prop_oneof![Just(6u8), Just(17u8)]),
        prop::option::of(prop_oneof![Just(22u16), Just(80), Just(443)]),
    )
        .prop_map(|(src, dst, proto, port)| {
            let mut m = Match::any();
            if let Some((a, b, plen)) = src {
                m = m.with_nw_src([10, a, b, 1], plen);
            }
            if let Some((a, b, plen)) = dst {
                m = m.with_nw_dst([10, a, b, 2], plen);
            }
            if let Some(p) = proto {
                m = m.with_nw_proto(p);
            }
            if let Some(p) = port {
                // Well-formed per OF 1.0.1 (the §5.2 lemma's precondition):
                // a transport match pins the protocol (and thus dl_type).
                m = m.with_tp_dst(p);
                if m.nw_proto.is_none() {
                    m = m.with_nw_proto(6);
                }
            }
            m
        })
}

fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
    prop_oneof![
        Just(vec![]),                                                        // drop
        (1u16..5).prop_map(|p| vec![Action::Output(p)]),                     // unicast
        (0u8..8).prop_map(|t| vec![Action::SetNwTos(t), Action::Output(1)]), // rewrite
        Just(vec![Action::Output(1), Action::Output(2)]),                    // multicast
        Just(vec![Action::SelectOutput(vec![3, 4])]),                        // ECMP
    ]
}

fn arb_table() -> impl Strategy<Value = FlowTable> {
    prop::collection::vec((arb_match(), arb_actions(), 1u16..8), 1..12).prop_map(|rules| {
        let mut t = FlowTable::new();
        for (m, a, p) in rules {
            let _ = t.add_rule(p, m, a);
        }
        t
    })
}

// ---- A header-space oracle for `Hidden` that shares no code with the
// encoder: ternaries as sets of header points, cut apart bit by bit. ----

/// Is there a header both ternaries match? (They agree on every bit both
/// care about.)
fn intersects(a: &Ternary, b: &Ternary) -> bool {
    a.care.and(&b.care).and(&a.value.xor(&b.value)).is_zero()
}

/// Does every header `inner` matches also match `outer`?
fn contains(outer: &Ternary, inner: &Ternary) -> bool {
    outer.care.and(&inner.care.not()).is_zero() && intersects(outer, inner)
}

/// `a` minus `b` as disjoint ternaries, HSA-style: split `a` on each bit
/// `b` cares about and `a` does not. The half that disagrees with `b`
/// there lies outside `b` and is kept; the other half is split further,
/// and what is left of it at the end lies inside `b`.
fn difference(a: Ternary, b: &Ternary) -> Vec<Ternary> {
    if !intersects(&a, b) {
        return vec![a];
    }
    let mut pieces = Vec::new();
    let mut rest = a;
    for bit in b.care.and(&a.care.not()).iter_ones() {
        let mut outside = rest;
        outside.care.set(bit, true);
        outside.value.set(bit, !b.value.get(bit));
        pieces.push(outside);
        rest.care.set(bit, true);
        rest.value.set(bit, b.value.get(bit));
    }
    pieces
}

/// Is `piece` inside the union of `covers`? Whatever one cover leaves of
/// it must be inside the union of the others.
fn covered(piece: Ternary, covers: &[Ternary]) -> bool {
    let overlapping: Vec<Ternary> = covers
        .iter()
        .filter(|c| intersects(c, &piece))
        .copied()
        .collect();
    if overlapping.iter().any(|c| contains(c, &piece)) {
        return true;
    }
    let Some((first, others)) = overlapping.split_first() else {
        return false;
    };
    difference(piece, first)
        .into_iter()
        .all(|rest| covered(rest, others))
}

/// The oracle's verdict: is nothing left of `rule` once every other rule of
/// priority ≥ its own is taken away (§3.5, "completely hidden")?
fn hidden_by_cover(table: &FlowTable, rule: &Rule) -> bool {
    let covers: Vec<Ternary> = table
        .rules()
        .iter()
        .filter(|r| r.id != rule.id && r.priority >= rule.priority)
        .map(|r| r.tern)
        .collect();
    covered(rule.tern, &covers)
}

#[test]
fn the_difference_oracle_cuts_exactly() {
    let dst = |a: [u8; 4], plen| Match::any().with_nw_dst(a, plen).ternary();
    let (wide, narrow) = (dst([10, 0, 0, 0], 16), dst([10, 0, 1, 0], 24));
    let outside = difference(wide, &narrow);
    assert_eq!(outside.len(), 8, "one piece per bit the /24 adds");
    for (i, p) in outside.iter().enumerate() {
        assert!(contains(&wide, p) && !intersects(p, &narrow));
        assert!(outside[i + 1..].iter().all(|q| !intersects(p, q)));
    }
    assert!(difference(narrow, &wide).is_empty());
    assert_eq!(difference(narrow, &dst([10, 1, 0, 0], 16)), vec![narrow]);
    // Two halves of a /16 cover it; one half does not.
    let halves = [dst([10, 0, 0, 0], 17), dst([10, 0, 128, 0], 17)];
    assert!(covered(wide, &halves));
    assert!(!covered(wide, &halves[..1]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Soundness: every generated probe satisfies the semantic oracle, and
    /// its plan's outcomes equal the oracle's.
    #[test]
    fn generated_probes_are_sound(table in arb_table()) {
        let cfg = GeneratorConfig::default();
        let catch = CatchSpec::default();
        for rule in table.rules() {
            match generate_probe(&table, rule.id, &catch, &cfg) {
                Ok(plan) => {
                    let oracle = verify_probe(&table, rule.id, &plan.header, &[]);
                    prop_assert!(oracle.is_some(),
                        "plan for {:?} fails the oracle", rule.match_);
                    let (present, absent) = oracle.unwrap();
                    prop_assert_eq!(&plan.present, &present);
                    prop_assert_eq!(&plan.absent, &absent);
                }
                Err(ProbeError::Hidden | ProbeError::Indistinguishable) => {}
                Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            }
        }
    }

    /// Encoding ablation: the paper's ITE-chain encoding and the linear
    /// implication encoding must agree on feasibility for every rule.
    #[test]
    fn encodings_agree(table in arb_table()) {
        let catch = CatchSpec::default();
        let imp = GeneratorConfig::default();
        let ite = GeneratorConfig { style: EncodingStyle::IteChain, ..GeneratorConfig::default() };
        for rule in table.rules() {
            let a = generate_probe(&table, rule.id, &catch, &imp);
            let b = generate_probe(&table, rule.id, &catch, &ite);
            prop_assert_eq!(a.is_ok(), b.is_ok(),
                "encodings disagree on {:?}: imp={:?} ite={:?}",
                rule.match_, a.as_ref().err(), b.as_ref().err());
        }
    }

    /// Wire round trip: the probe the plan describes is exactly what a
    /// switch parses back off the wire.
    #[test]
    fn probes_survive_the_wire(table in arb_table()) {
        let cfg = GeneratorConfig::default();
        for rule in table.rules() {
            if let Ok(plan) = generate_probe(&table, rule.id, &CatchSpec::default(), &cfg) {
                let frame = craft_packet(&plan.fields, b"prop-probe").unwrap();
                prop_assert!(validate_packet(&frame).is_ok());
                let (fields, payload) = parse_packet(&frame).unwrap();
                prop_assert_eq!(payload, b"prop-probe".to_vec());
                prop_assert_eq!(packet_to_headervec(plan.in_port, &fields), plan.header);
            }
        }
    }

    /// Monotonicity of Hidden: a rule the generator calls Hidden really has
    /// no packet that reaches it (checked against the table lookup for the
    /// plan's own sample point and for the rule's canonical sample).
    #[test]
    fn hidden_rules_are_never_hit(table in arb_table()) {
        let cfg = GeneratorConfig::default();
        for rule in table.rules() {
            if let Err(ProbeError::Hidden) = generate_probe(&table, rule.id, &CatchSpec::default(), &cfg) {
                // The rule's own sample packet must be claimed by another
                // rule of priority >= its own (equal priority + overlap is
                // undefined behavior per the OF spec, which the generator
                // conservatively treats as hiding).
                let sample = rule.tern.sample_packet();
                let hit = table.lookup(&sample).expect("sample matches the rule itself");
                prop_assert!(hit.id != rule.id || table.rules().iter().any(
                        |r| r.id != rule.id
                            && r.priority == rule.priority
                            && r.tern.overlaps(&rule.tern)),
                    "generator said Hidden but the rule wins its own sample");
            }
        }
    }

    /// `Hidden` is exactly "the rule minus the union of the rules of
    /// priority ≥ its own is empty", decided by the header-space oracle
    /// above rather than by a solver.
    #[test]
    fn hidden_iff_the_higher_rules_leave_nothing_of_it(table in arb_table()) {
        let cfg = GeneratorConfig::default();
        for rule in table.rules() {
            let hidden = generate_probe(&table, rule.id, &CatchSpec::default(), &cfg)
                == Err(ProbeError::Hidden);
            prop_assert_eq!(hidden, hidden_by_cover(&table, rule),
                "generator and oracle disagree on {:?}", rule.match_);
        }
    }

    /// The monotonicity the engine's `Hidden` certificates rest on: a rule
    /// stateless generation calls Hidden stays Hidden after any rule is
    /// added (an ADD that replaces an entry puts the same cover back) and
    /// after any action-only modify, the hidden rule's own included.
    #[test]
    fn hidden_survives_additions_and_action_changes(
        table in arb_table(),
        edits in prop::collection::vec(
            (any::<bool>(), 1u16..8, arb_match(), arb_actions(), any::<usize>()),
            1..6,
        ),
    ) {
        let (cfg, catch) = (GeneratorConfig::default(), CatchSpec::default());
        let mut table = table;
        let hidden: Vec<RuleId> = table
            .rules()
            .iter()
            .filter(|r| generate_probe(&table, r.id, &catch, &cfg) == Err(ProbeError::Hidden))
            .map(|r| r.id)
            .collect();
        for (add, priority, m, actions, i) in edits {
            let fm = if add {
                FlowMod::add(priority, m, actions)
            } else {
                let r = &table.rules()[i % table.len()];
                FlowMod::modify_strict(r.priority, r.match_, actions)
            };
            table.apply(&fm).unwrap();
            for &id in hidden.iter().filter(|&&id| table.get(id).is_some()) {
                prop_assert_eq!(generate_probe(&table, id, &catch, &cfg), Err(ProbeError::Hidden),
                    "after {:?}", fm);
            }
        }
    }
}
