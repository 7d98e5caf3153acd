//! Strategies shared by the table property tests.

use monocle_openflow::{Action, FlowMod, FlowModCommand, Match};
use proptest::prelude::*;

/// Narrow value pools so random rules overlap, shadow, and tie often.
pub fn arb_match() -> impl Strategy<Value = Match> {
    (
        prop::option::of(0u16..3),
        prop::option::of((0u32..8, 1u8..=32)),
        prop::option::of((0u32..8, 1u8..=32)),
        prop::option::of(prop_oneof![Just(6u8), Just(17u8)]),
        prop::option::of(0u16..4),
    )
        .prop_map(|(in_port, nw_src, nw_dst, nw_proto, tp_dst)| Match {
            in_port,
            // Spread the few src/dst values across the address MSBs so
            // different prefix lengths disagree on cared bits.
            nw_src: nw_src.map(|(v, p)| (v << 28 | v, p)),
            nw_dst: nw_dst.map(|(v, p)| (v << 28 | v, p)),
            nw_proto,
            tp_dst,
            ..Match::default()
        })
}

pub fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec(
        prop_oneof![
            (0u16..8).prop_map(Action::Output),
            (0u8..64).prop_map(Action::SetNwTos),
        ],
        0..3,
    )
}

/// One random flow_mod: command index, priority from a tiny pool (ties are
/// the point), match, actions.
pub fn arb_flowmod() -> impl Strategy<Value = FlowMod> {
    (0u8..5, 0u16..4, arb_match(), arb_actions()).prop_map(|(cmd, priority, match_, actions)| {
        FlowMod {
            command: match cmd {
                0 => FlowModCommand::Add,
                1 => FlowModCommand::Modify,
                2 => FlowModCommand::ModifyStrict,
                3 => FlowModCommand::Delete,
                _ => FlowModCommand::DeleteStrict,
            },
            priority,
            match_,
            actions,
            cookie: 0,
            idle_timeout: 0,
            hard_timeout: 0,
            check_overlap: false,
        }
    })
}
