//! Wire-codec property tests backing the transport layer.
//!
//! The incremental [`Framer`] trusts two codec guarantees: (1) `encode` →
//! `decode` is the identity on every [`OfMessage`] variant, and (2) `decode`
//! on truncated, mutated or garbage-prefixed input returns a [`CodecError`]
//! — it never panics. These properties pin both, plus `encode_into`'s
//! append-only contract and the framer's reassembly across arbitrary read
//! boundaries.

use monocle_openflow::messages::PacketInReason;
use monocle_openflow::wire::{self, CodecError};
use monocle_openflow::{Action, FlowMod, FlowModCommand, Framer, Match, OfMessage, PortNo};
use monocle_packet::MacAddr;
use proptest::prelude::*;

/// Full 12-tuple match: every field optionally present, values restricted to
/// what the OF1.0 wire format can represent losslessly (DSCP is 6 bits,
/// prefix lengths 1..=32 — a /0 decodes as wildcard).
fn arb_match() -> impl Strategy<Value = Match> {
    (
        (
            prop::option::of(0u16..48),
            prop::option::of(any::<u64>()),
            prop::option::of(any::<u64>()),
            prop::option::of(any::<u16>()),
            prop::option::of(0u16..4096),
            prop::option::of(0u8..8),
        ),
        (
            prop::option::of((any::<u32>(), 1u8..=32)),
            prop::option::of((any::<u32>(), 1u8..=32)),
            prop::option::of(prop_oneof![Just(1u8), Just(6u8), Just(17u8)]),
            prop::option::of(0u8..64),
            prop::option::of(any::<u16>()),
            prop::option::of(any::<u16>()),
        ),
    )
        .prop_map(
            |(
                (in_port, dl_src, dl_dst, dl_type, dl_vlan, dl_pcp),
                (nw_src, nw_dst, nw_proto, nw_tos, tp_src, tp_dst),
            )| Match {
                in_port,
                dl_src: dl_src.map(|m| MacAddr::from_u64(m & 0xffff_ffff_ffff)),
                dl_dst: dl_dst.map(|m| MacAddr::from_u64(m & 0xffff_ffff_ffff)),
                dl_type,
                dl_vlan,
                dl_pcp,
                nw_src,
                nw_dst,
                nw_proto,
                nw_tos,
                tp_src,
                tp_dst,
            },
        )
}

/// Every action variant the codec supports, including the ECMP vendor
/// extension and Enqueue (whose TLVs have non-trivial payload layouts).
fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec(
        prop_oneof![
            (0u16..48).prop_map(Action::Output),
            (any::<u16>(), any::<u32>()).prop_map(|(p, q)| Action::Enqueue(p, q)),
            prop::collection::vec(0u16..48, 0..6).prop_map(Action::SelectOutput),
            (0u16..4096).prop_map(Action::SetVlanVid),
            (0u8..8).prop_map(Action::SetVlanPcp),
            Just(Action::StripVlan),
            any::<u64>().prop_map(|m| Action::SetDlSrc(MacAddr::from_u64(m & 0xffff_ffff_ffff))),
            any::<u64>().prop_map(|m| Action::SetDlDst(MacAddr::from_u64(m & 0xffff_ffff_ffff))),
            any::<[u8; 4]>().prop_map(Action::SetNwSrc),
            any::<[u8; 4]>().prop_map(Action::SetNwDst),
            (0u8..64).prop_map(Action::SetNwTos),
            any::<u16>().prop_map(Action::SetTpSrc),
            any::<u16>().prop_map(Action::SetTpDst),
        ],
        0..6,
    )
}

fn arb_flowmod() -> impl Strategy<Value = FlowMod> {
    (
        arb_match(),
        arb_actions(),
        any::<u16>(),
        any::<u64>(),
        0u8..5,
        any::<bool>(),
    )
        .prop_map(
            |(m, actions, priority, cookie, cmd, check_overlap)| FlowMod {
                command: match cmd {
                    0 => FlowModCommand::Add,
                    1 => FlowModCommand::Modify,
                    2 => FlowModCommand::ModifyStrict,
                    3 => FlowModCommand::Delete,
                    _ => FlowModCommand::DeleteStrict,
                },
                match_: m,
                priority,
                actions,
                cookie,
                idle_timeout: 0,
                hard_timeout: 0,
                check_overlap,
            },
        )
}

/// Every [`OfMessage`] variant.
fn arb_message() -> impl Strategy<Value = OfMessage> {
    let payload = || prop::collection::vec(any::<u8>(), 0..120);
    prop_oneof![
        Just(OfMessage::Hello),
        payload().prop_map(OfMessage::EchoRequest),
        payload().prop_map(OfMessage::EchoReply),
        Just(OfMessage::FeaturesRequest),
        (any::<u64>(), 1u8..4, prop::collection::vec(0u16..256, 0..6)).prop_map(
            |(datapath_id, n_tables, ports)| OfMessage::FeaturesReply {
                datapath_id,
                n_tables,
                ports,
            }
        ),
        arb_flowmod().prop_map(OfMessage::FlowMod),
        Just(OfMessage::BarrierRequest),
        Just(OfMessage::BarrierReply),
        (0u16..48, arb_actions(), payload()).prop_map(|(in_port, actions, data)| {
            OfMessage::PacketOut {
                in_port,
                actions,
                data,
            }
        }),
        (any::<u32>(), 0u16..48, any::<bool>(), payload()).prop_map(
            |(buffer_id, in_port, action, data)| OfMessage::PacketIn {
                buffer_id,
                in_port,
                reason: if action {
                    PacketInReason::Action
                } else {
                    PacketInReason::NoMatch
                },
                data,
            }
        ),
        (arb_match(), any::<u16>(), any::<u64>(), any::<u8>()).prop_map(
            |(match_, priority, cookie, reason)| OfMessage::FlowRemoved {
                match_,
                priority,
                cookie,
                reason,
            }
        ),
        (any::<u16>(), any::<u16>())
            .prop_map(|(err_type, code)| OfMessage::Error { err_type, code }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// encode → decode is the identity on every message variant, consumes
    /// exactly the encoded length, and preserves the xid.
    #[test]
    fn roundtrip_all_variants(msg in arb_message(), xid in any::<u32>()) {
        let bytes = wire::encode(&msg, xid);
        let (back, got_xid, used) = wire::decode(&bytes).unwrap();
        prop_assert_eq!(back, msg);
        prop_assert_eq!(got_xid, xid);
        prop_assert_eq!(used, bytes.len());
    }

    /// `encode_into` appends exactly the frame `encode` returns and leaves
    /// whatever the buffer already held as it was.
    #[test]
    fn encode_into_appends_one_frame(
        prefix in prop::collection::vec(any::<u8>(), 0..64),
        msg in arb_message(),
        xid in any::<u32>(),
    ) {
        let mut out = prefix.clone();
        wire::encode_into(&mut out, &msg, xid);
        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&out[prefix.len()..], &wire::encode(&msg, xid)[..]);
    }

    /// Any strict prefix of a valid encoding is Truncated — never a panic,
    /// never a spurious success.
    #[test]
    fn truncated_prefix_is_truncated(msg in arb_message(), xid in any::<u32>(), frac in 0.0f64..1.0) {
        let bytes = wire::encode(&msg, xid);
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            prop_assert_eq!(
                wire::decode(&bytes[..cut]).unwrap_err(),
                CodecError::Truncated
            );
        }
    }

    /// decode on arbitrary garbage returns (it may error, it may even parse
    /// if the bytes happen to form a frame) — it must never panic.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = wire::decode(&bytes);
    }

    /// decode on a valid frame with random byte corruption never panics.
    /// Corrupting action TLV lengths is the historical panic path.
    #[test]
    fn corrupted_frame_never_panics(
        msg in arb_message(),
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 1..8),
    ) {
        let mut bytes = wire::encode(&msg, 1);
        for (pos, val) in flips {
            let idx = pos % bytes.len();
            bytes[idx] = val;
        }
        let _ = wire::decode(&bytes);
    }

    /// A non-OF1.0 version byte is always rejected as BadVersion.
    #[test]
    fn bad_version_rejected(msg in arb_message(), v in 2u8..=255) {
        let mut bytes = wire::encode(&msg, 1);
        bytes[0] = v;
        prop_assert_eq!(wire::decode(&bytes).unwrap_err(), CodecError::BadVersion(v));
    }

    /// The framer reassembles a multi-message stream identically no matter
    /// how the bytes are chunked, including 1-byte reads.
    #[test]
    fn framer_arbitrary_chunking(
        msgs in prop::collection::vec(arb_message(), 1..8),
        chunks in prop::collection::vec(1usize..24, 4..64),
        one_byte in any::<bool>(),
    ) {
        let mut stream = Vec::new();
        let mut want = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            let xid = i as u32;
            stream.extend_from_slice(&wire::encode(m, xid));
            want.push((m.clone(), xid));
        }
        let mut fr = Framer::new();
        let mut got = Vec::new();
        let mut off = 0;
        let mut ci = 0;
        while off < stream.len() {
            let n = if one_byte { 1 } else { chunks[ci % chunks.len()] };
            ci += 1;
            let end = (off + n).min(stream.len());
            fr.push(&stream[off..end]);
            off = end;
            while let Some(frame) = fr.next_frame().unwrap() {
                got.push(frame);
            }
        }
        prop_assert_eq!(got, want);
        prop_assert_eq!(fr.buffered(), 0);
    }

    /// Port constants stay inside the OF1.0 reserved-port range.
    #[test]
    fn reserved_ports_sane(_x in Just(())) {
        prop_assert!(monocle_openflow::messages::PORT_TABLE > 0xff00u16 as PortNo);
        prop_assert!(monocle_openflow::messages::PORT_NONE == 0xffff);
    }
}
