//! Property tests: craft/parse roundtrips over the abstract field space,
//! validity of everything the crafter emits, and probe-metadata robustness.

use monocle_packet::{
    craft_packet, ethertype, ipproto, parse_packet, validate_packet, MacAddr, PacketFields,
    ProbeMeta,
};
use proptest::prelude::*;

fn arb_fields() -> impl Strategy<Value = PacketFields> {
    (
        any::<u64>(),
        any::<u64>(),
        prop_oneof![Just(ethertype::IPV4), Just(ethertype::ARP), Just(0x88ccu16),],
        prop::option::of((0u16..4096, 0u8..8)),
        any::<[u8; 4]>(),
        any::<[u8; 4]>(),
        prop_oneof![
            Just(ipproto::TCP),
            Just(ipproto::UDP),
            Just(ipproto::ICMP),
            Just(47u8),
            Just(1u8),
        ],
        0u8..64,
        any::<u16>(),
        any::<u16>(),
    )
        .prop_map(
            |(src, dst, dl_type, vlan, nw_src, nw_dst, nw_proto, nw_tos, tp_src, tp_dst)| {
                PacketFields {
                    dl_src: MacAddr::from_u64(src & 0xffff_ffff_ffff),
                    dl_dst: MacAddr::from_u64(dst & 0xffff_ffff_ffff),
                    dl_type,
                    vlan,
                    nw_src,
                    nw_dst,
                    nw_proto,
                    nw_tos,
                    tp_src,
                    tp_dst,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn craft_parse_roundtrip(fields in arb_fields(), payload in prop::collection::vec(any::<u8>(), 0..256)) {
        let raw = craft_packet(&fields, &payload).unwrap();
        let (back, pl) = parse_packet(&raw).unwrap();
        prop_assert_eq!(back, fields.normalized());
        prop_assert_eq!(pl, payload);
    }

    #[test]
    fn crafted_packets_always_valid(fields in arb_fields()) {
        let raw = craft_packet(&fields, b"probe meta payload bytes").unwrap();
        prop_assert!(validate_packet(&raw).is_ok());
    }

    #[test]
    fn probe_meta_survives_crafting(fields in arb_fields(), switch_id in any::<u64>(), rule_id in any::<u64>()) {
        let meta = ProbeMeta {
            switch_id,
            rule_id,
            seq: 9,
        };
        let raw = craft_packet(&fields, &meta.encode()).unwrap();
        let (_, payload) = parse_packet(&raw).unwrap();
        prop_assert_eq!(ProbeMeta::decode(&payload), Some(meta));
    }

    #[test]
    fn single_bitflip_never_misattributes_meta(
        corrupt_at in 0usize..32,
        bit in 0u8..8,
        rule_id in any::<u64>(),
    ) {
        let meta = ProbeMeta { switch_id: 1, rule_id, seq: 0 };
        let mut enc = meta.encode().to_vec();
        enc[corrupt_at] ^= 1 << bit;
        // Either rejected, or (never) decoded to a different record.
        if let Some(d) = ProbeMeta::decode(&enc) {
            prop_assert_eq!(d, meta);
        }
    }
}
