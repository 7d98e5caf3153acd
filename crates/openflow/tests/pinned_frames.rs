//! Pinned OF1.0 frames: one encoding per `OfMessage` variant and per action
//! type, written out as hex. The round-trip properties in `prop_wire` pass
//! for an encoder and a decoder that are wrong in the same way; these bytes
//! do not move unless the wire format does.

use monocle_openflow::messages::{PacketInReason, PORT_NONE};
use monocle_openflow::wire;
use monocle_openflow::{Action, FlowMod, FlowModCommand, Match, OfMessage};
use monocle_packet::MacAddr;

fn flowmod_with(action: Action) -> OfMessage {
    OfMessage::FlowMod(FlowMod::add(100, Match::any(), vec![action]))
}

fn full_match() -> Match {
    Match {
        in_port: Some(3),
        dl_src: Some(MacAddr([1, 2, 3, 4, 5, 6])),
        dl_dst: Some(MacAddr([7, 8, 9, 10, 11, 12])),
        dl_type: Some(0x0800),
        dl_vlan: Some(100),
        dl_pcp: Some(5),
        nw_src: Some((0x0a00_0001, 32)),
        nw_dst: Some((0x0a00_0000, 24)),
        nw_proto: Some(6),
        nw_tos: Some(0x2e),
        tp_src: Some(1234),
        tp_dst: Some(80),
    }
}

/// `(name, message, xid, the frame as hex)`.
fn cases() -> Vec<(&'static str, OfMessage, u32, &'static str)> {
    vec![
        ("hello", OfMessage::Hello, 1, "0100000800000001"),
        ("echo_request", OfMessage::EchoRequest(vec![1, 2, 3]), 2, "0102000b00000002010203"),
        ("echo_reply", OfMessage::EchoReply(vec![]), 3, "0103000800000003"),
        ("features_request", OfMessage::FeaturesRequest, 4, "0105000800000004"),
        (
            "features_reply",
            OfMessage::FeaturesReply {
                datapath_id: 0xdead_beef_0000_0001,
                n_tables: 1,
                ports: vec![1, 0x0102],
            },
            5,
            "0106008000000005deadbeef0000000100000100010000000000000000000fff0001020000000001706f72743100000000000000000000000000000000000000000000000000000000000000000000000102020000000102706f7274323538000000000000000000000000000000000000000000000000000000000000000000",
        ),
        (
            "flow_mod",
            OfMessage::FlowMod(FlowMod {
                command: FlowModCommand::ModifyStrict,
                match_: full_match(),
                priority: 999,
                actions: vec![Action::SetNwTos(5), Action::Output(7)],
                cookie: 42,
                idle_timeout: 30,
                hard_timeout: 300,
                check_overlap: true,
            }),
            6,
            "010e0058000000060002000000030102030405060708090a0b0c006405000800b80600000a0000010a00000004d20050000000000000002a0002001e012c03e7ffffffffffff00020008000814000000000000080007ffff",
        ),
        ("barrier_request", OfMessage::BarrierRequest, 7, "0112000800000007"),
        ("barrier_reply", OfMessage::BarrierReply, 8, "0113000800000008"),
        (
            "packet_out",
            OfMessage::PacketOut {
                in_port: PORT_NONE,
                actions: vec![Action::SetVlanVid(0xf03), Action::Output(2)],
                data: vec![0xaa, 0xbb, 0xcc, 0xdd, 0xee],
            },
            9,
            "010d002500000009ffffffffffff0010000100080f030000000000080002ffffaabbccddee",
        ),
        (
            "packet_in",
            OfMessage::PacketIn {
                buffer_id: 0xffff_ffff,
                in_port: 7,
                reason: PacketInReason::Action,
                data: vec![0x55; 6],
            },
            10,
            "010a00180000000affffffff000600070100555555555555",
        ),
        (
            "flow_removed",
            OfMessage::FlowRemoved {
                match_: Match::any().with_nw_dst([10, 2, 0, 0], 16),
                priority: 77,
                cookie: 0x00c0_0c1e,
                reason: 2,
            },
            11,
            "010b00580000000b003420ef000000000000000000000000000000000000080000000000000000000a020000000000000000000000c00c1e004d020000000000000000000000000000000000000000000000000000000000",
        ),
        (
            "error",
            OfMessage::Error {
                err_type: 3,
                code: 1,
            },
            12,
            "0101000c0000000c00030001",
        ),
        (
            "action_output",
            flowmod_with(Action::Output(4)),
            20,
            "010e005000000014003820ff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000064ffffffffffff0000000000080004ffff",
        ),
        (
            "action_enqueue",
            flowmod_with(Action::Enqueue(4, 9)),
            21,
            "010e005800000015003820ff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000064ffffffffffff0000000b0010000400000000000000000009",
        ),
        (
            "action_select_output_padded",
            flowmod_with(Action::SelectOutput(vec![9])),
            22,
            "010e005800000016003820ff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000064ffffffffffff0000ffff00104d4e434c0001000900000000",
        ),
        (
            "action_select_output_unpadded",
            flowmod_with(Action::SelectOutput(vec![1, 2, 3])),
            23,
            "010e005800000017003820ff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000064ffffffffffff0000ffff00104d4e434c0003000100020003",
        ),
        (
            "action_set_vlan_vid",
            flowmod_with(Action::SetVlanVid(300)),
            24,
            "010e005000000018003820ff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000064ffffffffffff000000010008012c0000",
        ),
        (
            "action_set_vlan_pcp",
            flowmod_with(Action::SetVlanPcp(6)),
            25,
            "010e005000000019003820ff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000064ffffffffffff00000002000806000000",
        ),
        (
            "action_strip_vlan",
            flowmod_with(Action::StripVlan),
            26,
            "010e00500000001a003820ff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000064ffffffffffff00000003000800000000",
        ),
        (
            "action_set_dl_src",
            flowmod_with(Action::SetDlSrc(MacAddr([1, 2, 3, 4, 5, 6]))),
            27,
            "010e00580000001b003820ff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000064ffffffffffff000000040010010203040506000000000000",
        ),
        (
            "action_set_dl_dst",
            flowmod_with(Action::SetDlDst(MacAddr([6, 5, 4, 3, 2, 1]))),
            28,
            "010e00580000001c003820ff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000064ffffffffffff000000050010060504030201000000000000",
        ),
        (
            "action_set_nw_src",
            flowmod_with(Action::SetNwSrc([10, 0, 0, 1])),
            29,
            "010e00500000001d003820ff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000064ffffffffffff0000000600080a000001",
        ),
        (
            "action_set_nw_dst",
            flowmod_with(Action::SetNwDst([10, 0, 0, 2])),
            30,
            "010e00500000001e003820ff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000064ffffffffffff0000000700080a000002",
        ),
        (
            "action_set_nw_tos",
            flowmod_with(Action::SetNwTos(0x1f)),
            31,
            "010e00500000001f003820ff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000064ffffffffffff0000000800087c000000",
        ),
        (
            "action_set_tp_src",
            flowmod_with(Action::SetTpSrc(1)),
            32,
            "010e005000000020003820ff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000064ffffffffffff00000009000800010000",
        ),
        (
            "action_set_tp_dst",
            flowmod_with(Action::SetTpDst(443)),
            33,
            "010e005000000021003820ff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000064ffffffffffff0000000a000801bb0000",
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn every_message_and_action_encodes_to_its_pinned_frame() {
    for (name, msg, xid, want) in cases() {
        assert_eq!(hex(&wire::encode(&msg, xid)), want, "{name}");
    }
}

#[test]
fn every_pinned_frame_decodes_to_its_message() {
    for (name, msg, xid, frame) in cases() {
        let bytes = unhex(frame);
        assert_eq!(wire::decode(&bytes), Ok((msg, xid, bytes.len())), "{name}");
    }
}
