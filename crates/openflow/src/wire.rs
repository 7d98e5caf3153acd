//! OpenFlow 1.0 binary wire codec.
//!
//! Implements the `ofp_*` structures of the OpenFlow 1.0.1 specification for
//! every message in [`OfMessage`]: fixed 8-byte header (version 0x01), the
//! 40-byte `ofp_match` with its wildcards bitmap and CIDR-encoded IP masks,
//! and the action TLVs. The ECMP extension action travels as a vendor action
//! (`OFPAT_VENDOR`) under the vendor id `0x4d4e434c` ("MNCL").
//!
//! [`encode_into`] appends exactly one frame to a caller's buffer (a
//! connection's write buffer, say) and never touches the bytes already in
//! it; [`encode`] is the same frame in a `Vec` of its own.
//!
//! The codec is pinned by hex frames and exercised by roundtrip property
//! tests; the simulator runs every control-plane message through it so that
//! Monocle-the-proxy parses actual bytes, as the real system would.

use crate::action::{Action, ActionProgram, PortNo};
use crate::flowmatch::Match;
use crate::messages::{FlowMod, FlowModCommand, OfMessage, PacketInReason};
use monocle_packet::MacAddr;

/// OpenFlow protocol version byte.
pub const OFP_VERSION: u8 = 0x01;

/// Vendor id used for the ECMP `SelectOutput` extension action.
pub const MNCL_VENDOR_ID: u32 = 0x4d4e_434c;

mod msg_type {
    pub const HELLO: u8 = 0;
    pub const ERROR: u8 = 1;
    pub const ECHO_REQUEST: u8 = 2;
    pub const ECHO_REPLY: u8 = 3;
    pub const FEATURES_REQUEST: u8 = 5;
    pub const FEATURES_REPLY: u8 = 6;
    pub const PACKET_IN: u8 = 10;
    pub const FLOW_REMOVED: u8 = 11;
    pub const PACKET_OUT: u8 = 13;
    pub const FLOW_MOD: u8 = 14;
    pub const BARRIER_REQUEST: u8 = 18;
    pub const BARRIER_REPLY: u8 = 19;
}

mod wildcard {
    pub const IN_PORT: u32 = 1 << 0;
    pub const DL_VLAN: u32 = 1 << 1;
    pub const DL_SRC: u32 = 1 << 2;
    pub const DL_DST: u32 = 1 << 3;
    pub const DL_TYPE: u32 = 1 << 4;
    pub const NW_PROTO: u32 = 1 << 5;
    pub const TP_SRC: u32 = 1 << 6;
    pub const TP_DST: u32 = 1 << 7;
    pub const NW_SRC_SHIFT: u32 = 8;
    pub const NW_DST_SHIFT: u32 = 14;
    pub const DL_VLAN_PCP: u32 = 1 << 20;
    pub const NW_TOS: u32 = 1 << 21;
}

mod action_type {
    pub const OUTPUT: u16 = 0;
    pub const SET_VLAN_VID: u16 = 1;
    pub const SET_VLAN_PCP: u16 = 2;
    pub const STRIP_VLAN: u16 = 3;
    pub const SET_DL_SRC: u16 = 4;
    pub const SET_DL_DST: u16 = 5;
    pub const SET_NW_SRC: u16 = 6;
    pub const SET_NW_DST: u16 = 7;
    pub const SET_NW_TOS: u16 = 8;
    pub const SET_TP_SRC: u16 = 9;
    pub const SET_TP_DST: u16 = 10;
    pub const ENQUEUE: u16 = 11;
    pub const VENDOR: u16 = 0xffff;
}

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Not enough bytes for the advertised structure.
    Truncated,
    /// Unknown or unsupported message type.
    UnknownType(u8),
    /// Unknown action type or malformed action TLV.
    BadAction(u16),
    /// Header length field is inconsistent.
    BadLength,
    /// Version byte is not OF1.0.
    BadVersion(u8),
    /// Unknown flow_mod command.
    BadCommand(u16),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "message truncated"),
            CodecError::UnknownType(t) => write!(f, "unknown message type {t}"),
            CodecError::BadAction(t) => write!(f, "bad action type {t}"),
            CodecError::BadLength => write!(f, "bad length field"),
            CodecError::BadVersion(v) => write!(f, "bad version {v:#x}"),
            CodecError::BadCommand(c) => write!(f, "bad flow_mod command {c}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encodes a message with the given transaction id into OF1.0 wire bytes.
pub fn encode(msg: &OfMessage, xid: u32) -> Vec<u8> {
    // Room for a FlowMod with a few actions or a probe PacketOut.
    let mut out = Vec::with_capacity(128);
    encode_into(&mut out, msg, xid);
    out
}

/// Appends the OF1.0 frame of `msg` with transaction id `xid` to `out`.
///
/// Exactly one frame is appended and the bytes already in `out` are never
/// touched: the header and body are written in place, and the header's
/// `length` (and a `PacketOut`'s `actions_len`) are patched inside the new
/// frame once its size is known.
pub fn encode_into(out: &mut Vec<u8>, msg: &OfMessage, xid: u32) {
    let start = out.len();
    out.extend_from_slice(&[OFP_VERSION, 0, 0, 0]); // type and length patched below
    out.put_u32(xid);
    let ty = match msg {
        OfMessage::Hello => msg_type::HELLO,
        OfMessage::EchoRequest(data) => {
            out.extend_from_slice(data);
            msg_type::ECHO_REQUEST
        }
        OfMessage::EchoReply(data) => {
            out.extend_from_slice(data);
            msg_type::ECHO_REPLY
        }
        OfMessage::FeaturesRequest => msg_type::FEATURES_REQUEST,
        OfMessage::FeaturesReply {
            datapath_id,
            n_tables,
            ports,
        } => {
            out.put_u64(*datapath_id);
            out.put_u32(256); // n_buffers
            out.put_u8(*n_tables);
            out.put_zeros(3); // pad
            out.put_u32(0); // capabilities
            out.put_u32(0xfff); // supported actions
            for &p in ports {
                put_phy_port(out, p);
            }
            msg_type::FEATURES_REPLY
        }
        OfMessage::FlowMod(fm) => {
            put_match(out, &fm.match_);
            out.put_u64(fm.cookie);
            out.put_u16(match fm.command {
                FlowModCommand::Add => 0,
                FlowModCommand::Modify => 1,
                FlowModCommand::ModifyStrict => 2,
                FlowModCommand::Delete => 3,
                FlowModCommand::DeleteStrict => 4,
            });
            out.put_u16(fm.idle_timeout);
            out.put_u16(fm.hard_timeout);
            out.put_u16(fm.priority);
            out.put_u32(0xffff_ffff); // buffer_id: none
            out.put_u16(0xffff); // out_port: none
            out.put_u16(if fm.check_overlap { 0x2 } else { 0 }); // flags
            put_actions(out, &fm.actions);
            msg_type::FLOW_MOD
        }
        OfMessage::BarrierRequest => msg_type::BARRIER_REQUEST,
        OfMessage::BarrierReply => msg_type::BARRIER_REPLY,
        OfMessage::PacketOut {
            in_port,
            actions,
            data,
        } => {
            out.put_u32(0xffff_ffff); // buffer_id: none
            out.put_u16(*in_port);
            let at = out.len();
            out.put_u16(0); // actions_len, patched below
            put_actions(out, actions);
            patch_len(out, at, at + 2);
            out.extend_from_slice(data);
            msg_type::PACKET_OUT
        }
        OfMessage::PacketIn {
            buffer_id,
            in_port,
            reason,
            data,
        } => {
            out.put_u32(*buffer_id);
            out.put_u16(data.len() as u16);
            out.put_u16(*in_port);
            out.put_u8(match reason {
                PacketInReason::NoMatch => 0,
                PacketInReason::Action => 1,
            });
            out.put_u8(0); // pad
            out.extend_from_slice(data);
            msg_type::PACKET_IN
        }
        OfMessage::FlowRemoved {
            match_,
            priority,
            cookie,
            reason,
        } => {
            put_match(out, match_);
            out.put_u64(*cookie);
            out.put_u16(*priority);
            out.put_u8(*reason);
            out.put_u8(0); // pad
            out.put_u32(0); // duration_sec
            out.put_u32(0); // duration_nsec
            out.put_u16(0); // idle_timeout
            out.put_zeros(2); // pad
            out.put_u64(0); // packet_count
            out.put_u64(0); // byte_count
            msg_type::FLOW_REMOVED
        }
        OfMessage::Error { err_type, code } => {
            out.put_u16(*err_type);
            out.put_u16(*code);
            msg_type::ERROR
        }
    };
    out[start + 1] = ty;
    patch_len(out, start + 2, start);
}

/// Big-endian appends to a frame under construction.
trait Put {
    fn put_u8(&mut self, v: u8);
    fn put_u16(&mut self, v: u16);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
    fn put_zeros(&mut self, n: usize);
}

impl Put for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_zeros(&mut self, n: usize) {
        self.resize(self.len() + n, 0);
    }
}

/// Writes the length of `out[from..]` into the big-endian u16 length field
/// at `out[field..field + 2]` (truncated to 16 bits, as the field is).
fn patch_len(out: &mut [u8], field: usize, from: usize) {
    let len = (out.len() - from) as u16;
    out[field..field + 2].copy_from_slice(&len.to_be_bytes());
}

/// Big-endian reads off the front of a slice. The callers check the length
/// before they read: a read past the end panics.
trait Get {
    fn get_bytes<const N: usize>(&mut self) -> [u8; N];
    fn skip(&mut self, n: usize);
    fn get_u8(&mut self) -> u8 {
        u8::from_be_bytes(self.get_bytes())
    }
    fn get_u16(&mut self) -> u16 {
        u16::from_be_bytes(self.get_bytes())
    }
    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.get_bytes())
    }
    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.get_bytes())
    }
}

impl Get for &[u8] {
    fn get_bytes<const N: usize>(&mut self) -> [u8; N] {
        let (head, rest) = self.split_first_chunk().expect("length checked");
        *self = rest;
        *head
    }
    fn skip(&mut self, n: usize) {
        *self = &self[n..];
    }
}

/// Decodes one message from `buf`; returns `(msg, xid, bytes_consumed)`.
pub fn decode(buf: &[u8]) -> Result<(OfMessage, u32, usize), CodecError> {
    if buf.len() < 8 {
        return Err(CodecError::Truncated);
    }
    let version = buf[0];
    if version != OFP_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let ty = buf[1];
    let len = u16::from_be_bytes([buf[2], buf[3]]) as usize;
    if len < 8 {
        return Err(CodecError::BadLength);
    }
    if buf.len() < len {
        return Err(CodecError::Truncated);
    }
    let xid = u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let mut body = &buf[8..len];
    let msg = match ty {
        msg_type::HELLO => OfMessage::Hello,
        msg_type::ECHO_REQUEST => OfMessage::EchoRequest(body.to_vec()),
        msg_type::ECHO_REPLY => OfMessage::EchoReply(body.to_vec()),
        msg_type::FEATURES_REQUEST => OfMessage::FeaturesRequest,
        msg_type::FEATURES_REPLY => {
            if body.len() < 24 {
                return Err(CodecError::Truncated);
            }
            let datapath_id = body.get_u64();
            let _n_buffers = body.get_u32();
            let n_tables = body.get_u8();
            body.skip(3 + 4 + 4);
            let mut ports = Vec::new();
            while body.len() >= 48 {
                ports.push(get_phy_port(&mut body));
            }
            OfMessage::FeaturesReply {
                datapath_id,
                n_tables,
                ports,
            }
        }
        msg_type::FLOW_MOD => {
            let match_ = get_match(&mut body)?;
            if body.len() < 24 {
                return Err(CodecError::Truncated);
            }
            let cookie = body.get_u64();
            let command_raw = body.get_u16();
            let command = match command_raw {
                0 => FlowModCommand::Add,
                1 => FlowModCommand::Modify,
                2 => FlowModCommand::ModifyStrict,
                3 => FlowModCommand::Delete,
                4 => FlowModCommand::DeleteStrict,
                other => return Err(CodecError::BadCommand(other)),
            };
            let idle_timeout = body.get_u16();
            let hard_timeout = body.get_u16();
            let priority = body.get_u16();
            let _buffer_id = body.get_u32();
            let _out_port = body.get_u16();
            let flags = body.get_u16();
            let actions = get_actions(&mut body)?;
            OfMessage::FlowMod(FlowMod {
                command,
                match_,
                priority,
                actions,
                cookie,
                idle_timeout,
                hard_timeout,
                check_overlap: flags & 0x2 != 0,
            })
        }
        msg_type::BARRIER_REQUEST => OfMessage::BarrierRequest,
        msg_type::BARRIER_REPLY => OfMessage::BarrierReply,
        msg_type::PACKET_OUT => {
            if body.len() < 8 {
                return Err(CodecError::Truncated);
            }
            let _buffer_id = body.get_u32();
            let in_port = body.get_u16();
            let actions_len = body.get_u16() as usize;
            if body.len() < actions_len {
                return Err(CodecError::Truncated);
            }
            let mut acts = &body[..actions_len];
            let actions = get_actions(&mut acts)?;
            body.skip(actions_len);
            OfMessage::PacketOut {
                in_port,
                actions,
                data: body.to_vec(),
            }
        }
        msg_type::PACKET_IN => {
            if body.len() < 10 {
                return Err(CodecError::Truncated);
            }
            let buffer_id = body.get_u32();
            let _total_len = body.get_u16();
            let in_port = body.get_u16();
            let reason = match body.get_u8() {
                0 => PacketInReason::NoMatch,
                _ => PacketInReason::Action,
            };
            body.skip(1);
            OfMessage::PacketIn {
                buffer_id,
                in_port,
                reason,
                data: body.to_vec(),
            }
        }
        msg_type::FLOW_REMOVED => {
            let match_ = get_match(&mut body)?;
            if body.len() < 40 {
                return Err(CodecError::Truncated);
            }
            let cookie = body.get_u64();
            let priority = body.get_u16();
            let reason = body.get_u8();
            OfMessage::FlowRemoved {
                match_,
                priority,
                cookie,
                reason,
            }
        }
        msg_type::ERROR => {
            if body.len() < 4 {
                return Err(CodecError::Truncated);
            }
            let err_type = body.get_u16();
            let code = body.get_u16();
            OfMessage::Error { err_type, code }
        }
        other => return Err(CodecError::UnknownType(other)),
    };
    Ok((msg, xid, len))
}

fn put_phy_port(out: &mut Vec<u8>, port: PortNo) {
    out.put_u16(port);
    out.extend_from_slice(&[0x02, 0, 0, 0, (port >> 8) as u8, port as u8]); // hw_addr
    let name = format!("port{port}");
    let mut name_bytes = [0u8; 16];
    name_bytes[..name.len().min(15)].copy_from_slice(&name.as_bytes()[..name.len().min(15)]);
    out.extend_from_slice(&name_bytes);
    out.put_u32(0); // config
    out.put_u32(0); // state
    out.put_u32(0); // curr
    out.put_u32(0); // advertised
    out.put_u32(0); // supported
    out.put_u32(0); // peer
}

fn get_phy_port(body: &mut &[u8]) -> PortNo {
    let port = body.get_u16();
    body.skip(46);
    port
}

/// Serializes the 40-byte `ofp_match`.
fn put_match(out: &mut Vec<u8>, m: &Match) {
    let mut w: u32 = 0;
    if m.in_port.is_none() {
        w |= wildcard::IN_PORT;
    }
    if m.dl_vlan.is_none() {
        w |= wildcard::DL_VLAN;
    }
    if m.dl_src.is_none() {
        w |= wildcard::DL_SRC;
    }
    if m.dl_dst.is_none() {
        w |= wildcard::DL_DST;
    }
    if m.dl_type.is_none() {
        w |= wildcard::DL_TYPE;
    }
    if m.nw_proto.is_none() {
        w |= wildcard::NW_PROTO;
    }
    if m.tp_src.is_none() {
        w |= wildcard::TP_SRC;
    }
    if m.tp_dst.is_none() {
        w |= wildcard::TP_DST;
    }
    let nw_src_wild = match m.nw_src {
        Some((_, plen)) => u32::from(32 - plen),
        None => 32,
    };
    let nw_dst_wild = match m.nw_dst {
        Some((_, plen)) => u32::from(32 - plen),
        None => 32,
    };
    w |= nw_src_wild << wildcard::NW_SRC_SHIFT;
    w |= nw_dst_wild << wildcard::NW_DST_SHIFT;
    if m.dl_pcp.is_none() {
        w |= wildcard::DL_VLAN_PCP;
    }
    if m.nw_tos.is_none() {
        w |= wildcard::NW_TOS;
    }
    out.put_u32(w);
    out.put_u16(m.in_port.unwrap_or(0));
    out.extend_from_slice(&m.dl_src.unwrap_or_default().0);
    out.extend_from_slice(&m.dl_dst.unwrap_or_default().0);
    out.put_u16(m.dl_vlan.unwrap_or(0));
    out.put_u8(m.dl_pcp.unwrap_or(0));
    out.put_u8(0); // pad
    out.put_u16(m.dl_type.unwrap_or(0));
    out.put_u8(m.nw_tos.unwrap_or(0) << 2); // wire carries DSCP<<2
    out.put_u8(m.nw_proto.unwrap_or(0));
    out.put_zeros(2); // pad
    out.put_u32(m.nw_src.map(|(a, _)| a).unwrap_or(0));
    out.put_u32(m.nw_dst.map(|(a, _)| a).unwrap_or(0));
    out.put_u16(m.tp_src.unwrap_or(0));
    out.put_u16(m.tp_dst.unwrap_or(0));
}

/// Parses the 40-byte `ofp_match`.
fn get_match(body: &mut &[u8]) -> Result<Match, CodecError> {
    if body.len() < 40 {
        return Err(CodecError::Truncated);
    }
    let w = body.get_u32();
    let in_port = body.get_u16();
    let dl_src = body.get_bytes();
    let dl_dst = body.get_bytes();
    let dl_vlan = body.get_u16();
    let dl_pcp = body.get_u8();
    body.skip(1);
    let dl_type = body.get_u16();
    let nw_tos = body.get_u8() >> 2;
    let nw_proto = body.get_u8();
    body.skip(2);
    let nw_src = body.get_u32();
    let nw_dst = body.get_u32();
    let tp_src = body.get_u16();
    let tp_dst = body.get_u16();
    let nw_src_wild = (w >> wildcard::NW_SRC_SHIFT) & 0x3f;
    let nw_dst_wild = (w >> wildcard::NW_DST_SHIFT) & 0x3f;
    Ok(Match {
        in_port: (w & wildcard::IN_PORT == 0).then_some(in_port),
        dl_src: (w & wildcard::DL_SRC == 0).then_some(MacAddr(dl_src)),
        dl_dst: (w & wildcard::DL_DST == 0).then_some(MacAddr(dl_dst)),
        dl_type: (w & wildcard::DL_TYPE == 0).then_some(dl_type),
        dl_vlan: (w & wildcard::DL_VLAN == 0).then_some(dl_vlan),
        dl_pcp: (w & wildcard::DL_VLAN_PCP == 0).then_some(dl_pcp),
        nw_src: (nw_src_wild < 32).then_some((nw_src, (32 - nw_src_wild) as u8)),
        nw_dst: (nw_dst_wild < 32).then_some((nw_dst, (32 - nw_dst_wild) as u8)),
        nw_proto: (w & wildcard::NW_PROTO == 0).then_some(nw_proto),
        nw_tos: (w & wildcard::NW_TOS == 0).then_some(nw_tos),
        tp_src: (w & wildcard::TP_SRC == 0).then_some(tp_src),
        tp_dst: (w & wildcard::TP_DST == 0).then_some(tp_dst),
    })
}

fn put_actions(out: &mut Vec<u8>, actions: &ActionProgram) {
    for a in actions {
        match a {
            Action::Output(p) => {
                out.put_u16(action_type::OUTPUT);
                out.put_u16(8);
                out.put_u16(*p);
                out.put_u16(0xffff); // max_len for controller sends
            }
            Action::Enqueue(p, q) => {
                out.put_u16(action_type::ENQUEUE);
                out.put_u16(16);
                out.put_u16(*p);
                out.put_zeros(6);
                out.put_u32(*q);
            }
            Action::SelectOutput(ports) => {
                // Vendor action: header(8) + count(2) + ports + pad to 8.
                let raw = 8 + 2 + 2 * ports.len();
                let padded = raw.div_ceil(8) * 8;
                out.put_u16(action_type::VENDOR);
                out.put_u16(padded as u16);
                out.put_u32(MNCL_VENDOR_ID);
                out.put_u16(ports.len() as u16);
                for &p in ports {
                    out.put_u16(p);
                }
                out.put_zeros(padded - raw);
            }
            Action::SetVlanVid(v) => {
                out.put_u16(action_type::SET_VLAN_VID);
                out.put_u16(8);
                out.put_u16(*v);
                out.put_zeros(2);
            }
            Action::SetVlanPcp(p) => {
                out.put_u16(action_type::SET_VLAN_PCP);
                out.put_u16(8);
                out.put_u8(*p);
                out.put_zeros(3);
            }
            Action::StripVlan => {
                out.put_u16(action_type::STRIP_VLAN);
                out.put_u16(8);
                out.put_zeros(4);
            }
            Action::SetDlSrc(m) => {
                out.put_u16(action_type::SET_DL_SRC);
                out.put_u16(16);
                out.extend_from_slice(&m.0);
                out.put_zeros(6);
            }
            Action::SetDlDst(m) => {
                out.put_u16(action_type::SET_DL_DST);
                out.put_u16(16);
                out.extend_from_slice(&m.0);
                out.put_zeros(6);
            }
            Action::SetNwSrc(a4) => {
                out.put_u16(action_type::SET_NW_SRC);
                out.put_u16(8);
                out.extend_from_slice(a4);
            }
            Action::SetNwDst(a4) => {
                out.put_u16(action_type::SET_NW_DST);
                out.put_u16(8);
                out.extend_from_slice(a4);
            }
            Action::SetNwTos(t) => {
                out.put_u16(action_type::SET_NW_TOS);
                out.put_u16(8);
                out.put_u8(*t << 2);
                out.put_zeros(3);
            }
            Action::SetTpSrc(p) => {
                out.put_u16(action_type::SET_TP_SRC);
                out.put_u16(8);
                out.put_u16(*p);
                out.put_zeros(2);
            }
            Action::SetTpDst(p) => {
                out.put_u16(action_type::SET_TP_DST);
                out.put_u16(8);
                out.put_u16(*p);
                out.put_zeros(2);
            }
        }
    }
}

fn get_actions(body: &mut &[u8]) -> Result<ActionProgram, CodecError> {
    let mut actions = Vec::new();
    while body.len() >= 4 {
        let ty = body.get_u16();
        let len = body.get_u16() as usize;
        if len < 8 || !len.is_multiple_of(8) || body.len() < len - 4 {
            return Err(CodecError::BadAction(ty));
        }
        // Per-type minimum payload (beyond the 4-byte TLV header): a
        // malformed length that passes the 8/multiple-of-8 gate above must
        // not reach the field getters (they panic on underrun).
        let min_payload = match ty {
            action_type::ENQUEUE => 12,
            action_type::SET_DL_SRC | action_type::SET_DL_DST => 12,
            action_type::VENDOR => 6,
            _ => 4,
        };
        if len - 4 < min_payload {
            return Err(CodecError::BadAction(ty));
        }
        let mut payload = &body[..len - 4];
        body.skip(len - 4);
        let action = match ty {
            action_type::OUTPUT => {
                let p = payload.get_u16();
                let _max_len = payload.get_u16();
                Action::Output(p)
            }
            action_type::ENQUEUE => {
                let p = payload.get_u16();
                payload.skip(6);
                let q = payload.get_u32();
                Action::Enqueue(p, q)
            }
            action_type::VENDOR => {
                let vendor = payload.get_u32();
                if vendor != MNCL_VENDOR_ID {
                    return Err(CodecError::BadAction(ty));
                }
                let n = payload.get_u16() as usize;
                if payload.len() < 2 * n {
                    return Err(CodecError::BadAction(ty));
                }
                let ports = (0..n).map(|_| payload.get_u16()).collect();
                Action::SelectOutput(ports)
            }
            action_type::SET_VLAN_VID => Action::SetVlanVid(payload.get_u16()),
            action_type::SET_VLAN_PCP => Action::SetVlanPcp(payload.get_u8()),
            action_type::STRIP_VLAN => Action::StripVlan,
            action_type::SET_DL_SRC => Action::SetDlSrc(MacAddr(payload.get_bytes())),
            action_type::SET_DL_DST => Action::SetDlDst(MacAddr(payload.get_bytes())),
            action_type::SET_NW_SRC => Action::SetNwSrc(payload.get_bytes()),
            action_type::SET_NW_DST => Action::SetNwDst(payload.get_bytes()),
            action_type::SET_NW_TOS => Action::SetNwTos(payload.get_u8() >> 2),
            action_type::SET_TP_SRC => Action::SetTpSrc(payload.get_u16()),
            action_type::SET_TP_DST => Action::SetTpDst(payload.get_u16()),
            other => return Err(CodecError::BadAction(other)),
        };
        actions.push(action);
    }
    Ok(actions)
}

/// Incremental reassembler for OF1.0 byte streams.
///
/// TCP delivers bytes at arbitrary boundaries; `Framer` buffers partial
/// reads and yields complete messages as they become available. Feed raw
/// bytes with [`Framer::push`] and drain decoded frames with
/// [`Framer::next_frame`] until it returns `Ok(None)` (need more bytes).
///
/// Error discipline: a frame that is merely *incomplete* is never an error —
/// `next_frame` returns `Ok(None)` and waits for more input. Errors are
/// reserved for unrecoverable streams: a bad version or length field in a
/// buffered header, or a decode failure on a frame whose advertised length
/// is fully buffered. After an error the stream offset is poisoned and the
/// connection should be dropped; resynchronising inside a corrupt
/// length-prefixed stream is not possible.
#[derive(Debug, Default)]
pub struct Framer {
    buf: Vec<u8>,
    start: usize,
}

/// Compact the internal buffer once the dead prefix exceeds this.
const FRAMER_COMPACT_AT: usize = 16 * 1024;

impl Framer {
    /// Creates an empty framer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered bytes not yet consumed by a decoded frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Returns the next complete message, `Ok(None)` if more bytes are
    /// needed, or a fatal [`CodecError`] if the stream is corrupt.
    pub fn next_frame(&mut self) -> Result<Option<(OfMessage, u32)>, CodecError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 8 {
            self.maybe_compact();
            return Ok(None);
        }
        // With a full header buffered, version/length sanity failures are
        // fatal now — waiting for more bytes cannot fix them.
        if avail[0] != OFP_VERSION {
            return Err(CodecError::BadVersion(avail[0]));
        }
        let len = u16::from_be_bytes([avail[2], avail[3]]) as usize;
        if len < 8 {
            return Err(CodecError::BadLength);
        }
        if avail.len() < len {
            self.maybe_compact();
            return Ok(None);
        }
        let (msg, xid, used) = decode(&avail[..len])?;
        self.start += used;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some((msg, xid)))
    }

    fn maybe_compact(&mut self) {
        if self.start >= FRAMER_COMPACT_AT {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: OfMessage) {
        let bytes = encode(&msg, 0x1234_5678);
        let (back, xid, consumed) = decode(&bytes).unwrap();
        assert_eq!(back, msg);
        assert_eq!(xid, 0x1234_5678);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn simple_messages() {
        roundtrip(OfMessage::Hello);
        roundtrip(OfMessage::BarrierRequest);
        roundtrip(OfMessage::BarrierReply);
        roundtrip(OfMessage::FeaturesRequest);
        roundtrip(OfMessage::EchoRequest(vec![1, 2, 3]));
        roundtrip(OfMessage::EchoReply(vec![]));
        roundtrip(OfMessage::Error {
            err_type: 3,
            code: 1,
        });
    }

    #[test]
    fn features_reply_with_ports() {
        roundtrip(OfMessage::FeaturesReply {
            datapath_id: 0xdead_beef_0000_0001,
            n_tables: 1,
            ports: vec![1, 2, 3, 48],
        });
    }

    #[test]
    fn flow_mod_full_match() {
        let m = Match {
            in_port: Some(3),
            dl_src: Some(MacAddr([1, 2, 3, 4, 5, 6])),
            dl_dst: Some(MacAddr([7, 8, 9, 10, 11, 12])),
            dl_type: Some(0x0800),
            dl_vlan: Some(100),
            dl_pcp: Some(5),
            nw_src: Some((0x0a000001, 32)),
            nw_dst: Some((0x0a000000, 24)),
            nw_proto: Some(6),
            nw_tos: Some(0x2e),
            tp_src: Some(1234),
            tp_dst: Some(80),
        };
        let fm = FlowMod {
            command: FlowModCommand::Add,
            match_: m,
            priority: 999,
            actions: vec![
                Action::SetNwTos(5),
                Action::SetDlDst(MacAddr([9; 6])),
                Action::Output(7),
            ],
            cookie: 42,
            idle_timeout: 30,
            hard_timeout: 300,
            check_overlap: true,
        };
        roundtrip(OfMessage::FlowMod(fm));
    }

    #[test]
    fn flow_mod_wildcard_match() {
        roundtrip(OfMessage::FlowMod(FlowMod::add(
            1,
            Match::any(),
            vec![Action::Output(1)],
        )));
    }

    #[test]
    fn flow_mod_all_commands() {
        for cmd in [
            FlowModCommand::Add,
            FlowModCommand::Modify,
            FlowModCommand::ModifyStrict,
            FlowModCommand::Delete,
            FlowModCommand::DeleteStrict,
        ] {
            let fm = FlowMod {
                command: cmd,
                match_: Match::any().with_tp_dst(443),
                priority: 5,
                actions: vec![],
                cookie: 0,
                idle_timeout: 0,
                hard_timeout: 0,
                check_overlap: false,
            };
            roundtrip(OfMessage::FlowMod(fm));
        }
    }

    #[test]
    fn ecmp_vendor_action() {
        roundtrip(OfMessage::FlowMod(FlowMod::add(
            7,
            Match::any(),
            vec![Action::SelectOutput(vec![1, 2, 3, 4, 5])],
        )));
        // Odd count exercises padding.
        roundtrip(OfMessage::FlowMod(FlowMod::add(
            7,
            Match::any().with_tp_src(53),
            vec![Action::SelectOutput(vec![9])],
        )));
    }

    #[test]
    fn all_set_actions() {
        roundtrip(OfMessage::FlowMod(FlowMod::add(
            2,
            Match::any(),
            vec![
                Action::SetVlanVid(300),
                Action::SetVlanPcp(6),
                Action::StripVlan,
                Action::SetDlSrc(MacAddr([1; 6])),
                Action::SetDlDst(MacAddr([2; 6])),
                Action::SetNwSrc([10, 0, 0, 1]),
                Action::SetNwDst([10, 0, 0, 2]),
                Action::SetNwTos(0x1f),
                Action::SetTpSrc(1),
                Action::SetTpDst(2),
                Action::Enqueue(4, 9),
                Action::Output(4),
            ],
        )));
    }

    #[test]
    fn packet_out_in() {
        roundtrip(OfMessage::PacketOut {
            in_port: 0xffff,
            actions: vec![Action::Output(3)],
            data: vec![0xaa; 60],
        });
        roundtrip(OfMessage::PacketIn {
            buffer_id: 0xffff_ffff,
            in_port: 7,
            reason: PacketInReason::Action,
            data: vec![0x55; 90],
        });
    }

    #[test]
    fn flow_removed() {
        roundtrip(OfMessage::FlowRemoved {
            match_: Match::any().with_nw_dst([10, 2, 0, 0], 16),
            priority: 77,
            cookie: 0x00c0_0c1e,
            reason: 2,
        });
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode(&[0u8; 4]).unwrap_err(), CodecError::Truncated);
        let mut bytes = encode(&OfMessage::Hello, 1);
        bytes[0] = 0x04; // OF1.3 version
        assert_eq!(decode(&bytes).unwrap_err(), CodecError::BadVersion(0x04));
        let mut bytes = encode(&OfMessage::Hello, 1);
        bytes[1] = 99;
        assert_eq!(decode(&bytes).unwrap_err(), CodecError::UnknownType(99));
    }

    #[test]
    fn stream_of_messages() {
        // decode() reports consumed length so a byte stream can be walked.
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode(&OfMessage::Hello, 1));
        stream.extend_from_slice(&encode(&OfMessage::BarrierRequest, 2));
        stream.extend_from_slice(&encode(
            &OfMessage::FlowMod(FlowMod::add(1, Match::any(), vec![Action::Output(2)])),
            3,
        ));
        let mut off = 0;
        let mut xids = Vec::new();
        while off < stream.len() {
            let (_, xid, used) = decode(&stream[off..]).unwrap();
            xids.push(xid);
            off += used;
        }
        assert_eq!(xids, vec![1, 2, 3]);
    }

    #[test]
    fn malformed_action_lengths_error_not_panic() {
        // Hand-craft a flow_mod whose single action advertises a length that
        // passes the >=8/multiple-of-8 gate but underfills the payload the
        // action type requires.
        for ty in [
            action_type::ENQUEUE,
            action_type::SET_DL_SRC,
            action_type::SET_DL_DST,
            action_type::VENDOR,
        ] {
            let mut bytes = encode(
                &OfMessage::FlowMod(FlowMod::add(1, Match::any(), vec![])),
                9,
            );
            // Append an 8-byte action TLV of the victim type.
            bytes.extend_from_slice(&ty.to_be_bytes());
            bytes.extend_from_slice(&8u16.to_be_bytes());
            bytes.extend_from_slice(&[0u8; 4]);
            let total = bytes.len() as u16;
            bytes[2..4].copy_from_slice(&total.to_be_bytes());
            assert_eq!(decode(&bytes).unwrap_err(), CodecError::BadAction(ty));
        }
    }

    fn framer_stream() -> (Vec<u8>, Vec<u32>) {
        let msgs = [
            OfMessage::Hello,
            OfMessage::FlowMod(FlowMod::add(
                10,
                Match::any().with_tp_dst(80),
                vec![Action::SetVlanVid(7), Action::Output(2)],
            )),
            OfMessage::PacketIn {
                buffer_id: 0xffff_ffff,
                in_port: 3,
                reason: PacketInReason::Action,
                data: vec![0xab; 64],
            },
            OfMessage::BarrierRequest,
            OfMessage::EchoRequest(vec![1, 2, 3, 4, 5]),
        ];
        let mut stream = Vec::new();
        let mut xids = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            let xid = 100 + i as u32;
            stream.extend_from_slice(&encode(m, xid));
            xids.push(xid);
        }
        (stream, xids)
    }

    #[test]
    fn framer_one_byte_at_a_time() {
        let (stream, want) = framer_stream();
        let mut fr = Framer::new();
        let mut got = Vec::new();
        for b in stream {
            fr.push(&[b]);
            while let Some((_, xid)) = fr.next_frame().unwrap() {
                got.push(xid);
            }
        }
        assert_eq!(got, want);
        assert_eq!(fr.buffered(), 0);
    }

    #[test]
    fn framer_random_chunks() {
        let (stream, want) = framer_stream();
        // Deterministic LCG so the chunking is reproducible.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..50 {
            let mut fr = Framer::new();
            let mut got = Vec::new();
            let mut off = 0;
            while off < stream.len() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let n = 1 + (state >> 33) as usize % 17;
                let end = (off + n).min(stream.len());
                fr.push(&stream[off..end]);
                off = end;
                while let Some((_, xid)) = fr.next_frame().unwrap() {
                    got.push(xid);
                }
            }
            assert_eq!(got, want);
            assert_eq!(fr.buffered(), 0);
        }
    }

    #[test]
    fn framer_bad_version_is_fatal() {
        let mut fr = Framer::new();
        fr.push(&[0x04, 0, 0, 8, 0, 0, 0, 1]);
        assert_eq!(fr.next_frame().unwrap_err(), CodecError::BadVersion(0x04));
    }

    #[test]
    fn framer_bad_length_is_fatal() {
        let mut fr = Framer::new();
        fr.push(&[0x01, 0, 0, 4, 0, 0, 0, 1]);
        assert_eq!(fr.next_frame().unwrap_err(), CodecError::BadLength);
    }

    #[test]
    fn framer_waits_for_partial_header() {
        let mut fr = Framer::new();
        fr.push(&[0x01, 0, 0]);
        assert_eq!(fr.next_frame().unwrap(), None);
        assert_eq!(fr.buffered(), 3);
    }
}
