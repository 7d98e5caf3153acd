//! OpenFlow 1.0 action programs and their forwarding/rewrite semantics.
//!
//! The paper's theory (§3.1–§3.4) views a rule's behavior as a *forwarding
//! set* of output ports plus a per-port rewrite. OpenFlow expresses this as
//! an ordered action list where `SetField` actions mutate the packet and
//! each `Output` emits a copy in the *current* (partially rewritten) state —
//! which is exactly how per-port rewrites arise. This module compiles an
//! action list into a [`Forwarding`] summary: a list of [`Leg`]s (port +
//! cumulative bit-level [`Rewrite`]) tagged multicast or ECMP.
//!
//! ECMP is not expressible in stock OF1.0; the paper notes its techniques
//! "apply to other types of matches and actions (e.g., multiple tables,
//! action groups, ECMP)". We model it with the [`Action::SelectOutput`]
//! extension (equivalent to an OF1.3 select group).

use crate::flowmatch::VLAN_NONE;
use crate::headerspace::{Field, HeaderVec};
use monocle_packet::MacAddr;

/// Port numbers: physical ports are small integers; the controller port is
/// the OF1.0 `OFPP_CONTROLLER` constant.
pub type PortNo = u16;

/// `OFPP_CONTROLLER`: send to the controller as a PacketIn.
pub const PORT_CONTROLLER: PortNo = 0xfffd;

/// `OFPP_FLOOD`: flood to all ports except ingress.
pub const PORT_FLOOD: PortNo = 0xfffb;

/// `OFPP_IN_PORT`: send back out the ingress port.
pub const PORT_IN_PORT: PortNo = 0xfff8;

/// One OpenFlow 1.0 action (plus the ECMP extension).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Action {
    /// Emit the packet (in its current rewrite state) on a port.
    Output(PortNo),
    /// Emit on a port through a queue (treated as `Output` for forwarding).
    Enqueue(PortNo, u32),
    /// ECMP extension: emit on exactly one of the ports, chosen by flow hash.
    SelectOutput(Vec<PortNo>),
    /// Set Ethernet source.
    SetDlSrc(MacAddr),
    /// Set Ethernet destination.
    SetDlDst(MacAddr),
    /// Set VLAN ID (adds a tag to untagged packets).
    SetVlanVid(u16),
    /// Set VLAN priority.
    SetVlanPcp(u8),
    /// Remove the VLAN tag.
    StripVlan,
    /// Set IPv4 source.
    SetNwSrc([u8; 4]),
    /// Set IPv4 destination.
    SetNwDst([u8; 4]),
    /// Set IP DSCP (6 bits).
    SetNwTos(u8),
    /// Set transport source port.
    SetTpSrc(u16),
    /// Set transport destination port.
    SetTpDst(u16),
}

/// An ordered list of actions; the empty list is the OpenFlow drop rule.
pub type ActionProgram = Vec<Action>;

/// A bit-level header rewrite: bits in `mask` are forced to `value`.
///
/// This is the `BitRewrite` function of §3.2 in closed form: bit `i` of the
/// output is `value[i]` when `mask[i]` is set, else the input bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rewrite {
    /// Bits that are overwritten.
    pub mask: HeaderVec,
    /// Values for overwritten bits (zero outside `mask`, canonical form).
    pub value: HeaderVec,
}

impl Rewrite {
    /// The identity rewrite.
    pub const IDENTITY: Rewrite = Rewrite {
        mask: HeaderVec::ZERO,
        value: HeaderVec::ZERO,
    };

    /// Applies the rewrite to a header-space point.
    #[inline]
    pub fn apply(&self, pkt: &HeaderVec) -> HeaderVec {
        pkt.and(&self.mask.not()).or(&self.value)
    }

    /// Sequential composition: `self` then `later` (later wins on conflicts).
    pub fn then(&self, later: &Rewrite) -> Rewrite {
        Rewrite {
            mask: self.mask.or(&later.mask),
            value: self.value.and(&later.mask.not()).or(&later.value),
        }
    }

    /// Adds a whole-field set to the rewrite (later set wins).
    pub fn set_field(&mut self, f: Field, v: u64) {
        let off = f.offset();
        let w = f.width();
        for i in 0..w {
            self.mask.set(off + i, true);
        }
        let mut val = HeaderVec::ZERO;
        val.set_bits(off, w, v);
        // Clear previous value bits for this field, then OR the new ones.
        let mut field_mask = HeaderVec::ZERO;
        for i in 0..w {
            field_mask.set(off + i, true);
        }
        self.value = self.value.and(&field_mask.not()).or(&val);
    }

    /// True when the rewrite touches any bit of `f`.
    pub fn touches(&self, f: Field) -> bool {
        let off = f.offset();
        (0..f.width()).any(|i| self.mask.get(off + i))
    }

    /// True for the identity rewrite.
    pub fn is_identity(&self) -> bool {
        self.mask.is_zero()
    }
}

/// Whether a rule forwards to all legs (multicast) or one of them (ECMP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForwardingKind {
    /// Packet is emitted on *every* leg. Unicast = 1 leg, drop = 0 legs.
    Multicast,
    /// Packet is emitted on *exactly one* leg chosen by the switch.
    Ecmp,
}

/// One output leg: port plus the cumulative rewrite applied before emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Leg {
    /// Output port.
    pub port: PortNo,
    /// Rewrite in effect when the packet leaves on this leg
    /// (`RewriteOnPort` of §3.4).
    pub rewrite: Rewrite,
}

/// Compiled forwarding behavior of an action program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Forwarding {
    /// Multicast (all legs) or ECMP (one leg).
    pub kind: ForwardingKind,
    /// The legs; empty = drop.
    pub legs: Vec<Leg>,
}

/// Errors from compiling an action program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionError {
    /// `SelectOutput` mixed with plain `Output`, or used more than once —
    /// outside the §3.4 rule taxonomy.
    MixedEcmp,
    /// `SelectOutput` with an empty port list.
    EmptySelect,
}

impl std::fmt::Display for ActionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ActionError::MixedEcmp => write!(f, "SelectOutput cannot be mixed with Output"),
            ActionError::EmptySelect => write!(f, "SelectOutput needs at least one port"),
        }
    }
}

impl std::error::Error for ActionError {}

impl Forwarding {
    /// A drop rule's forwarding.
    pub fn drop() -> Forwarding {
        Forwarding {
            kind: ForwardingKind::Multicast,
            legs: Vec::new(),
        }
    }

    /// Compiles an action program into its forwarding summary.
    pub fn compile(actions: &[Action]) -> Result<Forwarding, ActionError> {
        let mut rewrite = Rewrite::IDENTITY;
        let mut legs: Vec<Leg> = Vec::new();
        let mut ecmp: Option<Vec<Leg>> = None;
        for a in actions {
            match a {
                Action::Output(p) | Action::Enqueue(p, _) => {
                    if ecmp.is_some() {
                        return Err(ActionError::MixedEcmp);
                    }
                    legs.push(Leg { port: *p, rewrite });
                }
                Action::SelectOutput(ports) => {
                    if ecmp.is_some() || !legs.is_empty() {
                        return Err(ActionError::MixedEcmp);
                    }
                    if ports.is_empty() {
                        return Err(ActionError::EmptySelect);
                    }
                    ecmp = Some(ports.iter().map(|&port| Leg { port, rewrite }).collect());
                }
                Action::SetDlSrc(m) => rewrite.set_field(Field::DlSrc, m.to_u64()),
                Action::SetDlDst(m) => rewrite.set_field(Field::DlDst, m.to_u64()),
                Action::SetVlanVid(v) => rewrite.set_field(Field::DlVlan, u64::from(*v & 0x0fff)),
                Action::SetVlanPcp(p) => rewrite.set_field(Field::DlPcp, u64::from(*p & 0x7)),
                Action::StripVlan => {
                    rewrite.set_field(Field::DlVlan, u64::from(VLAN_NONE));
                    rewrite.set_field(Field::DlPcp, 0);
                }
                Action::SetNwSrc(a4) => {
                    rewrite.set_field(Field::NwSrc, u64::from(u32::from_be_bytes(*a4)))
                }
                Action::SetNwDst(a4) => {
                    rewrite.set_field(Field::NwDst, u64::from(u32::from_be_bytes(*a4)))
                }
                Action::SetNwTos(t) => rewrite.set_field(Field::NwTos, u64::from(*t & 0x3f)),
                Action::SetTpSrc(p) => rewrite.set_field(Field::TpSrc, u64::from(*p)),
                Action::SetTpDst(p) => rewrite.set_field(Field::TpDst, u64::from(*p)),
            }
        }
        match ecmp {
            Some(legs) => Ok(Forwarding {
                kind: ForwardingKind::Ecmp,
                legs,
            }),
            None => Ok(Forwarding {
                kind: ForwardingKind::Multicast,
                legs,
            }),
        }
    }

    /// The forwarding set `F` of §3.4 (deduplicated output ports).
    pub fn port_set(&self) -> Vec<PortNo> {
        let mut ports: Vec<PortNo> = self.legs.iter().map(|l| l.port).collect();
        ports.sort_unstable();
        ports.dedup();
        ports
    }

    /// Is this a drop rule (empty forwarding set)?
    pub fn is_drop(&self) -> bool {
        self.legs.is_empty()
    }

    /// Rewrite observed on `port` (`RewriteOnPort` of §3.4). For multicast
    /// rules with several legs to the same port, the first leg wins (the
    /// simulator emits all legs; the theory only consults this for
    /// distinguishability and treats duplicate-port legs conservatively).
    pub fn rewrite_on_port(&self, port: PortNo) -> Option<&Rewrite> {
        self.legs
            .iter()
            .find(|l| l.port == port)
            .map(|l| &l.rewrite)
    }

    /// Does any leg's rewrite touch field `f`? Used to enforce the "rules
    /// must not rewrite the probe tag field" requirement of §3.2.
    pub fn touches_field(&self, f: Field) -> bool {
        self.legs.iter().any(|l| l.rewrite.touches(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowmatch::packet_to_headervec;
    use monocle_packet::PacketFields;

    #[test]
    fn drop_rule() {
        let f = Forwarding::compile(&[]).unwrap();
        assert!(f.is_drop());
        assert_eq!(f.kind, ForwardingKind::Multicast);
        assert_eq!(f.port_set(), Vec::<PortNo>::new());
    }

    #[test]
    fn unicast_with_rewrite() {
        let f = Forwarding::compile(&[Action::SetNwTos(0x2e), Action::Output(3)]).unwrap();
        let leg = &f.legs[0];
        assert_eq!(leg.port, 3);
        assert!(leg.rewrite.touches(Field::NwTos));
        let pkt = packet_to_headervec(1, &PacketFields::default());
        let out = leg.rewrite.apply(&pkt);
        assert_eq!(out.field(Field::NwTos), 0x2e);
    }

    #[test]
    fn per_port_rewrites_accumulate() {
        // Output(1) before the rewrite, Output(2) after: §3.4's
        // "different rewrite actions to packets sent to different ports".
        let f = Forwarding::compile(&[Action::Output(1), Action::SetTpDst(99), Action::Output(2)])
            .unwrap();
        assert_eq!(f.legs.len(), 2);
        assert!(f.legs[0].rewrite.is_identity());
        assert!(f.legs[1].rewrite.touches(Field::TpDst));
        assert_eq!(f.port_set(), vec![1, 2]);
    }

    #[test]
    fn ecmp_compiles() {
        let f = Forwarding::compile(&[Action::SetNwTos(5), Action::SelectOutput(vec![4, 7, 9])])
            .unwrap();
        assert_eq!(f.kind, ForwardingKind::Ecmp);
        assert_eq!(f.port_set(), vec![4, 7, 9]);
        assert!(f.legs.iter().all(|l| l.rewrite.touches(Field::NwTos)));
    }

    #[test]
    fn mixed_ecmp_rejected() {
        assert_eq!(
            Forwarding::compile(&[Action::Output(1), Action::SelectOutput(vec![2])]),
            Err(ActionError::MixedEcmp)
        );
        assert_eq!(
            Forwarding::compile(&[Action::SelectOutput(vec![2]), Action::Output(1)]),
            Err(ActionError::MixedEcmp)
        );
        assert_eq!(
            Forwarding::compile(&[Action::SelectOutput(vec![])]),
            Err(ActionError::EmptySelect)
        );
    }

    #[test]
    fn rewrite_composition_later_wins() {
        let mut a = Rewrite::IDENTITY;
        a.set_field(Field::TpSrc, 100);
        let mut b = Rewrite::IDENTITY;
        b.set_field(Field::TpSrc, 200);
        let c = a.then(&b);
        let pkt = HeaderVec::ZERO;
        assert_eq!(c.apply(&pkt).field(Field::TpSrc), 200);
        // And in-program: two sets to the same field, last wins.
        let f = Forwarding::compile(&[
            Action::SetTpSrc(100),
            Action::SetTpSrc(200),
            Action::Output(1),
        ])
        .unwrap();
        assert_eq!(f.legs[0].rewrite.apply(&pkt).field(Field::TpSrc), 200);
    }

    #[test]
    fn strip_vlan_sets_vlan_none() {
        let f = Forwarding::compile(&[Action::StripVlan, Action::Output(2)]).unwrap();
        let pkt = packet_to_headervec(
            0,
            &PacketFields {
                vlan: Some((42, 6)),
                ..Default::default()
            },
        );
        let out = f.legs[0].rewrite.apply(&pkt);
        assert_eq!(out.field(Field::DlVlan), u64::from(VLAN_NONE));
        assert_eq!(out.field(Field::DlPcp), 0);
    }

    #[test]
    fn rewrite_identity_apply() {
        let pkt = packet_to_headervec(5, &PacketFields::default());
        assert_eq!(Rewrite::IDENTITY.apply(&pkt), pkt);
        assert!(Rewrite::IDENTITY.is_identity());
    }

    #[test]
    fn rewrite_on_port_lookup() {
        let f = Forwarding::compile(&[Action::Output(1), Action::SetNwTos(7), Action::Output(2)])
            .unwrap();
        assert!(f.rewrite_on_port(1).unwrap().is_identity());
        assert!(f.rewrite_on_port(2).unwrap().touches(Field::NwTos));
        assert!(f.rewrite_on_port(3).is_none());
        assert!(f.touches_field(Field::NwTos));
        assert!(!f.touches_field(Field::DlVlan));
    }
}
