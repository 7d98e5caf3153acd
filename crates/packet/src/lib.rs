//! Packet crafting and parsing substrate for Monocle.
//!
//! The paper (§5.2) delegates "all relevant assembly steps (computing
//! protocol headers, lengths, checksums, etc.)" to an existing packet
//! crafting library. This crate is that library, written from scratch in the
//! style of smoltcp: thin typed views over byte buffers, with checksums that
//! are both *generated* and *validated*.
//!
//! Layers implemented: Ethernet II, IEEE 802.1Q VLAN tags, ARP, IPv4 (header
//! checksum), TCP/UDP (pseudo-header checksums), ICMPv4.
//!
//! Two Monocle-specific pieces live here as well:
//!
//! * [`fields::PacketFields`] — the *abstract packet view* of §5.1: a packet
//!   as a series of protocol fields rather than wire bits, the
//!   representation the SAT layer reasons about. [`craft::craft_packet`]
//!   translates an abstract view into a valid raw packet (conditionally
//!   excluded fields are dropped per the §5.2 lemma) and
//!   [`craft::parse_packet`] inverts it.
//! * [`meta::ProbeMeta`] — the probe payload metadata of §4.2 (switch and
//!   rule under test, sequence number) that switches cannot touch, letting
//!   the collector pinpoint which rule a returning probe was testing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arp;
pub mod checksum;
pub mod craft;
pub mod ethernet;
pub mod fields;
pub mod icmp;
pub mod ipv4;
pub mod meta;
pub mod tcp;
pub mod udp;
pub mod validity;

pub use craft::{craft_packet, parse_packet, CraftError};
pub use ethernet::MacAddr;
pub use fields::PacketFields;
pub use meta::ProbeMeta;
pub use validity::{validate_packet, ValidityError};

/// Common EtherType values understood by the stack.
pub mod ethertype {
    /// IPv4.
    pub const IPV4: u16 = 0x0800;
    /// ARP.
    pub const ARP: u16 = 0x0806;
    /// 802.1Q VLAN tag.
    pub const VLAN: u16 = 0x8100;
}

/// Common IP protocol numbers understood by the stack.
pub mod ipproto {
    /// ICMPv4.
    pub const ICMP: u8 = 1;
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
}

/// Errors shared by the wire-format parsers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Buffer too short for the fixed header.
    Truncated,
    /// A length field disagrees with the buffer.
    BadLength,
    /// A version/format field has an unsupported value.
    BadFormat,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer truncated"),
            WireError::BadLength => write!(f, "inconsistent length field"),
            WireError::BadFormat => write!(f, "unsupported format or version"),
        }
    }
}

impl std::error::Error for WireError {}
