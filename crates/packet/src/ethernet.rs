//! Ethernet II frames with optional 802.1Q VLAN tags.

use crate::{ethertype, WireError};

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// Broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Constructs a MAC from the low 48 bits of `v` (big-endian order).
    pub fn from_u64(v: u64) -> MacAddr {
        let b = v.to_be_bytes();
        MacAddr([b[2], b[3], b[4], b[5], b[6], b[7]])
    }

    /// Returns the address as the low 48 bits of a u64.
    pub fn to_u64(self) -> u64 {
        let b = self.0;
        u64::from_be_bytes([0, 0, b[0], b[1], b[2], b[3], b[4], b[5]])
    }

    /// True for group (multicast/broadcast) addresses.
    pub fn is_multicast(self) -> bool {
        self.0[0] & 1 == 1
    }
}

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// Parsed representation of an Ethernet header (with optional VLAN tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetHeader {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// 802.1Q tag, if present: (VLAN ID 0..4095, PCP 0..7).
    pub vlan: Option<(u16, u8)>,
    /// EtherType of the payload (after any VLAN tag).
    pub ethertype: u16,
}

impl EthernetHeader {
    /// Serializes the header into `out`.
    pub fn emit(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.dst.0);
        out.extend_from_slice(&self.src.0);
        if let Some((vid, pcp)) = self.vlan {
            out.extend_from_slice(&ethertype::VLAN.to_be_bytes());
            let tci = (u16::from(pcp) << 13) | (vid & 0x0fff);
            out.extend_from_slice(&tci.to_be_bytes());
        }
        out.extend_from_slice(&self.ethertype.to_be_bytes());
    }

    /// Parses a header from the front of `buf`; returns the header and the
    /// offset where the payload begins.
    pub fn parse(buf: &[u8]) -> Result<(EthernetHeader, usize), WireError> {
        if buf.len() < 14 {
            return Err(WireError::Truncated);
        }
        let dst = MacAddr(buf[0..6].try_into().unwrap());
        let src = MacAddr(buf[6..12].try_into().unwrap());
        let ety = u16::from_be_bytes([buf[12], buf[13]]);
        if ety == ethertype::VLAN {
            if buf.len() < 18 {
                return Err(WireError::Truncated);
            }
            let tci = u16::from_be_bytes([buf[14], buf[15]]);
            let inner = u16::from_be_bytes([buf[16], buf[17]]);
            Ok((
                EthernetHeader {
                    dst,
                    src,
                    vlan: Some((tci & 0x0fff, (tci >> 13) as u8)),
                    ethertype: inner,
                },
                18,
            ))
        } else {
            Ok((
                EthernetHeader {
                    dst,
                    src,
                    vlan: None,
                    ethertype: ety,
                },
                14,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display_and_u64_roundtrip() {
        let m = MacAddr([0x02, 0x00, 0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(m.to_string(), "02:00:de:ad:be:ef");
        assert_eq!(MacAddr::from_u64(m.to_u64()), m);
        assert!(!m.is_multicast());
        assert!(MacAddr::BROADCAST.is_multicast());
    }

    #[test]
    fn untagged_roundtrip() {
        let h = EthernetHeader {
            dst: MacAddr::from_u64(0x010203040506),
            src: MacAddr::from_u64(0x0a0b0c0d0e0f),
            vlan: None,
            ethertype: ethertype::IPV4,
        };
        let mut buf = Vec::new();
        h.emit(&mut buf);
        assert_eq!(buf.len(), 14);
        let (back, off) = EthernetHeader::parse(&buf).unwrap();
        assert_eq!(back, h);
        assert_eq!(off, 14);
    }

    #[test]
    fn tagged_roundtrip() {
        let h = EthernetHeader {
            dst: MacAddr::BROADCAST,
            src: MacAddr::from_u64(7),
            vlan: Some((100, 5)),
            ethertype: ethertype::ARP,
        };
        let mut buf = Vec::new();
        h.emit(&mut buf);
        assert_eq!(buf.len(), 18);
        assert_eq!(&buf[12..14], &ethertype::VLAN.to_be_bytes());
        let (back, off) = EthernetHeader::parse(&buf).unwrap();
        assert_eq!(back, h);
        assert_eq!(off, 18);
    }

    #[test]
    fn vlan_id_masks_to_12_bits() {
        let h = EthernetHeader {
            dst: MacAddr::default(),
            src: MacAddr::default(),
            vlan: Some((0xffff, 7)),
            ethertype: 0,
        };
        let mut buf = Vec::new();
        h.emit(&mut buf);
        let (back, _) = EthernetHeader::parse(&buf).unwrap();
        assert_eq!(back.vlan, Some((0x0fff, 7)));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            EthernetHeader::parse(&[0; 13]).unwrap_err(),
            WireError::Truncated
        );
        // Tagged frame cut before the inner ethertype.
        let mut buf = vec![0; 14];
        buf[12] = 0x81;
        buf[13] = 0x00;
        assert_eq!(
            EthernetHeader::parse(&buf).unwrap_err(),
            WireError::Truncated
        );
    }
}
