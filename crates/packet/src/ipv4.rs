//! IPv4 header with checksum generation and validation.

use crate::{checksum, WireError};

/// Parsed IPv4 header (options are not supported — IHL is always 5, matching
/// what OpenFlow 1.0 switches match on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated services / TOS byte (the 6-bit DSCP is `dscp()`).
    pub tos: u8,
    /// Total length of header + payload in bytes.
    pub total_len: u16,
    /// Identification field.
    pub ident: u16,
    /// Don't-fragment flag.
    pub dont_frag: bool,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub proto: u8,
    /// Source address.
    pub src: [u8; 4],
    /// Destination address.
    pub dst: [u8; 4],
}

impl Ipv4Header {
    /// Wire length of the (option-less) header.
    pub const LEN: usize = 20;

    /// The 6-bit DSCP value (upper six bits of TOS), which is what OpenFlow
    /// 1.0 `nw_tos` matches.
    pub fn dscp(&self) -> u8 {
        self.tos >> 2
    }

    /// Serializes the header with a correct checksum into `out`.
    pub fn emit(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.push(0x45); // version 4, IHL 5
        out.push(self.tos);
        out.extend_from_slice(&self.total_len.to_be_bytes());
        out.extend_from_slice(&self.ident.to_be_bytes());
        let flags: u16 = if self.dont_frag { 0x4000 } else { 0 };
        out.extend_from_slice(&flags.to_be_bytes());
        out.push(self.ttl);
        out.push(self.proto);
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.src);
        out.extend_from_slice(&self.dst);
        let cksum = checksum::checksum(&out[start..start + Self::LEN]);
        out[start + 10..start + 12].copy_from_slice(&cksum.to_be_bytes());
    }

    /// Parses and validates a header from the front of `buf`. Returns the
    /// header and the payload offset. The checksum must verify and the
    /// version must be 4; options (IHL > 5) are rejected as unsupported.
    pub fn parse(buf: &[u8]) -> Result<(Ipv4Header, usize), WireError> {
        if buf.len() < Self::LEN {
            return Err(WireError::Truncated);
        }
        let version = buf[0] >> 4;
        let ihl = (buf[0] & 0x0f) as usize;
        if version != 4 || ihl != 5 {
            return Err(WireError::BadFormat);
        }
        if !checksum::verify(&buf[..Self::LEN]) {
            return Err(WireError::BadFormat);
        }
        let total_len = u16::from_be_bytes([buf[2], buf[3]]);
        if (total_len as usize) < Self::LEN || (total_len as usize) > buf.len() {
            return Err(WireError::BadLength);
        }
        Ok((
            Ipv4Header {
                tos: buf[1],
                total_len,
                ident: u16::from_be_bytes([buf[4], buf[5]]),
                dont_frag: buf[6] & 0x40 != 0,
                ttl: buf[8],
                proto: buf[9],
                src: buf[12..16].try_into().unwrap(),
                dst: buf[16..20].try_into().unwrap(),
            },
            Self::LEN,
        ))
    }
}

/// Parses dotted-quad notation (test/dataset helper).
pub fn parse_addr(s: &str) -> Option<[u8; 4]> {
    let mut out = [0u8; 4];
    let mut it = s.split('.');
    for slot in &mut out {
        *slot = it.next()?.parse().ok()?;
    }
    if it.next().is_some() {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header {
            tos: 0xb8,
            total_len: 52,
            ident: 0x1234,
            dont_frag: true,
            ttl: 64,
            proto: crate::ipproto::TCP,
            src: [10, 0, 0, 1],
            dst: [10, 0, 0, 2],
        }
    }

    #[test]
    fn roundtrip_with_checksum() {
        let h = sample();
        let mut buf = Vec::new();
        h.emit(&mut buf);
        buf.resize(h.total_len as usize, 0);
        assert!(checksum::verify(&buf[..20]));
        let (back, off) = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(back, h);
        assert_eq!(off, 20);
    }

    #[test]
    fn corrupted_checksum_rejected() {
        let h = sample();
        let mut buf = Vec::new();
        h.emit(&mut buf);
        buf.resize(52, 0);
        buf[15] ^= 1;
        assert_eq!(Ipv4Header::parse(&buf).unwrap_err(), WireError::BadFormat);
    }

    #[test]
    fn bad_version_rejected() {
        let h = sample();
        let mut buf = Vec::new();
        h.emit(&mut buf);
        buf.resize(52, 0);
        buf[0] = 0x65; // IPv6 version nibble
        assert_eq!(Ipv4Header::parse(&buf).unwrap_err(), WireError::BadFormat);
    }

    #[test]
    fn short_total_len_rejected() {
        let mut h = sample();
        h.total_len = 10;
        let mut buf = Vec::new();
        h.emit(&mut buf);
        assert_eq!(Ipv4Header::parse(&buf).unwrap_err(), WireError::BadLength);
    }

    #[test]
    fn dscp_extraction() {
        let h = sample();
        assert_eq!(h.dscp(), 0xb8 >> 2);
    }

    #[test]
    fn addr_parse_format() {
        assert_eq!(parse_addr("192.168.0.1"), Some([192, 168, 0, 1]));
        assert_eq!(parse_addr("1.2.3"), None);
        assert_eq!(parse_addr("1.2.3.4.5"), None);
        assert_eq!(parse_addr("1.2.3.x"), None);
    }
}
