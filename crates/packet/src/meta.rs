//! Probe payload metadata (paper §4.2).
//!
//! Monocle monitors many rules in parallel; when a probe returns, the
//! collector must know *which* rule it was testing. The paper solves this by
//! embedding metadata "such as rule under test and expected result to the
//! probe packet payload that cannot be touched by the switches".
//! [`ProbeMeta`] is that record: the switch and rule under test and a
//! per-probe sequence number, in a fixed 32-byte block with magic, version
//! and its own checksum so corrupted or foreign payloads are never
//! misattributed. The expected result stays with the monitor: it keys its
//! live probes by sequence number, so a returning probe's answer counts
//! exactly when its sequence number is still live there.

use crate::checksum;

/// Magic prefix identifying Monocle probe payloads ("MNCL").
pub const MAGIC: [u8; 4] = *b"MNCL";

/// Format version.
pub const VERSION: u8 = 2;

/// Encoded size in bytes.
pub const ENCODED_LEN: usize = 32;

/// Metadata carried in every probe's payload.
///
/// Wire layout: magic (0..4), version (4), reserved (5..8), `switch_id`
/// (8..16), `rule_id` (16..24), `seq` (24..28), reserved (28..30), checksum
/// (30..32); integers big-endian, reserved bytes zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProbeMeta {
    /// Identifier of the switch under test (its OpenFlow datapath id).
    pub switch_id: u64,
    /// Identifier of the rule under test (monitor-local).
    pub rule_id: u64,
    /// Per-probe sequence number: what the monitor matches the answer by.
    pub seq: u32,
}

impl ProbeMeta {
    /// Serializes to the fixed 32-byte wire form.
    pub fn encode(&self) -> [u8; ENCODED_LEN] {
        let mut out = [0u8; ENCODED_LEN];
        out[0..4].copy_from_slice(&MAGIC);
        out[4] = VERSION;
        out[8..16].copy_from_slice(&self.switch_id.to_be_bytes());
        out[16..24].copy_from_slice(&self.rule_id.to_be_bytes());
        out[24..28].copy_from_slice(&self.seq.to_be_bytes());
        let ck = checksum::checksum(&out[0..30]);
        out[30..32].copy_from_slice(&ck.to_be_bytes());
        out
    }

    /// Decodes from the front of `buf`. Returns `None` when the magic,
    /// version or checksum do not match — callers treat such payloads as
    /// non-probe traffic.
    pub fn decode(buf: &[u8]) -> Option<ProbeMeta> {
        if buf.len() < ENCODED_LEN {
            return None;
        }
        let buf = &buf[..ENCODED_LEN];
        if buf[0..4] != MAGIC || buf[4] != VERSION {
            return None;
        }
        if !checksum::verify(buf) {
            return None;
        }
        Some(ProbeMeta {
            switch_id: u64::from_be_bytes(buf[8..16].try_into().unwrap()),
            rule_id: u64::from_be_bytes(buf[16..24].try_into().unwrap()),
            seq: u32::from_be_bytes(buf[24..28].try_into().unwrap()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProbeMeta {
        ProbeMeta {
            switch_id: 0x0000_0a0b_0c0d_0e0f,
            rule_id: 0xdead_beef_cafe,
            seq: 1001,
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let enc = m.encode();
        assert_eq!(ProbeMeta::decode(&enc), Some(m));
    }

    #[test]
    fn trailing_bytes_ignored() {
        let m = sample();
        let mut buf = m.encode().to_vec();
        buf.extend_from_slice(b"trailing payload");
        assert_eq!(ProbeMeta::decode(&buf), Some(m));
    }

    #[test]
    fn corruption_detected() {
        let m = sample();
        for i in 0..ENCODED_LEN {
            let mut enc = m.encode();
            enc[i] ^= 0x5a;
            assert_eq!(ProbeMeta::decode(&enc), None, "byte {i} flip undetected");
        }
    }

    #[test]
    fn short_buffer() {
        assert_eq!(ProbeMeta::decode(&[0; 10]), None);
    }

    #[test]
    fn non_probe_payload() {
        assert_eq!(ProbeMeta::decode(&[0u8; ENCODED_LEN]), None);
        assert_eq!(
            ProbeMeta::decode(b"GET / HTTP/1.1\r\nHost: example.org\r\n"),
            None
        );
    }
}
