//! The 257-bit abstract header space.
//!
//! Monocle's SAT encoding (§5.3) models the packet as one boolean variable
//! per header bit. The header is the concatenation of the twelve OpenFlow
//! 1.0 match fields; this module defines the canonical bit layout and a
//! fixed-size bitset, [`HeaderVec`], that the match/rewrite algebra and the
//! simulator's data plane both operate on.
//!
//! Layout (offsets in bits, total [`HEADER_BITS`] = 257):
//!
//! | field     | offset | width |
//! |-----------|--------|-------|
//! | IN_PORT   | 0      | 16    |
//! | DL_SRC    | 16     | 48    |
//! | DL_DST    | 64     | 48    |
//! | DL_TYPE   | 112    | 16    |
//! | DL_VLAN   | 128    | 16    |
//! | DL_PCP    | 144    | 3     |
//! | NW_SRC    | 147    | 32    |
//! | NW_DST    | 179    | 32    |
//! | NW_PROTO  | 211    | 8     |
//! | NW_TOS    | 219    | 6     |
//! | TP_SRC    | 225    | 16    |
//! | TP_DST    | 241    | 16    |

/// Total number of header bits.
pub const HEADER_BITS: usize = 257;

/// Number of `u64` words backing a [`HeaderVec`].
pub const WORDS: usize = 5;

/// One of the twelve OpenFlow 1.0 match fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Field {
    /// Ingress port (metadata, not on the wire).
    InPort,
    /// Ethernet source address.
    DlSrc,
    /// Ethernet destination address.
    DlDst,
    /// EtherType.
    DlType,
    /// VLAN ID (0xffff = `OFP_VLAN_NONE`, i.e. untagged).
    DlVlan,
    /// VLAN priority (PCP).
    DlPcp,
    /// IPv4 source address (or ARP SPA).
    NwSrc,
    /// IPv4 destination address (or ARP TPA).
    NwDst,
    /// IP protocol (or ARP opcode low byte).
    NwProto,
    /// IP DSCP (6 bits).
    NwTos,
    /// TCP/UDP source port or ICMP type.
    TpSrc,
    /// TCP/UDP destination port or ICMP code.
    TpDst,
}

impl Field {
    /// Bit offset of the field within the header space.
    pub const fn offset(self) -> usize {
        match self {
            Field::InPort => 0,
            Field::DlSrc => 16,
            Field::DlDst => 64,
            Field::DlType => 112,
            Field::DlVlan => 128,
            Field::DlPcp => 144,
            Field::NwSrc => 147,
            Field::NwDst => 179,
            Field::NwProto => 211,
            Field::NwTos => 219,
            Field::TpSrc => 225,
            Field::TpDst => 241,
        }
    }

    /// Bit width of the field.
    pub const fn width(self) -> usize {
        match self {
            Field::InPort => 16,
            Field::DlSrc => 48,
            Field::DlDst => 48,
            Field::DlType => 16,
            Field::DlVlan => 16,
            Field::DlPcp => 3,
            Field::NwSrc => 32,
            Field::NwDst => 32,
            Field::NwProto => 8,
            Field::NwTos => 6,
            Field::TpSrc => 16,
            Field::TpDst => 16,
        }
    }

    /// The field's bits as a header-space mask (precomputed per field), so
    /// whether a vector touches the field is a few word-wise ANDs.
    pub fn mask(self) -> &'static HeaderVec {
        &FIELD_MASKS[self as usize]
    }

    /// Human-readable OpenFlow field name.
    pub const fn name(self) -> &'static str {
        match self {
            Field::InPort => "in_port",
            Field::DlSrc => "dl_src",
            Field::DlDst => "dl_dst",
            Field::DlType => "dl_type",
            Field::DlVlan => "dl_vlan",
            Field::DlPcp => "dl_pcp",
            Field::NwSrc => "nw_src",
            Field::NwDst => "nw_dst",
            Field::NwProto => "nw_proto",
            Field::NwTos => "nw_tos",
            Field::TpSrc => "tp_src",
            Field::TpDst => "tp_dst",
        }
    }
}

/// All fields in layout order.
pub const FIELDS: [Field; 12] = [
    Field::InPort,
    Field::DlSrc,
    Field::DlDst,
    Field::DlType,
    Field::DlVlan,
    Field::DlPcp,
    Field::NwSrc,
    Field::NwDst,
    Field::NwProto,
    Field::NwTos,
    Field::TpSrc,
    Field::TpDst,
];

/// Each field's bits as a [`HeaderVec`], in [`FIELDS`] order.
static FIELD_MASKS: [HeaderVec; FIELDS.len()] = {
    let mut masks = [HeaderVec::ZERO; FIELDS.len()];
    let mut f = 0;
    while f < FIELDS.len() {
        let mut i = FIELDS[f].offset();
        while i < FIELDS[f].offset() + FIELDS[f].width() {
            masks[f].0[i / 64] |= 1 << (i % 64);
            i += 1;
        }
        f += 1;
    }
    masks
};

/// Fixed-size bitset over the header space. Bit `i` of the header is bit
/// `i % 64` of word `i / 64`. Field values are stored little-endian within
/// the field: bit 0 of a field is its least-significant bit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HeaderVec(pub [u64; WORDS]);

impl HeaderVec {
    /// All-zero vector.
    pub const ZERO: HeaderVec = HeaderVec([0; WORDS]);

    /// Vector with every header bit set (bits ≥ [`HEADER_BITS`] are zero).
    pub fn all_ones() -> HeaderVec {
        let mut v = HeaderVec([u64::MAX; WORDS]);
        v.clear_tail();
        v
    }

    fn clear_tail(&mut self) {
        let used = HEADER_BITS % 64;
        if used != 0 {
            self.0[WORDS - 1] &= (1u64 << used) - 1;
        }
    }

    /// Gets bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < HEADER_BITS);
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i` to `v`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < HEADER_BITS);
        if v {
            self.0[i / 64] |= 1 << (i % 64);
        } else {
            self.0[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Reads `width` bits starting at `offset` as a u64 (LSB-first).
    pub fn get_bits(&self, offset: usize, width: usize) -> u64 {
        debug_assert!(width <= 64);
        let mut out = 0u64;
        for i in 0..width {
            if self.get(offset + i) {
                out |= 1 << i;
            }
        }
        out
    }

    /// Writes `width` bits of `value` starting at `offset`.
    pub fn set_bits(&mut self, offset: usize, width: usize, value: u64) {
        debug_assert!(width <= 64);
        debug_assert!(width == 64 || value < (1u64 << width), "value too wide");
        for i in 0..width {
            self.set(offset + i, value >> i & 1 == 1);
        }
    }

    /// Reads a whole field.
    pub fn field(&self, f: Field) -> u64 {
        self.get_bits(f.offset(), f.width())
    }

    /// Writes a whole field.
    pub fn set_field(&mut self, f: Field, value: u64) {
        self.set_bits(f.offset(), f.width(), value);
    }

    /// Bitwise AND.
    #[inline]
    pub fn and(&self, o: &HeaderVec) -> HeaderVec {
        let mut r = [0u64; WORDS];
        for i in 0..WORDS {
            r[i] = self.0[i] & o.0[i];
        }
        HeaderVec(r)
    }

    /// Bitwise OR.
    #[inline]
    pub fn or(&self, o: &HeaderVec) -> HeaderVec {
        let mut r = [0u64; WORDS];
        for i in 0..WORDS {
            r[i] = self.0[i] | o.0[i];
        }
        HeaderVec(r)
    }

    /// Bitwise XOR.
    #[inline]
    pub fn xor(&self, o: &HeaderVec) -> HeaderVec {
        let mut r = [0u64; WORDS];
        for i in 0..WORDS {
            r[i] = self.0[i] ^ o.0[i];
        }
        HeaderVec(r)
    }

    /// Bitwise NOT restricted to the header width.
    #[inline]
    pub fn not(&self) -> HeaderVec {
        let mut r = [0u64; WORDS];
        for i in 0..WORDS {
            r[i] = !self.0[i];
        }
        let mut v = HeaderVec(r);
        v.clear_tail();
        v
    }

    /// True when `self` and `o` have a set bit in common.
    #[inline]
    pub fn intersects(&self, o: &HeaderVec) -> bool {
        (0..WORDS).any(|i| self.0[i] & o.0[i] != 0)
    }

    /// True when no bit is set.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Iterator over indices of set bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..WORDS).flat_map(move |w| {
            let mut word = self.0[w];
            std::iter::from_fn(move || {
                if word == 0 {
                    None
                } else {
                    let b = word.trailing_zeros() as usize;
                    word &= word - 1;
                    Some(w * 64 + b)
                }
            })
        })
    }
}

impl std::fmt::Debug for HeaderVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HeaderVec[")?;
        let mut first = true;
        for fld in FIELDS {
            let v = self.field(fld);
            if v != 0 {
                if !first {
                    write!(f, " ")?;
                }
                write!(f, "{}={:#x}", fld.name(), v)?;
                first = false;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous_and_covers_257_bits() {
        let mut expected = 0usize;
        for f in FIELDS {
            assert_eq!(f.offset(), expected, "field {} misplaced", f.name());
            expected += f.width();
        }
        assert_eq!(expected, HEADER_BITS);
    }

    #[test]
    fn set_get_roundtrip_all_fields() {
        let mut h = HeaderVec::ZERO;
        for (i, f) in FIELDS.iter().enumerate() {
            let max = if f.width() == 64 {
                u64::MAX
            } else {
                (1u64 << f.width()) - 1
            };
            let val = (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)) & max;
            h.set_field(*f, val);
            assert_eq!(h.field(*f), val, "field {}", f.name());
        }
        // Re-check all fields survived neighbors' writes.
        for (i, f) in FIELDS.iter().enumerate() {
            let max = (1u64 << f.width()) - 1;
            let val = (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)) & max;
            assert_eq!(h.field(*f), val, "field {} clobbered", f.name());
        }
    }

    #[test]
    fn field_masks_cover_exactly_their_field() {
        for f in FIELDS {
            let bits: Vec<usize> = f.mask().iter_ones().collect();
            let want: Vec<usize> = (f.offset()..f.offset() + f.width()).collect();
            assert_eq!(bits, want, "field {}", f.name());
            let mut h = HeaderVec::ZERO;
            h.set_field(f, 1);
            assert!(h.intersects(f.mask()));
            assert!(FIELDS
                .iter()
                .filter(|&&g| g != f)
                .all(|g| !h.intersects(g.mask())));
        }
    }

    #[test]
    fn bit_ops() {
        let mut a = HeaderVec::ZERO;
        a.set(0, true);
        a.set(100, true);
        a.set(256, true);
        let mut b = HeaderVec::ZERO;
        b.set(100, true);
        assert_eq!(a.and(&b), b);
        assert_eq!(a.or(&b), a);
        assert_eq!(a.xor(&b).count_ones(), 2);
        assert!(a.xor(&a).is_zero());
    }

    #[test]
    fn not_respects_header_width() {
        let z = HeaderVec::ZERO.not();
        assert_eq!(z, HeaderVec::all_ones());
        assert_eq!(z.count_ones() as usize, HEADER_BITS);
        assert_eq!(z.not(), HeaderVec::ZERO);
    }

    #[test]
    fn iter_ones_matches_get() {
        let mut h = HeaderVec::ZERO;
        for i in [0, 1, 63, 64, 128, 200, 256] {
            h.set(i, true);
        }
        let got: Vec<usize> = h.iter_ones().collect();
        assert_eq!(got, vec![0, 1, 63, 64, 128, 200, 256]);
    }

    #[test]
    fn boundary_bit_256() {
        let mut h = HeaderVec::ZERO;
        h.set(256, true);
        assert!(h.get(256));
        assert_eq!(h.field(Field::TpDst), 1 << 15);
    }

    #[test]
    fn debug_format_mentions_nonzero_fields() {
        let mut h = HeaderVec::ZERO;
        h.set_field(Field::DlType, 0x800);
        let s = format!("{h:?}");
        assert!(s.contains("dl_type=0x800"), "{s}");
    }
}
