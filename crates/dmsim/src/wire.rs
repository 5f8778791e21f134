//! Wire-format helpers for the combining collectives.
//!
//! The combining hypercube ships each hop's request keys as a compressed
//! byte stream, and the α-β cost model charges the *encoded* byte counts
//! with no special-casing:
//!
//! * **LEB128 varints** ([`push_varint`] / [`read_varint`]) — the base
//!   machinery.
//! * **delta key streams** ([`encode_keys`] / [`decode_keys`]) — a sorted
//!   key list as LEB128 of the count, the first key, then consecutive
//!   deltas; the per-hop request format of the combining hypercube.
//! * [`WireWord`] — the fixed word representation a key type must have
//!   to ride a key stream.

/// Appends `x` to `out` as a LEB128 varint (7 bits per byte, high bit =
/// continuation).
pub fn push_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let b = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Reads the varint at `bytes[*pos]`, advancing `pos` past it.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        x |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return x;
        }
        shift += 7;
    }
}

/// Encodes a sorted (non-decreasing) key list as count + first key +
/// consecutive deltas, all varints. The stream is value-based, so a `u32`
/// key list encodes to exactly the same bytes as the equal-valued `u64`
/// list — the declared width matters on the *raw* paths (pairwise
/// fallbacks, tuple payloads), not here.
pub fn encode_keys<K: WireWord>(keys: &[K]) -> Vec<u8> {
    debug_assert!(
        keys.windows(2).all(|w| w[0].to_word() <= w[1].to_word()),
        "keys must be sorted"
    );
    let mut out = Vec::with_capacity(keys.len() + 4);
    push_varint(&mut out, keys.len() as u64);
    let mut prev = 0u64;
    for (i, k) in keys.iter().enumerate() {
        let k = k.to_word();
        push_varint(&mut out, if i == 0 { k } else { k - prev });
        prev = k;
    }
    out
}

/// Decodes a stream produced by [`encode_keys`] at the same `K`.
pub fn decode_keys<K: WireWord>(bytes: &[u8]) -> Vec<K> {
    let mut pos = 0usize;
    let n = read_varint(bytes, &mut pos) as usize;
    let mut out = Vec::with_capacity(n);
    let mut cur = 0u64;
    for i in 0..n {
        let d = read_varint(bytes, &mut pos);
        cur = if i == 0 { d } else { cur + d };
        out.push(K::from_word(cur));
    }
    debug_assert_eq!(pos, bytes.len(), "trailing bytes in key stream");
    out
}

/// A key type with a fixed 64-bit word representation, required to ride
/// a delta key stream ([`encode_keys`]).
pub trait WireWord: Copy {
    /// This value as a wire word.
    fn to_word(self) -> u64;
    /// Reconstructs the value from its wire word.
    fn from_word(w: u64) -> Self;
}

impl WireWord for u64 {
    fn to_word(self) -> u64 {
        self
    }
    fn from_word(w: u64) -> Self {
        w
    }
}

impl WireWord for usize {
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> Self {
        w as usize
    }
}

impl WireWord for u32 {
    fn to_word(self) -> u64 {
        u64::from(self)
    }
    fn from_word(w: u64) -> Self {
        w as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        for x in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            push_varint(&mut buf, x);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), x);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn key_stream_roundtrips() {
        for keys in [
            vec![],
            vec![0u64],
            vec![5, 5, 5],
            vec![0, 1, 2, 3, 1_000_000],
            (0..500).map(|k| k * 7).collect::<Vec<_>>(),
        ] {
            assert_eq!(decode_keys::<u64>(&encode_keys(&keys)), keys);
        }
    }

    #[test]
    fn dense_sorted_keys_compress_well() {
        let keys: Vec<u64> = (1000..2000).collect();
        let enc = encode_keys(&keys);
        assert!(enc.len() < keys.len() * 2, "got {} bytes", enc.len());
    }

    #[test]
    fn narrow_key_stream_matches_wide_bytes() {
        // The delta-varint stream is value-based: narrowing the key type
        // changes nothing on the wire, only the raw fallbacks elsewhere.
        let wide: Vec<u64> = vec![3, 9, 9, 1000, 70000];
        let narrow: Vec<u32> = wide.iter().map(|&k| k as u32).collect();
        let enc = encode_keys(&narrow);
        assert_eq!(enc, encode_keys(&wide));
        assert_eq!(decode_keys::<u32>(&enc), narrow);
    }

    #[test]
    fn wire_word_roundtrip() {
        assert_eq!(u64::from_word(9u64.to_word()), 9);
        assert_eq!(usize::from_word(17usize.to_word()), 17);
        assert_eq!(u32::from_word(5u32.to_word()), 5);
    }
}
