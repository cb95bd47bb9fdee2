//! Packet identifiers and their byte encodings.

use std::fmt;
use std::net::Ipv4Addr;

/// Maximum encoded key length in bytes.
///
/// The widest key we support is the full 5-tuple: 4 (SrcIP) + 4 (DstIP) +
/// 2 (SrcPort) + 2 (DstPort) + 1 (proto) = 13 bytes; 16 leaves headroom
/// for experimental keys while keeping [`KeyBytes`] two machine words of
/// payload.
pub const MAX_KEY_BYTES: usize = 16;

// `KeyBytes::sort_key` packs the whole key buffer into one `u128`.
const _: () = assert!(MAX_KEY_BYTES == 16, "sort_key needs a 16-byte key buffer");

/// A compact, fixed-capacity encoded flow key.
///
/// Sketches store these directly in their bucket arrays: the type is
/// `Copy`, compares by value, and exposes its bytes for hashing. The
/// length is part of the value, so keys produced by different
/// [`KeySpec`](crate::KeySpec)s of different widths never compare equal by
/// accident.
/// The layout is pinned to `#[repr(C)]` (17 bytes: length prefix then
/// payload) because sketch buckets embed the key directly and assert
/// their own size/alignment at compile time — see `Bucket` in
/// `cocosketch::basic`, which packs two `(KeyBytes, u64)` buckets per
/// 64-byte cache line.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(C)]
pub struct KeyBytes {
    len: u8,
    buf: [u8; MAX_KEY_BYTES],
}

impl KeyBytes {
    /// An empty key (length 0) — the encoding of the "empty key" level in
    /// HHH hierarchies, and the `Default` bucket state in sketches.
    pub const EMPTY: KeyBytes = KeyBytes {
        len: 0,
        buf: [0; MAX_KEY_BYTES],
    };

    /// Build from a byte slice.
    ///
    /// # Panics
    /// Panics if `bytes.len() > MAX_KEY_BYTES`; key widths are decided by
    /// `KeySpec`s, which are all within bounds, so a violation is a
    /// programming error.
    pub fn new(bytes: &[u8]) -> Self {
        assert!(
            bytes.len() <= MAX_KEY_BYTES,
            "key of {} bytes exceeds MAX_KEY_BYTES",
            bytes.len()
        );
        let mut buf = [0u8; MAX_KEY_BYTES];
        buf[..bytes.len()].copy_from_slice(bytes); // LINT: bounded(bytes.len() <= MAX_KEY_BYTES asserted above)
        Self {
            len: bytes.len() as u8,
            buf,
        }
    }

    /// The encoded bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len as usize] // LINT: bounded(len <= MAX_KEY_BYTES is the type invariant)
    }

    /// The full backing array. Bytes past [`len`](Self::len) are always
    /// zero (an invariant every constructor and in-place writer keeps,
    /// and which `PartialEq`/`Hash` — derived over the whole array —
    /// rely on). Used by the compiled projector, whose byte-gather plan
    /// reads fixed positions regardless of the key's length.
    #[inline]
    pub(crate) fn raw(&self) -> &[u8; MAX_KEY_BYTES] {
        &self.buf
    }

    /// Mutable access to the backing array for in-place encoders
    /// (`Projector::project_into`). Callers must re-establish the
    /// zero-tail invariant before the key is next compared or hashed.
    #[inline]
    pub(crate) fn raw_mut(&mut self) -> &mut [u8; MAX_KEY_BYTES] {
        &mut self.buf
    }

    /// Set the encoded length without touching the bytes.
    #[inline]
    pub(crate) fn set_len(&mut self, len: u8) {
        debug_assert!(usize::from(len) <= MAX_KEY_BYTES);
        self.len = len;
    }

    /// Encoded length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for the zero-length key.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The key's zero-padded buffer read as one big-endian integer.
    ///
    /// For keys of **equal length**, comparing sort keys orders them
    /// exactly as comparing [`as_slice`](Self::as_slice) does: the
    /// payload bytes are the integer's leading bytes and the zero tail
    /// is the same for both. Sorting on this integer replaces a slice
    /// `memcmp` per comparison with one 128-bit compare. Keys of
    /// different lengths need their length compared as well.
    #[inline]
    pub fn sort_key(&self) -> u128 {
        u128::from_be_bytes(self.buf)
    }

    /// The key of `len` bytes whose [`sort_key`](Self::sort_key) is
    /// `image`; `from_sort_key(k.sort_key(), k.len()) == k` for every
    /// key. Bits of `image` past `len` bytes are cleared, so the
    /// zero-tail invariant holds for any input.
    ///
    /// # Panics
    /// Panics if `len > MAX_KEY_BYTES`, like [`new`](Self::new).
    #[inline]
    pub fn from_sort_key(image: u128, len: usize) -> Self {
        assert!(
            len <= MAX_KEY_BYTES,
            "key of {len} bytes exceeds MAX_KEY_BYTES"
        );
        let tail_bits = 8 * (MAX_KEY_BYTES - len) as u32;
        let mask = u128::MAX.checked_shl(tail_bits).unwrap_or(0);
        Self {
            len: len as u8,
            buf: (image & mask).to_be_bytes(),
        }
    }
}

impl Default for KeyBytes {
    fn default() -> Self {
        Self::EMPTY
    }
}

impl fmt::Debug for KeyBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyBytes(")?;
        for b in self.as_slice() {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

/// A packet's full flow identity: the classic 5-tuple.
///
/// IPs and ports are stored in host order; encodings are big-endian so
/// that IP prefixes are leading bits of the encoded bytes (which is what
/// makes prefix keys simple masks).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// IP protocol number (6 = TCP, 17 = UDP, ...).
    pub proto: u8,
}

impl FiveTuple {
    /// Construct from parts.
    pub fn new(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16, proto: u8) -> Self {
        Self {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto,
        }
    }

    /// Encode the complete 13-byte 5-tuple key.
    #[inline]
    pub fn encode(&self) -> KeyBytes {
        let mut buf = [0u8; MAX_KEY_BYTES];
        buf[0..4].copy_from_slice(&self.src_ip.to_be_bytes()); // LINT: bounded(constant range, MAX_KEY_BYTES = 16)
        buf[4..8].copy_from_slice(&self.dst_ip.to_be_bytes()); // LINT: bounded(constant range, MAX_KEY_BYTES = 16)
        buf[8..10].copy_from_slice(&self.src_port.to_be_bytes()); // LINT: bounded(constant range, MAX_KEY_BYTES = 16)
        buf[10..12].copy_from_slice(&self.dst_port.to_be_bytes()); // LINT: bounded(constant range, MAX_KEY_BYTES = 16)
        buf[12] = self.proto;
        KeyBytes { len: 13, buf }
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} proto {}",
            Ipv4Addr::from(self.src_ip),
            self.src_port,
            Ipv4Addr::from(self.dst_ip),
            self.dst_port,
            self.proto
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_roundtrip_layout() {
        let ft = FiveTuple::new(0x0A000001, 0xC0A80001, 443, 51234, 6);
        let k = ft.encode();
        assert_eq!(k.len(), 13);
        assert_eq!(&k.as_slice()[0..4], &[0x0A, 0, 0, 1]);
        assert_eq!(&k.as_slice()[4..8], &[0xC0, 0xA8, 0, 1]);
        assert_eq!(&k.as_slice()[8..10], &443u16.to_be_bytes());
        assert_eq!(&k.as_slice()[10..12], &51234u16.to_be_bytes());
        assert_eq!(k.as_slice()[12], 6);
    }

    #[test]
    fn keybytes_equality_includes_length() {
        let a = KeyBytes::new(&[1, 2]);
        let b = KeyBytes::new(&[1, 2, 0]);
        assert_ne!(a, b, "same bytes, different length must differ");
    }

    #[test]
    fn empty_key() {
        assert!(KeyBytes::EMPTY.is_empty());
        assert_eq!(KeyBytes::default(), KeyBytes::EMPTY);
        assert_eq!(KeyBytes::EMPTY.as_slice(), &[] as &[u8]);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_KEY_BYTES")]
    fn oversized_key_panics() {
        let _ = KeyBytes::new(&[0u8; MAX_KEY_BYTES + 1]);
    }

    /// Keys of one length drawn from a small byte alphabet, so ties,
    /// shared prefixes and zero bytes all occur.
    fn keys_of_len(len: usize) -> Vec<KeyBytes> {
        let mut x = 0x2545_F491_4F6C_DD1Du64 ^ len as u64;
        (0..200)
            .map(|_| {
                let bytes: Vec<u8> = (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        [0x00, 0x01, 0x7F, 0x80, 0xFF][(x % 5) as usize]
                    })
                    .collect();
                KeyBytes::new(&bytes)
            })
            .collect()
    }

    #[test]
    fn sort_key_orders_like_bytes_and_round_trips() {
        for len in 0..=MAX_KEY_BYTES {
            let keys = keys_of_len(len);
            for a in &keys {
                assert_eq!(KeyBytes::from_sort_key(a.sort_key(), a.len()), *a);
                for b in &keys {
                    assert_eq!(
                        a.sort_key().cmp(&b.sort_key()),
                        a.as_slice().cmp(b.as_slice()),
                        "{a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn from_sort_key_clears_bits_past_len() {
        let k = KeyBytes::from_sort_key(u128::MAX, 3);
        assert_eq!(k, KeyBytes::new(&[0xFF; 3]));
        assert_eq!(KeyBytes::from_sort_key(u128::MAX, 0), KeyBytes::EMPTY);
        assert_eq!(
            KeyBytes::from_sort_key(u128::MAX, MAX_KEY_BYTES),
            KeyBytes::new(&[0xFF; MAX_KEY_BYTES])
        );
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_KEY_BYTES")]
    fn from_sort_key_rejects_oversized_len() {
        let _ = KeyBytes::from_sort_key(0, MAX_KEY_BYTES + 1);
    }

    #[test]
    fn display_is_human_readable() {
        let ft = FiveTuple::new(0x0A000001, 0x08080808, 1234, 53, 17);
        assert_eq!(ft.to_string(), "10.0.0.1:1234 -> 8.8.8.8:53 proto 17");
    }

    #[test]
    fn distinct_tuples_encode_distinct() {
        let a = FiveTuple::new(1, 2, 3, 4, 5).encode();
        let b = FiveTuple::new(1, 2, 3, 4, 6).encode();
        let c = FiveTuple::new(1, 2, 4, 3, 5).encode();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
