//! A pinned, in-repo hash for everything seeded.
//!
//! Routing, prompt domains, and kernel program signatures feed every
//! tracked metric, so their hash must not change under a toolchain
//! upgrade. std documents `DefaultHasher`'s algorithm as unspecified
//! across releases; [`StableHasher`] pins the one it uses today —
//! SipHash-1-3 with zero keys — so outputs stay byte-equal to every
//! committed baseline and are fixed from here on.
//!
//! It implements [`std::hash::Hasher`] with only `write` and `finish`,
//! so every `Hash` impl reaches it through the trait's default
//! integer/str methods (native-endian bytes, `0xff`-terminated strs),
//! the same byte stream the std wrapper hashes.

use std::hash::Hasher;

/// SipHash-1-3 with keys `(0, 0)`: one compression round per 8-byte
/// block, three finalization rounds.
#[derive(Debug, Clone)]
pub struct StableHasher {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    /// Unprocessed trailing bytes, little-endian packed.
    tail: u64,
    /// Valid bytes in `tail` (0..8).
    ntail: usize,
    /// Total bytes written.
    length: usize,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// A fresh hasher (zero keys).
    pub fn new() -> Self {
        StableHasher {
            v0: 0x736f_6d65_7073_6575,
            v1: 0x646f_7261_6e64_6f6d,
            v2: 0x6c79_6765_6e65_7261,
            v3: 0x7465_6462_7974_6573,
            tail: 0,
            ntail: 0,
            length: 0,
        }
    }

    /// Hashes one value through its `Hash` impl.
    pub fn hash_one<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
        let mut h = Self::new();
        value.hash(&mut h);
        h.finish()
    }

    fn round(&mut self) {
        self.v0 = self.v0.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(13) ^ self.v0;
        self.v0 = self.v0.rotate_left(32);
        self.v2 = self.v2.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(16) ^ self.v2;
        self.v0 = self.v0.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(21) ^ self.v0;
        self.v2 = self.v2.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(17) ^ self.v2;
        self.v2 = self.v2.rotate_left(32);
    }

    fn block(&mut self, m: u64) {
        self.v3 ^= m;
        self.round();
        self.v0 ^= m;
    }
}

/// Packs up to eight bytes little-endian.
fn le_word(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .enumerate()
        .fold(0, |w, (i, &b)| w | ((b as u64) << (8 * i)))
}

impl Hasher for StableHasher {
    fn write(&mut self, mut msg: &[u8]) {
        self.length += msg.len();
        if self.ntail > 0 {
            let take = (8 - self.ntail).min(msg.len());
            self.tail |= le_word(&msg[..take]) << (8 * self.ntail);
            self.ntail += take;
            msg = &msg[take..];
            if self.ntail < 8 {
                return;
            }
            let m = self.tail;
            self.block(m);
            self.tail = 0;
            self.ntail = 0;
        }
        let mut words = msg.chunks_exact(8);
        for w in &mut words {
            self.block(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        self.tail = le_word(rest);
        self.ntail = rest.len();
    }

    fn finish(&self) -> u64 {
        let mut s = self.clone();
        let b = ((self.length as u64 & 0xff) << 56) | self.tail;
        s.block(b);
        s.v2 ^= 0xff;
        s.round();
        s.round();
        s.round();
        s.v0 ^ s.v1 ^ s.v2 ^ s.v3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn bytes_hash(msg: &[u8]) -> u64 {
        let mut h = StableHasher::new();
        h.write(msg);
        h.finish()
    }

    #[test]
    fn known_answers() {
        // SipHash-1-3, keys (0, 0). Values as std's `DefaultHasher`
        // produced them when this hash was pinned.
        assert_eq!(bytes_hash(&[]), 0xd1fb_a762_150c_532c);
        let msg: Vec<u8> = (0u8..15).collect();
        assert_eq!(bytes_hash(&msg), 0xf30e_b725_bb91_c9ea);
        assert_eq!(
            StableHasher::hash_one(&(0x5eed_u64, 7_u64)),
            0xcec4_e5a6_ebcb_688c
        );
        assert_eq!(StableHasher::hash_one("code"), 0x6cc4_cbc6_058f_bf35);
    }

    #[test]
    fn split_writes_equal_one_write() {
        let msg: Vec<u8> = (0u8..40).collect();
        let whole = bytes_hash(&msg);
        for cut in [0, 1, 7, 8, 9, 23, 40] {
            let mut h = StableHasher::new();
            h.write(&msg[..cut]);
            h.write(&msg[cut..]);
            assert_eq!(h.finish(), whole, "cut at {cut}");
        }
        let mut h = StableHasher::new();
        for b in &msg {
            b.hash(&mut h);
        }
        assert_eq!(h.finish(), whole, "byte-at-a-time");
    }
}
