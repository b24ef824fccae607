//! The repo's two deterministic hashes: FNV-1a 64 and the SplitMix64
//! finalizer.
//!
//! Both are pure functions of their input — no `RandomState`, stable
//! across runs, processes and platforms — so anything keyed by them
//! (section checksums, cache fingerprints, shard and sampling routes,
//! seeded fault rolls) replays identically. Every crate that needs one
//! of them uses this module; the constants live here and nowhere else.
//!
//! ```
//! use pws_obs::hash::{fnv1a64, splitmix64, Fnv1a};
//!
//! let mut h = Fnv1a::new();
//! h.write(b"sea");
//! h.write(b"food");
//! assert_eq!(h.finish(), fnv1a64(b"seafood"));
//! assert_ne!(splitmix64(1), splitmix64(2));
//! ```

/// Streaming FNV-1a 64-bit hasher. Feeding bytes in several
/// [`write`](Self::write) calls hashes exactly like one call over their
/// concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// FNV-1a 64 offset basis.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a 64 prime.
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher in the initial (offset-basis) state.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Fold `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Fold each word's little-endian bytes into the hash.
    pub fn write_u64s(&mut self, words: &[u64]) {
        for w in words {
            self.write(&w.to_le_bytes());
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// FNV-1a 64 of one byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// SplitMix64's golden-ratio increment: `splitmix64(s)` mixes
/// `s + SPLITMIX_GAMMA`, and stepping a state by it turns the finalizer
/// into Vigna's SplitMix64 generator.
pub const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer: a bijective mix of one word. Used to
/// spread dense ids (shard routing), to fix FNV's weak low bits before a
/// modulo roll, and as a seeded PRNG (see [`SPLITMIX_GAMMA`]).
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded fault/sampling roll: FNV-1a over `words` (little-endian)
/// then `bytes`, SplitMix64-finalized so `roll % n` is well mixed.
pub fn roll(words: &[u64], bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64s(words);
    h.write(bytes);
    splitmix64(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published FNV-1a 64 test vectors and the reference SplitMix64
    /// output for seed 0 (the first draw of Vigna's generator).
    #[test]
    fn known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut h = Fnv1a::default();
        h.write_u64s(&[1, 2]);
        h.write(b"x");
        let mut flat = 1u64.to_le_bytes().to_vec();
        flat.extend_from_slice(&2u64.to_le_bytes());
        flat.push(b'x');
        assert_eq!(h.finish(), fnv1a64(&flat));
        assert_eq!(roll(&[1, 2], b"x"), splitmix64(fnv1a64(&flat)));
    }

    /// Pinned outputs of the seeded chaos and `FaultIo` fault rolls and
    /// the bench schedule: a seed must inject the same faults and issue
    /// the same requests in every version, or recorded runs stop
    /// replaying.
    #[test]
    fn seeded_rolls_are_pinned() {
        assert_eq!(roll(&[1, 2, 3, 4], b"lobster harbor"), 0x836a_de8d_0616_8542);
        assert_eq!(roll(&[9, 3, 1], b"user-00000001.pwsu"), 0x9c69_d56c_0d13_a514);
        assert_eq!(splitmix64((3 << 32) | 5), 0x89df_ed86_c881_e2d6);
        assert_eq!(splitmix64(7), 0x63cb_e1e4_5932_0dd7);
    }
}
