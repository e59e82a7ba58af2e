//! The workspace's one hash family.
//!
//! Four independent FNV-1a/splitmix implementations grew up across the
//! crates — the journal checksum, emserve's shard router, emhash's bucket
//! hash, and the benchmark checksums.  They are consolidated here so a
//! constant typo can't silently fork a persisted format.  Every function is
//! **bit-stable**: journal checksums, shard routing, and extendible-hash
//! directories are all persisted-state-affecting, so the outputs must never
//! change.  (`em_core::hash` re-exports this module; depend on it from
//! there unless you are inside `pdm` itself.)

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Plain FNV-1a over a byte slice (journal checksums, shard routing).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over the little-endian bytes of each word (benchmark checksums).
#[inline]
pub fn fnv1a_words(words: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for &x in words {
        for byte in x.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// splitmix64's finalizer: a cheap full-avalanche mix of one word.
#[inline]
pub fn splitmix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The workspace's one seeded stream, splitmix64: each draw adds the
/// golden-ratio step to the state, then mixes it with [`splitmix`].  The
/// generators, tests, examples and experiments all draw from it, so a seed
/// names the same input everywhere.
#[derive(Debug)]
pub struct Draws(u64);

impl Draws {
    /// The stream whose state starts at `seed`.
    pub fn new(seed: u64) -> Self {
        Draws(seed)
    }

    /// The next word of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix(self.0)
    }

    /// A draw in `0..n` (`n ≥ 1`), one word modulo `n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A draw in `[0, 1)`: the top 53 bits of one word over 2⁵³.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates, from the back.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The bucket hash of `emhash`: FNV offset xor length as the seed, then one
/// splitmix round per 8-byte (or trailing partial) chunk.  Stronger
/// avalanche than plain FNV-1a for the price of one multiply per word.
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut acc = FNV_OFFSET ^ bytes.len() as u64;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        acc ^= u64::from_le_bytes(word);
        acc = splitmix(acc);
    }
    acc
}

/// The bucket a record with level-0 hash `h0` lands in at recursion level
/// `level` of a `fan_out`-way hash partitioning.
///
/// Deeper levels *remix* the one hash computed from the key bytes instead
/// of rehashing the key with a new seed: the partitioner and the cost
/// model's exact replay (`em_core::bounds::hash_*_exact_ios`) can then both
/// derive the full recursion tree from the level-0 hashes alone.  Levels
/// are independent modulo 64-bit collisions of `h0` itself.
#[inline]
pub fn level_bucket(h0: u64, level: usize, fan_out: usize) -> usize {
    debug_assert!(fan_out > 0);
    let mixed = if level == 0 {
        h0
    } else {
        splitmix(h0 ^ (level as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    };
    (mixed % fan_out as u64) as usize
}

/// A one-pass summary of a set of keys with one-sided error: a key that was
/// [`insert`](Self::insert)ed always [`may_contain`](Self::may_contain); one
/// that was not is rejected except with the false-positive rate of a
/// two-position Bloom filter.  `emrel`'s hash join records the build keys it
/// spills here and drops probe records the filter rejects before they cost a
/// partition write.
///
/// Like [`level_bucket`], both bit positions come from the key's level-0
/// hash (one [`splitmix`] of it, halved), so the join's cost replay
/// (`em_core::bounds::hash_join_exact_ios`) rebuilds the identical filter
/// from the level-0 hashes alone and predicts every false positive.
pub struct KeyFilter {
    /// Zero words (accept everything) or a power-of-two number of them.
    words: Vec<u64>,
}

impl KeyFilter {
    /// The largest power-of-two number of bits that fits `bytes` bytes; a
    /// budget under one word leaves a filter that accepts every key.
    pub fn with_bytes(bytes: usize) -> Self {
        let words = match bytes / 8 {
            0 => 0,
            w => 1 << w.ilog2(),
        };
        KeyFilter {
            words: vec![0; words],
        }
    }

    /// Number of bits (zero or a power of two).
    pub fn bits(&self) -> usize {
        self.words.len() * 64
    }

    /// The two bit positions of the key with level-0 hash `h0`.
    #[inline]
    fn positions(&self, h0: u64) -> [usize; 2] {
        let mask = self.bits() - 1;
        let x = splitmix(h0 ^ 0xD6E8_FEB8_6659_FD93);
        [x as usize & mask, (x >> 32) as usize & mask]
    }

    /// Record the key with level-0 hash `h0`.
    #[inline]
    pub fn insert(&mut self, h0: u64) {
        if self.words.is_empty() {
            return;
        }
        for p in self.positions(h0) {
            self.words[p / 64] |= 1 << (p % 64);
        }
    }

    /// False only if no key with level-0 hash `h0` was inserted.
    ///
    /// Both bits are read and ANDed, without a short-circuit: one branch
    /// on the answer instead of one a position.
    #[inline]
    pub fn may_contain(&self, h0: u64) -> bool {
        if self.words.is_empty() {
            return true;
        }
        let [a, b] = self.positions(h0);
        (self.words[a / 64] >> (a % 64)) & (self.words[b / 64] >> (b % 64)) & 1 != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_filter_never_misses_and_rarely_lies() {
        // 1 000 keys in 2¹⁵ bits: two positions a key, ≈ 6 % of the bits
        // set, so a foreign key passes with probability ≈ 0.06² = 0.35 %.
        let mut f = KeyFilter::with_bytes(5000);
        assert_eq!(f.bits(), 1 << 15, "rounded down to a power of two");
        let h = |k: u64| hash_bytes(&k.to_le_bytes());
        assert!(!f.may_contain(h(0)), "an empty filter rejects");
        (0..1000).for_each(|k| f.insert(h(k)));
        assert!((0..1000).all(|k| f.may_contain(h(k))));
        let lies = (1000..101_000).filter(|&k| f.may_contain(h(k))).count();
        assert!(lies < 700, "{lies} false positives in 100 000");
        // No room for a word: accept everything rather than reject a key.
        let mut none = KeyFilter::with_bytes(7);
        none.insert(h(1));
        assert!(none.bits() == 0 && none.may_contain(h(2)));
    }

    #[test]
    fn key_filter_keeps_its_bits() {
        // The join's cost replay rebuilds the filter from level-0 hashes,
        // so its positions are a persisted format: pinned literally, and
        // `insert` / `may_contain` checked against a bit array written
        // from the definition — one splitmix of `h0 ^ 0xD6E8…FD93`, its
        // low and high 32-bit halves masked to the filter's bits.
        let big = KeyFilter::with_bytes(1024 * 8);
        assert_eq!(big.positions(0), [31_347, 36_768]);
        assert_eq!(big.positions(0xDEAD_BEEF), [53_243, 55]);
        let one = KeyFilter::with_bytes(8);
        assert_eq!(one.positions(0), [51, 32]);
        assert_eq!(one.positions(0xDEAD_BEEF), [59, 55]);
        let hashes: Vec<u64> = (0..100_000u64).map(|k| splitmix(k ^ 0x5EED)).collect();
        for words in [0usize, 1, 64, 1024] {
            let mut f = KeyFilter::with_bytes(words * 8);
            let mut bits = vec![false; words * 64];
            let reference = |h0: u64| {
                let x = splitmix(h0 ^ 0xD6E8_FEB8_6659_FD93);
                let mask = (words * 64).wrapping_sub(1) as u64;
                [(x & mask) as usize, ((x >> 32) & mask) as usize]
            };
            // A quarter of the bits set at most: both answers occur.
            for &h0 in &hashes[..words * 8] {
                f.insert(h0);
                reference(h0).iter().for_each(|&p| bits[p] = true);
            }
            let passed = hashes
                .iter()
                .filter(|&&h0| {
                    let want = words == 0 || reference(h0).iter().all(|&p| bits[p]);
                    assert_eq!(f.may_contain(h0), want, "{words} words, h0 {h0:#x}");
                    want
                })
                .count();
            assert!(words == 0 || passed < hashes.len() / 4, "{words} words");
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn fnv1a_words_is_fnv1a_of_le_bytes() {
        let words = [0u64, 1, u64::MAX, 0xDEAD_BEEF];
        let mut bytes = Vec::new();
        for w in &words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(fnv1a_words(&words), fnv1a(&bytes));
    }

    #[test]
    fn hash_bytes_matches_pinned_values() {
        // Empty, a partial word, one word, two words and a partial one.
        let pins = [
            (&b""[..], 0xCBF2_9CE4_8422_2325),
            (b"k", 0xDD82_BDB2_2760_66A1),
            (b"12345678", 0xA2DC_C1A5_749D_32F6),
            (b"123456789abcdef01", 0x15C8_D066_F9B7_A3DD),
        ];
        for (input, pin) in pins {
            assert_eq!(hash_bytes(input), pin, "{input:?}");
        }
    }

    #[test]
    fn level_buckets_are_decorrelated() {
        // Records sharing a level-0 bucket must spread at level 1.
        let fan = 8;
        let mut seen = vec![0usize; fan];
        for k in 0u64..10_000 {
            let h0 = hash_bytes(&k.to_le_bytes());
            if level_bucket(h0, 0, fan) == 3 {
                seen[level_bucket(h0, 1, fan)] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c > 0), "level 1 spread: {seen:?}");
    }

    #[test]
    fn level_zero_is_plain_modulo() {
        assert_eq!(level_bucket(17, 0, 5), 2);
    }

    #[test]
    fn draws_keep_their_stream() {
        // Every seeded input in the tests, examples and experiments is this
        // stream, so it is pinned: per seed, three words, `below(10)`,
        // `unit()` and a shuffle of `0..8`, drawn in that order.
        type Pin = (u64, [u64; 3], u64, u64, [u32; 8]);
        let pins: [Pin; 3] = [
            (
                0,
                [
                    0xE220_A839_7B1D_CDAF,
                    0x6E78_9E6A_A1B9_65F4,
                    0x06C4_5D18_8009_454F,
                ],
                4,
                0x3FBB_3989_6A51_A870,
                [3, 0, 6, 5, 4, 7, 1, 2],
            ),
            (
                1,
                [
                    0x910A_2DEC_8902_5CC1,
                    0xBEEB_8DA1_658E_EC67,
                    0xF893_A2EE_FB32_555E,
                ],
                5,
                0x3FDC_6ED5_3634_406C,
                [1, 5, 4, 2, 6, 3, 7, 0],
            ),
            (
                42,
                [
                    0xBDD7_3226_2FEB_6E95,
                    0x28EF_E333_B266_F103,
                    0x4752_6757_130F_9F52,
                ],
                4,
                0x3FA3_78B0_B448_9040,
                [1, 4, 3, 5, 0, 7, 2, 6],
            ),
        ];
        for (seed, words, below, unit_bits, shuffled) in pins {
            let mut d = Draws::new(seed);
            assert_eq!(
                [d.next_u64(), d.next_u64(), d.next_u64()],
                words,
                "seed {seed}"
            );
            assert_eq!(d.below(10), below, "seed {seed}");
            assert_eq!(d.unit().to_bits(), unit_bits, "seed {seed}");
            let mut v: Vec<u32> = (0..8).collect();
            d.shuffle(&mut v);
            assert_eq!(v, shuffled, "seed {seed}");
        }
    }
}
