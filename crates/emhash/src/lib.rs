//! # `emhash` — external extendible hashing
//!
//! The survey's dictionary for when order doesn't matter: extendible hashing
//! (Fagin et al.) keeps a *directory* of `2^g` pointers into block-sized
//! buckets, each bucket holding keys that agree on its first `l ≤ g` hash
//! bits.  A lookup costs exactly **one** block I/O (plus a cached directory
//! probe); inserts cost one I/O amortized, with the occasional bucket split
//! (2–3 I/Os) and rare directory doubling (no I/O — the directory is the
//! resident `O(N/B)`-word metadata every practical implementation keeps in
//! memory, as STXXL/TPIE do for block maps; see DESIGN.md).
//!
//! Compare with the B-tree's `Θ(log_B N)` per lookup — this is the
//! `Search(N)`-versus-hashing trade-off of experiment F13: hashing wins on
//! point lookups but supports no range queries.
//!
//! **Directory growth is bounded.**  A full bucket splits on the lowest
//! hash bit its keys and the new key differ in.  If they share all 64, or
//! that bit lies past depth `⌈(1 + 1/c)·bits(n)⌉ + 8` (`c` pairs a bucket,
//! `n` with the new one), the insert is [`PdmError::InvalidRequest`] before
//! anything changes.  Some `c + 1` of `n` uniform hashes share that many
//! low bits with probability under `2^(−8c)/(c+1)!` (3·10⁻⁶ at `c = 2`); a
//! directory at the bound has `≤ 2^9·(2n)^(1+1/c)` entries, as uniform
//! hashing's own growth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::marker::PhantomData;
use std::sync::Arc;

use em_core::{key_hash, Record};
use pdm::{BlockId, BufferPool, PdmError, Result};

pub mod partition;
pub mod table;

/// An extendible hash table mapping fixed-size keys to fixed-size values.
///
/// ```
/// use em_core::EmConfig;
/// use emhash::ExtendibleHash;
/// use pdm::{BufferPool, EvictionPolicy};
///
/// let pool = BufferPool::new(EmConfig::new(512, 8).ram_disk(), 8, EvictionPolicy::Lru);
/// let mut table: ExtendibleHash<u64, u64> = ExtendibleHash::new(pool)?;
/// table.insert(42, 420)?;
/// assert_eq!(table.get(&42)?, Some(420));   // exactly one bucket I/O
/// assert_eq!(table.remove(&42)?, Some(420));
/// # Ok::<(), pdm::PdmError>(())
/// ```
pub struct ExtendibleHash<K: Record + Eq, V: Record> {
    pool: Arc<BufferPool>,
    /// `2^global_depth` bucket pointers, indexed by the low `global_depth`
    /// bits of the key hash.
    directory: Vec<BlockId>,
    global_depth: u32,
    bucket_cap: usize,
    len: u64,
    splits: u64,
    doublings: u64,
    _marker: PhantomData<fn() -> (K, V)>,
}

// Bucket block layout: [local_depth: u8][count: u16][entries: (K,V)…]
const HDR: usize = 3;

impl<K: Record + Eq, V: Record> ExtendibleHash<K, V> {
    /// Create an empty table (one bucket, global depth 0) cached by `pool`.
    ///
    /// [`PdmError::InvalidRequest`], before anything is allocated, unless a
    /// block holds a bucket of at least two pairs.
    pub fn new(pool: Arc<BufferPool>) -> Result<Self> {
        let bs = pool.device().block_size();
        let bucket_cap = bs.saturating_sub(HDR) / (K::BYTES + V::BYTES);
        if bucket_cap < 2 {
            return Err(PdmError::InvalidRequest(format!(
                "a {bs}-byte block holds {bucket_cap} of these key/value pairs, a bucket needs 2"
            )));
        }
        let (first, mut frame) = pool.allocate()?;
        frame[0] = 0; // local depth
        frame[1..3].copy_from_slice(&0u16.to_le_bytes());
        drop(frame);
        Ok(ExtendibleHash {
            pool,
            directory: vec![first],
            global_depth: 0,
            bucket_cap,
            len: 0,
            splits: 0,
            doublings: 0,
            _marker: PhantomData,
        })
    }

    /// Number of stored pairs.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current directory size (`2^global_depth`).
    pub fn directory_size(&self) -> usize {
        self.directory.len()
    }

    /// Bucket splits performed so far (diagnostics).
    pub fn splits(&self) -> u64 {
        self.splits
    }

    /// Directory doublings performed so far (diagnostics).
    pub fn doublings(&self) -> u64 {
        self.doublings
    }

    /// Average bucket occupancy over capacity (diagnostics; scans directory
    /// metadata only).
    pub fn load_factor(&self) -> f64 {
        let mut unique = self.directory.clone();
        unique.sort_unstable();
        unique.dedup();
        self.len as f64 / (unique.len() * self.bucket_cap) as f64
    }

    fn dir_index(&self, h: u64) -> usize {
        (h as usize) & (self.directory.len() - 1)
    }

    fn read_bucket(&self, id: BlockId) -> Result<(u8, Vec<(K, V)>)> {
        let frame = self.pool.read(id)?;
        let depth = frame[0];
        let count = u16::from_le_bytes([frame[1], frame[2]]) as usize;
        let mut entries = Vec::with_capacity(count);
        let mut at = HDR;
        for _ in 0..count {
            let k = K::read_from(&frame[at..at + K::BYTES]);
            at += K::BYTES;
            let v = V::read_from(&frame[at..at + V::BYTES]);
            at += V::BYTES;
            entries.push((k, v));
        }
        Ok((depth, entries))
    }

    fn write_bucket(&self, id: BlockId, depth: u8, entries: &[(K, V)]) -> Result<()> {
        debug_assert!(entries.len() <= self.bucket_cap, "bucket past its capacity");
        let mut frame = self.pool.write(id)?;
        frame.fill(0);
        frame[0] = depth;
        frame[1..3].copy_from_slice(&(entries.len() as u16).to_le_bytes());
        let mut at = HDR;
        for (k, v) in entries {
            k.write_to(&mut frame[at..at + K::BYTES]);
            at += K::BYTES;
            v.write_to(&mut frame[at..at + V::BYTES]);
            at += V::BYTES;
        }
        Ok(())
    }

    /// Look up `key`: exactly one bucket I/O (through the pool).
    pub fn get(&self, key: &K) -> Result<Option<V>> {
        let h = key_hash(key);
        let id = self.directory[self.dir_index(h)];
        let (_, entries) = self.read_bucket(id)?;
        Ok(entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone()))
    }

    /// True if `key` is present.
    pub fn contains(&self, key: &K) -> Result<bool> {
        Ok(self.get(key)?.is_some())
    }

    /// Insert or replace; returns the previous value if present.
    pub fn insert(&mut self, key: K, value: V) -> Result<Option<V>> {
        loop {
            let h = key_hash(&key);
            let id = self.directory[self.dir_index(h)];
            let (depth, mut entries) = self.read_bucket(id)?;
            if let Some(slot) = entries.iter_mut().find(|(k, _)| *k == key) {
                let old = std::mem::replace(&mut slot.1, value);
                self.write_bucket(id, depth, &entries)?;
                return Ok(Some(old));
            }
            if entries.len() < self.bucket_cap {
                entries.push((key, value));
                self.write_bucket(id, depth, &entries)?;
                self.len += 1;
                return Ok(None);
            }
            // Bucket full: split (may require doubling the directory), then
            // retry the insert against the refined directory.
            self.split_bucket(id, depth, entries, h)?;
        }
    }

    /// Remove `key`, returning its value if present.  (Buckets are not
    /// merged on underflow — the classic implementation trade-off; space is
    /// reclaimed only by rebuilding.)
    pub fn remove(&mut self, key: &K) -> Result<Option<V>> {
        let h = key_hash(key);
        let id = self.directory[self.dir_index(h)];
        let (depth, mut entries) = self.read_bucket(id)?;
        if let Some(pos) = entries.iter().position(|(k, _)| k == key) {
            let (_, v) = entries.remove(pos);
            self.write_bucket(id, depth, &entries)?;
            self.len -= 1;
            return Ok(Some(v));
        }
        Ok(None)
    }

    /// The deepest directory an insert may grow to (module doc).
    fn max_depth(&self) -> u32 {
        let bits = u64::BITS - (self.len + 1).leading_zeros();
        let c = self.bucket_cap as u32;
        (bits * (c + 1)).div_ceil(c) + 8
    }

    /// Split the full bucket `id` (local depth `depth`) a key of hash `h`
    /// did not fit, doubling the directory first if `depth == global_depth`
    /// — unless no split within [`max_depth`](Self::max_depth) separates them.
    fn split_bucket(&mut self, id: BlockId, depth: u8, entries: Vec<(K, V)>, h: u64) -> Result<()> {
        // The lowest bit an entry's hash differs from `h` in splits them.
        let differ = entries.iter().fold(0, |d, (k, _)| d | (key_hash(k) ^ h));
        let need = differ.trailing_zeros() + 1;
        if differ == 0 || need > self.global_depth.max(self.max_depth()) {
            return Err(PdmError::InvalidRequest(format!(
                "{} extendible hash keys share their low {} hash bits, past depth {}",
                entries.len() + 1,
                need - 1,
                self.max_depth()
            )));
        }
        if u32::from(depth) == self.global_depth {
            let old = std::mem::take(&mut self.directory);
            self.directory = old.iter().chain(old.iter()).copied().collect();
            self.global_depth += 1;
            self.doublings += 1;
        }
        let bit = 1u64 << depth;
        let (new_id, frame) = self.pool.allocate()?;
        drop(frame);
        let mut zero_side = Vec::new();
        let mut one_side = Vec::new();
        for (k, v) in entries {
            let h = key_hash(&k);
            if h & bit == 0 {
                zero_side.push((k, v));
            } else {
                one_side.push((k, v));
            }
        }
        let new_depth = depth + 1;
        self.write_bucket(id, new_depth, &zero_side)?;
        self.write_bucket(new_id, new_depth, &one_side)?;
        // Redirect the directory slots of the "1" half.
        for (i, slot) in self.directory.iter_mut().enumerate() {
            if *slot == id && (i as u64) & bit != 0 {
                *slot = new_id;
            }
        }
        self.splits += 1;
        Ok(())
    }

    /// All stored pairs (unspecified order).  Test/diagnostic helper: scans
    /// every bucket.
    pub fn to_vec(&self) -> Result<Vec<(K, V)>> {
        let mut unique = self.directory.clone();
        unique.sort_unstable();
        unique.dedup();
        let mut out = Vec::with_capacity(self.len as usize);
        for id in unique {
            let (_, mut entries) = self.read_bucket(id)?;
            out.append(&mut entries);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::hash::splitmix;
    use em_core::hash::Draws;
    use em_core::EmConfig;
    use pdm::EvictionPolicy;
    use std::collections::HashMap;

    fn pool(block_bytes: usize, frames: usize) -> Arc<BufferPool> {
        let device = EmConfig::new(block_bytes, frames.max(4)).ram_disk();
        BufferPool::new(device, frames, EvictionPolicy::Lru)
    }

    #[test]
    fn a_block_too_small_for_two_pairs_is_an_invalid_request() {
        // Past the 3-byte header, 34 bytes hold one (u64, u64) pair, 35 two.
        let small = pool(34, 8);
        let device = small.device().clone();
        let err = ExtendibleHash::<u64, u64>::new(small).err();
        assert!(matches!(err, Some(PdmError::InvalidRequest(_))), "{err:?}");
        assert_eq!(device.allocated_blocks(), 0);
        let mut h = ExtendibleHash::<u64, u64>::new(pool(35, 8)).unwrap();
        for k in 0..20 {
            h.insert(k, k).unwrap();
        }
        assert_eq!(h.get(&7).unwrap(), Some(7));
    }

    #[test]
    fn insert_get_remove() {
        let mut h: ExtendibleHash<u64, u64> = ExtendibleHash::new(pool(128, 8)).unwrap();
        assert_eq!(h.insert(1, 10).unwrap(), None);
        assert_eq!(h.insert(1, 11).unwrap(), Some(10));
        assert_eq!(h.get(&1).unwrap(), Some(11));
        assert_eq!(h.get(&2).unwrap(), None);
        assert_eq!(h.remove(&1).unwrap(), Some(11));
        assert_eq!(h.remove(&1).unwrap(), None);
        assert!(h.is_empty());
    }

    #[test]
    fn grows_and_matches_hashmap() {
        let mut h: ExtendibleHash<u64, u64> = ExtendibleHash::new(pool(128, 32)).unwrap();
        let mut model = HashMap::new();
        let mut rng = Draws::new(151);
        for _ in 0..20_000 {
            let k = rng.below(5000);
            let v = rng.next_u64();
            assert_eq!(h.insert(k, v).unwrap(), model.insert(k, v));
        }
        assert_eq!(h.len() as usize, model.len());
        assert!(h.directory_size() > 1, "directory must have doubled");
        for k in 0..5000u64 {
            assert_eq!(h.get(&k).unwrap(), model.get(&k).copied(), "key {k}");
        }
        let mut all = h.to_vec().unwrap();
        all.sort_unstable();
        let mut expect: Vec<(u64, u64)> = model.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }

    #[test]
    fn mixed_inserts_and_removes_match_model() {
        let mut h: ExtendibleHash<u64, u64> = ExtendibleHash::new(pool(128, 32)).unwrap();
        let mut model = HashMap::new();
        let mut rng = Draws::new(153);
        for _ in 0..30_000 {
            let k = rng.below(2000);
            if rng.unit() < 0.65 {
                let v = rng.next_u64();
                assert_eq!(h.insert(k, v).unwrap(), model.insert(k, v));
            } else {
                assert_eq!(h.remove(&k).unwrap(), model.remove(&k));
            }
        }
        for k in 0..2000u64 {
            assert_eq!(h.get(&k).unwrap(), model.get(&k).copied());
        }
    }

    #[test]
    fn lookup_is_one_io_cold() {
        let p = pool(128, 4);
        let device = p.device().clone();
        let mut h: ExtendibleHash<u64, u64> = ExtendibleHash::new(p).unwrap();
        for k in 0..5000u64 {
            h.insert(k, k).unwrap();
        }
        let mut rng = Draws::new(155);
        for _ in 0..100 {
            let k = rng.below(5000);
            let before = device.stats().snapshot();
            assert_eq!(h.get(&k).unwrap(), Some(k));
            let d = device.stats().snapshot().since(&before);
            assert!(d.reads() <= 1, "lookup took {} reads", d.reads());
        }
    }

    #[test]
    fn amortized_insert_io_is_constant() {
        let p = pool(4096, 8);
        let device = p.device().clone();
        let mut h: ExtendibleHash<u64, u64> = ExtendibleHash::new(p).unwrap();
        let n = 100_000u64;
        let before = device.stats().snapshot();
        for k in 0..n {
            h.insert(k, k).unwrap();
        }
        let d = device.stats().snapshot().since(&before);
        let per_op = d.total() as f64 / n as f64;
        assert!(per_op < 3.0, "insert cost {per_op} I/Os per op");
    }

    #[test]
    fn load_factor_reasonable() {
        let p = pool(4096, 8);
        let mut h: ExtendibleHash<u64, u64> = ExtendibleHash::new(p).unwrap();
        for k in 0..50_000u64 {
            h.insert(k, k).unwrap();
        }
        let lf = h.load_factor();
        // Extendible hashing's expected occupancy is ln 2 ≈ 0.69.
        assert!((0.4..=0.95).contains(&lf), "load factor {lf}");
    }

    #[test]
    fn duplicate_directory_pointers_stay_consistent() {
        // Small buckets force many splits at shallow depths, exercising the
        // shared-pointer redirection logic.
        let mut h: ExtendibleHash<u64, u64> = ExtendibleHash::new(pool(67, 16)).unwrap(); // cap = 4
        for k in 0..2000u64 {
            h.insert(k, k * 3).unwrap();
        }
        for k in 0..2000u64 {
            assert_eq!(h.get(&k).unwrap(), Some(k * 3));
        }
        assert!(h.splits() > 100);
        assert!(h.doublings() >= 5);
    }

    /// splitmix's finalizer inverted: each xorshift and odd multiply undone.
    fn unsplitmix(x: u64) -> u64 {
        let unshift = |y: u64, s: u32| (0..64 / s).fold(y, |x, _| y ^ (x >> s));
        // Newton's iteration doubles the correct low bits of an odd
        // number's inverse: 3, 6, …, 96.
        let inverse = |c: u64| {
            (0..5).fold(c, |i, _| {
                i.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(i)))
            })
        };
        let x = unshift(x, 31).wrapping_mul(inverse(0x94D0_49BB_1331_11EB));
        let x = unshift(x, 27).wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9));
        unshift(x, 30)
    }

    #[test]
    fn keys_no_split_can_separate_fail_before_the_directory_grows() {
        // A `(u64, u64)` key's hash chains one splitmix a word from the seed
        // `FNV offset ^ 16`, so its second word steers it to any value `t`.
        let seed = 0xCBF2_9CE4_8422_2325 ^ 16;
        let key = |a: u64, t: u64| (a, splitmix(seed ^ a) ^ unsplitmix(t));
        // All 64 hash bits equal, then the low 40 only.
        for spread in [None, Some(40)] {
            let mut h = ExtendibleHash::<(u64, u64), u64>::new(pool(128, 8)).unwrap();
            let cap = h.bucket_cap as u64;
            let keys: Vec<(u64, u64)> = (0..=cap)
                .map(|i| key(i, 0x0123_4567_89AB_CDEF ^ spread.map_or(0, |s| i << s)))
                .collect();
            let hashes: Vec<u64> = keys.iter().map(key_hash).collect();
            assert!(hashes.iter().all(|&x| (x ^ hashes[0]) << 24 == 0));
            assert_eq!(hashes.iter().all(|&x| x == hashes[0]), spread.is_none());
            for (i, &k) in keys[..cap as usize].iter().enumerate() {
                h.insert(k, i as u64).unwrap();
            }
            let err = h.insert(keys[cap as usize], cap).err();
            assert!(matches!(err, Some(PdmError::InvalidRequest(_))), "{err:?}");
            assert!(h.max_depth() < 24, "bound {}", h.max_depth());
            assert_eq!(h.directory_size(), 1, "failed before any doubling");
            // Nothing changed, and a key of another hash still goes in.
            assert_eq!(h.len(), cap);
            for (i, k) in keys[..cap as usize].iter().enumerate() {
                assert_eq!(h.get(k).unwrap(), Some(i as u64));
            }
            h.insert((u64::MAX, 0), 7).unwrap();
            assert_eq!(h.get(&(u64::MAX, 0)).unwrap(), Some(7));
        }
    }

    #[test]
    fn tuple_keys() {
        let mut h: ExtendibleHash<(u32, u32), u64> = ExtendibleHash::new(pool(128, 8)).unwrap();
        h.insert((1, 2), 12).unwrap();
        h.insert((2, 1), 21).unwrap();
        assert_eq!(h.get(&(1, 2)).unwrap(), Some(12));
        assert_eq!(h.get(&(2, 1)).unwrap(), Some(21));
        assert_eq!(h.get(&(1, 1)).unwrap(), None);
    }
}
