//! Recursive external hash partitioning — the distribution dual of merge
//! sort's runs, and the engine primitive behind hash join and hash
//! aggregation.
//!
//! A level is one [`PartitionPass`], `emsort`'s distribution pass, that fans
//! a record stream into up to `M/B − 1` spill partitions by the
//! level-salted bucket hash ([`em_core::hash::level_bucket`]): every
//! record's key is hashed **once** ([`KeyHasher`]), and deeper recursion
//! levels remix that one 64-bit hash instead of rehashing the key.  The
//! remix makes levels independent (records that collide at level *l* spread
//! at level *l+1*) while letting the planner's exact cost replay
//! (`em_core::bounds::hash_*_exact_ios`) reproduce the entire recursion
//! tree from the level-0 hashes alone — the same no-over-counting
//! philosophy as `merge_sort_exact_ios`.
//!
//! Recursion ([`partition_to_fit`]) stops three ways, mirrored exactly by
//! the cost model:
//!
//! * a partition with ≤ `M` records is **resident** — the consumer loads it
//!   and finishes in memory;
//! * a partition that **stops shrinking** (one bucket received every record
//!   its parent pass spilled — a duplicate-heavy key, or a 64-bit hash
//!   collision) is **skewed**: remixing cannot split equal hashes, so the
//!   consumer falls back to the sort path instead of burning passes;
//! * [`HASH_MAX_LEVELS`] recursion levels is a backstop for adversarially
//!   slow shrinkage, with the same sort fallback.

use em_core::bounds::HASH_MAX_LEVELS;
use em_core::hash::level_bucket;
use em_core::{ExtVec, ExtVecWriter, Record};
use emsort::{copy_blocks, operator_budget, OverlapConfig, PartitionPass};
use pdm::Result;

/// Hashes record keys through one reusable scratch buffer.
///
/// The level-0 hash of a key is [`em_core::hash::hash_bytes`] over its
/// [`Record`] encoding — computed once per record; all recursion levels
/// derive their buckets from it via [`level_bucket`].
#[derive(Default)]
pub struct KeyHasher {
    buf: Vec<u8>,
}

impl KeyHasher {
    /// A hasher with an empty scratch buffer.
    pub fn new() -> Self {
        KeyHasher::default()
    }

    /// The level-0 hash of `key`'s encoded bytes.
    #[inline]
    pub fn hash<K: Record>(&mut self, key: &K) -> u64 {
        self.buf.resize(K::BYTES, 0);
        key.write_to(&mut self.buf);
        em_core::hash::hash_bytes(&self.buf)
    }
}

/// Outcome of [`partition_to_fit`] for one leaf of the recursion tree.
pub enum Partitioned<R: Record> {
    /// At most `mem_records` records: the consumer can load it and finish
    /// in memory.  The consumer owns the array: dropping it frees it.
    Resident(ExtVec<R>),
    /// Stopped shrinking (equal-hash skew) or hit [`HASH_MAX_LEVELS`]:
    /// hashing cannot split it further — consume it by the sort path.
    Skewed(ExtVec<R>),
}

impl<R: Record> Partitioned<R> {
    /// The partition's records, whichever way it terminated.
    pub fn records(&self) -> &ExtVec<R> {
        match self {
            Partitioned::Resident(v) | Partitioned::Skewed(v) => v,
        }
    }

    /// Take ownership of the partition's records.
    pub fn into_records(self) -> ExtVec<R> {
        match self {
            Partitioned::Resident(v) | Partitioned::Skewed(v) => v,
        }
    }
}

/// Recursively hash-partition `input` until every leaf fits in
/// `mem_records` or is declared skewed, returning the leaves in
/// deterministic bucket-DFS order.
///
/// `hash` must return the **level-0** hash of a record's key (use
/// [`KeyHasher`]); all levels are derived from it.  `input` itself is left
/// alone; intermediate partitions are freed as soon as they have been
/// re-partitioned, so peak disk stays `O(N/B)` blocks beyond the input.
/// The recursion reads each spilled record once and writes it once per
/// level it passes through — exactly what
/// `em_core::bounds::hash_partition_exact_ios` replays.
///
/// [`check_fan_out`](emsort::check_fan_out)'s error, before anything is
/// allocated.
pub fn partition_to_fit<R, H>(
    input: &ExtVec<R>,
    hash: H,
    mem_records: usize,
    fan_out: usize,
    overlap: OverlapConfig,
) -> Result<Vec<Partitioned<R>>>
where
    R: Record,
    H: Fn(&R) -> u64,
{
    let b = input.per_block();
    let budget = operator_budget(input.device(), fan_out, b, mem_records, overlap)?;
    let mut out = Vec::new();
    if input.len() as usize <= mem_records {
        // Nothing to do — but the consumer owns its leaves and we cannot
        // move out of a borrow, so the one leaf is a copy (`fan_out ≥ 2`
        // guarantees the copy's `3·B` fit in `M`).
        let mut w = ExtVecWriter::new(input.device().clone());
        copy_blocks(input, &mut w, 0, &budget)?;
        out.push(Partitioned::Resident(w.finish()?));
        return Ok(out);
    }
    let spill = |v: &ExtVec<R>, level| {
        PartitionPass::spill_array(v, fan_out, level, overlap, &budget, |pass, r| {
            pass.push(level_bucket(hash(&r), level, fan_out), r)
        })
    };
    let children = spill(input, 0)?;
    go(children, input.len(), 0, mem_records, &spill, &mut out)?;
    Ok(out)
}

/// Classify the `children` a pass at `level` spilled from `fed` records as
/// leaves, re-partitioning (and then freeing) each child that is neither
/// resident nor skewed, depth first.
fn go<R, S>(
    children: Vec<ExtVec<R>>,
    fed: u64,
    level: usize,
    mem_records: usize,
    spill: &S,
    out: &mut Vec<Partitioned<R>>,
) -> Result<()>
where
    R: Record,
    S: Fn(&ExtVec<R>, usize) -> Result<Vec<ExtVec<R>>>,
{
    for child in children {
        if child.is_empty() {
            child.free()?;
        } else if child.len() as usize <= mem_records {
            out.push(Partitioned::Resident(child));
        } else if child.len() == fed || level + 1 >= HASH_MAX_LEVELS {
            // Every spilled record shares a bucket at this level (equal
            // hashes, which further levels would route identically), or the
            // depth backstop.
            out.push(Partitioned::Skewed(child));
        } else {
            let grandchildren = spill(&child, level + 1)?;
            let len = child.len();
            child.free()?;
            go(grandchildren, len, level + 1, mem_records, spill, out)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::EmConfig;
    use pdm::{PdmError, SharedDevice};

    fn hash_u64(r: &u64) -> u64 {
        em_core::hash::hash_bytes(&r.to_le_bytes())
    }

    /// 64-byte blocks (8 u64 records), `mem_blocks` blocks of memory.
    fn setup(n: u64, mem_blocks: usize) -> (SharedDevice, ExtVec<u64>, usize) {
        let cfg = EmConfig::new(64, mem_blocks);
        let device = cfg.ram_disk();
        let input: Vec<u64> = (0..n).map(|i| i.wrapping_mul(0x9E37_79B9) ^ 7).collect();
        let v = ExtVec::from_slice(device.clone(), &input).unwrap();
        (device, v, cfg.mem_records::<u64>())
    }

    #[test]
    fn leaves_fit_and_preserve_the_multiset() {
        let (device, v, m) = setup(2000, 8);
        let before = device.stats().snapshot();
        let leaves = partition_to_fit(&v, hash_u64, m, 4, OverlapConfig::off()).unwrap();
        let delta = device.stats().snapshot().since(&before);
        let mut got = Vec::new();
        let mut leaf_blocks = 0;
        for leaf in &leaves {
            assert!(
                matches!(leaf, Partitioned::Resident(_)),
                "uniform keys never skew"
            );
            assert!(leaf.records().len() as usize <= m);
            got.extend(leaf.records().to_vec().unwrap());
            leaf_blocks += leaf.records().num_blocks() as u64;
        }
        let mut want: Vec<u64> = v.to_vec().unwrap();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        // The leaves are spills, and so were the levels above them.
        assert!(delta.writes() > leaf_blocks, "more than one level spilled");
    }

    #[test]
    fn skew_tape_falls_back_after_one_pass() {
        let cfg = EmConfig::new(64, 8);
        let device = cfg.ram_disk();
        let v = ExtVec::from_slice(device.clone(), &vec![42u64; 500]).unwrap();
        let m = cfg.mem_records::<u64>();
        assert!(500 > m);
        let before = device.stats().snapshot();
        let leaves = partition_to_fit(&v, hash_u64, m, 4, OverlapConfig::off()).unwrap();
        let delta = device.stats().snapshot().since(&before);
        assert_eq!(leaves.len(), 1);
        assert!(matches!(leaves[0], Partitioned::Skewed(_)));
        assert_eq!(leaves[0].records().len(), 500);
        // One pass proved the skew; no further levels were burned.
        assert_eq!(delta.reads(), v.num_blocks() as u64);
        assert_eq!(delta.writes(), leaves[0].records().num_blocks() as u64);
    }

    #[test]
    fn partition_to_fit_rejects_a_fan_out_memory_cannot_hold() {
        // 8 blocks of memory: fan-out 7 needs all 8, fan-out 8 needs 9.
        let (device, v, m) = setup(2000, 8);
        let allocated = device.allocated_blocks();
        for fan in [1, 8] {
            let err = partition_to_fit(&v, hash_u64, m, fan, OverlapConfig::off()).err();
            assert!(matches!(err, Some(PdmError::InvalidRequest(_))), "{err:?}");
            assert_eq!(device.allocated_blocks(), allocated);
        }
    }

    #[test]
    fn replay_matches_measured_transfers_exactly() {
        for (n, mem_blocks, fan) in [(2000u64, 8usize, 4usize), (5000, 8, 6), (300, 8, 2)] {
            let (device, v, m) = setup(n, mem_blocks);
            let hashes: Vec<u64> = v.to_vec().unwrap().iter().map(hash_u64).collect();
            let before = device.stats().snapshot();
            let leaves = partition_to_fit(&v, hash_u64, m, fan, OverlapConfig::off()).unwrap();
            let delta = device.stats().snapshot().since(&before);
            let predicted =
                em_core::bounds::hash_partition_exact_ios(&hashes, m, v.per_block(), fan);
            assert_eq!(delta.total(), predicted, "n={n} fan={fan}");
            for leaf in leaves {
                leaf.into_records().free().unwrap();
            }
        }
    }

    #[test]
    fn overlap_does_not_change_the_tree_or_the_transfer_count() {
        let mut shapes = Vec::new();
        for depth in [0usize, 4] {
            let (device, v, m) = setup(3000, 8);
            let before = device.stats().snapshot();
            let leaves =
                partition_to_fit(&v, hash_u64, m, 4, OverlapConfig::symmetric(depth)).unwrap();
            let delta = device.stats().snapshot().since(&before);
            let leaf_lens: Vec<u64> = leaves.iter().map(|l| l.records().len()).collect();
            shapes.push((leaf_lens, delta.total(), delta.writes()));
        }
        assert_eq!(shapes[0], shapes[1]);
    }
}
