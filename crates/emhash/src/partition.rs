//! Recursive external hash partitioning — the distribution dual of merge
//! sort's runs, and the engine primitive behind hash join and hash
//! aggregation.
//!
//! A **pass** fans a record stream into up to `M/B − 1` spill partitions by
//! the level-salted bucket hash ([`em_core::hash::level_bucket`]): every
//! record's key is hashed **once** ([`KeyHasher`]), and deeper recursion
//! levels remix that one 64-bit hash instead of rehashing the key.  The
//! remix makes levels independent (records that collide at level *l* spread
//! at level *l+1*) while letting the planner's exact cost replay
//! (`em_core::bounds::hash_*_exact_ios`) reproduce the entire recursion
//! tree from the level-0 hashes alone — the same no-over-counting
//! philosophy as `merge_sort_exact_ios`.
//!
//! Each partition streams out through the device's per-lane write-behind:
//! the pass announces its recursion level via
//! [`direct_next_stream`](pdm::BlockDevice::direct_next_stream) so seeded
//! lane policies decorrelate consecutive levels, writers deepen their
//! queues by [`stream_lanes`](pdm::BlockDevice::stream_lanes)
//! ([`OverlapConfig::for_lanes`]), and all depths are charged to the
//! caller's [`MemBudget`] as headroom beyond `M` — the partition tree, and
//! with it every transfer count, is identical with overlap on or off.
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

use std::sync::Arc;

use em_core::bounds::HASH_MAX_LEVELS;
use em_core::hash::level_bucket;
use em_core::{ExtVec, ExtVecWriter, MemBudget, Record};
use emsort::OverlapConfig;
use pdm::{PdmError, Result, SharedDevice};

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

/// [`PdmError::InvalidRequest`] unless `fan_out ≥ 2` and `fan_out + 1`
/// partition buffers of `block_records` records each fit in `mem_records`:
/// one pass reads one block and writes `fan_out`.  The planner prices a
/// fan-out this check rejects at ∞.
pub fn check_fan_out(fan_out: usize, block_records: usize, mem_records: usize) -> Result<()> {
    let needed = (fan_out + 1) * block_records;
    if fan_out < 2 || needed > mem_records {
        return Err(PdmError::InvalidRequest(format!(
            "fan-out {fan_out} must be ≥ 2 and needs {needed} records of memory, have {mem_records}"
        )));
    }
    Ok(())
}

/// The budget of an operator that spills `fan_out` ways in blocks of
/// `block_records` records: capacity `M` plus one pass's overlap queues,
/// `(read_ahead + fan_out·write_behind)·block_records` at `overlap`'s
/// per-lane depths on `device`.  The queues are headroom beyond `M`: every
/// sizing decision comes from `mem_records` alone, so the partition tree,
/// and with it every transfer count, is the same with overlap on or off.
/// Passes never overlap, so one pass's queues are the whole reserve.
///
/// [`check_fan_out`]'s error, before anything is allocated.
pub fn operator_budget(
    device: &SharedDevice,
    fan_out: usize,
    block_records: usize,
    mem_records: usize,
    overlap: OverlapConfig,
) -> Result<Arc<MemBudget>> {
    check_fan_out(fan_out, block_records, mem_records)?;
    let ov = overlap.for_lanes(device.stream_lanes());
    let reserve = (ov.read_ahead + fan_out * ov.write_behind) * block_records;
    Ok(MemBudget::new(mem_records + reserve))
}

/// One fan-out spill pass: `fan_out` open partition writers at a recursion
/// level.
///
/// The caller streams `(h0, record)` pairs in and [`finish`](Self::finish)
/// returns the partitions as external arrays (empty buckets come back as
/// zero-block arrays).  Writer *buffer* blocks (`fan_out · B` records) are
/// the caller's to charge — the pass charges only write-behind depths,
/// matching the distribution-sort idiom where sizing decisions come from
/// the configured `M`, never the budget's overlap headroom.
/// [`spill_array`](Self::spill_array) is the whole pass over an array.
pub struct PartitionPass<R: Record> {
    writers: Vec<ExtVecWriter<R>>,
    level: usize,
}

impl<R: Record> PartitionPass<R> {
    /// Open `fan_out` spill writers at recursion `level` on `device`.
    ///
    /// Announces `level` as the device's next block stream (lane
    /// staggering) and configures per-writer write-behind of
    /// `overlap.for_lanes(device.stream_lanes())` blocks, charged to
    /// `budget`.  `fan_out` must pass [`check_fan_out`]; callers check it
    /// first.
    pub fn new(
        device: &SharedDevice,
        fan_out: usize,
        level: usize,
        overlap: OverlapConfig,
        budget: &Arc<MemBudget>,
    ) -> Self {
        debug_assert!(fan_out >= 2, "hash partitioning needs fan-out >= 2");
        let ov = overlap.for_lanes(device.stream_lanes());
        device.direct_next_stream(level);
        let writers = (0..fan_out)
            .map(|_| ExtVecWriter::with_write_behind(device.clone(), ov.write_behind, budget))
            .collect();
        PartitionPass { writers, level }
    }

    /// Spill all of `input` at recursion `level`: open the pass, charge its
    /// `(fan_out + 1)·B` buffers to `budget`, read `input` ahead at
    /// `overlap`'s per-disk depth, hand each record to `route` (which
    /// [`push`](Self::push)es, keeps or drops it), and return the
    /// partitions.  `input` is left alone.
    pub fn spill_array(
        input: &ExtVec<R>,
        fan_out: usize,
        level: usize,
        overlap: OverlapConfig,
        budget: &Arc<MemBudget>,
        mut route: impl FnMut(&mut Self, R) -> Result<()>,
    ) -> Result<Vec<ExtVec<R>>> {
        let b = input.per_block();
        let read_ahead = overlap.for_lanes(input.device().stream_lanes()).read_ahead;
        let mut pass = PartitionPass::new(input.device(), fan_out, level, overlap, budget);
        let _charge = budget.charge((fan_out + 1) * b);
        let mut reader = input.reader_at_prefetch(0, read_ahead, budget);
        while let Some(r) = reader.try_next()? {
            route(&mut pass, r)?;
        }
        drop(reader);
        pass.finish()
    }

    /// Route one record to the bucket its level-0 hash selects at this
    /// pass's level.
    #[inline]
    pub fn push(&mut self, h0: u64, r: R) -> Result<()> {
        let bi = level_bucket(h0, self.level, self.writers.len());
        self.writers[bi].push(r)
    }

    /// Close every writer and return the spill partitions, bucket order.
    pub fn finish(self) -> Result<Vec<ExtVec<R>>> {
        self.writers.into_iter().map(|w| w.finish()).collect()
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
/// [`check_fan_out`]'s error, before anything is allocated.
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
        // Nothing to do — but the consumer still owns a leaf, so hand back
        // a copy-free view: re-partitioning zero levels means the caller's
        // array IS the leaf.  We cannot move out of a borrow, so stream it
        // into a fresh array only in this degenerate case.
        let mut w = ExtVecWriter::with_write_behind(input.device().clone(), 0, &budget);
        // Reader, copy and writer buffers (fan_out ≥ 2 guarantees M ≥ 3B).
        let _charge = budget.charge(3 * b);
        let mut reader = input.reader_at_prefetch(0, 0, &budget);
        let mut block = Vec::with_capacity(b);
        while reader.read_into(&mut block, b)? > 0 {
            w.extend_from_slice(&block)?;
            block.clear();
        }
        out.push(Partitioned::Resident(w.finish()?));
        return Ok(out);
    }
    let spill = |v: &ExtVec<R>, level| {
        PartitionPass::spill_array(v, fan_out, level, overlap, &budget, |pass, r| {
            pass.push(hash(&r), r)
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
        } else if child.len() == fed {
            // Every spilled record shares a bucket at this level — equal
            // hashes; further levels would route them identically.
            out.push(Partitioned::Skewed(child));
        } else if level + 1 >= HASH_MAX_LEVELS {
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
