//! The distribution pass, the one step of distribution sort, hash
//! partitioning and the distribution sweep.
//!
//! A [`PartitionPass`] opens `F` writers at a recursion level, announced
//! through [`direct_next_stream`](pdm::BlockDevice::direct_next_stream) so
//! lane policies decorrelate levels, and the caller's closure routes each
//! record to a bucket: by pivot search, by `level_bucket(h0, level, F)`, or
//! by slab.  Its write-behind and read-ahead come out of the budget's
//! headroom beyond `M`, and every sizing decision from `M` alone, so every
//! transfer count is the same with overlap on or off.
//!
//! Distribution sort and the distribution sweep draw their splitters from
//! the one sampler beside it, [`sample_pivots`]: a seeded reservoir sample,
//! sorted, deduplicated and cut at evenly spaced ranks.

use std::sync::Arc;

use em_core::{ExtVec, ExtVecWriter, MemBudget, Record};
use pdm::hash::splitmix;
use pdm::{PdmError, Result, SharedDevice};

use crate::runs::cmp_from_less;
use crate::{OverlapConfig, SortConfig};

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

/// The budget of an algorithm whose passes hold `writers` writers open in
/// blocks of `block_records` records: capacity `M` plus one pass's overlap
/// queues, `(read_ahead + writers·write_behind)·block_records` at
/// `overlap`'s per-lane depths on `device`.  Passes never overlap, so one
/// pass's queues are the whole reserve.
pub(crate) fn pass_budget(
    device: &SharedDevice,
    writers: usize,
    block_records: usize,
    mem_records: usize,
    overlap: OverlapConfig,
) -> Arc<MemBudget> {
    let ov = overlap.for_lanes(device.stream_lanes());
    let reserve = (ov.read_ahead + writers * ov.write_behind) * block_records;
    MemBudget::new(mem_records + reserve)
}

/// The budget of an operator that spills `fan_out` ways and holds no
/// other writer open: `M` plus one pass's overlap queues,
/// `(read_ahead + fan_out·write_behind)·block_records`.
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
    let budget = pass_budget(device, fan_out, block_records, mem_records, overlap);
    Ok(budget)
}

/// One distribution pass: `fan_out` open writers at a recursion level.
///
/// The caller [`push`](Self::push)es each record to a bucket and
/// [`finish`](Self::finish) returns the buckets as external arrays (an
/// empty bucket comes back as a zero-block array).  Writer *buffer* blocks
/// (`fan_out · B` records) are the caller's to charge — the pass charges
/// only write-behind depths, out of the budget's headroom.
/// [`spill_array`](Self::spill_array) is the whole pass over an array.
pub struct PartitionPass<R: Record> {
    writers: Vec<ExtVecWriter<R>>,
}

impl<R: Record> PartitionPass<R> {
    /// Open `fan_out` writers at recursion `level` on `device`.
    ///
    /// Announces `level` as the device's next block stream (lane
    /// staggering) and configures per-writer write-behind of
    /// `overlap.for_lanes(device.stream_lanes())` blocks, charged to
    /// `budget`.
    pub fn new(
        device: &SharedDevice,
        fan_out: usize,
        level: usize,
        overlap: OverlapConfig,
        budget: &Arc<MemBudget>,
    ) -> Self {
        debug_assert!(fan_out >= 2, "a distribution pass needs fan-out >= 2");
        let ov = overlap.for_lanes(device.stream_lanes());
        device.direct_next_stream(level);
        let writers = (0..fan_out)
            .map(|_| ExtVecWriter::with_write_behind(device.clone(), ov.write_behind, budget))
            .collect();
        PartitionPass { writers }
    }

    /// Distribute all of `input` at recursion `level`: open the pass,
    /// charge its `(fan_out + 1)·B` buffers to `budget`, read `input` ahead
    /// at `overlap`'s per-disk depth, hand each record to `route` (which
    /// [`push`](Self::push)es, keeps or drops it), drop `route` — and with
    /// it whatever state it owns — and return the buckets.  `input` is left
    /// alone.
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
        let mut reader = input.reader_prefetch(read_ahead, budget);
        while let Some(r) = reader.try_next()? {
            route(&mut pass, r)?;
        }
        drop(reader);
        drop(route);
        pass.finish()
    }

    /// Append `r` to bucket `bucket`.
    #[inline]
    pub fn push(&mut self, bucket: usize, r: R) -> Result<()> {
        self.writers[bucket].push(r)
    }

    /// Close every writer and return the buckets, in bucket order.
    pub fn finish(self) -> Result<Vec<ExtVec<R>>> {
        self.writers.into_iter().map(|w| w.finish()).collect()
    }
}

/// Append all of `input` to `out` a block at a time — a bucket that needs
/// no further distribution.  Charges the reader, copy and writer buffers
/// (`3·B`) to `budget` and reads `read_ahead` blocks ahead out of its
/// headroom.
pub fn copy_blocks<R: Record>(
    input: &ExtVec<R>,
    out: &mut ExtVecWriter<R>,
    read_ahead: usize,
    budget: &Arc<MemBudget>,
) -> Result<()> {
    let b = input.per_block();
    let _charge = budget.charge(3 * b);
    let mut reader = input.reader_prefetch(read_ahead, budget);
    let mut block = Vec::with_capacity(b);
    while reader.read_into(&mut block, b)? > 0 {
        out.extend_from_slice(&block)?;
        block.clear();
    }
    Ok(())
}

/// Up to `want` strictly increasing pivot keys of `input`, and how many
/// distinct keys the sample held.
///
/// One scan at `cfg`'s read-ahead keeps a reservoir of `min(4·want, M/2)`
/// records, charged with the reader's block to `budget`.  Its draws are the
/// splitmix64 stream seeded by the pass's `level`, so a pass samples the
/// same records run to run and a stride in the input cannot align with
/// them.  `keys` appends each sampled record's candidate keys; they
/// are sorted by `less`, deduplicated, and cut at `want` evenly spaced
/// ranks.  A sample of one distinct key yields that key alone, and what
/// that means is the caller's to decide.
pub fn sample_pivots<R: Record, K: Clone>(
    input: &ExtVec<R>,
    want: usize,
    level: usize,
    cfg: &SortConfig,
    budget: &Arc<MemBudget>,
    mut keys: impl FnMut(&mut Vec<K>, R),
    less: impl Fn(&K, &K) -> bool,
) -> Result<(Vec<K>, usize)> {
    let size = (4 * want).min(cfg.mem_records / 2).max(1);
    let seed = splitmix(0xD157_0507 ^ level as u64);
    let ov = cfg.overlap.for_lanes(input.device().stream_lanes());
    let _charge = budget.charge(size + input.per_block());
    let mut reader = input.reader_prefetch(ov.read_ahead, budget);
    let (mut sample, mut seen) = (Vec::with_capacity(size), 0u64);
    while let Some(r) = reader.try_next()? {
        if sample.len() < size {
            sample.push(r);
        } else {
            let draw = splitmix(seed.wrapping_add(seen.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            if let Some(slot) = sample.get_mut((draw % (seen + 1)) as usize) {
                *slot = r;
            }
        }
        seen += 1;
    }
    drop(reader);
    let mut ks = Vec::with_capacity(size);
    for r in sample {
        keys(&mut ks, r);
    }
    ks.sort_by(|x, y| cmp_from_less(&less, x, y));
    ks.dedup_by(|x, kept| !less(kept, x));
    let mut ranks: Vec<usize> = (1..=want).map(|j| j * ks.len() / (want + 1)).collect();
    ranks.dedup();
    let pivots = ranks.iter().filter_map(|&i| ks.get(i).cloned()).collect();
    Ok((pivots, ks.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::EmConfig;

    /// The sampler is a function of its input and level: it returns at most
    /// `want` strictly increasing keys, the same ones on a second call, and
    /// charges exactly its reservoir and reader block.
    #[test]
    fn a_sample_is_deterministic_sorted_and_inside_its_charge() {
        let d = EmConfig::new(64, 8).ram_disk();
        let data: Vec<u64> = (0..5000u64).map(|i| (i * 7919) % 1009).collect();
        let input = ExtVec::from_slice(d, &data).unwrap();
        let (want, cfg) = (7, SortConfig::new(64));
        let charge = 4 * want + input.per_block();
        let sample = |level| {
            let budget = MemBudget::new(charge);
            let got = sample_pivots(&input, want, level, &cfg, &budget, Vec::push, u64::lt);
            assert_eq!(budget.high_water(), charge);
            assert_eq!(budget.used(), 0);
            got.unwrap()
        };
        let (pivots, distinct) = sample(3);
        assert!(!pivots.is_empty() && pivots.len() <= want, "{pivots:?}");
        assert!(pivots.windows(2).all(|w| w[0] < w[1]), "{pivots:?}");
        assert!(distinct >= pivots.len() && distinct <= 4 * want);
        assert_eq!(sample(3), (pivots.clone(), distinct));
        assert_ne!(sample(4).0, pivots, "levels draw the same sample");

        let same = ExtVec::from_slice(input.device().clone(), &[7u64; 500]).unwrap();
        let budget = MemBudget::new(charge);
        let got = sample_pivots(&same, want, 0, &cfg, &budget, Vec::push, u64::lt).unwrap();
        assert_eq!(got, (vec![7], 1));
    }
}
