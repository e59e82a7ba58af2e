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

use std::sync::Arc;

use em_core::{ExtVec, ExtVecWriter, MemBudget, Record};
use pdm::{PdmError, Result, SharedDevice};

use crate::OverlapConfig;

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
        let mut reader = input.reader_at_prefetch(0, read_ahead, budget);
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
    let mut reader = input.reader_at_prefetch(0, read_ahead, budget);
    let mut block = Vec::with_capacity(b);
    while reader.read_into(&mut block, b)? > 0 {
        out.extend_from_slice(&block)?;
        block.clear();
    }
    Ok(())
}
