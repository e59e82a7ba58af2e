//! I/O accounting.
//!
//! Every [`BlockDevice`](crate::BlockDevice) carries an [`IoStats`] handle and
//! bumps it on each block transfer.  The experiment harness reads a
//! [`IoSnapshot`] before and after running an algorithm and subtracts; since
//! the simulator is deterministic the resulting counts are exact, which is
//! what lets the survey's asymptotic tables be regenerated as real numbers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-disk read/write counters.
///
/// Cloning the `Arc<IoStats>` shares the counters; a
/// [`DiskArray`](crate::DiskArray) gives each member disk its own lane so
/// that *parallel I/O time* — `max` over disks of that disk's transfers — can
/// be computed, which is the cost measure of the Parallel Disk Model.
#[derive(Debug)]
pub struct IoStats {
    reads: Vec<AtomicU64>,
    writes: Vec<AtomicU64>,
    /// Transfers currently queued or executing per lane (overlapped mode).
    depth: Vec<AtomicU64>,
    /// Lifetime maximum of `depth` per lane.
    depth_hwm: Vec<AtomicU64>,
    /// Blocks fetched ahead of demand by streaming readers.
    prefetched: AtomicU64,
    /// Prefetched blocks that were consumed by the reader.
    prefetch_hits: AtomicU64,
    /// Prefetched blocks discarded unconsumed (reader dropped early).
    prefetch_wasted: AtomicU64,
    /// Prefetches whose submission order was chosen by a forecaster (the
    /// smallest-leading-key-first policy of Vitter's merge sort) rather than
    /// uniform per-stream round-robin.  Tracked per lane so independent-disk
    /// merges can show that forecasting keeps every disk's queue busy, not
    /// just the array as a whole.  Blocks that span all lanes (striped
    /// placement) are recorded on lane 0.
    forecast_issued: Vec<AtomicU64>,
    /// Demand fills satisfied by a block the forecaster had put in flight,
    /// per lane (same lane convention as `forecast_issued`).
    forecast_hits: Vec<AtomicU64>,
    /// Transfers re-executed by a [`RetryPolicy`](crate::RetryPolicy) after a
    /// transient device error.  Failed attempts are not counted as block
    /// transfers (the block never moved), so with retries *off* this counter
    /// stays 0 and every read/write count is identical to a fault-free run.
    retries: AtomicU64,
    /// Faults injected by a [`FaultDisk`](crate::FaultDisk) wrapping one of
    /// the member devices (transient, permanent, torn, or latency faults that
    /// produced an error).
    faults_injected: AtomicU64,
    /// Write errors whose completion ticket had already been dropped — the
    /// failure of a write-behind flush nobody was waiting on.  Surfaced again
    /// by [`IoScheduler`](crate::IoScheduler) at shutdown.
    dropped_write_errors: AtomicU64,
    /// Hash-partitioning passes run over this device (one per call that fans
    /// a record stream into spill partitions, including recursive re-passes
    /// over an oversized partition).
    partition_passes: AtomicU64,
    /// Blocks written to spill partitions by hash partitioning.  Spills are
    /// ordinary block writes (counted in `writes` too); this attributes them.
    partition_spilled_blocks: AtomicU64,
    block_bytes: usize,
}

impl IoStats {
    /// Create counters for `disks` independent disks, each transferring
    /// blocks of `block_bytes` bytes.
    pub fn new(disks: usize, block_bytes: usize) -> Arc<Self> {
        assert!(disks >= 1, "at least one disk");
        Arc::new(IoStats {
            reads: (0..disks).map(|_| AtomicU64::new(0)).collect(),
            writes: (0..disks).map(|_| AtomicU64::new(0)).collect(),
            depth: (0..disks).map(|_| AtomicU64::new(0)).collect(),
            depth_hwm: (0..disks).map(|_| AtomicU64::new(0)).collect(),
            prefetched: AtomicU64::new(0),
            prefetch_hits: AtomicU64::new(0),
            prefetch_wasted: AtomicU64::new(0),
            forecast_issued: (0..disks).map(|_| AtomicU64::new(0)).collect(),
            forecast_hits: (0..disks).map(|_| AtomicU64::new(0)).collect(),
            retries: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            dropped_write_errors: AtomicU64::new(0),
            partition_passes: AtomicU64::new(0),
            partition_spilled_blocks: AtomicU64::new(0),
            block_bytes,
        })
    }

    /// Number of disks being tracked.
    pub fn disks(&self) -> usize {
        self.reads.len()
    }

    /// Record one block read on disk `disk`.
    #[inline]
    pub fn record_read(&self, disk: usize) {
        self.reads[disk].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one block write on disk `disk`.
    #[inline]
    pub fn record_write(&self, disk: usize) {
        self.writes[disk].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a transfer entering lane `disk`'s queue (overlapped mode).
    #[inline]
    pub fn record_submit(&self, disk: usize) {
        let now = self.depth[disk].fetch_add(1, Ordering::Relaxed) + 1;
        self.depth_hwm[disk].fetch_max(now, Ordering::Relaxed);
    }

    /// Record a transfer leaving lane `disk`'s queue (overlapped mode).
    #[inline]
    pub fn record_complete(&self, disk: usize) {
        self.depth[disk].fetch_sub(1, Ordering::Relaxed);
    }

    /// Record one block fetched ahead of demand by a streaming reader.
    #[inline]
    pub fn record_prefetch(&self) {
        self.prefetched.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one prefetched block consumed by its reader.
    #[inline]
    pub fn record_prefetch_hit(&self) {
        self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` prefetched blocks discarded without being consumed.
    #[inline]
    pub fn record_prefetch_wasted(&self, n: u64) {
        self.prefetch_wasted.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one prefetch whose submission was ordered by a forecaster,
    /// queued on lane `disk`.  Lane indexes beyond the tracked disk count are
    /// clamped (a striped block spanning every lane records on lane 0).
    #[inline]
    pub fn record_forecast_issued(&self, disk: usize) {
        self.forecast_issued[disk.min(self.forecast_issued.len() - 1)]
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Record one demand fill served by a forecaster-issued block that lane
    /// `disk` delivered (same clamping as [`record_forecast_issued`]).
    ///
    /// [`record_forecast_issued`]: Self::record_forecast_issued
    #[inline]
    pub fn record_forecast_hit(&self, disk: usize) {
        self.forecast_hits[disk.min(self.forecast_hits.len() - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one retried transfer (a [`RetryPolicy`](crate::RetryPolicy)
    /// re-attempt after a transient error).
    #[inline]
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one injected fault (a [`FaultDisk`](crate::FaultDisk) made a
    /// transfer fail or corrupted a write).
    #[inline]
    pub fn record_fault_injected(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one write error whose ticket had already been dropped.
    #[inline]
    pub fn record_dropped_write_error(&self) {
        self.dropped_write_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one hash-partitioning pass over this device.
    #[inline]
    pub fn record_partition_pass(&self) {
        self.partition_passes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `blocks` blocks written to spill partitions.
    #[inline]
    pub fn record_partition_spill(&self, blocks: u64) {
        self.partition_spilled_blocks
            .fetch_add(blocks, Ordering::Relaxed);
    }

    /// Capture the current counter values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self
                .reads
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            writes: self
                .writes
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            depth_hwm: self
                .depth_hwm
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            prefetched: self.prefetched.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
            prefetch_wasted: self.prefetch_wasted.load(Ordering::Relaxed),
            forecast_issued: self
                .forecast_issued
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            forecast_hits: self
                .forecast_hits
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            retries: self.retries.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            dropped_write_errors: self.dropped_write_errors.load(Ordering::Relaxed),
            partition_passes: self.partition_passes.load(Ordering::Relaxed),
            partition_spilled_blocks: self.partition_spilled_blocks.load(Ordering::Relaxed),
            block_bytes: self.block_bytes,
        }
    }

    /// Capture the current counters and subtract `earlier` in one step —
    /// the delta of everything that happened since `earlier` was taken.
    ///
    /// This is the intended way to attribute transfers to one phase of a
    /// concurrent workload (e.g. one serving shard's measure window):
    /// both per-lane vectors come from a single [`snapshot`](Self::snapshot)
    /// call, so the caller never mixes manually subtracted totals taken at
    /// different instants while other threads keep the counters moving.
    pub fn snapshot_delta(&self, earlier: &IoSnapshot) -> IoSnapshot {
        self.snapshot().since(earlier)
    }

    /// Reset all counters to zero.  Prefer snapshot subtraction in
    /// measurement code; reset exists for test hygiene.
    pub fn reset(&self) {
        for c in self
            .reads
            .iter()
            .chain(self.writes.iter())
            .chain(self.depth.iter())
            .chain(self.depth_hwm.iter())
            .chain(self.forecast_issued.iter())
            .chain(self.forecast_hits.iter())
        {
            c.store(0, Ordering::Relaxed);
        }
        self.prefetched.store(0, Ordering::Relaxed);
        self.prefetch_hits.store(0, Ordering::Relaxed);
        self.prefetch_wasted.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.faults_injected.store(0, Ordering::Relaxed);
        self.dropped_write_errors.store(0, Ordering::Relaxed);
        self.partition_passes.store(0, Ordering::Relaxed);
        self.partition_spilled_blocks.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`IoStats`], supporting subtraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoSnapshot {
    reads: Vec<u64>,
    writes: Vec<u64>,
    depth_hwm: Vec<u64>,
    prefetched: u64,
    prefetch_hits: u64,
    prefetch_wasted: u64,
    forecast_issued: Vec<u64>,
    forecast_hits: Vec<u64>,
    retries: u64,
    faults_injected: u64,
    dropped_write_errors: u64,
    partition_passes: u64,
    partition_spilled_blocks: u64,
    block_bytes: usize,
}

impl IoSnapshot {
    /// Total block reads across all disks.
    pub fn reads(&self) -> u64 {
        self.reads.iter().sum()
    }

    /// Total block writes across all disks.
    pub fn writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Total block transfers (reads + writes) across all disks.
    pub fn total(&self) -> u64 {
        self.reads() + self.writes()
    }

    /// Reads on one specific disk.
    pub fn reads_on(&self, disk: usize) -> u64 {
        self.reads[disk]
    }

    /// Writes on one specific disk.
    pub fn writes_on(&self, disk: usize) -> u64 {
        self.writes[disk]
    }

    /// Total transfers (reads + writes) on one specific disk — one lane's
    /// contribution to [`parallel_time`](Self::parallel_time).
    pub fn transfers_on(&self, disk: usize) -> u64 {
        self.reads[disk] + self.writes[disk]
    }

    /// Block reads per lane, indexed by disk.
    pub fn reads_per_lane(&self) -> &[u64] {
        &self.reads
    }

    /// Block writes per lane, indexed by disk.
    pub fn writes_per_lane(&self) -> &[u64] {
        &self.writes
    }

    /// Parallel I/O time: the maximum, over disks, of that disk's total
    /// transfers.  With a single disk this equals [`total`](Self::total);
    /// with `D` well-balanced disks it approaches `total / D`.
    pub fn parallel_time(&self) -> u64 {
        (0..self.reads.len())
            .map(|d| self.reads[d] + self.writes[d])
            .max()
            .unwrap_or(0)
    }

    /// Total bytes transferred.
    pub fn bytes(&self) -> u64 {
        self.total() * self.block_bytes as u64
    }

    /// Queue-depth high-water mark of one lane: the most transfers that were
    /// ever simultaneously queued or executing on that disk.  `1` means the
    /// lane never overlapped transfers; `0` means it never saw an overlapped
    /// submission at all (synchronous mode).
    pub fn queue_depth_hwm(&self, disk: usize) -> u64 {
        self.depth_hwm[disk]
    }

    /// Maximum queue-depth high-water mark over all lanes.
    pub fn max_queue_depth(&self) -> u64 {
        self.depth_hwm.iter().copied().max().unwrap_or(0)
    }

    /// Blocks fetched ahead of demand by streaming readers.
    pub fn prefetched(&self) -> u64 {
        self.prefetched
    }

    /// Prefetched blocks that a reader actually consumed.
    pub fn prefetch_hits(&self) -> u64 {
        self.prefetch_hits
    }

    /// Prefetched blocks discarded unconsumed.  Nonzero means a reader was
    /// dropped with reads in flight — those transfers were still counted, so
    /// this is how a count deviation from the synchronous path would show up.
    pub fn prefetch_wasted(&self) -> u64 {
        self.prefetch_wasted
    }

    /// Prefetches whose submission order was chosen by a forecaster (subset
    /// of [`prefetched`](Self::prefetched)), summed over lanes.
    pub fn forecast_issued(&self) -> u64 {
        self.forecast_issued.iter().sum()
    }

    /// Forecaster-issued prefetches queued on one specific lane.  On an
    /// independent-placement array a balanced spread here is the evidence
    /// that per-lane forecasting keeps every disk busy; striped blocks all
    /// land on lane 0.
    pub fn forecast_issued_on(&self, disk: usize) -> u64 {
        self.forecast_issued[disk]
    }

    /// Demand fills served by a forecaster-issued block: the forecaster
    /// predicted the block would be needed and it was in flight (or already
    /// complete) when the merge asked for it.  Summed over lanes.
    pub fn forecast_hits(&self) -> u64 {
        self.forecast_hits.iter().sum()
    }

    /// Forecaster hits delivered by one specific lane.
    pub fn forecast_hits_on(&self, disk: usize) -> u64 {
        self.forecast_hits[disk]
    }

    /// Transfers re-executed after a transient device error.  Always 0 with
    /// retries disabled; under faults with a [`RetryPolicy`](crate::RetryPolicy)
    /// enabled this is exactly the count deviation a cured fault costs
    /// (failed attempts themselves move no block and are not counted).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Faults injected by [`FaultDisk`](crate::FaultDisk) wrappers.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// Write errors whose completion ticket was already dropped (failed
    /// write-behind flushes nobody waited on).
    pub fn dropped_write_errors(&self) -> u64 {
        self.dropped_write_errors
    }

    /// Hash-partitioning passes run over this device (including recursive
    /// re-passes over oversized partitions).
    pub fn partition_passes(&self) -> u64 {
        self.partition_passes
    }

    /// Blocks written to spill partitions by hash partitioning (a subset of
    /// [`writes`](Self::writes), attributed).
    pub fn partition_spilled_blocks(&self) -> u64 {
        self.partition_spilled_blocks
    }

    /// Element-wise difference `self - earlier`; panics if `earlier` has a
    /// different disk count or any counter exceeds `self`'s.
    ///
    /// Queue-depth high-water marks are *not* subtracted (a maximum has no
    /// meaningful difference); the result keeps `self`'s lifetime marks.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        assert_eq!(self.reads.len(), earlier.reads.len(), "disk count mismatch");
        IoSnapshot {
            reads: self
                .reads
                .iter()
                .zip(&earlier.reads)
                .map(|(a, b)| a.checked_sub(*b).expect("snapshot went backwards"))
                .collect(),
            writes: self
                .writes
                .iter()
                .zip(&earlier.writes)
                .map(|(a, b)| a.checked_sub(*b).expect("snapshot went backwards"))
                .collect(),
            depth_hwm: self.depth_hwm.clone(),
            prefetched: self.prefetched.saturating_sub(earlier.prefetched),
            prefetch_hits: self.prefetch_hits.saturating_sub(earlier.prefetch_hits),
            prefetch_wasted: self.prefetch_wasted.saturating_sub(earlier.prefetch_wasted),
            forecast_issued: self
                .forecast_issued
                .iter()
                .zip(&earlier.forecast_issued)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            forecast_hits: self
                .forecast_hits
                .iter()
                .zip(&earlier.forecast_hits)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            retries: self.retries.saturating_sub(earlier.retries),
            faults_injected: self.faults_injected.saturating_sub(earlier.faults_injected),
            dropped_write_errors: self
                .dropped_write_errors
                .saturating_sub(earlier.dropped_write_errors),
            partition_passes: self
                .partition_passes
                .saturating_sub(earlier.partition_passes),
            partition_spilled_blocks: self
                .partition_spilled_blocks
                .saturating_sub(earlier.partition_spilled_blocks),
            block_bytes: self.block_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_disk() {
        let stats = IoStats::new(3, 4096);
        stats.record_read(0);
        stats.record_read(0);
        stats.record_write(2);
        let snap = stats.snapshot();
        assert_eq!(snap.reads(), 2);
        assert_eq!(snap.writes(), 1);
        assert_eq!(snap.total(), 3);
        assert_eq!(snap.reads_on(0), 2);
        assert_eq!(snap.reads_on(1), 0);
        assert_eq!(snap.writes_on(2), 1);
        assert_eq!(snap.bytes(), 3 * 4096);
    }

    #[test]
    fn parallel_time_is_max_over_disks() {
        let stats = IoStats::new(2, 64);
        for _ in 0..5 {
            stats.record_read(0);
        }
        stats.record_write(1);
        assert_eq!(stats.snapshot().parallel_time(), 5);
    }

    #[test]
    fn since_subtracts() {
        let stats = IoStats::new(1, 64);
        stats.record_read(0);
        let a = stats.snapshot();
        stats.record_read(0);
        stats.record_write(0);
        let b = stats.snapshot();
        let d = b.since(&a);
        assert_eq!(d.reads(), 1);
        assert_eq!(d.writes(), 1);
    }

    #[test]
    fn reset_zeroes() {
        let stats = IoStats::new(1, 64);
        stats.record_read(0);
        stats.reset();
        assert_eq!(stats.snapshot().total(), 0);
    }

    #[test]
    fn overlap_counters_track_depth_and_prefetch() {
        let stats = IoStats::new(2, 64);
        stats.record_submit(0);
        stats.record_submit(0);
        stats.record_submit(1);
        stats.record_complete(0);
        stats.record_submit(0); // depth back to 2, hwm stays 2
        let snap = stats.snapshot();
        assert_eq!(snap.queue_depth_hwm(0), 2);
        assert_eq!(snap.queue_depth_hwm(1), 1);
        assert_eq!(snap.max_queue_depth(), 2);

        stats.record_prefetch();
        stats.record_prefetch();
        stats.record_prefetch_hit();
        stats.record_prefetch_wasted(1);
        stats.record_forecast_issued(0);
        stats.record_forecast_issued(1);
        stats.record_forecast_issued(7); // clamps to the last lane
        stats.record_forecast_hit(1);
        let before = snap;
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.prefetched(), 2);
        assert_eq!(delta.prefetch_hits(), 1);
        assert_eq!(delta.prefetch_wasted(), 1);
        assert_eq!(delta.forecast_issued(), 3);
        assert_eq!(delta.forecast_issued_on(0), 1);
        assert_eq!(delta.forecast_issued_on(1), 2);
        assert_eq!(delta.forecast_hits(), 1);
        assert_eq!(delta.forecast_hits_on(0), 0);
        assert_eq!(delta.forecast_hits_on(1), 1);

        stats.reset();
        let zero = stats.snapshot();
        assert_eq!(zero.max_queue_depth(), 0);
        assert_eq!(zero.prefetched(), 0);
        assert_eq!(zero.forecast_issued(), 0);
        assert_eq!(zero.forecast_hits(), 0);
    }

    #[test]
    fn fault_and_retry_counters_snapshot_subtract_and_reset() {
        let stats = IoStats::new(2, 64);
        let before = stats.snapshot();
        assert_eq!(before.retries(), 0);
        assert_eq!(before.faults_injected(), 0);
        assert_eq!(before.dropped_write_errors(), 0);

        stats.record_fault_injected();
        stats.record_fault_injected();
        stats.record_fault_injected();
        stats.record_retry();
        stats.record_retry();
        stats.record_dropped_write_error();
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.faults_injected(), 3);
        assert_eq!(delta.retries(), 2);
        assert_eq!(delta.dropped_write_errors(), 1);
        // The fault counters are global, not per-lane: reads/writes untouched.
        assert_eq!(delta.total(), 0);

        stats.reset();
        let zero = stats.snapshot();
        assert_eq!(zero.retries(), 0);
        assert_eq!(zero.faults_injected(), 0);
        assert_eq!(zero.dropped_write_errors(), 0);
    }

    #[test]
    fn partition_counters_snapshot_subtract_and_reset() {
        let stats = IoStats::new(2, 64);
        let before = stats.snapshot();
        assert_eq!(before.partition_passes(), 0);
        assert_eq!(before.partition_spilled_blocks(), 0);

        stats.record_partition_pass();
        stats.record_partition_spill(7);
        stats.record_partition_pass();
        stats.record_partition_spill(3);
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.partition_passes(), 2);
        assert_eq!(delta.partition_spilled_blocks(), 10);
        // Attribution counters, not transfers: reads/writes untouched.
        assert_eq!(delta.total(), 0);

        stats.reset();
        let zero = stats.snapshot();
        assert_eq!(zero.partition_passes(), 0);
        assert_eq!(zero.partition_spilled_blocks(), 0);
    }

    #[test]
    fn snapshot_delta_and_per_lane_accessors() {
        let stats = IoStats::new(3, 64);
        stats.record_read(0);
        stats.record_write(2);
        let before = stats.snapshot();
        stats.record_read(1);
        stats.record_read(1);
        stats.record_write(1);
        stats.record_write(2);
        let delta = stats.snapshot_delta(&before);
        assert_eq!(delta.reads_per_lane(), &[0, 2, 0]);
        assert_eq!(delta.writes_per_lane(), &[0, 1, 1]);
        assert_eq!(delta.transfers_on(1), 3);
        assert_eq!(delta.transfers_on(0), 0);
        assert_eq!(delta.total(), 4);
    }

    #[test]
    #[should_panic(expected = "disk count mismatch")]
    fn since_rejects_mismatched_disk_count() {
        let a = IoStats::new(1, 64).snapshot();
        let b = IoStats::new(2, 64).snapshot();
        let _ = b.since(&a);
    }
}
