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
    /// by `IoScheduler` at shutdown.
    dropped_write_errors: AtomicU64,
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
            retries: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            dropped_write_errors: AtomicU64::new(0),
            block_bytes,
        })
    }

    /// Number of disks being tracked.
    pub fn disks(&self) -> usize {
        self.reads.len()
    }

    /// Record one block read on disk `disk`.
    #[inline]
    pub(crate) fn record_read(&self, disk: usize) {
        self.reads[disk].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one block write on disk `disk`.
    #[inline]
    pub(crate) fn record_write(&self, disk: usize) {
        self.writes[disk].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a transfer entering lane `disk`'s queue (overlapped mode).
    #[inline]
    pub(crate) fn record_submit(&self, disk: usize) {
        let now = self.depth[disk].fetch_add(1, Ordering::Relaxed) + 1;
        self.depth_hwm[disk].fetch_max(now, Ordering::Relaxed);
    }

    /// Record a transfer leaving lane `disk`'s queue (overlapped mode).
    #[inline]
    pub(crate) fn record_complete(&self, disk: usize) {
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

    /// Record one retried transfer (a [`RetryPolicy`](crate::RetryPolicy)
    /// re-attempt after a transient error).
    #[inline]
    pub(crate) fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one injected fault (a [`FaultDisk`](crate::FaultDisk) made a
    /// transfer fail or corrupted a write).
    #[inline]
    pub(crate) fn record_fault_injected(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one write error whose ticket had already been dropped.
    #[inline]
    pub(crate) fn record_dropped_write_error(&self) {
        self.dropped_write_errors.fetch_add(1, Ordering::Relaxed);
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
            retries: self.retries.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            dropped_write_errors: self.dropped_write_errors.load(Ordering::Relaxed),
            block_bytes: self.block_bytes,
        }
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
    retries: u64,
    faults_injected: u64,
    dropped_write_errors: u64,
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
            retries: self.retries.saturating_sub(earlier.retries),
            faults_injected: self.faults_injected.saturating_sub(earlier.faults_injected),
            dropped_write_errors: self
                .dropped_write_errors
                .saturating_sub(earlier.dropped_write_errors),
            block_bytes: self.block_bytes,
        }
    }
}

#[cfg(test)]
impl IoSnapshot {
    /// Block reads per lane, indexed by disk.
    pub(crate) fn reads_per_lane(&self) -> &[u64] {
        &self.reads
    }

    /// Block writes per lane, indexed by disk.
    pub(crate) fn writes_per_lane(&self) -> &[u64] {
        &self.writes
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
        let before = snap;
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.prefetched(), 2);
        assert_eq!(delta.prefetch_hits(), 1);
        assert_eq!(delta.prefetch_wasted(), 1);
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
    }

    #[test]
    fn per_lane_accessors_after_since() {
        let stats = IoStats::new(3, 64);
        stats.record_read(0);
        stats.record_write(2);
        let before = stats.snapshot();
        stats.record_read(1);
        stats.record_read(1);
        stats.record_write(1);
        stats.record_write(2);
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.reads_per_lane(), &[0, 2, 0]);
        assert_eq!(delta.writes_per_lane(), &[0, 1, 1]);
        assert_eq!(delta.reads_on(1), 2);
        assert_eq!(delta.writes_on(2), 1);
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
