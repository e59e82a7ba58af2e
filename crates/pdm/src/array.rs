//! Multi-disk arrays: striping versus independent disks.
//!
//! The survey highlights two ways to use `D` disks:
//!
//! * **Disk striping** treats the array as one logical disk with block size
//!   `D·B`: every logical transfer moves one physical block on *each* disk,
//!   in parallel.  Striping is simple and gives perfect parallelism on every
//!   I/O, but because the effective block size grows to `D·B` it shrinks the
//!   merge/distribution fan-in from `Θ(M/B)` to `Θ(M/(DB))` — which is where
//!   the well-known `log` factor loss of striped sorting comes from
//!   (experiment F5).
//! * **Independent disks** keep block size `B` and place each logical block
//!   on a single disk; the algorithm is responsible for spreading accesses so
//!   the parallel I/O time `max_d(transfers_d)` approaches `total/D`.
//!
//! `DiskArray` implements [`BlockDevice`] in both modes, so every algorithm
//! in the workspace runs unchanged on 1 disk, a striped array, or an
//! independent array.
//!
//! An array additionally carries an [`IoMode`]: in
//! [`Overlapped`](IoMode::Overlapped) mode an `IoScheduler` runs one worker
//! thread per member disk, so a striped transfer really does move its `D`
//! physical blocks concurrently, and [`submit_read`](BlockDevice::submit_read)
//! / [`submit_write`](BlockDevice::submit_write) give independent-mode
//! callers queue depth > 1 per disk.  Transfer *counts* are identical in both
//! modes — only wall-clock time and the queue-depth statistics differ.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::device::{BlockDevice, BlockId};
use crate::error::{PdmError, Result};
use crate::fault::{FaultDisk, FaultPlan};
use crate::ram_disk::RamDisk;
use crate::sched::{run_with_retry, IoMode, IoScheduler, IoTicket, RetryPolicy};
use crate::stats::IoStats;

/// How logical blocks map onto the member disks.
///
/// [`Striped`](Placement::Striped) is the one placement with a different
/// *geometry* (logical block size `D·B`).  The other two share the
/// independent-disk geometry — block size `B`, one block on one disk — and
/// differ only in the *lane policy* the allocation cursor follows when a
/// writer announces a new sequential stream via
/// [`BlockDevice::direct_next_stream`]:
///
/// * [`Independent`](Placement::Independent): stream `r` starts on lane
///   `r mod D` and advances round-robin — a deterministic stagger.
/// * [`RandomizedCycling`](Placement::RandomizedCycling): stream `r` follows
///   its own pseudorandom *permutation* of the lanes, cycled — randomized
///   cycling à la Vitter–Hutchinson, where consecutive blocks of one stream
///   visit the disks in a per-stream random order rather than a rotation of
///   the same global order.
///
/// Both lane policies are pure placement: the transfer counts of any
/// algorithm are identical across them, and because the lane choice is a
/// deterministic function of `(seed, stream index)`, a sort's block layout
/// reproduces exactly across repeated executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// One logical block = `D` physical blocks, one per disk (block size
    /// `D·B`); every I/O touches every disk.
    Striped,
    /// One logical block = one physical block on one disk (block size `B`);
    /// blocks are spread round-robin across the disks.
    Independent,
    /// Independent-disk geometry with randomized-cycling stream placement:
    /// each sequential stream cycles its own seeded pseudorandom permutation
    /// of the lanes.
    RandomizedCycling {
        /// Seed decorrelating the per-stream lane permutations.
        seed: u64,
    },
}

impl Placement {
    /// Whether this placement stripes each logical block across all disks.
    pub fn is_striped(self) -> bool {
        matches!(self, Placement::Striped)
    }
}

/// One SplitMix64 step: decorrelates `(seed, stream)` pairs into lane
/// choices and permutation seeds.
fn mix64(z: u64) -> u64 {
    crate::hash::splitmix(z.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// The allocation cursor of an independent-geometry array: the lane sequence
/// consecutive allocations follow.  `pattern` is the identity rotation for
/// round-robin placements and a per-stream permutation under randomized
/// cycling; `pos` indexes into it (mod `D`).
struct AllocCursor {
    pattern: Vec<usize>,
    pos: usize,
}

impl AllocCursor {
    fn identity(d: usize) -> Self {
        AllocCursor {
            pattern: (0..d).collect(),
            pos: 0,
        }
    }

    fn next(&mut self) -> usize {
        let lane = self.pattern[self.pos % self.pattern.len()];
        self.pos += 1;
        lane
    }

    fn reset_identity(&mut self) {
        let d = self.pattern.len();
        if self.pattern.iter().enumerate().any(|(i, &l)| i != l) {
            self.pattern = (0..d).collect();
        }
    }

    /// Install the seeded Fisher–Yates permutation for one stream.
    fn install_permutation(&mut self, stream_seed: u64) {
        let d = self.pattern.len();
        self.pattern = (0..d).collect();
        let mut state = stream_seed;
        for i in (1..d).rev() {
            state = mix64(state);
            let j = (state % (i as u64 + 1)) as usize;
            self.pattern.swap(i, j);
        }
        self.pos = 0;
    }
}

/// An array of `D` disks (RAM- or file-backed) sharing one [`IoStats`]
/// with a lane per disk.
pub struct DiskArray {
    disks: Vec<Arc<dyn BlockDevice>>,
    placement: Placement,
    physical_block: usize,
    stats: Arc<IoStats>,
    /// Lane policy state for the independent geometries; see [`Placement`].
    /// A striped array has no lane policy and holds this lock across
    /// `allocate` and `free` instead, to keep its member disks in lockstep.
    cursor: Mutex<AllocCursor>,
    /// Present in overlapped mode.  When set, *every* member transfer —
    /// `read_block`/`write_block` are a submit waited on at once — is routed
    /// through the per-lane worker queues, so one lane's transfers always
    /// complete in submission order regardless of how they were issued.
    sched: Option<IoScheduler>,
    /// Retry policy for transient member-disk errors, applied to every
    /// member transfer wherever it runs.  The default
    /// ([`RetryPolicy::none`]) performs no retries, leaving every
    /// model-count invariant untouched; see
    /// [`new_ram_faulty`](Self::new_ram_faulty).
    retry: RetryPolicy,
}

impl DiskArray {
    /// Create an array of `d` RAM disks with physical block size
    /// `physical_block` bytes, executing transfers synchronously.
    pub fn new_ram(d: usize, physical_block: usize, placement: Placement) -> Arc<Self> {
        Self::new_ram_with(d, physical_block, placement, IoMode::Synchronous)
    }

    /// Create an array of `d` RAM disks with an explicit [`IoMode`].
    ///
    /// # Panics
    ///
    /// If `d` or `physical_block` is zero ([`IoStats::new`] and
    /// [`RamDisk::with_stats`] check them).
    pub fn new_ram_with(
        d: usize,
        physical_block: usize,
        placement: Placement,
        mode: IoMode,
    ) -> Arc<Self> {
        let stats = IoStats::new(d, physical_block);
        let disks: Vec<Arc<dyn BlockDevice>> = (0..d)
            .map(|lane| {
                Arc::new(RamDisk::with_stats(
                    physical_block,
                    Arc::clone(&stats),
                    lane,
                )) as Arc<dyn BlockDevice>
            })
            .collect();
        Arc::new(Self::assemble(
            disks,
            placement,
            physical_block,
            stats,
            mode,
            RetryPolicy::none(),
        ))
    }

    /// Create an array of `d` RAM disks, each wrapped in a
    /// [`FaultDisk`] executing `plans[lane]`, with transient errors retried
    /// under `retry`.
    ///
    /// This is the fault-injection entry point: the returned array behaves
    /// exactly like [`new_ram_with`](Self::new_ram_with) wherever the plans
    /// are benign, and with `retry` set to [`RetryPolicy::none`] the
    /// fault-free transfer counts are byte-for-byte unchanged.
    ///
    /// # Panics
    ///
    /// If `d` or `physical_block` is zero, as
    /// [`new_ram_with`](Self::new_ram_with), or `plans` does not hold one
    /// plan per disk.
    pub fn new_ram_faulty(
        d: usize,
        physical_block: usize,
        placement: Placement,
        mode: IoMode,
        plans: &[FaultPlan],
        retry: RetryPolicy,
    ) -> Arc<Self> {
        assert_eq!(plans.len(), d, "one fault plan per member disk");
        let stats = IoStats::new(d, physical_block);
        let disks: Vec<Arc<dyn BlockDevice>> = (0..d)
            .map(|lane| {
                let ram = Arc::new(RamDisk::with_stats(
                    physical_block,
                    Arc::clone(&stats),
                    lane,
                )) as Arc<dyn BlockDevice>;
                FaultDisk::wrap(ram, plans[lane].clone()) as Arc<dyn BlockDevice>
            })
            .collect();
        Arc::new(Self::assemble(
            disks,
            placement,
            physical_block,
            stats,
            mode,
            retry,
        ))
    }

    /// Assemble an array over caller-supplied member devices.
    ///
    /// This is the *reboot* constructor of the crash-recovery story: the
    /// member devices (typically [`RamDisk`]s, possibly re-wrapped in fresh
    /// [`FaultDisk`]s) are the medium that survived a simulated crash, and
    /// reassembling an array over them models power-on with the old state
    /// intact.  All members must share one [`IoStats`] handle with one lane
    /// per member, each member recording into its own lane — exactly what
    /// [`RamDisk::with_stats`] builds.
    ///
    /// # Panics
    ///
    /// If `disks` is empty or its members do not share such a handle.
    pub fn from_devices(
        disks: Vec<Arc<dyn BlockDevice>>,
        placement: Placement,
        mode: IoMode,
        retry: RetryPolicy,
    ) -> Arc<Self> {
        assert!(!disks.is_empty(), "need at least one disk");
        let physical_block = disks[0].block_size();
        let stats = disks[0].stats();
        assert_eq!(
            stats.disks(),
            disks.len(),
            "members must share a stats handle with one lane per disk"
        );
        Arc::new(Self::assemble(
            disks,
            placement,
            physical_block,
            stats,
            mode,
            retry,
        ))
    }

    fn assemble(
        disks: Vec<Arc<dyn BlockDevice>>,
        placement: Placement,
        physical_block: usize,
        stats: Arc<IoStats>,
        mode: IoMode,
        retry: RetryPolicy,
    ) -> Self {
        let sched = match mode {
            IoMode::Synchronous => None,
            IoMode::Overlapped => Some(IoScheduler::with_retry(&disks, Arc::clone(&stats), retry)),
        };
        let d = disks.len();
        DiskArray {
            disks,
            placement,
            physical_block,
            stats,
            cursor: Mutex::new(AllocCursor::identity(d)),
            sched,
            retry,
        }
    }

    /// Allocate an independent-mode block on disk `disk`, the one the
    /// allocation cursor chose; only a [`LaneView`](crate::LaneView) of an
    /// independent array calls it.
    pub(crate) fn allocate_on(&self, disk: usize) -> Result<BlockId> {
        debug_assert!(!self.placement.is_striped());
        let d = self.disks.len() as u64;
        let phys = self.disks[disk].allocate()?;
        Ok(phys * d + disk as u64)
    }

    fn split_independent(&self, id: BlockId) -> (usize, BlockId) {
        let d = self.disks.len() as u64;
        ((id % d) as usize, id / d)
    }

    fn size_check(&self, len: usize) -> Result<()> {
        let bs = self.block_size();
        if len != bs {
            return Err(PdmError::SizeMismatch {
                expected: bs,
                actual: len,
            });
        }
        Ok(())
    }

    /// Move logical block `id` — a write of `buf`, or a read into it — as
    /// its member transfers: one per disk when striped, else one.  A
    /// striped ticket gathers (read) or joins (write) its members' tickets.
    fn submit(&self, write: bool, id: BlockId, buf: Box<[u8]>) -> IoTicket {
        if let Err(e) = self.size_check(buf.len()) {
            return IoTicket::ready(buf, Err(e));
        }
        if !self.placement.is_striped() {
            let (disk, phys) = self.split_independent(id);
            return self.member(disk, write, phys, buf);
        }
        let mut parts = Vec::with_capacity(self.disks.len());
        for (disk, chunk) in buf.chunks(self.physical_block).enumerate() {
            let part = if write {
                chunk.into()
            } else {
                vec![0u8; self.physical_block].into_boxed_slice()
            };
            let ticket = self.member(disk, write, id, part);
            // Only an inline transfer has failed already: it stops the rest.
            let failed = ticket.failed();
            parts.push(ticket);
            if failed {
                break;
            }
        }
        IoTicket::split(parts, buf, !write)
    }

    /// The one member transfer: physical block `phys` on disk `disk`, run
    /// under the retry policy — on the caller's thread, returning a
    /// finished ticket, or on the disk's worker when overlapped.
    fn member(&self, disk: usize, write: bool, phys: BlockId, mut buf: Box<[u8]>) -> IoTicket {
        match &self.sched {
            Some(sched) => sched.submit(disk, write, phys, buf),
            None => {
                let device = &*self.disks[disk];
                let res = run_with_retry(
                    &self.retry,
                    &self.stats,
                    device,
                    disk,
                    write,
                    phys,
                    &mut buf,
                );
                IoTicket::ready(buf, res)
            }
        }
    }
}

impl BlockDevice for DiskArray {
    fn block_size(&self) -> usize {
        if self.placement.is_striped() {
            self.physical_block * self.disks.len()
        } else {
            self.physical_block
        }
    }

    fn allocated_blocks(&self) -> u64 {
        if self.placement.is_striped() {
            self.disks[0].allocated_blocks()
        } else {
            self.disks.iter().map(|d| d.allocated_blocks()).sum()
        }
    }

    fn allocate(&self) -> Result<BlockId> {
        if self.placement.is_striped() {
            // Keep member disks in lockstep: the logical id is the common
            // physical id on every disk.  That holds only while every disk
            // sees the same sequence of allocations and frees, so concurrent
            // callers take turns (striping has no cursor; its lock is free).
            let _lockstep = self.cursor.lock();
            let first = self.disks[0].allocate()?;
            for disk in &self.disks[1..] {
                let id = disk.allocate()?;
                debug_assert_eq!(id, first, "striped disks out of lockstep");
            }
            Ok(first)
        } else {
            let disk = self.cursor.lock().next();
            self.allocate_on(disk)
        }
    }

    fn free(&self, id: BlockId) -> Result<()> {
        if self.placement.is_striped() {
            let _lockstep = self.cursor.lock();
            for disk in &self.disks {
                disk.free(id)?;
            }
            Ok(())
        } else {
            let (disk, phys) = self.split_independent(id);
            self.disks[disk].free(phys)
        }
    }

    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<()> {
        let (out, res) = self
            .submit_read(id, vec![0u8; buf.len()].into_boxed_slice())
            .wait();
        res?;
        buf.copy_from_slice(&out);
        Ok(())
    }

    fn write_block(&self, id: BlockId, buf: &[u8]) -> Result<()> {
        self.submit_write(id, buf.into()).wait().1
    }

    fn submit_read(&self, id: BlockId, buf: Box<[u8]>) -> IoTicket {
        self.submit(false, id, buf)
    }

    fn submit_write(&self, id: BlockId, buf: Box<[u8]>) -> IoTicket {
        self.submit(true, id, buf)
    }

    fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    fn lane_of(&self, id: BlockId) -> Option<usize> {
        if self.placement.is_striped() {
            // A striped logical block spans every member disk; no one lane
            // owns it.
            None
        } else {
            Some(self.split_independent(id).0)
        }
    }

    fn stream_lanes(&self) -> usize {
        if self.placement.is_striped() {
            // A striped transfer already keeps every disk busy; deepening a
            // stream's queue buys no extra lane-parallelism.
            1
        } else {
            // Consecutive allocations visit every disk once per D blocks
            // under both lane policies: a sequential stream reaches
            // full D-parallelism at queue depth ≥ D.
            self.disks.len()
        }
    }

    fn barrier(&self) -> Result<()> {
        match &self.sched {
            Some(sched) => sched.barrier(),
            // Synchronous arrays complete every transfer inline; nothing can
            // be outstanding and no ticket is ever dropped unseen.
            None => Ok(()),
        }
    }

    fn direct_next_stream(&self, stream: usize) {
        match self.placement {
            // Striped placement has no per-lane cursor to direct — every
            // logical block spans all D disks.
            Placement::Striped => {}
            Placement::Independent => {
                let mut cur = self.cursor.lock();
                cur.reset_identity();
                cur.pos = stream % self.disks.len();
            }
            Placement::RandomizedCycling { seed } => {
                self.cursor.lock().install_permutation(mix64(
                    seed ^ (stream as u64).wrapping_mul(0xA24B_AED4_963E_E407),
                ));
            }
        }
    }
}

#[cfg(test)]
impl DiskArray {
    /// The I/O execution mode of this array.
    fn io_mode(&self) -> IoMode {
        if self.sched.is_some() {
            IoMode::Overlapped
        } else {
            IoMode::Synchronous
        }
    }

    /// Which disk an independent-mode logical block lives on.
    ///
    /// Panics if the array is striped (striped blocks live on every disk).
    fn disk_of(&self, id: BlockId) -> usize {
        assert!(!self.placement.is_striped());
        (id % self.disks.len() as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striped_block_size_is_d_times_b() {
        let arr = DiskArray::new_ram(4, 64, Placement::Striped);
        assert_eq!(arr.block_size(), 256);
    }

    #[test]
    fn striped_io_touches_every_disk() {
        let arr = DiskArray::new_ram(3, 8, Placement::Striped);
        let id = arr.allocate().unwrap();
        let data: Vec<u8> = (0..24).collect();
        arr.write_block(id, &data).unwrap();
        let mut out = vec![0u8; 24];
        arr.read_block(id, &mut out).unwrap();
        assert_eq!(out, data);
        let snap = arr.stats().snapshot();
        // one logical read + one logical write = 1 transfer per disk each
        assert_eq!(snap.total(), 6);
        assert_eq!(snap.parallel_time(), 2);
        for d in 0..3 {
            assert_eq!(snap.reads_on(d), 1);
            assert_eq!(snap.writes_on(d), 1);
        }
    }

    #[test]
    fn striped_allocate_and_free_stay_in_lockstep_across_threads() {
        let arr = DiskArray::new_ram(4, 8, Placement::Striped);
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let (arr, barrier) = (&arr, &barrier);
                s.spawn(move || {
                    let data = [t; 32];
                    barrier.wait();
                    for _ in 0..2_000 {
                        let id = arr.allocate().unwrap();
                        // A striped write lands on every member disk, so it
                        // fails unless all four hold `id`.
                        arr.write_block(id, &data).unwrap();
                        arr.free(id).unwrap();
                    }
                });
            }
        });
        for (d, disk) in arr.disks.iter().enumerate() {
            assert_eq!(disk.allocated_blocks(), 0, "disk {d}");
        }
    }

    #[test]
    fn independent_round_robin_spreads_blocks() {
        let arr = DiskArray::new_ram(2, 8, Placement::Independent);
        assert_eq!(arr.block_size(), 8);
        let a = arr.allocate().unwrap();
        let b = arr.allocate().unwrap();
        assert_ne!(arr.disk_of(a), arr.disk_of(b));
        arr.write_block(a, &[1u8; 8]).unwrap();
        arr.write_block(b, &[2u8; 8]).unwrap();
        let mut out = [0u8; 8];
        arr.read_block(a, &mut out).unwrap();
        assert_eq!(out, [1u8; 8]);
        arr.read_block(b, &mut out).unwrap();
        assert_eq!(out, [2u8; 8]);
        let snap = arr.stats().snapshot();
        assert_eq!(snap.total(), 4);
        assert_eq!(
            snap.parallel_time(),
            2,
            "balanced load halves parallel time"
        );
    }

    #[test]
    fn allocate_on_places_explicitly() {
        let arr = DiskArray::new_ram(4, 8, Placement::Independent);
        let id = arr.allocate_on(3).unwrap();
        assert_eq!(arr.disk_of(id), 3);
        arr.write_block(id, &[5u8; 8]).unwrap();
        let snap = arr.stats().snapshot();
        assert_eq!(snap.writes_on(3), 1);
        assert_eq!(snap.writes_on(0), 0);
    }

    #[test]
    fn independent_free_and_reuse() {
        let arr = DiskArray::new_ram(2, 8, Placement::Independent);
        let a = arr.allocate_on(1).unwrap();
        arr.free(a).unwrap();
        let b = arr.allocate_on(1).unwrap();
        assert_eq!(a, b);
    }

    /// Allocate `streams` sequential streams of `len` blocks each, announcing
    /// every stream via `direct_next_stream`, and return the lane sequence of
    /// each stream.
    fn stream_lanes_trace(arr: &Arc<DiskArray>, streams: usize, len: usize) -> Vec<Vec<usize>> {
        (0..streams)
            .map(|s| {
                arr.direct_next_stream(s);
                (0..len)
                    .map(|_| arr.disk_of(arr.allocate().unwrap()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn lane_policies_share_independent_geometry() {
        let arr = DiskArray::new_ram(4, 8, Placement::RandomizedCycling { seed: 7 });
        assert_eq!(arr.block_size(), 8);
        assert_eq!(arr.stream_lanes(), 4);
        let id = arr.allocate_on(2).unwrap();
        assert_eq!(arr.disk_of(id), 2);
    }

    #[test]
    fn lane_policies_are_deterministic_per_stream() {
        for placement in [
            Placement::Independent,
            Placement::RandomizedCycling { seed: 42 },
        ] {
            let a = stream_lanes_trace(&DiskArray::new_ram(4, 8, placement), 8, 8);
            let b = stream_lanes_trace(&DiskArray::new_ram(4, 8, placement), 8, 8);
            assert_eq!(
                a, b,
                "layout must reproduce across executions ({placement:?})"
            );
        }
    }

    #[test]
    fn every_stream_visits_each_lane_once_per_d_blocks() {
        // Both lane policies are rotations or permutations of the lanes:
        // any window of D consecutive blocks of one stream covers all D disks,
        // which is what keeps sequential streams perfectly balanced.
        for placement in [
            Placement::Independent,
            Placement::RandomizedCycling { seed: 3 },
        ] {
            let d = 4;
            for lanes in stream_lanes_trace(&DiskArray::new_ram(d, 8, placement), 6, 2 * d) {
                for window in lanes.chunks(d) {
                    let mut seen = vec![false; d];
                    for &l in window {
                        seen[l] = true;
                    }
                    assert!(seen.iter().all(|&s| s), "{placement:?}: window {window:?}");
                }
            }
        }
    }

    #[test]
    fn independent_staggers_stream_start_lanes() {
        // The deterministic stagger starts stream r on lane r mod D, which is
        // what lets a k-way merge's first reads hit all D disks at once.
        let starts: Vec<usize> =
            stream_lanes_trace(&DiskArray::new_ram(4, 8, Placement::Independent), 16, 1)
                .into_iter()
                .map(|lanes| lanes[0])
                .collect();
        assert_eq!(starts, (0..16).map(|r| r % 4).collect::<Vec<_>>());
    }

    #[test]
    fn randomized_cycling_uses_distinct_per_stream_orders() {
        // Unlike Independent (all streams share one rotation, shifted),
        // randomized cycling gives streams genuinely different lane *orders*.
        let traces = stream_lanes_trace(
            &DiskArray::new_ram(4, 8, Placement::RandomizedCycling { seed: 9 }),
            8,
            4,
        );
        let rotations: Vec<Vec<usize>> = (0..4)
            .map(|s| (0..4).map(|i| (s + i) % 4).collect())
            .collect();
        assert!(
            traces.iter().any(|t| !rotations.contains(t)),
            "all 8 stream orders were rotations of the identity: {traces:?}"
        );
    }
}

#[cfg(test)]
mod overlapped_tests {
    use super::*;

    /// Run the same deterministic workload on a synchronous and an overlapped
    /// array; contents must match and the per-lane transfer counts must be
    /// identical.
    fn workload(arr: &Arc<DiskArray>) -> Vec<Vec<u8>> {
        let bs = arr.block_size();
        let ids: Vec<BlockId> = (0..10).map(|_| arr.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            let data = vec![i as u8 + 1; bs];
            arr.write_block(id, &data).unwrap();
        }
        let mut out = Vec::new();
        for &id in &ids {
            let mut buf = vec![0u8; bs];
            arr.read_block(id, &mut buf).unwrap();
            out.push(buf);
        }
        out
    }

    #[test]
    fn overlapped_matches_sync_in_both_placements() {
        for placement in [Placement::Striped, Placement::Independent] {
            let sync = DiskArray::new_ram(3, 16, placement);
            let over = DiskArray::new_ram_with(3, 16, placement, IoMode::Overlapped);
            assert_eq!(over.io_mode(), IoMode::Overlapped);
            let a = workload(&sync);
            let b = workload(&over);
            assert_eq!(a, b, "contents differ ({placement:?})");
            let s = sync.stats().snapshot();
            let o = over.stats().snapshot();
            for d in 0..3 {
                assert_eq!(
                    s.reads_on(d),
                    o.reads_on(d),
                    "reads lane {d} ({placement:?})"
                );
                assert_eq!(
                    s.writes_on(d),
                    o.writes_on(d),
                    "writes lane {d} ({placement:?})"
                );
            }
            assert_eq!(s.parallel_time(), o.parallel_time());
        }
    }

    #[test]
    fn overlapped_async_submit_round_trip() {
        for placement in [Placement::Striped, Placement::Independent] {
            let arr = DiskArray::new_ram_with(2, 16, placement, IoMode::Overlapped);
            let bs = arr.block_size();
            let ids: Vec<BlockId> = (0..6).map(|_| arr.allocate().unwrap()).collect();
            // Queue all writes before waiting on any of them.
            let tickets: Vec<IoTicket> = ids
                .iter()
                .enumerate()
                .map(|(i, &id)| arr.submit_write(id, vec![i as u8 + 1; bs].into_boxed_slice()))
                .collect();
            for t in tickets {
                t.wait().1.unwrap();
            }
            // Queue all reads before waiting on any of them.
            let tickets: Vec<IoTicket> = ids
                .iter()
                .map(|&id| arr.submit_read(id, vec![0u8; bs].into_boxed_slice()))
                .collect();
            for (i, t) in tickets.into_iter().enumerate() {
                let (buf, res) = t.wait();
                res.unwrap();
                assert_eq!(&*buf, &vec![i as u8 + 1; bs][..], "{placement:?}");
            }
            let snap = arr.stats().snapshot();
            assert!(snap.max_queue_depth() >= 1);
        }
    }

    #[test]
    fn overlapped_submit_rejects_wrong_size() {
        let arr = DiskArray::new_ram_with(2, 16, Placement::Striped, IoMode::Overlapped);
        let id = arr.allocate().unwrap();
        let res = arr
            .submit_write(id, vec![0u8; 7].into_boxed_slice())
            .wait()
            .1;
        assert!(matches!(res, Err(PdmError::SizeMismatch { .. })));
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::file_disk::FileDisk;

    /// Allocate, write, and read back `n` blocks; return the contents read.
    fn workload(arr: &Arc<DiskArray>, n: usize) -> Result<Vec<Vec<u8>>> {
        let bs = arr.block_size();
        let mut ids = Vec::new();
        for _ in 0..n {
            ids.push(arr.allocate()?);
        }
        for (i, &id) in ids.iter().enumerate() {
            arr.write_block(id, &vec![i as u8 + 1; bs])?;
        }
        let mut out = Vec::new();
        for &id in &ids {
            let mut buf = vec![0u8; bs];
            arr.read_block(id, &mut buf)?;
            out.push(buf);
        }
        Ok(out)
    }

    #[test]
    fn benign_plans_with_no_retry_leave_counts_untouched() {
        for placement in [Placement::Striped, Placement::Independent] {
            for mode in [IoMode::Synchronous, IoMode::Overlapped] {
                let plain = DiskArray::new_ram_with(3, 16, placement, mode);
                let plans: Vec<FaultPlan> = (0..3).map(|i| FaultPlan::new(i as u64)).collect();
                let faulty =
                    DiskArray::new_ram_faulty(3, 16, placement, mode, &plans, RetryPolicy::none());
                let a = workload(&plain, 8).unwrap();
                let b = workload(&faulty, 8).unwrap();
                assert_eq!(a, b, "contents ({placement:?}, {mode:?})");
                let s = plain.stats().snapshot();
                let f = faulty.stats().snapshot();
                for d in 0..3 {
                    assert_eq!(s.reads_on(d), f.reads_on(d), "{placement:?} {mode:?}");
                    assert_eq!(s.writes_on(d), f.writes_on(d), "{placement:?} {mode:?}");
                }
                assert_eq!(f.retries(), 0);
                assert_eq!(f.faults_injected(), 0);
            }
        }
    }

    #[test]
    fn transient_faults_cured_by_retry_keep_counts_identical() {
        for placement in [Placement::Striped, Placement::Independent] {
            for mode in [IoMode::Synchronous, IoMode::Overlapped] {
                let plain = DiskArray::new_ram_with(2, 16, placement, mode);
                let plans: Vec<FaultPlan> = (0..2)
                    .map(|i| FaultPlan::new(100 + i as u64).with_transient(400, 1))
                    .collect();
                let faulty =
                    DiskArray::new_ram_faulty(2, 16, placement, mode, &plans, RetryPolicy::new(3));
                let a = workload(&plain, 12).unwrap();
                let b = workload(&faulty, 12).unwrap();
                assert_eq!(a, b, "retry must reproduce fault-free contents");
                let s = plain.stats().snapshot();
                let f = faulty.stats().snapshot();
                assert_eq!(s.reads(), f.reads(), "{placement:?} {mode:?}");
                assert_eq!(s.writes(), f.writes(), "{placement:?} {mode:?}");
                assert_eq!(
                    f.retries(),
                    f.faults_injected(),
                    "every transient fault cost exactly one retry"
                );
            }
        }
    }

    #[test]
    fn transient_faults_without_retry_surface_cleanly() {
        let plans = vec![FaultPlan::new(77).with_transient(1000, 1)];
        let arr = DiskArray::new_ram_faulty(
            1,
            16,
            Placement::Independent,
            IoMode::Synchronous,
            &plans,
            RetryPolicy::none(),
        );
        let id = arr.allocate().unwrap();
        let err = arr.write_block(id, &[1u8; 16]).unwrap_err();
        assert!(err.is_transient(), "raw error, not RetriesExhausted");
        // The block recovers on the next attempt (issued by the caller).
        arr.write_block(id, &[1u8; 16]).unwrap();
    }

    #[test]
    fn dead_lane_with_retry_reports_retries_exhausted() {
        let plans = vec![
            FaultPlan::new(0),
            FaultPlan::new(1).with_permanent_blocks(1000),
            FaultPlan::new(2),
        ];
        let arr = DiskArray::new_ram_faulty(
            3,
            16,
            Placement::Independent,
            IoMode::Synchronous,
            &plans,
            RetryPolicy::new(2),
        );
        let id = arr.allocate_on(1).unwrap();
        match arr.write_block(id, &[5u8; 16]) {
            Err(PdmError::RetriesExhausted { disk, attempts, .. }) => {
                assert_eq!(disk, 1);
                assert_eq!(attempts, 2);
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        // The healthy lanes still work.
        let ok = arr.allocate_on(0).unwrap();
        arr.write_block(ok, &[5u8; 16]).unwrap();
    }

    #[test]
    fn file_backed_faulty_array_round_trips() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("pdm-faulty-{}", std::process::id()));
        let plans: Vec<FaultPlan> = (0..2)
            .map(|i| FaultPlan::new(50 + i as u64).with_transient(500, 1))
            .collect();
        std::fs::create_dir_all(&dir).unwrap();
        let stats = IoStats::new(2, 16);
        let disks = plans
            .iter()
            .enumerate()
            .map(|(lane, plan)| {
                let path = dir.join(format!("disk{lane}.bin"));
                let file = FileDisk::create_with_stats(path, 16, Arc::clone(&stats), lane);
                FaultDisk::wrap(Arc::new(file.unwrap()), plan.clone()) as Arc<dyn BlockDevice>
            })
            .collect();
        let arr = DiskArray::from_devices(
            disks,
            Placement::Independent,
            IoMode::Synchronous,
            RetryPolicy::new(3),
        );
        let out = workload(&arr, 10).unwrap();
        assert_eq!(out.len(), 10);
        for (i, block) in out.iter().enumerate() {
            assert_eq!(block, &vec![i as u8 + 1; 16]);
        }
        std::fs::remove_dir_all(dir).ok();
    }
}

#[cfg(test)]
mod file_array_tests {
    use super::*;
    use crate::file_disk::FileDisk;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pdm-array-{tag}-{}", std::process::id()));
        p
    }

    /// `d` file-backed disks under `dir`, one file per disk.
    fn file_array(
        dir: &std::path::Path,
        d: usize,
        placement: Placement,
        mode: IoMode,
    ) -> Arc<DiskArray> {
        std::fs::create_dir_all(dir).unwrap();
        let stats = IoStats::new(d, 16);
        let disks = (0..d)
            .map(|lane| {
                let path = dir.join(format!("disk{lane}.bin"));
                let file = FileDisk::create_with_stats(path, 16, Arc::clone(&stats), lane);
                Arc::new(file.unwrap()) as Arc<dyn BlockDevice>
            })
            .collect();
        DiskArray::from_devices(disks, placement, mode, RetryPolicy::none())
    }

    #[test]
    fn file_backed_striped_round_trip() {
        let dir = tmpdir("striped");
        let arr = file_array(&dir, 3, Placement::Striped, IoMode::Synchronous);
        assert_eq!(arr.block_size(), 48);
        let id = arr.allocate().unwrap();
        let data: Vec<u8> = (0..48).collect();
        arr.write_block(id, &data).unwrap();
        let mut out = vec![0u8; 48];
        arr.read_block(id, &mut out).unwrap();
        assert_eq!(out, data);
        // One backing file per disk exists.
        for lane in 0..3 {
            assert!(dir.join(format!("disk{lane}.bin")).exists());
        }
        let snap = arr.stats().snapshot();
        assert_eq!(snap.parallel_time(), 2); // 1 read + 1 write per disk
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn file_backed_independent_round_trip() {
        let dir = tmpdir("indep");
        let arr = file_array(&dir, 2, Placement::Independent, IoMode::Synchronous);
        let a = arr.allocate().unwrap();
        let b = arr.allocate().unwrap();
        assert_ne!(arr.disk_of(a), arr.disk_of(b));
        arr.write_block(a, &[7u8; 16]).unwrap();
        arr.write_block(b, &[8u8; 16]).unwrap();
        let mut out = [0u8; 16];
        arr.read_block(a, &mut out).unwrap();
        assert_eq!(out, [7u8; 16]);
        arr.read_block(b, &mut out).unwrap();
        assert_eq!(out, [8u8; 16]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn file_backed_overlapped_round_trip() {
        let dir = tmpdir("overlapped");
        let arr = file_array(&dir, 2, Placement::Striped, IoMode::Overlapped);
        let id = arr.allocate().unwrap();
        let data: Vec<u8> = (0..32).collect();
        arr.write_block(id, &data).unwrap();
        let mut out = vec![0u8; 32];
        arr.read_block(id, &mut out).unwrap();
        assert_eq!(out, data);
        let snap = arr.stats().snapshot();
        assert_eq!(snap.parallel_time(), 2);
        std::fs::remove_dir_all(dir).ok();
    }
}
