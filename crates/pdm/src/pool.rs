//! A bounded frame cache (buffer pool) over a block device.
//!
//! Online external-memory structures — B-trees, hash directories — are
//! analysed assuming the machine can hold `m = M/B` blocks in memory.  The
//! `BufferPool` *enforces* that assumption: it holds at most `capacity`
//! frames, serves repeated accesses to resident blocks without I/O, and
//! evicts (writing back dirty frames) when full.  Cache hits and misses are
//! tracked separately from device I/O so experiments can report both.
//!
//! Pinning: a [`FrameGuard`]/[`FrameGuardMut`] pins its frame for its
//! lifetime; pinned frames are never evicted.  If every frame is pinned an
//! access to a non-resident block fails with [`PdmError::PoolExhausted`] —
//! an algorithm that triggers this has exceeded its declared memory budget,
//! which is exactly the bug the pool exists to surface.
//!
//! Frame limit: a pool may be told to hold fewer frames than its capacity
//! ([`BufferPool::set_limit`]), so that memory it gives up can hold
//! something else.  Lowering the limit writes nothing by itself: frames over
//! it leave at the pool's next miss, evicted (and written back if dirty)
//! exactly as a full pool evicts.  While the limit is lowered, a frame
//! marked as an index's root or internal node
//! ([`FrameGuard::mark_internal`]) is evicted only when no unmarked frame
//! can be, so a lookup keeps its upper levels and pays for its leaf alone.
//!
//! Walks: an index that rebuilds itself by walking its old nodes in order
//! tags its frames with an owner ([`FrameGuard::mark_owner`]) and brackets
//! the walk with [`BufferPool::begin_walk`] and [`BufferPool::end_walk`].
//! In between, a frame of that owner resident when the walk began is
//! *ahead* of the walk, and is evicted only when no other unpinned frame
//! can be: of those, first the one the walk reaches last
//! ([`BufferPool::place`] tells the pool where the walk will reach it).  A
//! frame the walk has consumed ([`BufferPool::spend`]) is the next victim.
//! Every other frame, another owner's included, is evicted as usual.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::device::{BlockId, SharedDevice};
use crate::error::{PdmError, Result};
use crate::sched::IoTicket;

/// Which unpinned frame to evict when the pool is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the least recently *used* unpinned frame.
    Lru,
    /// Evict the least recently *loaded* unpinned frame.
    Fifo,
}

/// Cache-level counters (device I/O is counted by the device itself).
#[derive(Debug, Default)]
pub struct PoolStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
}

impl PoolStats {
    /// Accesses served from a resident frame.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
    /// Accesses that had to read from the device.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
    /// Frames evicted to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
    /// Dirty frames written back to the device.
    pub fn writebacks(&self) -> u64 {
        self.writebacks.load(Ordering::Relaxed)
    }
}

struct FrameCell {
    data: Arc<RwLock<Box<[u8]>>>,
    pins: AtomicU32,
    dirty: AtomicBool,
    /// An index's root or internal node: kept over other frames while the
    /// limit is lowered.
    internal: AtomicBool,
    /// The index whose node the frame holds; 0 for none.
    owner: AtomicU64,
}

impl FrameCell {
    fn new(buf: Box<[u8]>) -> Arc<Self> {
        Arc::new(FrameCell {
            data: Arc::new(RwLock::new(buf)),
            pins: AtomicU32::new(1),
            dirty: AtomicBool::new(false),
            internal: AtomicBool::new(false),
            owner: AtomicU64::new(0),
        })
    }
}

/// Where a frame stands in the walk over its owner's old nodes.
enum Walk {
    /// Not part of a walk: evicted in policy order.
    Off,
    /// Resident when the walk began and not yet consumed by it: evicted
    /// only when no other unpinned frame can be.  `Some(place)` orders the
    /// walk's visits; `None`, a place not yet known, counts as last.
    Ahead(Option<Vec<u32>>),
    /// Consumed by the walk: the next victim.
    Spent,
}

struct Slot {
    block: BlockId,
    cell: Arc<FrameCell>,
    loaded_at: u64,
    last_use: u64,
    walk: Walk,
}

struct Inner {
    map: HashMap<BlockId, usize>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    /// Most frames resident after a miss; `capacity` unless lowered.
    limit: usize,
    tick: u64,
    /// Write-backs submitted to the device but not yet confirmed complete.
    /// A block with an entry here must not be re-read from the device (the
    /// data may not have landed) until its ticket has been waited on.
    inflight: HashMap<BlockId, IoTicket>,
}

/// A bounded cache of block frames over a [`SharedDevice`].
pub struct BufferPool {
    device: SharedDevice,
    capacity: usize,
    policy: EvictionPolicy,
    inner: Mutex<Inner>,
    stats: PoolStats,
}

impl BufferPool {
    /// Create a pool holding at most `capacity` frames.  A pool of no frames
    /// answers every access with [`PdmError::PoolExhausted`].
    pub fn new(device: SharedDevice, capacity: usize, policy: EvictionPolicy) -> Arc<Self> {
        Arc::new(BufferPool {
            device,
            capacity,
            policy,
            inner: Mutex::new(Inner {
                map: HashMap::with_capacity(capacity),
                slots: (0..capacity).map(|_| None).collect(),
                free: (0..capacity).rev().collect(),
                limit: capacity,
                tick: 0,
                inflight: HashMap::new(),
            }),
            stats: PoolStats::default(),
        })
    }

    /// Maximum number of resident frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Most frames resident after a miss: [`capacity`](Self::capacity)
    /// unless [`set_limit`](Self::set_limit) lowered it.
    pub fn limit(&self) -> usize {
        self.inner.lock().limit
    }

    /// Hold at most `frames` frames (at least one, at most the capacity)
    /// from the next miss on.  Writes nothing: frames over the limit leave
    /// when that miss evicts them, and a dirty one is written back then, as
    /// any evicted frame is.  While the limit is below the capacity, a frame
    /// marked [`internal`](FrameGuard::mark_internal) is evicted only when
    /// no unmarked, unpinned frame is resident.
    pub fn set_limit(&self, frames: usize) {
        self.inner.lock().limit = frames.max(1).min(self.capacity);
    }

    /// Frames resident now.
    pub fn resident(&self) -> usize {
        let inner = self.inner.lock();
        inner.slots.len() - inner.free.len()
    }

    /// The underlying device.
    pub fn device(&self) -> &SharedDevice {
        &self.device
    }

    /// Cache counters.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Pin block `id` for reading.
    pub fn read(self: &Arc<Self>, id: BlockId) -> Result<FrameGuard> {
        let cell = self.pin(id, false)?;
        let guard = parking_lot::RwLock::read_arc(&cell.data);
        Ok(FrameGuard {
            pin: PinHandle { cell },
            guard,
        })
    }

    /// Pin block `id` for writing; the frame is marked dirty.
    pub fn write(self: &Arc<Self>, id: BlockId) -> Result<FrameGuardMut> {
        let cell = self.pin(id, true)?;
        cell.dirty.store(true, Ordering::Relaxed);
        let guard = parking_lot::RwLock::write_arc(&cell.data);
        Ok(FrameGuardMut {
            pin: PinHandle { cell },
            guard,
        })
    }

    /// Allocate a fresh zeroed block on the device and pin it for writing
    /// *without* reading it back (the frame starts zeroed in memory).
    pub fn allocate(self: &Arc<Self>) -> Result<(BlockId, FrameGuardMut)> {
        let id = self.device.allocate()?;
        let cell = self.install_fresh(id)?;
        cell.dirty.store(true, Ordering::Relaxed);
        let guard = parking_lot::RwLock::write_arc(&cell.data);
        Ok((
            id,
            FrameGuardMut {
                pin: PinHandle { cell },
                guard,
            },
        ))
    }

    /// Begin a walk over `owner`'s old nodes: every resident frame marked
    /// with `owner` ([`FrameGuard::mark_owner`]) is *ahead* of the walk, at
    /// a place not yet known, until [`spend`](Self::spend) or
    /// [`end_walk`](Self::end_walk).  Returns how many frames that is.
    /// Reads and writes nothing.
    pub fn begin_walk(&self, owner: u64) -> usize {
        let mut inner = self.inner.lock();
        let mut ahead = 0;
        for slot in inner.slots.iter_mut().flatten() {
            if slot.cell.owner.load(Ordering::Relaxed) == owner {
                slot.walk = Walk::Ahead(None);
                ahead += 1;
            }
        }
        ahead
    }

    /// Tell the pool where the walk reaches block `id`: `place` is the
    /// path of child indices from the walk's root, and a walk visits places
    /// in their lexicographic order.  If `id` is ahead of the walk at a
    /// place not yet known, it is placed and its frame returned pinned, with
    /// no I/O and no hit counted, so the caller can place what it points
    /// to; otherwise nothing changes and `None` is returned.
    pub fn place(self: &Arc<Self>, id: BlockId, place: &[u32]) -> Option<FrameGuard> {
        let mut inner = self.inner.lock();
        let idx = *inner.map.get(&id)?;
        let slot = inner.slots[idx].as_mut()?;
        if !matches!(slot.walk, Walk::Ahead(None)) {
            return None;
        }
        slot.walk = Walk::Ahead(Some(place.to_vec()));
        slot.cell.pins.fetch_add(1, Ordering::Relaxed);
        let cell = Arc::clone(&slot.cell);
        drop(inner);
        let guard = parking_lot::RwLock::read_arc(&cell.data);
        Some(FrameGuard {
            pin: PinHandle { cell },
            guard,
        })
    }

    /// The walk has consumed block `id`: if resident, its frame is the
    /// next victim.
    pub fn spend(&self, id: BlockId) {
        let mut inner = self.inner.lock();
        if let Some(&idx) = inner.map.get(&id) {
            if let Some(slot) = inner.slots[idx].as_mut() {
                slot.walk = Walk::Spent;
            }
        }
    }

    /// End the walk over `owner`'s old nodes: its frames still resident
    /// are evicted as usual again.
    pub fn end_walk(&self, owner: u64) {
        let mut inner = self.inner.lock();
        for slot in inner.slots.iter_mut().flatten() {
            if slot.cell.owner.load(Ordering::Relaxed) == owner {
                slot.walk = Walk::Off;
            }
        }
    }

    /// Write back every dirty frame (frames stay resident).
    ///
    /// Dirty frames are submitted to the device as asynchronous writes first
    /// and waited on together, so on an overlapped
    /// [`DiskArray`](crate::DiskArray) a flush drives all member disks
    /// concurrently.
    pub fn flush(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        Self::drain_all_inflight(&mut inner)?;
        let mut tickets = Vec::new();
        for slot in inner.slots.iter().flatten() {
            if slot.cell.dirty.swap(false, Ordering::Relaxed) {
                let data = slot.cell.data.read();
                let buf: Box<[u8]> = data.clone();
                drop(data);
                tickets.push(self.device.submit_write(slot.block, buf));
                self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
            }
        }
        for t in tickets {
            t.wait().1?;
        }
        Ok(())
    }

    /// Drop block `id` from the pool without writing it back (used after
    /// freeing the block on the device).
    ///
    /// # Errors
    ///
    /// [`PdmError::InvalidRequest`] if the block is pinned; it stays
    /// resident.
    pub fn discard(&self, id: BlockId) -> Result<()> {
        let mut inner = self.inner.lock();
        if let Some(ticket) = inner.inflight.remove(&id) {
            // An earlier eviction already queued a write-back; let it land
            // (the block's contents no longer matter) so a later reuse of
            // the id cannot race with the stale write.
            let _ = ticket.wait();
        }
        let Some(&idx) = inner.map.get(&id) else {
            return Ok(());
        };
        if inner.slots[idx]
            .as_ref()
            .is_some_and(|s| s.cell.pins.load(Ordering::Relaxed) > 0)
        {
            return Err(PdmError::InvalidRequest(format!(
                "discarding pinned block {id}"
            )));
        }
        inner.map.remove(&id);
        inner.slots[idx] = None;
        inner.free.push(idx);
        Ok(())
    }

    /// Wait out every in-flight write-back.  Caller holds the pool lock.
    fn drain_all_inflight(inner: &mut Inner) -> Result<()> {
        let mut first_err = None;
        for (_, ticket) in inner.inflight.drain() {
            if let (_, Err(e)) = ticket.wait() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    fn pin(&self, id: BlockId, _write: bool) -> Result<Arc<FrameCell>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(&idx) = inner.map.get(&id) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = inner.slots[idx].as_mut() else {
                return Err(PdmError::Corrupt(format!(
                    "buffer pool maps block {id} to an empty slot"
                )));
            };
            slot.last_use = tick;
            slot.cell.pins.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(&slot.cell));
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        // If this block was evicted dirty and its write-back is still in
        // flight, the device copy may be stale: wait for the write to land
        // before re-reading.
        if let Some(ticket) = inner.inflight.remove(&id) {
            ticket.wait().1?;
        }
        let idx = self.acquire_slot(&mut inner)?;
        debug_assert!(
            !inner.inflight.contains_key(&id),
            "frame handed out while its write-back is in flight"
        );
        // Read outside any frame lock but under the pool lock: simple and
        // race-free (single structural lock).
        let frame = vec![0u8; self.device.block_size()].into_boxed_slice();
        let (buf, res) = self.device.submit_read(id, frame).wait();
        res?;
        let cell = FrameCell::new(buf);
        inner.slots[idx] = Some(Slot {
            block: id,
            cell: Arc::clone(&cell),
            loaded_at: tick,
            last_use: tick,
            walk: Walk::Off,
        });
        inner.map.insert(id, idx);
        Ok(cell)
    }

    fn install_fresh(&self, id: BlockId) -> Result<Arc<FrameCell>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        // A freshly allocated id can only collide with an in-flight
        // write-back if the caller freed the block without `discard`ing it;
        // wait the stale write out rather than let it clobber the new data.
        if let Some(ticket) = inner.inflight.remove(&id) {
            let _ = ticket.wait();
        }
        let idx = self.acquire_slot(&mut inner)?;
        let cell = FrameCell::new(vec![0u8; self.device.block_size()].into_boxed_slice());
        inner.slots[idx] = Some(Slot {
            block: id,
            cell: Arc::clone(&cell),
            loaded_at: tick,
            last_use: tick,
            walk: Walk::Off,
        });
        inner.map.insert(id, idx);
        Ok(cell)
    }

    /// Find a free slot, evicting while the resident frames are at the
    /// limit or over it.  Caller holds the pool lock.
    fn acquire_slot(&self, inner: &mut Inner) -> Result<usize> {
        while inner.slots.len() - inner.free.len() >= inner.limit {
            let victim = self.evict(inner)?;
            inner.free.push(victim);
        }
        inner.free.pop().ok_or(PdmError::PoolExhausted)
    }

    /// Evict one unpinned frame and return its slot.  Caller holds the pool
    /// lock.
    fn evict(&self, inner: &mut Inner) -> Result<usize> {
        // Choose an unpinned victim.  Pins only increase under the pool
        // lock, so a frame observed unpinned here cannot become pinned
        // before we remove it.
        let lowered = inner.limit < self.capacity;
        let victim = inner
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
            .filter(|(_, s)| s.cell.pins.load(Ordering::Relaxed) == 0)
            .min_by_key(|(_, s)| {
                let kept = lowered && s.cell.internal.load(Ordering::Relaxed);
                let stamp = match self.policy {
                    EvictionPolicy::Lru => s.last_use,
                    EvictionPolicy::Fifo => s.loaded_at,
                };
                // Spent frames first, then frames off any walk, then frames
                // ahead of a walk: the one it reaches last first, a place
                // not yet known counting as last.
                match &s.walk {
                    Walk::Spent => (0, false, None, stamp),
                    Walk::Off => (1, kept, None, stamp),
                    Walk::Ahead(place) => (2, false, place.as_ref().map(Reverse), stamp),
                }
            })
            .map(|(i, _)| i)
            .ok_or(PdmError::PoolExhausted)?;
        let Some(slot) = inner.slots[victim].take() else {
            return Err(PdmError::Corrupt("buffer pool victim slot is empty".into()));
        };
        inner.map.remove(&slot.block);
        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        if slot.cell.dirty.load(Ordering::Relaxed) {
            // Submit the write-back asynchronously and remember the ticket:
            // on an overlapped device the eviction overlaps with the caller's
            // demand read, and `pin` refuses to re-serve this block from the
            // device until the ticket has been waited on.
            let data = slot.cell.data.read();
            let buf: Box<[u8]> = data.clone();
            drop(data);
            let ticket = self.device.submit_write(slot.block, buf);
            let prev = inner.inflight.insert(slot.block, ticket);
            debug_assert!(prev.is_none(), "double in-flight write-back for one block");
            self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
        }
        Ok(victim)
    }
}

impl Drop for BufferPool {
    fn drop(&mut self) {
        // Best-effort write-back so dropping a pool never loses data.
        let _ = self.flush();
    }
}

/// Decrements the frame pin count on drop.
struct PinHandle {
    cell: Arc<FrameCell>,
}

impl Drop for PinHandle {
    fn drop(&mut self) {
        self.cell.pins.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Shared (read) access to a pinned frame.
pub struct FrameGuard {
    pin: PinHandle,
    guard: parking_lot::ArcRwLockReadGuard<parking_lot::RawRwLock, Box<[u8]>>,
}

impl FrameGuard {
    /// Mark the frame as an index's root or internal node: while the pool's
    /// limit is lowered, it is evicted only when no unmarked frame can be.
    /// The mark lasts while the block stays resident.
    pub fn mark_internal(&self) {
        self.pin.cell.internal.store(true, Ordering::Relaxed);
    }

    /// Mark the frame as a node of index `owner` (not 0), whose walks over
    /// its old nodes ([`BufferPool::begin_walk`]) it then takes part in.
    /// The mark lasts while the block stays resident.
    pub fn mark_owner(&self, owner: u64) {
        self.pin.cell.owner.store(owner, Ordering::Relaxed);
    }
}

impl Deref for FrameGuard {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.guard
    }
}

/// Exclusive (write) access to a pinned frame.
pub struct FrameGuardMut {
    pin: PinHandle,
    guard: parking_lot::ArcRwLockWriteGuard<parking_lot::RawRwLock, Box<[u8]>>,
}

impl FrameGuardMut {
    /// [`FrameGuard::mark_internal`] for a frame pinned for writing.
    pub fn mark_internal(&self) {
        self.pin.cell.internal.store(true, Ordering::Relaxed);
    }

    /// [`FrameGuard::mark_owner`] for a frame pinned for writing.
    pub fn mark_owner(&self, owner: u64) {
        self.pin.cell.owner.store(owner, Ordering::Relaxed);
    }
}

impl Deref for FrameGuardMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.guard
    }
}

impl DerefMut for FrameGuardMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BlockDevice;
    use crate::ram_disk::RamDisk;

    fn setup(
        capacity: usize,
        policy: EvictionPolicy,
    ) -> (Arc<RamDisk>, Arc<BufferPool>, Vec<BlockId>) {
        let disk = RamDisk::new(8);
        let mut ids = Vec::new();
        for i in 0..6u8 {
            let id = disk.allocate().unwrap();
            disk.write_block(id, &[i; 8]).unwrap();
            ids.push(id);
        }
        // Setup only writes, so the tests' device reads count from zero
        // (their write checks subtract snapshots).
        let pool = BufferPool::new(disk.clone() as SharedDevice, capacity, policy);
        (disk, pool, ids)
    }

    #[test]
    fn repeated_reads_hit_cache() {
        let (disk, pool, ids) = setup(2, EvictionPolicy::Lru);
        for _ in 0..5 {
            let g = pool.read(ids[0]).unwrap();
            assert_eq!(&*g, &[0u8; 8]);
        }
        assert_eq!(
            disk.stats().snapshot().reads(),
            1,
            "only the first read hits the device"
        );
        assert_eq!(pool.stats().hits(), 4);
        assert_eq!(pool.stats().misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (disk, pool, ids) = setup(2, EvictionPolicy::Lru);
        pool.read(ids[0]).unwrap();
        pool.read(ids[1]).unwrap();
        pool.read(ids[0]).unwrap(); // 0 more recent than 1
        pool.read(ids[2]).unwrap(); // evicts 1
        pool.read(ids[0]).unwrap(); // still resident
        assert_eq!(disk.stats().snapshot().reads(), 3);
        pool.read(ids[1]).unwrap(); // must re-read
        assert_eq!(disk.stats().snapshot().reads(), 4);
    }

    #[test]
    fn fifo_evicts_oldest_loaded() {
        let (disk, pool, ids) = setup(2, EvictionPolicy::Fifo);
        pool.read(ids[0]).unwrap();
        pool.read(ids[1]).unwrap();
        pool.read(ids[0]).unwrap(); // touch 0; FIFO ignores this
        pool.read(ids[2]).unwrap(); // evicts 0 (oldest load)
        pool.read(ids[1]).unwrap(); // resident
        assert_eq!(disk.stats().snapshot().reads(), 3);
        pool.read(ids[0]).unwrap(); // re-read
        assert_eq!(disk.stats().snapshot().reads(), 4);
    }

    #[test]
    fn dirty_frames_written_back_on_eviction() {
        let (disk, pool, ids) = setup(1, EvictionPolicy::Lru);
        {
            let mut g = pool.write(ids[0]).unwrap();
            g.copy_from_slice(&[0xAB; 8]);
        }
        pool.read(ids[1]).unwrap(); // evicts dirty frame 0
        assert_eq!(pool.stats().writebacks(), 1);
        let mut out = [0u8; 8];
        disk.read_block(ids[0], &mut out).unwrap();
        assert_eq!(out, [0xAB; 8]);
    }

    #[test]
    fn flush_writes_dirty_frames() {
        let (disk, pool, ids) = setup(2, EvictionPolicy::Lru);
        {
            let mut g = pool.write(ids[3]).unwrap();
            g[0] = 0xCD;
        }
        pool.flush().unwrap();
        let mut out = [0u8; 8];
        disk.read_block(ids[3], &mut out).unwrap();
        assert_eq!(out[0], 0xCD);
        // Flushing twice writes nothing new.
        let w = disk.stats().snapshot().writes();
        pool.flush().unwrap();
        assert_eq!(disk.stats().snapshot().writes(), w);
    }

    #[test]
    fn pinned_frames_are_not_evicted() {
        let (_disk, pool, ids) = setup(1, EvictionPolicy::Lru);
        let _g = pool.read(ids[0]).unwrap();
        assert!(matches!(pool.read(ids[1]), Err(PdmError::PoolExhausted)));
        drop(_g);
        assert!(pool.read(ids[1]).is_ok());
    }

    #[test]
    fn allocate_starts_zeroed_and_dirty() {
        let (disk, pool, _) = setup(2, EvictionPolicy::Lru);
        let (id, mut g) = pool.allocate().unwrap();
        assert!(g.iter().all(|&b| b == 0));
        g[7] = 9;
        drop(g);
        pool.flush().unwrap();
        let mut out = [0u8; 8];
        disk.read_block(id, &mut out).unwrap();
        assert_eq!(out[7], 9);
    }

    #[test]
    fn discard_forgets_without_writeback() {
        let (disk, pool, ids) = setup(2, EvictionPolicy::Lru);
        {
            let mut g = pool.write(ids[0]).unwrap();
            g[0] = 0xEE;
        }
        let writes_before = disk.stats().snapshot().writes();
        pool.discard(ids[0]).unwrap();
        pool.flush().unwrap();
        assert_eq!(disk.stats().snapshot().writes(), writes_before);
        let mut out = [0u8; 8];
        disk.read_block(ids[0], &mut out).unwrap();
        assert_eq!(out[0], 0, "discarded write never reached the device");
    }

    #[test]
    fn writeback_gating_on_overlapped_device() {
        // Evictions on an overlapped device queue their write-backs on
        // worker threads; a subsequent miss on the same block must wait for
        // the write to land before re-reading, or it would see stale data.
        use crate::array::{DiskArray, Placement};
        use crate::sched::IoMode;
        let arr = DiskArray::new_ram_with(2, 8, Placement::Independent, IoMode::Overlapped);
        let device = arr.clone() as SharedDevice;
        let ids: Vec<BlockId> = (0..6).map(|_| device.allocate().unwrap()).collect();
        let pool = BufferPool::new(device.clone(), 2, EvictionPolicy::Lru);
        for round in 0..50u8 {
            for (i, &id) in ids.iter().enumerate() {
                let mut g = pool.write(id).unwrap();
                g.copy_from_slice(&[i as u8 ^ round; 8]);
            }
            for (i, &id) in ids.iter().enumerate() {
                let g = pool.read(id).unwrap();
                assert_eq!(&*g, &[i as u8 ^ round; 8], "stale read after write-behind");
            }
        }
        pool.flush().unwrap();
        // After a flush every device copy is current.
        for (i, &id) in ids.iter().enumerate() {
            let mut out = [0u8; 8];
            device.read_block(id, &mut out).unwrap();
            assert_eq!(out, [i as u8 ^ 49; 8]);
        }
    }

    #[test]
    fn lowering_the_limit_writes_nothing_until_the_next_miss() {
        let (disk, pool, ids) = setup(4, EvictionPolicy::Lru);
        for &id in &ids[..4] {
            pool.write(id).unwrap()[0] = 0xAA;
        }
        let setup_writes = disk.stats().snapshot().writes();
        let writes = || disk.stats().snapshot().writes() - setup_writes;
        pool.set_limit(2);
        assert_eq!((pool.limit(), pool.resident(), writes()), (2, 4, 0));
        // A hit changes nothing; the next miss evicts down to one frame
        // below the limit, writing back each dirty frame it evicts, and
        // loads its block.
        pool.read(ids[3]).unwrap();
        assert_eq!((pool.resident(), writes()), (4, 0));
        pool.read(ids[4]).unwrap();
        assert_eq!((pool.resident(), writes()), (2, 3));
        assert_eq!(pool.stats().evictions(), 3);
        // The limit clamps to one frame and to the capacity.
        pool.set_limit(0);
        assert_eq!(pool.limit(), 1);
        pool.set_limit(9);
        assert_eq!(pool.limit(), 4);
    }

    #[test]
    fn a_lowered_limit_keeps_internal_frames_over_lru_order() {
        let (disk, pool, ids) = setup(4, EvictionPolicy::Lru);
        // Blocks 0 and 1 are an index's upper levels, touched before every
        // leaf, so plain LRU order would have evicted them first.
        pool.read(ids[0]).unwrap().mark_internal();
        pool.write(ids[1]).unwrap().mark_internal();
        pool.set_limit(3);
        for &leaf in &ids[2..] {
            pool.read(leaf).unwrap();
        }
        let reads = disk.stats().snapshot().reads();
        pool.read(ids[0]).unwrap();
        pool.read(ids[1]).unwrap();
        assert_eq!(
            disk.stats().snapshot().reads(),
            reads,
            "upper levels stayed"
        );
        assert_eq!(pool.resident(), 3);
        // At the full limit the mark is ignored: LRU evicts block 0.
        pool.set_limit(4);
        pool.read(ids[2]).unwrap();
        pool.read(ids[3]).unwrap();
        pool.read(ids[1]).unwrap();
        pool.read(ids[4]).unwrap();
        pool.read(ids[5]).unwrap();
        let reads = disk.stats().snapshot().reads();
        pool.read(ids[0]).unwrap();
        assert_eq!(disk.stats().snapshot().reads(), reads + 1);
    }

    #[test]
    fn a_walk_evicts_spent_frames_first_and_frames_ahead_of_it_last() {
        let (_disk, pool, ids) = setup(4, EvictionPolicy::Lru);
        let held = |i: usize| pool.inner.lock().map.contains_key(&ids[i]);
        // Blocks 0–2 are owner 7's, block 3 another owner's.
        for &id in &ids[..3] {
            pool.read(id).unwrap().mark_owner(7);
        }
        pool.read(ids[3]).unwrap().mark_owner(8);
        assert_eq!(pool.begin_walk(7), 3);
        // The walk reaches 2 first, then 0; 1's place is not yet known.
        assert!(pool.place(ids[2], &[0]).is_some());
        assert!(pool.place(ids[0], &[2]).is_some());
        assert!(pool.place(ids[0], &[1]).is_none(), "placed once");
        assert!(pool.place(ids[3], &[1]).is_none(), "another owner's");
        // The other owner's frame goes before every frame ahead of the
        // walk, although it was used last.
        pool.read(ids[4]).unwrap();
        assert!(!held(3) && held(0) && held(1) && held(2));
        // The walk consumes 2: it goes next, before the older frame 4.
        pool.read(ids[2]).unwrap();
        pool.spend(ids[2]);
        pool.read(ids[5]).unwrap();
        assert!(!held(2) && held(4));
        // With 4 and 5 pinned, only frames ahead can go: first the one of
        // unknown place, counted as reached last, then 0.
        let _pinned = (pool.read(ids[4]).unwrap(), pool.read(ids[5]).unwrap());
        let _three = pool.read(ids[3]).unwrap();
        assert!(!held(1) && held(0));
        pool.read(ids[2]).unwrap();
        assert!(!held(0));
        // After the walk, frames are evicted in LRU order again.
        pool.end_walk(7);
        assert!(pool
            .inner
            .lock()
            .slots
            .iter()
            .flatten()
            .all(|s| matches!(s.walk, Walk::Off)));
    }

    #[test]
    fn a_pool_of_no_frames_and_a_pinned_discard_are_typed_errors() {
        let (_disk, pool, ids) = setup(0, EvictionPolicy::Lru);
        assert!(matches!(pool.read(ids[0]), Err(PdmError::PoolExhausted)));
        let (_disk, pool, ids) = setup(2, EvictionPolicy::Lru);
        let g = pool.read(ids[0]).unwrap();
        assert!(matches!(
            pool.discard(ids[0]),
            Err(PdmError::InvalidRequest(_))
        ));
        assert_eq!(pool.resident(), 1);
        drop(g);
        pool.discard(ids[0]).unwrap();
        assert_eq!(pool.resident(), 0);
    }

    #[test]
    fn drop_flushes() {
        let disk = RamDisk::new(8);
        let id = disk.allocate().unwrap();
        {
            let pool = BufferPool::new(disk.clone() as SharedDevice, 2, EvictionPolicy::Lru);
            let mut g = pool.write(id).unwrap();
            g[0] = 42;
        }
        let mut out = [0u8; 8];
        disk.read_block(id, &mut out).unwrap();
        assert_eq!(out[0], 42);
    }
}
