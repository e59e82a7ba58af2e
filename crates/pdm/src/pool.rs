//! A bounded frame cache (buffer pool) over a block device.
//!
//! Online external-memory structures — B-trees, hash directories — are
//! analysed assuming the machine can hold `m = M/B` blocks in memory.  The
//! `BufferPool` *enforces* that assumption: it holds at most `capacity`
//! frames, serves repeated accesses to resident blocks without I/O, and
//! evicts (writing back dirty frames) when full.  Cache hits and misses are
//! tracked separately from device I/O so experiments can report both.
//!
//! Frames: the pool keeps its `capacity` frames in one fixed array,
//! allocated once each and reused by every block loaded into them, so an
//! access never allocates a frame.  A [`FrameGuard`]/[`FrameGuardMut`]
//! borrows the pool: it locks its frame and pins it for its lifetime, and
//! pinned frames are never evicted.  If every frame is pinned an access to a
//! non-resident block fails with [`PdmError::PoolExhausted`] — an algorithm
//! that triggers this has exceeded its declared memory budget, which is
//! exactly the bug the pool exists to surface.
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
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::device::{BlockId, SharedDevice};
use crate::error::{PdmError, Result};
use crate::lock;
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

/// One frame: its buffer (empty until its first load) and the marks of the
/// block it holds, reset by each load.
#[derive(Default)]
struct Frame {
    data: RwLock<Box<[u8]>>,
    pins: AtomicU32,
    dirty: AtomicBool,
    /// An index's root or internal node: kept over other frames while the
    /// limit is lowered.
    internal: AtomicBool,
    /// The index whose node the frame holds; 0 for none.
    owner: AtomicU64,
}

impl Frame {
    /// Lock the pinned frame for reading; the guard takes over the pin.
    fn read(&self) -> FrameGuard<'_> {
        FrameGuard {
            data: self.data.read().unwrap_or_else(PoisonError::into_inner),
            pin: Pin(self),
        }
    }

    /// Mark the pinned frame dirty and lock it for writing; the guard takes
    /// over the pin.
    fn write(&self) -> FrameGuardMut<'_> {
        self.dirty.store(true, Ordering::Relaxed);
        FrameGuardMut {
            data: self.data.write().unwrap_or_else(PoisonError::into_inner),
            pin: Pin(self),
        }
    }

    /// A copy of the frame's bytes, for a write-back.
    fn copy(&self) -> Box<[u8]> {
        self.data
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
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

/// The block frame `i` holds, for `slots[i]`.
struct Slot {
    block: BlockId,
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
    policy: EvictionPolicy,
    inner: Mutex<Inner>,
    /// Frame `i` holds the block of `inner.slots[i]`, if any.
    frames: Box<[Frame]>,
    stats: PoolStats,
}

impl BufferPool {
    /// Create a pool holding at most `capacity` frames.  A pool of no frames
    /// answers every access with [`PdmError::PoolExhausted`].
    pub fn new(device: SharedDevice, capacity: usize, policy: EvictionPolicy) -> Arc<Self> {
        Arc::new(BufferPool {
            device,
            policy,
            inner: Mutex::new(Inner {
                map: HashMap::with_capacity(capacity),
                slots: (0..capacity).map(|_| None).collect(),
                free: (0..capacity).rev().collect(),
                limit: capacity,
                tick: 0,
                inflight: HashMap::new(),
            }),
            frames: (0..capacity).map(|_| Frame::default()).collect(),
            stats: PoolStats::default(),
        })
    }

    /// Maximum number of resident frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Most frames resident after a miss: [`capacity`](Self::capacity)
    /// unless [`set_limit`](Self::set_limit) lowered it.
    pub fn limit(&self) -> usize {
        lock(&self.inner).limit
    }

    /// Hold at most `frames` frames (at least one, at most the capacity)
    /// from the next miss on.  Writes nothing: frames over the limit leave
    /// when that miss evicts them, and a dirty one is written back then, as
    /// any evicted frame is.  While the limit is below the capacity, a frame
    /// marked [`internal`](FrameGuard::mark_internal) is evicted only when
    /// no unmarked, unpinned frame is resident.
    pub fn set_limit(&self, frames: usize) {
        lock(&self.inner).limit = frames.max(1).min(self.capacity());
    }

    /// Frames resident now.
    pub fn resident(&self) -> usize {
        let inner = lock(&self.inner);
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
    pub fn read(&self, id: BlockId) -> Result<FrameGuard<'_>> {
        Ok(self.pin(id)?.read())
    }

    /// Pin block `id` for writing; the frame is marked dirty.
    pub fn write(&self, id: BlockId) -> Result<FrameGuardMut<'_>> {
        Ok(self.pin(id)?.write())
    }

    /// Allocate a fresh zeroed block on the device and pin it for writing
    /// *without* reading it back (the frame starts zeroed in memory).  If
    /// no frame can take it, the block is freed again.
    pub fn allocate(&self) -> Result<(BlockId, FrameGuardMut<'_>)> {
        let id = self.device.allocate()?;
        let frame = self
            .install_fresh(id)
            .or_else(|e| self.device.free(id).and(Err(e)))?;
        Ok((id, frame.write()))
    }

    /// Begin a walk over `owner`'s old nodes: every resident frame marked
    /// with `owner` ([`FrameGuard::mark_owner`]) is *ahead* of the walk, at
    /// a place not yet known, until [`spend`](Self::spend) or
    /// [`end_walk`](Self::end_walk).  Returns how many frames that is.
    /// Reads and writes nothing.
    pub fn begin_walk(&self, owner: u64) -> usize {
        let mut inner = lock(&self.inner);
        let mut ahead = 0;
        for slot in self.owned(&mut inner, owner) {
            slot.walk = Walk::Ahead(None);
            ahead += 1;
        }
        ahead
    }

    /// Tell the pool where the walk reaches block `id`: `place` is the
    /// path of child indices from the walk's root, and a walk visits places
    /// in their lexicographic order.  If `id` is ahead of the walk at a
    /// place not yet known, it is placed and its frame returned pinned, with
    /// no I/O and no hit counted, so the caller can place what it points
    /// to; otherwise nothing changes and `None` is returned.
    pub fn place(&self, id: BlockId, place: &[u32]) -> Option<FrameGuard<'_>> {
        let mut inner = lock(&self.inner);
        let idx = *inner.map.get(&id)?;
        let slot = inner.slots[idx].as_mut()?;
        if !matches!(slot.walk, Walk::Ahead(None)) {
            return None;
        }
        slot.walk = Walk::Ahead(Some(place.to_vec()));
        let frame = &self.frames[idx];
        frame.pins.fetch_add(1, Ordering::Relaxed);
        drop(inner);
        Some(frame.read())
    }

    /// The walk has consumed block `id`: if resident, its frame is the
    /// next victim.
    pub fn spend(&self, id: BlockId) {
        let mut inner = lock(&self.inner);
        if let Some(&idx) = inner.map.get(&id) {
            if let Some(slot) = inner.slots[idx].as_mut() {
                slot.walk = Walk::Spent;
            }
        }
    }

    /// End the walk over `owner`'s old nodes: its frames still resident
    /// are evicted as usual again.
    pub fn end_walk(&self, owner: u64) {
        let mut inner = lock(&self.inner);
        for slot in self.owned(&mut inner, owner) {
            slot.walk = Walk::Off;
        }
    }

    /// The resident blocks whose frames are marked with `owner`.
    fn owned<'a>(&'a self, inner: &'a mut Inner, owner: u64) -> impl Iterator<Item = &'a mut Slot> {
        inner
            .slots
            .iter_mut()
            .zip(self.frames.iter())
            .filter(move |(_, f)| f.owner.load(Ordering::Relaxed) == owner)
            .filter_map(|(slot, _)| slot.as_mut())
    }

    /// Write back every dirty frame (frames stay resident).
    ///
    /// Dirty frames are submitted to the device as asynchronous writes first
    /// and waited on together, so on an overlapped
    /// [`DiskArray`](crate::DiskArray) a flush drives all member disks
    /// concurrently.
    pub fn flush(&self) -> Result<()> {
        let mut inner = lock(&self.inner);
        Self::drain_all_inflight(&mut inner)?;
        let mut tickets = Vec::new();
        for (slot, frame) in inner.slots.iter().zip(&self.frames) {
            let Some(slot) = slot else { continue };
            if frame.dirty.swap(false, Ordering::Relaxed) {
                tickets.push(self.device.submit_write(slot.block, frame.copy()));
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
        let mut inner = lock(&self.inner);
        if let Some(ticket) = inner.inflight.remove(&id) {
            // An earlier eviction already queued a write-back; let it land
            // (the block's contents no longer matter) so a later reuse of
            // the id cannot race with the stale write.
            let _ = ticket.wait();
        }
        let Some(&idx) = inner.map.get(&id) else {
            return Ok(());
        };
        if self.frames[idx].pins.load(Ordering::Relaxed) > 0 {
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

    fn pin(&self, id: BlockId) -> Result<&Frame> {
        let mut inner = lock(&self.inner);
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
            self.frames[idx].pins.fetch_add(1, Ordering::Relaxed);
            return Ok(&self.frames[idx]);
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        // If this block was evicted dirty and its write-back is still in
        // flight, the device copy may be stale: wait for the write to land
        // before re-reading.
        if let Some(ticket) = inner.inflight.remove(&id) {
            ticket.wait().1?;
        }
        self.load(&mut inner, id, true)
    }

    fn install_fresh(&self, id: BlockId) -> Result<&Frame> {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        // A freshly allocated id can only collide with an in-flight
        // write-back if the caller freed the block without `discard`ing it;
        // wait the stale write out rather than let it clobber the new data.
        if let Some(ticket) = inner.inflight.remove(&id) {
            let _ = ticket.wait();
        }
        self.load(&mut inner, id, false)
    }

    /// Load block `id` into a free frame, evicting while the resident
    /// frames are at the limit or over it: read from the device if `read`,
    /// zeroed otherwise.  The frame comes back pinned, clean and unmarked;
    /// if the read fails, its slot goes back on the free list.  Caller holds
    /// the pool lock.
    fn load(&self, inner: &mut Inner, id: BlockId, read: bool) -> Result<&Frame> {
        while inner.slots.len() - inner.free.len() >= inner.limit {
            let victim = self.evict(inner)?;
            inner.free.push(victim);
        }
        let idx = inner.free.pop().ok_or(PdmError::PoolExhausted)?;
        debug_assert!(
            !inner.inflight.contains_key(&id),
            "frame handed out while its write-back is in flight"
        );
        let frame = &self.frames[idx];
        // Read into the frame under the pool lock: simple and race-free
        // (single structural lock).  Its lock is free, since a guard unlocks
        // its frame before unpinning it and only the pool lock's holder
        // pins one.
        let mut data = frame.data.write().unwrap_or_else(PoisonError::into_inner);
        // A frame's first load sizes its buffer, as does a load after a
        // failed read whose lane kept it.
        if data.len() != self.device.block_size() {
            *data = vec![0; self.device.block_size()].into_boxed_slice();
        }
        if read {
            let (buf, res) = self
                .device
                .submit_read(id, std::mem::take(&mut *data))
                .wait();
            *data = buf;
            if let Err(e) = res {
                inner.free.push(idx);
                return Err(e);
            }
        } else {
            data.fill(0);
        }
        drop(data);
        frame.pins.store(1, Ordering::Relaxed);
        frame.dirty.store(false, Ordering::Relaxed);
        frame.internal.store(false, Ordering::Relaxed);
        frame.owner.store(0, Ordering::Relaxed);
        inner.slots[idx] = Some(Slot {
            block: id,
            loaded_at: inner.tick,
            last_use: inner.tick,
            walk: Walk::Off,
        });
        inner.map.insert(id, idx);
        Ok(frame)
    }

    /// Evict one unpinned frame and return its slot.  Caller holds the pool
    /// lock.
    fn evict(&self, inner: &mut Inner) -> Result<usize> {
        // Choose an unpinned victim.  Pins only increase under the pool
        // lock, so a frame observed unpinned here cannot become pinned
        // before we remove it.
        let lowered = inner.limit < self.capacity();
        let victim = inner
            .slots
            .iter()
            .zip(&self.frames)
            .enumerate()
            .filter_map(|(i, (s, f))| s.as_ref().map(|s| (i, s, f)))
            .filter(|(_, _, f)| f.pins.load(Ordering::Relaxed) == 0)
            .min_by_key(|(_, s, f)| {
                let kept = lowered && f.internal.load(Ordering::Relaxed);
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
            .map(|(i, _, _)| i)
            .ok_or(PdmError::PoolExhausted)?;
        let Some(slot) = inner.slots[victim].take() else {
            return Err(PdmError::Corrupt("buffer pool victim slot is empty".into()));
        };
        inner.map.remove(&slot.block);
        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        let frame = &self.frames[victim];
        if frame.dirty.load(Ordering::Relaxed) {
            // Submit the write-back asynchronously and remember the ticket:
            // on an overlapped device the eviction overlaps with the caller's
            // demand read, and `pin` refuses to re-serve this block from the
            // device until the ticket has been waited on.
            let ticket = self.device.submit_write(slot.block, frame.copy());
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

/// Unpins its frame on drop.
struct Pin<'a>(&'a Frame);

impl Drop for Pin<'_> {
    fn drop(&mut self) {
        self.0.pins.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Shared (read) access to a pinned frame.  The lock is declared before
/// the pin, so it is released first: a frame is unlocked before it can be
/// evicted.
pub struct FrameGuard<'a> {
    data: RwLockReadGuard<'a, Box<[u8]>>,
    pin: Pin<'a>,
}

impl FrameGuard<'_> {
    /// Mark the frame as an index's root or internal node: while the pool's
    /// limit is lowered, it is evicted only when no unmarked frame can be.
    /// The mark lasts while the block stays resident.
    pub fn mark_internal(&self) {
        self.pin.0.internal.store(true, Ordering::Relaxed);
    }

    /// Mark the frame as a node of index `owner` (not 0), whose walks over
    /// its old nodes ([`BufferPool::begin_walk`]) it then takes part in.
    /// The mark lasts while the block stays resident.
    pub fn mark_owner(&self, owner: u64) {
        self.pin.0.owner.store(owner, Ordering::Relaxed);
    }
}

impl Deref for FrameGuard<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Exclusive (write) access to a pinned frame; its lock, too, is released
/// before its pin.
pub struct FrameGuardMut<'a> {
    data: RwLockWriteGuard<'a, Box<[u8]>>,
    pin: Pin<'a>,
}

impl FrameGuardMut<'_> {
    /// [`FrameGuard::mark_internal`] for a frame pinned for writing.
    pub fn mark_internal(&self) {
        self.pin.0.internal.store(true, Ordering::Relaxed);
    }

    /// [`FrameGuard::mark_owner`] for a frame pinned for writing.
    pub fn mark_owner(&self, owner: u64) {
        self.pin.0.owner.store(owner, Ordering::Relaxed);
    }
}

impl Deref for FrameGuardMut<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for FrameGuardMut<'_> {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
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
        let held = |i: usize| lock(&pool.inner).map.contains_key(&ids[i]);
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
        assert!(lock(&pool.inner)
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
    fn a_failed_read_gives_its_frame_back() {
        use crate::fault::{FaultDisk, FaultPlan};
        let (disk, _, ids) = setup(0, EvictionPolicy::Lru);
        // Every block's first read fails, its second succeeds.
        let plan = FaultPlan::new(3).with_transient(1000, 1);
        let faulty = FaultDisk::wrap(disk, plan) as SharedDevice;
        let pool = BufferPool::new(faulty, 4, EvictionPolicy::Lru);
        for &id in &ids[..4] {
            assert!(pool.read(id).is_err());
        }
        assert_eq!(pool.resident(), 0, "no frame holds a block");
        for (i, &id) in (0u8..).zip(&ids[..4]) {
            assert_eq!(&*pool.read(id).unwrap(), &[i; 8]);
        }
        assert_eq!(pool.resident(), 4);
    }

    #[test]
    fn allocate_frees_the_block_it_cannot_place() {
        let (disk, pool, ids) = setup(1, EvictionPolicy::Lru);
        let _pinned = pool.read(ids[0]).unwrap();
        let blocks = disk.allocated_blocks();
        assert!(matches!(pool.allocate(), Err(PdmError::PoolExhausted)));
        assert_eq!(disk.allocated_blocks(), blocks, "no block left unheld");
    }

    #[test]
    fn a_reused_frame_starts_clean() {
        let (disk, pool, ids) = setup(3, EvictionPolicy::Lru);
        let frame_of = |i: usize| lock(&pool.inner).map.get(&ids[i]).copied();
        {
            let g = pool.write(ids[0]).unwrap();
            g.mark_internal();
            g.mark_owner(7);
        }
        let frame = frame_of(0);
        pool.read(ids[1]).unwrap();
        pool.read(ids[2]).unwrap();
        // Block 3 evicts block 0, the least recently used, and takes its
        // frame without its marks.
        pool.read(ids[3]).unwrap();
        assert_eq!((frame_of(0), frame_of(3)), (None, frame));
        let writes = disk.stats().snapshot().writes();
        assert_eq!(pool.begin_walk(7), 0, "block 3 is no node of owner 7");
        pool.end_walk(7);
        pool.flush().unwrap();
        assert_eq!(disk.stats().snapshot().writes(), writes, "block 3 is clean");
        // Under a lowered limit block 3, not internal, leaves in LRU order:
        // first, then block 1.
        pool.read(ids[1]).unwrap();
        pool.read(ids[2]).unwrap();
        pool.set_limit(2);
        pool.read(ids[4]).unwrap();
        assert!(frame_of(3).is_none() && frame_of(1).is_none());
        assert!(frame_of(2).is_some() && frame_of(4).is_some());
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
