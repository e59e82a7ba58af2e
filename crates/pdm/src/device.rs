//! The block-device abstraction.

use std::sync::Arc;

use crate::error::Result;
use crate::sched::IoTicket;
use crate::stats::IoStats;

/// Identifier of one block on a device.
///
/// Ids are allocated by [`BlockDevice::allocate`] and remain valid until
/// [`BlockDevice::free`].  They carry no locality meaning by themselves; a
/// device is free to reuse freed ids.
pub type BlockId = u64;

/// A device transferring data in fixed-size blocks — the "disk" of the
/// Parallel Disk Model.
///
/// All transfers move exactly [`block_size`](Self::block_size) bytes and are
/// counted in the device's [`IoStats`].  Implementations must be safe to
/// share across threads behind an `Arc` (interior mutability), because the
/// higher layers clone [`SharedDevice`] handles freely.
pub trait BlockDevice: Send + Sync {
    /// Size of one block, in bytes.
    fn block_size(&self) -> usize;

    /// Number of currently allocated blocks.
    fn allocated_blocks(&self) -> u64;

    /// Allocate a fresh zeroed block and return its id.
    fn allocate(&self) -> Result<BlockId>;

    /// Release a block.  Reading a freed block is an error.
    fn free(&self, id: BlockId) -> Result<()>;

    /// Read block `id` into `buf` (`buf.len()` must equal the block size).
    /// Counts as one I/O.
    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<()>;

    /// Write `buf` to block `id` (`buf.len()` must equal the block size).
    /// Counts as one I/O.
    fn write_block(&self, id: BlockId, buf: &[u8]) -> Result<()>;

    /// The statistics handle transfers are recorded into.
    fn stats(&self) -> Arc<IoStats>;

    /// The lane that serves block `id`, or `None` if the block spans every
    /// lane (striped placement, where one logical transfer touches all D
    /// disks at once and no single lane owns it).
    ///
    /// A single disk trivially owns all its blocks, hence the default.
    fn lane_of(&self, _id: BlockId) -> Option<usize> {
        Some(0)
    }

    /// How many lanes a *sequential stream* of logical blocks spreads over —
    /// the lane-parallelism one reader or writer can exploit by deepening its
    /// queue.
    ///
    /// Independent-placement arrays round-robin consecutive allocations
    /// across their D member disks, so a stream that wants `d` transfers
    /// outstanding on every disk must keep `d·D` outstanding per array.
    /// Striped arrays return 1: each logical transfer already occupies all D
    /// disks, so per-array depth *is* per-disk depth.  Plain disks return 1.
    fn stream_lanes(&self) -> usize {
        1
    }

    /// Announce that the *next* sequential allocation stream is stream
    /// number `stream` (a run index, bucket index, or output-stream token),
    /// letting the device pick that stream's lane placement.
    ///
    /// Writers that emit equal-length streams (external sort runs of exactly
    /// M/B blocks) otherwise start every stream on the same lane whenever the
    /// stream length divides D: block `j` of *every* run then lives on the
    /// same disk, and a merge that drains the runs in lockstep hammers one
    /// disk per wave while the rest idle.  How the device maps the stream
    /// token to lanes is its placement policy — an independent-placement
    /// [`DiskArray`](crate::DiskArray) starts stream `r` on lane `r mod D`
    /// (a deterministic stagger), and randomized cycling gives stream `r`
    /// its own seeded permutation of the lanes per Vitter–Hutchinson.  Both
    /// are pure
    /// placement: total transfer counts are unchanged, and because the lane
    /// choice is a deterministic function of `(placement, stream)` — never a
    /// bump of shared cursor state — a sort's block layout is a function of
    /// the sort alone, identical across repeated executions.  No-op on
    /// single disks and striped arrays (one logical block already spans all
    /// D disks there).
    fn direct_next_stream(&self, _stream: usize) {}

    /// Submit a read of block `id` into the owned buffer; the filled buffer
    /// comes back through the returned [`IoTicket`].
    ///
    /// The default implementation executes the read inline and returns an
    /// already-completed ticket.  A [`DiskArray`](crate::DiskArray) moves
    /// every block this way — its `read_block` is this submit waited on at
    /// once — and in overlapped mode queues the transfer on a per-disk
    /// worker thread.  Either way the transfer counts exactly one I/O per
    /// physical block, identical to [`read_block`](Self::read_block).
    fn submit_read(&self, id: BlockId, mut buf: Box<[u8]>) -> IoTicket {
        let res = self.read_block(id, &mut buf);
        IoTicket::ready(buf, res)
    }

    /// Submit a write of the owned buffer to block `id`; the buffer is
    /// handed back through the returned [`IoTicket`] on completion, failed
    /// or not.
    ///
    /// Default: executes inline (see [`submit_read`](Self::submit_read)).
    fn submit_write(&self, id: BlockId, buf: Box<[u8]>) -> IoTicket {
        let res = self.write_block(id, &buf);
        IoTicket::ready(buf, res)
    }

    /// Wait until every transfer submitted so far has reached the medium and
    /// report the first failure of a write whose completion ticket was
    /// dropped.
    ///
    /// This is the durability point a caller must pass before acknowledging
    /// data as written: a fire-and-forget write-behind whose ticket was
    /// dropped may have *failed*, and prior to this method the only trace was
    /// an advisory counter and a log line at scheduler shutdown.  `barrier`
    /// turns that into a hard error — if any dropped-ticket write failed
    /// since the last barrier, the first such error is returned as `Err` and
    /// the caller must not ack on top of it.
    ///
    /// Synchronous devices complete every transfer inline, so the default is
    /// a no-op returning `Ok(())`.
    fn barrier(&self) -> Result<()> {
        Ok(())
    }
}

/// Shared handle to a block device.
pub type SharedDevice = Arc<dyn BlockDevice>;
