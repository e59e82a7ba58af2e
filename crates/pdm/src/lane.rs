//! Lane-pinned views of a [`DiskArray`](crate::DiskArray).
//!
//! A sharded serving layer wants each shard's storage confined to one member
//! disk of an independent-placement array, so that shard traffic never
//! serializes on a neighbour's lane and per-shard transfer attribution is
//! exact (`IoSnapshot::reads_on(lane)` *is* the shard's read count).  The
//! [`direct_next_stream`](crate::BlockDevice::direct_next_stream) token used
//! by the sort engine points a shared round-robin cursor, which is the right
//! tool for one writer emitting streams in sequence — but concurrent shard
//! workers allocating through the same array would race each other between
//! directing the cursor and allocating.  [`LaneView`] removes the race: it is
//! a `BlockDevice` whose every allocation lands on one fixed lane via
//! [`DiskArray::allocate_on`], with reads/writes/frees passing straight
//! through to the underlying array.

use std::sync::Arc;

use crate::array::DiskArray;
use crate::device::{BlockDevice, BlockId, SharedDevice};
use crate::error::Result;
use crate::sched::IoTicket;
use crate::stats::IoStats;

/// A single-lane view of an independent-placement [`DiskArray`]: the same
/// blocks, stats, and I/O paths as the array, but every block allocated
/// through the view lives on one fixed member disk.
///
/// Block ids are array-logical, so handles obtained through a view and
/// through the array (or a sibling view) are interchangeable.
pub struct LaneView {
    array: Arc<DiskArray>,
    lane: usize,
}

impl LaneView {
    /// Pin stream `stream` of the array to a lane, round-robin over the
    /// array's [`stream_lanes`](BlockDevice::stream_lanes).
    ///
    /// On a striped array (or any device reporting one stream lane) there is
    /// nothing to pin — every transfer already spans all disks — so the array
    /// itself is returned unchanged.
    pub fn pin(array: Arc<DiskArray>, stream: usize) -> SharedDevice {
        let lanes = array.stream_lanes();
        if lanes <= 1 {
            array
        } else {
            Arc::new(LaneView {
                array,
                lane: stream % lanes,
            })
        }
    }

    /// The member disk this view allocates on.
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// The underlying array.
    pub fn array(&self) -> &Arc<DiskArray> {
        &self.array
    }
}

impl BlockDevice for LaneView {
    fn block_size(&self) -> usize {
        self.array.block_size()
    }

    fn allocated_blocks(&self) -> u64 {
        self.array.allocated_blocks()
    }

    fn allocate(&self) -> Result<BlockId> {
        self.array.allocate_on(self.lane)
    }

    fn free(&self, id: BlockId) -> Result<()> {
        self.array.free(id)
    }

    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<()> {
        self.array.read_block(id, buf)
    }

    fn write_block(&self, id: BlockId, buf: &[u8]) -> Result<()> {
        self.array.write_block(id, buf)
    }

    fn stats(&self) -> Arc<IoStats> {
        self.array.stats()
    }

    fn lane_of(&self, id: BlockId) -> Option<usize> {
        self.array.lane_of(id)
    }

    /// One: a sequential stream allocated through this view sits entirely on
    /// [`lane`](Self::lane), so deepening its queue buys no lane-parallelism.
    fn stream_lanes(&self) -> usize {
        1
    }

    /// No-op — the view *is* the stream direction, permanently.
    fn direct_next_stream(&self, _stream: usize) {}

    fn submit_read(&self, id: BlockId, buf: Box<[u8]>) -> IoTicket {
        self.array.submit_read(id, buf)
    }

    fn submit_write(&self, id: BlockId, buf: Box<[u8]>) -> IoTicket {
        self.array.submit_write(id, buf)
    }

    fn barrier(&self) -> Result<()> {
        self.array.barrier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Placement;

    #[test]
    fn allocations_stay_on_the_pinned_lane() {
        let arr = Arc::new(DiskArray::new_ram(4, 64, Placement::Independent));
        for shard in 0..6 {
            let view = LaneView::pin(Arc::clone(&arr), shard);
            assert_eq!(view.stream_lanes(), 1);
            for _ in 0..5 {
                let id = view.allocate().unwrap();
                assert_eq!(view.lane_of(id), Some(shard % 4));
            }
        }
    }

    #[test]
    fn io_through_the_view_lands_on_the_lane() {
        let arr = Arc::new(DiskArray::new_ram(2, 16, Placement::Independent));
        let view = LaneView::pin(Arc::clone(&arr), 1);
        let before = arr.stats().snapshot();
        let id = view.allocate().unwrap();
        let data = vec![7u8; 16];
        view.write_block(id, &data).unwrap();
        let mut out = vec![0u8; 16];
        view.read_block(id, &mut out).unwrap();
        assert_eq!(out, data);
        let delta = arr.stats().snapshot().since(&before);
        assert_eq!(delta.reads_per_lane(), &[0, 1]);
        assert_eq!(delta.writes_per_lane(), &[0, 1]);
    }

    #[test]
    fn striped_and_single_lane_arrays_pass_through() {
        let striped = Arc::new(DiskArray::new_ram(4, 16, Placement::Striped));
        let dev = LaneView::pin(Arc::clone(&striped), 3);
        assert_eq!(dev.block_size(), 64); // the array itself, unchanged

        let single = Arc::new(DiskArray::new_ram(1, 16, Placement::Independent));
        let dev = LaneView::pin(Arc::clone(&single), 2);
        let id = dev.allocate().unwrap();
        assert_eq!(dev.lane_of(id), Some(0));
    }
}
