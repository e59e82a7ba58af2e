//! An in-memory block device.
//!
//! `RamDisk` is the workhorse of the test suite and the experiment harness:
//! it behaves exactly like a disk at the model level (block-granular,
//! counted transfers) while being deterministic and fast.  Substituting it
//! for 1998-era hardware is sound because every claim the survey makes is a
//! claim about *block-transfer counts*, which this device reports exactly.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::device::{BlockDevice, BlockId};
use crate::error::{PdmError, Result};
use crate::stats::IoStats;

struct Inner {
    blocks: Vec<Option<Box<[u8]>>>,
    /// Freed ids with their storage, zeroed and handed out again by
    /// `allocate`: a disk keeps its sectors, and a sort that frees and
    /// reallocates its runs does not churn the process allocator.
    free_list: Vec<(BlockId, Box<[u8]>)>,
    allocated: u64,
}

/// In-memory [`BlockDevice`] with unbounded capacity.
pub struct RamDisk {
    block_size: usize,
    inner: Mutex<Inner>,
    stats: Arc<IoStats>,
    /// Which lane of `stats` this disk records into (used by [`DiskArray`]
    /// (crate::DiskArray) members; standalone disks use lane 0).
    lane: usize,
}

impl RamDisk {
    /// Create a RAM disk with the given block size in bytes and its own
    /// single-lane statistics handle.
    pub fn new(block_size: usize) -> Arc<Self> {
        assert!(block_size > 0, "block size must be positive");
        let stats = IoStats::new(1, block_size);
        Arc::new(Self::with_stats(block_size, stats, 0))
    }

    /// Create a RAM disk recording into lane `lane` of an existing
    /// statistics handle.
    ///
    /// Disk arrays build their members this way; it is public so crash-
    /// recovery harnesses can hold the member disks directly — the RAM disk
    /// is the "surviving medium" a rebooted array
    /// ([`DiskArray::from_devices`](crate::DiskArray::from_devices)) is
    /// reassembled over.
    pub fn with_stats(block_size: usize, stats: Arc<IoStats>, lane: usize) -> Self {
        RamDisk {
            block_size,
            inner: Mutex::new(Inner {
                blocks: Vec::new(),
                free_list: Vec::new(),
                allocated: 0,
            }),
            stats,
            lane,
        }
    }
}

impl BlockDevice for RamDisk {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn allocated_blocks(&self) -> u64 {
        self.inner.lock().allocated
    }

    fn allocate(&self) -> Result<BlockId> {
        let mut inner = self.inner.lock();
        inner.allocated += 1;
        if let Some((id, mut block)) = inner.free_list.pop() {
            block.fill(0);
            inner.blocks[id as usize] = Some(block);
            return Ok(id);
        }
        let id = inner.blocks.len() as BlockId;
        inner
            .blocks
            .push(Some(vec![0u8; self.block_size].into_boxed_slice()));
        Ok(id)
    }

    fn free(&self, id: BlockId) -> Result<()> {
        let mut inner = self.inner.lock();
        let slot = inner
            .blocks
            .get_mut(id as usize)
            .ok_or(PdmError::InvalidBlock(id))?;
        let Some(block) = slot.take() else {
            return Err(PdmError::InvalidBlock(id));
        };
        inner.free_list.push((id, block));
        inner.allocated -= 1;
        Ok(())
    }

    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<()> {
        if buf.len() != self.block_size {
            return Err(PdmError::SizeMismatch {
                expected: self.block_size,
                actual: buf.len(),
            });
        }
        let inner = self.inner.lock();
        let block = inner
            .blocks
            .get(id as usize)
            .and_then(|b| b.as_deref())
            .ok_or(PdmError::InvalidBlock(id))?;
        buf.copy_from_slice(block);
        self.stats.record_read(self.lane);
        Ok(())
    }

    fn write_block(&self, id: BlockId, buf: &[u8]) -> Result<()> {
        if buf.len() != self.block_size {
            return Err(PdmError::SizeMismatch {
                expected: self.block_size,
                actual: buf.len(),
            });
        }
        let mut inner = self.inner.lock();
        let block = inner
            .blocks
            .get_mut(id as usize)
            .and_then(|b| b.as_deref_mut())
            .ok_or(PdmError::InvalidBlock(id))?;
        block.copy_from_slice(buf);
        self.stats.record_write(self.lane);
        Ok(())
    }

    fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    fn lane_of(&self, _id: BlockId) -> Option<usize> {
        Some(self.lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let disk = RamDisk::new(16);
        let id = disk.allocate().unwrap();
        let data = [7u8; 16];
        disk.write_block(id, &data).unwrap();
        let mut out = [0u8; 16];
        disk.read_block(id, &mut out).unwrap();
        assert_eq!(out, data);
        let snap = disk.stats().snapshot();
        assert_eq!(snap.reads(), 1);
        assert_eq!(snap.writes(), 1);
    }

    #[test]
    fn fresh_blocks_are_zeroed() {
        let disk = RamDisk::new(8);
        let id = disk.allocate().unwrap();
        let mut out = [1u8; 8];
        disk.read_block(id, &mut out).unwrap();
        assert_eq!(out, [0u8; 8]);
    }

    #[test]
    fn free_then_read_is_error() {
        let disk = RamDisk::new(8);
        let id = disk.allocate().unwrap();
        disk.free(id).unwrap();
        let mut out = [0u8; 8];
        assert!(matches!(
            disk.read_block(id, &mut out),
            Err(PdmError::InvalidBlock(_))
        ));
    }

    #[test]
    fn double_free_is_error() {
        let disk = RamDisk::new(8);
        let id = disk.allocate().unwrap();
        disk.free(id).unwrap();
        assert!(disk.free(id).is_err());
    }

    #[test]
    fn freed_ids_are_reused_and_zeroed() {
        let disk = RamDisk::new(8);
        let id = disk.allocate().unwrap();
        disk.write_block(id, &[9u8; 8]).unwrap();
        disk.free(id).unwrap();
        let id2 = disk.allocate().unwrap();
        assert_eq!(id, id2, "free list reuse");
        let mut out = [1u8; 8];
        disk.read_block(id2, &mut out).unwrap();
        assert_eq!(out, [0u8; 8], "recycled block must be zeroed");
    }

    #[test]
    fn size_mismatch_rejected() {
        let disk = RamDisk::new(8);
        let id = disk.allocate().unwrap();
        let mut small = [0u8; 4];
        assert!(matches!(
            disk.read_block(id, &mut small),
            Err(PdmError::SizeMismatch {
                expected: 8,
                actual: 4
            })
        ));
        assert!(disk.write_block(id, &[0u8; 12]).is_err());
    }

    #[test]
    fn allocated_blocks_tracks() {
        let disk = RamDisk::new(8);
        assert_eq!(disk.allocated_blocks(), 0);
        let a = disk.allocate().unwrap();
        let _b = disk.allocate().unwrap();
        assert_eq!(disk.allocated_blocks(), 2);
        disk.free(a).unwrap();
        assert_eq!(disk.allocated_blocks(), 1);
    }
}
