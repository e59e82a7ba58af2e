//! PDM machine configuration.

use std::sync::Arc;

use pdm::{RamDisk, SharedDevice};

use crate::record::Record;

/// The machine parameters of one Parallel Disk Model instance.
///
/// Sizes are stored in device units (bytes per block, blocks of memory) and
/// converted to record counts per record type on demand, because the survey's
/// parameters `M` and `B` are record counts that depend on the record size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmConfig {
    /// Size of one device block, in bytes.
    pub block_bytes: usize,
    /// Internal memory capacity, in blocks (`m = M/B`).
    pub mem_blocks: usize,
}

impl EmConfig {
    /// Create a configuration; requires at least 4 memory blocks (below
    /// that, merge fan-in degenerates and most algorithms cannot run).
    pub fn new(block_bytes: usize, mem_blocks: usize) -> Self {
        assert!(block_bytes > 0, "block size must be positive");
        assert!(mem_blocks >= 4, "need at least 4 blocks of memory");
        EmConfig {
            block_bytes,
            mem_blocks,
        }
    }

    /// `B` for record type `R`: records per block.
    pub fn block_records<R: Record>(&self) -> usize {
        let b = self.block_bytes / R::BYTES;
        assert!(b >= 1, "record larger than a block");
        b
    }

    /// `M` for record type `R`: records of internal memory.
    pub fn mem_records<R: Record>(&self) -> usize {
        self.block_records::<R>() * self.mem_blocks
    }

    /// Create a fresh single [`RamDisk`] with this block size.
    pub fn ram_disk(&self) -> SharedDevice {
        RamDisk::new(self.block_bytes) as SharedDevice
    }

    /// Create a striped or independent RAM disk array with `d` member disks.
    pub fn ram_array(&self, d: usize, placement: pdm::Placement) -> Arc<pdm::DiskArray> {
        pdm::DiskArray::new_ram(d, self.block_bytes, placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_conversions() {
        let cfg = EmConfig::new(4096, 16);
        assert_eq!(cfg.block_records::<u64>(), 512);
        assert_eq!(cfg.mem_records::<u64>(), 512 * 16);
        assert_eq!(cfg.block_records::<(u64, u64)>(), 256);
    }

    #[test]
    #[should_panic(expected = "at least 4 blocks")]
    fn tiny_memory_rejected() {
        EmConfig::new(4096, 2);
    }

    #[test]
    #[should_panic(expected = "record larger than a block")]
    fn record_must_fit_in_block() {
        let cfg = EmConfig::new(8, 4);
        cfg.block_records::<(u64, u64)>();
    }

    #[test]
    fn ram_disk_has_configured_block_size() {
        let cfg = EmConfig::new(128, 4);
        assert_eq!(cfg.ram_disk().block_size(), 128);
    }
}
