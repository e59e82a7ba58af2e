//! A file-backed block device.
//!
//! `FileDisk` stores blocks in a single backing file at offset
//! `id * block_size`.  The model-level behaviour (counting, allocation) is
//! identical to [`RamDisk`](crate::RamDisk); only the medium differs.
//!
//! Transfers use *positioned* I/O (`pread`/`pwrite` via
//! [`std::os::unix::fs::FileExt`]): each call carries its own offset instead
//! of seeking a shared cursor first.  That keeps concurrent transfers from
//! the per-disk worker threads of an overlapped
//! [`DiskArray`](crate::DiskArray) — and any other multi-threaded caller —
//! from racing on the file position; only the allocation metadata needs a
//! lock.

use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::device::{BlockDevice, BlockId};
use crate::error::{PdmError, Result};
use crate::lock;
use crate::stats::IoStats;

/// Allocation metadata; the backing file itself is accessed lock-free via
/// positioned reads/writes.
struct Meta {
    /// Whether each block of the file is allocated, indexed by id; its
    /// length is the file's length in blocks.
    live: Vec<bool>,
    free_list: Vec<BlockId>,
    allocated: u64,
}

impl Meta {
    fn is_live(&self, id: BlockId) -> bool {
        self.live.get(id as usize).copied().unwrap_or(false)
    }
}

/// [`BlockDevice`] backed by a single file.
pub struct FileDisk {
    block_size: usize,
    file: File,
    meta: Mutex<Meta>,
    stats: Arc<IoStats>,
    /// Which lane of `stats` this disk records into (disk-array members use
    /// their own lane; standalone disks use lane 0).
    lane: usize,
    zero: Box<[u8]>,
    /// Non-unix fallback: serializes seek-then-transfer pairs.
    #[cfg(not(unix))]
    cursor: Mutex<()>,
}

impl FileDisk {
    /// Create (truncating) a file-backed disk at `path` with the given block
    /// size in bytes.
    ///
    /// # Errors
    ///
    /// [`PdmError::InvalidRequest`] if `block_size` is zero, before any file
    /// is created; otherwise whatever the file system returns.
    pub fn create<P: AsRef<Path>>(path: P, block_size: usize) -> Result<Arc<Self>> {
        let stats = IoStats::new(1, block_size);
        Ok(Arc::new(Self::create_with_stats(
            path, block_size, stats, 0,
        )?))
    }

    /// Create a file disk recording into lane `lane` of an existing
    /// statistics handle, as a member of a disk array does.
    pub(crate) fn create_with_stats<P: AsRef<Path>>(
        path: P,
        block_size: usize,
        stats: Arc<IoStats>,
        lane: usize,
    ) -> Result<Self> {
        if block_size == 0 {
            return Err(PdmError::InvalidRequest(
                "a file disk needs a positive block size".into(),
            ));
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileDisk {
            block_size,
            file,
            meta: Mutex::new(Meta {
                live: Vec::new(),
                free_list: Vec::new(),
                allocated: 0,
            }),
            stats,
            lane,
            zero: vec![0u8; block_size].into_boxed_slice(),
            #[cfg(not(unix))]
            cursor: Mutex::new(()),
        })
    }

    fn offset(&self, id: BlockId) -> u64 {
        id * self.block_size as u64
    }

    fn check_live(&self, id: BlockId) -> Result<()> {
        if !lock(&self.meta).is_live(id) {
            return Err(PdmError::InvalidBlock(id));
        }
        Ok(())
    }

    #[cfg(unix)]
    fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, off)?;
        Ok(())
    }

    #[cfg(unix)]
    fn write_at(&self, buf: &[u8], off: u64) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(buf, off)?;
        Ok(())
    }

    #[cfg(not(unix))]
    fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let _cursor = lock(&self.cursor);
        (&self.file).seek(SeekFrom::Start(off))?;
        (&self.file).read_exact(buf)?;
        Ok(())
    }

    #[cfg(not(unix))]
    fn write_at(&self, buf: &[u8], off: u64) -> Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        let _cursor = lock(&self.cursor);
        (&self.file).seek(SeekFrom::Start(off))?;
        (&self.file).write_all(buf)?;
        Ok(())
    }
}

impl BlockDevice for FileDisk {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn allocated_blocks(&self) -> u64 {
        lock(&self.meta).allocated
    }

    fn allocate(&self) -> Result<BlockId> {
        let mut meta = lock(&self.meta);
        // Zero a reused block, or extend the file with a zero block, so an
        // allocated block reads as zeros, as on a RAM disk.  The write is
        // not a transfer of the model, and the id is handed out only once
        // it has succeeded.
        let fresh = meta.live.len() as BlockId;
        let id = meta.free_list.last().copied().unwrap_or(fresh);
        self.write_at(&self.zero, self.offset(id))?;
        if id == fresh {
            meta.live.push(true);
        } else {
            meta.free_list.pop();
            meta.live[id as usize] = true;
        }
        meta.allocated += 1;
        Ok(id)
    }

    fn free(&self, id: BlockId) -> Result<()> {
        let mut meta = lock(&self.meta);
        if !meta.is_live(id) {
            return Err(PdmError::InvalidBlock(id));
        }
        meta.live[id as usize] = false;
        meta.free_list.push(id);
        meta.allocated -= 1;
        Ok(())
    }

    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<()> {
        if buf.len() != self.block_size {
            return Err(PdmError::SizeMismatch {
                expected: self.block_size,
                actual: buf.len(),
            });
        }
        self.check_live(id)?;
        self.read_at(buf, self.offset(id))?;
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
        self.check_live(id)?;
        self.write_at(buf, self.offset(id))?;
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
    use crate::{RamDisk, SharedDevice};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pdm-filedisk-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn round_trip() {
        let path = tmp("rt");
        let disk = FileDisk::create(&path, 32).unwrap();
        let a = disk.allocate().unwrap();
        let b = disk.allocate().unwrap();
        disk.write_block(b, &[3u8; 32]).unwrap();
        disk.write_block(a, &[9u8; 32]).unwrap();
        let mut out = [0u8; 32];
        disk.read_block(a, &mut out).unwrap();
        assert_eq!(out, [9u8; 32]);
        disk.read_block(b, &mut out).unwrap();
        assert_eq!(out, [3u8; 32]);
        assert_eq!(disk.stats().snapshot().total(), 4);
        std::fs::remove_file(path).ok();
    }

    /// The `BlockDevice` contract on a freed block, on both devices: a
    /// read, a write and a second free of it are `InvalidBlock` and move
    /// nothing, and the next allocation hands it back zeroed.
    #[test]
    fn a_freed_block_is_dead_until_allocated_again() {
        let path = tmp("contract");
        let devices: [(&str, SharedDevice); 2] = [
            ("ram", RamDisk::new(32)),
            ("file", FileDisk::create(&path, 32).unwrap()),
        ];
        for (name, disk) in devices {
            let a = disk.allocate().unwrap();
            disk.write_block(a, &[7u8; 32]).unwrap();
            disk.free(a).unwrap();
            let mut out = [1u8; 32];
            let dead = |got: Result<()>| matches!(got, Err(PdmError::InvalidBlock(id)) if id == a);
            assert!(dead(disk.read_block(a, &mut out)), "{name}: read");
            assert!(dead(disk.write_block(a, &[9u8; 32])), "{name}: write");
            assert!(dead(disk.free(a)), "{name}: double free");
            assert_eq!(disk.allocated_blocks(), 0, "{name}");
            assert_eq!(disk.allocate().unwrap(), a, "{name}: reuse");
            disk.read_block(a, &mut out).unwrap();
            assert_eq!(out, [0u8; 32], "{name}: a reused block reads as zeros");
            assert_eq!(disk.stats().snapshot().total(), 2, "{name}: transfers");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn out_of_range_block_rejected() {
        let path = tmp("oor");
        let disk = FileDisk::create(&path, 32).unwrap();
        let mut out = [0u8; 32];
        assert!(disk.read_block(5, &mut out).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn free_list_reuse() {
        let path = tmp("fl");
        let disk = FileDisk::create(&path, 32).unwrap();
        let a = disk.allocate().unwrap();
        disk.free(a).unwrap();
        assert!(disk.free(a).is_err(), "double free rejected");
        let b = disk.allocate().unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(path).ok();
    }

    /// `/dev/full` opens, and every write to it fails with `ENOSPC`: an
    /// allocation that cannot extend the file holds no block.
    #[cfg(target_os = "linux")]
    #[test]
    fn an_allocation_whose_write_fails_holds_no_block() {
        let disk = FileDisk::create("/dev/full", 32).unwrap();
        for _ in 0..2 {
            assert!(disk.allocate().is_err());
            assert_eq!(disk.allocated_blocks(), 0);
        }
        let mut out = [0u8; 32];
        assert!(matches!(
            disk.read_block(0, &mut out),
            Err(PdmError::InvalidBlock(0))
        ));
    }

    #[test]
    fn a_disk_without_block_bytes_is_an_invalid_request() {
        let path = tmp("empty");
        let res = FileDisk::create(&path, 0);
        assert!(matches!(res, Err(PdmError::InvalidRequest(_))));
        assert!(!path.exists(), "nothing created");
    }

    #[test]
    fn concurrent_positioned_io_does_not_interleave() {
        // Positioned I/O has no shared cursor: many threads hammering
        // disjoint blocks must never observe torn or misplaced data.
        let path = tmp("conc");
        let disk = FileDisk::create(&path, 64).unwrap();
        let ids: Vec<BlockId> = (0..16).map(|_| disk.allocate().unwrap()).collect();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let disk = Arc::clone(&disk);
                let ids = ids.clone();
                std::thread::spawn(move || {
                    for round in 0..20u8 {
                        for (i, &id) in ids.iter().enumerate().filter(|(i, _)| i % 4 == t) {
                            let pattern = [i as u8 ^ round; 64];
                            disk.write_block(id, &pattern).unwrap();
                            let mut out = [0u8; 64];
                            disk.read_block(id, &mut out).unwrap();
                            assert_eq!(out, pattern);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        std::fs::remove_file(path).ok();
    }
}
