//! An append-and-rescan external buffer.
//!
//! Several algorithms (buffer-tree style structures, distribution sweeping's
//! active lists) need a container supporting two operations at `O(1/B)`
//! amortized I/Os each:
//!
//! * `push` — append a record (one in-memory tail block, spilled when full);
//! * `retain` — stream every record through a predicate, keeping only the
//!   matches (used for the "report or die" scan of sweep active lists).
//!
//! The amortized analysis of distribution sweeping hinges on `retain`:
//! every scanned record either produces output or is dropped forever.
//!
//! Each spilled block is a one-block [`ExtVec`], so the buffer owns its
//! blocks the way an array does: dropping it, or a block it has read back,
//! frees them, on error paths too.

use pdm::{Result, SharedDevice};

use crate::ext_vec::ExtVec;
use crate::record::Record;

/// Unordered external buffer with buffered appends and filtered rescans.
pub struct AppendBuffer<R: Record> {
    device: SharedDevice,
    /// Full spilled blocks, one array each.
    blocks: Vec<ExtVec<R>>,
    /// In-memory tail (< one block).
    tail: Vec<R>,
    per_block: usize,
}

impl<R: Record> AppendBuffer<R> {
    /// Create an empty buffer on `device`.
    pub fn new(device: SharedDevice) -> Self {
        let per_block = ExtVec::<R>::per_block_on(&device);
        AppendBuffer {
            device,
            blocks: Vec::new(),
            tail: Vec::with_capacity(per_block),
            per_block,
        }
    }

    /// Number of records held.
    pub fn len(&self) -> u64 {
        (self.blocks.len() * self.per_block + self.tail.len()) as u64
    }

    /// True if no records are held.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty() && self.tail.is_empty()
    }

    /// Append a record; spills a full tail block (`O(1/B)` amortized).
    ///
    /// An `Err` means the spill failed: the tail stays full, and the next
    /// push retries the spill before it takes its record.  Whether this
    /// push took its record, [`len`](Self::len) tells.
    pub fn push(&mut self, r: R) -> Result<()> {
        if self.tail.len() >= self.per_block {
            self.spill()?;
        }
        self.tail.push(r);
        if self.tail.len() == self.per_block {
            self.spill()?;
        }
        Ok(())
    }

    /// Write the full tail as one block.
    fn spill(&mut self) -> Result<()> {
        self.blocks
            .push(ExtVec::from_slice(self.device.clone(), &self.tail)?);
        self.tail.clear();
        Ok(())
    }

    /// Stream every record through `visit`; records for which it returns
    /// `false` are removed.  Costs one read of every old block plus one
    /// write per surviving block.  Each old block is freed once read, before
    /// its survivors are pushed; an error frees the blocks not yet read.
    pub fn retain<F: FnMut(&R) -> bool>(&mut self, mut visit: F) -> Result<()> {
        let old_blocks = std::mem::take(&mut self.blocks);
        let old_tail = std::mem::replace(&mut self.tail, Vec::with_capacity(self.per_block));
        let mut records = Vec::with_capacity(self.per_block);
        for block in old_blocks {
            block.read_block_into(0, &mut records)?;
            drop(block);
            for r in records.drain(..) {
                if visit(&r) {
                    self.push(r)?;
                }
            }
        }
        for r in old_tail {
            if visit(&r) {
                self.push(r)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EmConfig;

    fn device() -> SharedDevice {
        EmConfig::new(64, 8).ram_disk() // 8 u64s per block
    }

    /// Every record held, sorted, read through a `retain` that keeps all.
    fn contents(b: &mut AppendBuffer<u64>) -> Vec<u64> {
        let mut v = Vec::new();
        b.retain(|&x| {
            v.push(x);
            true
        })
        .unwrap();
        v.sort_unstable();
        v
    }

    #[test]
    fn push_and_read_back() {
        let mut b = AppendBuffer::new(device());
        for i in 0..100u64 {
            b.push(i).unwrap();
        }
        assert_eq!(b.len(), 100);
        assert_eq!(contents(&mut b), (0..100).collect::<Vec<_>>());
        assert_eq!(b.len(), 100);
    }

    #[test]
    fn retain_filters_and_compacts() {
        let mut b = AppendBuffer::new(device());
        for i in 0..50u64 {
            b.push(i).unwrap();
        }
        let mut seen = 0;
        b.retain(|&x| {
            seen += 1;
            x % 2 == 0
        })
        .unwrap();
        assert_eq!(seen, 50);
        assert_eq!(b.len(), 25);
        assert_eq!(contents(&mut b), (0..50).step_by(2).collect::<Vec<_>>());
        // Buffer stays usable after retain.
        b.push(999).unwrap();
        assert_eq!(b.len(), 26);
    }

    #[test]
    fn retain_everything_dropped_frees_blocks() {
        let d = device();
        let mut b = AppendBuffer::new(d.clone());
        for i in 0..100u64 {
            b.push(i).unwrap();
        }
        assert!(d.allocated_blocks() > 0);
        b.retain(|_| false).unwrap();
        assert_eq!(b.len(), 0);
        assert_eq!(d.allocated_blocks(), 0);
    }

    #[test]
    fn push_io_is_amortized() {
        let d = device();
        let mut b = AppendBuffer::new(d.clone());
        let before = d.stats().snapshot();
        for i in 0..800u64 {
            b.push(i).unwrap();
        }
        let ios = d.stats().snapshot().since(&before).total();
        assert_eq!(ios, 100, "one write per full block");
    }

    /// Every block's first two writes and reads fail.  A spill that fails
    /// leaves the tail at one block — the push that filled it took its
    /// record, a push that retried it did not, as `len` tells — and the next
    /// push retries it.  Every record is held once.
    #[test]
    fn a_failed_spill_keeps_the_tail_at_one_block_and_is_retried() {
        use pdm::{FaultDisk, FaultPlan, RamDisk};
        let plan = FaultPlan::new(5).with_transient(1000, 2);
        let d = FaultDisk::wrap(RamDisk::new(64) as SharedDevice, plan) as SharedDevice;
        let mut b = AppendBuffer::new(d.clone());
        let (mut next, mut failed) = (0u64, 0);
        while next < 100 {
            let len = b.len();
            failed += usize::from(b.push(next).is_err());
            assert!(b.tail.len() <= b.per_block, "tail {}", b.tail.len());
            next += b.len() - len;
        }
        assert_eq!(b.len(), 100);
        assert_eq!(failed, 2 * 12, "each of 12 spills fails twice");
        let mut held = b.tail.clone();
        for block in &b.blocks {
            held.extend((0..3).find_map(|_| block.to_vec().ok()).unwrap());
        }
        held.sort_unstable();
        assert_eq!(held, (0..100).collect::<Vec<_>>());
        drop(b);
        assert_eq!(d.allocated_blocks(), 0);
    }

    #[test]
    fn drop_releases() {
        let d = device();
        {
            let mut b = AppendBuffer::new(d.clone());
            for i in 0..100u64 {
                b.push(i).unwrap();
            }
        }
        assert_eq!(d.allocated_blocks(), 0);
    }
}
