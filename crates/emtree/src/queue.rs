//! External FIFO queue: `O(1/B)` amortized I/Os per operation.
//!
//! Two one-block memory buffers — one at the head (for pops) and one at the
//! tail (for pushes) — plus a chain of full blocks on disk between them.
//! Every record is written at most once and read at most once, so any
//! sequence of `S` operations costs `O(S/B)` I/Os (experiment F8).
//!
//! Each block of the chain is a one-block [`ExtVec`]: a refill of the head
//! reads it and then drops it, which frees it, and dropping the queue frees
//! the rest.

use std::collections::VecDeque;

use em_core::{ExtVec, Record};
use pdm::{PdmError, Result, SharedDevice};

/// An unbounded FIFO queue of records on a block device, holding at most
/// two blocks of records in memory.
pub struct ExtQueue<R: Record> {
    device: SharedDevice,
    /// Full spilled blocks, front of the queue first.
    blocks: VecDeque<ExtVec<R>>,
    /// Records ready to pop (front of queue).
    head: VecDeque<R>,
    /// Records recently pushed (back of queue).
    tail: Vec<R>,
    per_block: usize,
}

impl<R: Record> ExtQueue<R> {
    /// Create an empty queue on `device`.
    ///
    /// Fails with [`PdmError::RecordTooLarge`] if a record does not fit in
    /// one device block (the queue spills whole blocks of records).
    pub fn new(device: SharedDevice) -> Result<Self> {
        let per_block = device.block_size() / R::BYTES;
        if per_block == 0 {
            return Err(PdmError::RecordTooLarge {
                record: R::BYTES,
                block: device.block_size(),
            });
        }
        Ok(ExtQueue {
            device,
            blocks: VecDeque::new(),
            head: VecDeque::new(),
            tail: Vec::with_capacity(per_block),
            per_block,
        })
    }

    /// Number of records in the queue.
    pub fn len(&self) -> u64 {
        (self.blocks.len() * self.per_block + self.head.len() + self.tail.len()) as u64
    }

    /// True if the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a record at the back, spilling the tail buffer once it holds
    /// a full block.
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

    /// Write the full tail buffer as one block.
    fn spill(&mut self) -> Result<()> {
        self.blocks
            .push_back(ExtVec::from_slice(self.device.clone(), &self.tail)?);
        self.tail.clear();
        Ok(())
    }

    /// Remove and return the front record.
    pub fn pop(&mut self) -> Result<Option<R>> {
        self.refill_head()?;
        Ok(self.head.pop_front())
    }

    /// Peek at the front record.
    pub fn peek(&mut self) -> Result<Option<&R>> {
        self.refill_head()?;
        Ok(self.head.front())
    }

    /// With the head empty, reload the front block and then drop it (a
    /// failed read keeps the block), or with no block left take the tail.
    fn refill_head(&mut self) -> Result<()> {
        if !self.head.is_empty() {
            return Ok(());
        }
        if let Some(block) = self.blocks.front() {
            let mut records = Vec::with_capacity(self.per_block);
            block.read_block_into(0, &mut records)?;
            self.head = records.into();
            self.blocks.pop_front();
        } else if !self.tail.is_empty() {
            // No full blocks between head and tail: drain the tail directly.
            self.head.extend(self.tail.drain(..));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::hash::Draws;
    use em_core::EmConfig;

    fn device() -> SharedDevice {
        EmConfig::new(64, 8).ram_disk() // B = 8 u64s
    }

    #[test]
    fn fifo_order() {
        let mut q = ExtQueue::new(device()).unwrap();
        for i in 0..100u64 {
            q.push(i).unwrap();
        }
        for i in 0..100u64 {
            assert_eq!(q.pop().unwrap(), Some(i));
        }
        assert_eq!(q.pop().unwrap(), None);
    }

    #[test]
    fn randomized_against_vecdeque() {
        let mut rng = Draws::new(31);
        let mut q = ExtQueue::new(device()).unwrap();
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut next = 0u64;
        for _ in 0..5000 {
            if rng.unit() < 0.55 || model.is_empty() {
                q.push(next).unwrap();
                model.push_back(next);
                next += 1;
            } else {
                assert_eq!(q.pop().unwrap(), model.pop_front());
            }
            assert_eq!(q.len() as usize, model.len());
        }
        while let Some(expect) = model.pop_front() {
            assert_eq!(q.pop().unwrap(), Some(expect));
        }
    }

    #[test]
    fn amortized_io_is_one_over_b() {
        let device = device();
        let mut q = ExtQueue::new(device.clone()).unwrap();
        let n = 8000u64;
        let before = device.stats().snapshot();
        for i in 0..n {
            q.push(i).unwrap();
        }
        for _ in 0..n {
            q.pop().unwrap().unwrap();
        }
        let d = device.stats().snapshot().since(&before);
        assert!(d.total() <= 2 * n / 8 + 4, "queue used {} I/Os", d.total());
    }

    /// Every block's first two writes and reads fail.  A spill that fails
    /// leaves the tail at one block — the push that filled it took its
    /// record, a push that retried it did not, as `len` tells — and the next
    /// push retries it.  Every record comes out once, in order.
    #[test]
    fn a_failed_spill_keeps_the_tail_at_one_block_and_is_retried() {
        use pdm::{FaultDisk, FaultPlan, RamDisk};
        let plan = FaultPlan::new(5).with_transient(1000, 2);
        let device = FaultDisk::wrap(RamDisk::new(64) as SharedDevice, plan) as SharedDevice;
        let mut q = ExtQueue::new(device.clone()).unwrap();
        let (mut next, mut failed) = (0u64, 0);
        while next < 100 {
            let len = q.len();
            failed += usize::from(q.push(next).is_err());
            assert!(q.tail.len() <= q.per_block, "tail {}", q.tail.len());
            next += q.len() - len;
        }
        assert_eq!(q.len(), 100);
        assert_eq!(failed, 2 * 12, "each of 12 spills fails twice");
        for expect in 0..100u64 {
            let got = (0..3).find_map(|_| q.pop().ok()).flatten();
            assert_eq!(got, Some(expect));
        }
        assert_eq!(q.pop().unwrap(), None);
        assert_eq!(device.allocated_blocks(), 0);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = ExtQueue::new(device()).unwrap();
        assert_eq!(q.peek().unwrap(), None);
        q.push(1u64).unwrap();
        q.push(2u64).unwrap();
        assert_eq!(q.peek().unwrap(), Some(&1));
        assert_eq!(q.peek().unwrap(), Some(&1));
        assert_eq!(q.pop().unwrap(), Some(1));
        assert_eq!(q.peek().unwrap(), Some(&2));
    }

    #[test]
    fn oversized_record_is_a_typed_error() {
        // Block of 4 bytes cannot hold a u64 record.
        let tiny = EmConfig::new(4, 8).ram_disk();
        match ExtQueue::<u64>::new(tiny) {
            Err(PdmError::RecordTooLarge { record, block }) => {
                assert_eq!(record, 8);
                assert_eq!(block, 4);
            }
            Err(e) => panic!("expected RecordTooLarge, got {e}"),
            Ok(_) => panic!("expected RecordTooLarge, got Ok"),
        }
    }

    #[test]
    fn drop_releases_blocks() {
        let device = device();
        {
            let mut q = ExtQueue::new(device.clone()).unwrap();
            for i in 0..1000u64 {
                q.push(i).unwrap();
            }
            assert!(device.allocated_blocks() > 0);
        }
        assert_eq!(device.allocated_blocks(), 0);
    }
}
