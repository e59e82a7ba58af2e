//! External stack: `O(1/B)` amortized I/Os per operation.
//!
//! The classic warm-up: keep up to `2B` records in memory; when a push
//! overflows, spill the *bottom* `B` buffered records to a disk block; when a
//! pop underflows, reload the most recent block.  Each block is written once
//! and read once per "direction change", so any sequence of `S` operations
//! costs `O(S/B)` I/Os — measured by experiment F8.
//!
//! Each spilled block is a one-block [`ExtVec`]: a reload reads it and then
//! drops it, which frees it, and dropping the stack frees the rest.

use em_core::{ExtVec, Record};
use pdm::{PdmError, Result, SharedDevice};

/// An unbounded LIFO stack of records on a block device, holding at most
/// two blocks of records in memory.
pub struct ExtStack<R: Record> {
    device: SharedDevice,
    /// Spilled blocks, oldest first; each holds exactly `B` records.
    blocks: Vec<ExtVec<R>>,
    /// In-memory tail of the stack (top is the last element), ≤ 2B records.
    buf: Vec<R>,
    per_block: usize,
}

impl<R: Record> ExtStack<R> {
    /// Create an empty stack on `device`.
    ///
    /// Fails with [`PdmError::RecordTooLarge`] if a record does not fit in
    /// one device block (the stack spills whole blocks of records).
    pub fn new(device: SharedDevice) -> Result<Self> {
        let per_block = device.block_size() / R::BYTES;
        if per_block == 0 {
            return Err(PdmError::RecordTooLarge {
                record: R::BYTES,
                block: device.block_size(),
            });
        }
        Ok(ExtStack {
            device,
            blocks: Vec::new(),
            buf: Vec::with_capacity(2 * per_block),
            per_block,
        })
    }

    /// Number of records on the stack.
    pub fn len(&self) -> u64 {
        (self.blocks.len() * self.per_block + self.buf.len()) as u64
    }

    /// True if the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty() && self.buf.is_empty()
    }

    /// Push a record.
    pub fn push(&mut self, r: R) -> Result<()> {
        if self.buf.len() == 2 * self.per_block {
            // Spill the bottom half.
            let bottom = &self.buf[..self.per_block];
            self.blocks
                .push(ExtVec::from_slice(self.device.clone(), bottom)?);
            self.buf.drain(..self.per_block);
        }
        self.buf.push(r);
        Ok(())
    }

    /// Pop the most recently pushed record.
    pub fn pop(&mut self) -> Result<Option<R>> {
        self.refill()?;
        Ok(self.buf.pop())
    }

    /// Peek at the top record.
    pub fn peek(&mut self) -> Result<Option<&R>> {
        self.refill()?;
        Ok(self.buf.last())
    }

    /// With the buffer empty, reload the most recent block and then drop
    /// it; a failed read keeps the block.
    fn refill(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            if let Some(block) = self.blocks.last() {
                block.read_block_into(0, &mut self.buf)?;
                self.blocks.pop();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::EmConfig;

    fn device() -> SharedDevice {
        EmConfig::new(64, 8).ram_disk() // B = 8 u64s
    }

    #[test]
    fn lifo_order() {
        let mut s = ExtStack::new(device()).unwrap();
        for i in 0..100u64 {
            s.push(i).unwrap();
        }
        assert_eq!(s.len(), 100);
        for i in (0..100u64).rev() {
            assert_eq!(s.pop().unwrap(), Some(i));
        }
        assert_eq!(s.pop().unwrap(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut s = ExtStack::new(device()).unwrap();
        let mut model = Vec::new();
        let ops: Vec<i32> = vec![5, -2, 9, -4, 17, -10, 3, -8];
        let mut next = 0u64;
        for op in ops {
            if op > 0 {
                for _ in 0..op {
                    s.push(next).unwrap();
                    model.push(next);
                    next += 1;
                }
            } else {
                for _ in 0..-op {
                    assert_eq!(s.pop().unwrap(), model.pop());
                }
            }
            assert_eq!(s.len() as usize, model.len());
        }
    }

    #[test]
    fn amortized_io_is_one_over_b() {
        let device = device();
        let mut s = ExtStack::new(device.clone()).unwrap();
        let n = 8000u64;
        let before = device.stats().snapshot();
        for i in 0..n {
            s.push(i).unwrap();
        }
        for _ in 0..n {
            s.pop().unwrap().unwrap();
        }
        let d = device.stats().snapshot().since(&before);
        // 2 ops per record, B = 8 → at most 2N/B + slack.
        assert!(
            d.total() <= 2 * n / 8 + 4,
            "stack used {} I/Os for {} ops",
            d.total(),
            2 * n
        );
    }

    #[test]
    fn no_thrashing_at_block_boundary() {
        // Alternating push/pop right at a spill boundary must not incur an
        // I/O per operation (the 2B buffer gives hysteresis).
        let device = device();
        let mut s = ExtStack::new(device.clone()).unwrap();
        for i in 0..16u64 {
            s.push(i).unwrap(); // buffer exactly full (2B = 16)
        }
        let before = device.stats().snapshot();
        for _ in 0..100 {
            s.push(99).unwrap();
            s.pop().unwrap();
        }
        let d = device.stats().snapshot().since(&before);
        assert!(d.total() <= 2, "boundary thrashing: {} I/Os", d.total());
    }

    #[test]
    fn peek_matches_top() {
        let mut s = ExtStack::new(device()).unwrap();
        assert_eq!(s.peek().unwrap(), None);
        for i in 0..50u64 {
            s.push(i).unwrap();
        }
        assert_eq!(s.peek().unwrap(), Some(&49));
        s.pop().unwrap();
        assert_eq!(s.peek().unwrap(), Some(&48));
    }

    #[test]
    fn oversized_record_is_a_typed_error() {
        // Block of 4 bytes cannot hold a u64 record.
        let tiny = EmConfig::new(4, 8).ram_disk();
        match ExtStack::<u64>::new(tiny) {
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
            let mut s = ExtStack::new(device.clone()).unwrap();
            for i in 0..1000u64 {
                s.push(i).unwrap();
            }
            assert!(device.allocated_blocks() > 0);
        }
        assert_eq!(device.allocated_blocks(), 0);
    }
}
