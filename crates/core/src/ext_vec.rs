//! Typed external arrays.
//!
//! An [`ExtVec<R>`] is a sequence of `N` records stored across
//! `⌈N/B⌉` device blocks — the universal on-disk container the workspace's
//! algorithms consume and produce.  Access is block-granular: `get`/`set`
//! cost one/two I/Os, [`reader`](ExtVec::reader) streams sequentially at
//! `1/B` I/Os per record, and whole-block reads/writes support algorithms
//! (transpose, distribution) that manage their own blocking.
//!
//! The block-id table (`⌈N/B⌉` ids) lives in internal memory.  This mirrors
//! practice (STXXL and TPIE both keep block maps resident) and is accounted
//! for in DESIGN.md; it is `O(N/B)` words, asymptotically below the `Ω(B)`
//! memory the model already grants.  The block ids are the only per-block
//! metadata an array keeps.
//!
//! An array owns its blocks: it has no `Clone`, only a finished
//! [`ExtVecWriter`] makes one from written blocks, and dropping it frees
//! them.  So whatever holds arrays — a sort's runs, a pass's partitions, an
//! operator's state — frees them on every path, errors included, by being
//! dropped.  [`free`](ExtVec::free) is the same release for a caller that
//! wants a failed free reported.

use std::marker::PhantomData;
use std::sync::Arc;

use pdm::{BlockId, PdmError, Result, SharedDevice};

use crate::budget::MemBudget;
use crate::record::Record;
use crate::stream::{encode_block, ExtVecCursor, ExtVecReader, ExtVecWriter};

/// A typed external array of records on a block device.
pub struct ExtVec<R: Record> {
    device: SharedDevice,
    blocks: Vec<BlockId>,
    len: u64,
    _marker: PhantomData<fn() -> R>,
}

impl<R: Record> ExtVec<R> {
    /// Records per block on `device`.
    pub fn per_block_on(device: &SharedDevice) -> usize {
        let b = device.block_size() / R::BYTES;
        assert!(b >= 1, "record larger than device block");
        b
    }

    /// An empty array on `device`.
    pub fn new(device: SharedDevice) -> Self {
        ExtVec {
            device,
            blocks: Vec::new(),
            len: 0,
            _marker: PhantomData,
        }
    }

    /// Build from an in-memory slice (streams through a one-block writer).
    pub fn from_slice(device: SharedDevice, records: &[R]) -> Result<Self> {
        let mut w = ExtVecWriter::new(device);
        w.extend_from_slice(records)?;
        w.finish()
    }

    /// Allocate an array of `len` zero-encoded records without performing
    /// any I/O (fresh blocks are zeroed by the device).
    pub fn with_len(device: SharedDevice, len: u64) -> Result<Self> {
        let per = Self::per_block_on(&device);
        let nblocks = (len as usize).div_ceil(per);
        let mut blocks = Vec::with_capacity(nblocks);
        for _ in 0..nblocks {
            blocks.push(device.allocate()?);
        }
        Ok(ExtVec {
            device,
            blocks,
            len,
            _marker: PhantomData,
        })
    }

    /// (internal) Assemble from parts; used by the writer.
    pub(crate) fn from_parts(device: SharedDevice, blocks: Vec<BlockId>, len: u64) -> Self {
        ExtVec {
            device,
            blocks,
            len,
            _marker: PhantomData,
        }
    }

    /// Number of records.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the array holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records per block (`B` for this record type and device).
    pub fn per_block(&self) -> usize {
        Self::per_block_on(&self.device)
    }

    /// Number of device blocks backing the array.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The backing device.
    pub fn device(&self) -> &SharedDevice {
        &self.device
    }

    /// (internal) Device block id backing block index `bi`.
    pub(crate) fn block_id(&self, bi: usize) -> BlockId {
        self.blocks[bi]
    }

    /// (internal) Decode the raw bytes of block `bi`, appending its records
    /// to `out` — the one decode loop, whether the bytes came from
    /// [`read_block_into`](Self::read_block_into) or from a reader, which
    /// appends after the records it still holds.
    pub(crate) fn decode_block(&self, bi: usize, bytes: &[u8], out: &mut Vec<R>) {
        let count = self.records_in_block(bi);
        out.extend(
            bytes[..count * R::BYTES]
                .chunks_exact(R::BYTES)
                .map(R::read_from),
        );
    }

    /// Records stored in block index `bi` (the last block may be partial).
    pub(crate) fn records_in_block(&self, bi: usize) -> usize {
        let per = self.per_block() as u64;
        let start = bi as u64 * per;
        assert!(
            start < self.len || (self.len == 0 && bi == 0),
            "block index out of range"
        );
        ((self.len - start).min(per)) as usize
    }

    /// Random-access read of record `idx`.  Costs one I/O; an index past
    /// the end is [`PdmError::InvalidRequest`], before any I/O.
    pub fn get(&self, idx: u64) -> Result<R> {
        self.check_index(idx)?;
        let per = self.per_block() as u64;
        let (bi, off) = ((idx / per) as usize, (idx % per) as usize);
        let buf = self.read(bi, self.block_buf())?;
        Ok(R::read_from(&buf[off * R::BYTES..(off + 1) * R::BYTES]))
    }

    /// Random-access overwrite of record `idx`.  Costs two I/Os
    /// (read-modify-write of the containing block); an index past the end
    /// is [`PdmError::InvalidRequest`], before any I/O.
    pub fn set(&self, idx: u64, value: &R) -> Result<()> {
        self.check_index(idx)?;
        let per = self.per_block() as u64;
        let (bi, off) = ((idx / per) as usize, (idx % per) as usize);
        let mut buf = self.read(bi, self.block_buf())?;
        value.write_to(&mut buf[off * R::BYTES..(off + 1) * R::BYTES]);
        self.device.write_block(self.blocks[bi], &buf)
    }

    /// Read the records of block `bi` into `out` (cleared first).
    /// Costs one I/O.
    pub fn read_block_into(&self, bi: usize, out: &mut Vec<R>) -> Result<()> {
        let buf = self.read(bi, self.block_buf())?;
        out.clear();
        self.decode_block(bi, &buf, out);
        Ok(())
    }

    /// Overwrite block `bi` with `records`, as many as the block holds (`B`,
    /// or the rest of the array in the last block; any other count is
    /// [`PdmError::InvalidRequest`], before any I/O).  Costs one I/O.
    pub fn write_block(&self, bi: usize, records: &[R]) -> Result<()> {
        let want = self.records_in_block(bi);
        if records.len() != want {
            return Err(PdmError::InvalidRequest(format!(
                "wrong record count for block {bi}: {} (it holds {want})",
                records.len()
            )));
        }
        let mut buf = self.block_buf();
        encode_block(records, &mut buf);
        self.device.write_block(self.blocks[bi], &buf)
    }

    /// Read `count` records starting at record `start` into `out` (cleared
    /// first).  Costs one I/O per touched block:
    /// `⌈(start+count)/B⌉ − ⌊start/B⌋`.  A range past the end is
    /// [`PdmError::InvalidRequest`], before any I/O.
    pub fn read_range(&self, start: u64, count: usize, out: &mut Vec<R>) -> Result<()> {
        self.check_range(start, count)?;
        out.clear();
        if count == 0 {
            return Ok(());
        }
        out.reserve(count);
        let per = self.per_block() as u64;
        let first_block = (start / per) as usize;
        let last_block = ((start + count as u64 - 1) / per) as usize;
        let mut buf = self.block_buf();
        for bi in first_block..=last_block {
            buf = self.read(bi, buf)?;
            let block_start = bi as u64 * per;
            let lo = start.max(block_start) - block_start;
            let hi = (start + count as u64).min(block_start + per) - block_start;
            for i in lo..hi {
                let i = i as usize;
                out.push(R::read_from(&buf[i * R::BYTES..(i + 1) * R::BYTES]));
            }
        }
        Ok(())
    }

    /// Overwrite `records.len()` records starting at `start`.  Fully covered
    /// blocks are written with one I/O; partially covered edge blocks incur a
    /// read-modify-write (one extra read each).  A range past the end is
    /// [`PdmError::InvalidRequest`], before any I/O.
    pub fn write_range(&self, start: u64, records: &[R]) -> Result<()> {
        self.check_range(start, records.len())?;
        if records.is_empty() {
            return Ok(());
        }
        let per = self.per_block() as u64;
        let end = start + records.len() as u64;
        let first_block = (start / per) as usize;
        let last_block = ((end - 1) / per) as usize;
        let mut buf = self.block_buf();
        for bi in first_block..=last_block {
            let block_start = bi as u64 * per;
            let block_records = self.records_in_block(bi) as u64;
            let lo = start.max(block_start);
            let hi = end.min(block_start + per);
            let covers_whole_block = lo == block_start && hi - block_start >= block_records;
            if !covers_whole_block {
                buf = self.read(bi, buf)?;
            }
            for i in lo..hi {
                let r = &records[(i - start) as usize];
                let off = (i - block_start) as usize;
                r.write_to(&mut buf[off * R::BYTES..(off + 1) * R::BYTES]);
            }
            self.device.write_block(self.blocks[bi], &buf)?;
        }
        Ok(())
    }

    /// Sequential reader from the first record.
    pub fn reader(&self) -> ExtVecReader<'_, R> {
        ExtVecReader::new(self, 0)
    }

    /// Sequential reader starting at record `start` (at most
    /// [`len`](Self::len), where it reads nothing).  A `start` past the end
    /// is [`PdmError::InvalidRequest`], before any I/O.
    pub fn reader_at(&self, start: u64) -> Result<ExtVecReader<'_, R>> {
        self.check_range(start, 0)?;
        Ok(ExtVecReader::new(self, start))
    }

    /// Sequential reader that keeps up to `depth` blocks of read-ahead in
    /// flight, charged against `budget` with
    /// [`try_charge`](MemBudget::try_charge) (the depth degrades — possibly
    /// to 0, i.e. a plain reader — if the budget is short).  The reads issued
    /// are exactly those of [`reader`](Self::reader), merely submitted early.
    pub fn reader_prefetch(&self, depth: usize, budget: &Arc<MemBudget>) -> ExtVecReader<'_, R> {
        ExtVecReader::with_prefetch(self, 0, depth, budget)
    }

    /// Prefetching reader starting at record `start`; see
    /// [`reader_prefetch`](Self::reader_prefetch).  A `start` past the end
    /// is [`PdmError::InvalidRequest`], before any I/O or charge.
    pub fn reader_at_prefetch(
        &self,
        start: u64,
        depth: usize,
        budget: &Arc<MemBudget>,
    ) -> Result<ExtVecReader<'_, R>> {
        self.check_range(start, 0)?;
        Ok(ExtVecReader::with_prefetch(self, start, depth, budget))
    }

    /// Turn the array into an owning sequential reader — a reader that can
    /// be stored in operator state and [`rewind`](ExtVecCursor::rewind).
    /// It owns the blocks now: dropping the cursor frees them, and
    /// [`into_inner`](ExtVecCursor::into_inner) gives the array back.
    /// Demand reads only until
    /// [`set_read_ahead`](ExtVecCursor::set_read_ahead) says otherwise.
    pub fn into_cursor(self) -> ExtVecCursor<R> {
        ExtVecCursor::new(self, 0)
    }

    /// Load the whole array into memory.  **Test/verification helper** — it
    /// deliberately ignores the memory budget.
    pub fn to_vec(&self) -> Result<Vec<R>> {
        let mut out = Vec::with_capacity(self.len as usize);
        let mut block = Vec::new();
        for bi in 0..self.num_blocks() {
            self.read_block_into(bi, &mut block)?;
            out.append(&mut block);
        }
        Ok(out)
    }

    /// Release all backing blocks now and report a failed free — what
    /// dropping the array does, for a caller that wants the error.
    pub fn free(mut self) -> Result<()> {
        self.release()
    }

    /// Free the blocks, moved out first so that nothing is freed twice.
    fn release(&mut self) -> Result<()> {
        std::mem::take(&mut self.blocks)
            .into_iter()
            .try_for_each(|id| self.device.free(id))
    }

    fn check_index(&self, idx: u64) -> Result<()> {
        if idx < self.len {
            Ok(())
        } else {
            Err(PdmError::InvalidRequest(format!(
                "index {idx} out of range (len {})",
                self.len
            )))
        }
    }

    fn check_range(&self, start: u64, count: usize) -> Result<()> {
        match start.checked_add(count as u64) {
            Some(end) if end <= self.len => Ok(()),
            _ => Err(PdmError::InvalidRequest(format!(
                "range {start}+{count} out of bounds (len {})",
                self.len
            ))),
        }
    }

    /// Read block `bi` into `buf`, handed to the device and back.
    fn read(&self, bi: usize, buf: Box<[u8]>) -> Result<Box<[u8]>> {
        let (buf, res) = self.device.submit_read(self.blocks[bi], buf).wait();
        res.map(|()| buf)
    }

    fn block_buf(&self) -> Box<[u8]> {
        vec![0u8; self.device.block_size()].into_boxed_slice()
    }
}

/// Dropping an array frees its blocks; a `Drop` has nowhere to report a
/// failed free, so a caller that wants the error calls [`ExtVec::free`].
impl<R: Record> Drop for ExtVec<R> {
    fn drop(&mut self) {
        let _ = self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EmConfig;

    fn dev() -> SharedDevice {
        EmConfig::new(64, 4).ram_disk() // 8 u64s per block
    }

    #[test]
    fn from_slice_round_trips() {
        let data: Vec<u64> = (0..100).collect();
        let v = ExtVec::from_slice(dev(), &data).unwrap();
        assert_eq!(v.len(), 100);
        assert_eq!(v.num_blocks(), 13);
        assert_eq!(v.to_vec().unwrap(), data);
    }

    #[test]
    fn get_and_set() {
        let data: Vec<u64> = (0..20).collect();
        let v = ExtVec::from_slice(dev(), &data).unwrap();
        assert_eq!(v.get(0).unwrap(), 0);
        assert_eq!(v.get(19).unwrap(), 19);
        v.set(7, &777).unwrap();
        assert_eq!(v.get(7).unwrap(), 777);
        assert_eq!(v.get(6).unwrap(), 6, "neighbours untouched");
        assert_eq!(v.get(8).unwrap(), 8);
    }

    #[test]
    fn get_costs_one_io_set_costs_two() {
        let device = dev();
        let v = ExtVec::from_slice(device.clone(), &(0u64..64).collect::<Vec<_>>()).unwrap();
        let before = device.stats().snapshot();
        v.get(33).unwrap();
        let after_get = device.stats().snapshot();
        assert_eq!(after_get.since(&before).total(), 1);
        v.set(33, &1).unwrap();
        let after_set = device.stats().snapshot();
        assert_eq!(after_set.since(&after_get).total(), 2);
    }

    #[test]
    fn partial_last_block() {
        let v = ExtVec::from_slice(dev(), &(0u64..10).collect::<Vec<_>>()).unwrap();
        assert_eq!(v.records_in_block(0), 8);
        assert_eq!(v.records_in_block(1), 2);
        let mut out = Vec::new();
        v.read_block_into(1, &mut out).unwrap();
        assert_eq!(out, vec![8, 9]);
    }

    #[test]
    fn write_block_replaces_contents() {
        let v = ExtVec::from_slice(dev(), &(0u64..16).collect::<Vec<_>>()).unwrap();
        v.write_block(1, &[90, 91, 92, 93, 94, 95, 96, 97]).unwrap();
        assert_eq!(v.to_vec().unwrap()[8..], [90, 91, 92, 93, 94, 95, 96, 97]);
    }

    #[test]
    fn write_block_of_the_wrong_size_is_a_typed_error() {
        let device = dev();
        let v = ExtVec::from_slice(device.clone(), &(0u64..16).collect::<Vec<_>>()).unwrap();
        let before = device.stats().snapshot();
        let got = v.write_block(0, &[1, 2, 3]);
        assert!(matches!(got, Err(PdmError::InvalidRequest(_))), "{got:?}");
        assert_eq!(device.stats().snapshot().since(&before).total(), 0);
        assert_eq!(v.to_vec().unwrap(), (0..16).collect::<Vec<u64>>());
    }

    #[test]
    fn with_len_is_zeroed_and_costs_no_io() {
        let device = dev();
        let before = device.stats().snapshot();
        let v: ExtVec<u64> = ExtVec::with_len(device.clone(), 30).unwrap();
        assert_eq!(device.stats().snapshot().since(&before).total(), 0);
        assert_eq!(v.len(), 30);
        assert!(v.to_vec().unwrap().iter().all(|&x| x == 0));
    }

    #[test]
    fn free_releases_blocks() {
        let device = dev();
        let v = ExtVec::from_slice(device.clone(), &(0u64..64).collect::<Vec<_>>()).unwrap();
        assert_eq!(device.allocated_blocks(), 8);
        v.free().unwrap();
        assert_eq!(device.allocated_blocks(), 0);
    }

    #[test]
    fn get_or_set_out_of_range_is_a_typed_error() {
        let device = dev();
        let v = ExtVec::from_slice(device.clone(), &[1u64, 2, 3]).unwrap();
        let before = device.stats().snapshot();
        let got = v.get(3);
        assert!(matches!(got, Err(PdmError::InvalidRequest(_))), "{got:?}");
        let set = v.set(3, &9);
        assert!(matches!(set, Err(PdmError::InvalidRequest(_))), "{set:?}");
        assert_eq!(device.stats().snapshot().since(&before).total(), 0);
    }

    #[test]
    fn empty_vec() {
        let v: ExtVec<u64> = ExtVec::new(dev());
        assert!(v.is_empty());
        assert_eq!(v.num_blocks(), 0);
        assert_eq!(v.to_vec().unwrap(), Vec::<u64>::new());
    }
}

#[cfg(test)]
mod range_tests {
    use super::*;
    use crate::EmConfig;

    fn dev() -> SharedDevice {
        EmConfig::new(64, 4).ram_disk() // 8 u64s per block
    }

    #[test]
    fn read_range_contents_and_cost() {
        let device = dev();
        let v = ExtVec::from_slice(device.clone(), &(0u64..40).collect::<Vec<_>>()).unwrap();
        let mut out = Vec::new();
        let before = device.stats().snapshot();
        v.read_range(5, 10, &mut out).unwrap(); // spans blocks 0 and 1
        assert_eq!(out, (5..15).collect::<Vec<u64>>());
        assert_eq!(device.stats().snapshot().since(&before).reads(), 2);
        v.read_range(8, 8, &mut out).unwrap(); // exactly block 1
        assert_eq!(out, (8..16).collect::<Vec<u64>>());
        v.read_range(0, 0, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn write_range_full_blocks_skip_read() {
        let device = dev();
        let v: ExtVec<u64> = ExtVec::with_len(device.clone(), 40).unwrap();
        let before = device.stats().snapshot();
        // records 8..24 = blocks 1 and 2 fully covered
        v.write_range(8, &(100u64..116).collect::<Vec<_>>())
            .unwrap();
        let d = device.stats().snapshot().since(&before);
        assert_eq!(d.writes(), 2);
        assert_eq!(d.reads(), 0, "fully covered blocks need no read");
        assert_eq!(
            v.to_vec().unwrap()[8..24],
            (100..116).collect::<Vec<u64>>()[..]
        );
    }

    #[test]
    fn write_range_partial_edges_rmw() {
        let device = dev();
        let v = ExtVec::from_slice(device.clone(), &(0u64..24).collect::<Vec<_>>()).unwrap();
        let before = device.stats().snapshot();
        v.write_range(5, &[50, 51, 52, 53, 54, 55]).unwrap(); // spans blocks 0,1 partially
        let d = device.stats().snapshot().since(&before);
        assert_eq!(d.reads(), 2, "both edge blocks RMW");
        assert_eq!(d.writes(), 2);
        let all = v.to_vec().unwrap();
        assert_eq!(all[4], 4);
        assert_eq!(all[5..11], [50, 51, 52, 53, 54, 55]);
        assert_eq!(all[11], 11);
    }

    #[test]
    fn write_range_partial_last_block_of_vec() {
        let device = dev();
        let v = ExtVec::from_slice(device.clone(), &(0u64..10).collect::<Vec<_>>()).unwrap();
        // block 1 holds records 8..10; covering both is "whole block"
        let before = device.stats().snapshot();
        v.write_range(8, &[80, 90]).unwrap();
        let d = device.stats().snapshot().since(&before);
        assert_eq!(d.reads(), 0);
        assert_eq!(v.to_vec().unwrap()[8..], [80, 90]);
    }

    #[test]
    fn a_range_out_of_bounds_is_a_typed_error() {
        let device = dev();
        let v = ExtVec::from_slice(device.clone(), &[1u64, 2, 3]).unwrap();
        let before = device.stats().snapshot();
        let mut out = Vec::new();
        for got in [
            v.read_range(2, 2, &mut out),
            v.read_range(u64::MAX, 1, &mut out),
            v.write_range(2, &[7, 8]),
        ] {
            assert!(matches!(got, Err(PdmError::InvalidRequest(_))), "{got:?}");
        }
        assert_eq!(device.stats().snapshot().since(&before).total(), 0);
        assert_eq!(v.to_vec().unwrap(), [1, 2, 3]);
    }
}
