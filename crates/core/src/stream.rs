//! Buffered sequential streams over external arrays.
//!
//! A reader or writer holds **one block** of records in memory, so a
//! `k`-way merge with one output stream holds `(k+1)·B` records — the
//! accounting that gives merge sort its `Θ(M/B)` fan-in.  Callers charge
//! these buffers against their [`MemBudget`](crate::MemBudget).  (A reader
//! asked to run across a block's end also keeps the previous block's last
//! few records; the caller that asks accounts for them.)
//!
//! Both streams optionally *overlap* their I/O with the caller's
//! computation: a reader built with
//! [`ExtVec::reader_prefetch`](crate::ExtVec::reader_prefetch) keeps up to
//! `k` read-ahead blocks in flight via
//! [`BlockDevice::submit_read`](pdm::BlockDevice::submit_read), and a writer
//! built with [`ExtVecWriter::with_write_behind`] retires full blocks
//! asynchronously instead of blocking on each flush.  The extra buffers are
//! charged against the [`MemBudget`](crate::MemBudget) with
//! [`try_charge`](crate::MemBudget::try_charge), so the depth silently
//! degrades (down to the synchronous depth 0) rather than exceeding `M`.
//! Overlap never changes *which* transfers happen — a prefetched block is
//! exactly the read the reader was about to issue — so block-transfer counts
//! are identical to the synchronous path.
//!
//! There is one reader implementation, [`BlockReader`], generic over how it
//! holds its array: [`ExtVecReader`] borrows it, [`ExtVecCursor`] owns it
//! (and can therefore live inside an operator's state across calls and
//! rewind; dropping it frees the array).

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::sync::Arc;

use pdm::{BlockId, IoTicket, Result, SharedDevice};

use crate::budget::{BudgetGuard, MemBudget};
use crate::ext_vec::ExtVec;
use crate::record::Record;

/// Encode `records` into `out`, zeroing the tail of a partial block so the
/// encoding is deterministic.
pub(crate) fn encode_block<R: Record>(records: &[R], out: &mut [u8]) {
    let (live, tail) = out.split_at_mut(records.len() * R::BYTES);
    for (r, at) in records.iter().zip(live.chunks_exact_mut(R::BYTES)) {
        r.write_to(at);
    }
    tail.fill(0);
}

/// Charge `depth` blocks of `per_block` records against `budget`, degrading
/// to the largest depth that fits (possibly 0).
fn charge_overlap(
    budget: &Arc<MemBudget>,
    depth: usize,
    per_block: usize,
) -> (usize, Option<BudgetGuard>) {
    let reserve = budget.try_charge_units(depth, per_block);
    (
        reserve.as_ref().map_or(0, |g| g.records() / per_block),
        reserve,
    )
}

/// Streaming writer: buffers one block, flushing when full — encoded into a
/// reused buffer, submitted and queued; write-behind only lets up to `depth`
/// writes stay queued.  A whole block handed over in a slice while the
/// buffer is empty is encoded from the slice itself.  Costs `⌈N/B⌉` write
/// I/Os to emit `N` records.
///
/// **Metadata follows data.**  A block's id is appended to the array's
/// block map only once the device has confirmed the block written — never
/// before.  A failed write, at once or behind, keeps its id and bytes at
/// the head of the queue and returns `Err`; the writer's next write, from
/// [`push`](Self::push), [`extend_from_slice`](Self::extend_from_slice) or
/// [`finish`](Self::finish), first rewrites those bytes to the same
/// already-allocated block (which is exactly the repair a torn write needs).
pub struct ExtVecWriter<R: Record> {
    device: SharedDevice,
    blocks: Vec<BlockId>,
    buf: Vec<R>,
    per_block: usize,
    len: u64,
    /// Writes that may stay queued after a flush; 0 = synchronous.
    depth: usize,
    /// Block writes, oldest first, each with the block it fills.
    queue: VecDeque<(BlockId, Write)>,
    /// Encode buffers back from completed writes, ready for reuse.
    spare: Vec<Box<[u8]>>,
    /// Budget charge covering the write-behind buffers.
    _reserve: Option<BudgetGuard>,
}

/// A queued block write: `Ok` in flight, `Err` failed and holding its
/// bytes until rewritten.
type Write = std::result::Result<IoTicket, Box<[u8]>>;

impl<R: Record> ExtVecWriter<R> {
    /// Start writing a new external array on `device`.
    pub fn new(device: SharedDevice) -> Self {
        let per_block = ExtVec::<R>::per_block_on(&device);
        let encode = vec![0u8; device.block_size()].into_boxed_slice();
        ExtVecWriter {
            device,
            blocks: Vec::new(),
            buf: Vec::with_capacity(per_block),
            per_block,
            len: 0,
            depth: 0,
            queue: VecDeque::new(),
            spare: vec![encode],
            _reserve: None,
        }
    }

    /// Start a writer that retires up to `depth` full blocks asynchronously
    /// (write-behind), charging the extra buffers against `budget`.
    ///
    /// The depth degrades to whatever the budget has room for; with no room
    /// (or `depth == 0`) the writer behaves exactly like [`new`](Self::new).
    /// [`finish`](Self::finish) waits for every outstanding write, so the
    /// returned array is always fully durable.
    pub fn with_write_behind(device: SharedDevice, depth: usize, budget: &Arc<MemBudget>) -> Self {
        let mut w = Self::new(device);
        let (granted, reserve) = charge_overlap(budget, depth, w.per_block);
        w.depth = granted;
        w._reserve = reserve;
        w
    }

    /// Records written so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records per block (`B`).
    pub fn per_block(&self) -> usize {
        self.per_block
    }

    /// Append one record, flushing a full buffer to a fresh block.
    ///
    /// An `Err` means a block write failed; the record itself was accepted,
    /// and the next block write rewrites the failed block in place first.
    /// The one exception is a buffer still full from a flush that could not
    /// allocate its block: it is flushed before the record is taken, and if
    /// that fails again the record is not ([`len`](Self::len) tells).
    pub fn push(&mut self, r: R) -> Result<()> {
        if self.buf.len() >= self.per_block {
            // A flush could not allocate its block; retry it first.
            self.flush_buf(self.depth)?;
        }
        self.buf.push(r);
        self.len += 1;
        if self.buf.len() == self.per_block {
            self.flush_buf(self.depth)?;
        }
        Ok(())
    }

    /// Append `records` in order — [`push`](Self::push) for a slice already
    /// in hand, moved a block at a time: the same blocks flushed at the same
    /// points, the same metadata-follows-data and repair-in-place behaviour.
    /// A whole block of `records` met with the buffer empty is encoded
    /// straight from the slice, never copied into the buffer.
    ///
    /// An `Err` means a block write failed; [`len`](Self::len) says how many
    /// of `records` were accepted before it (the rest were not), and the
    /// next block write rewrites the failed block in place first.  A block
    /// that could not be allocated accepts none of its records; one whose
    /// write failed accepts them all.
    pub fn extend_from_slice(&mut self, mut records: &[R]) -> Result<()> {
        while !records.is_empty() {
            if self.buf.len() >= self.per_block {
                // A flush could not allocate its block; retry it first.
                self.flush_buf(self.depth)?;
            }
            if self.buf.is_empty() && records.len() >= self.per_block {
                let (block, rest) = records.split_at(self.per_block);
                let (id, mut bytes) = self.next_block()?;
                encode_block(block, &mut bytes);
                self.len += block.len() as u64;
                records = rest;
                self.submit(id, bytes, self.depth)?;
                continue;
            }
            let take = (self.per_block - self.buf.len()).min(records.len());
            self.buf.extend_from_slice(&records[..take]);
            self.len += take as u64;
            records = &records[take..];
            if self.buf.len() == self.per_block {
                self.flush_buf(self.depth)?;
            }
        }
        Ok(())
    }

    /// Finish, flushing any partial block and waiting out all queued
    /// writes, and return the completed array, which takes over every
    /// block.  A write that fails while `finish` waits for it is submitted
    /// once more before the error is returned; the writer, dropped with
    /// the error, frees its blocks.
    pub fn finish(mut self) -> Result<ExtVec<R>> {
        if !self.buf.is_empty() {
            self.flush_buf(usize::MAX)?; // waited on below
        }
        while !self.queue.is_empty() {
            if self.retire(self.queue.len() - 1).is_err() {
                self.retire(self.queue.len() - 1)?;
            }
        }
        let blocks = std::mem::take(&mut self.blocks);
        Ok(ExtVec::from_parts(self.device.clone(), blocks, self.len))
    }

    /// Encode the buffered records into the next block and submit it,
    /// retiring down to `keep` queued writes.
    fn flush_buf(&mut self, keep: usize) -> Result<()> {
        let (id, mut bytes) = self.next_block()?;
        encode_block(&self.buf, &mut bytes);
        self.buf.clear();
        self.submit(id, bytes, keep)
    }

    /// Rewrite a failed write heading the queue, then allocate a fresh block
    /// and take a reused buffer to encode it in.
    fn next_block(&mut self) -> Result<(BlockId, Box<[u8]>)> {
        if let Some((_, Err(_))) = self.queue.front() {
            self.retire(self.queue.len() - 1)?;
        }
        let id = self.device.allocate()?;
        let bytes = self
            .spare
            .pop()
            .unwrap_or_else(|| vec![0u8; self.device.block_size()].into_boxed_slice());
        Ok((id, bytes))
    }

    /// Queue the write of the encoded block `id` and retire down to `keep`
    /// queued.
    fn submit(&mut self, id: BlockId, bytes: Box<[u8]>, keep: usize) -> Result<()> {
        self.queue
            .push_back((id, Ok(self.device.submit_write(id, bytes))));
        self.retire(keep)
    }

    /// Wait out the oldest writes until at most `keep` are queued, entering
    /// each completed block in the block map; a failed write met at the head
    /// is rewritten first.  A write that fails goes back to the head.
    fn retire(&mut self, keep: usize) -> Result<()> {
        while self.queue.len() > keep {
            let Some((id, write)) = self.queue.pop_front() else {
                break;
            };
            let ticket = write.unwrap_or_else(|bytes| self.device.submit_write(id, bytes));
            let (bytes, res) = ticket.wait();
            if let Err(e) = res {
                self.queue.push_front((id, Err(bytes)));
                return Err(e);
            }
            self.blocks.push(id);
            self.spare.push(bytes);
        }
        Ok(())
    }
}

/// A writer dropped unfinished frees every block it allocated: the ones in
/// its block map, and the queued ones once their writes have completed — a
/// dropped ticket does not cancel its write, which could otherwise land in
/// the id's next owner.
impl<R: Record> Drop for ExtVecWriter<R> {
    fn drop(&mut self) {
        for (id, write) in self.queue.drain(..) {
            if let Ok(ticket) = write {
                let _ = ticket.wait();
            }
            self.blocks.push(id);
        }
        for id in self.blocks.drain(..) {
            let _ = self.device.free(id);
        }
    }
}

/// Streaming reader: buffers one block, refilling as it advances — or, for
/// a caller that asks ([`buffered_at_least`](Self::buffered_at_least)),
/// the records left of one block in front of the next.
///
/// Costs `⌈N/B⌉` read I/Os to consume `N` records.  With read-ahead (see
/// [`ExtVec::reader_prefetch`](crate::ExtVec::reader_prefetch) and
/// [`set_read_ahead`](Self::set_read_ahead)) the same reads are merely
/// *submitted early*; a reader dropped (or rewound) before exhausting the
/// array records any unconsumed in-flight blocks as
/// [`prefetch_wasted`](pdm::IoSnapshot::prefetch_wasted).
///
/// `V` is how the reader holds its array — use the aliases: the borrowing
/// [`ExtVecReader`] or the owning [`ExtVecCursor`].  Both are this one
/// implementation, monomorphized.
pub struct BlockReader<V: Borrow<ExtVec<R>>, R: Record> {
    vec: V,
    buf: Vec<R>,
    pos: usize,
    consumed: u64,
    /// Maximum read-ahead depth; 0 = demand reads only.
    depth: usize,
    /// In-flight prefetches, in block order: (block index, ticket).
    pending: VecDeque<(usize, IoTicket)>,
    /// Next block index to prefetch.
    next_fetch: usize,
    /// Consumed prefetch buffers ready for reuse.
    spare: Vec<Box<[u8]>>,
    /// Budget charge covering the read-ahead buffers.
    _reserve: Option<BudgetGuard>,
}

/// The array behind a reader's handle, borrowing only that field (so the
/// record buffer beside it stays mutably borrowable).
#[inline(always)]
fn arr<V: Borrow<ExtVec<R>>, R: Record>(vec: &V) -> &ExtVec<R> {
    vec.borrow()
}

/// Sequential reader borrowing its array — what
/// [`ExtVec::reader`](crate::ExtVec::reader) and its siblings return.
pub type ExtVecReader<'a, R> = BlockReader<&'a ExtVec<R>, R>;

/// Sequential reader *owning* its array
/// ([`ExtVec::into_cursor`](crate::ExtVec::into_cursor)): the restartable
/// read path for operator state that must outlive one call.
/// [`rewind`](BlockReader::rewind) restarts the scan (paying the reads
/// again — that re-read *is* a block-nested loop's cost) and
/// [`into_inner`](BlockReader::into_inner) hands the array back.
pub type ExtVecCursor<R> = BlockReader<ExtVec<R>, R>;

impl<R: Record> ExtVecCursor<R> {
    /// Stop reading and take the array back (any read-ahead still in flight
    /// is recorded as wasted).
    pub fn into_inner(mut self) -> ExtVec<R> {
        let empty = ExtVec::new(arr(&self.vec).device().clone());
        std::mem::replace(&mut self.vec, empty)
    }
}

impl<V: Borrow<ExtVec<R>>, R: Record> BlockReader<V, R> {
    /// A reader from record `start`, which its callers have checked is at
    /// most the array's length.
    pub(crate) fn new(vec: V, start: u64) -> Self {
        debug_assert!(start <= arr(&vec).len(), "start beyond end");
        // The buffer starts empty; `fill` lazily loads the block that
        // `consumed` points into on first access.
        BlockReader {
            vec,
            buf: Vec::new(),
            pos: 0,
            consumed: start,
            depth: 0,
            pending: VecDeque::new(),
            next_fetch: 0,
            spare: Vec::new(),
            _reserve: None,
        }
    }

    pub(crate) fn with_prefetch(vec: V, start: u64, depth: usize, budget: &Arc<MemBudget>) -> Self {
        let mut r = Self::new(vec, start);
        r.set_read_ahead(depth, budget);
        r.next_fetch = (start / arr(&r.vec).per_block() as u64) as usize;
        // Prime the pipeline immediately so the first `fill` already
        // overlaps with whatever the caller does before consuming.  A reader
        // with nothing left must not submit reads the synchronous path never
        // would (start == len can still point into the last partial block).
        if r.remaining() > 0 {
            r.top_up();
        }
        r
    }

    /// Switch this reader to keep up to `depth` blocks of read-ahead in
    /// flight from its next block boundary on, charging the buffers against
    /// `budget` (the depth degrades to what fits, possibly 0; a previous
    /// charge is released first).  Nothing is submitted here — the first
    /// `fill` after the switch submits the block it needs together with its
    /// successors — so a reader that is switched but never pulled costs no
    /// transfer the plain reader would not make.
    pub fn set_read_ahead(&mut self, depth: usize, budget: &Arc<MemBudget>) {
        self._reserve = None;
        let (granted, reserve) = charge_overlap(budget, depth, arr(&self.vec).per_block());
        self.depth = granted;
        self._reserve = reserve;
    }

    /// Restart from the first record.  Read-ahead still in flight is
    /// abandoned (and recorded as wasted); a reader rewound at the end of
    /// its array has none.
    pub fn rewind(&mut self) {
        self.abandon_pending();
        self.buf.clear();
        self.pos = 0;
        self.consumed = 0;
        self.next_fetch = 0;
    }

    /// The array being read.
    pub fn source(&self) -> &ExtVec<R> {
        arr(&self.vec)
    }

    /// Records not yet returned.
    pub fn remaining(&self) -> u64 {
        arr(&self.vec).len() - self.consumed
    }

    /// Consume and return the next record.
    #[inline]
    pub fn try_next(&mut self) -> Result<Option<R>> {
        // The buffer holds only live records (a partial last block decodes
        // short), so the end of the array is checked at block boundaries.
        if self.pos >= self.buf.len() {
            if self.remaining() == 0 {
                return Ok(None);
            }
            self.fill()?;
        }
        let r = self.buf[self.pos].clone();
        self.pos += 1;
        self.consumed += 1;
        Ok(Some(r))
    }

    /// Consume up to `max` records, appending them to `out`; returns how many
    /// (fewer than `max` only at the end of the array).  This is
    /// [`try_next`](Self::try_next) in a loop, moved a block at a time: what
    /// is left of the buffered block, then whole blocks decoded straight
    /// into `out` — the same reads in the same order, with the same
    /// read-ahead top-ups.  On `Err`, the records read before the failed
    /// block are in `out` and consumed.
    pub fn read_into(&mut self, out: &mut Vec<R>, max: usize) -> Result<usize> {
        let per = arr(&self.vec).per_block() as u64;
        let mut taken = 0;
        while taken < max {
            if self.pos >= self.buf.len() {
                if self.remaining() == 0 {
                    break;
                }
                let bi = (self.consumed / per) as usize;
                let whole = arr(&self.vec).records_in_block(bi);
                if self.consumed.is_multiple_of(per) && whole <= max - taken {
                    // The caller takes the whole block: decode it into `out`.
                    self.fetch(bi, |r, bytes| arr(&r.vec).decode_block(bi, bytes, out))?;
                    self.consumed += whole as u64;
                    taken += whole;
                    continue;
                }
                self.fill()?;
            }
            let take = (self.buf.len() - self.pos).min(max - taken);
            out.extend_from_slice(&self.buf[self.pos..self.pos + take]);
            self.pos += take;
            self.consumed += take as u64;
            taken += take;
        }
        Ok(taken)
    }

    /// The buffered records not yet consumed, reading the next block first
    /// when fewer than `n` are left and the array has more: the records
    /// left stay in front of it, so with `n > 1` the slice can run across a
    /// block's end.  One block is appended at most.  With `n = 1` this is
    /// the read [`try_next`](Self::try_next) makes when the block is spent,
    /// with the same read-ahead top-up; a larger `n` makes that read
    /// earlier, and a caller that consumes the whole array reads every
    /// block once, in order.  Empty only at the end of the array.  Pairs
    /// with [`consume`](Self::consume), for callers that take records a
    /// slice at a time.
    #[inline]
    pub fn buffered_at_least(&mut self, n: usize) -> Result<&[R]> {
        let held = self.buf.len() - self.pos;
        if held < n && self.remaining() > held as u64 {
            self.fill()?;
        }
        Ok(&self.buf[self.pos..])
    }

    /// Consume the first `n` records of the
    /// [`buffered_at_least`](Self::buffered_at_least) slice (at most all of
    /// it: a larger `n` is clamped).  Costs no I/O.
    #[inline]
    pub fn consume(&mut self, n: usize) {
        let n = n.min(self.buf.len().saturating_sub(self.pos));
        self.pos += n;
        self.consumed += n as u64;
    }

    /// Keep `depth` sequential blocks in flight.
    fn top_up(&mut self) {
        let nblocks = arr(&self.vec).num_blocks();
        while self.pending.len() < self.depth && self.next_fetch < nblocks {
            let buf = self.spare_buf();
            let ticket = arr(&self.vec)
                .device()
                .submit_read(arr(&self.vec).block_id(self.next_fetch), buf);
            arr(&self.vec).device().stats().record_prefetch();
            self.pending.push_back((self.next_fetch, ticket));
            self.next_fetch += 1;
        }
    }

    /// Forget the in-flight prefetches.  They still execute (and count) on
    /// the device even though nobody will consume them; make that
    /// observable.
    fn abandon_pending(&mut self) {
        if !self.pending.is_empty() {
            arr(&self.vec)
                .device()
                .stats()
                .record_prefetch_wasted(self.pending.len() as u64);
            self.pending.clear();
        }
    }

    /// The block-boundary slow path, kept out of line so `try_next` stays
    /// small enough to inline into merge loops: read the block after the
    /// buffered records and append it, keeping the unconsumed ones in
    /// front.  Those are none unless a caller asked for more
    /// ([`buffered_at_least`](Self::buffered_at_least)), and then they end
    /// on a block boundary.
    #[inline(never)]
    fn fill(&mut self) -> Result<()> {
        let per = arr(&self.vec).per_block() as u64;
        let at = self.consumed + (self.buf.len() - self.pos) as u64;
        let bi = (at / per) as usize;
        self.fetch(bi, |r, bytes| {
            r.buf.drain(..r.pos);
            r.pos = (at % per) as usize;
            arr(&r.vec).decode_block(bi, bytes, &mut r.buf);
        })
    }

    /// Read block `bi` — the read-ahead heading the pipeline, or a demand
    /// read — and hand its bytes to `decode`, then top the read-ahead up.
    /// A failed read decodes nothing, so a retry reads the same block.
    fn fetch(&mut self, bi: usize, decode: impl FnOnce(&mut Self, &[u8])) -> Result<()> {
        if self.pending.is_empty() && self.depth > 0 {
            // Nothing in flight: read-ahead was switched on after
            // construction, or the reader was rewound.  Submit the needed
            // block together with its successors, so even the first read of
            // the stream keeps every lane busy.
            self.next_fetch = bi;
            self.top_up();
        }
        // Blocks go in flight in order from the one needed, so it heads the
        // pipeline.  (Blocks still in flight from before a switch down to
        // depth 0 are consumed, not re-read.)
        let (ticket, prefetched) = match self.pending.pop_front_if(|(front, _)| *front == bi) {
            Some((_, ticket)) => (ticket, true),
            None => {
                let bytes = self.spare_buf();
                let id = arr(&self.vec).block_id(bi);
                (arr(&self.vec).device().submit_read(id, bytes), false)
            }
        };
        let (bytes, res) = ticket.wait();
        res?;
        decode(self, &bytes);
        self.spare.push(bytes);
        if prefetched {
            arr(&self.vec).device().stats().record_prefetch_hit();
            self.top_up();
        }
        Ok(())
    }

    /// A block buffer back from an earlier read, or a new one.
    fn spare_buf(&mut self) -> Box<[u8]> {
        self.spare
            .pop()
            .unwrap_or_else(|| vec![0u8; arr(&self.vec).device().block_size()].into_boxed_slice())
    }
}

impl<V: Borrow<ExtVec<R>>, R: Record> Drop for BlockReader<V, R> {
    fn drop(&mut self) {
        self.abandon_pending();
    }
}

#[cfg(test)]
impl<R: Record> ExtVecWriter<R> {
    /// The write-behind depth actually granted by the budget.
    fn write_behind_depth(&self) -> usize {
        self.depth
    }
}

#[cfg(test)]
impl<V: Borrow<ExtVec<R>>, R: Record> BlockReader<V, R> {
    /// The read-ahead depth actually granted by the budget.
    fn prefetch_depth(&self) -> usize {
        self.depth
    }

    /// Look at the next record without consuming it.  Costs an I/O only at
    /// block boundaries.
    fn peek(&mut self) -> Result<Option<&R>> {
        Ok(self.buffered_at_least(1)?.first())
    }

    /// Every record left, read with `try_next`.
    fn read_rest(mut self) -> Result<Vec<R>> {
        let mut out = Vec::new();
        while let Some(r) = self.try_next()? {
            out.push(r);
        }
        Ok(out)
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
    fn writer_reader_round_trip() {
        let device = dev();
        let mut w = ExtVecWriter::new(device.clone());
        for i in 0..1000u64 {
            w.push(i).unwrap();
        }
        let v = w.finish().unwrap();
        let collected = v.reader().read_rest().unwrap();
        assert_eq!(collected, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_io_is_one_per_block() {
        let device = dev();
        let v = ExtVec::from_slice(device.clone(), &(0u64..80).collect::<Vec<_>>()).unwrap();
        let before = device.stats().snapshot();
        v.reader().read_rest().unwrap();
        let delta = device.stats().snapshot().since(&before);
        assert_eq!(delta.reads(), 10); // 80 records / 8 per block
        assert_eq!(delta.writes(), 0);
    }

    #[test]
    fn writer_io_is_one_per_block() {
        let device = dev();
        let before = device.stats().snapshot();
        let mut w = ExtVecWriter::new(device.clone());
        for i in 0..17u64 {
            w.push(i).unwrap();
        }
        let _v = w.finish().unwrap();
        let delta = device.stats().snapshot().since(&before);
        assert_eq!(delta.writes(), 3); // 2 full + 1 partial block
    }

    #[test]
    fn peek_does_not_consume() {
        let v = ExtVec::from_slice(dev(), &[10u64, 20, 30]).unwrap();
        let mut r = v.reader();
        assert_eq!(r.peek().unwrap(), Some(&10));
        assert_eq!(r.peek().unwrap(), Some(&10));
        assert_eq!(r.try_next().unwrap(), Some(10));
        assert_eq!(r.peek().unwrap(), Some(&20));
        assert_eq!(r.remaining(), 2);
    }

    #[test]
    fn reader_at_offset() {
        let v = ExtVec::from_slice(dev(), &(0u64..30).collect::<Vec<_>>()).unwrap();
        let collected = v.reader_at(13).unwrap().read_rest().unwrap();
        assert_eq!(collected, (13..30).collect::<Vec<_>>());
        // Starting exactly at a block boundary.
        let collected = v.reader_at(16).unwrap().read_rest().unwrap();
        assert_eq!(collected, (16..30).collect::<Vec<_>>());
        // Starting at the end yields nothing.
        assert!(v.reader_at(30).unwrap().read_rest().unwrap().is_empty());
        // Past the end is a typed error, before any read.
        let before = v.device().stats().snapshot();
        let err = v.reader_at(31).err();
        assert!(
            matches!(err, Some(pdm::PdmError::InvalidRequest(_))),
            "{err:?}"
        );
        assert_eq!(v.device().stats().snapshot().since(&before).total(), 0);
    }

    #[test]
    fn empty_reader() {
        let v: ExtVec<u64> = ExtVec::new(dev());
        let mut r = v.reader();
        assert_eq!(r.peek().unwrap(), None);
        assert_eq!(r.try_next().unwrap(), None);
    }

    #[test]
    fn remaining_counts_down() {
        let v = ExtVec::from_slice(dev(), &(0u64..5).collect::<Vec<_>>()).unwrap();
        let mut r = v.reader();
        assert_eq!(r.remaining(), 5);
        r.try_next().unwrap();
        assert_eq!(r.remaining(), 4);
    }
}

#[cfg(test)]
mod overlap_tests {
    use super::*;
    use crate::EmConfig;

    fn dev() -> SharedDevice {
        EmConfig::new(64, 8).ram_disk() // 8 u64s per block
    }

    #[test]
    fn prefetching_reader_matches_plain_reader() {
        let device = dev();
        let v = ExtVec::from_slice(device.clone(), &(0u64..100).collect::<Vec<_>>()).unwrap();
        let budget = MemBudget::new(64);
        let before = device.stats().snapshot();
        let r = v.reader_prefetch(3, &budget);
        assert_eq!(r.prefetch_depth(), 3);
        let collected = r.read_rest().unwrap();
        assert_eq!(collected, (0..100).collect::<Vec<_>>());
        let delta = device.stats().snapshot().since(&before);
        assert_eq!(delta.reads(), 13, "prefetch must not change read counts");
        assert_eq!(delta.prefetched(), 13);
        assert_eq!(delta.prefetch_hits(), 13);
        assert_eq!(delta.prefetch_wasted(), 0);
        assert_eq!(budget.used(), 0, "reserve released when the reader drops");
    }

    #[test]
    fn prefetching_reader_at_offset() {
        let v = ExtVec::from_slice(dev(), &(0u64..50).collect::<Vec<_>>()).unwrap();
        let budget = MemBudget::new(64);
        let collected = v
            .reader_at_prefetch(19, 2, &budget)
            .unwrap()
            .read_rest()
            .unwrap();
        assert_eq!(collected, (19..50).collect::<Vec<_>>());
    }

    #[test]
    fn prefetch_degrades_to_zero_without_budget() {
        let device = dev();
        let v = ExtVec::from_slice(device.clone(), &(0u64..40).collect::<Vec<_>>()).unwrap();
        let budget = MemBudget::new(4); // less than one block of u64s
        let before = device.stats().snapshot();
        let r = v.reader_prefetch(3, &budget);
        assert_eq!(r.prefetch_depth(), 0, "no budget, no read-ahead");
        let collected = r.read_rest().unwrap();
        assert_eq!(collected, (0..40).collect::<Vec<_>>());
        let delta = device.stats().snapshot().since(&before);
        assert_eq!(delta.reads(), 5);
        assert_eq!(delta.prefetched(), 0);
    }

    #[test]
    fn dropped_reader_records_wasted_prefetches() {
        let device = dev();
        let v = ExtVec::from_slice(device.clone(), &(0u64..80).collect::<Vec<_>>()).unwrap();
        let budget = MemBudget::new(64);
        {
            let mut r = v.reader_prefetch(4, &budget);
            let _ = r.try_next().unwrap(); // consumes from block 0
        }
        let snap = device.stats().snapshot();
        assert_eq!(snap.prefetch_hits(), 1);
        // After the hit on block 0 the pipeline topped back up to depth 4
        // (blocks 1..=4), none of which were consumed.
        assert_eq!(snap.prefetched(), 5);
        assert_eq!(snap.prefetch_wasted(), 4);
    }

    #[test]
    fn cursor_reads_ahead_lazily_rewinds_and_returns_its_array() {
        let device = dev();
        let v = ExtVec::from_slice(device.clone(), &(0u64..100).collect::<Vec<_>>()).unwrap();
        let budget = MemBudget::new(24);
        let before = device.stats().snapshot();
        let mut c = v.into_cursor();
        c.set_read_ahead(3, &budget);
        assert_eq!(c.prefetch_depth(), 3);
        assert_eq!(budget.used(), 24);
        let since = |s: &pdm::IoSnapshot| device.stats().snapshot().since(s);
        assert_eq!(since(&before).total(), 0, "switching submits nothing");
        // Two full passes: the second re-reads every block (a rewind at the
        // end of the array abandons nothing).
        for pass in 1..=2u64 {
            let got: Vec<u64> = std::iter::from_fn(|| c.try_next().unwrap()).collect();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
            let delta = since(&before);
            assert_eq!(delta.reads(), 13 * pass);
            assert_eq!(delta.prefetched(), 13 * pass, "first block included");
            assert_eq!(delta.prefetch_hits(), 13 * pass);
            assert_eq!(delta.prefetch_wasted(), 0);
            c.rewind();
        }
        // A rewind mid-stream abandons what is in flight, observably.
        assert_eq!(c.try_next().unwrap(), Some(0));
        c.rewind();
        assert_eq!(since(&before).prefetch_wasted(), 3);
        assert_eq!(c.try_next().unwrap(), Some(0));
        c.into_inner().free().unwrap();
        assert_eq!(device.allocated_blocks(), 0);
        assert_eq!(budget.used(), 0, "reserve released with the cursor");
    }

    #[test]
    fn switching_read_ahead_off_midstream_consumes_what_is_in_flight() {
        let device = dev();
        let v = ExtVec::from_slice(device.clone(), &(0u64..100).collect::<Vec<_>>()).unwrap();
        let budget = MemBudget::new(64);
        let before = device.stats().snapshot();
        let mut r = v.reader_prefetch(3, &budget);
        assert_eq!(r.try_next().unwrap(), Some(0));
        r.set_read_ahead(0, &budget);
        assert_eq!(budget.used(), 0);
        let rest: Vec<u64> = std::iter::from_fn(|| r.try_next().unwrap()).collect();
        assert_eq!(rest, (1..100).collect::<Vec<_>>());
        drop(r);
        let delta = device.stats().snapshot().since(&before);
        assert_eq!(delta.reads(), 13, "no block read twice");
        assert_eq!(delta.prefetch_wasted(), 0);
    }

    #[test]
    fn write_behind_writer_matches_plain_writer() {
        let device = dev();
        let budget = MemBudget::new(64);
        let before = device.stats().snapshot();
        let mut w = ExtVecWriter::with_write_behind(device.clone(), 2, &budget);
        assert_eq!(w.write_behind_depth(), 2);
        for i in 0..100u64 {
            w.push(i).unwrap();
        }
        let v = w.finish().unwrap();
        let delta = device.stats().snapshot().since(&before);
        assert_eq!(
            delta.writes(),
            13,
            "write-behind must not change write counts"
        );
        assert_eq!(v.to_vec().unwrap(), (0..100).collect::<Vec<_>>());
        assert_eq!(
            budget.used(),
            0,
            "reserve released when the writer finishes"
        );
    }

    #[test]
    fn write_behind_degrades_to_zero_without_budget() {
        let device = dev();
        let budget = MemBudget::new(0);
        let mut w = ExtVecWriter::with_write_behind(device.clone(), 3, &budget);
        assert_eq!(w.write_behind_depth(), 0);
        for i in 0..20u64 {
            w.push(i).unwrap();
        }
        let v = w.finish().unwrap();
        assert_eq!(v.to_vec().unwrap(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn write_behind_metadata_follows_completion_in_stream_order() {
        let device = dev();
        let budget = MemBudget::new(64);
        let mut w = ExtVecWriter::with_write_behind(device, 2, &budget);
        for i in 0..20u64 {
            w.push(i).unwrap();
        }
        let v = w.finish().unwrap();
        assert_eq!(v.num_blocks(), 3);
        let mut block = Vec::new();
        for (bi, want) in [(0..8), (8..16), (16..20)].into_iter().enumerate() {
            v.read_block_into(bi, &mut block).unwrap();
            assert_eq!(block, want.collect::<Vec<u64>>(), "block {bi}");
        }
    }

    /// A writer dropped with writes still queued waits them out and then
    /// frees every block: none leaks, none is written after its free, and
    /// the next array to get those ids reads back what it wrote.  Every
    /// transfer takes 2 ms, so the queued writes are still in flight when
    /// the writer drops.
    #[test]
    fn a_writer_dropped_unfinished_frees_its_blocks_after_their_writes() {
        let slow = pdm::FaultPlan::new(0).with_latency(1000, std::time::Duration::from_millis(2));
        let device: SharedDevice = pdm::DiskArray::new_ram_faulty(
            2,
            64,
            pdm::Placement::Independent,
            pdm::IoMode::Overlapped,
            &[slow.clone(), slow],
            pdm::RetryPolicy::none(),
        );
        let budget = MemBudget::new(64);
        let baseline = device.allocated_blocks();
        let mut w = ExtVecWriter::with_write_behind(device.clone(), 4, &budget);
        assert_eq!(w.write_behind_depth(), 4);
        // Seven full blocks flushed (up to four still queued), four records
        // buffered.
        for i in 0..60u64 {
            w.push(i).unwrap();
        }
        assert_eq!(device.allocated_blocks(), baseline + 7);
        drop(w);
        assert_eq!(device.allocated_blocks(), baseline, "no block leaked");
        let data: Vec<u64> = (0..60).map(|i| i * 3 + 1).collect();
        let v = ExtVec::from_slice(device.clone(), &data).unwrap();
        assert_eq!(
            v.to_vec().unwrap(),
            data,
            "the reused ids read back exactly"
        );
        assert_eq!(device.stats().snapshot().dropped_write_errors(), 0);
        drop(v);
        assert_eq!(device.allocated_blocks(), baseline);
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn overlap_depth_clamps_to_available_budget() {
        let device = dev();
        let budget = MemBudget::new(20); // room for 2 blocks of 8, not 3
        let r_vec = ExtVec::from_slice(device.clone(), &(0u64..40).collect::<Vec<_>>()).unwrap();
        let r = r_vec.reader_prefetch(5, &budget);
        assert_eq!(r.prefetch_depth(), 2);
        drop(r);
        let w = ExtVecWriter::<u64>::with_write_behind(device, 5, &budget);
        assert_eq!(w.write_behind_depth(), 2);
    }
}

/// The bulk moves are the per-record calls, a block at a time: same records,
/// same blocks, same transfers, same read-ahead.
#[cfg(test)]
mod bulk_move_tests {
    use super::*;
    use crate::EmConfig;

    fn dev() -> SharedDevice {
        EmConfig::new(64, 8).ram_disk() // 8 u64s per block
    }

    /// Everything from `start` on, pulled `max` records a call (`None`: one
    /// `try_next` a record) at read-ahead `depth`, and the I/O it cost.
    fn pull(
        v: &ExtVec<u64>,
        start: u64,
        depth: usize,
        max: Option<usize>,
    ) -> (Vec<u64>, pdm::IoSnapshot) {
        let budget = MemBudget::new(64);
        let before = v.device().stats().snapshot();
        let mut r = v.reader_at_prefetch(start, depth, &budget).unwrap();
        assert_eq!(r.prefetch_depth(), depth);
        let mut out = Vec::new();
        match max {
            None => out.extend(std::iter::from_fn(|| r.try_next().unwrap())),
            Some(max) => loop {
                let want = max.min(r.remaining() as usize);
                assert_eq!(r.read_into(&mut out, max).unwrap(), want);
                if want == 0 {
                    break;
                }
            },
        }
        drop(r);
        (out, v.device().stats().snapshot().since(&before))
    }

    #[test]
    fn read_into_is_try_next_a_block_at_a_time() {
        // 30 records: three full blocks and a partial last one of 6.
        let v = ExtVec::from_slice(dev(), &(0u64..30).collect::<Vec<_>>()).unwrap();
        for depth in [0, 2] {
            // From the start, inside a block, on a boundary, at the end.
            for start in [0, 13, 16, 30] {
                let (expect, one_by_one) = pull(&v, start, depth, None);
                assert_eq!(expect, (start..30).collect::<Vec<_>>());
                // Below, equal to and above a block.
                for max in [3, 8, 20] {
                    let (got, bulk) = pull(&v, start, depth, Some(max));
                    let case = format!("start {start}, depth {depth}, max {max}");
                    assert_eq!(got, expect, "{case}");
                    assert_eq!(bulk.reads(), one_by_one.reads(), "{case}");
                    assert_eq!(bulk.prefetched(), one_by_one.prefetched(), "{case}");
                    assert_eq!(bulk.prefetch_hits(), one_by_one.prefetch_hits(), "{case}");
                    assert_eq!(bulk.prefetch_wasted(), 0, "{case}");
                }
            }
        }
    }

    /// `buffered_at_least(1)` + `consume` is `try_next` a slice at a time:
    /// the slice is the rest of one block, never past it, and pulling it in
    /// any step moves the same reads and read-ahead.
    #[test]
    fn buffered_slices_are_try_next_a_block_at_a_time() {
        let v = ExtVec::from_slice(dev(), &(0u64..30).collect::<Vec<_>>()).unwrap();
        for depth in [0, 2] {
            for start in [0, 13, 16, 30] {
                let (expect, one_by_one) = pull(&v, start, depth, None);
                for step in [1, 3, 8, 100] {
                    let case = format!("start {start}, depth {depth}, step {step}");
                    let budget = MemBudget::new(64);
                    let before = v.device().stats().snapshot();
                    let mut r = v.reader_at_prefetch(start, depth, &budget).unwrap();
                    let mut got = Vec::new();
                    loop {
                        let slice = r.buffered_at_least(1).unwrap();
                        let at = start + got.len() as u64;
                        let block_end = ((at / 8 + 1) * 8).min(30);
                        assert_eq!(slice.len() as u64, block_end - at.min(block_end), "{case}");
                        if slice.is_empty() {
                            break;
                        }
                        got.extend_from_slice(&slice[..step.min(slice.len())]);
                        r.consume(step);
                    }
                    drop(r);
                    let io = v.device().stats().snapshot().since(&before);
                    assert_eq!(got, expect, "{case}");
                    assert_eq!(io.reads(), one_by_one.reads(), "{case}");
                    assert_eq!(io.prefetched(), one_by_one.prefetched(), "{case}");
                    assert_eq!(io.prefetch_hits(), one_by_one.prefetch_hits(), "{case}");
                    assert_eq!(io.prefetch_wasted(), 0, "{case}");
                }
            }
        }
    }

    /// `buffered_at_least(n)` keeps the records left in front of the next
    /// block once fewer than `n` are: the slice runs across block ends, ends
    /// on one (or the array's end), grows by one block exactly when fewer
    /// than `n` are left and the array has more, and pulling it in any
    /// step is `try_next`'s sequence — every block read once, in order, no
    /// earlier than the slice reaches it, and every prefetch consumed.
    #[test]
    fn buffered_at_least_spans_block_ends_and_reads_each_block_once() {
        let v = ExtVec::from_slice(dev(), &(0u64..30).collect::<Vec<_>>()).unwrap();
        for depth in [0, 2] {
            for start in [0, 13, 16, 30] {
                let (expect, one_by_one) = pull(&v, start, depth, None);
                for (n, step) in [(1, 3), (3, 1), (8, 5), (11, 3), (20, 100)] {
                    let case = format!("start {start}, depth {depth}, n {n}, step {step}");
                    let budget = MemBudget::new(64);
                    let before = v.device().stats().snapshot();
                    let mut r = v.reader_at_prefetch(start, depth, &budget).unwrap();
                    let (mut got, mut held) = (Vec::new(), 0);
                    loop {
                        let at = start + got.len() as u64;
                        let slice = r.buffered_at_least(n).unwrap();
                        let end = at + slice.len() as u64;
                        assert_eq!(slice, &(at..end).collect::<Vec<_>>()[..], "{case}");
                        assert!(end.is_multiple_of(8) || end == 30, "{case}: ends at {end}");
                        if held >= n || at + held as u64 == 30 {
                            assert_eq!(slice.len(), held, "{case}: at {at}, no read");
                        } else {
                            let appended = slice.len() - held;
                            assert!((1..=8).contains(&appended), "{case}: at {at}, one block");
                        }
                        if depth == 0 {
                            let read = if end > start {
                                end.div_ceil(8) - start / 8
                            } else {
                                0
                            };
                            let io = v.device().stats().snapshot().since(&before);
                            assert_eq!(io.reads(), read, "{case}: at {at}");
                        }
                        if slice.is_empty() {
                            break;
                        }
                        got.extend_from_slice(&slice[..step.min(slice.len())]);
                        held = slice.len().saturating_sub(step);
                        r.consume(step);
                    }
                    drop(r);
                    let io = v.device().stats().snapshot().since(&before);
                    assert_eq!(got, expect, "{case}");
                    assert_eq!(io.reads(), one_by_one.reads(), "{case}");
                    assert_eq!(io.prefetched(), one_by_one.prefetched(), "{case}");
                    assert_eq!(io.prefetch_hits(), io.prefetched(), "{case}");
                    assert_eq!(io.prefetch_wasted(), 0, "{case}");
                }
            }
        }
    }

    #[test]
    fn read_into_of_nothing_reads_nothing() {
        let device = dev();
        let v = ExtVec::from_slice(device.clone(), &(0u64..20).collect::<Vec<_>>()).unwrap();
        let before = device.stats().snapshot();
        let mut r = v.reader();
        let mut out = vec![99];
        assert_eq!(r.read_into(&mut out, 0).unwrap(), 0);
        assert_eq!(device.stats().snapshot().since(&before).reads(), 0);
        assert_eq!(r.remaining(), 20);
        // It appends; and it interleaves with `try_next` mid-block.
        assert_eq!(r.try_next().unwrap(), Some(0));
        assert_eq!(r.read_into(&mut out, 10).unwrap(), 10);
        assert_eq!(out, [99, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(r.try_next().unwrap(), Some(11));
        // Exhaustion: a short count, then zero, and nothing more is read.
        assert_eq!(r.read_into(&mut out, 100).unwrap(), 8);
        assert_eq!(r.read_into(&mut out, 100).unwrap(), 0);
        assert_eq!(out.len(), 19);
        assert_eq!(device.stats().snapshot().since(&before).reads(), 3);
    }

    /// 100 records written with `push` alone, or with slices of every shape
    /// mixed in, at write-behind `depth`: the array and the writes it cost.
    fn write(depth: usize, bulk: bool) -> (ExtVec<u64>, u64) {
        let device = dev();
        let budget = MemBudget::new(64);
        let data: Vec<u64> = (0..100).map(|i| i * 7).collect();
        let mut w = ExtVecWriter::with_write_behind(device.clone(), depth, &budget);
        assert_eq!(w.write_behind_depth(), depth);
        if bulk {
            // After a push: inside a block, across several, empty, exactly
            // to a boundary, exactly one block, and a partial tail.
            w.push(data[0]).unwrap();
            let mut at = 1;
            for len in [2, 20, 0, 9, 8, 60] {
                w.extend_from_slice(&data[at..at + len]).unwrap();
                at += len;
                assert_eq!(w.len(), at as u64);
            }
        } else {
            for &x in &data {
                w.push(x).unwrap();
            }
        }
        let v = w.finish().unwrap();
        (v, device.stats().snapshot().writes())
    }

    /// Whole blocks met with the buffer empty are encoded from the slice:
    /// after every number of pushes, one slice of the rest writes the
    /// blocks, bytes and transfers that pushing it would.
    #[test]
    fn extend_from_slice_writes_the_same_blocks_direct_or_buffered() {
        let data: Vec<u64> = (0..45).map(|i| i * 3 + 1).collect();
        let written = |pushes: usize| {
            let device = dev();
            let mut w = ExtVecWriter::new(device.clone());
            data[..pushes].iter().for_each(|&x| w.push(x).unwrap());
            w.extend_from_slice(&data[pushes..]).unwrap();
            assert_eq!(w.len(), 45);
            let v = w.finish().unwrap();
            let writes = device.stats().snapshot().writes();
            let blocks: Vec<Vec<u64>> = (0..v.num_blocks())
                .map(|bi| {
                    let mut block = Vec::new();
                    v.read_block_into(bi, &mut block).unwrap();
                    block
                })
                .collect();
            (blocks, writes)
        };
        let pushed = written(45);
        assert_eq!(pushed.1, 6);
        for pushes in [0, 1, 7, 8, 9, 16, 40, 44] {
            assert_eq!(written(pushes), pushed, "after {pushes} pushes");
        }
    }

    #[test]
    fn extend_from_slice_writes_what_pushes_write() {
        for depth in [0, 2] {
            let (pushed, push_writes) = write(depth, false);
            let (mixed, mixed_writes) = write(depth, true);
            assert_eq!(mixed.len(), pushed.len());
            assert_eq!(mixed.num_blocks(), pushed.num_blocks());
            assert_eq!(mixed_writes, push_writes);
            assert_eq!(mixed_writes, 13);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for bi in 0..pushed.num_blocks() {
                mixed.read_block_into(bi, &mut a).unwrap();
                pushed.read_block_into(bi, &mut b).unwrap();
                assert_eq!(a, b, "block {bi}, depth {depth}");
            }
        }
    }
}

/// Regression tests for the metadata-before-data crash window: the writer
/// must never describe a block before the device has confirmed
/// it written, and a failed flush must be repairable in place.
#[cfg(test)]
mod fault_ordering_tests {
    use super::*;
    use pdm::{BlockDevice, FaultDisk, FaultPlan, RamDisk};

    #[test]
    fn failed_flush_repairs_in_place_and_keeps_metadata_aligned() {
        let ram = RamDisk::new(64); // 8 u64s per block
                                    // Every block's *first* write tears and errors; the repair must
                                    // rewrite the identical bytes (enforced by the verified plan), which
                                    // only holds if the writer retained the buffered records and reused
                                    // the allocated block.
        let device = FaultDisk::wrap(
            Arc::clone(&ram) as SharedDevice,
            FaultPlan::new(3).with_torn_writes_verified(1000),
        );
        let stats = device.stats();
        let mut w = ExtVecWriter::new(Arc::clone(&device) as SharedDevice);
        let mut flush_errors = 0;
        for i in 0..16u64 {
            if w.push(i).is_err() {
                flush_errors += 1; // retried by the next push/finish
            }
        }
        assert_eq!(flush_errors, 2, "each block's first write tears");
        let v = w.finish().unwrap(); // retries the second block's torn flush
        assert_eq!(v.to_vec().unwrap(), (0..16).collect::<Vec<_>>());
        assert_eq!(v.num_blocks(), 2, "the block map stays aligned to blocks");
        assert_eq!(
            ram.allocated_blocks(),
            2,
            "retries reuse the torn block instead of leaking it"
        );
        let snap = stats.snapshot();
        assert_eq!(snap.writes(), 4, "2 torn attempts + 2 repairs, all counted");
        assert_eq!(snap.faults_injected(), 2);
    }

    /// The same plan behind write-behind: each torn write keeps its bytes at
    /// the head of the queue and is rewritten to its own block, so no block
    /// is lost.  At depth 1 the first tear surfaces in the push that queues
    /// a second write; at depth 2 both surface while `finish` waits them out.
    #[test]
    fn failed_write_behind_repairs_in_place_and_keeps_metadata_aligned() {
        for (depth, push_errors) in [(1, 1), (2, 0)] {
            let ram = RamDisk::new(64); // 8 u64s per block
            let device = FaultDisk::wrap(
                Arc::clone(&ram) as SharedDevice,
                FaultPlan::new(3).with_torn_writes_verified(1000),
            );
            let budget = MemBudget::new(64);
            let mut w = ExtVecWriter::with_write_behind(
                Arc::clone(&device) as SharedDevice,
                depth,
                &budget,
            );
            assert_eq!(w.write_behind_depth(), depth);
            let failed = (0..16u64).filter(|&i| w.push(i).is_err()).count();
            assert_eq!(failed, push_errors, "depth {depth}");
            let v = w.finish().unwrap();
            assert_eq!(
                v.to_vec().unwrap(),
                (0..16).collect::<Vec<_>>(),
                "depth {depth}"
            );
            assert_eq!(
                v.num_blocks(),
                2,
                "the block map stays aligned (depth {depth})"
            );
            assert_eq!(ram.allocated_blocks(), 2, "no leaked block (depth {depth})");
            let snap = device.stats().snapshot();
            assert_eq!(
                snap.writes(),
                4,
                "2 torn attempts + 2 repairs (depth {depth})"
            );
            assert_eq!(snap.faults_injected(), 2);
        }
    }

    #[test]
    fn failed_flush_inside_a_slice_says_how_much_was_accepted() {
        let ram = RamDisk::new(64); // 8 u64s per block
        let device = FaultDisk::wrap(
            Arc::clone(&ram) as SharedDevice,
            FaultPlan::new(3).with_torn_writes_verified(1000),
        );
        let data: Vec<u64> = (0..16).map(|i| i * 5 + 1).collect();
        let mut w = ExtVecWriter::new(Arc::clone(&device) as SharedDevice);
        // Each block's first write tears: the slice stops at the block that
        // failed, and the caller resumes from `len()`.
        assert!(w.extend_from_slice(&data).is_err());
        assert_eq!(w.len(), 8, "the first block was accepted, nothing after it");
        assert!(w.extend_from_slice(&data[8..]).is_err());
        assert_eq!(w.len(), 16);
        let v = w.finish().unwrap(); // retries the second block's torn flush
        assert_eq!(v.to_vec().unwrap(), data);
        assert_eq!(v.num_blocks(), 2);
        assert_eq!(ram.allocated_blocks(), 2, "retries repair in place");
        assert_eq!(device.stats().snapshot().writes(), 4);
    }

    /// Every block's first read fails once, demanded or read ahead.  The
    /// reader keeps what it held, so retrying `try_next` reads the same
    /// block again: every record comes out once, in order, at one failed
    /// read a block.
    #[test]
    fn a_failed_read_is_retried_not_skipped() {
        let ram = RamDisk::new(64); // 8 u64s per block
        let device = FaultDisk::wrap(
            Arc::clone(&ram) as SharedDevice,
            FaultPlan::new(9).with_transient(1000, 1),
        );
        let data: Vec<u64> = (0..30).map(|i| i * 3 + 2).collect();
        // One array a depth, both written before either is read.
        let arrays: Vec<ExtVec<u64>> = (0..2)
            .map(|_| {
                let mut w = ExtVecWriter::new(Arc::clone(&device) as SharedDevice);
                for &x in &data {
                    let _ = w.push(x); // a failed write is rewritten by the next flush
                }
                w.finish().unwrap()
            })
            .collect();
        for (v, depth) in arrays.iter().zip([0, 2]) {
            let budget = MemBudget::new(64);
            let mut r = v.reader_prefetch(depth, &budget);
            let (mut got, mut failed) = (Vec::new(), 0);
            while failed <= 2 * v.num_blocks() {
                match r.try_next() {
                    Ok(Some(x)) => got.push(x),
                    Ok(None) => break,
                    Err(_) => failed += 1,
                }
            }
            assert_eq!(got, data, "depth {depth}");
            assert_eq!(failed, v.num_blocks(), "depth {depth}");
        }
    }

    /// A RAM disk that allocates `left` more blocks, then is out of space.
    struct Capped {
        ram: Arc<RamDisk>,
        left: std::sync::atomic::AtomicUsize,
    }

    impl BlockDevice for Capped {
        fn block_size(&self) -> usize {
            self.ram.block_size()
        }
        fn allocated_blocks(&self) -> u64 {
            self.ram.allocated_blocks()
        }
        fn allocate(&self) -> Result<BlockId> {
            use std::sync::atomic::Ordering::Relaxed;
            match self
                .left
                .fetch_update(Relaxed, Relaxed, |n| n.checked_sub(1))
            {
                Ok(_) => self.ram.allocate(),
                Err(_) => Err(pdm::PdmError::OutOfSpace),
            }
        }
        fn free(&self, id: BlockId) -> Result<()> {
            self.ram.free(id)
        }
        fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<()> {
            self.ram.read_block(id, buf)
        }
        fn write_block(&self, id: BlockId, buf: &[u8]) -> Result<()> {
            self.ram.write_block(id, buf)
        }
        fn stats(&self) -> Arc<pdm::IoStats> {
            self.ram.stats()
        }
    }

    /// A block of the slice that cannot be allocated accepts none of its
    /// records, and the caller resumes from `len()`.
    #[test]
    fn a_slice_block_that_cannot_be_allocated_accepts_nothing() {
        let capped = Arc::new(Capped {
            ram: RamDisk::new(64), // 8 u64s per block
            left: 1.into(),
        });
        let data: Vec<u64> = (0..20).map(|i| i * 5 + 1).collect();
        let mut w = ExtVecWriter::new(Arc::clone(&capped) as SharedDevice);
        assert!(matches!(
            w.extend_from_slice(&data),
            Err(pdm::PdmError::OutOfSpace)
        ));
        assert_eq!(w.len(), 8, "the first block was accepted, nothing after it");
        capped.left.store(2, std::sync::atomic::Ordering::Relaxed);
        w.extend_from_slice(&data[8..]).unwrap();
        let v = w.finish().unwrap();
        assert_eq!(v.to_vec().unwrap(), data);
        assert_eq!(v.num_blocks(), 3);
        assert_eq!(capped.ram.stats().snapshot().writes(), 3);
    }
}
