//! Multiway merge sort.
//!
//! The survey's optimal sorting algorithm: form sorted runs, then repeatedly
//! merge up to `k = Θ(M/B)` runs at a time until one remains.  With fan-in
//! `k = M/B − 1` (one memory block buffers each input run, one buffers the
//! output), `⌈N/M⌉` initial runs shrink by a factor `k` per pass, giving
//!
//! ```text
//! I/Os = 2·(N/B) · (1 + ⌈log_k ⌈N/M⌉⌉)  =  Θ((N/B) · log_{M/B}(N/B))
//! ```
//!
//! which matches the lower bound — the headline result the experiment
//! harness (F1/F2) verifies against [`em_core::bounds::merge_sort_ios`].
//! When the runs fit one merge, the sorted tail of the last memory load is
//! not written at all: it joins the final merge from memory, in the room
//! the merge's `(k+1)·B` leaves in `M`, so one-pass sorts come in under that
//! formula ([`em_core::bounds::resident_tail`]; the exact replays are
//! [`em_core::bounds::merge_sort_exact_ios`] and its siblings).
//!
//! There is one merge: [`SortedStream`], which takes the merge a *batch* at
//! a time.  The records already buffered in memory bound what can be emitted
//! without another read: every run offers a window of its buffered records,
//! the smallest window end is the batch's splitter, and every record at or
//! below it — a few short sorted pieces — is merged by a branch-free
//! two-way merge that works from both ends of each pair of pieces at once,
//! `≈ ⌈log₂ k⌉` comparisons a record with no tournament replayed per
//! record.  Its I/O side is one schedule: every run reads ahead on its own,
//! in block order.  A materialized merge is that stream drained into a
//! write-behind writer a batch at a time; every sort entry point runs its
//! passes through the same `merge_down` loop.

use std::collections::VecDeque;
use std::hint::select_unpredictable;
use std::sync::Arc;

use em_core::{bounds, BudgetGuard, ExtVec, ExtVecReader, ExtVecWriter, MemBudget, Record};
use pdm::{PdmError, Result, SharedDevice};

use crate::runs::{check_memory, form_runs_keeping, spill_sorted};
use crate::{OverlapConfig, RunFormation, SortConfig};

/// Sort `input` into a new external array on the same device, using natural
/// ordering.  See [`merge_sort_by`].
///
/// ```
/// use em_core::{EmConfig, ExtVec};
/// use emsort::{merge_sort, SortConfig};
///
/// let cfg = EmConfig::new(512, 8);
/// let device = cfg.ram_disk();
/// let input = ExtVec::from_slice(device, &[5u64, 1, 4, 2, 3])?;
/// let sorted = merge_sort(&input, &SortConfig::new(cfg.mem_records::<u64>()))?;
/// assert_eq!(sorted.to_vec()?, vec![1, 2, 3, 4, 5]);
/// # Ok::<(), pdm::PdmError>(())
/// ```
pub fn merge_sort<R: Record + Ord>(input: &ExtVec<R>, cfg: &SortConfig) -> Result<ExtVec<R>> {
    merge_sort_by(input, cfg, |a, b| a < b)
}

/// Sort `input` by a strict-less predicate.
///
/// Intermediate runs are freed as they are consumed, so peak disk usage is
/// `≈ 2N/B` blocks beyond the input.  The input itself is left untouched.
/// When the runs fit one merge, the sorted tail of the last memory load is
/// merged from memory instead of being written and read back
/// ([`bounds::resident_tail`]).
///
/// Memory under what run formation needs, or — when more than one load
/// forms — under the `(k+1)·B` records one merge charges, is
/// [`PdmError::MemoryExceeded`], returned before anything is written.
pub fn merge_sort_by<R, F>(input: &ExtVec<R>, cfg: &SortConfig, less: F) -> Result<ExtVec<R>>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy + Send,
{
    if input.is_empty() {
        return Ok(ExtVec::new(input.device().clone()));
    }
    form(input, cfg, true, less)?.into_sorted(cfg, less)
}

/// Run formation for a complete sort of the nonempty `input`: the memory
/// check, then load–sort–store keeping the resident tail a `materialized`
/// (or streamed) sort of `N` records can hold.
fn form<R, F>(input: &ExtVec<R>, cfg: &SortConfig, materialized: bool, less: F) -> Result<Formed<R>>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy + Send,
{
    let (n, m, b) = (input.len(), cfg.mem_records, input.per_block());
    check_memory(cfg, b, n > m as u64)?;
    let keep = match cfg.run_formation {
        // A stored input loads its short load first: the last is min(N, M).
        RunFormation::LoadSort => bounds::resident_tail(
            n.div_ceil(m as u64),
            n.min(m as u64) as usize,
            m,
            b,
            cfg.effective_fan_in(b),
            materialized,
        ),
        RunFormation::ReplacementSelection => 0,
    };
    let (runs, tail) = form_runs_keeping(input, cfg, keep, less)?;
    Ok(Formed::new(runs, tail, input.device().clone(), b, cfg))
}

/// A sort between run formation and its merges: its runs on disk, in order,
/// and the sorted tail of its last memory load still in memory — empty
/// unless [`bounds::resident_tail`] kept one, which happens only when the
/// disk runs fit one merge.  The tail's records sort after every disk run's
/// equal keys: it is the merge's highest-index leaf.
struct Formed<R: Record> {
    runs: VecDeque<ExtVec<R>>,
    tail: Vec<R>,
    device: SharedDevice,
    per_block: usize,
    k: usize,
    /// Every merge's budget: `M` plus the [`allowance`] of the widest.
    budget: Arc<MemBudget>,
}

impl<R: Record> Formed<R> {
    fn new(
        runs: Vec<ExtVec<R>>,
        tail: Vec<R>,
        device: SharedDevice,
        per_block: usize,
        cfg: &SortConfig,
    ) -> Self {
        let k = cfg.effective_fan_in(per_block);
        let (merge, ..) = allowance(cfg.overlap, runs.len().min(k), device.stream_lanes());
        let budget = MemBudget::new(cfg.mem_records + merge * per_block);
        Formed {
            runs: runs.into(),
            tail,
            device,
            per_block,
            k,
            budget,
        }
    }

    /// Merge everything into one materialized array: down to one run, or —
    /// with a tail — the `≤ k` disk runs and the tail in one merge, its
    /// output staggered as the first merge of `merge_down` would be.
    fn into_sorted<F>(mut self, cfg: &SortConfig, less: F) -> Result<ExtVec<R>>
    where
        F: Fn(&R, &R) -> bool + Copy,
    {
        let budget = &self.budget;
        if self.tail.is_empty() {
            merge_down(&mut self.runs, self.k, 1, budget, cfg, less)?;
            // Nonempty input always leaves exactly one run; degrade to an
            // empty result rather than panic if that invariant ever breaks.
            return Ok(self
                .runs
                .pop_front()
                .unwrap_or_else(|| ExtVec::new(self.device.clone())));
        }
        self.device.direct_next_stream(0);
        let runs: Vec<ExtVec<R>> = self.runs.into();
        let out = materialize(
            &runs,
            self.tail,
            &self.device,
            self.per_block,
            budget,
            cfg,
            less,
        )?;
        for run in runs {
            run.free()?;
        }
        Ok(out)
    }

    /// Merge down to the `≤ k` runs one last merge can stream, hand that
    /// merge — tail included — to `consume`, then free the runs.
    fn stream<F, T, C>(mut self, cfg: &SortConfig, less: F, consume: C) -> Result<T>
    where
        F: Fn(&R, &R) -> bool + Copy,
        C: FnOnce(&mut SortedStream<'_, R, F>) -> Result<T>,
    {
        let budget = &self.budget;
        merge_down(&mut self.runs, self.k, self.k, budget, cfg, less)?;
        let runs: Vec<ExtVec<R>> = self.runs.into();
        let parts: Vec<(&ExtVec<R>, u64)> = runs.iter().map(|r| (r, 0)).collect();
        let (tail, b, ov) = (self.tail, self.per_block, cfg.overlap);
        let mut stream = SortedStream::build(&parts, tail, b, budget, ov, false, less)?;
        let out = consume(&mut stream)?;
        drop(stream);
        for run in runs {
            run.free()?;
        }
        Ok(out)
    }
}

/// Write-behind depth of the output of a `k`-way merge on `lanes` stream
/// lanes.  It is per disk: the output round-robins its blocks across an
/// independent array's lanes, so its queue deepens by the lane count to keep
/// every output queue nonempty.  It also mirrors the runs' read-ahead,
/// `k·read_ahead` blocks: each output write retires behind the prefetch
/// queue in its lane, and a shallower writer stalls on every flush waiting
/// out that latency.  Like the read-ahead it is budget headroom taken with
/// `try_charge`, so it degrades and never changes a transfer.  Run
/// formation's writer keeps the same depth ([`allowance`]).
fn merge_write_behind(ov: OverlapConfig, k: usize, lanes: usize) -> usize {
    (ov.write_behind * lanes).max(k * ov.read_ahead)
}

/// The sort's one overlap allowance, for a widest merge of `k` runs on `d`
/// stream lanes (`k = 0`: no merge): `(merge, formation, streams)` blocks.
/// That merge charges `merge`, `k·read_ahead` for its runs and
/// [`merge_write_behind`] for its writer, and its budget declares exactly
/// that.  Run formation's `streams` keep the same depths, each at least its
/// per-disk one, inside `formation`: `merge`, or the per-disk pair
/// `(read_ahead + write_behind)·D` where that is larger — never more than
/// the merge unless it was before.
pub(crate) fn allowance(ov: OverlapConfig, k: usize, d: usize) -> (usize, usize, OverlapConfig) {
    let write_behind = merge_write_behind(ov, k, d);
    let merge = k * ov.read_ahead + write_behind;
    let pair = (ov.read_ahead + ov.write_behind) * d;
    let streams = OverlapConfig {
        read_ahead: (ov.read_ahead * d).max(k * ov.read_ahead),
        write_behind,
    };
    (merge, merge.max(pair), streams)
}

/// Merge passes: replace the front `k` runs of `queue` (fewer on the last
/// group) by their merge, pushed to the back, until at most `until` runs
/// remain.  `until = 1` sorts completely; `until = k` stops where one final
/// `≤ k`-way merge is left for a [`SortedStream`] — the same groups, in the
/// same order, as the first passes of the complete sort, so the transfers
/// agree block for block.
fn merge_down<R, F>(
    queue: &mut VecDeque<ExtVec<R>>,
    k: usize,
    until: usize,
    budget: &Arc<MemBudget>,
    cfg: &SortConfig,
    less: F,
) -> Result<()>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy,
{
    let mut merged_streams = 0usize;
    while queue.len() > until {
        let take = k.min(queue.len());
        let group: Vec<ExtVec<R>> = queue.drain(..take).collect();
        // Stagger each merge output's start lane the way run formation
        // staggers runs: in a multi-pass merge these streams are next-pass
        // runs, and unstaggered equal-length runs all place block j on the
        // same disk (see `BlockDevice::direct_next_stream`).
        group[0].device().direct_next_stream(merged_streams);
        merged_streams += 1;
        let merged = merge_runs_with(&group, budget, cfg, less)?;
        for run in group {
            run.free()?;
        }
        queue.push_back(merged);
    }
    Ok(())
}

/// One k-way merge of already-sorted `runs` into one sorted array under
/// `cfg`'s overlap depths.
///
/// Exposed because other crates reuse single merges (e.g. merging delta runs
/// in graph pipelines).  Charges `(k+1)·B` records against `budget`, plus
/// (when overlap is on) whatever read-ahead and write-behind the budget's
/// headroom allows.  Costs one read of every input block and one write of
/// every output block; like every overlap feature in this workspace, the
/// depths move wall-clock time only.
///
/// This is the materialized merge: a [`SortedStream`] over `runs` drained
/// into a write-behind writer.  The overlap buffers come from `budget`
/// headroom via `try_charge`, so a tight budget silently degrades to the
/// synchronous merge; the transfers performed are identical either way.
///
/// No runs at all is [`PdmError::InvalidRequest`]: there is no device to
/// put the output on.
pub fn merge_runs_with<R, F>(
    runs: &[ExtVec<R>],
    budget: &Arc<MemBudget>,
    cfg: &SortConfig,
    less: F,
) -> Result<ExtVec<R>>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy,
{
    let Some(first) = runs.first() else {
        return Err(PdmError::InvalidRequest(
            "merge_runs_with: no runs to merge".into(),
        ));
    };
    materialize(
        runs,
        Vec::new(),
        first.device(),
        first.per_block(),
        budget,
        cfg,
        less,
    )
}

/// Drain the merge of `runs` and the resident `tail` into a new array on
/// `device` — the body of [`merge_runs_with`], and a sort's last merge.
fn materialize<R, F>(
    runs: &[ExtVec<R>],
    tail: Vec<R>,
    device: &SharedDevice,
    per_block: usize,
    budget: &Arc<MemBudget>,
    cfg: &SortConfig,
    less: F,
) -> Result<ExtVec<R>>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy,
{
    let ov = cfg.overlap;
    let parts: Vec<(&ExtVec<R>, u64)> = runs.iter().map(|r| (r, 0)).collect();
    let mut stream = SortedStream::build(&parts, tail, per_block, budget, ov, true, less)?;
    let wb = merge_write_behind(ov, runs.len(), device.stream_lanes());
    let mut w = ExtVecWriter::with_write_behind(device.clone(), wb, budget);
    while let Some(batch) = stream.next_batch()? {
        w.extend_from_slice(batch)?;
    }
    w.finish()
}

/// Pull-mode view of one k-way merge — the merge itself.  A materialized
/// merge drains it into a writer; [`merge_sort_streaming`] (or an explicit
/// [`merge_runs_streaming`]) hands the final pass to the consumer closure
/// instead.
///
/// [`try_next`](Self::try_next) yields the merged records in sorted order,
/// one at a time, without ever writing them to disk — the fusion that saves
/// the materialized output's write pass and the consumer's re-read pass
/// (`2·⌈N/B⌉` transfers per sort whose output is scanned once).  Ties
/// resolve toward the lower run index, so merging stably sorted runs yields
/// the stable sort of their concatenation.
///
/// Records are handed out of a *batch*: the next stretch of that stable
/// merge, taken from what is already in memory.  A batch holds at most
/// `cap = max(B, (k+1)·B/4)` records, or `max(B, (k+1)·B/6)` when the
/// stream is drained whole, as every materialized merge is.
///
/// * Every live source — each run's reader, then the resident tail — offers
///   a *window*: its next `w = 1 + ⌊(cap − 1)/live⌋` buffered records.  A
///   drained stream cuts it across the block's end (the run reads its next
///   block once it holds fewer than `w`); one handed to a consumer, never
///   past the block's end.
/// * The *splitter* `s` is the smallest window end in `(key, source)` order.
///   `s`'s source gives its whole window; every other source gives the
///   records of its window that precede `s` in that order, one search
///   oriented by whether its index is below `s`'s.  Its window end follows
///   `s`, so it gives fewer than `w`, and the batch stays within `cap`.
/// * The pieces, laid out in source order, are merged pairwise and bottom
///   up by a stable, branch-free two-way merge that takes the smallest
///   record at the front and the largest at the back in the same step:
///   two independent chains of comparisons, one `less` call a record.
/// * `s`'s source then *gallops*: while the batch has room, it gives the
///   records that precede every record another source has left — the
///   streak of presorted input, a batch at a time.  They follow every
///   piece, so they are appended, not merged.
///
/// Every record taken precedes every record left behind, so each batch is
/// exactly the next stretch of the stable merge.  A batch costs `live − 1`
/// comparisons for the splitter, one galloping search per other source,
/// the gallop's check (one comparison unless it pays), and about `⌈log₂ p⌉`
/// comparisons a record to merge `p` nonempty pieces.  In a consumer's
/// stream a source whose buffered block is spent reads its next block
/// before the next splitter is computed — the read a record-at-a-time merge
/// makes when that block's last record leaves, made no earlier — so a
/// stream dropped early reads no more than that merge.  Either way every
/// block is read once, in order.
///
/// Each run reads ahead on its own: its reader keeps `read_ahead` blocks in
/// flight, in block order, charged to the budget beside the stream's own
/// charge (less if the budget is short).
///
/// A complete sort's final merge may also hold the sorted tail of its last
/// memory load ([`bounds::resident_tail`]): one more source, after every
/// run, read from memory.  It is not a reader and reads nothing ahead.
///
/// The stream charges its budget `(k+1)·B` plus the resident records.  The
/// batch and its merge scratch, `cap` records each, and a drained stream's
/// records carried across block ends, fewer than `w` a source, are not
/// charged: at most half the charge from `k = 5` on, like run formation's
/// sort scratch of half a load.
///
/// The stream borrows the final-stage runs, which live in the sorting
/// function's frame; that is why the consumer is a closure rather than the
/// stream being returned.
pub struct SortedStream<'a, R: Record, F> {
    src: Sources<'a, R>,
    /// The sources with records left, in index order, with their windows.
    live: Vec<Window<R>>,
    /// The most records a batch holds: `max(B, (k+1)·B/4)`, or
    /// `max(B, (k+1)·B/6)` if `span`.
    cap: usize,
    /// The length the windows were cut at: `1 + ⌊(cap − 1)/live⌋`.
    w: usize,
    /// Whether windows run across their block's end: the stream is drained
    /// whole, so every read it makes early is made anyway.
    span: bool,
    less: F,
    /// The batch is `bufs[cur][..len]`, its records from `at` on not yet
    /// handed out; the other buffer is the merge's scratch.
    bufs: [Vec<R>; 2],
    cur: usize,
    len: usize,
    at: usize,
    /// Where each piece of the batch being merged ends.
    ends: Vec<usize>,
    _charge: BudgetGuard,
}

/// A live source's window: how many of its buffered records it holds and
/// the last of them.  It stands across batches until the source gives a
/// record (`stale`) or the window length changes.
struct Window<R> {
    src: usize,
    len: usize,
    end: R,
    stale: bool,
}

/// A merge's inputs in tie order: the runs' readers, then the resident tail,
/// read from memory as if it were one more run.
struct Sources<'a, R: Record> {
    readers: Vec<ExtVecReader<'a, R>>,
    tail: Vec<R>,
    /// The tail's records before this one are consumed.
    tail_at: usize,
}

impl<R: Record> Sources<'_, R> {
    /// Source `i`'s buffered records, reading a run's next block once fewer
    /// than `n` are left (see `BlockReader::buffered_at_least`); the tail's
    /// whole rest.  Empty only once the source is drained.
    fn view(&mut self, i: usize, n: usize) -> Result<&[R]> {
        match self.readers.get_mut(i) {
            Some(rd) => rd.buffered_at_least(n),
            None => Ok(&self.tail[self.tail_at..]),
        }
    }

    /// Consume the first `n` records of source `i`'s [`view`](Self::view).
    fn consume(&mut self, i: usize, n: usize) {
        match self.readers.get_mut(i) {
            Some(rd) => rd.consume(n),
            None => self.tail_at += n,
        }
    }

    /// Whether source `i` has no records left.
    fn drained(&self, i: usize) -> bool {
        match self.readers.get(i) {
            Some(rd) => rd.remaining() == 0,
            None => self.tail_at == self.tail.len(),
        }
    }
}

impl<'a, R, F> SortedStream<'a, R, F>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy,
{
    /// Build a stream over `(run, start offset)` pairs and the sorted
    /// `resident` records, at `b` records a block, and read each run's first
    /// block; a stream that will be drained whole `span`s block ends.
    /// Charges `(k+1)·B` plus the resident records against `budget`: one
    /// block per run, plus the output block of a materialized merge or the
    /// consumer's working block; each run's reader charges its own
    /// read-ahead.
    fn build(
        parts: &[(&'a ExtVec<R>, u64)],
        resident: Vec<R>,
        b: usize,
        budget: &Arc<MemBudget>,
        ov: OverlapConfig,
        span: bool,
        less: F,
    ) -> Result<Self> {
        let k = parts.len();
        let charge = budget.charge((k + 1) * b + resident.len());
        let readers: Vec<ExtVecReader<'a, R>> = parts
            .iter()
            .map(|(r, s)| r.reader_at_prefetch(*s, ov.read_ahead, budget))
            .collect::<Result<_>>()?;
        let per_block = b.max(1);
        let cap = per_block.max((k + 1) * per_block / if span { 6 } else { 4 });
        let mut src = Sources {
            readers,
            tail: resident,
            tail_at: 0,
        };
        // Each window stands at its source's head until the first batch
        // cuts it.
        let mut live = Vec::with_capacity(k + 1);
        for i in 0..=k {
            if let Some(head) = src.view(i, 1)?.first() {
                live.push(Window {
                    src: i,
                    len: 1,
                    end: head.clone(),
                    stale: true,
                });
            }
        }
        Ok(SortedStream {
            src,
            live,
            cap,
            w: 0,
            span,
            less,
            bufs: [Vec::with_capacity(cap), Vec::with_capacity(cap)],
            cur: 0,
            len: 0,
            at: 0,
            ends: Vec::with_capacity(k + 1),
            _charge: charge,
        })
    }

    /// The next record in sorted order, or `None` once the merge is drained.
    /// Any device error (e.g. [`pdm::PdmError::RetriesExhausted`]) from the
    /// underlying run readers propagates here.
    pub fn try_next(&mut self) -> Result<Option<R>> {
        if self.at == self.len && !self.take_batch()? {
            return Ok(None);
        }
        let r = self.bufs[self.cur][self.at].clone();
        self.at += 1;
        Ok(Some(r))
    }

    /// Every record of the current batch not yet handed out — or of the next
    /// batch, if none is left — at once; `None` once the merge is drained.
    fn next_batch(&mut self) -> Result<Option<&[R]>> {
        if self.at == self.len && !self.take_batch()? {
            return Ok(None);
        }
        let from = std::mem::replace(&mut self.at, self.len);
        Ok(Some(&self.bufs[self.cur][from..self.len]))
    }

    /// Take and merge the next batch; `false` once every source is drained.
    fn take_batch(&mut self) -> Result<bool> {
        let less = self.less;
        (self.len, self.at) = (0, 0);
        if self.live.is_empty() {
            return Ok(false);
        }
        let cap = self.cap;
        let w = 1 + (cap - 1) / self.live.len();
        let recut = std::mem::replace(&mut self.w, w) != w;

        // Cut the windows that moved, reading the next block of a source
        // whose block is spent — or, spanning, holds fewer than `w`.
        let fill = if self.span { w } else { 1 };
        for win in self.live.iter_mut().filter(|win| win.stale || recut) {
            let view = self.src.view(win.src, fill)?;
            win.len = w.min(view.len());
            win.end = view[win.len - 1].clone();
            win.stale = false;
        }

        // The splitter: the smallest window end.  Sources come in index
        // order, so a later end precedes only when strictly smaller.
        let mut split = &self.live[0];
        for win in &self.live[1..] {
            if less(&win.end, &split.end) {
                split = win;
            }
        }
        let (si, s) = (split.src, split.end.clone());

        // Every source's prefix up to the splitter, laid out in source
        // order.  Another source's window ends past the splitter, so its
        // prefix lies below that end.
        let batch = &mut self.bufs[0];
        batch.clear();
        self.ends.clear();
        let mut gallop = false;
        let mut drained = false;
        for win in self.live.iter_mut() {
            let view = self.src.view(win.src, 1)?;
            let p = if win.src == si {
                gallop = view.len() > win.len;
                win.len
            } else {
                let below = &view[..win.len - 1];
                prefix_len(below, |x| precedes(less, x, win.src, &s, si))
            };
            if p > 0 {
                batch.extend_from_slice(&view[..p]);
                self.src.consume(win.src, p);
                self.ends.push(batch.len());
                win.stale = true;
                drained |= self.src.drained(win.src);
            }
        }
        let in_pieces = batch.len();
        if gallop && in_pieces < cap {
            // Every record after the splitter in its own source exceeds every
            // piece, so a gallop is appended after the merge, not merged.
            let more = self.gallop(si, cap - in_pieces)?;
            self.bufs[0].extend_from_slice(&self.src.view(si, 1)?[..more]);
            self.src.consume(si, more);
            drained |= self.src.drained(si);
        }
        if drained {
            let src = &self.src;
            self.live.retain(|win| !src.drained(win.src));
        }

        let [batch, scratch] = &mut self.bufs;
        if scratch.len() < batch.len() {
            scratch.extend_from_slice(&batch[scratch.len()..]);
        }
        self.len = batch.len();
        self.cur = merge_pieces(&mut self.bufs, &mut self.ends, less);
        if self.cur == 1 {
            let [batch, merged_into] = &mut self.bufs;
            merged_into[in_pieces..self.len].clone_from_slice(&batch[in_pieces..]);
        }
        Ok(true)
    }

    /// How many of source `si`'s next buffered records, at most `room`, the
    /// batch takes after the splitter: those that precede every record
    /// another source has left.  Its next record is checked against the
    /// others' heads one at a time, so on unsorted input — where it seldom
    /// passes — this costs a comparison or two, not one per source.
    fn gallop(&mut self, si: usize, room: usize) -> Result<usize> {
        let less = self.less;
        let x = self.src.view(si, 1)?[0].clone();
        let mut head: Option<(usize, R)> = None;
        for win in self.live.iter().filter(|win| win.src != si) {
            let Some(next) = self.src.view(win.src, 1)?.first() else {
                continue;
            };
            if !precedes(less, &x, si, next, win.src) {
                return Ok(0);
            }
            if head.as_ref().is_none_or(|(_, h)| less(next, h)) {
                head = Some((win.src, next.clone()));
            }
        }
        let view = self.src.view(si, 1)?;
        let rest = &view[1..room.min(view.len())];
        Ok(1 + match &head {
            Some((hi, h)) => prefix_len(rest, |y| precedes(less, y, si, h, *hi)),
            None => rest.len(),
        })
    }
}

/// Whether record `a` of source `i` comes before record `b` of source
/// `j ≠ i` in the merge: one `less` call, ties to the lower source.
#[inline]
fn precedes<R, F: Fn(&R, &R) -> bool>(less: F, a: &R, i: usize, b: &R, j: usize) -> bool {
    if i < j {
        !less(b, a)
    } else {
        less(a, b)
    }
}

/// How many records at the front of `v` satisfy `pred`, which holds on a
/// prefix: doubling from the front, then bisecting — one call when the first
/// record fails, `≈ 2·log₂ n` for a prefix of `n`.
fn prefix_len<R>(v: &[R], pred: impl Fn(&R) -> bool) -> usize {
    let (mut lo, mut step) = (0, 1);
    while lo + step <= v.len() && pred(&v[lo + step - 1]) {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step - 1).min(v.len());
    lo + v[lo..hi].partition_point(pred)
}

/// Merge the sorted pieces of `bufs[0]` that end at `ends`, pairwise and
/// left to right, a level at a time, between the two buffers (`bufs[1]` is
/// at least as long); returns the buffer that holds the result.  The left
/// piece wins ties, so pieces laid out in source order merge stably.
fn merge_pieces<R: Clone, F: Fn(&R, &R) -> bool + Copy>(
    bufs: &mut [Vec<R>; 2],
    ends: &mut Vec<usize>,
    less: F,
) -> usize {
    let mut cur = 0;
    while ends.len() > 1 {
        let [a, b] = &mut *bufs;
        let (from, to) = if cur == 0 { (a, b) } else { (b, a) };
        let mut start = 0;
        let pairs = ends.len().div_ceil(2);
        for pair in 0..pairs {
            let mid = ends[2 * pair];
            let end = ends.get(2 * pair + 1).copied().unwrap_or(mid);
            merge_two(
                &from[start..mid],
                &from[mid..end],
                &mut to[start..end],
                less,
            );
            ends[pair] = end;
            start = end;
        }
        ends.truncate(pairs);
        cur ^= 1;
    }
    cur
}

/// Merge sorted `a` and `b` into `out`, exactly as long as both, stably:
/// `a`'s record goes first unless `b`'s is strictly smaller.  No branch
/// depends on the data: the record moved is a select, and each side's
/// cursor advances by the comparison's outcome.
///
/// The merge works from both ends at once, in rounds of `s` steps, `s`
/// half the shorter input's records left: each step moves the smallest
/// record to the front (`a` wins ties) and the largest to the back (`b`
/// wins ties), one `less` call each.  A round takes at most `2s` records
/// from either input, so it tests no end, and the two ends are independent
/// chains the CPU overlaps.  The few records left in the middle merge
/// front to back.
pub(crate) fn merge_two<R: Clone, F: Fn(&R, &R) -> bool>(a: &[R], b: &[R], out: &mut [R], less: F) {
    let (mut i, mut j, mut ia, mut jb) = (0, 0, a.len(), b.len());
    loop {
        let s = (ia - i).min(jb - j) / 2;
        if s == 0 {
            break;
        }
        for _ in 0..s {
            let take_b = less(&b[j], &a[i]);
            out[i + j] = select_unpredictable(take_b, &b[j], &a[i]).clone();
            i += usize::from(!take_b);
            j += usize::from(take_b);
            let take_a = less(&b[jb - 1], &a[ia - 1]);
            out[ia + jb - 1] = select_unpredictable(take_a, &a[ia - 1], &b[jb - 1]).clone();
            ia -= usize::from(take_a);
            jb -= usize::from(!take_a);
        }
    }
    let (a, b, out) = (&a[i..ia], &b[j..jb], &mut out[i + j..ia + jb]);
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let take_b = less(&b[j], &a[i]);
        out[i + j] = select_unpredictable(take_b, &b[j], &a[i]).clone();
        i += usize::from(!take_b);
        j += usize::from(take_b);
    }
    let mid = a.len() + j;
    out[i + j..mid].clone_from_slice(&a[i..]);
    out[mid..].clone_from_slice(&b[j..]);
}

/// Sort `input` and hand the *final merge pass* to `consume` as a pull
/// stream instead of writing an output array — pipeline fusion in the PODS
/// 1998 cost model.
///
/// Versus [`merge_sort_by`] followed by a scan of the result, this saves
/// exactly one output-write pass plus one re-read pass (`2·⌈N/B⌉` transfers)
/// whenever the final stage actually merges (two or more runs reach it).
/// An input that fits one load is streamed from memory: at most `M − B`
/// records are never written, and a larger one writes and re-reads only
/// the prefix its resident tail cannot hold ([`bounds::resident_tail`]).
/// Intermediate merge passes (when the run count exceeds the fan-in `k`)
/// still materialize, exactly as in [`merge_sort_by`]; only the last pass
/// fuses.
///
/// Read-ahead and per-disk overlap apply to the streamed pass unchanged,
/// so the record sequence is identical to the materialized sort's output
/// for every configuration.
///
/// ```
/// use em_core::{EmConfig, ExtVec};
/// use emsort::{merge_sort_streaming, SortConfig};
///
/// let cfg = EmConfig::new(512, 8);
/// let device = cfg.ram_disk();
/// let input = ExtVec::from_slice(device, &[5u64, 1, 4, 2, 3])?;
/// let collected = merge_sort_streaming(
///     &input,
///     &SortConfig::new(cfg.mem_records::<u64>()),
///     |a, b| a < b,
///     |stream| {
///         let mut out = Vec::new();
///         while let Some(r) = stream.try_next()? {
///             out.push(r);
///         }
///         Ok(out)
///     },
/// )?;
/// assert_eq!(collected, vec![1, 2, 3, 4, 5]);
/// # Ok::<(), pdm::PdmError>(())
/// ```
pub fn merge_sort_streaming<R, F, T, C>(
    input: &ExtVec<R>,
    cfg: &SortConfig,
    less: F,
    consume: C,
) -> Result<T>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy + Send,
    C: FnOnce(&mut SortedStream<'_, R, F>) -> Result<T>,
{
    if input.is_empty() {
        return merge_runs_streaming(&[], &MemBudget::new(cfg.mem_records), cfg, less, consume);
    }
    // Intermediate outputs are re-merged later, so streaming them would buy
    // nothing — fusion only ever applies to the last pass.
    form(input, cfg, false, less)?.stream(cfg, less, consume)
}

/// Producer-side pipeline fusion: a sink that forms sorted runs *directly*
/// from pushed records, then merges them — skipping the unsorted
/// materialization that a "write it out, then sort it" pipeline pays.
///
/// A conventional pipeline stage costs, per `⌈N/B⌉`-block payload: write
/// the unsorted array (1 scan), run formation (2 scans), final merge
/// (2 scans), and the consumer's re-read (1 scan).  `SortingWriter` keeps
/// the current chunk of `M` records in memory, sorts and writes each chunk
/// as a run the moment it fills, and hands the final merge to the consumer
/// as a pull stream ([`SortingWriter::finish_streaming`]) — 2 scans total
/// when run formation's output fits one merge stage.  Both ends of the sort
/// are fused: the unsorted write + re-read *and* the sorted write + re-read
/// disappear.
///
/// [`SortingWriter::finish_sorted`] materializes the result instead, for
/// callers that keep the sorted array; only the producer side fuses then.
///
/// The record sequence — including the order of ties under a partial key —
/// is identical to the unfused pipeline's [`merge_sort_by`], the stable
/// sort of the push sequence whenever the loads fit one merge.  Chunks are
/// taken in push order (the
/// writer cannot know `N` up front, so its short chunk comes last, where
/// [`merge_sort_by`] loads it first); a chunk is spilled when the next
/// record arrives, so the last one is always still in memory at `finish_*`,
/// and when the spilled runs fit one merge its sorted tail is merged from
/// memory ([`bounds::resident_tail`]).
///
/// Memory too small to merge — under the `(k+1)·B` records one merge
/// charges — is [`PdmError::MemoryExceeded`] from the [`push`](Self::push)
/// that would spill the first run, before anything is written.
///
/// ```
/// use em_core::EmConfig;
/// use emsort::{SortConfig, SortingWriter};
///
/// let cfg = EmConfig::new(512, 8);
/// let device = cfg.ram_disk();
/// let sort_cfg = SortConfig::new(cfg.mem_records::<u64>());
/// let mut w = SortingWriter::new(device, &sort_cfg, |a: &u64, b: &u64| a < b);
/// for x in [5u64, 1, 4, 2, 3] {
///     w.push(x)?;
/// }
/// let collected = w.finish_streaming(|stream| {
///     let mut out = Vec::new();
///     while let Some(r) = stream.try_next()? {
///         out.push(r);
///     }
///     Ok(out)
/// })?;
/// assert_eq!(collected, vec![1, 2, 3, 4, 5]);
/// # Ok::<(), pdm::PdmError>(())
/// ```
pub struct SortingWriter<R: Record, F> {
    device: SharedDevice,
    cfg: SortConfig,
    less: F,
    /// The chunk being filled and `spill_sorted`'s merge scratch.
    bufs: [Vec<R>; 2],
    runs: Vec<ExtVec<R>>,
    budget: Arc<MemBudget>,
    write_behind: usize,
    /// Holds the chunk's `M` records against `budget` until the last chunk
    /// is formed, mirroring run formation's charge; the merge charges what
    /// stays resident of it.
    _charge: BudgetGuard,
}

impl<R, F> SortingWriter<R, F>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy + Send,
{
    /// A sink sorting into `device` under `cfg`'s budget and overlap.
    /// `cfg.run_formation` is ignored: records arrive by push, so runs are
    /// load-sorted chunks by construction.
    pub fn new(device: SharedDevice, cfg: &SortConfig, less: F) -> Self {
        let cfg = SortConfig {
            run_formation: crate::RunFormation::LoadSort,
            ..*cfg
        };
        // Pushed records give no `N`, so no widest merge deepens the writer.
        let (_, reserve, ov) = allowance(cfg.overlap, 0, device.stream_lanes());
        let budget =
            MemBudget::new(cfg.mem_records + reserve * (device.block_size() / R::BYTES).max(1));
        let charge = budget.charge(cfg.mem_records);
        SortingWriter {
            device,
            cfg,
            less,
            bufs: Default::default(),
            runs: Vec::new(),
            budget,
            write_behind: ov.write_behind,
            _charge: charge,
        }
    }

    /// Runs spilled to the device so far.  Increases by one each time
    /// [`push`](Self::push) takes a record past a full `M`-record chunk.
    pub fn runs_spilled(&self) -> usize {
        self.runs.len()
    }

    /// Add a record; the in-memory chunk, once it holds `M` records, is
    /// sorted and spilled as a run when the next record arrives.
    pub fn push(&mut self, r: R) -> Result<()> {
        if self.bufs[0].len() >= self.cfg.mem_records {
            // More than one load: the sort will merge.
            check_memory(&self.cfg, self.per_block(), true)?;
            self.spill(0)?;
        }
        self.bufs[0].push(r);
        Ok(())
    }

    fn per_block(&self) -> usize {
        (self.device.block_size() / R::BYTES).max(1)
    }

    /// Sort the chunk and spill all of it but its last `keep` records.
    fn spill(&mut self, keep: usize) -> Result<()> {
        spill_sorted(
            &mut self.bufs,
            keep,
            self.less,
            &self.device,
            self.write_behind,
            &self.budget,
            &mut self.runs,
        )
    }

    /// Spill the last chunk but the resident tail a `materialized` (or
    /// streamed) sort of these runs can hold.
    fn formed(&mut self, materialized: bool) -> Result<Formed<R>> {
        let per_block = self.per_block();
        let loads = self.runs.len() as u64 + u64::from(!self.bufs[0].is_empty());
        let keep = bounds::resident_tail(
            loads,
            self.bufs[0].len(),
            self.cfg.mem_records,
            per_block,
            self.cfg.effective_fan_in(per_block),
            materialized,
        );
        self.spill(keep)?;
        // The merge scratch is freed here, not held through the merge.
        let [tail, _] = std::mem::take(&mut self.bufs);
        Ok(Formed::new(
            std::mem::take(&mut self.runs),
            tail,
            self.device.clone(),
            per_block,
            &self.cfg,
        ))
    }

    /// Merge the spilled runs down and hand the final `≤ k`-way merge to
    /// `consume` as a pull stream — both ends of the sort fused.
    pub fn finish_streaming<T, C>(mut self, consume: C) -> Result<T>
    where
        C: FnOnce(&mut SortedStream<'_, R, F>) -> Result<T>,
    {
        let formed = self.formed(false)?;
        drop(self._charge);
        formed.stream(&self.cfg, self.less, consume)
    }

    /// Merge the spilled runs into one materialized sorted array — producer
    /// fusion only, for callers that keep the result.
    pub fn finish_sorted(mut self) -> Result<ExtVec<R>> {
        let formed = self.formed(true)?;
        drop(self._charge);
        formed.into_sorted(&self.cfg, self.less)
    }
}

/// Stream one k-way merge of already-sorted runs to `consume` instead of
/// writing it out — the run-merge counterpart of [`merge_sort_streaming`],
/// for callers that keep their own runs (e.g. an external priority queue
/// refilling from its spilled runs).
///
/// `parts` pairs each run with the record offset to start merging from, so a
/// partially-consumed run joins the merge at its current position.  Charges
/// `(k+1)·B` records against `budget`; read-ahead follows `cfg` exactly as
/// in [`merge_runs_with`], and reading the streamed records costs
/// one read of every remaining input block and **zero** writes.
pub fn merge_runs_streaming<R, F, T, C>(
    parts: &[(&ExtVec<R>, u64)],
    budget: &Arc<MemBudget>,
    cfg: &SortConfig,
    less: F,
    consume: C,
) -> Result<T>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy,
    C: FnOnce(&mut SortedStream<'_, R, F>) -> Result<T>,
{
    let b = parts.first().map_or(1, |(r, _)| r.per_block());
    let mut stream = SortedStream::build(parts, Vec::new(), b, budget, cfg.overlap, false, less)?;
    consume(&mut stream)
}

#[cfg(test)]
impl<R: Record, F: Fn(&R, &R) -> bool + Copy> SortedStream<'_, R, F> {
    /// Peek at the next record without consuming it.
    fn peek(&mut self) -> Result<Option<&R>> {
        if self.at == self.len && !self.take_batch()? {
            return Ok(None);
        }
        Ok(self.bufs[self.cur].get(self.at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunFormation;
    use em_core::hash::Draws;
    use em_core::{bounds, EmConfig};

    fn device_b8() -> pdm::SharedDevice {
        EmConfig::new(64, 8).ram_disk() // B = 8 u64 records per block
    }

    fn random_input(device: &pdm::SharedDevice, n: u64, seed: u64) -> (ExtVec<u64>, Vec<u64>) {
        let mut rng = Draws::new(seed);
        let data: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        (ExtVec::from_slice(device.clone(), &data).unwrap(), data)
    }

    #[test]
    fn sorts_random_input() {
        let device = device_b8();
        let (input, mut data) = random_input(&device, 5000, 1);
        let out = merge_sort(&input, &SortConfig::new(64)).unwrap();
        data.sort_unstable();
        assert_eq!(out.to_vec().unwrap(), data);
    }

    #[test]
    fn sorts_with_replacement_selection() {
        let device = device_b8();
        let (input, mut data) = random_input(&device, 5000, 2);
        let cfg = SortConfig::new(64).with_run_formation(RunFormation::ReplacementSelection);
        let out = merge_sort(&input, &cfg).unwrap();
        data.sort_unstable();
        assert_eq!(out.to_vec().unwrap(), data);
    }

    #[test]
    fn already_sorted_and_reverse_inputs() {
        let device = device_b8();
        for data in [
            (0u64..1000).collect::<Vec<_>>(),
            (0u64..1000).rev().collect(),
        ] {
            let input = ExtVec::from_slice(device.clone(), &data).unwrap();
            let out = merge_sort(&input, &SortConfig::new(64)).unwrap();
            let mut expect = data.clone();
            expect.sort_unstable();
            assert_eq!(out.to_vec().unwrap(), expect);
        }
    }

    #[test]
    fn duplicate_heavy_input() {
        let device = device_b8();
        let mut rng = Draws::new(3);
        let data: Vec<u64> = (0..3000).map(|_| rng.below(4)).collect();
        let input = ExtVec::from_slice(device, &data).unwrap();
        let out = merge_sort(&input, &SortConfig::new(48)).unwrap();
        let mut expect = data.clone();
        expect.sort_unstable();
        assert_eq!(out.to_vec().unwrap(), expect);
    }

    #[test]
    fn small_inputs() {
        let device = device_b8();
        for n in [0u64, 1, 2, 7, 8, 9] {
            let data: Vec<u64> = (0..n).rev().collect();
            let input = ExtVec::from_slice(device.clone(), &data).unwrap();
            let out = merge_sort(&input, &SortConfig::new(32)).unwrap();
            let mut expect = data.clone();
            expect.sort_unstable();
            assert_eq!(out.to_vec().unwrap(), expect, "n={n}");
        }
    }

    #[test]
    fn custom_comparator_sorts_descending() {
        let device = device_b8();
        let (input, mut data) = random_input(&device, 500, 4);
        let out = merge_sort_by(&input, &SortConfig::new(64), |a, b| a > b).unwrap();
        data.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(out.to_vec().unwrap(), data);
    }

    #[test]
    fn io_matches_pass_prediction() {
        let device = device_b8();
        let b = 8usize;
        let m = 64usize; // m/B = 8 blocks → fan-in 7
        let n = 10_000u64;
        let (input, _) = random_input(&device, n, 5);
        let before = device.stats().snapshot();
        let out = merge_sort(&input, &SortConfig::new(m)).unwrap();
        let d = device.stats().snapshot().since(&before);
        let k = SortConfig::new(m).effective_fan_in(b);
        let predicted = bounds::merge_sort_ios(n, m, b, k);
        let measured = d.total() as f64;
        // Partial run blocks add a little slack; stay within 10%.
        assert!(
            (measured - predicted).abs() / predicted < 0.10,
            "measured {measured} vs predicted {predicted}"
        );
        assert_eq!(out.len(), n);
    }

    #[test]
    fn fan_in_override_adds_passes() {
        let device = device_b8();
        let (input, _) = random_input(&device, 4096, 6);
        let m = 64;
        let wide = {
            let before = device.stats().snapshot();
            merge_sort(&input, &SortConfig::new(m)).unwrap();
            device.stats().snapshot().since(&before).total()
        };
        let narrow = {
            let before = device.stats().snapshot();
            merge_sort(&input, &SortConfig::new(m).with_fan_in(2)).unwrap();
            device.stats().snapshot().since(&before).total()
        };
        assert!(
            narrow as f64 > wide as f64 * 1.5,
            "binary merging should need clearly more I/Os: narrow={narrow} wide={wide}"
        );
    }

    #[test]
    fn fan_in_override_below_two_is_clamped_to_binary_merging() {
        let device = device_b8();
        let (input, mut data) = random_input(&device, 2000, 9);
        data.sort_unstable();
        for k in [0, 1] {
            let cfg = SortConfig::new(64).with_fan_in(k);
            assert_eq!(cfg.effective_fan_in(8), 2);
            assert_eq!(merge_sort(&input, &cfg).unwrap().to_vec().unwrap(), data);
        }
        // Overrides of 2 and up are taken as given, up to M/B − 1.
        for (k, want) in [(2, 2), (5, 5), (7, 7), (8, 7), (100, 7)] {
            assert_eq!(SortConfig::new(64).with_fan_in(k).effective_fan_in(8), want);
        }
    }

    #[test]
    fn intermediate_runs_are_freed() {
        let device = device_b8();
        let (input, _) = random_input(&device, 4096, 7);
        let blocks_before = device.allocated_blocks();
        let out = merge_sort(&input, &SortConfig::new(64).with_fan_in(2)).unwrap();
        let blocks_after = device.allocated_blocks();
        // Only the output should remain beyond the input.
        assert_eq!(blocks_after - blocks_before, out.num_blocks() as u64);
    }

    #[test]
    fn sorts_tuples_by_key() {
        let device = EmConfig::new(64, 8).ram_disk();
        let mut rng = Draws::new(8);
        let data: Vec<(u64, u64)> = (0..1000u64).map(|i| (rng.below(100), i)).collect();
        let input = ExtVec::from_slice(device, &data).unwrap();
        let out = merge_sort_by(&input, &SortConfig::new(64), |a, b| a.0 < b.0).unwrap();
        let v = out.to_vec().unwrap();
        assert!(v.windows(2).all(|w| w[0].0 <= w[1].0));
        let mut expect = data;
        expect.sort_by_key(|p| p.0);
        let mut got = v;
        got.sort_by_key(|p| p.0); // same multiset check irrespective of tie order
        expect.sort_by_key(|p| (p.0, p.1));
        got.sort_by_key(|p| (p.0, p.1));
        assert_eq!(got, expect);
    }

    /// Every merge read over runs a writer produced is some run's own
    /// read-ahead, on every lane of an overlapped independent array, and
    /// every block read ahead is consumed.
    #[test]
    fn writer_produced_runs_read_ahead_on_every_lane() {
        let less = |a: &u64, b: &u64| a < b;
        for d in [2, 4] {
            let device = independent_overlapped(d);
            let (input, mut data) = random_input(&device, 4000, 11);
            let cfg = SortConfig::new(64).with_overlap(OverlapConfig::symmetric(2));
            let formed = form(&input, &cfg, true, less).unwrap();
            // The window holds only the merges.
            let before = device.stats().snapshot();
            let out = formed.into_sorted(&cfg, less).unwrap();
            let io = device.stats().snapshot().since(&before);
            data.sort_unstable();
            assert_eq!(out.to_vec().unwrap(), data, "D = {d}");
            assert!(io.prefetched() > 0, "D = {d}");
            assert_eq!(io.prefetched(), io.reads(), "D = {d}: a demand read");
            assert_eq!(io.prefetch_hits(), io.prefetched(), "D = {d}");
            assert_eq!(io.prefetch_wasted(), 0, "D = {d}");
            for lane in 0..d {
                assert!(io.reads_on(lane) > 0, "D = {d}: lane {lane} read nothing");
            }
        }
    }

    fn independent_overlapped(d: usize) -> pdm::SharedDevice {
        use pdm::{DiskArray, IoMode, Placement};
        DiskArray::new_ram_with(d, 64, Placement::Independent, IoMode::Overlapped)
    }

    fn drain<R: Record, F: Fn(&R, &R) -> bool + Copy>(
        s: &mut super::SortedStream<'_, R, F>,
    ) -> Result<Vec<R>> {
        let mut out = Vec::new();
        while let Some(r) = s.try_next()? {
            out.push(r);
        }
        Ok(out)
    }

    #[test]
    fn streaming_matches_materialized_sequence() {
        let device = device_b8();
        let (input, mut data) = random_input(&device, 6000, 41);
        data.sort_unstable();
        let got = merge_sort_streaming(&input, &SortConfig::new(64), |a, b| a < b, drain).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn streaming_saves_exactly_the_final_pass() {
        let device = device_b8();
        let (input, _) = random_input(&device, 6000, 42);
        let cfg = SortConfig::new(64);
        // Materialized sort + one consumer scan of the output.
        let before = device.stats().snapshot();
        let sorted = merge_sort(&input, &cfg).unwrap();
        let materialized: Vec<u64> = {
            let mut out = Vec::new();
            let mut r = sorted.reader();
            while let Some(x) = r.try_next().unwrap() {
                out.push(x);
            }
            out
        };
        let d_mat = device.stats().snapshot().since(&before);
        let out_blocks = sorted.num_blocks() as u64;
        sorted.free().unwrap();
        // Fused sort: the consumer reads the final merge directly.
        let before = device.stats().snapshot();
        let streamed = merge_sort_streaming(&input, &cfg, |a, b| a < b, drain).unwrap();
        let d_str = device.stats().snapshot().since(&before);
        assert_eq!(streamed, materialized);
        assert_eq!(
            d_str.total() + 2 * out_blocks,
            d_mat.total(),
            "streaming must save exactly the output write + re-read"
        );
        assert_eq!(d_str.writes() + out_blocks, d_mat.writes());
        assert_eq!(d_str.reads() + out_blocks, d_mat.reads());
    }

    #[test]
    fn sorting_writer_matches_unfused_pipeline_tie_order() {
        // Key-only comparator over (key, seq) pairs: the fused writer must
        // order ties exactly as the materialize-then-sort pipeline does.
        let device = device_b8();
        let mut rng = Draws::new(46);
        let data: Vec<(u64, u64)> = (0..3000u64).map(|i| (rng.below(8), i)).collect();
        let less = |a: &(u64, u64), b: &(u64, u64)| a.0 < b.0;
        let cfg = SortConfig::new(64);
        let mut fused = SortingWriter::new(device.clone(), &cfg, less);
        for &r in &data {
            fused.push(r).unwrap();
        }
        let a = fused.finish_sorted().unwrap();
        let unsorted = ExtVec::from_slice(device.clone(), &data).unwrap();
        let b = merge_sort_by(&unsorted, &cfg, less).unwrap();
        assert_eq!(a.to_vec().unwrap(), b.to_vec().unwrap());
        a.free().unwrap();
        b.free().unwrap();
    }

    #[test]
    fn sorting_writer_fuses_both_ends_of_the_sort() {
        let device = device_b8();
        let mut rng = Draws::new(47);
        let data: Vec<u64> = (0..6000u64).map(|_| rng.next_u64()).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        let cfg = SortConfig::new(64);
        // The unfused pipeline by hand, metered per phase: write the
        // unsorted array, sort it, scan the sorted output.
        let before = device.stats().snapshot();
        let mut w = ExtVecWriter::new(device.clone());
        for &r in &data {
            w.push(r).unwrap();
        }
        let unsorted = w.finish().unwrap();
        let mid_write = device.stats().snapshot();
        let sorted = merge_sort(&unsorted, &cfg).unwrap();
        let mid_sort = device.stats().snapshot();
        {
            let mut r = sorted.reader();
            while r.try_next().unwrap().is_some() {}
        }
        let d_unsorted = mid_write.since(&before);
        let d_sort = mid_sort.since(&mid_write);
        let d_scan = device.stats().snapshot().since(&mid_sort);
        sorted.free().unwrap();
        unsorted.free().unwrap();
        // Fused: same records through a SortingWriter, consumer pulls the
        // final merge.
        let before = device.stats().snapshot();
        let mut sw = SortingWriter::new(device.clone(), &cfg, |a: &u64, b: &u64| a < b);
        for &r in &data {
            sw.push(r).unwrap();
        }
        let got = sw.finish_streaming(drain).unwrap();
        let d_fused = device.stats().snapshot().since(&before);
        assert_eq!(got, expect);
        // Producer fusion drops the unsorted write and its re-read; consumer
        // fusion drops the sorted write and its re-read.  Everything else is
        // transfer-identical.
        assert_eq!(
            d_fused.writes() + d_scan.reads(),
            d_sort.writes(),
            "fused writes must be the sort's minus the final output write"
        );
        assert_eq!(
            d_fused.reads() + d_unsorted.writes(),
            d_sort.reads(),
            "fused reads must be the sort's minus the unsorted re-read"
        );
    }

    #[test]
    fn sorting_writer_empty_and_in_memory_inputs() {
        let device = device_b8();
        let sw = SortingWriter::new(device.clone(), &SortConfig::new(64), |a: &u64, b| a < b);
        let got = sw.finish_streaming(drain).unwrap();
        assert!(got.is_empty());
        let sw = SortingWriter::new(device.clone(), &SortConfig::new(64), |a: &u64, b| a < b);
        let out = sw.finish_sorted().unwrap();
        assert!(out.to_vec().unwrap().is_empty());
        // A single partial chunk: one run, streamed straight back.
        let mut sw = SortingWriter::new(device, &SortConfig::new(64), |a: &u64, b| a < b);
        for x in (0..40u64).rev() {
            sw.push(x).unwrap();
        }
        let got = sw.finish_streaming(drain).unwrap();
        assert_eq!(got, (0..40).collect::<Vec<u64>>());
    }

    #[test]
    fn streaming_single_run_and_empty_inputs() {
        let device = device_b8();
        // Fits in memory: one run, streamed back as a plain scan.
        let data: Vec<u64> = (0..40u64).rev().collect();
        let input = ExtVec::from_slice(device.clone(), &data).unwrap();
        let got = merge_sort_streaming(&input, &SortConfig::new(64), |a, b| a < b, drain).unwrap();
        assert_eq!(got, (0..40).collect::<Vec<u64>>());
        let empty: ExtVec<u64> = ExtVec::new(device);
        let got = merge_sort_streaming(&empty, &SortConfig::new(64), |a, b| a < b, drain).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn streaming_frees_every_run() {
        let device = device_b8();
        let (input, _) = random_input(&device, 4096, 43);
        let blocks_before = device.allocated_blocks();
        merge_sort_streaming(
            &input,
            &SortConfig::new(64).with_fan_in(2),
            |a, b| a < b,
            |s| {
                while s.try_next()?.is_some() {}
                Ok(())
            },
        )
        .unwrap();
        // Nothing is materialized, so nothing beyond the input remains.
        assert_eq!(device.allocated_blocks(), blocks_before);
    }

    #[test]
    fn streaming_peek_does_not_consume() {
        let device = device_b8();
        let (input, mut data) = random_input(&device, 1000, 44);
        data.sort_unstable();
        let got = merge_sort_streaming(
            &input,
            &SortConfig::new(64),
            |a, b| a < b,
            |s| {
                let mut out = Vec::new();
                while let Some(&next) = s.peek()? {
                    assert_eq!(s.peek()?.copied(), Some(next), "peek is idempotent");
                    assert_eq!(s.try_next()?, Some(next));
                    out.push(next);
                }
                assert!(s.try_next()?.is_none());
                Ok(out)
            },
        )
        .unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn merge_runs_streaming_with_offsets() {
        let device = device_b8();
        let a = ExtVec::from_slice(device.clone(), &(0u64..50).collect::<Vec<_>>()).unwrap();
        let b = ExtVec::from_slice(device.clone(), &(25u64..75).collect::<Vec<_>>()).unwrap();
        let budget = MemBudget::new(256);
        // Start run `a` at offset 30: only 30..50 takes part.
        let parts = [(&a, 30u64), (&b, 0u64)];
        let mut expect: Vec<u64> = (30u64..50).chain(25..75).collect();
        expect.sort_unstable();
        // Depth 2 enters the runs mid-way with read-ahead as well.
        for depth in [0, 2] {
            let cfg = SortConfig::new(64).with_overlap(OverlapConfig::symmetric(depth));
            let before = device.stats().snapshot();
            let got = merge_runs_streaming(&parts, &budget, &cfg, |x, y| x < y, drain).unwrap();
            let d = device.stats().snapshot().since(&before);
            assert_eq!(got, expect, "depth {depth}");
            assert_eq!(d.prefetched() > 0, depth > 0, "depth {depth}");
            assert_eq!(d.prefetch_hits(), d.prefetched(), "depth {depth}");
            assert_eq!(d.prefetch_wasted(), 0, "depth {depth}");
        }
    }

    #[test]
    fn merge_runs_with_respects_config() {
        let device = device_b8();
        let runs: Vec<ExtVec<u64>> = (0..4u64)
            .map(|i| {
                let data: Vec<u64> = (0..100).map(|j| j * 4 + i).collect();
                ExtVec::from_slice(device.clone(), &data).unwrap()
            })
            .collect();
        let cfg = SortConfig::new(64).with_overlap(OverlapConfig::symmetric(2));
        let budget = MemBudget::new(64 + 4 * 2 * 8 + 2 * 8);
        let out = merge_runs_with(&runs, &budget, &cfg, |a, b| a < b).unwrap();
        assert_eq!(out.to_vec().unwrap(), (0..400).collect::<Vec<u64>>());
    }

    /// The final merge holds the resident tail beside one block per disk
    /// run and one for the output or the consumer: `tail + (r+1)·B ≤ M`.
    /// 300 records at `M` = 64, `B` = 8 form five loads; the last keeps 16
    /// records and spills a 48-record prefix, so the merge fills `M`
    /// exactly.  Overlap adds only its own slack on top.
    #[test]
    fn the_resident_tail_is_charged_to_the_merge_budget() {
        let device = device_b8();
        let less = |a: &u64, b: &u64| a < b;
        let (input, mut data) = random_input(&device, 300, 48);
        data.sort_unstable();
        for depth in [0, 2] {
            let cfg = SortConfig::new(64).with_overlap(OverlapConfig::symmetric(depth));
            for materialized in [true, false] {
                let formed = form(&input, &cfg, materialized, less).unwrap();
                let (r, tail) = (formed.runs.len(), formed.tail.len());
                assert_eq!((r, tail), (5, 16), "depth {depth}");
                let budget = formed.budget.clone();
                let got = if materialized {
                    let out = formed.into_sorted(&cfg, less).unwrap();
                    out.to_vec().unwrap()
                } else {
                    formed.stream(&cfg, less, drain).unwrap()
                };
                assert_eq!(got, data);
                let held = tail + (r + 1) * 8;
                assert_eq!(held, 64);
                let hw = budget.high_water();
                assert!(held <= hw && hw <= budget.capacity(), "depth {depth}: {hw}");
                if depth == 0 {
                    assert_eq!((hw, budget.capacity()), (64, 64));
                }
            }
        }
    }

    /// The same merge on an overlapped independent array of `D` disks: its
    /// high water adds each run's read-ahead and, when it is materialized,
    /// the writer's write-behind, which mirrors the runs' read-ahead —
    /// `(r+1)·B + tail + (r·read_ahead + max(write_behind·D, r·read_ahead))·B`
    /// for `r` disk runs.
    #[test]
    fn the_read_ahead_and_the_write_behind_mirroring_it_are_charged_to_the_merge_budget() {
        let less = |a: &u64, b: &u64| a < b;
        let b = 8;
        for d in [2, 4] {
            let device = independent_overlapped(d);
            let (input, mut data) = random_input(&device, 300, 48);
            data.sort_unstable();
            let wide_writer = OverlapConfig {
                read_ahead: 1,
                write_behind: 3,
            };
            for ov in [OverlapConfig::symmetric(2), wide_writer] {
                let cfg = SortConfig::new(64).with_overlap(ov);
                for materialized in [true, false] {
                    let case = format!("D = {d}, {ov:?}, materialized {materialized}");
                    let formed = form(&input, &cfg, materialized, less).unwrap();
                    let (r, tail) = (formed.runs.len(), formed.tail.len());
                    assert_eq!((r, tail), (5, 16), "{case}");
                    let budget = formed.budget.clone();
                    let got = if materialized {
                        let out = formed.into_sorted(&cfg, less).unwrap();
                        out.to_vec().unwrap()
                    } else {
                        formed.stream(&cfg, less, drain).unwrap()
                    };
                    assert_eq!(got, data, "{case}");
                    let writer = if materialized {
                        (ov.write_behind * d).max(r * ov.read_ahead)
                    } else {
                        0
                    };
                    let want = (r + 1) * b + tail + (r * ov.read_ahead + writer) * b;
                    assert_eq!(budget.high_water(), want, "{case}");
                    // Declared at this widest merge's overlap, not the fan-in's.
                    let declared = 64 + (r * ov.read_ahead + merge_write_behind(ov, r, d)) * b;
                    assert_eq!(budget.capacity(), declared, "{case}");
                }
            }
        }
    }

    /// Merge in-memory `runs` through a `SortedStream` over `b`-record
    /// blocks.  Reads are synchronous: read-ahead is I/O scheduling, not
    /// merging.
    fn merge_with<T, F>(runs: &[Vec<T>], b: usize, less: F) -> Vec<T>
    where
        T: Record,
        F: Fn(&T, &T) -> bool + Copy,
    {
        let device = EmConfig::new(b * T::BYTES, 4).ram_disk();
        let cfg = SortConfig::new(4 * b).with_overlap(OverlapConfig::off());
        let runs: Vec<ExtVec<T>> = runs
            .iter()
            .map(|r| ExtVec::from_slice(device.clone(), r).unwrap())
            .collect();
        let parts: Vec<(&ExtVec<T>, u64)> = runs.iter().map(|r| (r, 0)).collect();
        let budget = MemBudget::new((runs.len() + 1) * b);
        merge_runs_streaming(&parts, &budget, &cfg, less, drain).unwrap()
    }

    /// [`merge_with`] at one-record windows, a few records a window and
    /// whole-run windows, which must agree.
    fn merge_all<T, F>(runs: &[Vec<T>], less: F) -> Vec<T>
    where
        T: Record + PartialEq + std::fmt::Debug,
        F: Fn(&T, &T) -> bool + Copy,
    {
        let out = merge_with(runs, 2, less);
        for b in [8, 64] {
            assert_eq!(merge_with(runs, b, less), out, "B = {b}");
        }
        out
    }

    /// The output of [`merge_with`] and the `less` calls it cost per record.
    fn merge_counting(runs: &[Vec<u64>], b: usize) -> (Vec<u64>, f64) {
        let calls = std::cell::Cell::new(0u64);
        let out = merge_with(runs, b, |x: &u64, y: &u64| {
            calls.set(calls.get() + 1);
            x < y
        });
        let per_record = calls.get() as f64 / out.len().max(1) as f64;
        (out, per_record)
    }

    fn ascending(a: &u32, b: &u32) -> bool {
        a < b
    }

    #[test]
    fn k1_single_run_drains_in_order() {
        assert_eq!(merge_all(&[vec![1, 2, 3]], ascending), vec![1, 2, 3]);
    }

    #[test]
    fn k2_interleaves() {
        let runs = [vec![1, 4, 6], vec![2, 3, 5]];
        assert_eq!(merge_all(&runs, ascending), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn empty_runs_are_skipped() {
        let runs = [vec![], vec![2, 4], vec![], vec![1, 3]];
        assert_eq!(merge_all(&runs, ascending), vec![1, 2, 3, 4]);
        assert!(merge_all(&[vec![], vec![]], ascending).is_empty());
    }

    #[test]
    fn descending_comparator() {
        let runs = [vec![9u32, 5, 1], vec![8, 4, 2]];
        assert_eq!(merge_all(&runs, |a, b| a > b), vec![9, 8, 5, 4, 2, 1]);
    }

    /// All-equal keys: the stable merge is all of run 0's records, then run
    /// 1's, and so on — a lower run keeps every tie until it is drained,
    /// across the splitter, the partitions and the gallop.
    #[test]
    fn duplicate_heavy_ties_resolve_by_run_index() {
        for k in [1u64, 2, 3, 7, 31, 32, 33] {
            let runs: Vec<Vec<(u64, u64)>> = (0..k).map(|run| vec![(7, run); 3]).collect();
            let tags: Vec<u64> = merge_all(&runs, |a, b| a.0 < b.0)
                .into_iter()
                .map(|r| r.1)
                .collect();
            let expect: Vec<u64> = (0..k).flat_map(|run| [run; 3]).collect();
            assert_eq!(tags, expect, "k = {k}");
        }
    }

    #[test]
    fn random_runs_match_sorted_reference() {
        let mut rng = Draws::new(11);
        for trial in 0..50 {
            let k: usize = 1 + rng.below(9) as usize;
            let runs: Vec<Vec<u32>> = (0..k)
                .map(|_| {
                    let len = rng.below(40);
                    let mut v: Vec<u32> = (0..len).map(|_| rng.below(100) as u32).collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            let mut expect = runs.concat();
            expect.sort_unstable();
            assert_eq!(merge_all(&runs, ascending), expect, "trial {trial}");
        }
    }

    /// Pin the merge's comparator count — `less` calls per merged record —
    /// at `b` records a block on the three inputs that matter, each against
    /// its ceiling: 31 random runs, 31 disjoint presorted runs (one source
    /// holds every batch's records), and two interleaved runs (every record
    /// changes run).
    fn assert_comparator_calls_per_record(b: usize, ceilings: [f64; 3]) {
        let mut rng = Draws::new(16);
        let len = (64 << 10) / 31;
        let random = (0..31)
            .map(|_| {
                let mut run: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
                run.sort_unstable();
                run
            })
            .collect();
        let disjoint = (0..31u64)
            .map(|i| (0..len as u64).map(|j| i * len as u64 + j).collect())
            .collect();
        let interleaved = (0..2u64)
            .map(|i| (0..32u64 << 10).map(|j| 2 * j + i).collect())
            .collect();
        let shapes: [(&str, Vec<Vec<u64>>); 3] = [
            ("31 random runs", random),
            ("31 disjoint presorted runs", disjoint),
            ("2 interleaved runs", interleaved),
        ];
        for ((shape, runs), ceiling) in shapes.into_iter().zip(ceilings) {
            let mut expect = runs.concat();
            expect.sort_unstable();
            let (out, per_record) = merge_counting(&runs, b);
            assert_eq!(out, expect, "{shape}");
            assert!(
                per_record <= ceiling,
                "B = {b}, {shape}: {per_record:.3} `less` calls per record, ceiling {ceiling}"
            );
        }
    }

    /// The merge's CPU floor as a count, at `sort_cpu`'s shape: `B` = 512,
    /// 31 runs, so `cap` = 4 096 and windows of 133 records, cut at their
    /// block's end — a batch takes ≈ 470 records.  A record costs the
    /// `⌈log₂ 31⌉` = 5 merge levels (a little less: a two-way merge stops
    /// comparing when one side runs out) plus `2·(live − 1)` splitter and
    /// search calls per batch; measured 5.25.  A presorted source gallops
    /// through its block (0.14); two interleaved runs are one two-way merge
    /// (1.02).
    #[test]
    fn sorted_stream_comparator_calls_per_record() {
        assert_comparator_calls_per_record(512, [6.0, 1.1, 2.0]);
    }

    /// A drained merge's windows run across block ends.  At `sort_cpu`'s
    /// shape — 31 random runs of 16 Ki records at `B` = 512 — `cap` is
    /// `32·512/6` = 2 730 and a window 86 records: 261 batches of 1 946
    /// records (1 067 of 476, at `cap` = 4 096, while windows stopped at
    /// their block's end), so the splitter and searches, `2·(live − 1)`
    /// calls a batch, nearly vanish beside the `⌈log₂ 31⌉` = 5 merge levels:
    /// 5.12 calls a record (5.32).  Every block is read and written once.
    #[test]
    fn a_drained_merge_takes_batches_across_block_ends() {
        let (k, b) = (31, 512);
        let mut rng = Draws::new(20);
        let device = EmConfig::new(b * 8, 4).ram_disk();
        let runs: Vec<ExtVec<u64>> = (0..k)
            .map(|_| {
                let mut run: Vec<u64> = (0..32 * b).map(|_| rng.next_u64()).collect();
                run.sort_unstable();
                ExtVec::from_slice(device.clone(), &run).unwrap()
            })
            .collect();
        let n = (k * 32 * b) as f64;
        let cfg = SortConfig::new((k + 1) * b).with_overlap(OverlapConfig::off());
        let budget = MemBudget::new((k + 1) * b);
        let parts: Vec<(&ExtVec<u64>, u64)> = runs.iter().map(|r| (r, 0)).collect();
        let less = |x: &u64, y: &u64| x < y;
        let mut stream =
            SortedStream::build(&parts, Vec::new(), b, &budget, cfg.overlap, true, less).unwrap();
        let cap = stream.cap;
        assert_eq!(cap, (k + 1) * b / 6);
        let mut batches = 0;
        while stream.next_batch().unwrap().is_some() {
            batches += 1;
        }
        drop(stream);
        let mean = n / batches as f64;
        assert!(
            mean >= cap as f64 / 2.0,
            "{batches} batches of {mean:.0} records, cap {cap}"
        );

        let calls = std::cell::Cell::new(0u64);
        let before = device.stats().snapshot();
        let out = merge_runs_with(&runs, &budget, &cfg, |x: &u64, y: &u64| {
            calls.set(calls.get() + 1);
            x < y
        })
        .unwrap();
        let io = device.stats().snapshot().since(&before);
        assert_eq!((io.reads(), io.writes()), (32 * k as u64, 32 * k as u64));
        let merged = out.to_vec().unwrap();
        assert!(merged.is_sorted() && merged.len() == n as usize);
        let per_record = calls.get() as f64 / n;
        assert!(
            per_record <= 5.25,
            "{per_record:.3} `less` calls per record"
        );
    }

    /// The short-block regime, `k ≈ B`: at `B` = 8 with 31 runs, `cap` = 64
    /// and windows of 3 records are mostly cut shorter by their block's end,
    /// so a batch takes about 7 records for the same `≈ 2·(live − 1)` = 60
    /// splitter and search calls: ≈ 60/7 + the merge's ≈ 2 levels, 10.8 a
    /// record on random runs.  A presorted source's gallop checks and bounds
    /// itself against every other head, `2·(live − 1)` more per block of 8:
    /// 7.3 as `live` falls from 31 to 1.  Two interleaved runs: 1.44.  The
    /// ceilings are these measured counts; the batch merge pays CPU here,
    /// never transfers.
    #[test]
    fn comparator_calls_per_record_at_tiny_blocks() {
        assert_comparator_calls_per_record(8, [10.9, 7.4, 1.44]);
    }

    /// `merge_two` against a reference stable merge for every pair of
    /// lengths up to 24, each length on both sides of a round's `s`, at key
    /// ranges from all-equal to nearly distinct.  Every record carries its
    /// source and index, so a tie broken the wrong way, a record taken by
    /// both ends or a slot left unwritten shows.  A merge makes at most
    /// `len_a + len_b − 1` `less` calls, none when a side is empty.
    #[test]
    fn merge_two_is_a_stable_merge_of_every_short_shape() {
        let mut rng = Draws::new(61);
        let mut run = |src: u64, len: usize, range: u64| {
            let mut keys: Vec<u64> = (0..len).map(|_| rng.below(range)).collect();
            keys.sort_unstable();
            (keys.into_iter().enumerate())
                .map(|(i, key)| (key, src, i as u64))
                .collect::<Vec<_>>()
        };
        for range in [1, 2, 4, 1000] {
            for len_a in 0..=24 {
                for len_b in 0..=24 {
                    let (a, b) = (run(0, len_a, range), run(1, len_b, range));
                    let mut expect = [a.clone(), b.clone()].concat();
                    expect.sort_by_key(|r| r.0);
                    let mut out = vec![(u64::MAX, 9, 0); len_a + len_b];
                    let calls = std::cell::Cell::new(0);
                    merge_two(&a, &b, &mut out, |x, y| {
                        calls.set(calls.get() + 1);
                        x.0 < y.0
                    });
                    let shape = format!("{len_a} + {len_b} records, keys below {range}");
                    assert_eq!(out, expect, "{shape}");
                    let most = if len_a == 0 || len_b == 0 {
                        0
                    } else {
                        len_a + len_b - 1
                    };
                    assert!(calls.get() <= most, "{shape}: {} calls", calls.get());
                }
            }
        }
    }

    /// The merge's `less` calls a record at `sort_cpu`'s shape: 500 k
    /// random records, `M` = 16 Ki, `B` = 512, so 31 runs in one merge.
    /// The two-ended kernel makes about the calls of a front-to-back merge
    /// (5.1382 against 5.1385): a round's two ends together take one call a
    /// record, and only the ends of its middle differ.
    #[test]
    fn a_merge_at_sort_cpus_shape_makes_five_calls_a_record() {
        let (n, m, b) = (500_000, 16 * 1024, 512);
        let device = EmConfig::new(b * 8, 4).ram_disk();
        let (input, _) = random_input(&device, n, 1);
        let cfg = SortConfig::new(m).with_overlap(OverlapConfig::off());
        let runs = crate::form_runs(&input, &cfg, |x: &u64, y: &u64| x < y).unwrap();
        assert_eq!(runs.len(), 31);
        let budget = MemBudget::new(m);
        let calls = std::cell::Cell::new(0u64);
        let out = merge_runs_with(&runs, &budget, &cfg, |x: &u64, y: &u64| {
            calls.set(calls.get() + 1);
            x < y
        })
        .unwrap();
        assert_eq!(out.len(), n);
        let per_record = calls.get() as f64 / n as f64;
        assert!(
            (per_record - 5.14).abs() < 0.01,
            "{per_record:.4} `less` calls per record"
        );
    }
}

#[cfg(test)]
mod multi_disk_tests {
    use super::*;
    use crate::SortConfig;
    use em_core::hash::Draws;
    use pdm::{BlockDevice, DiskArray, FileDisk, Placement, SharedDevice};

    fn random_input(device: &SharedDevice, n: u64, seed: u64) -> (ExtVec<u64>, Vec<u64>) {
        let mut rng = Draws::new(seed);
        let data: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        (ExtVec::from_slice(device.clone(), &data).unwrap(), data)
    }

    #[test]
    fn sorts_on_striped_array() {
        let arr = DiskArray::new_ram(4, 64, Placement::Striped);
        let device = arr.clone() as SharedDevice;
        assert_eq!(device.block_size(), 256);
        let (input, mut data) = random_input(&device, 5000, 21);
        let out = merge_sort(&input, &SortConfig::new(512)).unwrap();
        data.sort_unstable();
        assert_eq!(out.to_vec().unwrap(), data);
        // Striping: every disk carries the same transfer count.
        let snap = device.stats().snapshot();
        for d in 1..4 {
            assert_eq!(snap.reads_on(0), snap.reads_on(d));
            assert_eq!(snap.writes_on(0), snap.writes_on(d));
        }
        assert_eq!(snap.parallel_time() * 4, snap.total());
    }

    #[test]
    fn sorts_on_independent_array_with_balanced_load() {
        let arr = DiskArray::new_ram(4, 64, Placement::Independent);
        let device = arr.clone() as SharedDevice;
        assert_eq!(device.block_size(), 64);
        let (input, mut data) = random_input(&device, 5000, 22);
        let out = merge_sort(&input, &SortConfig::new(512)).unwrap();
        data.sort_unstable();
        assert_eq!(out.to_vec().unwrap(), data);
        // Round-robin placement keeps the disks within ~25% of each other.
        let snap = device.stats().snapshot();
        let per: Vec<u64> = (0..4)
            .map(|d| snap.reads_on(d) + snap.writes_on(d))
            .collect();
        let (lo, hi) = (per.iter().min().unwrap(), per.iter().max().unwrap());
        assert!(*hi as f64 <= 1.25 * *lo as f64, "imbalanced: {per:?}");
        assert!(
            snap.parallel_time() <= snap.total() / 3,
            "no parallel speedup: {per:?}"
        );
    }

    #[test]
    fn sorts_on_file_disk() {
        let mut path = std::env::temp_dir();
        path.push(format!("emsort-file-{}.bin", std::process::id()));
        let device = FileDisk::create(&path, 512).unwrap() as SharedDevice;
        let (input, mut data) = random_input(&device, 20_000, 23);
        let out = merge_sort(&input, &SortConfig::new(1024)).unwrap();
        data.sort_unstable();
        assert_eq!(out.to_vec().unwrap(), data);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn overlapped_pipeline_matches_sync_output_and_per_disk_counts() {
        // The tentpole invariant: switching on worker threads, read-ahead,
        // write-behind and per-run read-ahead moves wall-clock time only — every
        // disk performs exactly the transfers of the synchronous pipeline.
        use crate::OverlapConfig;
        use pdm::IoMode;
        for placement in [Placement::Striped, Placement::Independent] {
            let d = 4;
            let sync_dev = DiskArray::new_ram(d, 64, placement) as SharedDevice;
            let ov_dev =
                DiskArray::new_ram_with(d, 64, placement, IoMode::Overlapped) as SharedDevice;
            let (sync_in, _) = random_input(&sync_dev, 5000, 31);
            let (ov_in, mut data) = random_input(&ov_dev, 5000, 31);
            let sync_cfg = SortConfig::new(512).with_overlap(OverlapConfig::off());
            let ov_cfg = SortConfig::new(512).with_overlap(OverlapConfig::symmetric(2));
            let before_sync = sync_dev.stats().snapshot();
            let before_ov = ov_dev.stats().snapshot();
            let sync_out = merge_sort(&sync_in, &sync_cfg).unwrap();
            let ov_out = merge_sort(&ov_in, &ov_cfg).unwrap();
            data.sort_unstable();
            assert_eq!(sync_out.to_vec().unwrap(), data);
            assert_eq!(ov_out.to_vec().unwrap(), data, "{placement:?}");
            let ds = sync_dev.stats().snapshot().since(&before_sync);
            let dov = ov_dev.stats().snapshot().since(&before_ov);
            for lane in 0..d {
                assert_eq!(
                    ds.reads_on(lane),
                    dov.reads_on(lane),
                    "{placement:?} lane {lane}"
                );
                assert_eq!(
                    ds.writes_on(lane),
                    dov.writes_on(lane),
                    "{placement:?} lane {lane}"
                );
            }
            assert_eq!(ds.parallel_time(), dov.parallel_time());
            assert_eq!(
                dov.prefetch_wasted(),
                0,
                "sort consumes every prefetched block"
            );
            assert!(dov.prefetched() > 0, "{placement:?}: read-ahead active");
        }
    }

    #[test]
    fn striped_fan_in_is_reduced() {
        // The model-level mechanism behind experiment F5: same memory in
        // bytes, but the striped logical block is D times bigger, so the
        // fan-in drops by D.
        let mem_bytes = 64 * 64; // 64 physical blocks' worth
        let striped = DiskArray::new_ram(8, 64, Placement::Striped);
        let indep = DiskArray::new_ram(8, 64, Placement::Independent);
        let m_records = mem_bytes / 8;
        let sc = SortConfig::new(m_records);
        let fan_striped = sc.effective_fan_in(striped.block_size() / 8);
        let fan_indep = sc.effective_fan_in(indep.block_size() / 8);
        assert_eq!(fan_indep, 63);
        assert_eq!(fan_striped, 7);
    }
}
