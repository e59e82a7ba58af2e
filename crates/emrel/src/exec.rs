//! # Volcano-style pull operators over external streams
//!
//! The classical iterator ("Volcano") execution model, specialized to the
//! PDM: every operator implements [`QueryExec`] — pull one record with
//! [`try_next`](QueryExec::try_next) and report the sort order of the
//! stream with [`order`](QueryExec::order).  Operators compose into
//! pipelines that never materialize an intermediate that is consumed once:
//!
//! * [`ScanExec`] — the leaf; streams an [`ExtVec`] (`O(Scan(N))`).
//! * [`FilterExec`] / [`ProjectExec`] — pure pipes, zero I/O of their own.
//! * [`GroupByExec`] — streaming fold over key-sorted input, one group in
//!   memory at a time.
//! * [`MergeJoinExec`] — sort-merge equi-join over two key-sorted streams;
//!   the current right key group is buffered in memory, at most `M` records
//!   of it.
//! * The in-memory join is [`HashJoinExec`](crate::HashJoinExec), the only
//!   one: a build side that fits its residency is held in memory and the
//!   probe side streams past it *unsorted* — no sort on either side — and
//!   the output keeps the probe's order while the build side stays
//!   resident.
//! * Sort — not a struct but the continuation-passing drivers
//!   [`sort_scan`] / [`sort_pipe`]: under the hood they are
//!   [`merge_sort_streaming`] (base relations) and [`SortingWriter`]
//!   (computed streams), so a sort inside a pipeline costs exactly
//!   run-formation plus one final streamed merge.  Both skip the sort
//!   entirely when the input already carries the requested [`Order`].
//!
//! **The drain rule** makes the pipeline's device-touching ends obey the
//! overlap depths of [`ExecConfig`]: a consumer that will pull its child *to
//! exhaustion* says so with [`QueryExec::drain_hint`], pure pipes forward
//! the hint, and a [`ScanExec`] answers by reading ahead; the one operator
//! that may stop pulling a child early, [`MergeJoinExec`], swallows it, so
//! no block is ever fetched that the synchronous pipeline would not have
//! read and every transfer count is identical with overlap on or off.  In
//! the other direction [`QueryExec::overlap`] reports the configured depths
//! up the tree, which is how [`collect`] — whose signature carries no
//! configuration — sizes its write-behind.  A consumer that drains pulls a
//! block of records at a time ([`QueryExec::next_batch`]): a scan decodes
//! whole blocks into the batch and a filter compacts it in place, so the
//! per-record calls of a drained scan and filter are gone.
//!
//! Sort operators borrow their final-stage runs from the sorting routine's
//! frame (see [`SortedStream`]), so pipelines containing sorts are composed
//! in continuation-passing style: each sort driver hands the downstream
//! plan a `&mut dyn QueryExec` rather than returning an iterator.

use std::sync::Arc;

use em_core::{ExtVec, ExtVecReader, ExtVecWriter, MemBudget, Record};
use emsort::{merge_sort_streaming, OverlapConfig, SortConfig, SortedStream, SortingWriter};
use pdm::{PdmError, Result, SharedDevice};

/// Identifier of a sort key as declared by the query author.
///
/// Two streams carry the same order exactly when they report the same
/// `KeyId`; the engine never introspects comparator closures, so assigning
/// the same id to two different orderings is the caller's bug.
pub type KeyId = u32;

/// Sort-order metadata carried by every [`QueryExec`] stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Order {
    /// No order is guaranteed.
    #[default]
    Unordered,
    /// Records arrive non-decreasing under the comparator registered for
    /// this [`KeyId`].
    Key(KeyId),
}

impl Order {
    /// True when this order satisfies a request for `key`.
    pub fn matches(self, key: KeyId) -> bool {
        self == Order::Key(key)
    }
}

/// A pull-based query operator — the Volcano iterator protocol shaped like
/// [`SortedStream`]: `try_next` pulls one record and `order` reports the
/// stream's sort order so downstream sorts can be elided.
///
/// **The batch contract.**  Only a consumer that pulls a stream to its end
/// (the promise [`drain_hint`](Self::drain_hint) makes) calls
/// [`next_batch`](Self::next_batch), a block of records at a time: a batch
/// shorter than it asked for is the end of the stream, which it then never
/// pulls again, and the reads are exactly `try_next`'s, in the same order.
/// `try_next` stays the one per-record path; an operator overrides
/// `next_batch` only where a batch is cheaper than a loop of it.
pub trait QueryExec {
    /// The record type this operator produces.
    type Item: Record;

    /// The next record, or `None` once the stream is drained.  Device
    /// errors from any operator below propagate here via `?`.
    fn try_next(&mut self) -> Result<Option<Self::Item>>;

    /// Append up to `max` records to `out` and return how many: fewer than
    /// `max` only once the stream has ended.  By definition this is
    /// [`try_next`](Self::try_next) in a loop — same records, same reads —
    /// and on `Err` the records pulled before the failure are in `out`.
    fn next_batch(&mut self, out: &mut Vec<Self::Item>, max: usize) -> Result<usize> {
        let mut n = 0;
        while n < max {
            let Some(r) = self.try_next()? else {
                break;
            };
            out.push(r);
            n += 1;
        }
        Ok(n)
    }

    /// The sort order of the records this stream delivers.
    fn order(&self) -> Order;

    /// The consumer's promise to pull this stream **to exhaustion**, with
    /// the per-disk overlap depths it runs at.  A leaf may then read ahead:
    /// every prefetched block is one the consumer is certain to ask for.
    /// Operators that pull a child exactly as far as they are pulled
    /// themselves forward the hint to it; operators that may stop pulling a
    /// child early must not.  Purely advisory — ignoring it (the default)
    /// is always correct, and it never changes which transfers happen.
    fn drain_hint(&mut self, _overlap: OverlapConfig) {}

    /// The per-disk overlap depths configured for this stream's producers
    /// ([`OverlapConfig::off`] when nothing below carries an
    /// [`ExecConfig`]) — what a consumer without a configuration of its
    /// own, like [`collect`], runs at.
    fn overlap(&self) -> OverlapConfig {
        OverlapConfig::off()
    }
}

impl<T: QueryExec + ?Sized> QueryExec for &mut T {
    type Item = T::Item;

    fn try_next(&mut self) -> Result<Option<Self::Item>> {
        (**self).try_next()
    }

    fn next_batch(&mut self, out: &mut Vec<Self::Item>, max: usize) -> Result<usize> {
        (**self).next_batch(out, max)
    }

    fn order(&self) -> Order {
        (**self).order()
    }

    fn drain_hint(&mut self, overlap: OverlapConfig) {
        (**self).drain_hint(overlap)
    }

    fn overlap(&self) -> OverlapConfig {
        (**self).overlap()
    }
}

/// Leaf operator: stream a base relation.  `O(Scan(N))` reads, no writes.
///
/// The reads are on demand until a consumer promises to drain the scan
/// ([`drain_hint`](QueryExec::drain_hint)); from its next block on the scan
/// then keeps `read_ahead` blocks in flight per disk, charged to a budget of
/// exactly those buffers — declared headroom beyond the operators' `M`.
/// Same reads, submitted early.
pub struct ScanExec<'a, R: Record> {
    reader: ExtVecReader<'a, R>,
    order: Order,
    /// The drain hint's depths; off until a consumer promises to drain.
    overlap: OverlapConfig,
}

impl<'a, R: Record> ScanExec<'a, R> {
    /// Scan `input` with no order guarantee.
    pub fn new(input: &'a ExtVec<R>) -> Self {
        Self::with_order(input, Order::Unordered)
    }

    /// Scan `input`, declaring the order its records are known to be stored
    /// in (e.g. a relation clustered on its key).  A wrong declaration
    /// silently produces wrong answers downstream — it is a contract, not a
    /// check.
    pub fn with_order(input: &'a ExtVec<R>, order: Order) -> Self {
        ScanExec {
            reader: input.reader(),
            order,
            overlap: OverlapConfig::off(),
        }
    }
}

impl<R: Record> QueryExec for ScanExec<'_, R> {
    type Item = R;

    fn try_next(&mut self) -> Result<Option<R>> {
        self.reader.try_next()
    }

    /// Whole blocks decoded straight into `out` ([`ExtVecReader::read_into`]).
    fn next_batch(&mut self, out: &mut Vec<R>, max: usize) -> Result<usize> {
        self.reader.read_into(out, max)
    }

    fn order(&self) -> Order {
        self.order
    }

    fn drain_hint(&mut self, overlap: OverlapConfig) {
        if overlap == self.overlap {
            return;
        }
        let input = self.reader.source();
        let blocks = overlap.for_lanes(input.device().stream_lanes()).read_ahead;
        // The reader's read-ahead charge keeps the budget alive.
        self.reader
            .set_read_ahead(blocks, &MemBudget::new(blocks * input.per_block()));
        self.overlap = overlap;
    }

    fn overlap(&self) -> OverlapConfig {
        self.overlap
    }
}

/// Selection: keep the records satisfying `pred`.  Pure pipe — preserves
/// order, performs no I/O of its own.
pub struct FilterExec<S, P> {
    child: S,
    pred: P,
}

impl<S, P> FilterExec<S, P>
where
    S: QueryExec,
    P: FnMut(&S::Item) -> bool,
{
    /// Filter `child` by `pred`.
    pub fn new(child: S, pred: P) -> Self {
        FilterExec { child, pred }
    }
}

impl<S, P> QueryExec for FilterExec<S, P>
where
    S: QueryExec,
    P: FnMut(&S::Item) -> bool,
{
    type Item = S::Item;

    fn try_next(&mut self) -> Result<Option<S::Item>> {
        while let Some(r) = self.child.try_next()? {
            if (self.pred)(&r) {
                return Ok(Some(r));
            }
        }
        Ok(None)
    }

    /// The child's batches, compacted in place with no branch on the
    /// predicate (`compact`).  On `Err`, the records the child delivered are
    /// filtered before the error returns.
    fn next_batch(&mut self, out: &mut Vec<S::Item>, max: usize) -> Result<usize> {
        let start = out.len();
        loop {
            let (at, want) = (out.len(), max - (out.len() - start));
            let pulled = self.child.next_batch(out, want);
            let kept = compact(&mut out[at..], &mut self.pred);
            let ended = out.len() - at < want;
            out.truncate(at + kept);
            pulled?;
            if ended || out.len() - start == max {
                return Ok(out.len() - start);
            }
        }
    }

    fn order(&self) -> Order {
        self.child.order()
    }

    fn drain_hint(&mut self, overlap: OverlapConfig) {
        self.child.drain_hint(overlap)
    }

    fn overlap(&self) -> OverlapConfig {
        self.child.overlap()
    }
}

/// Projection (and optional selection in one): map each record through `f`,
/// keeping the `Some` results.  The output order must be declared by the
/// caller — a projection that keeps the sort key keeps the order, one that
/// drops it does not, and the engine cannot tell the difference.
pub struct ProjectExec<S, F, O> {
    child: S,
    f: F,
    order: Order,
    _out: std::marker::PhantomData<O>,
}

impl<S, F, O> ProjectExec<S, F, O>
where
    S: QueryExec,
    O: Record,
    F: FnMut(&S::Item) -> Option<O>,
{
    /// Project `child` through `f`; `order` declares the output order
    /// ([`Order::Unordered`] unless the projection preserves the key).
    pub fn new(child: S, f: F, order: Order) -> Self {
        ProjectExec {
            child,
            f,
            order,
            _out: std::marker::PhantomData,
        }
    }
}

impl<S, F, O> QueryExec for ProjectExec<S, F, O>
where
    S: QueryExec,
    O: Record,
    F: FnMut(&S::Item) -> Option<O>,
{
    type Item = O;

    fn try_next(&mut self) -> Result<Option<O>> {
        while let Some(r) = self.child.try_next()? {
            if let Some(o) = (self.f)(&r) {
                return Ok(Some(o));
            }
        }
        Ok(None)
    }

    fn order(&self) -> Order {
        self.order
    }

    fn drain_hint(&mut self, overlap: OverlapConfig) {
        self.child.drain_hint(overlap)
    }

    fn overlap(&self) -> OverlapConfig {
        self.child.overlap()
    }
}

/// The streaming fold over key-sorted records, the one both group-bys run
/// ([`GroupByExec`] over its child, [`HashGroupByExec`](crate::HashGroupByExec)
/// over a skewed partition it sorted): each group is folded left to right
/// with one accumulator in memory, and the record that ends it is held for
/// the next group.
pub(crate) struct GroupFold<R> {
    pending: Option<R>,
    primed: bool,
}

impl<R> GroupFold<R> {
    pub(crate) fn new() -> Self {
        GroupFold {
            pending: None,
            primed: false,
        }
    }

    /// Fold the next group of the records `pull` delivers and `fin` it into
    /// `(key, accumulator, group size)`'s output, or `None` once `pull` is
    /// drained.
    pub(crate) fn next_group<K, Acc, O>(
        &mut self,
        mut pull: impl FnMut() -> Result<Option<R>>,
        key: &impl Fn(&R) -> K,
        init: &Acc,
        fold: &mut impl FnMut(&mut Acc, &R),
        fin: &mut impl FnMut(K, Acc, u64) -> O,
    ) -> Result<Option<O>>
    where
        K: PartialEq,
        Acc: Clone,
    {
        if !self.primed {
            self.pending = pull()?;
            self.primed = true;
        }
        let Some(first) = self.pending.take() else {
            return Ok(None);
        };
        let k = key(&first);
        let mut acc = init.clone();
        fold(&mut acc, &first);
        let mut count = 1u64;
        loop {
            match pull()? {
                Some(r) if key(&r) == k => {
                    fold(&mut acc, &r);
                    count += 1;
                }
                other => {
                    self.pending = other;
                    break;
                }
            }
        }
        Ok(Some(fin(k, acc, count)))
    }
}

/// Streaming group-by over key-sorted input: each group is folded
/// left-to-right with one accumulator in memory, and one output record is
/// emitted per group, in key order.
pub struct GroupByExec<S, K, KF, Acc, FoldF, FinF, O>
where
    S: QueryExec,
{
    child: S,
    key: KF,
    init: Acc,
    fold: FoldF,
    fin: FinF,
    groups: GroupFold<S::Item>,
    out_order: Order,
    _k: std::marker::PhantomData<K>,
    _out: std::marker::PhantomData<O>,
}

impl<S, K, KF, Acc, FoldF, FinF, O> GroupByExec<S, K, KF, Acc, FoldF, FinF, O>
where
    S: QueryExec,
    O: Record,
    K: PartialEq,
    KF: Fn(&S::Item) -> K,
    Acc: Clone,
    FoldF: FnMut(&mut Acc, &S::Item),
    FinF: FnMut(K, Acc, u64) -> O,
{
    /// Group `child` (sorted by `key`) and fold each group from `init` with
    /// `fold`; `fin` turns `(key, accumulator, group size)` into the output
    /// record.  `out_order` declares the output's order — usually
    /// `Order::Key(id of the group key in output space)`.
    pub fn new(child: S, key: KF, init: Acc, fold: FoldF, fin: FinF, out_order: Order) -> Self {
        GroupByExec {
            child,
            key,
            init,
            fold,
            fin,
            groups: GroupFold::new(),
            out_order,
            _k: std::marker::PhantomData,
            _out: std::marker::PhantomData,
        }
    }
}

impl<S, K, KF, Acc, FoldF, FinF, O> QueryExec for GroupByExec<S, K, KF, Acc, FoldF, FinF, O>
where
    S: QueryExec,
    O: Record,
    K: PartialEq,
    KF: Fn(&S::Item) -> K,
    Acc: Clone,
    FoldF: FnMut(&mut Acc, &S::Item),
    FinF: FnMut(K, Acc, u64) -> O,
{
    type Item = O;

    fn try_next(&mut self) -> Result<Option<O>> {
        let child = &mut self.child;
        self.groups.next_group(
            || child.try_next(),
            &self.key,
            &self.init,
            &mut self.fold,
            &mut self.fin,
        )
    }

    fn order(&self) -> Order {
        self.out_order
    }

    fn drain_hint(&mut self, overlap: OverlapConfig) {
        self.child.drain_hint(overlap)
    }

    fn overlap(&self) -> OverlapConfig {
        self.child.overlap()
    }
}

/// Sort-merge equi-join over two streams sorted on the join key: the left
/// side streams through; the current right key group is buffered in memory,
/// at most `mem_records` of it (the standard sort-merge-join assumption — a
/// larger group is [`PdmError::MemoryExceeded`], reported before the record
/// past the bound is buffered).  Output follows the left stream's order.
///
/// The join ends when its left side does, leaving the right side partly
/// read, so it does **not** forward [`drain_hint`](QueryExec::drain_hint).
pub struct MergeJoinExec<LS, RS, K, KL, KR, MK, O>
where
    LS: QueryExec,
    RS: QueryExec,
{
    left: LS,
    right: RS,
    key_l: KL,
    key_r: KR,
    make: MK,
    group: Vec<RS::Item>,
    group_key: Option<K>,
    group_at: usize,
    cur_left: Option<LS::Item>,
    cur_right: Option<RS::Item>,
    primed: bool,
    mem_records: usize,
    _out: std::marker::PhantomData<O>,
}

impl<LS, RS, K, KL, KR, MK, O> MergeJoinExec<LS, RS, K, KL, KR, MK, O>
where
    LS: QueryExec,
    RS: QueryExec,
    O: Record,
    K: Ord,
    KL: Fn(&LS::Item) -> K,
    KR: Fn(&RS::Item) -> K,
    MK: FnMut(&LS::Item, &RS::Item) -> O,
{
    /// Join `left` and `right` (both sorted on the join key), emitting
    /// `make(l, r)` for every key-equal pair.  `mem_records` bounds the
    /// buffered right key group.
    pub fn new(left: LS, right: RS, key_l: KL, key_r: KR, make: MK, mem_records: usize) -> Self {
        MergeJoinExec {
            left,
            right,
            key_l,
            key_r,
            make,
            group: Vec::new(),
            group_key: None,
            group_at: 0,
            cur_left: None,
            cur_right: None,
            primed: false,
            mem_records,
            _out: std::marker::PhantomData,
        }
    }
}

impl<LS, RS, K, KL, KR, MK, O> QueryExec for MergeJoinExec<LS, RS, K, KL, KR, MK, O>
where
    LS: QueryExec,
    RS: QueryExec,
    O: Record,
    K: Ord,
    KL: Fn(&LS::Item) -> K,
    KR: Fn(&RS::Item) -> K,
    MK: FnMut(&LS::Item, &RS::Item) -> O,
{
    type Item = O;

    fn try_next(&mut self) -> Result<Option<O>> {
        if !self.primed {
            self.cur_left = self.left.try_next()?;
            self.cur_right = self.right.try_next()?;
            self.primed = true;
        }
        loop {
            let Some(l) = self.cur_left.as_ref() else {
                return Ok(None);
            };
            let kl = (self.key_l)(l);
            if self.group_key.as_ref() == Some(&kl) {
                if self.group_at < self.group.len() {
                    let o = (self.make)(l, &self.group[self.group_at]);
                    self.group_at += 1;
                    return Ok(Some(o));
                }
                self.cur_left = self.left.try_next()?;
                self.group_at = 0;
                continue;
            }
            // Advance the right side to the first record with key ≥ kl and
            // buffer the key-equal group.
            while self
                .cur_right
                .as_ref()
                .is_some_and(|r| (self.key_r)(r) < kl)
            {
                self.cur_right = self.right.try_next()?;
            }
            self.group.clear();
            while let Some(r) = self.cur_right.take_if(|r| (self.key_r)(r) == kl) {
                if self.group.len() == self.mem_records {
                    return Err(PdmError::MemoryExceeded {
                        needed: self.mem_records + 1,
                        available: self.mem_records,
                    });
                }
                self.group.push(r);
                self.cur_right = self.right.try_next()?;
            }
            self.group_key = Some(kl);
            self.group_at = 0;
        }
    }

    fn order(&self) -> Order {
        self.left.order()
    }

    fn overlap(&self) -> OverlapConfig {
        self.left.overlap()
    }
}

/// Adapter presenting a borrowed [`SortedStream`] — the fused final merge
/// pass of a sort — as a [`QueryExec`] operator.
pub struct SortStreamExec<'s, 'a, R: Record, F> {
    inner: &'s mut SortedStream<'a, R, F>,
    order: Order,
    overlap: OverlapConfig,
}

impl<'s, 'a, R, F> SortStreamExec<'s, 'a, R, F>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy,
{
    /// Wrap `inner`, declaring the key it is sorted by.
    pub fn new(inner: &'s mut SortedStream<'a, R, F>, order: Order) -> Self {
        SortStreamExec {
            inner,
            order,
            overlap: OverlapConfig::off(),
        }
    }

    /// Builder: the overlap depths of the sort that produced `inner`,
    /// reported upward by [`overlap`](QueryExec::overlap).
    pub fn with_overlap(mut self, overlap: OverlapConfig) -> Self {
        self.overlap = overlap;
        self
    }
}

impl<R, F> QueryExec for SortStreamExec<'_, '_, R, F>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy,
{
    type Item = R;

    fn try_next(&mut self) -> Result<Option<R>> {
        self.inner.try_next()
    }

    fn order(&self) -> Order {
        self.order
    }

    fn overlap(&self) -> OverlapConfig {
        self.overlap
    }
}

/// Execution parameters of one query: the sort configuration every sort
/// and hash partition of the pipeline runs under.
///
/// `sort.overlap` governs **every** device-touching step of the pipeline,
/// not only its sorts and hash partitions: operators built from this
/// configuration pass its per-disk depths down to the scans they drain
/// ([`QueryExec::drain_hint`]) and report them up to the sink
/// ([`QueryExec::overlap`]), so leaves read ahead and [`collect`] writes
/// behind at the same depths.  Transfer counts do not depend on it.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Sort parameters (memory budget `M`, fan-in, run formation) and the
    /// overlap depths of the whole pipeline.
    pub sort: SortConfig,
}

impl ExecConfig {
    /// A configuration with the given sort memory budget.
    pub fn new(mem_records: usize) -> Self {
        ExecConfig {
            sort: SortConfig::new(mem_records),
        }
    }
}

/// Sort a base relation and hand the result to `consume` as a pull stream —
/// [`merge_sort_streaming`] under the hood, so the cost is run formation
/// plus one final streamed merge.  When `input_order` already matches `key`
/// the sort is elided entirely: `consume` receives a plain scan and the
/// operator costs zero extra transfers.
pub fn sort_scan<R, F, T>(
    input: &ExtVec<R>,
    input_order: Order,
    cfg: &ExecConfig,
    key: KeyId,
    less: F,
    consume: impl FnOnce(&mut dyn QueryExec<Item = R>) -> Result<T>,
) -> Result<T>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy + Send,
{
    if input_order.matches(key) {
        let mut scan = ScanExec::with_order(input, input_order);
        return consume(&mut scan);
    }
    merge_sort_streaming(input, &cfg.sort, less, |s| {
        consume(&mut SortStreamExec::new(s, Order::Key(key)).with_overlap(cfg.sort.overlap))
    })
}

/// Sort a computed stream and hand the result to `consume` as a pull stream
/// — [`SortingWriter`] under the hood, so the records spill directly as
/// sorted runs (the unsorted intermediate never exists) and the final merge
/// streams into the continuation.  When the child already carries `key`'s
/// order the sort is elided: `consume` receives `child` itself.
pub fn sort_pipe<R, F, T>(
    child: &mut dyn QueryExec<Item = R>,
    device: &SharedDevice,
    cfg: &ExecConfig,
    key: KeyId,
    less: F,
    consume: impl FnOnce(&mut dyn QueryExec<Item = R>) -> Result<T>,
) -> Result<T>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy + Send,
{
    if child.order().matches(key) {
        return consume(child);
    }
    let mut w = SortingWriter::new(device.clone(), &cfg.sort, less);
    child.drain_hint(cfg.sort.overlap);
    let b = ExtVec::<R>::per_block_on(device);
    drain_batches(child, b, |batch| {
        batch.drain(..).try_for_each(|r| w.push(r))
    })?;
    w.finish_streaming(|s| {
        consume(&mut SortStreamExec::new(s, Order::Key(key)).with_overlap(cfg.sort.overlap))
    })
}

/// Drain `exec` into a new external array on `device` — the root sink of a
/// pipeline.  Costs one write per output block.
///
/// The sink runs at the overlap depths its root operator reports
/// ([`QueryExec::overlap`]): it promises the pipeline a full drain at those
/// depths and retires its own output blocks by write-behind.
pub fn collect<R: Record>(
    exec: &mut dyn QueryExec<Item = R>,
    device: &SharedDevice,
) -> Result<ExtVec<R>> {
    let overlap = exec.overlap();
    drain_into(exec, device, overlap, &sink_budget::<R>(device, overlap))
}

/// What a sink of `R` records on `device` declares at `overlap`: a budget of
/// exactly its `write_behind` blocks per disk — headroom beyond the
/// operators' `M`, like a scan's read-ahead.
fn sink_budget<R: Record>(device: &SharedDevice, overlap: OverlapConfig) -> Arc<MemBudget> {
    let blocks = overlap.for_lanes(device.stream_lanes()).write_behind;
    MemBudget::new(blocks * ExtVec::<R>::per_block_on(device))
}

/// The materializing sink behind [`collect`]: tell `exec` it will be
/// drained at `overlap`, then write every record out, writing behind as deep
/// as `budget` has room for.
fn drain_into<R: Record>(
    exec: &mut dyn QueryExec<Item = R>,
    device: &SharedDevice,
    overlap: OverlapConfig,
    budget: &Arc<MemBudget>,
) -> Result<ExtVec<R>> {
    let depth = budget.available() / ExtVec::<R>::per_block_on(device);
    let mut w: ExtVecWriter<R> = ExtVecWriter::with_write_behind(device.clone(), depth, budget);
    exec.drain_hint(overlap);
    let b = ExtVec::<R>::per_block_on(device);
    drain_batches(exec, b, |batch| w.extend_from_slice(batch))?;
    w.finish()
}

/// Move the records of `batch` that `keep` accepts to its front, in order,
/// and return how many there are.  No branch on the verdict: each record
/// is copied to the write slot, which then advances by `keep as usize`, so
/// a predicate that passes rows at random costs no mispredictions.  The
/// slots past the count hold stale copies for the caller to truncate (a
/// copy measured 1.7 ns a row, a swap 5.7).
pub(crate) fn compact<T: Clone>(batch: &mut [T], mut keep: impl FnMut(&T) -> bool) -> usize {
    let mut kept = 0;
    for i in 0..batch.len() {
        let r = batch[i].clone();
        let k = keep(&r);
        batch[kept] = r;
        kept += k as usize;
    }
    kept
}

/// Pull `exec` to its end `max` records at a time (one block of them, for
/// every caller), handing each batch to `each` — the loop of every consumer
/// that has promised a full drain.  The stream is never pulled after its
/// first short batch.  The batch is scratch beside the caller's buffers:
/// one block of records, uncharged, like the merge's batch.
pub(crate) fn drain_batches<S: QueryExec + ?Sized>(
    exec: &mut S,
    max: usize,
    mut each: impl FnMut(&mut Vec<S::Item>) -> Result<()>,
) -> Result<()> {
    let mut batch = Vec::with_capacity(max);
    loop {
        let n = exec.next_batch(&mut batch, max)?;
        each(&mut batch)?;
        if n < max {
            return Ok(());
        }
        batch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::EmConfig;
    use pdm::{DiskArray, IoMode, Placement};

    fn device() -> SharedDevice {
        EmConfig::new(256, 16).ram_disk()
    }

    /// Two overlapped disks, 256-byte blocks, consecutive blocks on
    /// alternating disks.
    fn array() -> SharedDevice {
        DiskArray::new_ram_with(2, 256, Placement::Independent, IoMode::Overlapped)
    }

    #[test]
    fn scan_and_sink_charge_exactly_their_declared_headroom() {
        let d = array();
        let v = ExtVec::from_slice(d.clone(), &(0u64..2000).collect::<Vec<_>>()).unwrap();
        let (b, lanes) = (v.per_block(), d.stream_lanes());
        let overlap = OverlapConfig {
            read_ahead: 2,
            write_behind: 3,
        };
        let before = d.stats().snapshot();
        // The sink's budget is a root of its own; the scan's, built when the
        // hint reaches it, is a child of `leaf`.
        let sink = sink_budget::<u64>(&d, overlap);
        let leaf = MemBudget::new(usize::MAX);
        let (scan, out) = {
            let _in = leaf.enter();
            let mut scan = ScanExec::new(&v);
            assert_eq!(leaf.high_water(), 0, "no hint, no read-ahead");
            let out = drain_into(&mut scan, &d, overlap, &sink).unwrap();
            (scan, out)
        };
        assert_eq!(scan.overlap(), overlap, "the sink's hint reached the leaf");
        assert_eq!(leaf.high_water(), 2 * lanes * b);
        drop(scan);
        assert_eq!(leaf.used(), 0, "released with the scan");
        assert_eq!(sink.capacity(), 3 * lanes * b);
        assert_eq!(sink.high_water(), 3 * lanes * b);
        assert_eq!(sink.used(), 0, "released when the sink finished");
        let ios = d.stats().snapshot().since(&before);
        assert_eq!(ios.reads(), v.num_blocks() as u64);
        assert_eq!(ios.writes(), out.num_blocks() as u64);
        assert_eq!(ios.prefetched(), ios.reads(), "every read was issued ahead");
        assert_eq!(ios.prefetch_wasted(), 0);
        assert_eq!(out.to_vec().unwrap(), v.to_vec().unwrap());
    }

    #[test]
    fn early_stopping_operators_swallow_the_drain_hint() {
        let d = array();
        let v = ExtVec::from_slice(d.clone(), &(0u64..640).map(|i| (i, i)).collect::<Vec<_>>())
            .unwrap();
        let few = ExtVec::from_slice(d.clone(), &[(3u64, 0u64), (5, 0)]).unwrap();
        // Each pipeline is drained by the sink at depth 2 and must read
        // exactly the blocks its synchronous twin reads.
        type Pipeline<'a> = Box<dyn Fn(OverlapConfig) -> Result<Vec<(u64, u64)>> + 'a>;
        let drained = |root: &mut dyn QueryExec<Item = (u64, u64)>, overlap: OverlapConfig| {
            let out = drain_into(root, &d, overlap, &sink_budget::<(u64, u64)>(&d, overlap))?;
            let got = out.to_vec()?;
            out.free()?;
            Ok(got)
        };
        // (name, stops reading `v` early, pipeline)
        let pipelines: Vec<(&str, bool, Pipeline)> = vec![
            (
                "merge join whose left side ends first",
                true,
                Box::new(|ov| {
                    let mut j = MergeJoinExec::new(
                        ScanExec::with_order(&few, Order::Key(1)),
                        ScanExec::with_order(&v, Order::Key(1)),
                        |l: &(u64, u64)| l.0,
                        |r: &(u64, u64)| r.0,
                        |l: &(u64, u64), r: &(u64, u64)| (l.0, r.1),
                        64,
                    );
                    drained(&mut j, ov)
                }),
            ),
            (
                // The join outlives its right side: the left drains on.
                "merge join whose right side ends first",
                false,
                Box::new(|ov| {
                    let mut j = MergeJoinExec::new(
                        ScanExec::with_order(&v, Order::Key(1)),
                        ScanExec::with_order(&few, Order::Key(1)),
                        |l: &(u64, u64)| l.0,
                        |r: &(u64, u64)| r.0,
                        |l: &(u64, u64), r: &(u64, u64)| (l.0, r.1),
                        64,
                    );
                    drained(&mut j, ov)
                }),
            ),
        ];
        for (name, stops_early, run) in &pipelines {
            let t0 = d.stats().snapshot();
            let expect = run(OverlapConfig::off()).unwrap();
            let t1 = d.stats().snapshot();
            let got = run(OverlapConfig::symmetric(2)).unwrap();
            let (a, b) = (t1.since(&t0), d.stats().snapshot().since(&t1));
            assert_eq!(got, expect, "{name}");
            assert_eq!((b.reads(), b.writes()), (a.reads(), a.writes()), "{name}");
            assert_eq!(b.prefetch_wasted(), 0, "{name}");
            assert_eq!(b.reads() < v.num_blocks() as u64, *stops_early, "{name}");
        }
    }

    #[test]
    fn scan_filter_project_limit() {
        let d = device();
        let v = ExtVec::from_slice(d.clone(), &(0u64..100).collect::<Vec<_>>()).unwrap();
        let scan = ScanExec::with_order(&v, Order::Key(7));
        let filt = FilterExec::new(scan, |x: &u64| x.is_multiple_of(2));
        assert_eq!(filt.order(), Order::Key(7), "filter preserves order");
        let mut proj = ProjectExec::new(filt, |x: &u64| Some(x * 10), Order::Key(7));
        let first: Vec<u64> = (0..3).map(|_| proj.try_next().unwrap().unwrap()).collect();
        assert_eq!(first, vec![0, 20, 40]);
    }

    #[test]
    fn sort_pipe_skips_when_ordered() {
        let d = device();
        let v = ExtVec::from_slice(d.clone(), &(0u64..500).collect::<Vec<_>>()).unwrap();
        let cfg = ExecConfig::new(64);
        let before = d.stats().snapshot();
        let mut scan = ScanExec::with_order(&v, Order::Key(1));
        let total = sort_pipe(
            &mut scan,
            &d,
            &cfg,
            1,
            |a, b| a < b,
            |s| {
                let mut sum = 0u64;
                while let Some(x) = s.try_next()? {
                    sum += x;
                }
                Ok(sum)
            },
        )
        .unwrap();
        assert_eq!(total, 499 * 500 / 2);
        let ios = d.stats().snapshot().since(&before);
        assert_eq!(ios.reads(), v.num_blocks() as u64, "elided sort is a scan");
        assert_eq!(ios.writes(), 0);
    }

    #[test]
    fn sort_pipe_sorts_unordered_streams() {
        let d = device();
        let v = ExtVec::from_slice(d.clone(), &(0u64..500).rev().collect::<Vec<_>>()).unwrap();
        // 256-byte blocks hold 32 records, so M = 128 records = 4 blocks:
        // fan-in 3 plus the merge's output block.
        let cfg = ExecConfig::new(128);
        let mut scan = ScanExec::new(&v);
        let got = sort_pipe(
            &mut scan,
            &d,
            &cfg,
            1,
            |a, b| a < b,
            |s| {
                assert_eq!(s.order(), Order::Key(1));
                let mut out = Vec::new();
                while let Some(x) = s.try_next()? {
                    out.push(x);
                }
                Ok(out)
            },
        )
        .unwrap();
        assert_eq!(got, (0u64..500).collect::<Vec<_>>());
    }

    #[test]
    fn group_by_streams_groups() {
        let d = device();
        let v = ExtVec::from_slice(
            d.clone(),
            &[(1u64, 2u64), (1, 3), (2, 5), (4, 1), (4, 1), (4, 1)],
        )
        .unwrap();
        let scan = ScanExec::with_order(&v, Order::Key(9));
        let mut g = GroupByExec::new(
            scan,
            |r: &(u64, u64)| r.0,
            0u64,
            |acc, r| *acc += r.1,
            |k, acc, n| (k, acc, n),
            Order::Key(9),
        );
        let out = collect(&mut g, &d).unwrap().to_vec().unwrap();
        assert_eq!(out, vec![(1, 5, 2), (2, 5, 1), (4, 3, 3)]);
    }

    #[test]
    fn merge_join_right_group_over_its_memory_is_a_typed_error() {
        let d = device();
        let left = ExtVec::from_slice(d.clone(), &[(1u64, 0u64), (2, 0)]).unwrap();
        // Key 1's group fits in 4 records; key 2's group of 5 does not.
        let right: Vec<(u64, u64)> = [(1, 4), (2, 5)]
            .into_iter()
            .flat_map(|(k, n)| (0..n).map(move |i| (k, i)))
            .collect();
        let right = ExtVec::from_slice(d.clone(), &right).unwrap();
        let mut j = MergeJoinExec::new(
            ScanExec::with_order(&left, Order::Key(1)),
            ScanExec::with_order(&right, Order::Key(1)),
            |l: &(u64, u64)| l.0,
            |r: &(u64, u64)| r.0,
            |l: &(u64, u64), r: &(u64, u64)| (l.0, r.1),
            4,
        );
        for i in 0..4 {
            assert_eq!(j.try_next().unwrap(), Some((1, i)));
        }
        let err = j.try_next().err();
        assert!(
            matches!(
                err,
                Some(PdmError::MemoryExceeded {
                    needed: 5,
                    available: 4
                })
            ),
            "{err:?}"
        );
    }
}
