//! # Hash-partitioned aggregation and join operators
//!
//! The hash duals of the engine's sort-based operators, built on
//! [`emhash::partition`]: instead of ordering the input so equal keys
//! become adjacent, they *co-locate* equal keys by recursive hash
//! partitioning and finish each resident partition in memory.  The
//! aggregates guarantee no output order ([`Order::Unordered`]), nor does a
//! join whose build side spilled, which is exactly the trade the planner
//! prices: a hash operator wins when nothing downstream wants the sort it
//! skipped.  The join is also the engine's only in-memory join: while its
//! build side stays resident, its output keeps the probe's order.
//!
//! * [`HashGroupByExec`] — *hybrid* hash aggregation (keyed on the whole
//!   record, it is duplicate elimination): an in-memory table absorbs the
//!   first `M − (F+1)·B` distinct keys in arrival order (records with
//!   resident keys fold for free, the classic hybrid trick), everything
//!   else spills to its level-0 bucket and is aggregated per partition.
//! * [`HashJoinExec`] — a hash join that spills lazily: a build side of up
//!   to `M − (F+1)·max(B_build, B_probe)` records is held in memory and
//!   the probe side matched against it in-stream, at zero transfers of the
//!   join's own.  Only the record that overflows that residency turns it
//!   into a Grace join, and the memory the held records vacate becomes a
//!   build-key filter ([`KeyFilter`]) that stops unmatched probe records
//!   at the partition writers.  Oversized partition pairs re-partition
//!   pairwise; a build partition that stops shrinking (equal keys — no
//!   hash *or* sort-merge could handle it within `M`) falls back to a
//!   block-nested-loop round over just that pair.
//!
//! Every schedule decision (hold, absorb, spill, filter, recurse, fall
//! back) is a pure function of the records' level-0 key hashes and arrival
//! order — the filter's bit positions included — so
//! `em_core::bounds::{hash_group_exact_ios, hash_join_exact_ios}` replay
//! the exact transfer counts — zero-slack, like the sort operators.
//!
//! The in-memory step is hashed too: every resident table is an
//! [`emhash::table`] keyed by the level-0 hash the partitioner needs
//! anyway, so a record costs one hash and an `O(1)` probe, and keys are
//! compared for order only when a finished table is emitted.  Capacities
//! and [`MemBudget`] charges are counted in records, as the cost replay
//! counts them (the join's filter is charged the records whose bytes it
//! occupies); the tables' slot arrays are uncharged index overhead.
//!
//! Every spill is `emsort`'s distribution pass ([`PartitionPass`]), under
//! its fan-out check and in an [`operator_budget`].  Once an operator has
//! been promised a full drain ([`QueryExec::drain_hint`]), the
//! [`ExtVecCursor`]s it reads across calls also draw their read-ahead from
//! that budget's overlap headroom, never from `M`.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::Arc;

use em_core::bounds::{hash_join_residency, HASH_MAX_LEVELS};
use em_core::hash::{level_bucket, KeyFilter};
use em_core::{key_hash, BudgetGuard, ExtVec, ExtVecCursor, MemBudget, Record};
use emhash::table::{ResidentMultimap, ResidentTable};
use emsort::{merge_sort_by, operator_budget, OverlapConfig, PartitionPass};
use pdm::{Result, SharedDevice};

use crate::exec::{compact, drain_batches, ExecConfig, GroupFold, Order, QueryExec};

/// Open `vec` for reading across `try_next` calls.  A drained operator
/// reads it ahead at `overlap`'s per-disk depth out of `budget`'s headroom
/// (every block will be consumed); otherwise the cursor reads on demand, so
/// a consumer that stops early never leaves a fetched block behind.
fn open_cursor<R: Record>(
    vec: ExtVec<R>,
    drained: bool,
    overlap: OverlapConfig,
    budget: &Arc<MemBudget>,
) -> ExtVecCursor<R> {
    let lanes = vec.device().stream_lanes();
    let mut cursor = vec.into_cursor();
    if drained {
        cursor.set_read_ahead(overlap.for_lanes(lanes).read_ahead, budget);
    }
    cursor
}

/// Hybrid hash aggregation: group `child` by an extracted key with a
/// streaming fold, *without* sorting.  Blocking: the child is drained by
/// [`build`](Self::build).  Output carries no order — resident-table
/// groups come out in key order, spilled partitions in recursion order.
///
/// Schedule (mirrored exactly by `hash_group_exact_ios`):
/// * level 0: a [`ResidentTable`] of up to `M − (F+1)·B` distinct keys
///   absorbs in arrival order; records with resident keys fold in memory,
///   the rest spill to `F` hash buckets through per-lane write-behind
///   writers — each record's key is hashed once, for both;
/// * a partition of ≤ `M − B` records is read once and aggregated in a
///   [`ResidentTable`] of its own;
/// * a larger partition re-passes at the next remix level (fresh absorb
///   table, fresh buckets);
/// * a partition that did not shrink — one bucket got every record its
///   parent spilled, i.e. equal keys — or that is still oversized at
///   [`HASH_MAX_LEVELS`] is sorted ([`merge_sort_by`] with the fallback
///   [`SortConfig`](emsort::SortConfig)) and grouped by one streaming
///   pass, which handles any number of distinct keys in `O(1)` memory.
pub struct HashGroupByExec<R, K, KF, Acc, FoldF, FinF, O>
where
    R: Record,
    K: Ord,
{
    cfg: ExecConfig,
    m: usize,
    b: usize,
    fan_out: usize,
    /// The distinct keys a pass's table absorbs: `M − (F+1)·B`, what the
    /// pass's buffers leave of `M`.
    cap: usize,
    key: KF,
    init: Acc,
    fold: FoldF,
    fin: FinF,
    budget: Arc<MemBudget>,
    /// Finished output records awaiting emission.
    ready: VecDeque<O>,
    /// Spilled partitions still to consume: `(records, level, skewed)`,
    /// popped LIFO (children are pushed reversed, so consumption is
    /// bucket-DFS order — the order the cost replay walks).
    queue: Vec<(ExtVec<R>, usize, bool)>,
    /// Active sort fallback: the sorted partition and the streaming fold
    /// over it.
    fb: Option<(ExtVecCursor<R>, GroupFold<R>)>,
    /// The consumer promised to drain this operator.
    drained: bool,
    _k: PhantomData<K>,
}

impl<R, K, KF, Acc, FoldF, FinF, O> HashGroupByExec<R, K, KF, Acc, FoldF, FinF, O>
where
    R: Record,
    O: Record,
    K: Record + Ord,
    KF: Fn(&R) -> K + Sync,
    Acc: Clone,
    FoldF: FnMut(&mut Acc, &R),
    FinF: FnMut(K, Acc, u64) -> O,
{
    /// Drain `child` through the hybrid level-0 pass (absorbing what fits,
    /// spilling the rest `fan_out` ways on `device`), ready to emit.
    /// `cfg.sort` supplies the memory budget `M`, the overlap depths (handed
    /// on to `child` with the promise to drain it), and the skew fallback's
    /// sort parameters.
    ///
    /// [`check_fan_out`](emsort::check_fan_out)'s error for
    /// blocks of `B` records, before anything is read or allocated.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        child: &mut dyn QueryExec<Item = R>,
        device: &SharedDevice,
        cfg: &ExecConfig,
        fan_out: usize,
        key: KF,
        init: Acc,
        fold: FoldF,
        fin: FinF,
    ) -> Result<Self> {
        let b = ExtVec::<R>::per_block_on(device);
        let m = cfg.sort.mem_records;
        let budget = operator_budget(device, fan_out, b, m, cfg.sort.overlap)?;
        let mut this = HashGroupByExec {
            cfg: *cfg,
            m,
            b,
            fan_out,
            cap: m - (fan_out + 1) * b,
            key,
            init,
            fold,
            fin,
            budget,
            ready: VecDeque::new(),
            queue: Vec::new(),
            fb: None,
            drained: false,
            _k: PhantomData,
        };
        child.drain_hint(cfg.sort.overlap);
        let budget = this.budget.clone();
        let mut table = ResidentTable::new();
        let mut fed = 0u64;
        let children = {
            let mut pass = PartitionPass::new(device, fan_out, 0, cfg.sort.overlap, &budget);
            let _charge = budget.charge(this.cap + (fan_out + 1) * b);
            drain_batches(child, b, |batch| {
                fed += batch.len() as u64;
                batch
                    .drain(..)
                    .try_for_each(|r| this.absorb_or_spill(&mut table, &mut pass, 0, r))
            })?;
            pass.finish()?
        };
        this.end_pass(table, children, 0, fed)?;
        Ok(this)
    }

    /// The hybrid routing step of a pass at `level`: fold if the key is
    /// resident, admit it if the table still has room, spill otherwise.
    /// The key is hashed once; the table lookup and the spill both use it.
    /// Forced inline into both loops that call it: left to the compiler,
    /// one of them kept a call a record.
    #[inline(always)]
    fn absorb_or_spill(
        &mut self,
        table: &mut ResidentTable<K, (Acc, u64)>,
        pass: &mut PartitionPass<R>,
        level: usize,
        r: R,
    ) -> Result<()> {
        let cap = self.cap;
        let k = (self.key)(&r);
        let h0 = key_hash(&k);
        if let Some((acc, n)) = table.get_mut(h0, &k) {
            (self.fold)(acc, &r);
            *n += 1;
        } else if table.len() < cap {
            let (acc, n) = table.get_or_insert_with(h0, k, || (self.init.clone(), 0));
            (self.fold)(acc, &r);
            *n += 1;
        } else {
            pass.push(level_bucket(h0, level, self.fan_out), r)?;
        }
        debug_assert!(table.len() <= cap, "absorbed past the charged records");
        Ok(())
    }

    /// End an absorbing pass at `level`: queue its spill partitions for
    /// consumption a level down (pushed reversed so the LIFO queue pops them
    /// in bucket order) and emit its table.  `fed` is the record count of
    /// the pass — the no-shrink test.
    fn end_pass(
        &mut self,
        table: ResidentTable<K, (Acc, u64)>,
        children: Vec<ExtVec<R>>,
        level: usize,
        fed: u64,
    ) -> Result<()> {
        for child in children.into_iter().rev() {
            if child.is_empty() {
                child.free()?;
                continue;
            }
            let skewed = child.len() == fed;
            self.queue.push((child, level + 1, skewed));
        }
        self.emit_table(table);
        Ok(())
    }

    /// Emit a finished table's groups in key order — the one place the
    /// operator compares keys.
    fn emit_table(&mut self, table: ResidentTable<K, (Acc, u64)>) {
        for (k, (acc, n)) in table.into_sorted() {
            self.ready.push_back((self.fin)(k, acc, n));
        }
    }

    /// Consume one spilled partition: resident aggregate, sort fallback, or
    /// re-partition — resident is checked first (a skewed partition that
    /// fits needs no sort), exactly as the cost replay does.
    fn consume_partition(&mut self, part: ExtVec<R>, level: usize, skewed: bool) -> Result<()> {
        let len = part.len();
        if len as usize <= self.m - self.b {
            let lanes = part.device().stream_lanes();
            let ov = self.cfg.sort.overlap.for_lanes(lanes);
            let budget = self.budget.clone();
            let _charge = budget.charge(len as usize + self.b);
            let mut table = ResidentTable::new();
            let mut reader = part.reader_prefetch(ov.read_ahead, &budget);
            while let Some(r) = reader.try_next()? {
                let k = (self.key)(&r);
                let h0 = key_hash(&k);
                let (acc, n) = table.get_or_insert_with(h0, k, || (self.init.clone(), 0));
                (self.fold)(acc, &r);
                *n += 1;
            }
            drop(reader);
            part.free()?;
            self.emit_table(table);
            return Ok(());
        }
        if skewed || level >= HASH_MAX_LEVELS {
            // Equal hashes (or adversarial shrinkage): remixing cannot
            // split this partition, so sort it and group by one streaming
            // pass — the unbounded-distinct-safe path.
            let kf = &self.key;
            let sorted = merge_sort_by(&part, &self.cfg.sort, move |a, b| kf(a) < kf(b))?;
            part.free()?;
            let cursor = open_cursor(sorted, self.drained, self.cfg.sort.overlap, &self.budget);
            self.fb = Some((cursor, GroupFold::new()));
            return Ok(());
        }
        let budget = self.budget.clone();
        let mut table = ResidentTable::new();
        let children = {
            let _charge = budget.charge(self.cap);
            let (fan_out, overlap) = (self.fan_out, self.cfg.sort.overlap);
            PartitionPass::spill_array(&part, fan_out, level, overlap, &budget, |pass, r| {
                self.absorb_or_spill(&mut table, pass, level, r)
            })?
        };
        part.free()?;
        self.end_pass(table, children, level, len)
    }
}

impl<R, K, KF, Acc, FoldF, FinF, O> QueryExec for HashGroupByExec<R, K, KF, Acc, FoldF, FinF, O>
where
    R: Record,
    O: Record,
    K: Record + Ord,
    KF: Fn(&R) -> K + Sync,
    Acc: Clone,
    FoldF: FnMut(&mut Acc, &R),
    FinF: FnMut(K, Acc, u64) -> O,
{
    type Item = O;

    fn try_next(&mut self) -> Result<Option<O>> {
        loop {
            if let Some(o) = self.ready.pop_front() {
                return Ok(Some(o));
            }
            if let Some((cursor, groups)) = self.fb.as_mut() {
                let (key, init) = (&self.key, &self.init);
                let (fold, fin) = (&mut self.fold, &mut self.fin);
                match groups.next_group(|| cursor.try_next(), key, init, fold, fin)? {
                    Some(o) => return Ok(Some(o)),
                    None => {
                        // Fallback drained; free it and go back to the queue.
                        if let Some((done, _)) = self.fb.take() {
                            done.into_inner().free()?;
                        }
                        continue;
                    }
                }
            }
            let Some((part, level, skewed)) = self.queue.pop() else {
                return Ok(None);
            };
            self.consume_partition(part, level, skewed)?;
        }
    }

    fn order(&self) -> Order {
        Order::Unordered
    }

    fn drain_hint(&mut self, _overlap: OverlapConfig) {
        self.drained = true;
    }

    fn overlap(&self) -> OverlapConfig {
        self.cfg.sort.overlap
    }
}

/// One `(build, probe)` partition pair being consumed by chunked
/// block-nested loop: build records load into a hashed multimap (one
/// arena, per-key chains in arrival order) `chunk = M − B_build − B_probe`
/// at a time, the probe side re-scans once per chunk.  A pair whose build
/// side fits is one chunk — the plain "read the build into a table, stream
/// the probe" resident case.
struct PairLoop<K, BR: Record, PR: Record> {
    bcur: ExtVecCursor<BR>,
    pcur: ExtVecCursor<PR>,
    table: ResidentMultimap<K, BR>,
    chunk: usize,
    loaded: bool,
    _charge: BudgetGuard,
}

/// A build side that outgrew the residency: its level-0 partitions, the
/// filter over the keys in them, and the probe pass filling up beside them.
struct Spilled<BR: Record, PR: Record> {
    build_parts: Vec<ExtVec<BR>>,
    filter: KeyFilter,
    probe_pass: PartitionPass<PR>,
    _probe_buffers: BudgetGuard,
}

/// Hash equi-join of an unsorted build stream against a probe stream that
/// writes only what it must — the engine's one in-memory join as well as
/// its Grace join.  Blocking on the build side ([`build`](Self::build)
/// drains it); the probe side streams.
///
/// **One residency, used one of two ways.**  `R` =
/// [`hash_join_residency`] `= M − (F+1)·max(B_build, B_probe)` records is
/// what the join may hold across the build → probe boundary (the two
/// sides' partition buffers are never live together).  While the build
/// stream has produced ≤ `R` records they are *held*; if it ends there,
/// nothing is ever partitioned, every probe record is matched in-stream
/// against the held table, and the join's own transfers are zero — the
/// survey's `Scan(N) + Output(Z)` for a build side that fits.  Its output
/// then keeps the probe's order (probe order × build-arrival order), and
/// [`order`](QueryExec::order) reports the probe's; a build side that
/// spilled reports [`Order::Unordered`].  The answer is fixed once `build`
/// returns and never changes mid-stream.
///
/// The record that overflows `R` turns the join into a Grace join: the held
/// records are flushed in arrival order into `F` level-0 partitions (so
/// the spill is the same whether or not anything was held first), and the
/// residency they gave up becomes a [`KeyFilter`] over every spilled build
/// key.  A probe record the filter rejects — or whose build bucket is empty
/// — can match nothing and is dropped before it costs a partition write; a
/// false positive costs the spill every probe record used to.  The probe
/// side is routed a block of records at a time, in two steps: the filter
/// compacts the batch in place with no branch on its verdict, then only the
/// records it kept are bucketed and pushed, in arrival order.
///
/// Oversized pairs re-partition pairwise at the next remix level; a build
/// partition that stopped shrinking (equal keys) or hit
/// [`HASH_MAX_LEVELS`] is consumed by `PairLoop`'s block-nested rounds —
/// never priced better than the resident case, and immune to the over-`M`
/// key group that would panic the sort-merge path.
///
/// Dropping the operator undrained frees whatever it still has on disk.
pub struct HashJoinExec<PS, K, BR, KB, KP, MK, O>
where
    PS: QueryExec,
    BR: Record,
    K: Ord,
{
    probe: PS,
    key_b: KB,
    key_p: KP,
    make: MK,
    overlap: OverlapConfig,
    m: usize,
    b_build: usize,
    b_probe: usize,
    fan_out: usize,
    budget: Arc<MemBudget>,
    /// Build records matched in-stream while the build side fits the
    /// residency; empty once it has spilled.
    resident: ResidentMultimap<K, BR>,
    /// The residency `R`, charged from the first build record to the last
    /// probe record — held records, then the filter.
    residency: Option<BudgetGuard>,
    /// `None` while the whole build side is resident.
    spilled: Option<Spilled<BR, PS::Item>>,
    /// Build records drained by `build`; ≤ the residency iff none spilled.
    build_total: u64,
    probing: bool,
    /// The consumer promised to drain this operator.
    drained: bool,
    /// Pending `(build, probe, level, fed)` pairs, popped LIFO in
    /// bucket-DFS order; `fed` is the build-record count of the pass that
    /// produced the pair (the no-shrink skew test).
    #[allow(clippy::type_complexity)]
    pairs: Vec<(ExtVec<BR>, ExtVec<PS::Item>, usize, u64)>,
    pair: Option<PairLoop<K, BR, PS::Item>>,
    out: VecDeque<O>,
}

impl<PS, K, BR, KB, KP, MK, O> HashJoinExec<PS, K, BR, KB, KP, MK, O>
where
    PS: QueryExec,
    BR: Record,
    O: Record,
    K: Record + Ord,
    KB: Fn(&BR) -> K,
    KP: Fn(&PS::Item) -> K,
    MK: FnMut(&BR, &PS::Item) -> O,
{
    /// Drain `build`, holding it in memory while it fits the residency and
    /// spilling all of it `fan_out` ways on `device` once it does not,
    /// ready to stream `probe` past it.
    /// `make(b, p)` is emitted for every key-equal pair; `cfg.sort`
    /// supplies `M` and the overlap depths (handed on to `build` with the
    /// promise to drain it; `probe` is drained only as far as the join is,
    /// so it gets the hint when the join does).
    ///
    /// Fails with [`check_fan_out`](emsort::check_fan_out)'s error for
    /// buffers of `B_build + B_probe` records, before anything is read or
    /// allocated.  `_hybrid` is ignored: every join that spills is a
    /// Grace join.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        build: &mut dyn QueryExec<Item = BR>,
        probe: PS,
        device: &SharedDevice,
        cfg: &ExecConfig,
        fan_out: usize,
        _hybrid: bool,
        key_b: KB,
        key_p: KP,
        make: MK,
    ) -> Result<Self> {
        let b_build = ExtVec::<BR>::per_block_on(device);
        let b_probe = ExtVec::<PS::Item>::per_block_on(device);
        let m = cfg.sort.mem_records;
        let overlap = cfg.sort.overlap;
        let budget = operator_budget(device, fan_out, b_build + b_probe, m, overlap)?;
        let residency = hash_join_residency(m, b_build, b_probe, fan_out);
        let residency_charge = budget.charge(residency);
        let mut resident = ResidentMultimap::new();
        // The level-0 pass, its filter and its writers' buffers — opened by
        // the first record the residency cannot hold.
        let mut spill: Option<(PartitionPass<BR>, KeyFilter, BudgetGuard)> = None;
        let mut total = 0u64;
        build.drain_hint(overlap);
        let mut admit = |r: BR| -> Result<()> {
            total += 1;
            if spill.is_none() && resident.len() < residency {
                let k = key_b(&r);
                resident.insert(key_hash(&k), k, r);
                return Ok(());
            }
            // Overflow: the held records go first, in arrival order, so the
            // partitions are those of a join that never held anything.
            let held = spill
                .is_none()
                .then(|| std::mem::take(&mut resident).into_records());
            let (pass, filter, _) = spill.get_or_insert_with(|| {
                (
                    PartitionPass::new(device, fan_out, 0, overlap, &budget),
                    KeyFilter::with_bytes(residency * BR::BYTES),
                    budget.charge((fan_out + 1) * b_build),
                )
            });
            for r in held.into_iter().flatten().chain([r]) {
                let h0 = key_hash(&key_b(&r));
                filter.insert(h0);
                pass.push(level_bucket(h0, 0, fan_out), r)?;
            }
            Ok(())
        };
        drain_batches(build, b_build, |batch| {
            batch.drain(..).try_for_each(&mut admit)
        })?;
        let spilled = match spill {
            Some((pass, filter, build_buffers)) => {
                let build_parts = pass.finish()?;
                drop(build_buffers); // never charged beside the probe pass's
                Some(Spilled {
                    build_parts,
                    filter,
                    probe_pass: PartitionPass::new(device, fan_out, 0, overlap, &budget),
                    _probe_buffers: budget.charge((fan_out + 1) * b_probe),
                })
            }
            None => None,
        };
        Ok(HashJoinExec {
            probe,
            key_b,
            key_p,
            make,
            overlap,
            m,
            b_build,
            b_probe,
            fan_out,
            budget,
            resident,
            residency: Some(residency_charge),
            spilled,
            build_total: total,
            probing: true,
            drained: false,
            pairs: Vec::new(),
            pair: None,
            out: VecDeque::new(),
        })
    }

    /// Route one probe record while the build side is resident.  Once it
    /// spilled, the join emits nothing before its probe ends, so the whole
    /// probe side is routed in one loop, a block of records at a time in two
    /// steps: the batch is [`compact`]ed by the filter, then each record it
    /// kept goes to its level-0 bucket unless the build side left that
    /// bucket empty.  A batch whose read failed is not routed; a failed
    /// push returns at once.  Either way the first `None` closes the probe
    /// pass and stages the spilled pairs; the probe is never pulled again
    /// after it.
    fn step_probe(&mut self) -> Result<()> {
        let Some(spilled) = self.spilled.as_mut() else {
            let Some(r) = self.probe.try_next()? else {
                return self.end_probe();
            };
            let k = (self.key_p)(&r);
            for b in self.resident.get(key_hash(&k), &k) {
                self.out.push_back((self.make)(b, &r));
            }
            return Ok(());
        };
        // A probe record whose key the filter never saw, or whose build
        // bucket is empty, matches nothing and is dropped before it costs a
        // spill write.  The filter passes rows at random, so it must not be
        // a branch.  A kept record's key is hashed again: keeping the hashes
        // in a scratch beside the batch measured no faster.
        let (key_p, fan_out) = (&self.key_p, self.fan_out);
        let h0 = |r: &PS::Item| key_hash(&key_p(r));
        drain_batches(&mut self.probe, self.b_probe, |batch| {
            let kept = compact(batch, |r| spilled.filter.may_contain(h0(r)));
            batch.truncate(kept);
            batch.drain(..).try_for_each(|r| {
                let bi = level_bucket(h0(&r), 0, fan_out);
                if spilled.build_parts[bi].is_empty() {
                    return Ok(());
                }
                spilled.probe_pass.push(bi, r)
            })
        })?;
        self.end_probe()
    }

    /// The probe side is exhausted: release the residency, close the probe
    /// pass and stage the spilled pairs.
    fn end_probe(&mut self) -> Result<()> {
        self.probing = false;
        self.resident = ResidentMultimap::new();
        drop(self.residency.take());
        let Some(spilled) = self.spilled.take() else {
            return Ok(()); // the build side never left memory
        };
        let probe_parts = spilled.probe_pass.finish()?;
        for (bv, pv) in spilled.build_parts.into_iter().zip(probe_parts) {
            if bv.is_empty() {
                bv.free()?;
                pv.free()?; // nothing was spilled for it either
            } else {
                self.pairs.push((bv, pv, 1, self.build_total));
            }
        }
        self.pairs.reverse(); // LIFO queue → bucket order
        Ok(())
    }

    /// Start consuming one pair: free it if either side is empty, open a
    /// [`PairLoop`] if the build side fits (one chunk) or stopped
    /// shrinking / hit the depth backstop (block-nested rounds), otherwise
    /// re-partition both sides at `level` and stage the children.
    fn open_pair(
        &mut self,
        bv: ExtVec<BR>,
        pv: ExtVec<PS::Item>,
        level: usize,
        fed: u64,
    ) -> Result<()> {
        let (bn, pn) = (bv.len(), pv.len());
        if bn == 0 || pn == 0 {
            bv.free()?;
            pv.free()?;
            return Ok(());
        }
        let chunk = self.m - self.b_build - self.b_probe;
        if bn as usize <= chunk || bn == fed || level >= HASH_MAX_LEVELS {
            let charge = self
                .budget
                .charge(chunk.min(bn as usize) + self.b_build + self.b_probe);
            self.pair = Some(PairLoop {
                bcur: open_cursor(bv, self.drained, self.overlap, &self.budget),
                pcur: open_cursor(pv, self.drained, self.overlap, &self.budget),
                table: ResidentMultimap::new(),
                chunk,
                loaded: false,
                _charge: charge,
            });
            return Ok(());
        }
        let (fan_out, overlap, budget) = (self.fan_out, self.overlap, &self.budget);
        let bucket = |h0| level_bucket(h0, level, fan_out);
        let bkids = PartitionPass::spill_array(&bv, fan_out, level, overlap, budget, |pass, r| {
            pass.push(bucket(key_hash(&(self.key_b)(&r))), r)
        })?;
        // A probe record whose build bucket is empty matches nothing.
        let pkids = PartitionPass::spill_array(&pv, fan_out, level, overlap, budget, |pass, r| {
            let bi = bucket(key_hash(&(self.key_p)(&r)));
            if bkids[bi].is_empty() {
                return Ok(());
            }
            pass.push(bi, r)
        })?;
        bv.free()?;
        pv.free()?;
        let mut staged: Vec<_> = bkids.into_iter().zip(pkids).collect();
        staged.reverse();
        for (bk, pk) in staged {
            if bk.is_empty() && pk.is_empty() {
                bk.free()?;
                pk.free()?;
            } else {
                self.pairs.push((bk, pk, level + 1, bn));
            }
        }
        Ok(())
    }

    /// Advance the active [`PairLoop`] until it emits at least one match
    /// or finishes (freeing both sides and clearing `self.pair`).
    fn drive_pair(&mut self) -> Result<()> {
        loop {
            let Some(pair) = self.pair.as_mut() else {
                return Ok(());
            };
            if !pair.loaded {
                pair.table.clear();
                while pair.table.len() < pair.chunk {
                    let Some(r) = pair.bcur.try_next()? else {
                        break;
                    };
                    let k = (self.key_b)(&r);
                    let h0 = key_hash(&k);
                    pair.table.insert(h0, k, r);
                }
                debug_assert!(pair.table.len() <= pair.chunk, "chunk past its charge");
                if pair.table.is_empty() {
                    if let Some(done) = self.pair.take() {
                        done.bcur.into_inner().free()?;
                        done.pcur.into_inner().free()?;
                    }
                    return Ok(());
                }
                pair.pcur.rewind();
                pair.loaded = true;
            }
            loop {
                match pair.pcur.try_next()? {
                    Some(p) => {
                        let k = (self.key_p)(&p);
                        let h0 = key_hash(&k);
                        let mut matched = false;
                        for b in pair.table.get(h0, &k) {
                            self.out.push_back((self.make)(b, &p));
                            matched = true;
                        }
                        if matched {
                            return Ok(());
                        }
                    }
                    None => {
                        pair.loaded = false; // next build chunk
                        break;
                    }
                }
            }
        }
    }
}

impl<PS, K, BR, KB, KP, MK, O> QueryExec for HashJoinExec<PS, K, BR, KB, KP, MK, O>
where
    PS: QueryExec,
    BR: Record,
    O: Record,
    K: Record + Ord,
    KB: Fn(&BR) -> K,
    KP: Fn(&PS::Item) -> K,
    MK: FnMut(&BR, &PS::Item) -> O,
{
    type Item = O;

    fn try_next(&mut self) -> Result<Option<O>> {
        loop {
            if let Some(o) = self.out.pop_front() {
                return Ok(Some(o));
            }
            if self.probing {
                self.step_probe()?;
                continue;
            }
            if self.pair.is_some() {
                // Returns with output queued or with the pair finished.
                self.drive_pair()?;
                continue;
            }
            let Some((bv, pv, level, fed)) = self.pairs.pop() else {
                return Ok(None);
            };
            self.open_pair(bv, pv, level, fed)?;
        }
    }

    /// The probe's order while the build side stays resident, else
    /// unordered — read from the build count, which `build` fixed, so the
    /// answer is the same before the first pull and after exhaustion.
    fn order(&self) -> Order {
        let residency = hash_join_residency(self.m, self.b_build, self.b_probe, self.fan_out);
        if self.build_total <= residency as u64 {
            self.probe.order()
        } else {
            Order::Unordered
        }
    }

    fn drain_hint(&mut self, _overlap: OverlapConfig) {
        self.drained = true;
        self.probe.drain_hint(self.overlap);
    }

    fn overlap(&self) -> OverlapConfig {
        self.overlap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, sort_pipe, ScanExec};
    use em_core::bounds::{hash_group_exact_ios, hash_join_exact_ios};
    use em_core::EmConfig;
    use emhash::partition::partition_to_fit;
    use pdm::PdmError;
    use std::cell::Cell;
    use std::cmp::Ordering;
    use std::collections::BTreeMap;

    /// 256-byte blocks (16 `(u64, u64)` records), `mem_blocks` blocks.
    fn device(mem_blocks: usize) -> (SharedDevice, usize) {
        let cfg = EmConfig::new(256, mem_blocks);
        (cfg.ram_disk(), cfg.mem_records::<(u64, u64)>())
    }

    fn pairs(n: u64, keys: u64, seed: u64) -> Vec<(u64, u64)> {
        (0..n)
            .map(|i| ((i.wrapping_mul(seed) ^ i >> 3) % keys, i))
            .collect()
    }

    #[test]
    fn hash_group_matches_in_memory_reference() {
        let (d, m) = device(16);
        let data = pairs(6000, 300, 0x9E37_79B9);
        let v = ExtVec::from_slice(d.clone(), &data).unwrap();
        let cfg = ExecConfig::new(m);
        let mut scan = ScanExec::new(&v);
        let mut g = HashGroupByExec::build(
            &mut scan,
            &d,
            &cfg,
            4,
            |r: &(u64, u64)| r.0,
            0u64,
            |acc, r| *acc += r.1,
            |k, acc, n| (k, acc, n),
        )
        .unwrap();
        assert_eq!(g.order(), Order::Unordered);
        let mut got = collect(&mut g, &d).unwrap().to_vec().unwrap();
        got.sort_unstable();
        let mut expect: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for (k, x) in data {
            let e = expect.entry(k).or_insert((0, 0));
            e.0 += x;
            e.1 += 1;
        }
        let expect: Vec<(u64, u64, u64)> =
            expect.into_iter().map(|(k, (s, n))| (k, s, n)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn hash_group_transfers_match_replay_exactly() {
        // The third tape's 100 groups all fit the hybrid table.
        for (n, keys, fan) in [(6000u64, 3000u64, 4usize), (9000, 900, 6), (6000, 100, 4)] {
            let (d, m) = device(16);
            let data = pairs(n, keys, 0x1234_5679);
            let v = ExtVec::from_slice(d.clone(), &data).unwrap();
            let hashes: Vec<u64> = data.iter().map(|r| key_hash(&r.0)).collect();
            let cfg = ExecConfig::new(m);
            let b = v.per_block();
            let fan_in = cfg.sort.effective_fan_in(b);
            let before = d.stats().snapshot();
            let mut scan = ScanExec::new(&v);
            let mut g = HashGroupByExec::build(
                &mut scan,
                &d,
                &cfg,
                fan,
                |r: &(u64, u64)| r.0,
                0u64,
                |acc, r| *acc += r.1,
                |k, acc, nn| (k, acc, nn),
            )
            .unwrap();
            let out = collect(&mut g, &d).unwrap();
            let delta = d.stats().snapshot().since(&before);
            let predicted = v.num_blocks() as u64
                + hash_group_exact_ios(&hashes, m, b, fan, fan_in)
                + out.num_blocks() as u64;
            assert_eq!(delta.total(), predicted, "n={n} keys={keys} fan={fan}");
            // A fully resident aggregate writes only its output.
            let resident = keys as usize <= m - (fan + 1) * b;
            let only_output = delta.writes() == out.num_blocks() as u64;
            assert_eq!(only_output, resident, "n={n} keys={keys}");
        }
    }

    #[test]
    fn hash_group_skew_tape_takes_the_sort_fallback() {
        // M = 4 blocks and fan-out 3 leave a zero-key absorb table, so the
        // all-equal tape spills whole, stops shrinking after one pass, and
        // is consumed by the sort fallback — still one output record.
        let cfg = EmConfig::new(256, 4);
        let d = cfg.ram_disk();
        let m = cfg.mem_records::<(u64, u64)>();
        let data: Vec<(u64, u64)> = (0..3000).map(|i| (7u64, i)).collect();
        let v = ExtVec::from_slice(d.clone(), &data).unwrap();
        let ecfg = ExecConfig::new(m);
        let b = v.per_block();
        let fan_in = ecfg.sort.effective_fan_in(b);
        let hashes: Vec<u64> = data.iter().map(|r| key_hash(&r.0)).collect();
        let before = d.stats().snapshot();
        let mut scan = ScanExec::new(&v);
        let mut g = HashGroupByExec::build(
            &mut scan,
            &d,
            &ecfg,
            3,
            |r: &(u64, u64)| r.0,
            0u64,
            |acc, r| *acc += r.1,
            |k, acc, n| (k, acc, n),
        )
        .unwrap();
        let out = collect(&mut g, &d).unwrap();
        let delta = d.stats().snapshot().since(&before);
        assert_eq!(
            out.to_vec().unwrap(),
            vec![(7, (0..3000u64).sum::<u64>(), 3000)]
        );
        assert!(delta.writes() > out.num_blocks() as u64, "the tape spilled");
        let predicted = v.num_blocks() as u64 + hash_group_exact_ios(&hashes, m, b, 3, fan_in) + 1; // one output block for the single group
        assert_eq!(delta.total(), predicted);
    }

    #[test]
    fn hash_distinct_matches_sorted_dedup() {
        let (d, m) = device(16);
        let data: Vec<(u64, u64)> = pairs(5000, 40, 0xDEAD_BEF1)
            .into_iter()
            .map(|(k, x)| (k, x % 5))
            .collect();
        let v = ExtVec::from_slice(d.clone(), &data).unwrap();
        let cfg = ExecConfig::new(m);
        let mut scan = ScanExec::new(&v);
        // Keyed on the whole record, a group-by is duplicate elimination.
        let mut dx = HashGroupByExec::build(
            &mut scan,
            &d,
            &cfg,
            4,
            |r: &(u64, u64)| *r,
            (),
            |_, _| {},
            |k, (), _| k,
        )
        .unwrap();
        let mut got = collect(&mut dx, &d).unwrap().to_vec().unwrap();
        got.sort_unstable();
        let mut expect = data;
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(got, expect);
    }

    #[test]
    fn grace_join_matches_nested_loop_reference() {
        // Both memories spill the 1 500-record build side.
        for mem_blocks in [16, 64] {
            let (d, m) = device(mem_blocks);
            let build = pairs(1500, 400, 0xABCD_EF12);
            let probe = pairs(4000, 400, 0x1357_9BDF);
            let bv = ExtVec::from_slice(d.clone(), &build).unwrap();
            let pv = ExtVec::from_slice(d.clone(), &probe).unwrap();
            let cfg = ExecConfig::new(m);
            let mut bscan = ScanExec::new(&bv);
            let pscan = ScanExec::new(&pv);
            let mut j: HashJoinExec<_, u64, (u64, u64), _, _, _, (u64, u64, u64)> =
                HashJoinExec::build(
                    &mut bscan,
                    pscan,
                    &d,
                    &cfg,
                    4,
                    false,
                    |b: &(u64, u64)| b.0,
                    |p: &(u64, u64)| p.0,
                    |b, p| (b.0, b.1, p.1),
                )
                .unwrap();
            assert_eq!(j.order(), Order::Unordered);
            let mut got = collect(&mut j, &d).unwrap().to_vec().unwrap();
            got.sort_unstable();
            let mut expect = Vec::new();
            for b in &build {
                for p in &probe {
                    if b.0 == p.0 {
                        expect.push((b.0, b.1, p.1));
                    }
                }
            }
            expect.sort_unstable();
            assert_eq!(got, expect, "M={m}");
        }
    }

    #[test]
    fn grace_join_transfers_match_replay_exactly() {
        // M = 256 records forces level-1 re-partitioning; at M = 1 024
        // every level-0 pair fits one chunk.
        for mem_blocks in [16, 64] {
            let (d, m) = device(mem_blocks);
            let build = pairs(2000, 5000, 0xABCD_EF13);
            let probe = pairs(6000, 5000, 0x1357_9BD1);
            let bv = ExtVec::from_slice(d.clone(), &build).unwrap();
            let pv = ExtVec::from_slice(d.clone(), &probe).unwrap();
            let bh: Vec<u64> = build.iter().map(|r| key_hash(&r.0)).collect();
            let ph: Vec<u64> = probe.iter().map(|r| key_hash(&r.0)).collect();
            let cfg = ExecConfig::new(m);
            let b = bv.per_block();
            let replay = hash_join_exact_ios(&bh, &ph, m, b, b, 16, 4);
            let before = d.stats().snapshot();
            let mut bscan = ScanExec::new(&bv);
            let pscan = ScanExec::new(&pv);
            let mut j: HashJoinExec<_, u64, (u64, u64), _, _, _, (u64, u64, u64)> =
                HashJoinExec::build(
                    &mut bscan,
                    pscan,
                    &d,
                    &cfg,
                    4,
                    false,
                    |r: &(u64, u64)| r.0,
                    |r: &(u64, u64)| r.0,
                    |b, p| (b.0, b.1, p.1),
                )
                .unwrap();
            let out = collect(&mut j, &d).unwrap();
            let delta = d.stats().snapshot().since(&before);
            let predicted =
                bv.num_blocks() as u64 + pv.num_blocks() as u64 + replay + out.num_blocks() as u64;
            assert_eq!(delta.total(), predicted, "M={m}");
            assert!(
                delta.writes() > out.num_blocks() as u64,
                "M={m}: the join spilled"
            );
        }
    }

    #[test]
    fn skewed_join_pair_takes_block_nested_rounds() {
        // Every build key equal: level 0 puts all records in one bucket,
        // which can never shrink — the pair must fall back to block-nested
        // rounds and still produce the full cross product of matches.
        let cfg = EmConfig::new(256, 8);
        let d = cfg.ram_disk();
        let m = cfg.mem_records::<(u64, u64)>();
        let build: Vec<(u64, u64)> = (0..500).map(|i| (3u64, i)).collect();
        let probe: Vec<(u64, u64)> = (0..300).map(|i| (3u64, i + 1000)).collect();
        let bv = ExtVec::from_slice(d.clone(), &build).unwrap();
        let pv = ExtVec::from_slice(d.clone(), &probe).unwrap();
        let bh: Vec<u64> = build.iter().map(|r| key_hash(&r.0)).collect();
        let ph: Vec<u64> = probe.iter().map(|r| key_hash(&r.0)).collect();
        let ecfg = ExecConfig::new(m);
        let b = bv.per_block();
        let before = d.stats().snapshot();
        let mut bscan = ScanExec::new(&bv);
        let pscan = ScanExec::new(&pv);
        let mut j: HashJoinExec<_, u64, (u64, u64), _, _, _, (u64, u64, u64)> =
            HashJoinExec::build(
                &mut bscan,
                pscan,
                &d,
                &ecfg,
                3,
                false,
                |r: &(u64, u64)| r.0,
                |r: &(u64, u64)| r.0,
                |bb, p| (bb.0, bb.1, p.1),
            )
            .unwrap();
        let out = collect(&mut j, &d).unwrap();
        let delta = d.stats().snapshot().since(&before);
        assert_eq!(out.len(), 500 * 300);
        let predicted = bv.num_blocks() as u64
            + pv.num_blocks() as u64
            + hash_join_exact_ios(&bh, &ph, m, b, b, 16, 3)
            + out.num_blocks() as u64;
        assert_eq!(delta.total(), predicted);
    }

    type Pair = (u64, u64);
    type Triple = (u64, u64, u64);
    type PairJoin<'a> = HashJoinExec<
        ScanExec<'a, Pair>,
        u64,
        Pair,
        fn(&Pair) -> u64,
        fn(&Pair) -> u64,
        fn(&Pair, &Pair) -> Triple,
        Triple,
    >;

    /// `bv ⋈ probe` on the first field, built but not yet drained.
    fn join_on_first<'a>(
        d: &SharedDevice,
        cfg: &ExecConfig,
        fan: usize,
        bv: &ExtVec<Pair>,
        probe: ScanExec<'a, Pair>,
    ) -> Result<PairJoin<'a>> {
        fn first(r: &Pair) -> u64 {
            r.0
        }
        fn triple(b: &Pair, p: &Pair) -> Triple {
            (b.0, b.1, p.1)
        }
        HashJoinExec::build(
            &mut ScanExec::new(bv),
            probe,
            d,
            cfg,
            fan,
            false,
            first as fn(&Pair) -> u64,
            first as fn(&Pair) -> u64,
            triple as fn(&Pair, &Pair) -> Triple,
        )
    }

    #[test]
    fn build_side_spills_only_once_it_stops_fitting() {
        // M = 1 024, F = 4, B = 16: the residency is 1 024 − 5·16 = 944.
        let (residency, fan) = (944, 4);
        let all = pairs(residency + 1, 5000, 0xABCD_EF13);
        let probe = pairs(6000, 5000, 0x1357_9BD1);
        // Exactly R build records: held, matched in-stream, and the join
        // itself moves nothing.
        let (d, m) = device(64);
        let cfg = ExecConfig::new(m);
        let build = &all[..residency as usize];
        let bv = ExtVec::from_slice(d.clone(), build).unwrap();
        let pv = ExtVec::from_slice(d.clone(), &probe).unwrap();
        let before = d.stats().snapshot();
        let mut j = join_on_first(&d, &cfg, fan, &bv, ScanExec::new(&pv)).unwrap();
        let out = collect(&mut j, &d).unwrap();
        let delta = d.stats().snapshot().since(&before);
        assert_eq!(
            delta.total(),
            (bv.num_blocks() + pv.num_blocks() + out.num_blocks()) as u64,
            "scan both inputs, write the output"
        );
        assert_eq!(delta.writes(), out.num_blocks() as u64);
        assert_eq!(j.budget.high_water(), residency as usize);
        let mut got = out.to_vec().unwrap();
        got.sort_unstable();
        let mut by_key: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for b in build {
            by_key.entry(b.0).or_default().push(b.1);
        }
        let mut expect: Vec<Triple> = probe
            .iter()
            .flat_map(|p| {
                by_key
                    .get(&p.0)
                    .into_iter()
                    .flatten()
                    .map(|&x| (p.0, x, p.1))
            })
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);

        // One record more: every build record is partitioned, exactly as a
        // plain level-0 pass over the arrival order writes them.
        let bv = ExtVec::from_slice(d.clone(), &all).unwrap();
        let bh: Vec<u64> = all.iter().map(|r| key_hash(&r.0)).collect();
        let ph: Vec<u64> = probe.iter().map(|r| key_hash(&r.0)).collect();
        let before = d.stats().snapshot();
        let mut j = join_on_first(&d, &cfg, fan, &bv, ScanExec::new(&pv)).unwrap();
        let comparing = d.stats().snapshot();
        let mut pass = PartitionPass::new(&d, fan, 0, OverlapConfig::off(), &j.budget);
        for (r, &h0) in all.iter().zip(&bh) {
            pass.push(level_bucket(h0, 0, fan), *r).unwrap();
        }
        let plain = pass.finish().unwrap();
        let spilled = j.spilled.as_ref().expect("R + 1 records overflow");
        for (i, (mine, plain)) in spilled.build_parts.iter().zip(&plain).enumerate() {
            assert_eq!(
                mine.to_vec().unwrap(),
                plain.to_vec().unwrap(),
                "bucket {i}"
            );
        }
        drop(plain);
        let compared = d.stats().snapshot().since(&comparing).total();
        let out = collect(&mut j, &d).unwrap();
        let delta = d.stats().snapshot().since(&before);
        let replay = hash_join_exact_ios(&bh, &ph, m, 16, 16, 16, fan);
        assert_eq!(
            delta.total() - compared,
            (bv.num_blocks() + pv.num_blocks() + out.num_blocks()) as u64 + replay
        );
    }

    #[test]
    fn probe_order_is_fixed_at_build_time() {
        // M = 256, F = 4, B = 16: R = 176.  The probe is ordered on key 3.
        let (d, m) = device(16);
        let cfg = ExecConfig::new(m);
        let residency = hash_join_residency(m, 16, 16, 4);
        assert_eq!(residency, 176);
        let probe: Vec<Pair> = (0..200).map(|i| (i / 2, i)).collect();
        let pv = ExtVec::from_slice(d.clone(), &probe).unwrap();

        // 100 build rows, two per key for keys 0..50: held.  Output is
        // probe order × build-arrival order, and a sort by key 3 is free.
        let build: Vec<Pair> = (0..100).map(|i| (i % 50, i)).collect();
        let bv = ExtVec::from_slice(d.clone(), &build).unwrap();
        let before = d.stats().snapshot();
        let mut j =
            join_on_first(&d, &cfg, 4, &bv, ScanExec::with_order(&pv, Order::Key(3))).unwrap();
        assert_eq!(j.order(), Order::Key(3), "before the first pull");
        let out = sort_pipe(&mut j, &d, &cfg, 3, |a, b| a.0 < b.0, |s| collect(s, &d)).unwrap();
        assert_eq!(j.order(), Order::Key(3), "after exhaustion");
        let ios = d.stats().snapshot().since(&before);
        assert_eq!(
            ios.total(),
            (bv.num_blocks() + pv.num_blocks() + out.num_blocks()) as u64,
            "two scans and the output: the sort was elided"
        );
        let nested_loop: Vec<Triple> = probe
            .iter()
            .flat_map(|p| build.iter().filter(|b| b.0 == p.0).map(|b| (b.0, b.1, p.1)))
            .collect();
        assert_eq!(out.to_vec().unwrap(), nested_loop);

        // R + 1 build rows: spilled, unordered throughout.
        let build: Vec<Pair> = (0..residency as u64 + 1).map(|i| (i % 50, i)).collect();
        let bv = ExtVec::from_slice(d.clone(), &build).unwrap();
        let mut j =
            join_on_first(&d, &cfg, 4, &bv, ScanExec::with_order(&pv, Order::Key(3))).unwrap();
        assert!(j.spilled.is_some());
        assert_eq!(j.order(), Order::Unordered, "before the first pull");
        collect(&mut j, &d).unwrap();
        assert_eq!(j.order(), Order::Unordered, "after exhaustion");
    }

    #[test]
    fn fan_out_over_memory_is_a_typed_error() {
        // Blocks of 16 rows; a join's partition buffers hold a block of
        // each side, 32 rows.  F = 3 fits memory of exactly 4 buffers,
        // not one record less, and F = 1 is never a partition.  All three
        // entry points answer with the one check's error and allocate
        // nothing.
        let (d, _) = device(16);
        let v = ExtVec::from_slice(d.clone(), &pairs(100, 10, 0x9E37_79B9)).unwrap();
        let partition = |fan, m| -> Result<()> {
            let hash = |r: &Pair| key_hash(&r.0);
            partition_to_fit(&v, hash, m, fan, OverlapConfig::off()).map(drop)
        };
        let group = |fan, m| -> Result<()> {
            let mut g = HashGroupByExec::build(
                &mut ScanExec::new(&v),
                &d,
                &ExecConfig::new(m),
                fan,
                |r: &Pair| r.0,
                0u64,
                |acc, r| *acc += r.1,
                |k, acc, n| (k, acc, n),
            )?;
            collect(&mut g, &d).map(drop)
        };
        let join = |fan, m| -> Result<()> {
            let mut j = join_on_first(&d, &ExecConfig::new(m), fan, &v, ScanExec::new(&v))?;
            collect(&mut j, &d).map(drop)
        };
        type Entry<'a> = &'a dyn Fn(usize, usize) -> Result<()>;
        let entries: [(Entry, usize); 3] = [(&partition, 16), (&group, 16), (&join, 32)];
        for (run, buffer) in entries {
            let allocated = d.allocated_blocks();
            run(3, 4 * buffer).unwrap();
            assert_eq!(d.allocated_blocks(), allocated);
            for (fan, m) in [(3, 4 * buffer - 1), (1, 4 * buffer)] {
                let want = emsort::check_fan_out(fan, buffer, m).err();
                let err = run(fan, m).err();
                assert!(matches!(err, Some(PdmError::InvalidRequest(_))), "{err:?}");
                assert_eq!(err.map(|e| e.to_string()), want.map(|e| e.to_string()));
                assert_eq!(d.allocated_blocks(), allocated);
            }
        }
    }

    #[test]
    fn unmatched_probe_records_stop_at_the_filter() {
        // 2 000 even build keys overflow the 944-record residency, whose
        // bytes make a 2¹⁶-bit filter; 6 000 odd probe keys match nothing.
        // Only the filter's false positives may reach the partition
        // writers, and the replay knows which.
        let (d, m) = device(64);
        let build: Vec<Pair> = (0..2000).map(|i| (2 * i, i)).collect();
        let probe: Vec<Pair> = (0..6000).map(|i| (2 * i + 1, i)).collect();
        let bv = ExtVec::from_slice(d.clone(), &build).unwrap();
        let pv = ExtVec::from_slice(d.clone(), &probe).unwrap();
        let bh: Vec<u64> = build.iter().map(|r| key_hash(&r.0)).collect();
        let ph: Vec<u64> = probe.iter().map(|r| key_hash(&r.0)).collect();
        let mut filter = KeyFilter::with_bytes(944 * 16);
        assert_eq!(filter.bits(), 1 << 16);
        bh.iter().for_each(|&h| filter.insert(h));
        let (mut built, mut lies) = ([0u64; 4], [0u64; 4]);
        for &h in &bh {
            built[level_bucket(h, 0, 4)] += 1;
        }
        for &h in ph.iter().filter(|&&h| filter.may_contain(h)) {
            lies[level_bucket(h, 0, 4)] += 1;
        }
        let false_positives: u64 = lies.iter().sum();
        assert!(
            (1..60).contains(&false_positives),
            "{false_positives} of 6 000 (expected ≈ 0.4 %)"
        );
        let before = d.stats().snapshot();
        let mut j = join_on_first(&d, &ExecConfig::new(m), 4, &bv, ScanExec::new(&pv)).unwrap();
        let out = collect(&mut j, &d).unwrap();
        let delta = d.stats().snapshot().since(&before);
        assert!(out.is_empty());
        let spilled: u64 = built.iter().chain(&lies).map(|n| n.div_ceil(16)).sum();
        assert_eq!(
            delta.writes(),
            spilled,
            "the output is empty: every write is a spill"
        );
        assert_eq!(
            delta.total(),
            (bv.num_blocks() + pv.num_blocks()) as u64
                + hash_join_exact_ios(&bh, &ph, m, 16, 16, 16, 4)
        );
    }

    /// A probe stream that counts its pulls.
    struct CountingProbe<'a> {
        scan: ScanExec<'a, Pair>,
        pulls: u64,
    }

    impl QueryExec for CountingProbe<'_> {
        type Item = Pair;

        fn try_next(&mut self) -> Result<Option<Pair>> {
            self.pulls += 1;
            self.scan.try_next()
        }

        fn order(&self) -> Order {
            self.scan.order()
        }
    }

    #[test]
    fn the_probe_is_never_pulled_past_its_end() {
        // A stream need not be fused, so the join pulls its probe until
        // the first `None` and never again: `rows + 1` pulls whether the
        // 944-record residency holds the build side or a Grace join routes
        // the whole probe in one call.
        let (d, m) = device(64);
        let probe = pairs(6000, 5000, 0x1357_9BD1);
        let pv = ExtVec::from_slice(d.clone(), &probe).unwrap();
        let ph: Vec<u64> = probe.iter().map(|r| key_hash(&r.0)).collect();
        for (rows, spills) in [(944u64, false), (2000, true)] {
            let build = pairs(rows, 5000, 0xABCD_EF13);
            let bv = ExtVec::from_slice(d.clone(), &build).unwrap();
            let bh: Vec<u64> = build.iter().map(|r| key_hash(&r.0)).collect();
            let before = d.stats().snapshot();
            let counting = CountingProbe {
                scan: ScanExec::new(&pv),
                pulls: 0,
            };
            let mut j: HashJoinExec<_, u64, Pair, _, _, _, Triple> = HashJoinExec::build(
                &mut ScanExec::new(&bv),
                counting,
                &d,
                &ExecConfig::new(m),
                4,
                false,
                |r: &Pair| r.0,
                |r: &Pair| r.0,
                |b, p| (b.0, b.1, p.1),
            )
            .unwrap();
            assert_eq!(j.spilled.is_some(), spills, "{rows} build rows");
            let out = collect(&mut j, &d).unwrap();
            assert_eq!(j.try_next().unwrap(), None);
            assert_eq!(j.probe.pulls, probe.len() as u64 + 1, "{rows} build rows");
            let delta = d.stats().snapshot().since(&before);
            let replay = hash_join_exact_ios(&bh, &ph, m, 16, 16, 16, 4);
            assert_eq!(replay > 0, spills, "{rows} build rows");
            assert_eq!(
                delta.total(),
                (bv.num_blocks() + pv.num_blocks() + out.num_blocks()) as u64 + replay,
                "{rows} build rows"
            );
        }
    }

    /// What a spilled join's level-0 probe pass must write: the probe rows
    /// whose hash the filter over `bh` (`filter_bytes` of it) keeps and
    /// whose build bucket is non-empty, in arrival order, one list per
    /// non-empty build bucket in bucket order — and how many rows the
    /// filter kept that an empty bucket then dropped.
    fn routed_probe(
        bh: &[u64],
        filter_bytes: usize,
        probe: &[Pair],
        fan: usize,
    ) -> (Vec<Vec<Pair>>, usize) {
        let mut filter = KeyFilter::with_bytes(filter_bytes);
        let mut built = vec![false; fan];
        for &h in bh {
            filter.insert(h);
            built[level_bucket(h, 0, fan)] = true;
        }
        let mut parts = vec![Vec::new(); fan];
        let mut bucket_drops = 0;
        for p in probe {
            let h = key_hash(&p.0);
            let i = level_bucket(h, 0, fan);
            if filter.may_contain(h) {
                if built[i] {
                    parts[i].push(*p);
                } else {
                    bucket_drops += 1;
                }
            }
        }
        let parts = parts
            .into_iter()
            .zip(built)
            .filter_map(|(p, b)| b.then_some(p));
        (parts.collect(), bucket_drops)
    }

    /// The probe partitions a join staged when its probe pass closed, in
    /// bucket order (the queue pops them last to first).
    fn staged_probe<PS, BR, KB, KP, MK>(
        j: &HashJoinExec<PS, u64, BR, KB, KP, MK, Triple>,
    ) -> Vec<Vec<Pair>>
    where
        PS: QueryExec<Item = Pair>,
        BR: Record,
    {
        assert!(j.pairs.iter().all(|&(_, _, level, _)| level == 1));
        j.pairs
            .iter()
            .rev()
            .map(|(_, pv, ..)| pv.to_vec().unwrap())
            .collect()
    }

    #[test]
    fn spilled_probe_partitions_hold_exactly_the_routed_rows() {
        // M = 256, F = 4: a 2¹⁴-bit filter over ≈ 1 500 build rows, none
        // of them in bucket 3, so some probe rows pass the filter and meet
        // an empty bucket.  5 990 probe rows end on a short batch.
        let (d, m) = device(16);
        let fan = 4;
        let build: Vec<Pair> = pairs(2000, 5000, 0xABCD_EF13)
            .into_iter()
            .filter(|b| level_bucket(key_hash(&b.0), 0, fan) != 3)
            .collect();
        let probe = pairs(5990, 5000, 0x1357_9BD1);
        let bv = ExtVec::from_slice(d.clone(), &build).unwrap();
        let pv = ExtVec::from_slice(d.clone(), &probe).unwrap();
        let bh: Vec<u64> = build.iter().map(|r| key_hash(&r.0)).collect();
        let residency = hash_join_residency(m, 16, 16, fan);
        let (expect, bucket_drops) = routed_probe(&bh, residency * 16, &probe, fan);
        assert_eq!(expect.len(), 3, "bucket 3 has no build row");
        assert!(
            bucket_drops > 0,
            "the filter kept a row an empty bucket drops"
        );
        let kept: usize = expect.iter().map(Vec::len).sum();
        assert!((1..probe.len() / 2).contains(&kept), "{kept} rows kept");

        let allocated = d.allocated_blocks();
        let mut j = join_on_first(&d, &ExecConfig::new(m), fan, &bv, ScanExec::new(&pv)).unwrap();
        j.step_probe().unwrap();
        assert!(!j.probing);
        assert_eq!(staged_probe(&j), expect);
        drop(j);
        assert_eq!(d.allocated_blocks(), allocated);
    }

    #[test]
    fn a_zero_word_filter_routes_by_bucket_emptiness_alone() {
        // One-byte build rows in 16-byte blocks beside one-block probe
        // rows: at F = 2 and M = 3·(16 + 1) the residency is 51 − 3·16 = 3
        // records, 3 bytes of filter, which is no word — it accepts every
        // key.  Every build key lies in bucket 0, so bucket 0 gets every
        // probe row of its bucket, matching or not, and bucket 1 none.
        let (fan, m) = (2, 51);
        let d = EmConfig::new(16, 4).ram_disk();
        let keys: Vec<u8> = (0..=255u8)
            .filter(|&k| level_bucket(key_hash(&u64::from(k)), 0, fan) == 0)
            .collect();
        let build: Vec<u8> = keys.iter().cycle().take(40).copied().collect();
        let probe: Vec<Pair> = (0..300u64).map(|i| (i * 7 % 512, i)).collect();
        let bv = ExtVec::from_slice(d.clone(), &build).unwrap();
        let pv = ExtVec::from_slice(d.clone(), &probe).unwrap();
        let bh: Vec<u64> = build.iter().map(|&b| key_hash(&u64::from(b))).collect();
        assert_eq!(hash_join_residency(m, 16, 1, fan), 3);
        let (expect, bucket_drops) = routed_probe(&bh, 3, &probe, fan);
        let bucket0 = |p: &&Pair| level_bucket(key_hash(&p.0), 0, fan) == 0;
        let every_row_of_bucket_0: Vec<Pair> = probe.iter().filter(bucket0).copied().collect();
        assert_eq!(expect, vec![every_row_of_bucket_0]);
        assert_eq!(bucket_drops, probe.len() - expect[0].len());
        assert!(
            expect[0].iter().any(|p| p.0 > 255),
            "rows no build key matches"
        );

        let allocated = d.allocated_blocks();
        let mut j: HashJoinExec<_, u64, u8, _, _, _, Triple> = HashJoinExec::build(
            &mut ScanExec::new(&bv),
            ScanExec::new(&pv),
            &d,
            &ExecConfig::new(m),
            fan,
            false,
            |b: &u8| u64::from(*b),
            |p: &Pair| p.0,
            |b, p| (u64::from(*b), p.0, p.1),
        )
        .unwrap();
        assert_eq!(j.spilled.as_ref().map(|s| s.filter.bits()), Some(0));
        j.step_probe().unwrap();
        assert_eq!(staged_probe(&j), expect);
        drop(j);
        assert_eq!(d.allocated_blocks(), allocated);
    }

    #[test]
    fn a_probe_read_error_routes_only_the_blocks_before_it() {
        // The probe lives on a device of its own whose crash switch fails
        // the read of block `good`; the join spills to a healthy one.  The
        // batch that failed is never routed, the error returns, and the
        // join dropped then frees every block it wrote.  Closing the probe
        // pass by hand shows what was routed: exactly the oracle's rows of
        // the first `good` blocks.
        let (d, m) = device(16);
        let fan = 4;
        let build = pairs(2000, 5000, 0xABCD_EF13);
        let probe = pairs(6000, 5000, 0x1357_9BD1);
        let bv = ExtVec::from_slice(d.clone(), &build).unwrap();
        let bh: Vec<u64> = build.iter().map(|r| key_hash(&r.0)).collect();
        let residency = hash_join_residency(m, 16, 16, fan);
        let good = 100u64;
        let (expect, _) = routed_probe(&bh, residency * 16, &probe[..good as usize * 16], fan);
        let blocks = probe.len().div_ceil(16) as u64;
        for close in [false, true] {
            let plan = pdm::FaultPlan::new(1).with_crash(pdm::CrashSwitch::after(blocks + good));
            let pd = pdm::DiskArray::new_ram_faulty(
                1,
                256,
                pdm::Placement::Independent,
                pdm::IoMode::Synchronous,
                &[plan],
                pdm::RetryPolicy::none(),
            ) as SharedDevice;
            let pv = ExtVec::from_slice(pd, &probe).unwrap();
            let allocated = d.allocated_blocks();
            let cfg = ExecConfig::new(m);
            let mut j = join_on_first(&d, &cfg, fan, &bv, ScanExec::new(&pv)).unwrap();
            assert!(j.step_probe().is_err(), "the failed read must surface");
            if close {
                j.end_probe().unwrap();
                assert_eq!(staged_probe(&j), expect);
            }
            drop(j);
            assert_eq!(d.allocated_blocks(), allocated, "closed: {close}");
        }
    }

    /// `cfg` at memory `m`, with and without overlap queues.
    fn sync_and_overlapped(m: usize) -> [ExecConfig; 2] {
        let overlapped = emsort::SortConfig::new(m).with_overlap(OverlapConfig::symmetric(2));
        [ExecConfig::new(m), ExecConfig { sort: overlapped }]
    }

    #[test]
    fn operators_hold_m_plus_one_pass_of_queues() {
        // Two overlapped lanes at depth 2: the budget is `M` plus one
        // reader's read-ahead and F writers' write-behind, each two blocks
        // a lane, and the queues are charged beyond `M`.
        let d = pdm::DiskArray::new_ram_with(
            2,
            256,
            pdm::Placement::Independent,
            pdm::IoMode::Overlapped,
        ) as SharedDevice;
        let (m, fan, lanes, b) = (16 * 16, 4, 2, 16);
        let cfg = sync_and_overlapped(m)[1];
        let reserve = (2 * lanes + fan * 2 * lanes) * b;
        let v = ExtVec::from_slice(d.clone(), &pairs(6000, 3000, 0x9E37_79B9)).unwrap();
        let mut g = HashGroupByExec::build(
            &mut ScanExec::new(&v),
            &d,
            &cfg,
            fan,
            |r: &(u64, u64)| r.0,
            0u64,
            |acc, r| *acc += r.1,
            |k, acc, n| (k, acc, n),
        )
        .unwrap();
        collect(&mut g, &d).unwrap();
        assert_eq!(g.budget.capacity(), m + reserve);
        assert!(g.budget.high_water() > m, "overlap queues were charged");
        assert_eq!(g.budget.used(), 0, "everything released once drained");

        let bv = ExtVec::from_slice(d.clone(), &pairs(2000, 700, 0xABCD_EF13)).unwrap();
        let mut j = join_on_first(&d, &cfg, fan, &bv, ScanExec::new(&v)).unwrap();
        collect(&mut j, &d).unwrap();
        assert_eq!(j.budget.capacity(), m + reserve * 2, "B_build + B_probe");
        assert!(j.budget.high_water() > m, "overlap queues were charged");
        assert_eq!(j.budget.used(), 0, "everything released once drained");
    }

    #[test]
    fn join_dropped_under_a_limit_frees_its_partitions() {
        // A consumer under a limit pulls five rows and drops the join.
        // The first match comes out of a pair loop, with the other pairs
        // still queued.
        for mem_blocks in [16, 64] {
            let (d, m) = device(mem_blocks);
            let bv = ExtVec::from_slice(d.clone(), &pairs(2000, 700, 0xABCD_EF13)).unwrap();
            let pv = ExtVec::from_slice(d.clone(), &pairs(4000, 900, 0x1357_9BD1)).unwrap();
            let allocated = d.allocated_blocks();
            let mut moved = Vec::new();
            for cfg in sync_and_overlapped(m) {
                let before = d.stats().snapshot();
                let mut j = join_on_first(&d, &cfg, 3, &bv, ScanExec::new(&pv)).unwrap();
                for _ in 0..5 {
                    assert!(j.try_next().unwrap().is_some(), "M={m}");
                }
                assert!(d.allocated_blocks() > allocated, "M={m}");
                drop(j);
                assert_eq!(d.allocated_blocks(), allocated, "M={m}");
                moved.push(d.stats().snapshot().since(&before).total());
            }
            // Nobody promised to drain the join, so overlap reads nothing
            // ahead that the stop leaves behind.
            assert_eq!(moved[0], moved[1], "M={m}");
        }
    }

    #[test]
    fn group_by_dropped_under_a_limit_frees_its_partitions() {
        // The first tape leaves spilled partitions queued behind the
        // absorb table's groups; the second (two keys of one level-0
        // bucket, no absorb table at M = 4 blocks) is mid-way through a
        // sort fallback's sorted partition when a consumer under a limit
        // of one group drops it.
        let same_bucket: Vec<u64> = (0..u64::MAX)
            .filter(|&k| level_bucket(key_hash(&k), 0, 3) == 0)
            .take(2)
            .collect();
        let skew: Vec<Pair> = (0..3000)
            .map(|i| (same_bucket[i as usize % 2], i))
            .collect();
        for (mem_blocks, fan, data) in [(16, 4, pairs(6000, 3000, 0x1234_5679)), (4, 3, skew)] {
            let (d, m) = device(mem_blocks);
            let v = ExtVec::from_slice(d.clone(), &data).unwrap();
            let allocated = d.allocated_blocks();
            for cfg in sync_and_overlapped(m) {
                let mut g = HashGroupByExec::build(
                    &mut ScanExec::new(&v),
                    &d,
                    &cfg,
                    fan,
                    |r: &Pair| r.0,
                    0u64,
                    |acc, r| *acc += r.1,
                    |k, acc, n| (k, acc, n),
                )
                .unwrap();
                assert!(g.try_next().unwrap().is_some(), "M = {mem_blocks} blocks");
                assert!(d.allocated_blocks() > allocated, "M = {mem_blocks} blocks");
                drop(g);
                assert_eq!(d.allocated_blocks(), allocated, "M = {mem_blocks} blocks");
            }
        }
    }

    /// FNV-1a over the encoded records of `out`, in emission order.
    fn checksum<O: Record>(out: &ExtVec<O>) -> u64 {
        let rows = out.to_vec().unwrap();
        let mut bytes = vec![0u8; rows.len() * O::BYTES];
        for (r, at) in rows.iter().zip(bytes.chunks_mut(O::BYTES)) {
            r.write_to(at);
        }
        em_core::hash::fnv1a(&bytes)
    }

    /// `(output checksum, transfers)` of a sum-and-count group-by (or, with
    /// `distinct`, a group-by keyed on the whole record: a dedup) of `data`.
    fn pin_group(mem_blocks: usize, fan: usize, data: &[(u64, u64)], distinct: bool) -> (u64, u64) {
        let (d, m) = device(mem_blocks);
        let v = ExtVec::from_slice(d.clone(), data).unwrap();
        let cfg = ExecConfig::new(m);
        let before = d.stats().snapshot();
        let mut scan = ScanExec::new(&v);
        let sum = if distinct {
            let mut dx = HashGroupByExec::build(
                &mut scan,
                &d,
                &cfg,
                fan,
                |r: &(u64, u64)| *r,
                (),
                |_, _| {},
                |k, (), _| k,
            )
            .unwrap();
            checksum(&collect(&mut dx, &d).unwrap())
        } else {
            let mut g = HashGroupByExec::build(
                &mut scan,
                &d,
                &cfg,
                fan,
                |r: &(u64, u64)| r.0,
                0u64,
                |acc, r| *acc += r.1,
                |k, acc, n| (k, acc, n),
            )
            .unwrap();
            checksum(&collect(&mut g, &d).unwrap())
        };
        (sum, d.stats().snapshot().since(&before).total())
    }

    /// `(output checksum, transfers)` of `build ⋈ probe` on the first field.
    fn pin_join(
        mem_blocks: usize,
        fan: usize,
        build: &[(u64, u64)],
        probe: &[(u64, u64)],
    ) -> (u64, u64) {
        let (d, m) = device(mem_blocks);
        let bv = ExtVec::from_slice(d.clone(), build).unwrap();
        let pv = ExtVec::from_slice(d.clone(), probe).unwrap();
        let before = d.stats().snapshot();
        let mut j = join_on_first(&d, &ExecConfig::new(m), fan, &bv, ScanExec::new(&pv)).unwrap();
        let sum = checksum(&collect(&mut j, &d).unwrap());
        (sum, d.stats().snapshot().since(&before).total())
    }

    #[test]
    fn outputs_and_transfers_are_pinned_to_the_ordered_map_operators() {
        // Checksums recorded at the last commit whose in-memory tables were
        // `BTreeMap`s: the hashed tables must emit the same records in the
        // same order (resident groups by key, matches in probe order ×
        // build-arrival order) on the same absorb/spill/recurse schedule.
        // Every join here overflows its residency, so the build-key filter
        // changed no output and no order — only how many unmatched probe
        // records the multi-key joins write and read back (the two at
        // M = 256 were 4 754 and 3 020 transfers before it).  The two at
        // M = 1 024 spill bucket 0 like every other bucket.
        let skew: Vec<(u64, u64)> = (0..3000).map(|i| (7, i)).collect();
        let few: Vec<(u64, u64)> = pairs(5000, 40, 0xDEAD_BEF1)
            .into_iter()
            .map(|(k, x)| (k, x % 5))
            .collect();
        // 400 keys: chains of several build records a key.
        let (dup_b, dup_p) = (pairs(1500, 400, 0xABCD_EF12), pairs(4000, 400, 0x1357_9BDF));
        // 5 000 keys: multi-level grace at M = 256, one level at M = 1 024.
        let (wide_b, wide_p) = (
            pairs(2000, 5000, 0xABCD_EF13),
            pairs(6000, 5000, 0x1357_9BD1),
        );
        // One key on both sides: block-nested rounds over the pair.
        let one_b: Vec<(u64, u64)> = (0..500).map(|i| (3, i)).collect();
        let one_p: Vec<(u64, u64)> = (0..300).map(|i| (3, i + 1000)).collect();
        let got = [
            // multi-level: 6 000 rows over 3 000 keys at M = 256 re-pass
            pin_group(16, 4, &pairs(6000, 3000, 0x1234_5679), false),
            pin_group(16, 6, &pairs(9000, 900, 0x1234_5679), false),
            // all-equal keys, zero-key absorb table: the sort fallback
            pin_group(4, 3, &skew, false),
            pin_group(16, 4, &few, true),
            pin_join(16, 4, &dup_b, &dup_p),
            pin_join(64, 4, &dup_b, &dup_p),
            pin_join(16, 4, &wide_b, &wide_p),
            pin_join(64, 4, &wide_b, &wide_p),
            pin_join(8, 3, &one_b, &one_p),
        ];
        let pinned: [(u64, u64); 9] = [
            (0x8A3D_05D3_19FE_8781, 1965),
            (0x2E41_82B8_CBD5_17E5, 1641),
            (0x7F8B_DCC2_0F05_CF7B, 2310),
            (0x4F9E_1AA4_C8D0_1B25, 399),
            (0x64A6_0581_07C2_CF73, 4744),
            (0xB0ED_7315_C22A_CA9F, 4026),
            (0xBFA4_F654_2A50_538A, 2068),
            (0x4B5D_84A2_BBA8_EC16, 1498),
            (0xDC24_3B7C_0DE5_AF65, 30248),
        ];
        assert_eq!(got, pinned, "(checksum, transfers) per case: {got:#X?}");
    }

    thread_local! {
        static CMPS: Cell<u64> = const { Cell::new(0) };
        static EQS: Cell<u64> = const { Cell::new(0) };
    }

    /// A `u64` key that counts its comparisons (per test thread).
    #[derive(Clone, Debug)]
    struct Counted(u64);

    impl Record for Counted {
        const BYTES: usize = 8;
        fn write_to(&self, buf: &mut [u8]) {
            self.0.write_to(buf)
        }
        fn read_from(buf: &[u8]) -> Self {
            Counted(u64::read_from(buf))
        }
    }
    impl PartialEq for Counted {
        fn eq(&self, other: &Self) -> bool {
            EQS.with(|c| c.set(c.get() + 1));
            self.0 == other.0
        }
    }
    impl Eq for Counted {}
    impl PartialOrd for Counted {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Counted {
        fn cmp(&self, other: &Self) -> Ordering {
            CMPS.with(|c| c.set(c.get() + 1));
            self.0.cmp(&other.0)
        }
    }

    /// `(Ord::cmp calls, == calls)` of a counted-key sum group-by of `data`.
    fn group_comparisons(mem_blocks: usize, fan: usize, data: &[(u64, u64)]) -> (u64, u64) {
        let (d, m) = device(mem_blocks);
        let v = ExtVec::from_slice(d.clone(), data).unwrap();
        let cfg = ExecConfig::new(m);
        let (cmps, eqs) = (CMPS.with(Cell::get), EQS.with(Cell::get));
        let mut scan = ScanExec::new(&v);
        let mut g = HashGroupByExec::build(
            &mut scan,
            &d,
            &cfg,
            fan,
            |r: &(u64, u64)| Counted(r.0),
            0u64,
            |acc, r| *acc += r.1,
            |k: Counted, acc, n| (k.0, acc, n),
        )
        .unwrap();
        let out = collect(&mut g, &d).unwrap();
        let keys: std::collections::BTreeSet<u64> = data.iter().map(|r| r.0).collect();
        assert_eq!(out.len(), keys.len() as u64);
        (CMPS.with(Cell::get) - cmps, EQS.with(Cell::get) - eqs)
    }

    #[test]
    fn comparator_calls_do_not_scale_with_rows() {
        // All 150 keys fit the 176-key absorb table: ordering is paid once,
        // by `emit_table`'s sort.  Four times the rows over the same keys
        // in the same first-arrival order costs the same comparisons, and
        // `==` runs once per fold (the stored hash matched), never to admit.
        let once = pairs(2000, 150, 0x9E37_79B9);
        let four: Vec<(u64, u64)> = once.iter().cycle().take(8000).copied().collect();
        let (cmps_1, eqs_1) = group_comparisons(16, 4, &once);
        let (cmps_4, eqs_4) = group_comparisons(16, 4, &four);
        assert!(
            cmps_1 > 0 && cmps_1 <= 150 * 16,
            "{cmps_1} for a 150-key sort"
        );
        assert_eq!(cmps_4, cmps_1, "rows were ordered, not just groups");
        assert_eq!((eqs_1, eqs_4), (2000 - 150, 8000 - 150));
        // Spilling and re-partitioning (600 keys, M = 256): every key is
        // still sorted once, in whichever table it ended up resident — far
        // under one comparison a row, where a search tree pays ≈ 7.
        let (cmps, eqs) = group_comparisons(16, 4, &pairs(20_000, 600, 0x1234_5679));
        assert!(cmps <= 600 * 16, "{cmps} comparisons for 600 groups");
        assert!(eqs <= 2 * 20_000, "{eqs} `==` calls for 20 000 rows");
    }

    #[test]
    fn hash_join_never_orders_its_keys() {
        // Build, probe, re-partition and pair loops: zero `Ord::cmp`, and
        // at most one `==` per record (a chain append or a probe hit).
        for mem_blocks in [16, 64] {
            let (d, m) = device(mem_blocks);
            let build = pairs(2000, 700, 0xABCD_EF13);
            let probe = pairs(6000, 900, 0x1357_9BD1);
            let bv = ExtVec::from_slice(d.clone(), &build).unwrap();
            let pv = ExtVec::from_slice(d.clone(), &probe).unwrap();
            let cfg = ExecConfig::new(m);
            let (cmps, eqs) = (CMPS.with(Cell::get), EQS.with(Cell::get));
            let mut bscan = ScanExec::new(&bv);
            let mut j: HashJoinExec<_, Counted, (u64, u64), _, _, _, (u64, u64, u64)> =
                HashJoinExec::build(
                    &mut bscan,
                    ScanExec::new(&pv),
                    &d,
                    &cfg,
                    4,
                    false,
                    |b: &(u64, u64)| Counted(b.0),
                    |p: &(u64, u64)| Counted(p.0),
                    |b, p| (b.0, b.1, p.1),
                )
                .unwrap();
            let out = collect(&mut j, &d).unwrap();
            let matches = probe
                .iter()
                .map(|p| build.iter().filter(|b| b.0 == p.0).count() as u64)
                .sum::<u64>();
            assert_eq!(out.len(), matches, "M={m}");
            assert_eq!(CMPS.with(Cell::get) - cmps, 0, "M={m}");
            let eqs = EQS.with(Cell::get) - eqs;
            assert!(eqs <= 8000, "M={m}: {eqs} `==` calls for 8 000 records");
        }
    }
}
