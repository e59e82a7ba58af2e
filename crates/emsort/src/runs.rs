//! Run formation: turning unsorted input into sorted runs.
//!
//! Merge sort's first pass produces sorted runs that later passes merge.
//! The survey discusses two classic strategies, both implemented here so the
//! experiments can compare them:
//!
//! * **Load–sort–store** — fill memory (`M` records), sort internally, write
//!   out; produces `⌈N/M⌉` runs of exactly `M` records (except the last).
//! * **Replacement selection** — keep an `M`-record selection heap; each
//!   emitted record is replaced by a fresh input record, which joins the
//!   current run if it can still be emitted in order, or is earmarked for the
//!   next run otherwise.  On random input the expected run length is `2M`
//!   (Knuth's snow-plough argument), halving the number of runs and sometimes
//!   saving an entire merge pass — the ablation of experiment F1.
//!
//! Load–sort–store additionally parallelizes the in-memory sort across the
//! machine's cores (scoped worker threads): the `M`-record chunk is
//! split into contiguous pieces, each piece is stably sorted on its own
//! thread, and the pieces are merged straight into the run writer with a
//! piece-index tie-break.  Because the pieces are contiguous and the merge is
//! stable, the written run is **byte-identical** to the sequential
//! `sort_by` — thread count changes wall-clock time only, never run contents
//! or I/O counts (the equivalence tests below assert exactly this).

use std::sync::Arc;

use em_core::{ExtVec, ExtVecWriter, IoWaitSink, MemBudget, Record};
use pdm::{PdmError, Result};

use crate::heap::MinHeap;
use crate::losertree::LoserTree;
use crate::{OverlapConfig, SortConfig};

/// Pieces smaller than this sort faster than a thread spawn costs; chunks
/// below `2·MIN_PIECE` records stay sequential.
const MIN_PIECE: usize = 4096;

/// Strategy for the run-formation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunFormation {
    /// Fill memory, sort, write: runs of exactly `M` records.
    #[default]
    LoadSort,
    /// Selection heap with run tagging: runs average `2M` on random input.
    ReplacementSelection,
}

/// Produce sorted runs from `input` under `cfg`'s memory budget.
///
/// Each returned [`ExtVec`] is sorted according to `less` and lives on the
/// same device as the input.  The concatenation of the runs is a permutation
/// of the input.  Costs one read and one write of every block
/// (`2·⌈N/B⌉` I/Os) — with or without overlap; `cfg.overlap` only changes
/// *when* transfers are issued, never how many.
///
/// Memory too small for the strategy — under two blocks for load–sort–store,
/// under four for replacement selection — is
/// [`PdmError::MemoryExceeded`], returned before anything is allocated.
pub fn form_runs<R, F>(input: &ExtVec<R>, cfg: &SortConfig, less: F) -> Result<Vec<ExtVec<R>>>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy + Send,
{
    form_runs_impl(input, cfg, less, None)
}

pub(crate) fn form_runs_impl<R, F>(
    input: &ExtVec<R>,
    cfg: &SortConfig,
    less: F,
    io_wait: Option<&IoWaitSink>,
) -> Result<Vec<ExtVec<R>>>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy + Send,
{
    let min_blocks = match cfg.run_formation {
        RunFormation::LoadSort => 2,
        // Selection heap plus one block each for the reader and the writer.
        RunFormation::ReplacementSelection => 4,
    };
    if cfg.mem_records < min_blocks * input.per_block() {
        return Err(PdmError::MemoryExceeded {
            needed: min_blocks * input.per_block(),
            available: cfg.mem_records,
        });
    }
    // Overlap depths are per disk: on an independent-placement array the
    // one input stream and one output stream each deepen their queues by the
    // lane count, so every member disk keeps `read_ahead`/`write_behind`
    // transfers in flight rather than the array sharing that depth.
    let ov = cfg.overlap.for_lanes(input.device().stream_lanes());
    // The overlap buffers (one input stream, one output stream) live in
    // budget headroom beyond the algorithm's M working records; they shrink
    // to fit whatever is actually available.
    let reserve = (ov.read_ahead + ov.write_behind) * input.per_block();
    let budget = MemBudget::new(cfg.mem_records + reserve);
    match cfg.run_formation {
        RunFormation::LoadSort => {
            load_sort_runs(input, &budget, cfg.mem_records, ov, io_wait, less)
        }
        RunFormation::ReplacementSelection => {
            replacement_selection_runs(input, &budget, cfg.mem_records, ov, io_wait, less)
        }
    }
}

/// Worker threads for the in-memory sort of a load-sorted chunk: the
/// machine's available parallelism, capped at 8.  Never changes run contents
/// or I/O counts — wall-clock only.
pub(crate) fn run_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

fn load_sort_runs<R, F>(
    input: &ExtVec<R>,
    budget: &Arc<MemBudget>,
    m: usize,
    ov: OverlapConfig,
    io_wait: Option<&IoWaitSink>,
    less: F,
) -> Result<Vec<ExtVec<R>>>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy + Send,
{
    let _charge = budget.charge(m);
    let threads = run_threads();
    let mut runs = Vec::new();
    let mut chunk: Vec<R> = Vec::with_capacity(m);
    let mut reader = input.reader_at_prefetch(0, ov.read_ahead, budget);
    if let Some(sink) = io_wait {
        reader.set_io_wait_sink(sink.clone());
    }
    loop {
        chunk.clear();
        while chunk.len() < m {
            match reader.try_next()? {
                Some(r) => chunk.push(r),
                None => break,
            }
        }
        if chunk.is_empty() {
            break;
        }
        // Stagger each run's start lane so runs of exactly M/B blocks don't
        // all place block j on the same disk (see BlockDevice docs).
        input.device().direct_next_stream(runs.len());
        let mut w =
            ExtVecWriter::with_write_behind(input.device().clone(), ov.write_behind, budget);
        if let Some(sink) = io_wait {
            w.set_io_wait_sink(sink.clone());
        }
        write_sorted_chunk(&mut chunk, threads, less, &mut w)?;
        runs.push(w.finish()?);
    }
    Ok(runs)
}

/// Sort `chunk` and push it to `w`, using up to `threads` scoped workers.
///
/// The parallel path splits the chunk into contiguous pieces, stably sorts
/// each piece on its own thread, and merges the pieces into the writer with
/// a [`LoserTree`] whose ties resolve toward the lower piece index.  Equal
/// records therefore leave in original-position order — exactly the
/// sequential stable `sort_by` output.
pub(crate) fn write_sorted_chunk<R, F>(
    chunk: &mut Vec<R>,
    threads: usize,
    less: F,
    w: &mut ExtVecWriter<R>,
) -> Result<()>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy + Send,
{
    let t = threads.min(chunk.len() / MIN_PIECE);
    if t <= 1 {
        chunk.sort_by(|a, b| cmp_from_less(less, a, b));
        for r in chunk.drain(..) {
            w.push(r)?;
        }
        return Ok(());
    }
    let piece_len = chunk.len().div_ceil(t);
    std::thread::scope(|s| {
        for piece in chunk.chunks_mut(piece_len) {
            s.spawn(move || piece.sort_by(|a, b| cmp_from_less(less, a, b)));
        }
    });
    merge_sorted_pieces(chunk, piece_len, less, w)
}

/// Loser-tree-merge the contiguous sorted `piece_len`-record pieces of
/// `chunk` straight into the writer — no scratch buffer, so memory stays at
/// the chunk's records (plus one in-tree key per piece).  Ties resolve
/// toward the lower piece index, so stably-sorted contiguous pieces merge
/// into exactly the stable full sort of `chunk`.  It is the same step as
/// [`SortedStream`](crate::SortedStream)'s, so an already-sorted chunk
/// merges at one comparison per record.
fn merge_sorted_pieces<R, F>(
    chunk: &mut Vec<R>,
    piece_len: usize,
    less: F,
    w: &mut ExtVecWriter<R>,
) -> Result<()>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy,
{
    let t = chunk.len().div_ceil(piece_len);
    let starts: Vec<usize> = (0..t).map(|i| i * piece_len).collect();
    let ends: Vec<usize> = (0..t)
        .map(|i| ((i + 1) * piece_len).min(chunk.len()))
        .collect();
    let mut cursors: Vec<usize> = starts.iter().map(|&s| s + 1).collect();
    let keys: Vec<Option<R>> = (0..t)
        .map(|i| (starts[i] < ends[i]).then(|| chunk[starts[i]].clone()))
        .collect();
    let mut lt = LoserTree::new(keys, less);
    while let Some(wi) = lt.winner() {
        let next = (cursors[wi] < ends[wi]).then(|| chunk[cursors[wi]].clone());
        cursors[wi] += 1;
        w.push(lt.advance(next))?;
    }
    chunk.clear();
    Ok(())
}

fn replacement_selection_runs<R, F>(
    input: &ExtVec<R>,
    budget: &Arc<MemBudget>,
    m: usize,
    ov: OverlapConfig,
    io_wait: Option<&IoWaitSink>,
    less: F,
) -> Result<Vec<ExtVec<R>>>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy,
{
    let b = input.per_block();
    // Heap gets M − 2B records; one block each for the input reader and the
    // run writer.
    let heap_cap = m - 2 * b;
    let _charge = budget.charge(m);

    // Heap entries are (run_id, record); an entry for a later run orders
    // after every entry of the current run.
    let mut heap: MinHeap<(u64, R), _> =
        MinHeap::with_capacity(heap_cap, move |a: &(u64, R), b: &(u64, R)| {
            a.0 < b.0 || (a.0 == b.0 && less(&a.1, &b.1))
        });

    let mut reader = input.reader_at_prefetch(0, ov.read_ahead, budget);
    if let Some(sink) = io_wait {
        reader.set_io_wait_sink(sink.clone());
    }
    while heap.len() < heap_cap {
        match reader.try_next()? {
            Some(r) => heap.push((0, r)),
            None => break,
        }
    }

    let mut runs = Vec::new();
    if heap.is_empty() {
        return Ok(runs);
    }

    let mut current_run = 0u64;
    input.device().direct_next_stream(runs.len());
    let mut writer =
        ExtVecWriter::with_write_behind(input.device().clone(), ov.write_behind, budget);
    if let Some(sink) = io_wait {
        writer.set_io_wait_sink(sink.clone());
    }
    let mut last_emitted: Option<R> = None;
    while let Some((run_id, out)) = heap.peek().map(|e| (e.0, e.1.clone())) {
        if run_id != current_run {
            // Current run is exhausted inside the heap; seal it.  Finish the
            // old writer *before* building the next one so its write-behind
            // reserve is back in the budget when the successor asks for it
            // (the interim plain writer is a free placeholder).
            let old = std::mem::replace(&mut writer, ExtVecWriter::new(input.device().clone()));
            runs.push(old.finish()?);
            input.device().direct_next_stream(runs.len());
            writer =
                ExtVecWriter::with_write_behind(input.device().clone(), ov.write_behind, budget);
            if let Some(sink) = io_wait {
                writer.set_io_wait_sink(sink.clone());
            }
            current_run = run_id;
            last_emitted = None;
        }
        let (_, rec) = match reader.try_next()? {
            Some(next) => {
                // Decide which run the replacement joins: it can extend the
                // current run only if it is not smaller than the record we
                // are about to emit (`out`, the heap head cloned above).
                let next_run = if less(&next, &out) {
                    current_run + 1
                } else {
                    current_run
                };
                heap.replace_min((next_run, next))
            }
            // `peek` above just succeeded, so `pop` cannot miss; stop
            // cleanly rather than panic if it ever does.
            None => match heap.pop() {
                Some(e) => e,
                None => break,
            },
        };
        debug_assert!(
            last_emitted.as_ref().is_none_or(|p| !less(&rec, p)),
            "replacement selection emitted out of order"
        );
        last_emitted = Some(rec.clone());
        writer.push(rec)?;
    }
    runs.push(writer.finish()?);
    Ok(runs)
}

/// Turn a strict-less predicate into a total `Ordering` (equal when neither
/// argument is less).
pub(crate) fn cmp_from_less<R, F>(less: F, a: &R, b: &R) -> std::cmp::Ordering
where
    F: Fn(&R, &R) -> bool,
{
    if less(a, b) {
        std::cmp::Ordering::Less
    } else if less(b, a) {
        std::cmp::Ordering::Greater
    } else {
        std::cmp::Ordering::Equal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::EmConfig;
    use rand::prelude::*;

    fn setup(n: u64) -> (ExtVec<u64>, Vec<u64>) {
        let cfg = EmConfig::new(64, 8); // B = 8 u64s
        let device = cfg.ram_disk();
        let mut rng = StdRng::seed_from_u64(42);
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000)).collect();
        (ExtVec::from_slice(device, &data).unwrap(), data)
    }

    fn check_runs(runs: &[ExtVec<u64>], original: &[u64]) {
        let mut all = Vec::new();
        for run in runs {
            let v = run.to_vec().unwrap();
            assert!(v.windows(2).all(|w| w[0] <= w[1]), "run not sorted");
            all.extend(v);
        }
        let mut all_sorted = all.clone();
        all_sorted.sort_unstable();
        let mut orig_sorted = original.to_vec();
        orig_sorted.sort_unstable();
        assert_eq!(
            all_sorted, orig_sorted,
            "runs are not a permutation of input"
        );
    }

    #[test]
    fn load_sort_run_sizes() {
        let (input, data) = setup(100);
        let cfg = SortConfig::new(32); // M = 32 records → 4 runs of 32 + 1 of 4
        let runs = form_runs(&input, &cfg, |a, b| a < b).unwrap();
        assert_eq!(runs.len(), 4);
        assert!(runs[..3].iter().all(|r| r.len() == 32));
        assert_eq!(runs[3].len(), 4);
        check_runs(&runs, &data);
    }

    #[test]
    fn replacement_selection_longer_runs() {
        let (input, data) = setup(2000);
        let m = 128;
        let ls = form_runs(&input, &SortConfig::new(m), |a, b| a < b).unwrap();
        let rs = form_runs(
            &input,
            &SortConfig::new(m).with_run_formation(RunFormation::ReplacementSelection),
            |a, b| a < b,
        )
        .unwrap();
        check_runs(&ls, &data);
        check_runs(&rs, &data);
        // Snow-plough: RS runs average ~2·heap = ~2(M−2B); expect clearly
        // fewer runs than load-sort.
        assert!(
            rs.len() * 3 <= ls.len() * 2,
            "expected replacement selection to produce ≥1.5× fewer runs: rs={} ls={}",
            rs.len(),
            ls.len()
        );
    }

    #[test]
    fn replacement_selection_sorted_input_single_run() {
        let cfg = EmConfig::new(64, 8);
        let device = cfg.ram_disk();
        let data: Vec<u64> = (0..500).collect();
        let input = ExtVec::from_slice(device, &data).unwrap();
        let runs = form_runs(
            &input,
            &SortConfig::new(40).with_run_formation(RunFormation::ReplacementSelection),
            |a, b| a < b,
        )
        .unwrap();
        assert_eq!(runs.len(), 1, "sorted input snow-ploughs into one run");
        assert_eq!(runs[0].to_vec().unwrap(), data);
    }

    #[test]
    fn reverse_sorted_input_rs_runs_of_heap_size() {
        let cfg = EmConfig::new(64, 8);
        let device = cfg.ram_disk();
        let data: Vec<u64> = (0..400).rev().collect();
        let input = ExtVec::from_slice(device, &data).unwrap();
        let m = 48; // heap = 48 − 16 = 32
        let runs = form_runs(
            &input,
            &SortConfig::new(m).with_run_formation(RunFormation::ReplacementSelection),
            |a, b| a < b,
        )
        .unwrap();
        // Worst case: every replacement starts a new run → runs of exactly
        // heap size.
        assert_eq!(runs.len(), 400 / 32 + 1);
        let mut all = Vec::new();
        for r in &runs {
            all.extend(r.to_vec().unwrap());
        }
        all.sort_unstable();
        assert_eq!(all, (0..400).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_no_runs() {
        let cfg = EmConfig::new(64, 8);
        let input: ExtVec<u64> = ExtVec::new(cfg.ram_disk());
        for rf in [RunFormation::LoadSort, RunFormation::ReplacementSelection] {
            let runs = form_runs(
                &input,
                &SortConfig::new(64).with_run_formation(rf),
                |a, b| a < b,
            )
            .unwrap();
            assert!(runs.is_empty());
        }
    }

    #[test]
    fn run_formation_io_is_two_scans() {
        let (input, _) = setup(512);
        let device = input.device().clone();
        for rf in [RunFormation::LoadSort, RunFormation::ReplacementSelection] {
            let before = device.stats().snapshot();
            let runs = form_runs(
                &input,
                &SortConfig::new(64).with_run_formation(rf),
                |a, b| a < b,
            )
            .unwrap();
            let d = device.stats().snapshot().since(&before);
            assert_eq!(d.reads(), 64, "one read per input block");
            // Writes: one per run block; runs may have partial last blocks.
            let run_blocks: u64 = runs.iter().map(|r| r.num_blocks() as u64).sum();
            assert_eq!(d.writes(), run_blocks);
            assert!(run_blocks <= 64 + runs.len() as u64);
        }
    }

    #[test]
    fn overlap_changes_neither_runs_nor_io_counts() {
        let (input, _) = setup(512);
        let device = input.device().clone();
        for rf in [RunFormation::LoadSort, RunFormation::ReplacementSelection] {
            let base = SortConfig::new(64).with_run_formation(rf);
            let sync_cfg = base.with_overlap(OverlapConfig::off());
            let ov_cfg = base.with_overlap(OverlapConfig::symmetric(2));
            let before = device.stats().snapshot();
            let sync_runs = form_runs(&input, &sync_cfg, |a, b| a < b).unwrap();
            let mid = device.stats().snapshot();
            let ov_runs = form_runs(&input, &ov_cfg, |a, b| a < b).unwrap();
            let after = device.stats().snapshot();
            let (d_sync, d_ov) = (mid.since(&before), after.since(&mid));
            assert_eq!(
                d_sync.reads(),
                d_ov.reads(),
                "overlap changed read count ({rf:?})"
            );
            assert_eq!(
                d_sync.writes(),
                d_ov.writes(),
                "overlap changed write count ({rf:?})"
            );
            assert_eq!(sync_runs.len(), ov_runs.len());
            for (a, b) in sync_runs.iter().zip(&ov_runs) {
                assert_eq!(
                    a.to_vec().unwrap(),
                    b.to_vec().unwrap(),
                    "runs differ ({rf:?})"
                );
            }
            for r in sync_runs.into_iter().chain(ov_runs) {
                r.free().unwrap();
            }
        }
    }

    #[test]
    fn parallel_run_formation_is_byte_identical_to_sequential() {
        // A 16 Ki-record chunk is large enough to engage the scoped worker
        // threads; the written run and its I/O count must not move.
        let device = EmConfig::new(64, 8).ram_disk();
        let mut rng = StdRng::seed_from_u64(77);
        // Narrow key range → massive duplication, so any instability in the
        // piece merge would reorder records and fail the equality below.
        let data: Vec<(u64, u64)> = (0..16 * 1024u64)
            .map(|i| (rng.gen_range(0..64u64), i))
            .collect();
        let write_with = |threads: usize| {
            let before = device.stats().snapshot();
            let mut w = ExtVecWriter::new(device.clone());
            write_sorted_chunk(&mut data.clone(), threads, |a, b| a.0 < b.0, &mut w).unwrap();
            let run = w.finish().unwrap();
            let writes = device.stats().snapshot().since(&before).writes();
            (run.to_vec().unwrap(), writes)
        };
        let (seq, seq_writes) = write_with(1);
        let (par, par_writes) = write_with(4);
        assert_eq!(seq, par, "parallel run differs");
        assert_eq!(seq_writes, par_writes);
        let mut expect = data.clone();
        expect.sort_by_key(|r| r.0);
        assert_eq!(seq, expect);
    }

    /// `m` records are one short of what `rf` needs: `form_runs` and
    /// `merge_sort_by` must say so, and leave the device untouched.
    fn assert_memory_exceeded(rf: RunFormation, m: usize, needed: usize) {
        let (input, _) = setup(100); // B = 8 records
        let device = input.device().clone();
        let blocks = device.allocated_blocks();
        let cfg = SortConfig::new(m).with_run_formation(rf);
        let errs = [
            form_runs(&input, &cfg, |a, b| a < b).map(|_| ()),
            crate::merge_sort_by(&input, &cfg, |a, b| a < b).map(|_| ()),
        ];
        for err in errs {
            match err {
                Err(PdmError::MemoryExceeded {
                    needed: n,
                    available,
                }) => assert_eq!((n, available), (needed, m)),
                other => panic!("expected MemoryExceeded, got {other:?}"),
            }
        }
        assert_eq!(device.allocated_blocks(), blocks);
        let enough = SortConfig::new(needed).with_run_formation(rf);
        assert!(form_runs(&input, &enough, |a, b| a < b).is_ok());
    }

    #[test]
    fn load_sort_below_two_blocks_is_an_error_not_a_panic() {
        assert_memory_exceeded(RunFormation::LoadSort, 15, 16);
    }

    #[test]
    fn replacement_selection_below_four_blocks_is_an_error_not_a_panic() {
        assert_memory_exceeded(RunFormation::ReplacementSelection, 31, 32);
    }

    #[test]
    fn custom_comparator_descending() {
        let (input, _) = setup(100);
        let runs = form_runs(&input, &SortConfig::new(64), |a, b| a > b).unwrap();
        for r in &runs {
            let v = r.to_vec().unwrap();
            assert!(v.windows(2).all(|w| w[0] >= w[1]));
        }
    }

    /// Run formation's piece merge is the same loop: same ceilings on `less`
    /// calls per record as `SortedStream`'s.
    #[test]
    fn piece_merge_comparator_calls_per_record() {
        let device = EmConfig::new(64, 8).ram_disk();
        crate::losertree::assert_comparator_calls_per_record(|pieces, less| {
            let mut w = ExtVecWriter::new(device.clone());
            merge_sorted_pieces(&mut pieces.concat(), pieces[0].len(), less, &mut w).unwrap();
            w.finish().unwrap().to_vec().unwrap()
        });
    }
}
