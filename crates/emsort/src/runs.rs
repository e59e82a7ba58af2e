//! Run formation: turning unsorted input into sorted runs.
//!
//! Merge sort's first pass produces sorted runs that later passes merge.
//! The survey discusses two classic strategies, both implemented here so the
//! experiments can compare them:
//!
//! * **Load–sort–store** — fill memory (`M` records), sort internally, write
//!   out; produces `⌈N/M⌉` runs of exactly `M` records (except the short
//!   one).  A sort that merges its own runs in one pass keeps the tail of
//!   its last load in memory for that merge instead of writing it
//!   ([`em_core::bounds::resident_tail`]); it then takes the short load
//!   first, so the load that stays is a full `M`.
//! * **Replacement selection** — keep an `M`-record selection heap; each
//!   emitted record is replaced by a fresh input record, which joins the
//!   current run if it can still be emitted in order, or is earmarked for the
//!   next run otherwise.  On random input the expected run length is `2M`
//!   (Knuth's snow-plough argument), halving the number of runs and sometimes
//!   saving an entire merge pass — the ablation of experiment F1.
//!
//! Load–sort–store is two block moves around one sort: the load is filled
//! from the input reader a block at a time
//! ([`BlockReader::read_into`](em_core::BlockReader::read_into)), sorted,
//! and drained into the run writer a block at a time
//! ([`ExtVecWriter::extend_from_slice`]).  The sort takes two cores: a
//! scoped worker sorts the load's back half with a stable `sort_by` while
//! the calling thread sorts the front, and the merge kernel's two-way
//! `merge_two` joins the halves, the front winning ties — unless one `less`
//! call finds them already in order.  At a 16 Ki-record load on a 2-core
//! x86 host that is ≈ 16 ns a record of run formation against ≈ 21 on one
//! thread (DESIGN.md §3).  Below `SPLIT_MIN` records a spawn costs more than it saves, so
//! both halves sort on the caller and merge the same way.  The worker only
//! sorts memory: it moves no block and charges no budget.  Neither the
//! sorts' scratch (`sort_by` allocates as many records as it sorts, so the
//! halves `n` between them) nor the merge's `n`-record scratch, kept from
//! load to load, is charged against `M`.
//! Load–sort–store's streams keep the overlap depths of the sort's widest
//! merge ([`crate::merge::allowance`]), so no lane idles behind a shallow
//! queue; replacement selection's keep their per-disk depths.

use std::sync::Arc;

use em_core::{ExtVec, ExtVecWriter, MemBudget, Record};
use pdm::{PdmError, Result, SharedDevice};

use crate::heap::MinHeap;
use crate::merge::{allowance, merge_two};
use crate::{OverlapConfig, SortConfig};

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
/// *when* transfers are issued, never how many.  Under load–sort–store the
/// streams are as deep as the merge a sort of `input` would make next, and
/// charged no more than it.
///
/// Memory too small for the strategy — under two blocks for load–sort–store,
/// under four for replacement selection — is
/// [`PdmError::MemoryExceeded`], returned before anything is allocated.
pub fn form_runs<R, F>(input: &ExtVec<R>, cfg: &SortConfig, less: F) -> Result<Vec<ExtVec<R>>>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy + Send,
{
    check_memory(cfg, input.per_block(), false)?;
    Ok(form_runs_keeping(input, cfg, 0, less)?.0)
}

/// `cfg.mem_records` against what a sort needs at `b` records a block: two
/// blocks for load–sort–store run formation, four for replacement
/// selection (the selection heap plus one block each for the reader and
/// the writer), and — when the sort `merges` — the `(k+1)·B` one `k`-way
/// merge charges.  [`PdmError::MemoryExceeded`] names the larger need; the
/// callers return it before they allocate anything.
pub(crate) fn check_memory(cfg: &SortConfig, b: usize, merges: bool) -> Result<()> {
    let min_blocks = match cfg.run_formation {
        RunFormation::LoadSort => 2,
        RunFormation::ReplacementSelection => 4,
    };
    let mut needed = min_blocks * b;
    if merges {
        needed = needed.max((cfg.effective_fan_in(b) + 1) * b);
    }
    if cfg.mem_records < needed {
        return Err(PdmError::MemoryExceeded {
            needed,
            available: cfg.mem_records,
        });
    }
    Ok(())
}

/// [`form_runs`] for a sort that merges its own runs: under load–sort–store
/// the sorted last `keep` records of the last load stay in memory and come
/// back beside the runs instead of being written ([`em_core::bounds::resident_tail`]
/// sizes them).  With `keep > 0` the short load is taken first, so the last
/// load is a full `M` (or the whole input).  Replacement selection never
/// keeps a tail.  The caller has checked the memory.
pub(crate) fn form_runs_keeping<R, F>(
    input: &ExtVec<R>,
    cfg: &SortConfig,
    keep: usize,
    less: F,
) -> Result<(Vec<ExtVec<R>>, Vec<R>)>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy + Send,
{
    let (budget, ov) = formation_budget(input, cfg);
    match cfg.run_formation {
        RunFormation::LoadSort => load_sort_runs(input, &budget, cfg.mem_records, ov, keep, less),
        RunFormation::ReplacementSelection => Ok((
            replacement_selection_runs(input, &budget, cfg.mem_records, ov, less)?,
            Vec::new(),
        )),
    }
}

/// Run formation's budget, `M` plus its overlap [`allowance`], and its
/// streams' depths.  Load–sort–store's widest merge takes its `⌈N/M⌉`
/// loads, up to the fan-in, and one load is not merged.  Replacement
/// selection's run count depends on the input, so it assumes no merge and
/// its streams keep their per-disk depths.
fn formation_budget<R: Record>(
    input: &ExtVec<R>,
    cfg: &SortConfig,
) -> (Arc<MemBudget>, OverlapConfig) {
    let (m, b) = (cfg.mem_records, input.per_block());
    let loads = input.len().div_ceil(m as u64) as usize;
    let k = match cfg.run_formation {
        RunFormation::LoadSort if loads > 1 => loads.min(cfg.effective_fan_in(b)),
        _ => 0,
    };
    let (_, reserve, ov) = allowance(cfg.overlap, k, input.device().stream_lanes());
    (MemBudget::new(m + reserve * b), ov)
}

fn load_sort_runs<R, F>(
    input: &ExtVec<R>,
    budget: &Arc<MemBudget>,
    m: usize,
    ov: OverlapConfig,
    keep: usize,
    less: F,
) -> Result<(Vec<ExtVec<R>>, Vec<R>)>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy + Send,
{
    let _charge = budget.charge(m);
    let mut runs = Vec::new();
    let mut left = input.len();
    let mut bufs = [Vec::with_capacity(m.min(left as usize)), Vec::new()];
    let mut reader = input.reader_prefetch(ov.read_ahead, budget);
    // The short load goes first when a tail stays, so the load that keeps
    // it is a full M.
    let mut load = match keep {
        0 => m,
        _ => ((left - 1) % m as u64) as usize + 1,
    };
    while reader.read_into(&mut bufs[0], load)? > 0 {
        left -= bufs[0].len() as u64;
        let kept = if left == 0 { keep } else { 0 };
        spill_sorted(
            &mut bufs,
            kept,
            less,
            input.device(),
            ov.write_behind,
            budget,
            &mut runs,
        )?;
        load = m;
    }
    let [chunk, _] = bufs;
    Ok((runs, chunk))
}

/// Loads shorter than this sort both halves on the calling thread: a
/// scoped spawn costs ≈ 30–40 µs, about what sorting a 2 Ki-record half
/// takes at ≈ 17 ns a record, so below it the worker saves nothing.
const SPLIT_MIN: usize = 4 * 1024;

/// Stably sort the load `bufs[0]` and write all of it but its last `keep`
/// records as the next run of `runs`, leaving those `keep` in `bufs[0]` —
/// the in-memory half of load–sort–store, shared by [`form_runs`] and
/// [`SortingWriter`](crate::SortingWriter)'s spills.  `bufs[1]` is the
/// merge's scratch, kept between loads.  Nothing is written when `keep`
/// covers the load.  Each run's start lane is staggered by its index, so
/// runs of exactly `M/B` blocks do not all place block `j` on the same
/// disk (see `BlockDevice::direct_next_stream`).
pub(crate) fn spill_sorted<R, F>(
    bufs: &mut [Vec<R>; 2],
    keep: usize,
    less: F,
    device: &SharedDevice,
    write_behind: usize,
    budget: &Arc<MemBudget>,
    runs: &mut Vec<ExtVec<R>>,
) -> Result<()>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy + Send,
{
    sort_halves(bufs, less);
    let chunk = &mut bufs[0];
    let spill = chunk.len().saturating_sub(keep);
    if spill > 0 {
        device.direct_next_stream(runs.len());
        let mut w = ExtVecWriter::with_write_behind(device.clone(), write_behind, budget);
        w.extend_from_slice(&chunk[..spill])?;
        runs.push(w.finish()?);
    }
    chunk.drain(..spill);
    Ok(())
}

/// Stably sort `bufs[0]` as two halves, the back one on a scoped worker
/// from [`SPLIT_MIN`] records up, then merge them with `merge_two` into
/// `bufs[1]`, the front winning ties, and swap the two.  Halves that one
/// `less` call finds already in order are not merged.
fn sort_halves<R, F>(bufs: &mut [Vec<R>; 2], less: F)
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy + Send,
{
    let [chunk, scratch] = bufs;
    let (n, h) = (chunk.len(), chunk.len() / 2);
    let (front, back) = chunk.split_at_mut(h);
    let sort = move |v: &mut [R]| v.sort_by(|a, b| cmp_from_less(less, a, b));
    if n < SPLIT_MIN {
        sort(back);
        sort(front);
    } else {
        std::thread::scope(|s| {
            let back = &mut *back;
            s.spawn(move || sort(back));
            sort(front);
        });
    }
    if h == 0 || !less(&back[0], &front[h - 1]) {
        return;
    }
    scratch.resize(n, back[0].clone());
    merge_two(front, back, scratch, less);
    std::mem::swap(chunk, scratch);
}

fn replacement_selection_runs<R, F>(
    input: &ExtVec<R>,
    budget: &Arc<MemBudget>,
    m: usize,
    ov: OverlapConfig,
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

    let mut reader = input.reader_prefetch(ov.read_ahead, budget);
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
    use em_core::hash::Draws;
    use em_core::EmConfig;

    fn setup(n: u64) -> (ExtVec<u64>, Vec<u64>) {
        let cfg = EmConfig::new(64, 8); // B = 8 u64s
        let device = cfg.ram_disk();
        let mut rng = Draws::new(42);
        let data: Vec<u64> = (0..n).map(|_| rng.below(1_000_000)).collect();
        (ExtVec::from_slice(device, &data).unwrap(), data)
    }

    /// Run formation draws the sort's one overlap allowance.  On an
    /// overlapped independent array of `D` disks, load–sort–store's peak
    /// charge is `M + (k·R + max(W·D, k·R))·B` for its `k` = ⌈300/64⌉ = 5
    /// loads, the charge of the merge that follows (or `(R+W)·D` blocks where
    /// that is larger).  Replacement selection keeps the per-disk `(R+W)·D`,
    /// on random input and on sorted input that forms a single run.
    #[test]
    fn load_sort_streams_keep_the_depths_of_the_widest_merge() {
        use pdm::{DiskArray, IoMode, Placement};
        let less = |a: &u64, b: &u64| a < b;
        let (m, b) = (64, 8);
        let wide_writer = OverlapConfig {
            read_ahead: 1,
            write_behind: 3,
        };
        let (ls, rs) = (RunFormation::LoadSort, RunFormation::ReplacementSelection);
        // (D, overlap, strategy, sorted input, runs, run formation's high water)
        let pins = [
            (2, OverlapConfig::symmetric(2), ls, false, 5, 224),
            (2, OverlapConfig::symmetric(2), rs, false, 4, 128),
            (2, OverlapConfig::symmetric(2), rs, true, 1, 128),
            (2, wide_writer, ls, false, 5, 152),
            (2, wide_writer, rs, false, 4, 128),
            (4, OverlapConfig::symmetric(2), ls, false, 5, 224),
            (4, OverlapConfig::symmetric(2), rs, false, 4, 192),
            (4, wide_writer, ls, false, 5, 200),
            (4, wide_writer, rs, false, 4, 192),
        ];
        for (d, ov, rf, sorted, runs, high_water) in pins {
            let case = format!("D = {d}, {ov:?}, {rf:?}, sorted {sorted}");
            let device = DiskArray::new_ram_with(d, 64, Placement::Independent, IoMode::Overlapped);
            let mut rng = Draws::new(48);
            let mut data: Vec<u64> = (0..300).map(|_| rng.next_u64()).collect();
            if sorted {
                data.sort_unstable();
            }
            let input = ExtVec::from_slice(device, &data).unwrap();
            let cfg = SortConfig::new(m).with_overlap(ov).with_run_formation(rf);
            let (budget, streams) = formation_budget(&input, &cfg);
            let formed = match rf {
                RunFormation::LoadSort => load_sort_runs(&input, &budget, m, streams, 0, less),
                RunFormation::ReplacementSelection => {
                    replacement_selection_runs(&input, &budget, m, streams, less)
                        .map(|r| (r, vec![]))
                }
            };
            let (formed, _) = formed.unwrap();
            check_runs(&formed, &data);
            assert_eq!(formed.len(), runs, "{case}");
            assert_eq!(budget.high_water(), high_water, "{case}");
            // The merge of these runs declares `M + merge·B`.
            let k = runs.min(cfg.effective_fan_in(b));
            let (merge, ..) = crate::merge::allowance(ov, k, d);
            let pair = (ov.read_ahead + ov.write_behind) * d;
            assert!(high_water <= m + merge.max(pair) * b, "{case}");
            for run in formed {
                run.free().unwrap();
            }
        }
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

    /// FNV-1a over the encoded records of `runs`, in run order.
    fn checksum(runs: &[ExtVec<(u64, u64)>]) -> u64 {
        let mut bytes = Vec::new();
        for run in runs {
            for r in run.to_vec().unwrap() {
                bytes.extend_from_slice(&r.0.to_le_bytes());
                bytes.extend_from_slice(&r.1.to_le_bytes());
            }
        }
        em_core::hash::fnv1a(&bytes)
    }

    /// Runs and sorted output recorded from the commit that still sorted a
    /// 16 Ki-record load as two scoped-thread pieces and merged them through
    /// the loser tree.  64 distinct keys over 40 Ki records: any instability
    /// in what replaced it reorders records and moves a checksum.
    #[test]
    fn runs_and_transfers_are_pinned_to_the_piece_merge_era() {
        let device = EmConfig::new(512, 8).ram_disk(); // B = 32 records
        let tape: Vec<(u64, u64)> = (0..40 * 1024u64)
            .map(|i| (em_core::hash::splitmix(i ^ 0x5EED) % 64, i))
            .collect();
        let cfg = SortConfig::new(16 * 1024);
        let less = |a: &(u64, u64), b: &(u64, u64)| a.0 < b.0;
        let input = ExtVec::from_slice(device.clone(), &tape).unwrap();

        let before = device.stats().snapshot();
        let runs = form_runs(&input, &cfg, less).unwrap();
        let formed = device.stats().snapshot().since(&before);
        let lens: Vec<u64> = runs.iter().map(|r| r.len()).collect();
        assert_eq!(lens, [16 * 1024, 16 * 1024, 8 * 1024]);
        assert_eq!(checksum(&runs), 0xc623_655b_f635_550f);
        assert_eq!((formed.reads(), formed.writes()), (1280, 1280));

        let before = device.stats().snapshot();
        let mut w = crate::SortingWriter::new(device.clone(), &cfg, less);
        for r in &tape {
            w.push(*r).unwrap();
        }
        let sorted = w.finish_sorted().unwrap();
        let merged = device.stats().snapshot().since(&before);
        assert_eq!(checksum(&[sorted]), 0xc238_00a0_6d2a_a1ab);
        // Two spilled runs of 512 blocks, written and read; the last chunk's
        // 256 blocks stay resident for the merge, which writes all 1 280.
        assert_eq!((merged.reads(), merged.writes()), (1024, 2304));
    }

    /// `m` records are short of what `rf` needs: `form_runs` must say it
    /// needs `form` records, `merge_sort_by` — whose 100 records merge —
    /// `sort`, and both leave the device untouched.
    fn assert_memory_exceeded(rf: RunFormation, m: usize, form: usize, sort: usize) {
        let (input, _) = setup(100); // B = 8 records
        let device = input.device().clone();
        let blocks = device.allocated_blocks();
        let cfg = SortConfig::new(m).with_run_formation(rf);
        let errs = [
            (form, form_runs(&input, &cfg, |a, b| a < b).map(|_| ())),
            (
                sort,
                crate::merge_sort_by(&input, &cfg, |a, b| a < b).map(|_| ()),
            ),
        ];
        for (needed, err) in errs {
            match err {
                Err(PdmError::MemoryExceeded {
                    needed: n,
                    available,
                }) => assert_eq!((n, available), (needed, m)),
                other => panic!("expected MemoryExceeded, got {other:?}"),
            }
        }
        assert_eq!(device.allocated_blocks(), blocks);
        let enough = SortConfig::new(form).with_run_formation(rf);
        assert!(form_runs(&input, &enough, |a, b| a < b).is_ok());
        let enough = SortConfig::new(sort).with_run_formation(rf);
        assert!(crate::merge_sort_by(&input, &enough, |a, b| a < b).is_ok());
    }

    #[test]
    fn load_sort_below_two_blocks_is_an_error_not_a_panic() {
        // Forming runs needs two blocks, merging them three.
        assert_memory_exceeded(RunFormation::LoadSort, 15, 16, 24);
    }

    #[test]
    fn replacement_selection_below_four_blocks_is_an_error_not_a_panic() {
        assert_memory_exceeded(RunFormation::ReplacementSelection, 31, 32, 32);
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

    /// `less` calls per record through `spill_sorted`: the stable sorts of
    /// the two halves (each comparison at most two `less` calls), one call
    /// to see whether the halves are already in order, and — when they are
    /// not — the merge of the halves, at most one call a record.  A sorted
    /// load is never merged, and a reversed one's halves merge at one call
    /// a record on top of the one its run detection makes.
    #[test]
    fn sorted_chunk_comparator_calls_per_record() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let device = EmConfig::new(64, 8).ram_disk();
        let n = 16 * 1024u64;
        let mut rng = Draws::new(19);
        let shapes: [(&str, Vec<u64>, f64); 3] = [
            // 2·⌈log₂ n⌉: a merge sort's comparisons, both ways round.
            ("random", (0..n).map(|_| rng.next_u64()).collect(), 28.0),
            // One run-detection comparison per record, two calls each.
            ("presorted", (0..n).collect(), 2.1),
            // One call a record to detect each half's run, one to merge.
            ("reverse-sorted", (0..n).rev().collect(), 2.1),
        ];
        for (shape, load, ceiling) in shapes {
            let mut expect = load.clone();
            expect.sort_unstable();
            let calls = AtomicU64::new(0);
            let less = |a: &u64, b: &u64| {
                calls.fetch_add(1, Ordering::Relaxed);
                a < b
            };
            let mut bufs = [load, Vec::new()];
            let mut runs = Vec::new();
            let budget = MemBudget::new(0);
            spill_sorted(&mut bufs, 0, less, &device, 0, &budget, &mut runs).unwrap();
            assert!(bufs[0].is_empty(), "{shape}: the load is left empty");
            assert_eq!(runs[0].to_vec().unwrap(), expect, "{shape}");
            let per_record = calls.load(Ordering::Relaxed) as f64 / n as f64;
            assert!(
                per_record <= ceiling,
                "{shape}: {per_record:.3} `less` calls per record, ceiling {ceiling}"
            );
        }
    }

    /// Loads on both sides of [`SPLIT_MIN`], an odd one that splits
    /// unevenly, and `sort_cpu`'s 16 Ki, through every load–sort–store
    /// entry point: a `(key, seq)` tape with 64 keys comes out as a stable
    /// sort puts it, ties in input order, at the transfers of the exact
    /// replays in `em_core::bounds`, and `less` is called off the calling
    /// thread exactly when a load reaches `SPLIT_MIN`.
    #[test]
    fn ties_and_transfers_hold_at_the_split() {
        use em_core::bounds;
        use std::sync::atomic::{AtomicBool, Ordering};
        let device = EmConfig::new(512, 8).ram_disk(); // B = 32 records
        let b = 32;
        let caller = std::thread::current().id();
        let off_caller = AtomicBool::new(false);
        let less = |a: &(u64, u64), b: &(u64, u64)| {
            if std::thread::current().id() != caller {
                off_caller.store(true, Ordering::Relaxed);
            }
            a.0 < b.0
        };
        let on_worker = || off_caller.swap(false, Ordering::Relaxed);
        for m in [SPLIT_MIN - 1, SPLIT_MIN, 2 * SPLIT_MIN + 1, 16 * 1024] {
            // Two full loads and a short one.
            let n = (2 * m + m / 2 + 3) as u64;
            let tape: Vec<(u64, u64)> = (0..n)
                .map(|i| (em_core::hash::splitmix(i ^ m as u64) % 64, i))
                .collect();
            let stable = |v: &[(u64, u64)]| {
                let mut v = v.to_vec();
                v.sort_by(|x, y| cmp_from_less(less, x, y));
                v
            };
            let sorted = stable(&tape);
            let cfg = SortConfig::new(m);
            let k = cfg.effective_fan_in(b);
            let input = ExtVec::from_slice(device.clone(), &tape).unwrap();

            let before = device.stats().snapshot();
            let runs = form_runs(&input, &cfg, less).unwrap();
            let formed = device.stats().snapshot().since(&before);
            let loads: Vec<&[(u64, u64)]> = tape.chunks(m).collect();
            assert_eq!(runs.len(), loads.len(), "M = {m}");
            for (run, load) in runs.iter().zip(&loads) {
                assert_eq!(run.to_vec().unwrap(), stable(load), "M = {m}");
            }
            let written: u64 = loads.iter().map(|l| l.len().div_ceil(b) as u64).sum();
            let read = bounds::scan(n, b) as u64;
            assert_eq!(
                (formed.reads(), formed.writes()),
                (read, written),
                "M = {m}"
            );
            assert_eq!(on_worker(), m >= SPLIT_MIN, "form_runs, M = {m}");
            for run in runs {
                run.free().unwrap();
            }

            let before = device.stats().snapshot();
            let out = crate::merge_sort_by(&input, &cfg, less).unwrap();
            let moved = device.stats().snapshot().since(&before);
            assert_eq!(out.to_vec().unwrap(), sorted, "merge_sort_by, M = {m}");
            let exact = bounds::merge_sort_exact_ios(n, m, b, k);
            assert_eq!(moved.total(), exact, "merge_sort_by, M = {m}");
            assert_eq!(on_worker(), m >= SPLIT_MIN, "merge_sort_by, M = {m}");
            out.free().unwrap();

            let before = device.stats().snapshot();
            let mut w = crate::SortingWriter::new(device.clone(), &cfg, less);
            for r in &tape {
                w.push(*r).unwrap();
            }
            let out = w
                .finish_streaming(|s| {
                    let mut out = Vec::new();
                    while let Some(r) = s.try_next()? {
                        out.push(r);
                    }
                    Ok(out)
                })
                .unwrap();
            let moved = device.stats().snapshot().since(&before);
            assert_eq!(out, sorted, "SortingWriter, M = {m}");
            let exact = bounds::sorting_writer_streamed_ios(n, m, b, k);
            assert_eq!(moved.total(), exact, "SortingWriter, M = {m}");
            assert_eq!(on_worker(), m >= SPLIT_MIN, "SortingWriter, M = {m}");
            input.free().unwrap();
        }
    }

    /// A `less` that panics on a record only the back half of the second
    /// load holds panics on the worker, after the first load's run is
    /// written; `merge_sort_by` passes the panic to its caller, and every
    /// block it had allocated is free again.
    #[test]
    fn a_panic_on_the_worker_reaches_the_caller() {
        const POISON: u64 = u64::MAX;
        let device = EmConfig::new(512, 8).ram_disk(); // B = 64 records
        let m = SPLIT_MIN;
        let mut data: Vec<u64> = (0..2 * m as u64).rev().collect();
        data[2 * m - 1] = POISON;
        let input = ExtVec::from_slice(device.clone(), &data).unwrap();
        let blocks = device.allocated_blocks();
        let panicked_on = std::sync::Mutex::new(None);
        let less = |a: &u64, b: &u64| {
            if *a == POISON || *b == POISON {
                *panicked_on.lock().unwrap() = Some(std::thread::current().id());
                panic!("compared the poisoned record");
            }
            a < b
        };
        let sorted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::merge_sort_by(&input, &SortConfig::new(m), less)
        }));
        assert!(sorted.is_err(), "the worker's panic reaches the caller");
        let on = panicked_on.lock().unwrap().expect("`less` saw the poison");
        assert_ne!(on, std::thread::current().id(), "the worker panicked");
        assert_eq!(device.allocated_blocks(), blocks);
    }
}
