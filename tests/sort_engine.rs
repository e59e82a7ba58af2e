//! One oracle for the one sort engine.
//!
//! A k-way merge that breaks ties toward the lower run index produces
//! exactly the **stable sort of the runs' concatenation in run order**, so
//! `Vec::sort_by_key` is the reference for every entry point — no second
//! in-tree merge implementation is needed to check the first.  Records are
//! `(key, payload)` compared by key alone, with few distinct keys, so any
//! tie resolved the wrong way shows up as a payload out of place.
//!
//! A complete sort is more than one merge: runs are merged front to back in
//! groups of `k`, each output joining the back of the queue.  The model
//! below replays that schedule with the same oracle per group.
//!
//! Every property is checked over placement ∈ {striped, independent,
//! randomized cycling} × D ∈ {1, 2, 4} × overlap depth ∈ {0, 1, 2, 3} ×
//! run formation ∈ {load-sort, replacement selection}.  Overlap depth is
//! pure scheduling and lane choice is pure placement: reads and writes must
//! agree exactly across depths, across the two B-block placements, and — for
//! complete sorts on those, whose logical block stays `B` — across `D`.
//!
//! What a sort moves is pinned separately, on an `(N, M, B)` grid: every
//! entry point costs exactly its replay in `em_core::bounds`, never more
//! than the schedule that wrote every load (kept below as its own oracle),
//! and never less than the sorting bound.

use std::collections::VecDeque;

use em_core::{bounds, ExtVec, ExtVecWriter, MemBudget};
use emsort::{
    distribution_sort_by, form_runs, merge_runs_streaming, merge_runs_with, merge_sort_by,
    merge_sort_streaming, OverlapConfig, RunFormation, SortConfig, SortedStream, SortingWriter,
};
use pdm::{DiskArray, IoMode, PdmError, Placement, SharedDevice};
use proptest::prelude::*;

type Rec = (u64, u64);

fn by_key(a: &Rec, b: &Rec) -> bool {
    a.0 < b.0
}

/// The oracle: what merging `runs` must produce.
fn stable_merge(runs: &[Vec<Rec>]) -> Vec<Rec> {
    let mut all = runs.concat();
    all.sort_by_key(|r| r.0);
    all
}

/// The pass schedule of a complete sort at fan-in `k`, replayed in memory.
fn sort_model(runs: Vec<Vec<Rec>>, k: usize) -> Vec<Rec> {
    let mut queue: VecDeque<Vec<Rec>> = runs.into();
    while queue.len() > 1 {
        let take = k.min(queue.len());
        let group: Vec<Vec<Rec>> = queue.drain(..take).collect();
        queue.push_back(stable_merge(&group));
    }
    queue.pop_front().unwrap_or_default()
}

fn drain(s: &mut SortedStream<'_, Rec, fn(&Rec, &Rec) -> bool>) -> pdm::Result<Vec<Rec>> {
    let mut out = Vec::new();
    while let Some(r) = s.try_next()? {
        out.push(r);
    }
    Ok(out)
}

const LESS: fn(&Rec, &Rec) -> bool = by_key;

const PLACEMENTS: [Placement; 3] = [
    Placement::Striped,
    Placement::Independent,
    Placement::RandomizedCycling { seed: 12 },
];

/// Depth 0 is the synchronous pipeline on a synchronous array; any other
/// depth runs on worker threads.
fn device(d: usize, placement: Placement, depth: usize) -> SharedDevice {
    let mode = if depth == 0 {
        IoMode::Synchronous
    } else {
        IoMode::Overlapped
    };
    DiskArray::new_ram_with(d, 64, placement, mode)
}

/// Records per logical block: four 16-byte records per 64-byte physical
/// block, `D` of those per striped logical block.
fn per_block(d: usize, placement: Placement) -> usize {
    if placement.is_striped() {
        4 * d
    } else {
        4
    }
}

/// Run `op` on `device` and return its result with the (reads, writes) it
/// performed.
fn metered<T>(device: &SharedDevice, op: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = device.stats().snapshot();
    let out = op();
    let d = device.stats().snapshot().since(&before);
    (out, (d.reads(), d.writes()))
}

/// Counts must not move with the overlap depth, nor between the two
/// placements that share the B-block geometry.
#[derive(Default)]
struct CountLedger {
    seen: Vec<(String, (u64, u64))>,
}

impl CountLedger {
    /// Record `counts` under `key`; a second, different value is a failure.
    fn agree(&mut self, key: String, counts: (u64, u64)) -> Result<(), TestCaseError> {
        if let Some((_, first)) = self.seen.iter().find(|(k, _)| *k == key) {
            prop_assert_eq!(*first, counts, "(reads, writes) moved for {}", key);
        } else {
            self.seen.push((key, counts));
        }
        Ok(())
    }
}

/// `"independent"` and `"randomized_cycling"` share one ledger row.
fn geometry(placement: Placement) -> &'static str {
    if placement.is_striped() {
        "striped"
    } else {
        "b-block"
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// One k-way merge, materialized and streamed.
    #[test]
    fn a_merge_is_the_stable_sort_of_its_runs(
        data in prop::collection::vec((0u64..24, any::<u64>()), 0..600),
        k in 1usize..8,
    ) {
        let piece = data.len().div_ceil(k).max(1);
        let mut runs_data: Vec<Vec<Rec>> = data.chunks(piece).map(<[Rec]>::to_vec).collect();
        runs_data.resize(k, Vec::new());
        for r in &mut runs_data {
            r.sort_by_key(|r| r.0);
        }
        let expect = stable_merge(&runs_data);
        let mut ledger = CountLedger::default();
        for placement in PLACEMENTS {
            for d in [1, 2, 4] {
                for depth in 0..=3 {
                    let device = device(d, placement, depth);
                    let b = per_block(d, placement);
                    let cfg = SortConfig::new((k + 3) * b)
                        .with_overlap(OverlapConfig::symmetric(depth));
                    let budget = MemBudget::new(cfg.mem_records + (k + 1) * depth * d * b);
                    let runs: Vec<ExtVec<Rec>> = runs_data
                        .iter()
                        .map(|r| ExtVec::from_slice(device.clone(), r).unwrap())
                        .collect();
                    let at = format!("{placement:?} D={d} depth={depth}");

                    let (out, counts) = metered(&device, || {
                        merge_runs_with(&runs, &budget, &cfg, LESS).unwrap()
                    });
                    prop_assert_eq!(&out.to_vec().unwrap(), &expect, "merge_runs_with {}", at);
                    ledger.agree(format!("materialized {} D={d}", geometry(placement)), counts)?;

                    let parts: Vec<(&ExtVec<Rec>, u64)> = runs.iter().map(|r| (r, 0)).collect();
                    let (got, counts) = metered(&device, || {
                        merge_runs_streaming(&parts, &budget, &cfg, LESS, drain).unwrap()
                    });
                    prop_assert_eq!(&got, &expect, "merge_runs_streaming {}", at);
                    prop_assert_eq!(counts.1, 0, "a streamed merge writes nothing ({})", at);
                    ledger.agree(format!("streamed {} D={d}", geometry(placement)), counts)?;
                }
            }
        }
    }

    /// Complete sorts: every entry point, against the replayed schedule.
    #[test]
    fn a_sort_is_its_pass_schedule_of_stable_merges(
        data in prop::collection::vec((0u64..24, any::<u64>()), 0..700),
    ) {
        let mut ledger = CountLedger::default();
        for placement in PLACEMENTS {
            for d in [1, 2, 4] {
                let b = per_block(d, placement);
                let m = 8 * b;
                for rf in [RunFormation::LoadSort, RunFormation::ReplacementSelection] {
                    for depth in 0..=3 {
                        let device = device(d, placement, depth);
                        let cfg = SortConfig::new(m)
                            .with_run_formation(rf)
                            .with_overlap(OverlapConfig::symmetric(depth));
                        let k = cfg.effective_fan_in(b);
                        let input = ExtVec::from_slice(device.clone(), &data).unwrap();
                        let at = format!("{placement:?} D={d} {rf:?} depth={depth}");
                        // The B-block logical block does not grow with D, so
                        // neither does anything the sort moves: one row for
                        // every D.  A striped block is D·B: one row per D.
                        let row = if placement.is_striped() {
                            format!("striped D={d} {rf:?}")
                        } else {
                            format!("b-block {rf:?}")
                        };

                        // The runs the engine merges, read back.
                        let (runs, counts) =
                            metered(&device, || form_runs(&input, &cfg, LESS).unwrap());
                        ledger.agree(format!("form_runs {row}"), counts)?;
                        let runs_data: Vec<Vec<Rec>> =
                            runs.iter().map(|r| r.to_vec().unwrap()).collect();
                        for r in runs {
                            r.free().unwrap();
                        }
                        if rf == RunFormation::LoadSort {
                            // Load-sort runs are the stably sorted M-chunks.
                            let chunks: Vec<Vec<Rec>> =
                                data.chunks(m).map(|c| stable_merge(&[c.to_vec()])).collect();
                            prop_assert_eq!(&runs_data, &chunks, "load-sort runs {}", at);
                        }
                        let mut all = runs_data.concat();
                        let mut original = data.clone();
                        all.sort_unstable();
                        original.sort_unstable();
                        prop_assert_eq!(all, original, "runs permute the input {}", at);
                        let expect = sort_model(runs_data, k);

                        let (out, counts) =
                            metered(&device, || merge_sort_by(&input, &cfg, LESS).unwrap());
                        prop_assert_eq!(&out.to_vec().unwrap(), &expect, "merge_sort_by {}", at);
                        ledger.agree(format!("merge_sort_by {row}"), counts)?;
                        out.free().unwrap();

                        let (got, counts) = metered(&device, || {
                            merge_sort_streaming(&input, &cfg, LESS, drain).unwrap()
                        });
                        prop_assert_eq!(&got, &expect, "merge_sort_streaming {}", at);
                        ledger.agree(format!("merge_sort_streaming {row}"), counts)?;

                        if rf == RunFormation::LoadSort {
                            // A SortingWriter load-sorts by construction.
                            let push_all = || {
                                let mut w = SortingWriter::new(device.clone(), &cfg, LESS);
                                for &r in &data {
                                    w.push(r).unwrap();
                                }
                                w
                            };
                            let (out, counts) =
                                metered(&device, || push_all().finish_sorted().unwrap());
                            prop_assert_eq!(&out.to_vec().unwrap(), &expect, "finish_sorted {}", at);
                            ledger.agree(format!("finish_sorted {row}"), counts)?;
                            out.free().unwrap();
                            let (got, counts) =
                                metered(&device, || push_all().finish_streaming(drain).unwrap());
                            prop_assert_eq!(&got, &expect, "finish_streaming {}", at);
                            ledger.agree(format!("finish_streaming {row}"), counts)?;

                            // Distribution sort never reorders equal keys
                            // either: its output is the stable sort outright.
                            let (out, counts) = metered(&device, || {
                                distribution_sort_by(&input, &cfg, LESS).unwrap()
                            });
                            prop_assert_eq!(
                                out.to_vec().unwrap(),
                                stable_merge(std::slice::from_ref(&data)),
                                "distribution_sort_by {}", at
                            );
                            ledger.agree(format!("distribution_sort_by {row}"), counts)?;
                            out.free().unwrap();
                        }
                        prop_assert_eq!(
                            device.stats().snapshot().prefetch_wasted(), 0,
                            "wasted prefetch {}", at
                        );
                    }
                }
            }
        }
    }
}

/// The fan-ins a binary heap used to serve, on all-equal keys (every
/// comparison is a tie), and the merges with nothing to merge.
#[test]
fn tiny_fan_ins_and_empty_inputs() {
    for placement in PLACEMENTS {
        for depth in [0, 2] {
            let device = device(2, placement, depth);
            let b = per_block(2, placement);
            let cfg = SortConfig::new(8 * b).with_overlap(OverlapConfig::symmetric(depth));
            let budget = MemBudget::new(cfg.mem_records + 8 * depth * b);
            let run = |payloads: std::ops::Range<u64>| {
                let data: Vec<Rec> = payloads.map(|p| (7, p)).collect();
                ExtVec::from_slice(device.clone(), &data).unwrap()
            };
            let at = format!("{placement:?} depth={depth}");

            // k = 1: the run comes back as it is.
            let one = [run(0..50)];
            let out = merge_runs_with(&one, &budget, &cfg, LESS).unwrap();
            assert_eq!(out.to_vec().unwrap(), one[0].to_vec().unwrap(), "k=1 {at}");
            // k = 1 over an empty run, and k = 0: nothing comes out.
            let none = [run(0..0)];
            let out = merge_runs_with(&none, &budget, &cfg, LESS).unwrap();
            assert!(out.is_empty(), "k=1 empty {at}");
            let got = merge_runs_streaming(&[], &budget, &cfg, LESS, drain).unwrap();
            assert!(got.is_empty(), "k=0 {at}");

            // k = 2, all keys equal: all of run 0, then all of run 1.
            let two = [run(100..150), run(0..50)];
            let out = merge_runs_with(&two, &budget, &cfg, LESS).unwrap();
            let expect: Vec<Rec> = (100..150).chain(0..50).map(|p| (7, p)).collect();
            assert_eq!(out.to_vec().unwrap(), expect, "k=2 {at}");
            // …also when run 0 joins at an offset, and run 1 is empty.
            let parts = [(&two[0], 20u64), (&none[0], 0)];
            let got = merge_runs_streaming(&parts, &budget, &cfg, LESS, drain).unwrap();
            assert_eq!(got, expect[20..50], "k=2 offset {at}");

            // The empty input through every complete-sort entry point.
            let empty: ExtVec<Rec> = ExtVec::new(device.clone());
            let blocks = device.allocated_blocks();
            assert!(merge_sort_by(&empty, &cfg, LESS).unwrap().is_empty());
            assert!(distribution_sort_by(&empty, &cfg, LESS).unwrap().is_empty());
            assert!(merge_sort_streaming(&empty, &cfg, LESS, drain)
                .unwrap()
                .is_empty());
            let w = SortingWriter::new(device.clone(), &cfg, LESS);
            assert!(w.finish_sorted().unwrap().is_empty());
            let w = SortingWriter::new(device.clone(), &cfg, LESS);
            assert!(w.finish_streaming(drain).unwrap().is_empty());
            assert_eq!(device.allocated_blocks(), blocks, "empty sorts leak {at}");
        }
    }
}

/// The schedule before the last load's tail stayed resident, replayed: every
/// load written as a run, the short one last, then merged front to back in
/// groups of `k` — to one run (`materialized`; a single run is its own
/// output) or to the `≤ k` a final streamed merge reads once.  Input read
/// included.
fn every_load_written_ios(n: u64, m: usize, b: usize, k: usize, materialized: bool) -> u64 {
    let blocks = |r: u64| r.div_ceil(b as u64);
    let mut queue: VecDeque<u64> = (0..n.div_ceil(m as u64))
        .map(|i| (n - i * m as u64).min(m as u64))
        .collect();
    let mut t = blocks(n) + queue.iter().map(|&r| blocks(r)).sum::<u64>();
    let until = if materialized { 1 } else { k };
    while queue.len() > until {
        let group: Vec<u64> = queue.drain(..k.min(queue.len())).collect();
        t += group.iter().map(|&r| blocks(r)).sum::<u64>();
        let merged = group.iter().sum();
        t += blocks(merged);
        queue.push_back(merged);
    }
    if !materialized {
        t += queue.iter().map(|&r| blocks(r)).sum::<u64>();
    }
    t
}

/// True when every load must be written: the loads take more than one
/// merge pass of `k`, or the last of them, `last` records, can neither stay
/// whole beside the runs before it nor split around one more run — `M` has
/// no block to spare beside the disk runs' `(r+1)·B`.
fn no_spare_memory(loads: u64, last: usize, m: usize, b: usize, k: usize) -> bool {
    let room = |disk_runs: u64| m as i64 - (disk_runs as i64 + 1) * b as i64;
    loads > k as u64 || (last as i64 > room(loads.saturating_sub(1)) && room(loads) <= 0)
}

/// Every entry point, over `B` ∈ {4, 8} × `M` from two to sixteen blocks
/// (one not a block multiple) × `N` around each load boundary, one-pass and
/// multi-pass: the output is the replayed schedule's; the transfers equal the
/// entry point's replay, never exceed the every-load-written schedule and
/// equal it exactly where no memory is spare; and they are never under
/// `Sort(N)` — a `SortingWriter`'s pushed records counted as one scan.
#[test]
fn a_resident_tail_only_ever_saves_transfers() {
    for b in [4usize, 8] {
        let device = DiskArray::new_ram_with(1, 16 * b, Placement::Independent, IoMode::Synchronous)
            as SharedDevice;
        for m in [2 * b, 3 * b, 5 * b, 8 * b + 3, 16 * b] {
            let cfg = SortConfig::new(m).with_overlap(OverlapConfig::off());
            let k = cfg.effective_fan_in(b);
            let sizes = [0, 1, b - 1, m - b, m - b + 1, m, m + 1, 2 * m, 3 * m - 1];
            let more = [k * m, k * m + 1, (k + 2) * m + b];
            for n in sizes.into_iter().chain(more) {
                if m < 3 * b && n > m {
                    continue; // two blocks cannot merge (model_enforcement)
                }
                let data: Vec<Rec> = (0..n as u64).map(|i| ((i * 7919) % 5, i)).collect();
                let loads: Vec<Vec<Rec>> = data
                    .chunks(m)
                    .map(|c| stable_merge(&[c.to_vec()]))
                    .collect();
                let expect = sort_model(loads, k);
                let input = ExtVec::from_slice(device.clone(), &data).unwrap();
                let n = n as u64;
                let loads = n.div_ceil(m as u64);
                let at = format!("N={n} M={m} B={b}");
                let total = |counts: (u64, u64)| counts.0 + counts.1;
                let theta = bounds::sort(n, m, b);
                let scan = n.div_ceil(b as u64);

                let (out, counts) = metered(&device, || merge_sort_by(&input, &cfg, LESS).unwrap());
                assert_eq!(out.to_vec().unwrap(), expect, "merge_sort_by {at}");
                out.free().unwrap();
                let old = every_load_written_ios(n, m, b, k, true);
                assert_eq!(
                    total(counts),
                    bounds::merge_sort_exact_ios(n, m, b, k),
                    "{at}"
                );
                assert!(total(counts) <= old, "merge_sort_by {at}");
                if loads < 2 || no_spare_memory(loads, m, m, b, k) {
                    assert_eq!(total(counts), old, "merge_sort_by {at}");
                }
                assert!(total(counts) as f64 >= theta, "merge_sort_by {at}");

                let (got, counts) = metered(&device, || {
                    merge_sort_streaming(&input, &cfg, LESS, drain).unwrap()
                });
                assert_eq!(got, expect, "merge_sort_streaming {at}");
                let old = every_load_written_ios(n, m, b, k, false);
                assert_eq!(
                    total(counts),
                    bounds::merge_sort_streamed_ios(n, m, b, k),
                    "{at}"
                );
                assert!(total(counts) <= old, "merge_sort_streaming {at}");
                if no_spare_memory(loads, n.min(m as u64) as usize, m, b, k) {
                    assert_eq!(total(counts), old, "merge_sort_streaming {at}");
                }
                assert!(total(counts) as f64 >= theta, "merge_sort_streaming {at}");
                input.free().unwrap();

                // The writer loads in push order: its short load is last.
                let last = (n - loads.saturating_sub(1) * m as u64) as usize;
                let push_all = || {
                    let mut w = SortingWriter::new(device.clone(), &cfg, LESS);
                    for &r in &data {
                        w.push(r).unwrap();
                    }
                    w
                };
                let (out, counts) = metered(&device, || push_all().finish_sorted().unwrap());
                assert_eq!(out.to_vec().unwrap(), expect, "finish_sorted {at}");
                out.free().unwrap();
                let old = every_load_written_ios(n, m, b, k, true) - scan;
                assert!(total(counts) <= old, "finish_sorted {at}");
                if loads < 2 || no_spare_memory(loads, last, m, b, k) {
                    assert_eq!(total(counts), old, "finish_sorted {at}");
                }
                assert!((total(counts) + scan) as f64 >= theta, "finish_sorted {at}");

                let (got, counts) =
                    metered(&device, || push_all().finish_streaming(drain).unwrap());
                assert_eq!(got, expect, "finish_streaming {at}");
                let old = every_load_written_ios(n, m, b, k, false) - scan;
                assert_eq!(
                    total(counts),
                    bounds::sorting_writer_streamed_ios(n, m, b, k),
                    "{at}"
                );
                assert!(total(counts) <= old, "finish_streaming {at}");
                if no_spare_memory(loads, last, m, b, k) {
                    assert_eq!(total(counts), old, "finish_streaming {at}");
                }
                assert!(
                    (total(counts) + scan) as f64 >= theta,
                    "finish_streaming {at}"
                );
            }
        }
    }
}

/// `Scan(N)` as a lower bound, on the grid above: no stream moves fewer than
/// `⌈N/B⌉` blocks for `N` records — a writer pushed a record or a slice at a
/// time, a reader pulled a record, a block or a buffered slice at a time —
/// and a drained merge reads at least its runs' records: all `N` of the
/// runs `form_runs` writes, and all but the resident tail of a streamed
/// sort's (beside the input scan).  Fewer would be an accounting bug.
#[test]
fn no_stream_moves_fewer_blocks_than_a_scan() {
    for b in [4usize, 8] {
        let device = device_of(b, 0);
        for m in [3 * b, 5 * b, 8 * b + 3, 16 * b] {
            let cfg = SortConfig::new(m).with_overlap(OverlapConfig::off());
            let k = cfg.effective_fan_in(b);
            for n in [0, 1, b - 1, m - b, m, m + 1, 2 * m, 3 * m - 1, k * m + 1] {
                let data: Vec<Rec> = (0..n as u64).map(|i| ((i * 7919) % 5, i)).collect();
                let n = n as u64;
                let at = format!("N={n} M={m} B={b}");
                let scan = |records: u64| bounds::scan(records, b) as u64;

                let (pushed, (_, writes)) = metered(&device, || {
                    let mut w = ExtVecWriter::new(device.clone());
                    data.iter().for_each(|&r| w.push(r).unwrap());
                    w.finish().unwrap()
                });
                assert!(writes >= scan(n), "push {at}");
                let (extended, (_, writes)) = metered(&device, || {
                    let mut w = ExtVecWriter::new(device.clone());
                    w.extend_from_slice(&data).unwrap();
                    w.finish().unwrap()
                });
                assert!(writes >= scan(n), "extend_from_slice {at}");

                let (got, (reads, _)) = metered(&device, || pushed.to_vec().unwrap());
                assert_eq!(got, data, "{at}");
                assert!(reads >= scan(n), "reader {at}");
                let (got, (reads, _)) = metered(&device, || {
                    let (mut r, mut out) = (extended.reader(), Vec::new());
                    while r.read_into(&mut out, b + 1).unwrap() > 0 {}
                    out
                });
                assert_eq!(got, data, "{at}");
                assert!(reads >= scan(n), "read_into {at}");
                let (taken, (reads, _)) = metered(&device, || {
                    let (mut r, mut taken) = (extended.reader(), 0);
                    loop {
                        let len = r.buffered_at_least(1).unwrap().len();
                        if len == 0 {
                            break taken;
                        }
                        r.consume(len);
                        taken += len as u64;
                    }
                });
                assert_eq!(taken, n, "{at}");
                assert!(reads >= scan(n), "buffered {at}");
                pushed.free().unwrap();
                extended.free().unwrap();

                let input = ExtVec::from_slice(device.clone(), &data).unwrap();
                let runs = form_runs(&input, &cfg, LESS).unwrap();
                let parts: Vec<(&ExtVec<Rec>, u64)> = runs.iter().map(|r| (r, 0)).collect();
                let budget = MemBudget::new((runs.len() + 1) * b);
                let (_, (reads, _)) = metered(&device, || {
                    merge_runs_streaming(&parts, &budget, &cfg, LESS, drain).unwrap()
                });
                assert!(reads >= scan(n), "merge_runs_streaming {at}");
                runs.into_iter().for_each(|r| r.free().unwrap());

                let loads = n.div_ceil(m as u64);
                let tail = bounds::resident_tail(loads, n.min(m as u64) as usize, m, b, k, false);
                let (_, (reads, _)) = metered(&device, || {
                    merge_sort_streaming(&input, &cfg, LESS, drain).unwrap()
                });
                assert!(
                    reads >= scan(n) + scan(n - tail as u64),
                    "merge_sort_streaming {at}: tail {tail}"
                );
                input.free().unwrap();
            }
        }
    }
}

/// Runs of a few blocks each whose equal keys straddle block boundaries:
/// each key repeats `≈ 2B/3` times, every run shares the key range, and the
/// lengths leave partial last blocks.  The payload names the run and the
/// record's index in it.
fn straddling_run(run: usize, b: usize) -> Vec<Rec> {
    let len = (run % 3 + 1) * b + (run * 5) % b;
    (0..len as u64)
        .map(|j| (j * 3 / (2 * b as u64), (run as u64) << 32 | j))
        .collect()
}

/// A one-lane array of `B`-record blocks, synchronous at depth 0.
fn device_of(b: usize, depth: usize) -> SharedDevice {
    let mode = if depth == 0 {
        IoMode::Synchronous
    } else {
        IoMode::Overlapped
    };
    DiskArray::new_ram_with(1, 16 * b, Placement::Independent, mode)
}

/// The batch merge's edge cases: `k` ∈ {1, 2, 3, 31, 32, 33} runs × `B` ∈
/// {8, 64, 512} records × depth {0, 2}.  A merge of straddling runs is the
/// stable-sort oracle's, reads every run block once and — materialized —
/// writes every output block once.  Complete sorts of 1, 2, 30, 31 and 32
/// loads keep `B + B/2` records of the last load resident, so their final
/// merge has 1 or 2, 3, 31, 32 and 33 sources, the tail's equal keys
/// straddling its own block boundary: output is the stable sort, transfers
/// are the exact replay's, and every block a run writes is read once.
#[test]
fn the_batch_merge_over_every_fan_in_and_block_shape() {
    for b in [8usize, 64, 512] {
        for depth in [0, 2] {
            let device = device_of(b, depth);
            let ov = OverlapConfig::symmetric(depth);
            for k in [1usize, 2, 3, 31, 32, 33] {
                let at = format!("k={k} B={b} depth={depth}");
                let runs_data: Vec<Vec<Rec>> = (0..k).map(|r| straddling_run(r, b)).collect();
                let expect = stable_merge(&runs_data);
                let run_blocks: u64 = runs_data.iter().map(|r| r.len().div_ceil(b) as u64).sum();
                let out_blocks = expect.len().div_ceil(b) as u64;
                let runs: Vec<ExtVec<Rec>> = runs_data
                    .iter()
                    .map(|r| ExtVec::from_slice(device.clone(), r).unwrap())
                    .collect();
                let cfg = SortConfig::new((k + 1) * b).with_overlap(ov);
                let budget = MemBudget::new((k + 1) * b * (1 + 2 * depth));
                let (out, counts) = metered(&device, || {
                    merge_runs_with(&runs, &budget, &cfg, LESS).unwrap()
                });
                assert_eq!(out.to_vec().unwrap(), expect, "merge_runs_with {at}");
                assert_eq!(counts, (run_blocks, out_blocks), "merge_runs_with {at}");
                out.free().unwrap();
                let parts: Vec<(&ExtVec<Rec>, u64)> = runs.iter().map(|r| (r, 0)).collect();
                let (got, counts) = metered(&device, || {
                    merge_runs_streaming(&parts, &budget, &cfg, LESS, drain).unwrap()
                });
                assert_eq!(got, expect, "merge_runs_streaming {at}");
                assert_eq!(counts, (run_blocks, 0), "merge_runs_streaming {at}");
                runs.into_iter().for_each(|r| r.free().unwrap());
            }

            for loads in [1u64, 2, 30, 31, 32] {
                let m = (loads as usize + 2) * b + b / 2;
                let cfg = SortConfig::new(m).with_overlap(ov);
                let fan_in = cfg.effective_fan_in(b);
                let sizes = if loads == 1 {
                    vec![m - b, m]
                } else {
                    vec![(loads as usize - 1) * m + m / 3]
                };
                for n in sizes {
                    let at = format!("loads={loads} N={n} M={m} B={b} depth={depth}");
                    let data: Vec<Rec> = (0..n as u64).map(|i| ((i * 7919) % 5, i)).collect();
                    let expect = stable_merge(std::slice::from_ref(&data));
                    let input = ExtVec::from_slice(device.clone(), &data).unwrap();
                    let (n, scan) = (n as u64, n.div_ceil(b) as u64);

                    let (out, (reads, writes)) =
                        metered(&device, || merge_sort_by(&input, &cfg, LESS).unwrap());
                    assert_eq!(out.to_vec().unwrap(), expect, "merge_sort_by {at}");
                    out.free().unwrap();
                    let exact = bounds::merge_sort_exact_ios(n, m, b, fan_in);
                    assert_eq!(reads + writes, exact, "merge_sort_by {at}");
                    // Beside the input read and the output write.
                    assert_eq!(reads - scan, writes - scan, "merge_sort_by {at}");

                    let (got, (reads, writes)) = metered(&device, || {
                        merge_sort_streaming(&input, &cfg, LESS, drain).unwrap()
                    });
                    assert_eq!(got, expect, "merge_sort_streaming {at}");
                    let exact = bounds::merge_sort_streamed_ios(n, m, b, fan_in);
                    assert_eq!(reads + writes, exact, "merge_sort_streaming {at}");
                    assert_eq!(reads - scan, writes, "merge_sort_streaming {at}");
                    input.free().unwrap();
                }
            }
        }
    }
}

/// Where a record-at-a-time merge of runs of lengths `lens` reads a block
/// once it has read every run's first: the output positions of the records
/// whose departure refills their run — each block's last record but the
/// run's last.  Payloads are [`straddling_run`]'s.
fn refill_points(order: &[Rec], lens: &[usize], b: usize) -> Vec<usize> {
    let ends_a_block = |&(_, p): &Rec| {
        let (run, j) = ((p >> 32) as usize, (p & 0xffff_ffff) as usize);
        (j + 1) % b == 0 && j + 1 < lens[run]
    };
    (0..order.len())
        .filter(|&at| ends_a_block(&order[at]))
        .collect()
}

/// Dropped after its first batch, or just before any record whose
/// departure makes a record-at-a-time merge read a block, a merge stream
/// has read no block that merge would not have read by then; and drained
/// with every run reading ahead it wastes no prefetch.
#[test]
fn a_stream_dropped_early_reads_no_more_than_a_per_record_merge() {
    let (b, k) = (64, 31);
    let runs_data: Vec<Vec<Rec>> = (0..k).map(|r| straddling_run(r, b)).collect();
    let lens: Vec<usize> = runs_data.iter().map(Vec::len).collect();
    let expect = stable_merge(&runs_data);
    let refills = refill_points(&expect, &lens, b);
    for depth in [0, 2] {
        let device = device_of(b, depth);
        let runs: Vec<ExtVec<Rec>> = runs_data
            .iter()
            .map(|r| ExtVec::from_slice(device.clone(), r).unwrap())
            .collect();
        let parts: Vec<(&ExtVec<Rec>, u64)> = runs.iter().map(|r| (r, 0)).collect();
        let cfg = SortConfig::new((k + 1) * b).with_overlap(OverlapConfig::symmetric(depth));
        let budget = MemBudget::new((k + 1) * b * (1 + 2 * depth));
        let stops: Vec<usize> = if depth == 0 {
            [1].into_iter().chain(refills.iter().copied()).collect()
        } else {
            vec![expect.len()]
        };
        for stop in stops {
            let before = device.stats().snapshot();
            let got = merge_runs_streaming(&parts, &budget, &cfg, LESS, |s| {
                let mut out = Vec::new();
                while out.len() < stop {
                    match s.try_next()? {
                        Some(r) => out.push(r),
                        None => break,
                    }
                }
                Ok(out)
            })
            .unwrap();
            let io = device.stats().snapshot().since(&before);
            assert_eq!(got, expect[..stop], "depth {depth}, stop {stop}");
            if depth == 0 {
                let per_record = (k + refills.partition_point(|&at| at < stop)) as u64;
                assert!(
                    io.reads() <= per_record,
                    "stop {stop}: {} > {per_record}",
                    io.reads()
                );
            } else {
                assert_eq!(io.prefetch_wasted(), 0, "drained at depth {depth}");
                assert!(io.prefetched() > 0);
                assert_eq!(io.prefetch_hits(), io.prefetched());
            }
        }
        runs.into_iter().for_each(|r| r.free().unwrap());
    }
}

/// `merge_runs_with` over no runs has nowhere to put its output: a typed
/// error, not a panic.
#[test]
fn merging_no_runs_is_a_typed_error() {
    let cfg = SortConfig::new(64);
    let budget = MemBudget::new(64);
    match merge_runs_with::<Rec, _>(&[], &budget, &cfg, LESS).map(|out| out.len()) {
        Err(PdmError::InvalidRequest(_)) => {}
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
    assert_eq!(budget.high_water(), 0);
}
