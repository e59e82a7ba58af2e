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

use std::collections::VecDeque;

use em_core::{ExtVec, MemBudget};
use emsort::{
    distribution_sort_by, form_runs, merge_runs_streaming, merge_runs_with, merge_sort_by,
    merge_sort_streaming, OverlapConfig, RunFormation, SortConfig, SortedStream, SortingWriter,
};
use pdm::{DiskArray, IoMode, Placement, SharedDevice};
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
