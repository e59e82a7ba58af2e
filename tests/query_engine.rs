//! Cross-crate equivalence, cost-model, and planner tests for the Volcano
//! query engine (`emrel::exec` + `emrel::plan`).
//!
//! The contract under test:
//!
//! * **Same answers.**  The engine's pipeline, a hand-rolled
//!   `SortingWriter` pipeline, and a naive in-memory reference must all
//!   produce byte-identical output, across disk placements, disk counts,
//!   I/O modes, and overlap depths.
//! * **Exact costs.**  The planner's [`predict_with_sink`] must match the
//!   measured device-transfer count *exactly* — the model replays the
//!   engine's actual merge schedule, so with exact cardinalities there is
//!   no slack — and the engine must cost exactly the hand-rolled pipeline.
//! * **Honest planning.**  Over a join query with genuinely different
//!   strategies (merge join vs the hash join holding one side in memory,
//!   sort placement), the plan [`choose`] picks must be the
//!   measured-cheapest feasible plan, and every feasible candidate's
//!   measured cost must equal its prediction.
//! * **Clean failure.**  A pipeline over a faulty device either completes
//!   with the correct answer or surfaces a clean `Err` — never a panic,
//!   never silently wrong output.
//! * **Batches are rows.**  Every `QueryExec::next_batch` override delivers
//!   `try_next`'s records with its transfers, and no consumer that drains
//!   by batches pulls a stream past its first short batch.

use std::sync::Arc;

use em_core::{bounds, EmConfig, ExtVec, ExtVecWriter, MemBudget};
use emrel::{
    choose, collect, predict_with_sink, sort_pipe, sort_scan, CostEnv, ExecConfig, FilterExec,
    GroupByExec, HashGroupByExec, HashJoinExec, KeyStats, MergeJoinExec, Order, PlanExpr,
    ProjectExec, QueryExec, ScanExec,
};
use emsort::{OverlapConfig, RunFormation, SortConfig, SortingWriter};
use pdm::{DiskArray, FaultPlan, IoMode, Placement, RetryPolicy, SharedDevice};
use proptest::prelude::*;

/// `(group key, value)` — the engine-side row type (16 bytes).
type Row = (u64, u64);
/// `(group key, wrapping sum of values, count)` — the aggregate (24 bytes).
type Grp = (u64, u64, u64);

const KEY: u32 = 1;
const ROW_BYTES: usize = 16;
const GRP_BYTES: usize = 24;

fn keep(r: &Row) -> bool {
    !r.1.is_multiple_of(4)
}

fn less(a: &Row, b: &Row) -> bool {
    a.0 < b.0
}

/// The naive in-memory reference: filter, sort by key, fold adjacent groups.
fn q1_reference(data: &[Row]) -> Vec<Grp> {
    let mut kept: Vec<Row> = data.iter().copied().filter(keep).collect();
    kept.sort_by_key(|r| r.0); // stable; the wrapping sum is order-blind anyway
    let mut out: Vec<Grp> = Vec::new();
    for r in kept {
        match out.last_mut() {
            Some(g) if g.0 == r.0 => {
                g.1 = g.1.wrapping_add(r.1);
                g.2 += 1;
            }
            _ => out.push((r.0, r.1, 1)),
        }
    }
    out
}

/// Q1-lite through the engine: `GroupBy(Sort(Filter(Scan)))` into a sink.
fn run_q1(
    device: &SharedDevice,
    input: &ExtVec<Row>,
    cfg: &ExecConfig,
) -> pdm::Result<ExtVec<Grp>> {
    let scan = ScanExec::new(input);
    let mut filt = FilterExec::new(scan, keep);
    sort_pipe(&mut filt, device, cfg, KEY, less, |s| {
        let mut g = GroupByExec::new(
            s,
            |r: &Row| r.0,
            0u64,
            |acc: &mut u64, r: &Row| *acc = acc.wrapping_add(r.1),
            |k, acc, n| (k, acc, n),
            Order::Key(KEY),
        );
        collect(&mut g, device)
    })
}

/// The same query hand-rolled in the pre-engine style (PR 5): an explicit
/// `SortingWriter` fed by a manual filter loop, with the group fold written
/// inline against the drained stream.  The engine must cost *exactly* this.
fn run_q1_handrolled(
    device: &SharedDevice,
    input: &ExtVec<Row>,
    sc: &SortConfig,
) -> pdm::Result<ExtVec<Grp>> {
    let mut w = SortingWriter::new(device.clone(), sc, less);
    let mut r = input.reader();
    while let Some(x) = r.try_next()? {
        if keep(&x) {
            w.push(x)?;
        }
    }
    w.finish_streaming(|s| {
        let mut out: ExtVecWriter<Grp> = ExtVecWriter::new(device.clone());
        let mut cur: Option<Grp> = None;
        while let Some(rec) = s.try_next()? {
            match cur.as_mut() {
                Some(g) if g.0 == rec.0 => {
                    g.1 = g.1.wrapping_add(rec.1);
                    g.2 += 1;
                }
                _ => {
                    if let Some(done) = cur.replace((rec.0, rec.1, 1)) {
                        out.push(done)?;
                    }
                }
            }
        }
        if let Some(done) = cur {
            out.push(done)?;
        }
        out.finish()
    })
}

/// The level-0 hash the hash operators apply to a `u64` key — the planner's
/// [`KeyStats`] must be built with the same function for the replay to be
/// exact.
fn key_hash(k: u64) -> u64 {
    em_core::key_hash(&k)
}

/// One plan per disk, all derived from `seed` but decorrelated per member.
fn mk_plans(d: usize, seed: u64, transient_permille: u64, fail_attempts: u32) -> Vec<FaultPlan> {
    (0..d)
        .map(|i| {
            FaultPlan::new(seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9))
                .with_transient(transient_permille, fail_attempts)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Q1-lite across placement × mode × D: the engine and the hand-rolled
    /// pipeline agree with the reference and with each other's transfer
    /// count, which equals its prediction exactly.
    #[test]
    fn q1_pipeline_matches_reference_and_cost_model(
        data in prop::collection::vec((0u64..48, any::<u64>()), 0..1600),
        depth in 0usize..=2,
        sync in any::<bool>(),
    ) {
        let expect = q1_reference(&data);
        let f_cnt = data.iter().filter(|r| keep(r)).count() as u64;
        let g_cnt = expect.len() as u64;
        let mode = if sync { IoMode::Synchronous } else { IoMode::Overlapped };

        for (d, placement) in [
            (1usize, Placement::Independent),
            (2, Placement::Independent),
            (2, Placement::Striped),
            (2, Placement::RandomizedCycling { seed: 42 }),
        ] {
            // 64-byte physical blocks of 16-byte rows: the logical block is
            // D·4 records under striping, 4 otherwise.  `m = 4` blocks keeps
            // the merge at fan-in 3 with its output block exactly in budget.
            let rows_per_block = if placement.is_striped() { d * 4 } else { 4 };
            let m = 4 * rows_per_block;
            // Striped stats count per-member transfers; the others count one
            // transfer per logical block.
            let stripe = if placement.is_striped() { d as u64 } else { 1 };

            let sc = SortConfig::new(m)
                .with_run_formation(RunFormation::LoadSort)
                .with_overlap(OverlapConfig::symmetric(depth));
            let device = DiskArray::new_ram_with(d, 64, placement, mode) as SharedDevice;
            let input = ExtVec::from_slice(device.clone(), &data).unwrap();

            let env = CostEnv::new(device.block_size(), m).with_stripe(stripe);
            let plan = PlanExpr::scan(data.len() as u64, ROW_BYTES, Order::Unordered)
                .filter(f_cnt)
                .sort(KEY)
                .group_by(KEY, GRP_BYTES, g_cnt, Order::Key(KEY));
            let pred_fused = predict_with_sink(&plan, &env);

            let cfg = ExecConfig { sort: sc };

            let before = device.stats().snapshot();
            let out = run_q1(&device, &input, &cfg).unwrap();
            let m_fused = device.stats().snapshot().since(&before);
            prop_assert_eq!(&out.to_vec().unwrap(), &expect,
                "{:?} fused output wrong", placement);
            out.free().unwrap();

            let before = device.stats().snapshot();
            let out = run_q1_handrolled(&device, &input, &cfg.sort).unwrap();
            let m_hand = device.stats().snapshot().since(&before);
            prop_assert_eq!(&out.to_vec().unwrap(), &expect,
                "{:?} hand-rolled output wrong", placement);
            out.free().unwrap();

            // The model is exact — no slack with exact cardinalities.
            prop_assert_eq!(m_fused.total(), pred_fused as u64,
                "{:?} d={} fused measured != predicted", placement, d);

            // The engine's fused pipeline is *exactly* the hand-rolled
            // one — the abstraction costs zero transfers.
            prop_assert_eq!(m_fused.total(), m_hand.total(),
                "{:?} engine must cost exactly the hand-rolled pipeline",
                placement);

            input.free().unwrap();
        }
    }
}

/// Deterministic in-place Fisher–Yates driven by an LCG, so shuffles are
/// reproducible from a proptest-supplied seed without an RNG dependency.
fn shuffle(v: &mut [Row], mut s: u64) {
    for i in (1..v.len()).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (s >> 33) as usize % (i + 1);
        v.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Q3-lite (filter orders ⋈ lineitem, then aggregate per order): three
    /// genuinely different strategies — merge join with one real sort, the
    /// hash join holding the filtered orders with a late sort, and the hash
    /// join holding all of lineitem with no sort at all.  Every feasible
    /// plan must measure exactly its prediction, all must agree on the
    /// answer, and the planner's choice must be the measured-cheapest.
    #[test]
    fn planner_choice_is_measured_cheapest(
        line_counts in prop::collection::vec(0usize..5, 8..80),
        sel in 0u64..=100,
        seed in any::<u64>(),
    ) {
        let n_orders = line_counts.len();
        // Keep the highest order key unconditionally: merge join stops
        // pulling its right side once the left runs out, so a dropped fence
        // would leave lineitem blocks unread and break cost exactness.  The
        // model prices fully drained streams.
        let keep_order = move |k: u64| {
            k == n_orders as u64 - 1 || (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % 101 < sel
        };

        let orders: Vec<Row> = (0..n_orders as u64).map(|k| (k, k * 7)).collect();
        let mut lineitem: Vec<Row> = Vec::new();
        for (k, &c) in line_counts.iter().enumerate() {
            for j in 0..c as u64 {
                lineitem.push((k as u64, k as u64 * 1000 + j));
            }
        }
        shuffle(&mut lineitem, seed);

        // Exact cardinalities and key hashes for the model, and the
        // reference answer.
        let f_cnt = (0..n_orders as u64).filter(|&k| keep_order(k)).count() as u64;
        let j_cnt: u64 = line_counts
            .iter()
            .enumerate()
            .filter(|(k, _)| keep_order(*k as u64))
            .map(|(_, &c)| c as u64)
            .sum();
        let expect: Vec<Grp> = (0..n_orders as u64)
            .filter(|&k| keep_order(k) && line_counts[k as usize] > 0)
            .map(|k| {
                let c = line_counts[k as usize] as u64;
                let sum = (0..c).fold(0u64, |a, j| a.wrapping_add(k * 1000 + j));
                (k, sum, c)
            })
            .collect();
        let g_cnt = expect.len() as u64;
        let o_hashes: KeyStats = Arc::new(
            (0..n_orders as u64).filter(|&k| keep_order(k)).map(key_hash).collect(),
        );
        let l_hashes: KeyStats = Arc::new(lineitem.iter().map(|r| key_hash(r.0)).collect());

        // 16 rows/block, M = 128: the hash join's fan-out 2 fits
        // (3·(16 + 16) ≤ 128) and holds R = 128 − 3·16 = 80 build records —
        // every filtered orders side (< 80 rows), and lineitem only when
        // it is that small.
        let device = EmConfig::new(256, 16).ram_disk();
        let (m, fan_out) = (128usize, 2usize);
        let residency = bounds::hash_join_residency(m, 16, 16, fan_out);
        let env = CostEnv::new(256, m);
        let cfg = ExecConfig::new(m);

        let scan_o = || PlanExpr::scan(n_orders as u64, ROW_BYTES, Order::Key(KEY));
        let scan_l = || PlanExpr::scan(lineitem.len() as u64, ROW_BYTES, Order::Unordered);
        let candidates = vec![
            // 0: merge join — orders are clustered on the key (sort elided),
            // lineitem gets the one real sort.
            scan_o()
                .filter(f_cnt)
                .sort(KEY)
                .merge_join(scan_l().sort(KEY), KEY, ROW_BYTES, j_cnt)
                .group_by(KEY, GRP_BYTES, g_cnt, Order::Key(KEY)),
            // 1: hold the filtered orders, stream lineitem past unsorted,
            // sort the join output.
            scan_l()
                .hash_join(scan_o().filter(f_cnt), o_hashes.clone(), l_hashes.clone(),
                    fan_out, false, ROW_BYTES, j_cnt)
                .sort(KEY)
                .group_by(KEY, GRP_BYTES, g_cnt, Order::Key(KEY)),
            // 2: hold all of lineitem; probing with clustered orders keeps
            // their order, so no sort anywhere.  A lineitem over R spills,
            // the join is unordered, and the group-by above it infeasible.
            scan_o()
                .filter(f_cnt)
                .hash_join(scan_l(), l_hashes.clone(), o_hashes.clone(),
                    fan_out, false, ROW_BYTES, j_cnt)
                .group_by(KEY, GRP_BYTES, g_cnt, Order::Key(KEY)),
        ];
        let choice = choose(&candidates, &env);
        prop_assert!(choice.best.is_some(), "plan 0 is always feasible");
        prop_assert!(choice.predicted[1].is_finite(), "the filtered orders always fit R");
        prop_assert_eq!(choice.predicted[2].is_finite(), lineitem.len() <= residency,
            "plan 2 is feasible exactly when lineitem is held");

        let o_vec = ExtVec::from_slice(device.clone(), &orders).unwrap();
        let l_vec = ExtVec::from_slice(device.clone(), &lineitem).unwrap();

        let group = |s: &mut dyn QueryExec<Item = Row>, device: &SharedDevice| {
            let mut g = GroupByExec::new(
                s,
                |r: &Row| r.0,
                0u64,
                |acc: &mut u64, r: &Row| *acc = acc.wrapping_add(r.1),
                |k, acc, n| (k, acc, n),
                Order::Key(KEY),
            );
            collect(&mut g, device)
        };

        let mut measured: Vec<Option<u64>> = vec![None; candidates.len()];
        for (i, pred) in choice.predicted.iter().enumerate() {
            if !pred.is_finite() {
                continue;
            }
            let before = device.stats().snapshot();
            let out = match i {
                0 => sort_scan(&l_vec, Order::Unordered, &cfg, KEY, less, |rs| {
                    let left = FilterExec::new(
                        ScanExec::with_order(&o_vec, Order::Key(KEY)),
                        |r: &Row| keep_order(r.0),
                    );
                    let mut join = MergeJoinExec::new(
                        left, rs, |l: &Row| l.0, |r: &Row| r.0,
                        |l: &Row, r: &Row| (l.0, r.1), m,
                    );
                    group(&mut join, &device)
                })
                .unwrap(),
                1 => {
                    let mut build = FilterExec::new(
                        ScanExec::with_order(&o_vec, Order::Key(KEY)),
                        |r: &Row| keep_order(r.0),
                    );
                    let probe = ScanExec::new(&l_vec);
                    let mut join = HashJoinExec::build(
                        &mut build, probe, &device, &cfg, fan_out, false,
                        |b: &Row| b.0, |p: &Row| p.0, |_b: &Row, p: &Row| (p.0, p.1),
                    )
                    .unwrap();
                    sort_pipe(&mut join, &device, &cfg, KEY, less, |s| group(s, &device))
                        .unwrap()
                }
                _ => {
                    let mut build = ScanExec::new(&l_vec);
                    let probe = FilterExec::new(
                        ScanExec::with_order(&o_vec, Order::Key(KEY)),
                        |r: &Row| keep_order(r.0),
                    );
                    let mut join = HashJoinExec::build(
                        &mut build, probe, &device, &cfg, fan_out, false,
                        |b: &Row| b.0, |p: &Row| p.0, |b: &Row, p: &Row| (p.0, b.1),
                    )
                    .unwrap();
                    prop_assert_eq!(join.order(), Order::Key(KEY), "lineitem is held");
                    group(&mut join, &device).unwrap()
                }
            };
            let ios = device.stats().snapshot().since(&before);
            prop_assert_eq!(&out.to_vec().unwrap(), &expect, "plan {} output wrong", i);
            let out_blocks = out.num_blocks();
            out.free().unwrap();
            prop_assert_eq!(ios.total(), *pred as u64,
                "plan {} measured != predicted", i);
            if i == 2 {
                // Two scans and the output: no sort, no spill.
                let scans = o_vec.num_blocks() + l_vec.num_blocks();
                prop_assert_eq!(ios.total(), (scans + out_blocks) as u64,
                    "the clustered plan costs its scans and its output");
            }
            measured[i] = Some(ios.total());
        }

        // With exact predictions the chosen plan is by construction the
        // measured-cheapest feasible one — assert it against the meter
        // anyway, since this is the planner's whole value proposition.
        let best = choice.best.unwrap();
        let best_measured = measured[best].unwrap();
        for m_i in measured.iter().flatten() {
            prop_assert_eq!(best_measured.min(*m_i), best_measured,
                "planner's choice must be measured-cheapest");
        }

        l_vec.free().unwrap();
        o_vec.free().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary transient fault plans, possibly beyond the retry budget:
    /// the full engine pipeline either completes with the correct answer or
    /// returns a clean error — never a panic, never silently wrong output.
    #[test]
    fn faulty_device_pipeline_completes_or_errs_cleanly(
        data in prop::collection::vec((0u64..48, any::<u64>()), 0..600),
        seed in any::<u64>(),
        permille in 0usize..=120,
        attempts in 0usize..=3,
        cycling in any::<bool>(),
    ) {
        let placement = if cycling {
            Placement::RandomizedCycling { seed: 52 }
        } else {
            Placement::Independent
        };
        let plans = mk_plans(2, seed, permille as u64, 2);
        let retry = if attempts > 0 {
            RetryPolicy::new(attempts as u32)
        } else {
            RetryPolicy::none()
        };
        let device = DiskArray::new_ram_faulty(
            2, 64, placement, IoMode::Synchronous, &plans, retry,
        ) as SharedDevice;
        let cfg = ExecConfig::new(32);
        let run = ExtVec::from_slice(device.clone(), &data)
            .and_then(|input| run_q1(&device, &input, &cfg))
            .and_then(|out| out.to_vec());
        // A clean failure is acceptable under uncured faults; only an `Ok`
        // carries an obligation.
        if let Ok(got) = run {
            prop_assert_eq!(got, q1_reference(&data),
                "a completed pipeline must be correct");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Hash aggregation and hash distinct across placement × mode × D ×
    /// overlap depth, at a budget tiny enough to force the partitioner to
    /// recurse several levels: the output must match the sort-based
    /// reference (modulo the declared lack of order), and every measured
    /// transfer count must equal the planner's replay exactly.  With `skew`
    /// every key collapses to one value and the memory budget shrinks to
    /// `M = (F+1)·B`, zeroing the hybrid table — nothing can shrink a
    /// single-key bucket, so the partitioner must take the sort fallback.
    #[test]
    fn hash_group_and_distinct_match_reference_and_cost_model(
        data in prop::collection::vec((0u64..24, any::<u64>()), 0..1200),
        depth in 0usize..=2,
        sync in any::<bool>(),
        skew in any::<bool>(),
    ) {
        let data: Vec<Row> = if skew {
            data.iter().map(|r| (7, r.1)).collect()
        } else {
            data
        };
        let expect = q1_reference(&data);
        let f_cnt = data.iter().filter(|r| keep(r)).count() as u64;
        let g_cnt = expect.len() as u64;
        let keys_sorted: Vec<u64> = expect.iter().map(|g| g.0).collect();
        let mode = if sync { IoMode::Synchronous } else { IoMode::Overlapped };
        let fan_out = 2usize;

        for (d, placement) in [
            (1usize, Placement::Independent),
            (2, Placement::Striped),
            (2, Placement::RandomizedCycling { seed: 42 }),
        ] {
            let rows_per_block = if placement.is_striped() { d * 4 } else { 4 };
            // Skew runs with the hybrid table capacity exactly zero
            // (`M = (F+1)·B`) so every record spills; otherwise one block of
            // table headroom.
            let m = if skew { 3 * rows_per_block } else { 4 * rows_per_block };
            let stripe = if placement.is_striped() { d as u64 } else { 1 };
            let sc = SortConfig::new(m).with_overlap(OverlapConfig::symmetric(depth));
            let cfg = ExecConfig { sort: sc };
            let device = DiskArray::new_ram_with(d, 64, placement, mode) as SharedDevice;
            let input = ExtVec::from_slice(device.clone(), &data).unwrap();
            let env = CostEnv::new(device.block_size(), m).with_stripe(stripe);

            let hashes: KeyStats = Arc::new(
                data.iter().filter(|r| keep(r)).map(|r| key_hash(r.0)).collect(),
            );
            let plan = PlanExpr::scan(data.len() as u64, ROW_BYTES, Order::Unordered)
                .filter(f_cnt)
                .hash_group_by(hashes.clone(), fan_out, GRP_BYTES, g_cnt);
            let pred = predict_with_sink(&plan, &env);

            let (ios, mut got, out_writes) = {
                let root = MemBudget::new(usize::MAX);
                let _in = root.enter();
                let before = device.stats().snapshot();
                let scan = ScanExec::new(&input);
                let mut filt = FilterExec::new(scan, keep);
                let mut g = HashGroupByExec::build(
                    &mut filt,
                    &device,
                    &cfg,
                    fan_out,
                    |r: &Row| r.0,
                    0u64,
                    |acc: &mut u64, r: &Row| *acc = acc.wrapping_add(r.1),
                    |k, acc, n| (k, acc, n),
                )
                .unwrap();
                let out = collect(&mut g, &device).unwrap();
                let ios = device.stats().snapshot().since(&before);
                // Overlap queues are declared headroom beyond `M`; without
                // them the whole pipeline — scan, operator, any sort
                // fallback and sink — fits `M`.
                prop_assert!(depth > 0 || root.high_water() <= m,
                    "{:?} d={} skew={} scan, hash group and sink held {} records, M = {}",
                    placement, d, skew, root.high_water(), m);
                let (got, out_writes) = (out.to_vec().unwrap(), out.num_blocks() as u64 * stripe);
                out.free().unwrap();
                (ios, got, out_writes)
            };
            got.sort_unstable();
            prop_assert_eq!(&got, &expect, "{:?} d={} hash group output wrong", placement, d);
            prop_assert_eq!(ios.total(), pred as u64,
                "{:?} d={} skew={} hash group measured != predicted", placement, d, skew);
            if skew && f_cnt > 0 {
                prop_assert!(ios.writes() > out_writes,
                    "the skew tape must spill (and then fall back) rather than stay resident");
            }

            // Distinct over the projected keys, at its own geometry: the
            // projected record is 8 bytes, so a block holds twice as many.
            let b8 = device.block_size() / 8;
            let m_d = 4 * b8;
            let sc_d = SortConfig::new(m_d).with_overlap(OverlapConfig::symmetric(depth));
            let cfg_d = ExecConfig { sort: sc_d };
            let env_d = CostEnv::new(device.block_size(), m_d).with_stripe(stripe);
            let plan_d = PlanExpr::scan(data.len() as u64, ROW_BYTES, Order::Unordered)
                .filter(f_cnt)
                .project(8, Order::Unordered)
                .hash_group_by(hashes.clone(), fan_out, 8, g_cnt);
            let pred_d = predict_with_sink(&plan_d, &env_d);

            let (ios, mut got) = {
                let root = MemBudget::new(usize::MAX);
                let _in = root.enter();
                let before = device.stats().snapshot();
                let scan = ScanExec::new(&input);
                let filt = FilterExec::new(scan, keep);
                let mut proj: ProjectExec<_, _, u64> =
                    ProjectExec::new(filt, |r: &Row| Some(r.0), Order::Unordered);
                // Keyed on the whole record, a group-by is distinct.
                let mut dist = HashGroupByExec::build(
                    &mut proj, &device, &cfg_d, fan_out, |k: &u64| *k, (), |_, _| {}, |k, (), _| k,
                )
                .unwrap();
                let out = collect(&mut dist, &device).unwrap();
                let ios = device.stats().snapshot().since(&before);
                prop_assert!(depth > 0 || root.high_water() <= m_d,
                    "{:?} d={} skew={} scan, distinct and sink held {} records, M = {}",
                    placement, d, skew, root.high_water(), m_d);
                let got = out.to_vec().unwrap();
                out.free().unwrap();
                (ios, got)
            };
            got.sort_unstable();
            prop_assert_eq!(&got, &keys_sorted, "{:?} d={} distinct output wrong", placement, d);
            prop_assert_eq!(ios.total(), pred_d as u64,
                "{:?} d={} skew={} distinct measured != predicted", placement, d, skew);

            input.free().unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Hash join over shuffled inputs across placement × mode × D, at a
    /// budget of eight or sixteen blocks, so the cases land in every regime:
    /// a build side that fits the residency and is never partitioned, a
    /// filtered Grace join, level-0 build buckets that overflow the pair
    /// loop and re-partition, and a `heavy` key whose partition stops
    /// shrinking and falls back to block-nested rounds.  The output must
    /// match the nested-loop reference as a multiset, measured must equal
    /// predicted exactly, and without overlap queues the whole pipeline
    /// must fit `M`.
    #[test]
    fn hash_join_matches_reference_and_cost_model(
        line_counts in prop::collection::vec(0usize..5, 8..120),
        sel in 0u64..=100,
        heavy in 0u64..=60,
        seed in any::<u64>(),
        sync in any::<bool>(),
        depth in 0usize..=2,
        wide in any::<bool>(),
    ) {
        let n_orders = line_counts.len() as u64;
        let keep_order = move |k: u64| {
            (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % 101 < sel
        };
        // Order 0 (kept whenever anything is) appears `1 + heavy` times.
        let copies = move |k: u64| if k == 0 { 1 + heavy } else { 1 };
        let mut orders: Vec<Row> = (0..n_orders)
            .flat_map(|k| (0..copies(k)).map(move |c| (k, k.wrapping_mul(7) + c)))
            .collect();
        shuffle(&mut orders, seed ^ 0xA5);
        let mut lineitem: Vec<Row> = Vec::new();
        for (k, &c) in line_counts.iter().enumerate() {
            for j in 0..c as u64 {
                lineitem.push((k as u64, k as u64 * 1000 + j));
            }
        }
        shuffle(&mut lineitem, seed);
        let f_cnt = orders.iter().filter(|r| keep_order(r.0)).count() as u64;
        let mut expect: Vec<Row> = lineitem
            .iter()
            .filter(|r| keep_order(r.0))
            .flat_map(|r| (0..copies(r.0)).map(|_| *r))
            .collect();
        expect.sort_unstable();
        let j_cnt = expect.len() as u64;
        let mode = if sync { IoMode::Synchronous } else { IoMode::Overlapped };
        let fan_out = 2usize;

        for (d, placement) in [(1usize, Placement::Independent), (2, Placement::Striped)] {
            let rows_per_block = if placement.is_striped() { d * 4 } else { 4 };
            // Eight blocks of memory: the grace pair loop gets a six-block
            // chunk, so builds past ~24·D records recurse at least once.
            // Sixteen hold builds of up to 13 blocks and spill larger ones.
            let m = if wide { 16 } else { 8 } * rows_per_block;
            let stripe = if placement.is_striped() { d as u64 } else { 1 };
            let sc = SortConfig::new(m).with_overlap(OverlapConfig::symmetric(depth));
            let cfg = ExecConfig { sort: sc };
            let device = DiskArray::new_ram_with(d, 64, placement, mode) as SharedDevice;
            let o_vec = ExtVec::from_slice(device.clone(), &orders).unwrap();
            let l_vec = ExtVec::from_slice(device.clone(), &lineitem).unwrap();
            let env = CostEnv::new(device.block_size(), m).with_stripe(stripe);

            let bh: KeyStats = Arc::new(
                orders
                    .iter()
                    .filter(|r| keep_order(r.0))
                    .map(|r| key_hash(r.0))
                    .collect(),
            );
            let ph: KeyStats = Arc::new(lineitem.iter().map(|r| key_hash(r.0)).collect());
            let plan = PlanExpr::scan(lineitem.len() as u64, ROW_BYTES, Order::Unordered)
                .hash_join(
                    PlanExpr::scan(orders.len() as u64, ROW_BYTES, Order::Unordered)
                        .filter(f_cnt),
                    bh,
                    ph,
                    fan_out,
                    false,
                    ROW_BYTES,
                    j_cnt,
                );
            let pred = predict_with_sink(&plan, &env);
            prop_assert!(pred.is_finite(), "{:?} d={} grace must always be feasible", placement, d);

            let (ios, mut got, out_writes) = {
                let root = MemBudget::new(usize::MAX);
                let _in = root.enter();
                let before = device.stats().snapshot();
                let scan_o = ScanExec::new(&o_vec);
                let mut build = FilterExec::new(scan_o, move |r: &Row| keep_order(r.0));
                let probe = ScanExec::new(&l_vec);
                let mut join = HashJoinExec::build(
                    &mut build,
                    probe,
                    &device,
                    &cfg,
                    fan_out,
                    false,
                    |b: &Row| b.0,
                    |p: &Row| p.0,
                    |_b: &Row, p: &Row| (p.0, p.1),
                )
                .unwrap();
                let out = collect(&mut join, &device).unwrap();
                let ios = device.stats().snapshot().since(&before);
                prop_assert!(depth > 0 || root.high_water() <= m,
                    "{:?} d={} M={} scans, join and sink held {} records",
                    placement, d, m, root.high_water());
                let (got, out_writes) = (out.to_vec().unwrap(), out.num_blocks() as u64 * stripe);
                out.free().unwrap();
                (ios, got, out_writes)
            };
            got.sort_unstable();
            prop_assert_eq!(&got, &expect, "{:?} d={} M={} join output wrong",
                placement, d, m);
            prop_assert_eq!(ios.total(), pred as u64,
                "{:?} d={} M={} join measured != predicted", placement, d, m);
            // Nothing is partitioned — the sink's blocks are the only writes —
            // if and only if the build side fit the residency `M − (F+1)·B`.
            let residency = (m - (fan_out + 1) * rows_per_block) as u64;
            prop_assert_eq!(ios.writes() == out_writes, f_cnt <= residency,
                "{:?} d={} M={} build of {} vs residency {}: {} writes, {} for the output",
                placement, d, m, f_cnt, residency, ios.writes(), out_writes);

            o_vec.free().unwrap();
            l_vec.free().unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary transient fault plans over the *hash* path: the hash
    /// aggregate and the grace join either complete with the correct answer
    /// or return a clean error — never a panic, never silently wrong output.
    #[test]
    fn faulty_device_hash_path_completes_or_errs_cleanly(
        data in prop::collection::vec((0u64..24, any::<u64>()), 0..400),
        seed in any::<u64>(),
        permille in 0usize..=120,
        attempts in 0usize..=3,
    ) {
        let plans = mk_plans(2, seed, permille as u64, 2);
        let retry = if attempts > 0 {
            RetryPolicy::new(attempts as u32)
        } else {
            RetryPolicy::none()
        };
        let device = DiskArray::new_ram_faulty(
            2, 64, Placement::Independent, IoMode::Synchronous, &plans, retry,
        ) as SharedDevice;

        let cfg = ExecConfig::new(16);
        let run = ExtVec::from_slice(device.clone(), &data).and_then(|input| {
            let scan = ScanExec::new(&input);
            let mut filt = FilterExec::new(scan, keep);
            let mut g = HashGroupByExec::build(
                &mut filt,
                &device,
                &cfg,
                2,
                |r: &Row| r.0,
                0u64,
                |acc: &mut u64, r: &Row| *acc = acc.wrapping_add(r.1),
                |k, acc, n| (k, acc, n),
            )?;
            collect(&mut g, &device)?.to_vec()
        });
        if let Ok(mut got) = run {
            got.sort_unstable();
            prop_assert_eq!(got, q1_reference(&data),
                "a completed hash aggregate must be correct");
        }

        // Grace join against a small dimension table: every probe key hits.
        let build_rows: Vec<Row> = (0..24u64).map(|k| (k, k.wrapping_mul(3))).collect();
        let cfg_j = ExecConfig::new(32);
        let run = ExtVec::from_slice(device.clone(), &data).and_then(|l_vec| {
            let b_vec = ExtVec::from_slice(device.clone(), &build_rows)?;
            let mut build = ScanExec::new(&b_vec);
            let probe = ScanExec::new(&l_vec);
            let mut join = HashJoinExec::build(
                &mut build,
                probe,
                &device,
                &cfg_j,
                2,
                false,
                |b: &Row| b.0,
                |p: &Row| p.0,
                |b: &Row, p: &Row| (p.0, p.1.wrapping_add(b.1)),
            )?;
            collect(&mut join, &device)?.to_vec()
        });
        if let Ok(mut got) = run {
            got.sort_unstable();
            let mut expect: Vec<Row> = data
                .iter()
                .map(|r| (r.0, r.1.wrapping_add(r.0.wrapping_mul(3))))
                .collect();
            expect.sort_unstable();
            prop_assert_eq!(got, expect, "a completed hash join must be correct");
        }
    }
}

/// Bytes per block of the batch tests: `B` = 16 rows.
const BATCH_BLOCK: usize = 256;
const BATCH_B: usize = BATCH_BLOCK / ROW_BYTES;

/// A stream that forwards to `inner` and records how it was pulled: the
/// batches asked for, and whether anything pulled it after its end (a
/// `None` or a short batch).
struct Watched<S> {
    inner: S,
    batches: u64,
    ended: bool,
    pulled_past_end: bool,
}

impl<S: QueryExec> Watched<S> {
    fn new(inner: S) -> Self {
        Watched {
            inner,
            batches: 0,
            ended: false,
            pulled_past_end: false,
        }
    }

    /// Drained to its end, by batches only, and never pulled past it.
    fn assert_drained_by_batches(&self, what: &str) {
        assert!(self.ended, "{what}: not drained");
        assert!(self.batches > 0, "{what}: not pulled by batches");
        assert!(!self.pulled_past_end, "{what}: pulled after its end");
    }
}

impl<S: QueryExec> QueryExec for Watched<S> {
    type Item = S::Item;

    fn try_next(&mut self) -> pdm::Result<Option<S::Item>> {
        self.pulled_past_end |= self.ended;
        let r = self.inner.try_next()?;
        self.ended |= r.is_none();
        Ok(r)
    }

    fn next_batch(&mut self, out: &mut Vec<S::Item>, max: usize) -> pdm::Result<usize> {
        self.pulled_past_end |= self.ended;
        self.batches += 1;
        let n = self.inner.next_batch(out, max)?;
        self.ended |= n < max;
        Ok(n)
    }

    fn order(&self) -> Order {
        self.inner.order()
    }

    fn drain_hint(&mut self, overlap: OverlapConfig) {
        self.inner.drain_hint(overlap)
    }

    fn overlap(&self) -> OverlapConfig {
        self.inner.overlap()
    }
}

/// `n` rows, a quarter of them failing [`keep`].
fn batch_rows(n: u64) -> Vec<Row> {
    (0..n)
        .map(|i| (key_hash(i) % 97, key_hash(i ^ 0x5555)))
        .collect()
}

/// `stream` drained at `overlap`: by `try_next` (`max = None`) or by
/// `next_batch(max)` until its first short batch.  The records, and the
/// transfers the drain cost.
fn drain_by(
    stream: &mut dyn QueryExec<Item = Row>,
    device: &SharedDevice,
    overlap: OverlapConfig,
    max: Option<usize>,
) -> (Vec<Row>, pdm::IoSnapshot) {
    let before = device.stats().snapshot();
    stream.drain_hint(overlap);
    let mut out = Vec::new();
    match max {
        None => {
            while let Some(r) = stream.try_next().unwrap() {
                out.push(r);
            }
        }
        Some(max) => while stream.next_batch(&mut out, max).unwrap() == max {},
    }
    (out, device.stats().snapshot().since(&before))
}

/// Every `next_batch` override is `try_next` in a loop: at batch sizes
/// `1..=2B`, on a synchronous one-disk array and on two overlapped disks
/// reading ahead, a scan, a filter over one, and either behind `&mut`
/// deliver `try_next`'s records in order with its reads and writes, and
/// leave no read-ahead unconsumed.
#[test]
fn next_batch_is_try_next_a_block_at_a_time() {
    let rows = batch_rows(1000); // 62 full blocks and a partial one
    let arrays = [
        (1, IoMode::Synchronous, OverlapConfig::off()),
        (2, IoMode::Overlapped, OverlapConfig::symmetric(2)),
    ];
    for (d, mode, overlap) in arrays {
        let device =
            DiskArray::new_ram_with(d, BATCH_BLOCK, Placement::Independent, mode) as SharedDevice;
        let input = ExtVec::from_slice(device.clone(), &rows).unwrap();
        type Make<'a> = Box<dyn Fn(Option<usize>) -> (Vec<Row>, pdm::IoSnapshot) + 'a>;
        let drained = |s: &mut dyn QueryExec<Item = Row>, max| drain_by(s, &device, overlap, max);
        let streams: [(&str, Make); 4] = [
            (
                "scan",
                Box::new(|max| drained(&mut ScanExec::new(&input), max)),
            ),
            (
                "filter",
                Box::new(|max| drained(&mut FilterExec::new(ScanExec::new(&input), keep), max)),
            ),
            (
                "&mut scan",
                Box::new(|max| drained(&mut &mut ScanExec::new(&input), max)),
            ),
            (
                "&mut filter",
                Box::new(|max| {
                    let mut filter = FilterExec::new(ScanExec::new(&input), keep);
                    drained(&mut &mut filter, max)
                }),
            ),
        ];
        for (name, drain) in &streams {
            let (expect, by_row) = drain(None);
            let kept: Vec<Row> = rows.iter().copied().filter(keep).collect();
            assert_eq!(&expect, if name.ends_with("scan") { &rows } else { &kept });
            assert_eq!(by_row.reads(), input.num_blocks() as u64, "{name}");
            for max in 1..=2 * BATCH_B {
                let case = format!("{name}, D = {d}, max {max}");
                let (got, by_batch) = drain(Some(max));
                assert_eq!(got, expect, "{case}");
                assert_eq!(
                    (by_batch.reads(), by_batch.writes()),
                    (by_row.reads(), by_row.writes()),
                    "{case}"
                );
                assert_eq!(by_batch.prefetched(), by_row.prefetched(), "{case}");
                assert_eq!(by_batch.prefetch_wasted(), 0, "{case}");
            }
        }
    }
}

/// A read that fails mid-scan is an `Err` from `next_batch`, with the
/// records of the blocks before it delivered — filtered, behind a filter —
/// exactly as `try_next` delivers them before its `Err`.
#[test]
fn next_batch_keeps_the_blocks_before_a_read_error() {
    let rows = batch_rows(200);
    let blocks = rows.len().div_ceil(BATCH_B) as u64;
    let good = 3; // blocks read before the crash
                  // The input's writes burn the fuse too: the read of block `good` fails.
    let device = || {
        let plan = FaultPlan::new(1).with_crash(pdm::CrashSwitch::after(blocks + good));
        let d = DiskArray::new_ram_faulty(
            1,
            BATCH_BLOCK,
            Placement::Independent,
            IoMode::Synchronous,
            &[plan],
            RetryPolicy::none(),
        ) as SharedDevice;
        let input = ExtVec::from_slice(d.clone(), &rows).unwrap();
        (d, input)
    };
    let earlier = &rows[..good as usize * BATCH_B];
    for filtered in [false, true] {
        let expect: Vec<Row> = earlier
            .iter()
            .copied()
            .filter(|r| !filtered || keep(r))
            .collect();
        let pull = |s: &mut dyn QueryExec<Item = Row>, max: Option<usize>| {
            let mut out = Vec::new();
            let err = match max {
                None => loop {
                    match s.try_next() {
                        Ok(Some(r)) => out.push(r),
                        Ok(None) => break None,
                        Err(e) => break Some(e),
                    }
                },
                Some(max) => loop {
                    match s.next_batch(&mut out, max) {
                        Ok(n) if n == max => {}
                        Ok(_) => break None,
                        Err(e) => break Some(e),
                    }
                },
            };
            (out, err)
        };
        for max in [None, Some(BATCH_B), Some(2 * BATCH_B + 5), Some(rows.len())] {
            let (_d, input) = device();
            let (got, err) = if filtered {
                pull(&mut FilterExec::new(ScanExec::new(&input), keep), max)
            } else {
                pull(&mut ScanExec::new(&input), max)
            };
            let case = format!("filtered {filtered}, max {max:?}");
            assert!(err.is_some(), "{case}: the failed read must surface");
            assert_eq!(got, expect, "{case}");
        }
    }
}

/// Every consumer that drains by batches stops at the first short one: a
/// hash join's build side, a hash group-by's child, a pushed sort's input
/// and `collect`'s root are each drained whole, by batches, and never
/// pulled again.  (`the_probe_is_never_pulled_past_its_end`, in `emrel`,
/// checks the probe side.)
#[test]
fn no_drained_stream_is_pulled_past_its_first_short_batch() {
    let rows = batch_rows(3000);
    let kept: Vec<Row> = rows.iter().copied().filter(keep).collect();
    for (mode, overlap) in [
        (IoMode::Synchronous, OverlapConfig::off()),
        (IoMode::Overlapped, OverlapConfig::symmetric(2)),
    ] {
        let device =
            DiskArray::new_ram_with(2, BATCH_BLOCK, Placement::Independent, mode) as SharedDevice;
        let input = ExtVec::from_slice(device.clone(), &rows).unwrap();
        let cfg = ExecConfig {
            sort: SortConfig::new(16 * BATCH_B).with_overlap(overlap),
        };
        let watched = || Watched::new(FilterExec::new(ScanExec::new(&input), keep));
        let before = device.stats().snapshot();

        let mut root = watched();
        let out = collect(&mut root, &device).unwrap();
        root.assert_drained_by_batches("collect");
        assert_eq!(out.to_vec().unwrap(), kept);

        let mut child = watched();
        let mut g = HashGroupByExec::build(
            &mut child,
            &device,
            &cfg,
            4,
            |r: &Row| r.0,
            0u64,
            |acc: &mut u64, r: &Row| *acc = acc.wrapping_add(r.1),
            |k, acc, n| (k, acc, n),
        )
        .unwrap();
        child.assert_drained_by_batches("hash group-by");
        let mut groups = collect(&mut g, &device).unwrap().to_vec().unwrap();
        groups.sort_unstable();
        assert_eq!(groups, q1_reference(&rows));

        let mut sorted_input = watched();
        let sorted = sort_pipe(&mut sorted_input, &device, &cfg, KEY, less, |s| {
            collect(s, &device)?.to_vec()
        })
        .unwrap();
        sorted_input.assert_drained_by_batches("sort_pipe");
        let mut expect = kept.clone();
        expect.sort_by_key(|r| r.0);
        assert_eq!(sorted, expect);

        // A build side past the residency spills; one within it does not.
        for build_rows in [rows.len(), 200] {
            let build_side = ExtVec::from_slice(device.clone(), &rows[..build_rows]).unwrap();
            let mut build = Watched::new(FilterExec::new(ScanExec::new(&build_side), keep));
            let mut j = HashJoinExec::build(
                &mut build,
                ScanExec::new(&input),
                &device,
                &cfg,
                4,
                false,
                |b: &Row| b.1,
                |p: &Row| p.1,
                |_: &Row, p: &Row| *p,
            )
            .unwrap();
            build.assert_drained_by_batches("hash join build side");
            let mut joined = collect(&mut j, &device).unwrap().to_vec().unwrap();
            joined.sort_unstable();
            let mut expect: Vec<Row> = rows[..build_rows].iter().copied().filter(keep).collect();
            expect.sort_unstable();
            assert_eq!(joined, expect, "{build_rows} build rows");
        }
        let io = device.stats().snapshot().since(&before);
        assert_eq!(io.prefetch_wasted(), 0);
    }
}
