//! Transfer-count and wall-clock benchmark for the Volcano query engine:
//! predicted vs measured cost per plan cell and the planner's choice, under
//! synchronous and overlapped I/O at `D ∈ {1, 4}`.
//!
//! Three TPC-H-flavoured queries over generated relations, each racing the
//! sort-based operators against their hash duals:
//!
//! * **Q1-lite** — the classic aggregate over a selection, as
//!   `GroupBy(Sort(Filter(Scan)))` and as
//!   `HashGroupBy(Filter(Scan))` — the group keys fit the hybrid table, so
//!   the hash aggregate never touches the disk and wins outright.
//! * **Q3-lite** — `GroupBy(Join(Filter(Scan orders), Scan lineitem))` with
//!   orders *clustered on the key*: a merge join with an elided orders sort,
//!   two in-memory build variants (one infeasible — the planner must reject
//!   it), and a grace hash join.  With clustering to exploit, the grace join
//!   loses; the planner must pick the measured-cheapest sort-or-memory plan.
//!   (A planning-only Q1 variant over pre-sorted input shows the sort-elision
//!   crossover: there the elided sort beats the hash aggregate on the
//!   tie-break.)
//! * **Q3u** — the same join with orders *shuffled*, at a smaller memory
//!   budget: the merge join now pays a multi-pass sort on each side while
//!   grace partitions once, so the hash join must win by ≥ 1.5×.  A hybrid
//!   candidate whose resident bucket cannot fit is priced at ∞.
//!
//! Every cell reports *predicted* transfers from the `emrel::plan` cost
//! model next to the measured count.  The model replays the engine's actual
//! merge schedule and partition recursion (hash costs are priced from the
//! streams' key hashes) and is fed exact cardinalities, so the documented
//! slack is **zero**: predicted must equal measured, and the run asserts
//! exactly that.  Further guards: identical canonicalized outputs across
//! every cell of a query, I/O mode never changing a count, and each
//! regime's planner choice being the measured-cheapest feasible plan.
//!
//! ```text
//! cargo run --release -p bench --bin bench_query [-- --smoke]
//! ```
//!
//! Results go to stdout as markdown tables and to `BENCH_query.json`
//! (archived as a CI artifact alongside the other `BENCH_*.json` files).

use std::sync::Arc;
use std::time::Instant;

use em_core::ExtVec;
use emrel::{
    choose, collect, predict_with_sink, sort_pipe, sort_scan, CostEnv, ExecConfig, FilterExec,
    GroupByExec, HashGroupByExec, HashJoinExec, KeyStats, MergeJoinExec, Order, PlanExpr,
    ProjectExec, QueryExec, ScanExec, TinyBuildJoinExec,
};
use emsort::{OverlapConfig, SortConfig};
use pdm::{DiskArray, IoMode, Placement, SharedDevice};

/// Bytes per physical block (one member disk's transfer unit).
const PHYS_BLOCK: usize = 1024;
/// Records of internal memory (`M`) shared by sorts, join buffers, and the
/// planner's feasibility checks — small relative to the relations so sorts
/// actually merge and the all-of-lineitem build side is infeasible.
const MEM_RECORDS: usize = 4096;
/// Read-ahead / write-behind depth for the overlapped runs.
const DEPTH: usize = 2;
/// Simulated device service time per block transfer, in microseconds.
const SERVICE_US: u64 = 100;
/// Measured passes per cell; the median wall time is reported.
const TRIALS: usize = 3;
const SMOKE_TRIALS: usize = 1;

const KEY: u32 = 1;
const ROW_BYTES: usize = 16;
const GRP_BYTES: usize = 24;
/// Distinct group keys in the Q1 relation.
const Q1_GROUPS: u64 = 1024;
/// Order-selectivity of the Q3 filter, in percent.
const Q3_SEL: u64 = 15;
/// Partition fan-out of the Q1 hash aggregate: the hybrid table keeps
/// `M − (F+1)·B` records, comfortably above `Q1_GROUPS` — every group is
/// resident and the aggregate costs zero transfers of its own.
const Q1_FAN_OUT: usize = 31;
/// Partition fan-out of the clustered-regime grace join (`M = MEM_RECORDS`).
const Q3_FAN_OUT: usize = 15;

/// Full-run workload sizes.
const FULL_ROWS: u64 = 150_000;
const FULL_ORDERS: u64 = 20_000;
/// `--smoke` workload: same invariants, CI-sized.
const SMOKE_ROWS: u64 = 30_000;
const SMOKE_ORDERS: u64 = 4_000;

/// `(group key, value)` rows and `(key, wrapping sum, count)` aggregates.
type Row = (u64, u64);
type Grp = (u64, u64, u64);

fn lcg(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 11
}

fn keep(r: &Row) -> bool {
    !r.1.is_multiple_of(4)
}

fn less(a: &Row, b: &Row) -> bool {
    a.0 < b.0
}

/// Q3's order predicate.  The highest key is kept unconditionally so the
/// merge join drains its lineitem side completely — the cost model prices
/// fully drained streams.
fn keep_order(k: u64, n_orders: u64) -> bool {
    k == n_orders - 1 || (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % 100 < Q3_SEL
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bench-query-{tag}-{}", std::process::id()));
    p
}

fn device_for(tag: &str, d: usize, mode: IoMode) -> (SharedDevice, std::path::PathBuf) {
    let dir = tmpdir(tag);
    let arr = DiskArray::new_file_with_service(
        &dir,
        d,
        PHYS_BLOCK,
        Placement::Independent,
        mode,
        std::time::Duration::from_micros(SERVICE_US),
    )
    .expect("create disk array");
    (arr as SharedDevice, dir)
}

fn exec_config(mode: IoMode, mem_records: usize) -> ExecConfig {
    let overlap = match mode {
        IoMode::Synchronous => OverlapConfig::off(),
        IoMode::Overlapped => OverlapConfig::symmetric(DEPTH),
    };
    ExecConfig::from_sort(SortConfig::new(mem_records).with_overlap(overlap))
}

/// The level-0 hash the executors use for `u64` keys — the planner's
/// [`KeyStats`] must be built with the same function.
fn key_hash(k: u64) -> u64 {
    em_core::hash::hash_bytes(&k.to_le_bytes())
}

fn group_collect(
    s: &mut dyn QueryExec<Item = Row>,
    device: &SharedDevice,
) -> pdm::Result<ExtVec<Grp>> {
    let mut g = GroupByExec::new(
        s,
        |r: &Row| r.0,
        0u64,
        |acc: &mut u64, r: &Row| *acc = acc.wrapping_add(r.1),
        |k, acc, n| (k, acc, n),
        Order::Key(KEY),
    );
    collect(&mut g, device)
}

/// One measured cell.
struct Cell {
    query: &'static str,
    variant: String,
    /// Operator family the plan leans on: `"sort"`, `"hash"`, or `"memory"`.
    strategy: &'static str,
    d: usize,
    mode: &'static str,
    predicted: u64,
    reads: u64,
    writes: u64,
    partition_passes: u64,
    partition_spilled_blocks: u64,
    secs: f64,
    output: Vec<Grp>,
    trials: usize,
}

impl Cell {
    fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Output rows in a strategy-independent order, for cross-cell equality.
    fn canonical_output(&self) -> Vec<Grp> {
        let mut v = self.output.clone();
        v.sort_unstable();
        v
    }
}

/// One (query, plan, D, mode) cell's identity plus its predicted price.
struct Spec {
    query: &'static str,
    variant: String,
    strategy: &'static str,
    d: usize,
    mode: IoMode,
    predicted: u64,
    trials: usize,
}

/// Run `build` + `run` `trials` times on fresh devices: `build` loads the
/// input relations (outside the measured window — the model prices query
/// execution, not data generation), `run` executes the query.  Transfer
/// counts and outputs must repeat exactly (the pipelines are
/// deterministic); the median wall time is kept.
fn run_cell<I, FB, FR>(spec: Spec, build: FB, run: FR) -> Cell
where
    FB: Fn(&SharedDevice) -> I,
    FR: Fn(&I, &SharedDevice) -> ExtVec<Grp>,
{
    let Spec {
        query,
        variant,
        strategy,
        d,
        mode,
        predicted,
        trials,
    } = spec;
    let mode_label = match mode {
        IoMode::Synchronous => "sync",
        IoMode::Overlapped => "overlapped",
    };
    type Trial = (f64, u64, u64, u64, u64, Vec<Grp>);
    let mut measured: Vec<Trial> = Vec::with_capacity(trials);
    for trial in 0..trials {
        let (device, dir) = device_for(&format!("{query}-{variant}-{mode_label}-d{d}"), d, mode);
        let input = build(&device);
        let before = device.stats().snapshot();
        let start = Instant::now();
        let out = run(&input, &device);
        let secs = start.elapsed().as_secs_f64();
        let delta = device.stats().snapshot().since(&before);
        let output = out.to_vec().expect("read output");
        drop(device);
        std::fs::remove_dir_all(&dir).ok();
        if let Some((_, r, w, _, _, o)) = measured.first() {
            assert_eq!(
                (*r, *w),
                (delta.reads(), delta.writes()),
                "{query} {variant} d={d} {mode_label} trial {trial}: counts not reproducible"
            );
            assert_eq!(
                o, &output,
                "{query} {variant} trial {trial}: output not reproducible"
            );
        }
        measured.push((
            secs,
            delta.reads(),
            delta.writes(),
            delta.partition_passes(),
            delta.partition_spilled_blocks(),
            output,
        ));
    }
    measured.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    let (secs, reads, writes, partition_passes, partition_spilled_blocks, output) =
        measured.swap_remove(trials / 2);
    Cell {
        query,
        variant,
        strategy,
        d,
        mode: mode_label,
        predicted,
        reads,
        writes,
        partition_passes,
        partition_spilled_blocks,
        secs,
        output,
        trials,
    }
}

fn json_rows(cells: &[Cell]) -> Vec<String> {
    cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"query\": \"{}\", \"variant\": \"{}\", \"strategy\": \"{}\", \
                 \"d\": {}, \"mode\": \"{}\", \
                 \"predicted_transfers\": {}, \"reads\": {}, \"writes\": {}, \
                 \"measured_transfers\": {}, \"measured_over_predicted\": {:.4}, \
                 \"partition_passes\": {}, \"partition_spilled_blocks\": {}, \
                 \"wall_seconds\": {:.6}, \"trials\": {}}}",
                c.query,
                c.variant,
                c.strategy,
                c.d,
                c.mode,
                c.predicted,
                c.reads,
                c.writes,
                c.total(),
                c.total() as f64 / c.predicted as f64,
                c.partition_passes,
                c.partition_spilled_blocks,
                c.secs,
                c.trials
            )
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let (rows_n, orders_n, trials) = if smoke {
        (SMOKE_ROWS, SMOKE_ORDERS, SMOKE_TRIALS)
    } else {
        (FULL_ROWS, FULL_ORDERS, TRIALS)
    };

    println!("# Query engine: predicted vs measured transfers");
    println!(
        "\nQ1 rows = {rows_n}, Q3 orders = {orders_n}, M = {MEM_RECORDS} records, \
         physical block = {PHYS_BLOCK} B, independent placement, overlap depth = {DEPTH}, \
         service time = {SERVICE_US} µs/transfer, median of {trials} trials\n"
    );

    // Independent placement: one transfer per logical block regardless of D,
    // so the cost environment is D-invariant (D moves wall time, not counts).
    let env = CostEnv::new(PHYS_BLOCK, MEM_RECORDS);

    // ---- Q1-lite: GroupBy(Sort(Filter(Scan))) -----------------------------
    let mut seed = 0x51u64;
    let q1_rows: Vec<Row> = (0..rows_n)
        .map(|_| (lcg(&mut seed) % Q1_GROUPS, lcg(&mut seed)))
        .collect();
    let q1_f = q1_rows.iter().filter(|r| keep(r)).count() as u64;
    let q1_g = {
        let mut keys: Vec<u64> = q1_rows.iter().filter(|r| keep(r)).map(|r| r.0).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len() as u64
    };
    let q1_plan = PlanExpr::scan(rows_n, ROW_BYTES, Order::Unordered)
        .filter(q1_f)
        .sort(KEY)
        .group_by(KEY, GRP_BYTES, q1_g, Order::Key(KEY));
    // Arrival-ordered key hashes of the filtered stream — the statistic the
    // hash aggregate's exact replay consumes.
    let q1_hashes: KeyStats = Arc::new(
        q1_rows
            .iter()
            .filter(|r| keep(r))
            .map(|r| key_hash(r.0))
            .collect(),
    );
    let q1_hash_plan = PlanExpr::scan(rows_n, ROW_BYTES, Order::Unordered)
        .filter(q1_f)
        .hash_group_by(q1_hashes.clone(), Q1_FAN_OUT, GRP_BYTES, q1_g);

    // Planner, regime 1 — unsorted input: the hash aggregate (whose groups
    // all fit the hybrid table) must beat sorting the relation.
    let q1_choice = choose(&[q1_plan.clone(), q1_hash_plan.clone()], &env);
    println!(
        "planner: Q1 unsorted input predicted {:?}, chose `{}`",
        q1_choice.predicted,
        ["sort", "hash"][q1_choice.best.expect("q1 feasible")]
    );
    assert_eq!(q1_choice.best, Some(1), "unsorted Q1: hash must win");
    // Planner, regime 2 — the same relation clustered on the group key: the
    // elided sort is free, so sort-based grouping must win back (on a tie
    // the earlier, simpler candidate is preferred).
    let q1_sorted_hashes: KeyStats = {
        let mut keys: Vec<u64> = q1_rows.iter().filter(|r| keep(r)).map(|r| r.0).collect();
        keys.sort_unstable();
        Arc::new(keys.into_iter().map(key_hash).collect())
    };
    let sorted_scan = || PlanExpr::scan(rows_n, ROW_BYTES, Order::Key(KEY)).filter(q1_f);
    let q1_sorted_choice = choose(
        &[
            sorted_scan()
                .sort(KEY)
                .group_by(KEY, GRP_BYTES, q1_g, Order::Key(KEY)),
            sorted_scan().hash_group_by(q1_sorted_hashes, Q1_FAN_OUT, GRP_BYTES, q1_g),
        ],
        &env,
    );
    println!(
        "planner: Q1 pre-sorted input predicted {:?}, chose `{}`\n",
        q1_sorted_choice.predicted,
        ["sort-elision", "hash"][q1_sorted_choice.best.expect("q1 sorted feasible")]
    );
    assert_eq!(
        q1_sorted_choice.best,
        Some(0),
        "pre-sorted Q1: sort-elision must win"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for d in [1usize, 4] {
        for mode in [IoMode::Synchronous, IoMode::Overlapped] {
            let predicted = predict_with_sink(&q1_plan, &env) as u64;
            let cfg = exec_config(mode, MEM_RECORDS);
            let rows = &q1_rows;
            cells.push(run_cell(
                Spec {
                    query: "q1",
                    variant: "fused".to_string(),
                    strategy: "sort",
                    d,
                    mode,
                    predicted,
                    trials,
                },
                move |device: &SharedDevice| {
                    ExtVec::from_slice(device.clone(), rows).expect("load")
                },
                move |input, device| {
                    let scan = ScanExec::new(input);
                    let mut filt = FilterExec::new(scan, keep);
                    sort_pipe(&mut filt, device, &cfg, KEY, less, |s| {
                        group_collect(s, device)
                    })
                    .expect("q1")
                },
            ));
            let predicted = predict_with_sink(&q1_hash_plan, &env) as u64;
            cells.push(run_cell(
                Spec {
                    query: "q1",
                    variant: "hash".to_string(),
                    strategy: "hash",
                    d,
                    mode,
                    predicted,
                    trials,
                },
                move |device: &SharedDevice| {
                    ExtVec::from_slice(device.clone(), rows).expect("load")
                },
                move |input, device| {
                    let scan = ScanExec::new(input);
                    let mut filt = FilterExec::new(scan, keep);
                    let mut g = HashGroupByExec::build(
                        &mut filt,
                        device,
                        &cfg,
                        Q1_FAN_OUT,
                        |r: &Row| r.0,
                        0u64,
                        |acc: &mut u64, r: &Row| *acc = acc.wrapping_add(r.1),
                        |k, acc, n| (k, acc, n),
                    )
                    .expect("q1 hash build");
                    collect(&mut g, device).expect("q1 hash")
                },
            ));
        }
    }

    // ---- Q3-lite: GroupBy(Join(Filter(orders), lineitem)) -----------------
    let orders: Vec<Row> = (0..orders_n).map(|k| (k, k * 7)).collect();
    let mut lineitem: Vec<Row> = Vec::new();
    let mut seed = 0x53u64;
    // Up to 31 lines per order: lineitem is large enough relative to the
    // Q3u budget that its sort needs three merge passes (runs > fan_in²)
    // while the grace join still partitions it exactly once — probe buckets
    // stream through the pair loop no matter how large they are.
    for k in 0..orders_n {
        for j in 0..lcg(&mut seed) % 32 {
            lineitem.push((k, k * 1000 + j));
        }
    }
    // Deterministic Fisher–Yates: lineitem arrives in no useful order.
    for i in (1..lineitem.len()).rev() {
        let j = lcg(&mut seed) as usize % (i + 1);
        lineitem.swap(i, j);
    }
    let lines_n = lineitem.len() as u64;
    let mut per_order = vec![0u64; orders_n as usize];
    for r in &lineitem {
        per_order[r.0 as usize] += 1;
    }
    let q3_f = (0..orders_n).filter(|&k| keep_order(k, orders_n)).count() as u64;
    let q3_j: u64 = (0..orders_n)
        .filter(|&k| keep_order(k, orders_n))
        .map(|k| per_order[k as usize])
        .sum();
    let q3_g = (0..orders_n)
        .filter(|&k| keep_order(k, orders_n) && per_order[k as usize] > 0)
        .count() as u64;

    // Key-hash statistics for the hash-join candidates, in arrival order of
    // each stream: the filtered orders (build) and lineitem (probe).
    let bh: KeyStats = Arc::new(
        orders
            .iter()
            .filter(|r| keep_order(r.0, orders_n))
            .map(|r| key_hash(r.0))
            .collect(),
    );
    let ph: KeyStats = Arc::new(lineitem.iter().map(|r| key_hash(r.0)).collect());

    let scan_o = || PlanExpr::scan(orders_n, ROW_BYTES, Order::Key(KEY));
    let scan_l = || PlanExpr::scan(lines_n, ROW_BYTES, Order::Unordered);
    let candidates = [
        scan_o()
            .filter(q3_f)
            .sort(KEY)
            .merge_join(scan_l().sort(KEY), KEY, ROW_BYTES, q3_j)
            .group_by(KEY, GRP_BYTES, q3_g, Order::Key(KEY)),
        scan_l()
            .tiny_join(scan_o().filter(q3_f), ROW_BYTES, q3_j)
            .sort(KEY)
            .group_by(KEY, GRP_BYTES, q3_g, Order::Key(KEY)),
        scan_o()
            .filter(q3_f)
            .tiny_join(scan_l(), ROW_BYTES, q3_j)
            .group_by(KEY, GRP_BYTES, q3_g, Order::Key(KEY)),
        scan_l()
            .hash_join(
                scan_o().filter(q3_f),
                bh.clone(),
                ph.clone(),
                Q3_FAN_OUT,
                false,
                ROW_BYTES,
                q3_j,
            )
            .sort(KEY)
            .group_by(KEY, GRP_BYTES, q3_g, Order::Key(KEY)),
    ];
    let plan_names = [
        "merge-join",
        "tiny-build-orders",
        "tiny-build-lineitem",
        "grace-hash",
    ];
    let strategies = ["sort", "memory", "memory", "hash"];
    let choice = choose(&candidates, &env);
    let best = choice.best.expect("the merge-join plan is always feasible");
    println!(
        "planner: Q3 candidates predicted {:?}, chose `{}`\n",
        choice.predicted, plan_names[best]
    );
    assert!(
        !choice.predicted[2].is_finite(),
        "the all-of-lineitem build side must be infeasible at this scale"
    );
    assert!(
        choice.predicted[3].is_finite(),
        "the grace join must be feasible (it loses here, but runs)"
    );

    for d in [1usize, 4] {
        for mode in [IoMode::Synchronous, IoMode::Overlapped] {
            for (i, pred) in choice.predicted.iter().enumerate() {
                if !pred.is_finite() {
                    continue;
                }
                let cfg = exec_config(mode, MEM_RECORDS);
                let (orders, lineitem) = (&orders, &lineitem);
                cells.push(run_cell(
                    Spec {
                        query: "q3",
                        variant: plan_names[i].to_string(),
                        strategy: strategies[i],
                        d,
                        mode,
                        predicted: *pred as u64,
                        trials,
                    },
                    move |device: &SharedDevice| {
                        let o_vec = ExtVec::from_slice(device.clone(), orders).expect("load");
                        let l_vec = ExtVec::from_slice(device.clone(), lineitem).expect("load");
                        (o_vec, l_vec)
                    },
                    move |(o_vec, l_vec), device| {
                        let pred_o = |r: &Row| keep_order(r.0, orders_n);
                        let out = match i {
                            0 => sort_scan(l_vec, Order::Unordered, &cfg, KEY, less, |rs| {
                                let left = FilterExec::new(
                                    ScanExec::with_order(o_vec, Order::Key(KEY)),
                                    pred_o,
                                );
                                let mut join = MergeJoinExec::new(
                                    left,
                                    rs,
                                    |l: &Row| l.0,
                                    |r: &Row| r.0,
                                    |l: &Row, r: &Row| (l.0, r.1),
                                    MEM_RECORDS,
                                );
                                group_collect(&mut join, device)
                            })
                            .expect("q3 merge join"),
                            3 => {
                                let mut build = FilterExec::new(
                                    ScanExec::with_order(o_vec, Order::Key(KEY)),
                                    pred_o,
                                );
                                let probe = ScanExec::new(l_vec);
                                let mut join = HashJoinExec::build(
                                    &mut build,
                                    probe,
                                    device,
                                    &cfg,
                                    Q3_FAN_OUT,
                                    false,
                                    |b: &Row| b.0,
                                    |p: &Row| p.0,
                                    |_b: &Row, p: &Row| (p.0, p.1),
                                )
                                .expect("q3 grace build");
                                sort_pipe(&mut join, device, &cfg, KEY, less, |s| {
                                    group_collect(s, device)
                                })
                                .expect("q3 grace")
                            }
                            _ => {
                                let mut build = FilterExec::new(
                                    ScanExec::with_order(o_vec, Order::Key(KEY)),
                                    pred_o,
                                );
                                let probe = ScanExec::new(l_vec);
                                let mut join: TinyBuildJoinExec<_, u64, Row, _, _, Row> =
                                    TinyBuildJoinExec::build(
                                        &mut build,
                                        probe,
                                        |b: &Row| b.0,
                                        |p: &Row| p.0,
                                        |p: &Row, _b: &Row| (p.0, p.1),
                                        MEM_RECORDS,
                                    )
                                    .expect("build side fits");
                                sort_pipe(&mut join, device, &cfg, KEY, less, |s| {
                                    group_collect(s, device)
                                })
                                .expect("q3 tiny join")
                            }
                        };
                        out
                    },
                ));
            }
        }
    }

    // ---- Q3u: the same join, orders shuffled, tighter memory --------------
    // With no clustering to exploit, the merge join pays multi-pass sorts on
    // both sides while grace partitions each side once — the regime where
    // hashing beats sorting.  A hybrid candidate is priced too: at this
    // budget `M − (F+1)·(B_build + B_probe) = 0` records stay resident, so
    // its level-0 bucket cannot fit and the model prices it at ∞.
    let (m_q3u, q3u_fan) = if smoke { (512usize, 3usize) } else { (1024, 7) };
    let env_u = CostEnv::new(PHYS_BLOCK, m_q3u);
    let mut orders_u = orders.clone();
    let mut seed = 0x54u64;
    for i in (1..orders_u.len()).rev() {
        let j = lcg(&mut seed) as usize % (i + 1);
        orders_u.swap(i, j);
    }
    let bh_u: KeyStats = Arc::new(
        orders_u
            .iter()
            .filter(|r| keep_order(r.0, orders_n))
            .map(|r| key_hash(r.0))
            .collect(),
    );
    let scan_ou = || PlanExpr::scan(orders_n, ROW_BYTES, Order::Unordered);
    let q3u_cands = [
        scan_ou()
            .filter(q3_f)
            .sort(KEY)
            .merge_join(scan_l().sort(KEY), KEY, ROW_BYTES, q3_j)
            .project(GRP_BYTES, Order::Unordered),
        scan_l()
            .hash_join(
                scan_ou().filter(q3_f),
                bh_u.clone(),
                ph.clone(),
                q3u_fan,
                false,
                ROW_BYTES,
                q3_j,
            )
            .project(GRP_BYTES, Order::Unordered),
        scan_l()
            .hash_join(
                scan_ou().filter(q3_f),
                bh_u.clone(),
                ph.clone(),
                q3u_fan,
                true,
                ROW_BYTES,
                q3_j,
            )
            .project(GRP_BYTES, Order::Unordered),
    ];
    let q3u_names = ["sort-merge", "grace-hash", "hybrid-hash"];
    let q3u_strategies = ["sort", "hash", "hash"];
    let q3u_choice = choose(&q3u_cands, &env_u);
    let q3u_best = q3u_choice.best.expect("the grace join is always feasible");
    println!(
        "planner: Q3u (shuffled orders, M = {m_q3u}) candidates predicted {:?}, chose `{}`\n",
        q3u_choice.predicted, q3u_names[q3u_best]
    );
    assert_eq!(q3u_best, 1, "unsorted Q3: the grace join must win");
    assert!(
        !q3u_choice.predicted[2].is_finite(),
        "the hybrid's resident bucket cannot fit at M = {m_q3u}: must price at ∞"
    );

    for d in [1usize, 4] {
        for mode in [IoMode::Synchronous, IoMode::Overlapped] {
            for (i, pred) in q3u_choice.predicted.iter().enumerate() {
                if !pred.is_finite() {
                    continue;
                }
                let cfg = exec_config(mode, m_q3u);
                let (orders_u, lineitem) = (&orders_u, &lineitem);
                cells.push(run_cell(
                    Spec {
                        query: "q3u",
                        variant: q3u_names[i].to_string(),
                        strategy: q3u_strategies[i],
                        d,
                        mode,
                        predicted: *pred as u64,
                        trials,
                    },
                    move |device: &SharedDevice| {
                        let o_vec = ExtVec::from_slice(device.clone(), orders_u).expect("load");
                        let l_vec = ExtVec::from_slice(device.clone(), lineitem).expect("load");
                        (o_vec, l_vec)
                    },
                    move |(o_vec, l_vec), device| {
                        let pred_o = |r: &Row| keep_order(r.0, orders_n);
                        // Join rows padded to `Grp` so every cell shares one
                        // output type; the canonicalized-equality guard
                        // compares them across strategies.
                        let pad = |r: &Row| Some((r.0, r.1, 0u64));
                        match i {
                            0 => sort_scan(l_vec, Order::Unordered, &cfg, KEY, less, |rs| {
                                let mut fo = FilterExec::new(ScanExec::new(o_vec), pred_o);
                                sort_pipe(&mut fo, device, &cfg, KEY, less, |os| {
                                    let join = MergeJoinExec::new(
                                        os,
                                        rs,
                                        |l: &Row| l.0,
                                        |r: &Row| r.0,
                                        |l: &Row, r: &Row| (l.0, r.1),
                                        m_q3u,
                                    );
                                    let mut proj: ProjectExec<_, _, Grp> =
                                        ProjectExec::new(join, pad, Order::Unordered);
                                    collect(&mut proj, device)
                                })
                            })
                            .expect("q3u sort-merge"),
                            _ => {
                                let mut build = FilterExec::new(ScanExec::new(o_vec), pred_o);
                                let probe = ScanExec::new(l_vec);
                                let join = HashJoinExec::build(
                                    &mut build,
                                    probe,
                                    device,
                                    &cfg,
                                    q3u_fan,
                                    false,
                                    |b: &Row| b.0,
                                    |p: &Row| p.0,
                                    |_b: &Row, p: &Row| (p.0, p.1),
                                )
                                .expect("q3u grace build");
                                let mut proj: ProjectExec<_, _, Grp> =
                                    ProjectExec::new(join, pad, Order::Unordered);
                                collect(&mut proj, device).expect("q3u grace")
                            }
                        }
                    },
                ));
            }
        }
    }

    // ---- Report -----------------------------------------------------------
    println!(
        "| query | plan | strategy | D | mode | predicted | measured | meas/pred | part passes | spilled | wall (s) |"
    );
    println!(
        "|-------|------|----------|---|------|-----------|----------|-----------|-------------|---------|----------|"
    );
    for c in &cells {
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {:.4} | {} | {} | {:.3} |",
            c.query,
            c.variant,
            c.strategy,
            c.d,
            c.mode,
            c.predicted,
            c.total(),
            c.total() as f64 / c.predicted as f64,
            c.partition_passes,
            c.partition_spilled_blocks,
            c.secs
        );
    }

    let json = format!(
        "{{\n  \"benchmark\": \"query_engine_predicted_vs_measured\",\n  \
         \"schema_version\": 2,\n  \
         \"q1_rows\": {rows_n},\n  \"q3_orders\": {orders_n},\n  \"q3_lines\": {lines_n},\n  \
         \"mem_records\": {MEM_RECORDS},\n  \"mem_records_q3u\": {m_q3u},\n  \
         \"physical_block_bytes\": {PHYS_BLOCK},\n  \
         \"overlap_depth\": {DEPTH},\n  \"service_time_us\": {SERVICE_US},\n  \
         \"placement\": \"independent\",\n  \"q3_planner_choice\": \"{}\",\n  \
         \"q3u_planner_choice\": \"{}\",\n  \
         \"smoke\": {smoke},\n  \"trials\": {trials},\n  \"results\": [\n{}\n  ]\n}}\n",
        plan_names[best],
        q3u_names[q3u_best],
        json_rows(&cells).join(",\n")
    );
    std::fs::write("BENCH_query.json", &json).expect("write BENCH_query.json");
    println!("\nwrote BENCH_query.json");

    // ---- Guards -----------------------------------------------------------
    // Checked last so a failure still leaves the full table for diagnosis.
    //
    // 1. Predicted == measured, exactly, in every cell: the model replays
    //    the engine's merge schedule and received exact cardinalities, so
    //    its documented slack is zero.
    for c in &cells {
        assert_eq!(
            c.total(),
            c.predicted,
            "{} {} d={} {}: measured transfers diverge from the model",
            c.query,
            c.variant,
            c.d,
            c.mode
        );
    }
    // 2. Identical canonicalized outputs across every cell of a query (hash
    //    operators emit in partition order, so rows are compared sorted).
    for query in ["q1", "q3", "q3u"] {
        let rows: Vec<&Cell> = cells.iter().filter(|c| c.query == query).collect();
        let reference = rows[0].canonical_output();
        for c in &rows {
            assert_eq!(
                c.canonical_output(),
                reference,
                "{query} {} d={} {}: output differs",
                c.variant,
                c.d,
                c.mode
            );
        }
    }
    // 3. I/O mode moves wall time only, never a transfer count.
    for c in &cells {
        let twin = cells
            .iter()
            .find(|t| {
                t.query == c.query && t.variant == c.variant && t.d == c.d && t.mode != c.mode
            })
            .expect("mode twin");
        assert_eq!(
            (c.reads, c.writes),
            (twin.reads, twin.writes),
            "{} {} d={}: I/O mode changed the transfer counts",
            c.query,
            c.variant,
            c.d
        );
    }
    // 4. The planner's Q3 choice is the measured-cheapest feasible plan.
    for d in [1usize, 4] {
        for mode in ["sync", "overlapped"] {
            let q3: Vec<&Cell> = cells
                .iter()
                .filter(|c| c.query == "q3" && c.d == d && c.mode == mode)
                .collect();
            let chosen = q3
                .iter()
                .find(|c| c.variant == plan_names[best])
                .expect("chosen plan executed");
            for c in &q3 {
                assert!(
                    chosen.total() <= c.total(),
                    "q3 d={d} {mode}: planner chose `{}` ({}) but `{}` measured cheaper ({})",
                    chosen.variant,
                    chosen.total(),
                    c.variant,
                    c.total()
                );
            }
        }
    }
    // 5. The unsorted regime's planner choice (grace) is measured-cheapest,
    //    and the hash join's advantage over merge-join-with-sorts is ≥ 1.5×.
    let mut q3u_ratio = f64::INFINITY;
    for d in [1usize, 4] {
        for mode in ["sync", "overlapped"] {
            let get = |variant: &str| {
                cells
                    .iter()
                    .find(|c| {
                        c.query == "q3u" && c.variant == variant && c.d == d && c.mode == mode
                    })
                    .expect("q3u cell present")
            };
            let (sm, gr) = (get("sort-merge"), get("grace-hash"));
            assert!(
                gr.total() <= sm.total(),
                "q3u d={d} {mode}: planner chose grace but sort-merge measured cheaper"
            );
            let ratio = sm.total() as f64 / gr.total() as f64;
            q3u_ratio = q3u_ratio.min(ratio);
            assert!(
                ratio >= 1.5,
                "q3u d={d} {mode}: hash join advantage {ratio:.3}× < 1.5× \
                 ({} vs {} transfers)",
                sm.total(),
                gr.total()
            );
        }
    }
    // 6. Partition counters attribute the hash work: the grace joins spill,
    //    while Q1's fully-resident hash aggregate never touches the disk.
    for c in &cells {
        match (c.query, c.strategy) {
            ("q1", "hash") => assert_eq!(
                (c.partition_passes, c.partition_spilled_blocks),
                (0, 0),
                "q1 hash d={} {}: fully-resident aggregate should not partition",
                c.d,
                c.mode
            ),
            (_, "hash") => assert!(
                c.partition_passes >= 1 && c.partition_spilled_blocks >= 1,
                "{} {} d={} {}: grace join should record partition spills",
                c.query,
                c.variant,
                c.d,
                c.mode
            ),
            _ => assert_eq!(
                (c.partition_passes, c.partition_spilled_blocks),
                (0, 0),
                "{} {} d={} {}: sort-based plan should not partition",
                c.query,
                c.variant,
                c.d,
                c.mode
            ),
        }
    }
    println!(
        "guards passed: predicted == measured in all {} cells, outputs identical, \
         planner choices `{}` (clustered) \
         and `{}` (shuffled, {q3u_ratio:.2}x over sort-merge) are measured-cheapest",
        cells.len(),
        plan_names[best],
        q3u_names[q3u_best]
    );
}
