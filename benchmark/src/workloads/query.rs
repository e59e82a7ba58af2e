//! `query_io` and `query_cpu`: Q1-lite (aggregate over a selection) and
//! Q3u (join of a filtered, shuffled `orders` with `lineitem`), each
//! executed through the plan `emrel::choose` picks among a sort-based and a
//! hash-based candidate.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use em_core::ExtVec;
use emhash::partition::partition_to_fit;
use emrel::{
    choose, collect, sort_pipe, sort_scan, CostEnv, ExecConfig, FilterExec, GroupByExec,
    HashGroupByExec, HashJoinExec, KeyStats, MergeJoinExec, Order, PlanExpr, ProjectExec,
    QueryExec, ScanExec,
};
use emsort::OverlapConfig;
use pdm::{IoMode, IoSnapshot, SharedDevice};

use super::{set_batch_latency, set_pdm_layer, staged, Ctx};
use crate::device::{load, ram_array, read_back, timed_array, DeviceTime, TimedArray};
use crate::gen::{self, Grp, Row};
use crate::measure::{median, peak_rss_mib, CpuYardstick, Window};
use crate::metrics::{ratio, Report};
use crate::trace::Recorder;

/// 1 KiB blocks (64 rows): a pass of both queries stays near 1 800
/// transfers.
const BLOCK_BYTES: usize = 1024;
const LANES: usize = 2;
const OVERLAP_DEPTH: usize = 2;
const ROW_BYTES: usize = 16;
const GRP_BYTES: usize = 24;
const KEY: u32 = 1;

/// Q1: `M` = 4 096 rows; 1 024 groups fit the hash aggregate's resident
/// table at fan-out 31, so it spills nothing and the planner must pick it
/// over sorting the relation.
const Q1_MEM: usize = 4096;
const Q1_GROUPS: u64 = 1024;
const Q1_FAN_OUT: usize = 31;
/// Q3u: `M` = 1 024 rows = 16 blocks, fan-in 15.  `lineitem` forms more
/// than 15 runs at both sizes, so sort-merge pays two merge passes where
/// grace partitions once: predicted transfers differ by ≥ 1.5×.
const Q3U_MEM: usize = 1024;
const Q3U_FAN_OUT: usize = 7;

/// `query_io`: 16 k Q1 rows, 1 400 orders (≈ 21.7 k lineitem rows, 22
/// runs): one pass ≈ 1 400 transfers, ≈ 2 s at 1 ms as the operators
/// stand.
const IO_Q1_ROWS: usize = 16_000;
const IO_ORDERS: usize = 1_400;
/// `query_cpu`: 15 times the rows, ≈ 60 ms of CPU a pass and no device
/// time.  Short passes, and so some two hundred of them in a run, each
/// paired with its own CPU yardstick: the sandbox's CPU changes speed
/// within seconds.
const CPU_Q1_ROWS: usize = 240_000;
const CPU_ORDERS: usize = 21_000;

/// The four candidate plans, in planner enumeration order per query.
const Q1_NAMES: [&str; 2] = ["emrel.q1_sort", "emrel.q1_hash"];
const Q3U_NAMES: [&str; 2] = ["emrel.q3u_merge", "emrel.q3u_grace"];

struct Stage {
    device: SharedDevice,
    io: bool,
    q1: ExtVec<Row>,
    orders: ExtVec<Row>,
    lineitem: ExtVec<Row>,
    n_orders: u64,
    /// What `choose` picked and predicted, per query.
    q1_choice: emrel::Choice,
    q3u_choice: emrel::Choice,
    plan_us: f64,
    /// Canonical (sorted) reference outputs from the in-memory oracle.
    q1_expected: Vec<Grp>,
    q3u_expected: Vec<Grp>,
    /// The timed lanes behind `device` (`None` on RAM).
    timed: Option<TimedArray>,
}

impl Stage {
    fn cfg(&self, mem: usize) -> ExecConfig {
        let mut cfg = ExecConfig::new(mem);
        cfg.sort = cfg.sort.with_overlap(overlap(self.io));
        cfg
    }

    fn input_rows(&self) -> u64 {
        self.q1.len() + self.orders.len() + self.lineitem.len()
    }
}

fn overlap(io: bool) -> OverlapConfig {
    if io {
        OverlapConfig::symmetric(OVERLAP_DEPTH)
    } else {
        OverlapConfig::off()
    }
}

fn less(a: &Row, b: &Row) -> bool {
    a.0 < b.0
}

/// The level-0 hash the executors apply to `u64` keys; the planner's
/// [`KeyStats`] must be built with the same function.
fn key_hash(k: u64) -> u64 {
    em_core::hash::hash_bytes(&k.to_le_bytes())
}

fn device_for(io: bool) -> (SharedDevice, Option<TimedArray>) {
    if io {
        let timed = timed_array(LANES, BLOCK_BYTES, IoMode::Overlapped);
        (timed.device(), Some(timed))
    } else {
        (ram_array(BLOCK_BYTES) as SharedDevice, None)
    }
}

fn setup(ctx: &Ctx, io: bool) -> Stage {
    let q1_rows = gen::q1_rows(
        ctx.seed,
        ctx.scaled(if io { IO_Q1_ROWS } else { CPU_Q1_ROWS }),
        Q1_GROUPS,
    );
    let n_orders = ctx.scaled(if io { IO_ORDERS } else { CPU_ORDERS }) as u64;
    let (order_rows, lineitem_rows) = gen::q3u_relations(ctx.seed, n_orders);

    // The oracle: both answers computed in memory, canonicalised by sorting.
    let mut groups: HashMap<u64, (u64, u64)> = HashMap::new();
    for r in q1_rows.iter().filter(|r| gen::q1_keep(r)) {
        let g = groups.entry(r.0).or_default();
        *g = (g.0.wrapping_add(r.1), g.1 + 1);
    }
    let mut q1_expected: Vec<Grp> = groups.into_iter().map(|(k, (s, c))| (k, s, c)).collect();
    q1_expected.sort_unstable();
    let mut q3u_expected: Vec<Grp> = lineitem_rows
        .iter()
        .filter(|r| gen::q3u_keep_order(r.0, n_orders))
        .map(|r| (r.0, r.1, 0))
        .collect();
    q3u_expected.sort_unstable();

    // Exact cardinalities and arrival-order key hashes for the planner.
    let kept = |r: &&Row| gen::q1_keep(r);
    let q1_f = q1_rows.iter().filter(kept).count() as u64;
    let q1_g = q1_expected.len() as u64;
    let q1_hashes: KeyStats =
        Arc::new(q1_rows.iter().filter(kept).map(|r| key_hash(r.0)).collect());
    let q1_scan = || PlanExpr::scan(q1_rows.len() as u64, ROW_BYTES, Order::Unordered).filter(q1_f);
    let q1_candidates = [
        q1_scan()
            .sort(KEY)
            .group_by(KEY, GRP_BYTES, q1_g, Order::Key(KEY)),
        q1_scan().hash_group_by(q1_hashes, Q1_FAN_OUT, GRP_BYTES, q1_g),
    ];
    let keep_order = |r: &&Row| gen::q3u_keep_order(r.0, n_orders);
    let q3_f = order_rows.iter().filter(keep_order).count() as u64;
    let q3_j = q3u_expected.len() as u64;
    let build_hashes: KeyStats = Arc::new(
        order_rows
            .iter()
            .filter(keep_order)
            .map(|r| key_hash(r.0))
            .collect(),
    );
    let probe_hashes: KeyStats = Arc::new(lineitem_rows.iter().map(|r| key_hash(r.0)).collect());
    let scan_o = || PlanExpr::scan(n_orders, ROW_BYTES, Order::Unordered).filter(q3_f);
    let scan_l = || PlanExpr::scan(lineitem_rows.len() as u64, ROW_BYTES, Order::Unordered);
    let q3u_candidates = [
        scan_o()
            .sort(KEY)
            .merge_join(scan_l().sort(KEY), KEY, ROW_BYTES, q3_j)
            .project(GRP_BYTES, Order::Unordered),
        scan_l()
            .hash_join(
                scan_o(),
                build_hashes,
                probe_hashes,
                Q3U_FAN_OUT,
                false,
                ROW_BYTES,
                q3_j,
            )
            .project(GRP_BYTES, Order::Unordered),
    ];
    let planning = Instant::now();
    let q1_choice = choose(&q1_candidates, &CostEnv::new(BLOCK_BYTES, Q1_MEM));
    let q3u_choice = choose(&q3u_candidates, &CostEnv::new(BLOCK_BYTES, Q3U_MEM));
    let plan_us = planning.elapsed().as_secs_f64() * 1e6;

    let (device, timed) = device_for(io);
    let stage = Stage {
        q1: load(&device, &q1_rows),
        orders: load(&device, &order_rows),
        lineitem: load(&device, &lineitem_rows),
        device,
        io,
        n_orders,
        q1_choice,
        q3u_choice,
        plan_us,
        q1_expected,
        q3u_expected,
        timed,
    };
    // Warm-up pass of the chosen plans, checked like every pass — on RAM
    // only.  On the timed device it would cost seconds of every set-up and
    // warm nothing the 1 ms transfers do not dwarf; there the first timed
    // pass is a sample like any other.
    if !io {
        let mut warm = Report::default();
        pass(&stage, &mut warm, None, 0);
        assert!(warm.correct(), "warm-up pass produced wrong output");
    }
    stage
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

/// Execute Q1 candidate `plan` (index into [`Q1_NAMES`]).
fn run_q1(stage: &Stage, plan: usize) -> pdm::Result<ExtVec<Grp>> {
    let (device, cfg) = (&stage.device, stage.cfg(Q1_MEM));
    let mut filtered = FilterExec::new(ScanExec::new(&stage.q1), gen::q1_keep);
    if plan == 0 {
        sort_pipe(&mut filtered, device, &cfg, KEY, less, |s| {
            group_collect(s, device)
        })
    } else {
        let mut g = HashGroupByExec::build(
            &mut filtered,
            device,
            &cfg,
            Q1_FAN_OUT,
            |r: &Row| r.0,
            0u64,
            |acc: &mut u64, r: &Row| *acc = acc.wrapping_add(r.1),
            |k, acc, n| (k, acc, n),
        )?;
        collect(&mut g, device)
    }
}

/// Execute Q3u candidate `plan` (index into [`Q3U_NAMES`]).
fn run_q3u(stage: &Stage, plan: usize) -> pdm::Result<ExtVec<Grp>> {
    let (device, cfg) = (&stage.device, stage.cfg(Q3U_MEM));
    let n_orders = stage.n_orders;
    let keep = move |r: &Row| gen::q3u_keep_order(r.0, n_orders);
    let pad = |r: &Row| Some((r.0, r.1, 0u64));
    if plan == 0 {
        sort_scan(
            &stage.lineitem,
            Order::Unordered,
            &cfg,
            KEY,
            less,
            |lines| {
                let mut orders = FilterExec::new(ScanExec::new(&stage.orders), keep);
                sort_pipe(&mut orders, device, &cfg, KEY, less, |orders| {
                    let join = MergeJoinExec::new(
                        orders,
                        lines,
                        |l: &Row| l.0,
                        |r: &Row| r.0,
                        |l: &Row, r: &Row| (l.0, r.1),
                        Q3U_MEM,
                    );
                    let mut out: ProjectExec<_, _, Grp> =
                        ProjectExec::new(join, pad, Order::Unordered);
                    collect(&mut out, device)
                })
            },
        )
    } else {
        let mut build = FilterExec::new(ScanExec::new(&stage.orders), keep);
        let join = HashJoinExec::build(
            &mut build,
            ScanExec::new(&stage.lineitem),
            device,
            &cfg,
            Q3U_FAN_OUT,
            false,
            |b: &Row| b.0,
            |p: &Row| p.0,
            |_b: &Row, p: &Row| (p.0, p.1),
        )?;
        let mut out: ProjectExec<_, _, Grp> = ProjectExec::new(join, pad, Order::Unordered);
        collect(&mut out, device)
    }
}

/// What one plan execution cost.
struct Exec {
    wall_s: f64,
    io: IoSnapshot,
    /// What the lanes did meanwhile (`None` on RAM).
    device: Option<DeviceTime>,
}

/// Run one plan inside a window (and a span, when tracing).
fn execute(
    stage: &Stage,
    rec: Option<&mut Recorder>,
    request: u64,
    name: &'static str,
    plan: impl FnOnce() -> pdm::Result<ExtVec<Grp>>,
) -> (Exec, pdm::Result<ExtVec<Grp>>) {
    let window = Window::open(Some(&stage.device)).timing(stage.timed.as_ref());
    let out = match rec {
        Some(rec) => rec.scope(name, request, Some(&stage.device), |_| plan()).0,
        None => plan(),
    };
    let end = window.close();
    let exec = Exec {
        wall_s: end.wall_s,
        io: end.io.expect("window watched the device"),
        device: end.device,
    };
    (exec, out)
}

/// Check a plan's output against the oracle, free it, return its row count.
fn verify(report: &mut Report, out: pdm::Result<ExtVec<Grp>>, expected: &[Grp]) -> u64 {
    match out.and_then(|out| Ok((read_back(&out)?, out))) {
        Ok((mut rows, out)) => {
            rows.sort_unstable();
            report.check(rows == expected);
            out.free().expect("free query output");
            rows.len() as u64
        }
        Err(_) => {
            report.check(false);
            0
        }
    }
}

/// One pass: the planner's Q1 plan, then its Q3u plan.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    io: IoSnapshot,
    device: Option<DeviceTime>,
    /// Blocks allocated while both outputs were still held, and their rows.
    allocated: u64,
    out_rows: u64,
}

fn pass(stage: &Stage, report: &mut Report, mut rec: Option<&mut Recorder>, request: u64) -> Pass {
    let q1 = stage.q1_choice.best.expect("a Q1 plan is feasible");
    let q3u = stage.q3u_choice.best.expect("a Q3u plan is feasible");
    let window = Window::open(Some(&stage.device)).timing(stage.timed.as_ref());
    let (_, out1) = execute(stage, rec.as_deref_mut(), request, Q1_NAMES[q1], || {
        run_q1(stage, q1)
    });
    let (_, out3) = execute(stage, rec, request, Q3U_NAMES[q3u], || run_q3u(stage, q3u));
    let end = window.close();
    let allocated = stage.device.allocated_blocks();
    // Oracle reads happen outside the window.
    let out_rows =
        verify(report, out1, &stage.q1_expected) + verify(report, out3, &stage.q3u_expected);
    Pass {
        wall_s: end.wall_s,
        cpu_s: end.cpu_s,
        io: end.io.expect("window watched the device"),
        device: end.device,
        allocated,
        out_rows,
    }
}

pub fn run(ctx: &Ctx, io: bool) -> Report {
    let mut report = Report::default();
    let (stage, setup_s) = staged(ctx, !io, || setup(ctx, io));
    report.set("setup_s", setup_s);

    // Untraced passes: the whole timed part.  A traced run makes one here
    // and then alternates its own untraced and traced passes.
    let (min_passes, untraced_for) = if ctx.trace {
        (1, 0.0)
    } else {
        (3, ctx.seconds)
    };
    let timed = Instant::now();
    let whole = Window::open(None).timing(stage.timed.as_ref());
    let mut passes: Vec<Pass> = Vec::new();
    let mut yardstick = CpuYardstick::new();
    while passes.len() < min_passes || timed.elapsed().as_secs_f64() < untraced_for {
        // CPU-bound passes are reported in reference-CPU seconds.
        let speed = if io { 1.0 } else { yardstick.factor() };
        let mut pass = pass(&stage, &mut report, None, 0);
        pass.wall_s *= speed;
        pass.cpu_s *= speed;
        passes.push(pass);
    }
    if let Some(time) = whole.close().device {
        report.set("bench.calibration_drift", time.drift);
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let wall_s = median(&walls);
    let cpu_s: f64 = passes.iter().map(|p| p.cpu_s).sum();
    let first = &passes[0];
    // Counts are a function of the data alone: every pass must repeat them.
    let counts = |p: &Pass| (p.io.reads(), p.io.writes(), p.allocated, p.out_rows);
    report.check(passes.iter().all(|p| counts(p) == counts(first)));

    // Device-bound: wall over the busiest lane's measured busy time.
    let floors: Vec<f64> = passes
        .iter()
        .filter_map(|p| Some(p.wall_s / p.device.as_ref()?.floor_s))
        .collect();
    report.set("wall_s", wall_s);
    // CPU seconds of the median pass: the CPU share of all passes (a single
    // one is too short for 10 ms CPU ticks) times the median's duration.
    let cpu_share = cpu_s / walls.iter().sum::<f64>();
    report.set("bench.cpu_s", wall_s * cpu_share);
    report.set(
        "floor_ratio",
        if io {
            median(&floors)
        } else {
            // CPU-bound: wall over the CPU time the passes themselves used.
            1.0 / cpu_share
        },
    );
    report.set("transfers", first.io.total() as f64);
    let out_bytes = (first.out_rows * GRP_BYTES as u64) as f64;
    report.set(
        "write_amp",
        (first.io.writes() * BLOCK_BYTES as u64) as f64 / out_bytes,
    );
    let live_bytes = (stage.input_rows() * ROW_BYTES as u64) as f64 + out_bytes;
    report.set(
        "space_amp",
        (first.allocated * BLOCK_BYTES as u64) as f64 / live_bytes,
    );
    set_batch_latency(&mut report, wall_s);
    report.guard(!io || first.io.total() > 0, || {
        "query_io: a timed pass moved no block".to_string()
    });

    if ctx.trace {
        traced(ctx, &stage, &mut report);
    }
    report.set("peak_rss_mb", peak_rss_mib());
    report
}

/// The traced part: chosen plans under spans alternating with untraced
/// passes (so that the overhead ratio compares like with like), then every
/// candidate forced once, then the hash partitioner on its own.
fn traced(ctx: &Ctx, stage: &Stage, report: &mut Report) {
    let mut rec = Recorder::new();
    let timed = Instant::now();
    let (mut passes, mut untraced_walls): (Vec<Pass>, Vec<f64>) = (Vec::new(), Vec::new());
    while passes.len() < 2 || timed.elapsed().as_secs_f64() < ctx.seconds / 2.0 {
        untraced_walls.push(pass(stage, report, None, 0).wall_s);
        let request = passes.len() as u64;
        passes.push(pass(stage, report, Some(&mut rec), request));
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    report.set(
        "bench.trace_overhead_ratio",
        median(&walls) / median(&untraced_walls),
    );
    report.set(
        "emrel.rows_per_s",
        stage.input_rows() as f64 / median(&walls),
    );
    report.set("emrel.plan_us", stage.plan_us);
    if let Some(time) = &passes[0].device {
        set_pdm_layer(report, &passes[0].io, LANES, time);
    }

    // (seconds, transfers, floor ratio) per candidate, each forced once.
    const KEYS: [[&str; 3]; 4] = [
        [
            "emrel.q1_sort_s",
            "emrel.q1_sort_transfers",
            "emrel.q1_sort_floor_ratio",
        ],
        [
            "emrel.q1_hash_s",
            "emrel.q1_hash_transfers",
            "emrel.q1_hash_floor_ratio",
        ],
        [
            "emrel.q3u_merge_s",
            "emrel.q3u_merge_transfers",
            "emrel.q3u_merge_floor_ratio",
        ],
        [
            "emrel.q3u_grace_s",
            "emrel.q3u_grace_transfers",
            "emrel.q3u_grace_floor_ratio",
        ],
    ];
    let mut execs = Vec::new();
    for (plan, name) in Q1_NAMES.into_iter().enumerate() {
        let (exec, out) = execute(stage, Some(&mut rec), 1_000, name, || run_q1(stage, plan));
        verify(report, out, &stage.q1_expected);
        execs.push(exec);
    }
    for (plan, name) in Q3U_NAMES.into_iter().enumerate() {
        let (exec, out) = execute(stage, Some(&mut rec), 1_001, name, || run_q3u(stage, plan));
        verify(report, out, &stage.q3u_expected);
        execs.push(exec);
    }
    let predicted = stage
        .q1_choice
        .predicted
        .iter()
        .chain(&stage.q3u_choice.predicted);
    let (mut sum_predicted, mut sum_measured) = (0.0, 0.0);
    for ((exec, keys), &predicted) in execs.iter().zip(KEYS).zip(predicted) {
        let measured = exec.io.total() as f64;
        report.set(keys[0], exec.wall_s);
        report.set(keys[1], measured);
        if let Some(time) = &exec.device {
            report.set(keys[2], ratio(exec.wall_s, time.floor_s));
        }
        sum_predicted += predicted;
        sum_measured += measured;
        // The cost model's documented slack is zero.
        report.guard(predicted == measured, || {
            format!("{}: predicted {predicted}, measured {measured}", keys[1])
        });
    }
    report.set(
        "emrel.predicted_over_measured",
        ratio(sum_predicted, sum_measured),
    );
    // Seconds of the plan the planner chose over the fastest candidate's.
    let regret =
        |execs: &[Exec], best: usize| execs[best].wall_s / execs[0].wall_s.min(execs[1].wall_s);
    report.set(
        "emrel.q1_plan_regret",
        regret(&execs[..2], stage.q1_choice.best.unwrap()),
    );
    report.set(
        "emrel.q3u_plan_regret",
        regret(&execs[2..], stage.q3u_choice.best.unwrap()),
    );

    partition_alone(ctx, stage, &mut rec, report);
    ctx.write_trace(&rec);
}

/// `emhash::partition::partition_to_fit` on the Q3u probe relation, on a
/// fresh device of the workload's kind so the queue-depth mark is its own.
fn partition_alone(ctx: &Ctx, stage: &Stage, rec: &mut Recorder, report: &mut Report) {
    let (device, timed) = device_for(stage.io);
    let (_, rows) = gen::q3u_relations(ctx.seed, stage.n_orders);
    let input = load(&device, &rows);
    let window = Window::open(None).timing(timed.as_ref());
    let (parts, id) = rec.scope("emhash.partition_to_fit", 2_000, Some(&device), |_| {
        partition_to_fit(
            &input,
            |r: &Row| key_hash(r.0),
            Q3U_MEM,
            Q3U_FAN_OUT,
            overlap(stage.io),
        )
        .expect("partition probe relation")
    });
    let span = rec.span(id);
    let records: u64 = parts.iter().map(|p| p.records().len()).sum();
    report.check(records == input.len());
    report.set("emhash.partition_s", span.seconds());
    report.set(
        "emhash.partition_ns_per_record",
        span.seconds() * 1e9 / input.len() as f64,
    );
    if let Some(time) = window.close().device {
        let (ios, parallel) = (
            span.count("reads") + span.count("writes"),
            span.count("parallel_ios"),
        );
        report.set(
            "emhash.partition_floor_ratio",
            ratio(span.seconds(), time.floor_s),
        );
        report.set(
            "emhash.partition_max_lane_share",
            ratio(parallel * LANES as f64, ios),
        );
        report.set(
            "emhash.partition_queue_depth_hwm",
            device.stats().snapshot().max_queue_depth() as f64,
        );
    }
    for p in parts {
        p.into_records().free().expect("free partition");
    }
}
