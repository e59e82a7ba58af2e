//! `sort_io` and `sort_cpu`: the same `emsort::merge_sort_by` call on a
//! device-bound and on a CPU-bound configuration.

use std::sync::Arc;
use std::time::Instant;

use em_core::hash::fnv1a_words;
use em_core::{ExtVec, MemBudget};
use emsort::{form_runs, merge_runs_with, merge_sort_by, OverlapConfig, SortConfig};
use pdm::{IoMode, SharedDevice};

use super::{set_batch_latency, set_pdm_layer, staged, Ctx};
use crate::device::{load, ram_array, read_back, timed_array, TimedArray};
use crate::gen;
use crate::measure::{median, peak_rss_mib, CpuYardstick, Window};
use crate::metrics::{ratio, Report};
use crate::trace::Recorder;

/// `sort_io`: 800 k records in 8 KiB blocks = 782 blocks, 3 128 transfers
/// per sort; `M` = 128 Ki records gives 7 runs and one merge pass.  At
/// D = 2 and 1 ms that is a 1.56 s floor over ≈ 0.2 s of CPU, so the
/// device, not the merge loop, sets the time.
const IO_RECORDS: usize = 800_000;
const IO_MEM_RECORDS: usize = 128 * 1024;
const IO_BLOCK_BYTES: usize = 8 * 1024;
/// `sort_cpu`: 500 k records in 4 KiB blocks, `M` = 16 Ki records = 32
/// blocks: 31 runs merged at fan-in 31 in one pass, ≈ 60 ms of CPU and no
/// device time.  Short sorts, and so a hundred of them in a run, each
/// paired with its own CPU yardstick: the sandbox's CPU changes speed
/// within seconds.
const CPU_RECORDS: usize = 500_000;
const CPU_MEM_RECORDS: usize = 16 * 1024;
const CPU_BLOCK_BYTES: usize = 4 * 1024;
const LANES: usize = 2;
const OVERLAP_DEPTH: usize = 2;
const RECORD_BYTES: usize = 8;

struct Stage {
    device: SharedDevice,
    input: ExtVec<u64>,
    cfg: SortConfig,
    /// FNV-1a of the correctly sorted input: the oracle's verdict.
    expected: u64,
    /// The timed lanes behind `device` (`None` on RAM).
    timed: Option<TimedArray>,
}

fn less(a: &u64, b: &u64) -> bool {
    a < b
}

fn setup(ctx: &Ctx, io: bool) -> Stage {
    let n = ctx.scaled(if io { IO_RECORDS } else { CPU_RECORDS });
    let mut data = gen::sort_input(ctx.seed, n);
    let (device, timed, overlap) = if io {
        let timed = timed_array(LANES, IO_BLOCK_BYTES, IoMode::Overlapped);
        (
            timed.device(),
            Some(timed),
            OverlapConfig::symmetric(OVERLAP_DEPTH),
        )
    } else {
        (
            ram_array(CPU_BLOCK_BYTES) as SharedDevice,
            None,
            OverlapConfig::off(),
        )
    };
    let input = load(&device, &data);
    data.sort_unstable();
    let expected = fnv1a_words(&data);
    drop(data);
    let stage = Stage {
        cfg: SortConfig::new(if io { IO_MEM_RECORDS } else { CPU_MEM_RECORDS })
            .with_overlap(overlap),
        device,
        input,
        expected,
        timed,
    };
    // Warm-up (allocator, page faults, worker threads), checked in full —
    // on RAM only.  On the timed device a warm-up sort would cost seconds
    // of every set-up and warm nothing the 1 ms transfers do not dwarf;
    // there the first timed sort is a sample like any other.
    if !io {
        let out = merge_sort_by(&stage.input, &stage.cfg, less).expect("warm-up sort");
        assert!(
            is_correct(&stage, &out),
            "warm-up sort produced wrong output"
        );
        out.free().expect("free warm-up output");
    }
    stage
}

/// Order and content: ascending, and the checksum of the reference sort.
fn is_correct(stage: &Stage, out: &ExtVec<u64>) -> bool {
    match read_back(out) {
        Ok(v) => v.windows(2).all(|w| w[0] <= w[1]) && fnv1a_words(&v) == stage.expected,
        Err(_) => false,
    }
}

/// The merge's budget exactly as `merge_sort_by` sizes it: `M` plus the
/// read-ahead and write-behind slack of one `k`-way pass.
fn merge_budget(stage: &Stage, runs: usize) -> Arc<MemBudget> {
    let per_block = stage.input.per_block();
    let k = stage.cfg.effective_fan_in(per_block);
    assert!(
        runs <= k,
        "{runs} runs need more than one pass at fan-in {k}"
    );
    let ov = stage.cfg.overlap;
    let write_slack = (ov.write_behind * stage.device.stream_lanes()).max(k * ov.read_ahead);
    MemBudget::new(stage.cfg.mem_records + (k * ov.read_ahead + write_slack) * per_block)
}

pub fn run(ctx: &Ctx, io: bool) -> Report {
    let mut report = Report::default();
    let (stage, setup_s) = staged(ctx, !io, || setup(ctx, io));
    report.set("setup_s", setup_s);
    let n = stage.input.len() as f64;
    let block_bytes = stage.device.block_size() as u64;

    // Untraced reps: the whole timed part.  A traced run makes one here and
    // then alternates its own untraced and traced reps.
    let (min_reps, untraced_for) = if ctx.trace {
        (1, 0.0)
    } else {
        (3, ctx.seconds)
    };
    let timed = Instant::now();
    let whole = Window::open(None).timing(stage.timed.as_ref());
    let (mut walls, mut floors, mut cpu_s) = (Vec::new(), Vec::new(), 0.0);
    let mut yardstick = CpuYardstick::new();
    let mut rep_io = None;
    let mut space_amp = 0.0;
    while walls.len() < min_reps || timed.elapsed().as_secs_f64() < untraced_for {
        // CPU-bound sorts are reported in reference-CPU seconds.
        let speed = if io { 1.0 } else { yardstick.factor() };
        let window = Window::open(Some(&stage.device)).timing(stage.timed.as_ref());
        let out = merge_sort_by(&stage.input, &stage.cfg, less);
        let end = window.close();
        walls.push(end.wall_s * speed);
        cpu_s += end.cpu_s * speed;
        if let Some(time) = &end.device {
            floors.push(end.wall_s / time.floor_s);
        }
        let io_delta = end.io.expect("window watched the device");
        let Ok(out) = out else {
            report.check(false);
            continue;
        };
        // Transfer counts are a function of (N, M, B) alone.
        let same_counts = rep_io
            .as_ref()
            .is_none_or(|first| (io_delta.reads(), io_delta.writes()) == counts(first));
        // Reading the output back costs a device pass at 1 ms a block, so
        // on the device only the first and every fourth rep pay for the
        // full check; the others check length and counts.
        let full = !io || walls.len() % 4 == 1;
        report.check(same_counts && out.len() as f64 == n && (!full || is_correct(&stage, &out)));
        space_amp = (stage.device.allocated_blocks() * block_bytes) as f64
            / (2.0 * n * RECORD_BYTES as f64);
        out.free().expect("free sorted output");
        rep_io.get_or_insert(io_delta);
    }
    let rep_io = rep_io.expect("at least one sort succeeded");
    let wall_s = median(&walls);
    if let Some(time) = whole.close().device {
        report.set("bench.calibration_drift", time.drift);
    }

    report.set("wall_s", wall_s);
    // CPU seconds of the median sort: the CPU share of all sorts (a single
    // one is too short for 10 ms CPU ticks) times the median's duration.
    let cpu_share = cpu_s / walls.iter().sum::<f64>();
    report.set("bench.cpu_s", wall_s * cpu_share);
    report.set(
        "floor_ratio",
        if io {
            // Device-bound: wall over the busiest lane's measured busy time.
            median(&floors)
        } else {
            // CPU-bound: wall over the CPU time the sorts themselves used.
            1.0 / cpu_share
        },
    );
    report.set("transfers", rep_io.total() as f64);
    report.set(
        "write_amp",
        (rep_io.writes() * block_bytes) as f64 / (n * RECORD_BYTES as f64),
    );
    report.set("space_amp", space_amp);
    set_batch_latency(&mut report, wall_s);
    report.guard(!io || rep_io.total() > 0, || {
        "sort_io: a timed sort moved no block".to_string()
    });

    if ctx.trace {
        traced(ctx, &stage, &mut report);
    }
    report.set("peak_rss_mb", peak_rss_mib());
    report
}

fn counts(io: &pdm::IoSnapshot) -> (u64, u64) {
    (io.reads(), io.writes())
}

/// The traced part: the sort as its two phases, each a span, alternating
/// with untraced sorts so that the overhead ratio compares like with like.
fn traced(ctx: &Ctx, stage: &Stage, report: &mut Report) {
    let mut rec = Recorder::new();
    let n = stage.input.len() as f64;
    let device = Some(&stage.device);
    let timed = Instant::now();
    let mut rep = 0u64;
    let mut window_io = None;
    let mut device_time = None;
    let mut untraced_walls = Vec::new();
    while rep < 2 || timed.elapsed().as_secs_f64() < ctx.seconds * 0.75 {
        let start = Instant::now();
        let out = merge_sort_by(&stage.input, &stage.cfg, less).expect("untraced sort");
        untraced_walls.push(start.elapsed().as_secs_f64());
        report.check(out.len() as f64 == n);
        out.free().expect("free sorted output");

        let window = Window::open(device).timing(stage.timed.as_ref());
        rec.scope("sort.rep", rep, device, |rec| {
            let (runs, _) = rec.scope("emsort.form_runs", rep, device, |_| {
                form_runs(&stage.input, &stage.cfg, less).expect("form runs")
            });
            let budget = merge_budget(stage, runs.len());
            stage.device.direct_next_stream(0);
            let (out, _) = rec.scope("emsort.merge_runs", rep, device, |_| {
                merge_runs_with(&runs, &budget, &stage.cfg, less).expect("merge runs")
            });
            report.check(out.len() as f64 == n && (rep > 0 || is_correct(stage, &out)));
            report.set("emsort.runs", runs.len() as f64);
            for run in runs {
                run.free().expect("free run");
            }
            out.free().expect("free sorted output");
        });
        let end = window.close();
        (window_io, device_time) = (end.io, end.device);
        rep += 1;
    }

    let med = |name: &str, count: Option<&str>| {
        let v: Vec<f64> = rec
            .named(name)
            .map(|s| count.map_or(s.seconds(), |c| s.count(c)))
            .collect();
        median(&v)
    };
    let (form_s, merge_s) = (
        med("emsort.form_runs", None),
        med("emsort.merge_runs", None),
    );
    report.set("emsort.run_formation_s", form_s);
    report.set("emsort.merge_s", merge_s);
    report.set(
        "emsort.run_formation_cpu_s",
        med("emsort.form_runs", Some("cpu_s")),
    );
    report.set(
        "emsort.merge_cpu_s",
        med("emsort.merge_runs", Some("cpu_s")),
    );
    report.set("emsort.run_formation_ns_per_record", form_s * 1e9 / n);
    report.set("emsort.merge_ns_per_record", merge_s * 1e9 / n);
    // The verification read inside `sort.rep` is the oracle's, not the sort's.
    let traced_wall_s = form_s + merge_s;
    report.set(
        "bench.trace_overhead_ratio",
        traced_wall_s / median(&untraced_walls),
    );

    match device_time {
        Some(time) => {
            // A phase's floor: its busiest lane's transfers at the price a
            // transfer was measured to cost in this rep.
            let phase_floor = |name: &str| med(name, Some("parallel_ios")) * time.transfer_us / 1e6;
            report.set(
                "emsort.run_formation_floor_ratio",
                ratio(form_s, phase_floor("emsort.form_runs")),
            );
            report.set(
                "emsort.merge_floor_ratio",
                ratio(merge_s, phase_floor("emsort.merge_runs")),
            );
            let io = window_io.expect("window watched the device");
            set_pdm_layer(report, &io, LANES, &time);
        }
        None => {
            // em-core's own streams, on the device that charges nothing.
            let data = gen::sort_input(ctx.seed, stage.input.len() as usize);
            let (v, id) = rec.scope("core.from_slice", rep, device, |_| {
                ExtVec::from_slice(stage.device.clone(), &data).expect("write records")
            });
            report.set("core.write_ns_per_record", rec.span(id).seconds() * 1e9 / n);
            let (back, id) = rec.scope("core.to_vec", rep, device, |_| {
                v.to_vec().expect("read records")
            });
            report.set("core.read_ns_per_record", rec.span(id).seconds() * 1e9 / n);
            report.check(back == data);
            v.free().expect("free records");
        }
    }
    ctx.write_trace(&rec);
}
