//! The six workloads.  Each module exposes `run(&Ctx) -> Report`; sizes are
//! frozen constants (README "Workloads" says why each was chosen).

use pdm::IoSnapshot;

use crate::device::DeviceTime;
use crate::measure::{max_lane_share, median, percentile, sorted, tail_percentile, CpuYardstick};
use crate::metrics::{ratio, Report};

pub mod query;
pub mod serve_read;
pub mod serve_write;
pub mod sort;

/// How one run was asked to run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed part, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// A tenth of the size, one set-up, oracles and guards on, for CI.
    pub smoke: bool,
}

impl Ctx {
    /// Write the traced run's spans to `benchmark/out/<workload>.trace.jsonl`.
    pub fn write_trace(&self, rec: &crate::trace::Recorder) {
        let path = crate::measure::out_dir().join(format!("{}.trace.jsonl", self.workload));
        std::fs::write(path, rec.to_json_lines()).expect("write trace");
    }

    /// `full`, or a tenth of it under `--smoke`.
    pub fn scaled(&self, full: usize) -> usize {
        if self.smoke {
            full.div_ceil(10)
        } else {
            full
        }
    }
}

/// Set up several times, dropping each stage before the next is built;
/// returns the last stage and the median set-up time (`setup_s`; in
/// reference-CPU seconds if `cpu_bound`).  Three set-ups at least; a cheap
/// set-up is repeated, up to fifteen times, until 1.5 s have gone into it,
/// so that its median is of more samples.  Traced and smoke runs, which do
/// not report `setup_s`, set up once.
pub fn staged<S>(ctx: &Ctx, cpu_bound: bool, mut setup: impl FnMut() -> S) -> (S, f64) {
    let once = ctx.trace || ctx.smoke;
    let mut yardstick = CpuYardstick::new();
    let (mut times, mut spent): (Vec<f64>, f64) = (Vec::new(), 0.0);
    let mut stage = None;
    while times.is_empty() || !once && (times.len() < 3 || times.len() < 15 && spent < 1.5) {
        drop(stage.take());
        let speed = if cpu_bound { yardstick.factor() } else { 1.0 };
        let start = std::time::Instant::now();
        stage = Some(setup());
        let took = start.elapsed().as_secs_f64();
        spent += took;
        times.push(took * speed);
    }
    (stage.expect("at least one set-up"), median(&times))
}

/// `p50_ms` and `p95_ms` of a serving workload, from per-request
/// latencies in seconds.  A full-size tape must be long enough for ten
/// samples to lie beyond the 95th percentile.
pub fn set_request_latency(ctx: &Ctx, report: &mut Report, seconds: &[f64]) {
    let ms = sorted(seconds.iter().map(|s| s * 1e3).collect());
    report.guard(
        ctx.smoke || tail_percentile(ms.len()).is_some_and(|p| p >= 95.0),
        || {
            format!(
                "{}: {} requests are too few for a 95th percentile",
                ctx.workload,
                ms.len()
            )
        },
    );
    report.set("p50_ms", percentile(&ms, 50.0));
    report.set("p95_ms", percentile(&ms, 95.0));
}

/// `p50_ms` and `p95_ms` of a batch workload.  A sort or a query pass has
/// one latency, its duration; its repetitions do the same work, so their
/// spread is the host's noise, not a tail a user would meet.  Both are the
/// median duration.
pub fn set_batch_latency(report: &mut Report, wall_s: f64) {
    report.set("p50_ms", wall_s * 1e3);
    report.set("p95_ms", wall_s * 1e3);
}

/// The `pdm.*` counters and the calibration drift every device workload
/// reports from its traced window.
pub fn set_pdm_layer(report: &mut Report, io: &IoSnapshot, lanes: usize, time: &DeviceTime) {
    report.set("pdm.transfer_us", time.transfer_us);
    report.set("pdm.reads", io.reads() as f64);
    report.set("pdm.writes", io.writes() as f64);
    report.set("pdm.parallel_ios", io.parallel_time() as f64);
    report.set("pdm.device_floor_s", time.floor_s);
    report.set("pdm.max_lane_share", max_lane_share(io, lanes));
    report.set("pdm.queue_depth_hwm", io.max_queue_depth() as f64);
    report.set(
        "pdm.prefetch_hit_ratio",
        ratio(io.prefetch_hits() as f64, io.prefetched() as f64),
    );
    report.set("pdm.prefetch_wasted", io.prefetch_wasted() as f64);
    report.set("pdm.retries", io.retries() as f64);
}
