//! `serve_read`: Zipf point reads through `emserve::Server` on a working
//! set far larger than the hot cache and the buffer pool, closed loop.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use emserve::{shard_of_key, CompletionSink, ReqKind, Request, ServeConfig, Server};
use pdm::{IoMode, SharedDevice};

use super::{set_pdm_layer, set_request_latency, staged, Ctx};
use crate::device::{timed_array, TimedArray};
use crate::gen;
use crate::measure::{peak_rss_mib, percentile, sorted, Window};
use crate::metrics::{ratio, Report};
use crate::trace::Recorder;

const BLOCK_BYTES: usize = 1024;
/// Two shards, each pinned to its own synchronous lane.
const SHARDS: usize = 2;
/// 8 k keys ≈ 80 leaves a shard.  16 pool frames hold the inner nodes and
/// a dozen leaves; 512 cached records are the top 6 % of keys, about 70 %
/// of Zipf(0.99) draws.  The rest reach the device.
const KEYS: usize = 8_000;
const POOL_FRAMES: usize = 16;
const CACHE_RECORDS: usize = 512;
const THETA: f64 = 0.99;
/// Gets in flight from the one generator thread.
const OUTSTANDING: usize = 8;
/// Gets that fill the caches before timing, part of set-up.
const WARMUP_GETS: usize = 2_000;
/// Tape length per second of `--seconds`: the sandbox serves ≈ 4 000
/// gets/s on a quiet host and a third of that on a busy one, so the tape
/// takes 5–15 s.  A fixed tape, not a deadline, so that counts depend on
/// the seed alone.
const GETS_PER_SECOND: f64 = 2_500.0;
/// User bytes of one record: `u64` key and `u64` value.
const RECORD_BYTES: usize = 16;
const TENANT: u32 = 0;

/// One completion, stamped on the shard thread that produced it.
enum Done {
    Acked,
    Got(u64, Option<u64>, Instant),
}

struct ChannelSink(Sender<Done>);

impl CompletionSink<u64> for ChannelSink {
    fn acked_write(&self, _tenant: u32, _op_id: u64) {
        let _ = self.0.send(Done::Acked);
    }

    fn got(&self, _tenant: u32, op_id: u64, value: Option<u64>) {
        let _ = self.0.send(Done::Got(op_id, value, Instant::now()));
    }
}

struct Stage {
    server: Server<u64, u64>,
    done: Receiver<Done>,
    timed: TimedArray,
    device: SharedDevice,
    keys: Vec<(u64, u64)>,
    /// The timed tape: indices into `keys`.
    tape: Vec<u32>,
    /// Device bytes written by the preload, for `write_amp`.
    preload_bytes_written: u64,
}

fn setup(ctx: &Ctx) -> Stage {
    // A smoke run keeps a quarter of the keys, not a tenth: fewer would fit
    // the buffer pool and trip the "measures nothing" guard.
    let keys = gen::read_keys(ctx.seed, if ctx.smoke { KEYS / 4 } else { KEYS });
    let gets = (GETS_PER_SECOND * ctx.seconds) as usize;
    let warmup_gets = ctx.scaled(WARMUP_GETS);
    let shard_of: Vec<usize> = keys
        .iter()
        .map(|(key, _)| shard_of_key(TENANT, key, SHARDS))
        .collect();
    let by_rank = gen::popularity_order(ctx.seed, &shard_of);
    let mut tape = gen::read_tape(ctx.seed, &by_rank, warmup_gets + gets, THETA);
    let warmup: Vec<u32> = tape.drain(..warmup_gets).collect();

    let timed = timed_array(SHARDS, BLOCK_BYTES, IoMode::Synchronous);
    let device = timed.device();
    let mut cfg = ServeConfig::new(SHARDS, 1);
    cfg.pool_frames = POOL_FRAMES;
    cfg.cache_records = ctx.scaled(CACHE_RECORDS);
    let (tx, done) = mpsc::channel();
    let server =
        Server::new(timed.array.clone(), cfg, Arc::new(ChannelSink(tx))).expect("start server");

    for (i, &(key, value)) in keys.iter().enumerate() {
        let kind = ReqKind::Put(key, value);
        server
            .submit(Request {
                tenant: TENANT,
                op_id: i as u64,
                kind,
            })
            .expect("submit preload put");
    }
    server.compact_all().expect("compact preload");
    let acked = done.try_iter().filter(|d| matches!(d, Done::Acked)).count();
    assert_eq!(
        acked,
        keys.len(),
        "preload writes were not all acknowledged"
    );
    let preload_bytes_written = device.stats().snapshot().writes() * BLOCK_BYTES as u64;

    let stage = Stage {
        server,
        done,
        timed,
        device,
        keys,
        tape,
        preload_bytes_written,
    };
    let mut warm = Report::default();
    closed_loop(&stage, &warmup, &mut warm, None);
    assert!(warm.correct(), "warm-up gets returned wrong values");
    stage
}

/// Keep [`OUTSTANDING`] gets in flight until `tape` is done; every answer
/// is checked against the preloaded value.  Returns per-get latencies.
fn closed_loop(
    stage: &Stage,
    tape: &[u32],
    report: &mut Report,
    mut rec: Option<&mut Recorder>,
) -> Vec<f64> {
    let mut sent_at: Vec<Instant> = Vec::with_capacity(tape.len());
    let mut latencies = Vec::with_capacity(tape.len());
    while latencies.len() < tape.len() {
        while sent_at.len() < tape.len() && sent_at.len() - latencies.len() < OUTSTANDING {
            let op_id = sent_at.len() as u64;
            let kind = ReqKind::Get(stage.keys[tape[op_id as usize] as usize].0);
            let request = Request {
                tenant: TENANT,
                op_id,
                kind,
            };
            sent_at.push(Instant::now());
            let sent = match rec.as_deref_mut() {
                Some(rec) => rec.light("emserve.submit", op_id, || stage.server.submit(request)),
                None => stage.server.submit(request),
            };
            sent.expect("submit get");
        }
        match stage
            .done
            .recv()
            .expect("server dropped the completion channel")
        {
            Done::Got(op_id, value, at) => {
                let start = sent_at[op_id as usize];
                report.check(value == Some(stage.keys[tape[op_id as usize] as usize].1));
                latencies.push(at.saturating_duration_since(start).as_secs_f64());
                if let Some(rec) = rec.as_deref_mut() {
                    rec.record("emserve.get", op_id, start, at);
                }
            }
            Done::Acked => unreachable!("no write is in flight"),
        }
    }
    latencies
}

/// Serving counters that only ever grow; subtract two to get a window.
#[derive(Clone, Copy)]
struct Counters {
    cache_hits: u64,
    cache_misses: u64,
    cache_rejected: u64,
    compactions: u64,
    pool_hits: u64,
    pool_misses: u64,
}

fn counters(server: &Server<u64, u64>) -> Counters {
    let (s, (pool_hits, pool_misses)) = (server.stats(), server.pool_hit_stats());
    Counters {
        cache_hits: s.cache_hits(),
        cache_misses: s.cache_misses(),
        cache_rejected: s.cache_rejected(),
        compactions: s.compactions(),
        pool_hits,
        pool_misses,
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (stage, setup_s) = staged(ctx, false, || setup(ctx));
    report.set("setup_s", setup_s);

    // Untraced: the whole tape, or the first half of it in a traced run.
    let untraced = if ctx.trace {
        &stage.tape[..stage.tape.len() / 2]
    } else {
        &stage.tape[..]
    };
    let before = counters(&stage.server);
    let window = Window::open(Some(&stage.device)).timing(Some(&stage.timed));
    let latencies = closed_loop(&stage, untraced, &mut report, None);
    let end = window.close();
    let time = end.device.expect("window timed the lanes");
    let after = counters(&stage.server);
    let io = end.io.expect("window watched the device");
    report.set("bench.calibration_drift", time.drift);

    let user_bytes = (stage.keys.len() * RECORD_BYTES) as f64;
    report.set("wall_s", end.wall_s);
    report.set("bench.cpu_s", end.cpu_s);
    report.set("floor_ratio", ratio(end.wall_s, time.floor_s));
    report.set("transfers", io.total() as f64);
    // No write is acknowledged in the timed part: the preload's are counted.
    report.set("write_amp", stage.preload_bytes_written as f64 / user_bytes);
    report.set(
        "space_amp",
        (stage.device.allocated_blocks() * BLOCK_BYTES as u64) as f64 / user_bytes,
    );
    set_request_latency(ctx, &mut report, &latencies);

    let pool_accesses =
        (after.pool_hits - before.pool_hits) + (after.pool_misses - before.pool_misses);
    let pool_hit_ratio = ratio(
        (after.pool_hits - before.pool_hits) as f64,
        pool_accesses as f64,
    );
    report.guard(io.total() > 0, || {
        "serve_read: the timed gets moved no block".to_string()
    });
    report.guard(pool_hit_ratio < 0.9, || {
        format!("serve_read: pool hit ratio {pool_hit_ratio:.3} — the working set fits the pool")
    });
    report.guard(after.compactions == before.compactions, || {
        "serve_read: the read-only window compacted".to_string()
    });

    if ctx.trace {
        let rate = untraced.len() as f64 / end.wall_s;
        let per_get_s = end.wall_s / untraced.len() as f64;
        set_pdm_layer(&mut report, &io, SHARDS, &time);
        report.set("pdm.pool_hit_ratio", pool_hit_ratio);
        let lookups = after.cache_misses - before.cache_misses;
        report.set(
            "emtree.reads_per_get",
            ratio(
                (after.pool_misses - before.pool_misses) as f64,
                lookups as f64,
            ),
        );
        report.set(
            "emserve.cache_hit_ratio",
            ratio(
                (after.cache_hits - before.cache_hits) as f64,
                untraced.len() as f64,
            ),
        );
        report.set(
            "emserve.cache_rejected",
            (after.cache_rejected - before.cache_rejected) as f64,
        );
        report.set(
            "emserve.compactions",
            (after.compactions - before.compactions) as f64,
        );
        traced(ctx, &stage, rate, per_get_s, &mut report);
    }

    // Final state against the model, through the server's own range scan.
    let mut model: Vec<(u64, u64)> = stage.keys.clone();
    model.sort_unstable();
    let scanned = stage.server.range(TENANT, 0, u64::MAX);
    report.check(scanned.is_ok_and(|rows| rows == model));
    report.set("peak_rss_mb", peak_rss_mib());
    stage.server.shutdown().expect("shut the server down");
    report
}

/// Second half of a traced run: the rest of the tape closed-loop under
/// spans, then an open-loop phase at half the closed-loop rate.
fn traced(
    ctx: &Ctx,
    stage: &Stage,
    closed_rate: f64,
    untraced_per_get_s: f64,
    report: &mut Report,
) {
    let mut rec = Recorder::new();
    let tape = &stage.tape[stage.tape.len() / 2..];
    let (closed_tape, open_tape) = tape.split_at(tape.len() / 2);

    let start = Instant::now();
    rec.scope("serve_read.closed_loop", 0, Some(&stage.device), |rec| {
        closed_loop(stage, closed_tape, report, Some(rec));
    });
    let traced_per_get_s = start.elapsed().as_secs_f64() / closed_tape.len() as f64;
    report.set(
        "bench.trace_overhead_ratio",
        traced_per_get_s / untraced_per_get_s,
    );
    let submit_us = sorted(
        rec.seconds_of("emserve.submit")
            .iter()
            .map(|s| s * 1e6)
            .collect(),
    );
    report.set("emserve.submit_us_p50", percentile(&submit_us, 50.0));

    // Open loop: request i is due at i/rate, and is timed from then — a
    // stalled server owes the wait to every request queued behind it.
    let rate = closed_rate / 2.0;
    let gets = open_tape
        .len()
        .min((rate * ctx.seconds / 2.0) as usize)
        .max(1);
    let begin = Instant::now();
    let (mut late_max, mut latencies) = (0.0f64, Vec::with_capacity(gets));
    let mut due_at = Vec::with_capacity(gets);
    for (i, &k) in open_tape[..gets].iter().enumerate() {
        let due = begin + Duration::from_secs_f64(i as f64 / rate);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        late_max = late_max.max(Instant::now().saturating_duration_since(due).as_secs_f64());
        due_at.push(due);
        let kind = ReqKind::Get(stage.keys[k as usize].0);
        stage
            .server
            .submit(Request {
                tenant: TENANT,
                op_id: i as u64,
                kind,
            })
            .expect("submit open-loop get");
    }
    while latencies.len() < gets {
        match stage
            .done
            .recv()
            .expect("server dropped the completion channel")
        {
            Done::Got(op_id, value, at) => {
                let due = due_at[op_id as usize];
                report.check(value == Some(stage.keys[open_tape[op_id as usize] as usize].1));
                latencies.push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
                rec.record("emserve.open_get", op_id, due, at);
            }
            Done::Acked => unreachable!("no write is in flight"),
        }
    }
    let latencies = sorted(latencies);
    report.set("emserve.open_p50_ms", percentile(&latencies, 50.0));
    report.set("emserve.open_p99_ms", percentile(&latencies, 99.0));
    report.set("emserve.open_late_ms_max", late_max * 1e3);
    ctx.write_trace(&rec);
}
