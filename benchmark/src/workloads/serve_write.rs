//! `serve_write`: one journaled `emserve::Shard` driven directly — the
//! configuration that acknowledges a batch only after `checkpoint()` —
//! through rounds of puts, deletes and gets, then dropped without a
//! shutdown, recovered, and audited.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use emserve::Shard;
use pdm::{IoMode, Journal, SharedDevice, WalOverhead};

use super::{set_pdm_layer, set_request_latency, staged, Ctx};
use crate::device::{ram_array, timed_array, TimedArray};
use crate::gen::{self, WriteTape};
use crate::measure::{median, peak_rss_mib, percentile, sorted, Window};
use crate::metrics::{ratio, Report};
use crate::trace::Recorder;

const BLOCK_BYTES: usize = 1024;
/// One round: 29 puts and 3 deletes enqueued, one `flush_batch`, one
/// `maybe_compact`, 3 gets.
const PUTS: usize = 29;
const DELETES: usize = 3;
const GETS: usize = 3;
const KEYSPACE: u64 = 50_000;
/// Rounds per second of `--seconds`: 208 rounds at 8 s, enough for a
/// 95th percentile with ten samples beyond it.  A flush costs ≈ 12
/// transfers and a compaction some hundreds, ≈ 30 a round all told, so
/// the tape takes about as long as asked.  A fixed tape, not a deadline,
/// so that counts depend on the seed alone.
const ROUNDS_PER_SECOND: f64 = 26.0;
/// ≈ 31 new distinct keys a round reach 1 536 every 50 rounds: four
/// compactions in a 208-round tape.  Compaction runs after the acks, so
/// it is in `wall_s`, not in the per-round latency; the slow flushes are
/// the absorber's own buffer emptyings, one round in 35 — well under the
/// one in 20 that would put them on the 95th percentile.
const COMPACT_THRESHOLD: usize = 1536;
const POOL_FRAMES: usize = 16;
const ABSORBER_MEM: usize = 4096;
const MIN_COMPACTIONS: u64 = 3;
/// User bytes of one acknowledged write: `u64` key and `u64` value.
const RECORD_BYTES: usize = 16;
const TENANT: u32 = 0;

struct Stage {
    timed: TimedArray,
    journal: Arc<Journal>,
    shard: Shard<u64, u64>,
    tape: WriteTape,
}

fn compact_threshold(ctx: &Ctx) -> usize {
    ctx.scaled(COMPACT_THRESHOLD)
}

fn setup(ctx: &Ctx) -> Stage {
    let rounds = (ROUNDS_PER_SECOND * ctx.seconds) as usize;
    let tape = gen::write_tape(ctx.seed, rounds, PUTS, DELETES, GETS, KEYSPACE);
    let timed = timed_array(1, BLOCK_BYTES, IoMode::Synchronous);
    let journal = Journal::format(timed.device()).expect("format journal");
    let shard = Shard::with_journal(
        journal.clone(),
        POOL_FRAMES,
        ABSORBER_MEM,
        compact_threshold(ctx),
    )
    .expect("create journaled shard");
    Stage {
        timed,
        journal,
        shard,
        tape,
    }
}

/// What playing the tape on one shard observed.
#[derive(Default)]
struct Played {
    /// Seconds from a round's first enqueue until `flush_batch` has
    /// acknowledged all its writes (what a writing client waits for).
    ack_s: Vec<f64>,
    /// Seconds of the whole round: flush, compaction if due, gets.
    round_s: Vec<f64>,
    /// Seconds of the `maybe_compact` calls that compacted.
    compact_s: Vec<f64>,
    acked: u64,
}

/// Play the tape: every ack is counted, every get checked against the
/// model.  With a recorder, each library call of every *even* round is a
/// span; the odd rounds stay untraced, so the two medians of `round_s`
/// give the tracing overhead on one shard in one state history.
fn play(
    shard: &mut Shard<u64, u64>,
    tape: &WriteTape,
    report: &mut Report,
    mut rec: Option<&mut Recorder>,
) -> Played {
    let mut played = Played::default();
    let mut op_id = 0u64;
    for (round, ops) in tape.rounds.iter().enumerate() {
        let request = round as u64;
        let mut rec = rec.as_deref_mut().filter(|_| round % 2 == 0);
        let start = Instant::now();
        for &(key, op) in &ops.writes {
            shard.enqueue(TENANT, op_id, key, op);
            op_id += 1;
        }
        let mut acks = 0u64;
        let count = |_, _| acks += 1;
        let flushed = match rec.as_deref_mut() {
            Some(rec) => rec.light("emserve.flush_batch", request, || shard.flush_batch(count)),
            None => shard.flush_batch(count),
        };
        played.ack_s.push(start.elapsed().as_secs_f64());
        // An unacknowledged write is a failed operation.
        report.attempted += ops.writes.len() as u64;
        report.failed += ops.writes.len() as u64 - acks.min(ops.writes.len() as u64);
        report.check(flushed.is_ok());
        played.acked += acks;

        let compacting = Instant::now();
        let compacted = match rec.as_deref_mut() {
            Some(rec) if shard.wants_compact() => {
                rec.light("emserve.maybe_compact", request, || shard.maybe_compact())
            }
            _ => shard.maybe_compact(),
        };
        match compacted {
            Ok(true) => played.compact_s.push(compacting.elapsed().as_secs_f64()),
            Ok(false) => {}
            Err(_) => report.check(false),
        }
        for &(key, want) in &ops.gets {
            let got = match rec.as_deref_mut() {
                Some(rec) => rec.light("emserve.get", request, || shard.get(TENANT, &key)),
                None => shard.get(TENANT, &key),
            };
            report.check(got.is_ok_and(|got| got == want));
        }
        played.round_s.push(start.elapsed().as_secs_f64());
    }
    played
}

fn wal_since(after: WalOverhead, before: WalOverhead) -> WalOverhead {
    WalOverhead {
        shadow_writes: after.shadow_writes - before.shadow_writes,
        chain_writes: after.chain_writes - before.chain_writes,
        chain_reads: after.chain_reads - before.chain_reads,
        header_writes: after.header_writes - before.header_writes,
        header_reads: after.header_reads - before.header_reads,
        apply_reads: after.apply_reads - before.apply_reads,
        apply_writes: after.apply_writes - before.apply_writes,
        checkpoints: after.checkpoints - before.checkpoints,
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (stage, setup_s) = staged(ctx, false, || setup(ctx));
    report.set("setup_s", setup_s);
    let Stage {
        timed,
        journal,
        mut shard,
        tape,
    } = stage;
    let device = timed.device();

    let mut rec = ctx.trace.then(Recorder::new);
    let wal_before = journal.overhead();
    let window = Window::open(Some(&device)).timing(Some(&timed));
    let played = match rec.as_mut() {
        Some(rec) => {
            let dev = Some(&device);
            rec.scope("serve_write.tape", 0, dev, |rec| {
                play(&mut shard, &tape, &mut report, Some(rec))
            })
            .0
        }
        None => play(&mut shard, &tape, &mut report, None),
    };
    let end = window.close();
    let time = end.device.expect("window timed the lanes");
    let io = end.io.expect("window watched the device");
    let wal = wal_since(journal.overhead(), wal_before);
    report.set("bench.calibration_drift", time.drift);

    report.set("wall_s", end.wall_s);
    report.set("bench.cpu_s", end.cpu_s);
    report.set("floor_ratio", end.wall_s / time.floor_s);
    report.set("transfers", io.total() as f64);
    report.set(
        "write_amp",
        (io.writes() * BLOCK_BYTES as u64) as f64 / (played.acked * RECORD_BYTES as u64) as f64,
    );
    report.set(
        "space_amp",
        (device.allocated_blocks() * BLOCK_BYTES as u64) as f64
            / (tape.model.len() * RECORD_BYTES) as f64,
    );
    set_request_latency(ctx, &mut report, &played.ack_s);
    let compactions = played.compact_s.len() as u64;
    report.guard(io.total() > 0, || {
        "serve_write: the tape moved no block".to_string()
    });
    report.guard(compactions >= MIN_COMPACTIONS, || {
        format!("serve_write: {compactions} compactions, need {MIN_COMPACTIONS}")
    });
    report.guard(wal.checkpoints >= tape.rounds.len() as u64, || {
        format!(
            "serve_write: {} checkpoints for {} rounds",
            wal.checkpoints,
            tape.rounds.len()
        )
    });
    let pool = shard.pool().clone();

    // Crash: the shard goes away without a shutdown, as a killed process
    // would leave it (its destructors would flush what a crash loses).
    let headers = journal
        .header_blocks()
        .expect("a formatted journal has headers");
    std::mem::forget(shard);
    drop(journal);
    let recovering = Instant::now();
    let recovered = Journal::recover(device.clone(), headers).and_then(|journal| {
        Shard::<u64, u64>::recover(journal, POOL_FRAMES, ABSORBER_MEM, compact_threshold(ctx))
    });
    let recover_ms = recovering.elapsed().as_secs_f64() * 1e3;
    // Every write was acknowledged, so the recovered state must be the model.
    let lost = match &recovered {
        Ok(shard) => {
            report.check(shard.check_invariants().is_ok());
            let live: BTreeMap<u64, u64> = shard
                .range(TENANT, &0, &u64::MAX)
                .map(|rows| rows.into_iter().collect())
                .unwrap_or_default();
            report.check(live == tape.model);
            tape.model
                .iter()
                .filter(|(k, v)| live.get(k) != Some(v))
                .count()
        }
        Err(_) => {
            report.check(false);
            tape.model.len()
        }
    };

    if let Some(mut rec) = rec {
        set_pdm_layer(&mut report, &io, 1, &time);
        report.set("pdm.wal_shadow_writes", wal.shadow_writes as f64);
        report.set("pdm.wal_chain_writes", wal.chain_writes as f64);
        report.set("pdm.wal_header_writes", wal.header_writes as f64);
        report.set(
            "pdm.wal_apply_transfers",
            (wal.apply_reads + wal.apply_writes) as f64,
        );
        report.set("pdm.wal_checkpoints", wal.checkpoints as f64);
        let stats = pool.stats();
        report.set(
            "pdm.pool_hit_ratio",
            ratio(stats.hits() as f64, (stats.hits() + stats.misses()) as f64),
        );
        report.set("pdm.pool_evictions", stats.evictions() as f64);
        report.set("pdm.pool_writebacks", stats.writebacks() as f64);
        report.set("emserve.checkpoints", wal.checkpoints as f64);
        report.set("emserve.compactions", compactions as f64);
        report.set("emserve.recover_ms", recover_ms);
        report.set("emserve.lost_acked_writes", lost as f64);
        let compact_ms = sorted(played.compact_s.iter().map(|s| s * 1e3).collect());
        if !compact_ms.is_empty() {
            report.set("emtree.compact_ms_p50", percentile(&compact_ms, 50.0));
            report.set("emtree.compact_ms_max", percentile(&compact_ms, 100.0));
        }
        // Even rounds ran under spans, odd rounds did not.
        let rounds_of = |parity: usize| -> Vec<f64> {
            played
                .round_s
                .iter()
                .skip(parity)
                .step_by(2)
                .copied()
                .collect()
        };
        report.set(
            "bench.trace_overhead_ratio",
            median(&rounds_of(0)) / median(&rounds_of(1)),
        );
        let ms = |name: &str| sorted(rec.seconds_of(name).iter().map(|s| s * 1e3).collect());
        let flush_ms = ms("emserve.flush_batch");
        report.set("emserve.flush_batch_ms_p50", percentile(&flush_ms, 50.0));
        report.set("emserve.flush_batch_ms_max", percentile(&flush_ms, 100.0));
        report.set(
            "emserve.get_us_p50",
            percentile(&ms("emserve.get"), 50.0) * 1e3,
        );
        unjournaled_twin(ctx, &tape, io.total(), &mut rec, &mut report);
        ctx.write_trace(&rec);
    }
    report.set("peak_rss_mb", peak_rss_mib());
    report
}

/// The same tape on an unjournaled `Shard::new` on a RAM device: its
/// transfers are the absorber's and the tree's alone, which prices the
/// journal by difference.
fn unjournaled_twin(
    ctx: &Ctx,
    tape: &WriteTape,
    journaled_transfers: u64,
    rec: &mut Recorder,
    report: &mut Report,
) {
    let device = ram_array(BLOCK_BYTES) as SharedDevice;
    let mut twin: Shard<u64, u64> = Shard::new(
        device.clone(),
        POOL_FRAMES,
        ABSORBER_MEM,
        compact_threshold(ctx),
    )
    .expect("create unjournaled shard");
    let (played, id) = rec.scope("serve_write.unjournaled_twin", 1, Some(&device), |_| {
        play(&mut twin, tape, report, None)
    });
    let span = rec.span(id);
    let transfers = span.count("reads") + span.count("writes");
    report.set(
        "emtree.absorber_transfers_per_op",
        ratio(transfers, played.acked as f64),
    );
    report.set(
        "emserve.journal_transfer_ratio",
        ratio(journaled_transfers as f64, transfers),
    );
}
