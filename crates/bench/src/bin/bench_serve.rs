//! Serving-layer benchmark: sharded multi-tenant KV serving with batched
//! buffer-tree writes and a hot-key read cache, vs. write-through serving.
//!
//! The survey's amortized bound — buffer-tree updates at
//! `O((1/B)·log_{M/B}(N/B))` I/Os vs. `Θ(log_B N)` per B-tree update — only
//! becomes a *serving* win if an online layer actually absorbs point writes
//! into batches.  This bench drives `emserve` with Zipfian YCSB-style
//! open-loop load and measures exactly that:
//!
//! * **Workload matrix**: YCSB-A (50 % reads, writes with a 10 % delete
//!   mix), YCSB-B (95 % reads), YCSB-C (100 % reads), each over a scrambled
//!   Zipfian (θ = 0.99) key popularity per tenant, at `D ∈ {1, 2, 4}`
//!   member disks × {batched, unbatched} × {sync, overlapped}, on
//!   file-backed independent-placement arrays with simulated per-block
//!   service time.  Shard count is fixed (4 drain threads) so the `D` sweep
//!   isolates *disk* parallelism: shards pin to lanes `s mod D`.
//! * **Per cell**: throughput, p50/p99/p999 completion latency, transfers
//!   per op (via `IoStats::snapshot_delta` over the measured window), hot
//!   cache and buffer-pool hit rates, batches and compactions — and a full
//!   correctness audit: every acknowledged write must be visible in the
//!   final state (compared against an in-memory replay of the same tape).
//! * **Ingest calibration**: a pure-put cell pair at `D = 4` feeds the
//!   headline guard (batched ≥ 3× unbatched ingest throughput), and a
//!   `D = 1` transfer-count pair against a *plain* `BufferTree` bounds the
//!   serving layer's overhead (≤ 2× the raw absorber's transfers per op).
//! * **Degradation**: the same paced YCSB-A run on a clean array vs. one
//!   with cured transient faults (`FaultPlan` + `RetryPolicy`): p99 may
//!   inflate only boundedly, and zero acknowledged writes may be lost.
//!
//! * **Crash recovery** (`--crash`): the journaled shard swept over kill
//!   points at three (D, placement) cells — zero lost acks at every one —
//!   and the **journal ledger**: one write tape run unjournaled and
//!   journaled on identical media, the journal's cost read off as exact
//!   counts by category.
//!
//! Perf guards run on the full benchmark only — they are scale-dependent
//! and `--smoke` is CI-sized.  Correctness guards (zero lost acks,
//! deterministic final state under a fixed seed, cured faults) and the
//! ledger's count guards (journaled ≤ 2.0× unjournaled transfers; no apply
//! transfer without a shadowed write) run always.
//!
//! ```text
//! cargo run --release -p bench --bin bench_serve [-- --smoke] [--crash]
//! ```
//!
//! Results go to stdout as markdown tables and to `BENCH_serve.json`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use emserve::{CompletionSink, ReqKind, Request, ServeConfig, Server, Shard};
use emtree::BufferTree;
use pdm::{
    BlockDevice, BlockId, CrashSwitch, DiskArray, FaultDisk, FaultPlan, IoMode, IoStats, Journal,
    Placement, RamDisk, RetryPolicy, SharedDevice, WalOverhead,
};
use rand::{Rng, SeedableRng, StdRng};

/// Bytes per physical block.
const PHYS_BLOCK: usize = 1024;
/// Simulated device service time per block transfer (file-backed cells).
const SERVICE_US: u64 = 100;
/// Tenant namespaces sharing every server.
const TENANTS: usize = 2;
/// Drain threads (and lanes used when `D = 4`); fixed across the `D` sweep.
const SHARDS: usize = 4;
/// YCSB Zipfian skew.
const ZIPF_THETA: f64 = 0.99;
/// Open batch flushes at this many writes...
const BATCH_MAX: usize = 256;
/// ...or once its first op has waited this long.
const BATCH_DEADLINE: Duration = Duration::from_millis(2);
/// Absorber memory budget (event records) and compaction trigger (delta keys).
const ABSORBER_MEM: usize = 16_384;
const COMPACT_THRESHOLD: usize = 16_384;
/// Ingest queue bound per shard.
const QUEUE_DEPTH: usize = 4096;
/// Deletes as a fraction of YCSB-A writes (exercises the tombstone path).
const DELETE_FRAC: f64 = 0.10;

struct Sizing {
    keys_per_tenant: u64,
    /// Measured ops per matrix cell.
    ops: usize,
    /// Ops in each ingest-calibration cell.
    cal_ops: usize,
    /// Ops in each paced (open-loop) fault-comparison run.
    paced_ops: usize,
    /// Target inter-arrival gap of the paced runs.
    pace: Duration,
    pool_frames: usize,
    cache_records: usize,
    /// Whether the scale-dependent perf guards are enforced.
    perf_guards: bool,
}

fn sizing(smoke: bool) -> Sizing {
    if smoke {
        Sizing {
            keys_per_tenant: 4_000,
            ops: 1_500,
            cal_ops: 8_000,
            paced_ops: 800,
            pace: Duration::from_micros(250),
            pool_frames: 64,
            cache_records: 1_024,
            perf_guards: false,
        }
    } else {
        Sizing {
            keys_per_tenant: 24_000,
            ops: 12_000,
            cal_ops: 160_000,
            paced_ops: 8_000,
            pace: Duration::from_micros(250),
            pool_frames: 512,
            cache_records: 8_192,
            perf_guards: true,
        }
    }
}

// ---------------------------------------------------------------- load gen

/// YCSB-style Zipfian rank generator (Gray et al. quick method), θ < 1.
struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zeta = |n: u64| -> f64 { (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum() };
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Popularity rank in `[0, n)`: rank 0 is the hottest.
    fn next(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// FNV-1a scramble of a popularity rank onto a key id, so hot keys scatter
/// across the keyspace (and therefore across leaves and shards) instead of
/// clustering at low ids.
fn scramble(rank: u64, n: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in rank.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h % n
}

#[derive(Clone)]
enum OpKind {
    Put(u64),
    Delete,
    Get,
}

struct OpRec {
    tenant: u32,
    key: u64,
    kind: OpKind,
}

/// Deterministic request tape: `ops` requests, `read_frac` gets, writes
/// split `del_frac` deletes / rest puts, keys Zipf-popular per tenant.
fn gen_tape(
    seed: u64,
    ops: usize,
    keys_per_tenant: u64,
    read_frac: f64,
    del_frac: f64,
) -> Vec<OpRec> {
    let zipf = Zipf::new(keys_per_tenant, ZIPF_THETA);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ops)
        .map(|_| {
            let tenant = rng.gen_range(0..TENANTS as u32);
            let key = scramble(zipf.next(&mut rng), keys_per_tenant);
            let kind = if rng.gen_bool(read_frac) {
                OpKind::Get
            } else if del_frac > 0.0 && rng.gen_bool(del_frac) {
                OpKind::Delete
            } else {
                OpKind::Put(rng.gen::<u64>())
            };
            OpRec { tenant, key, kind }
        })
        .collect()
}

/// Deterministic preload value for `(tenant, key)`.
fn preload_value(tenant: u32, key: u64) -> u64 {
    u64::from(tenant) * 1_000_000_007 + key * 31 + 1
}

// ------------------------------------------------------------- completions

/// Records one completion timestamp per op id (nanoseconds from a shared
/// origin) — the latency source for every percentile reported here.
struct LatSink {
    t0: Instant,
    done_ns: Vec<AtomicU64>,
    acks: AtomicU64,
    gets_done: AtomicU64,
}

impl LatSink {
    fn new(t0: Instant, slots: usize) -> Arc<Self> {
        Arc::new(LatSink {
            t0,
            done_ns: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            acks: AtomicU64::new(0),
            gets_done: AtomicU64::new(0),
        })
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }
}

impl CompletionSink<u64> for LatSink {
    fn acked_write(&self, _tenant: u32, op_id: u64) {
        self.done_ns[op_id as usize].store(self.now_ns(), Ordering::Release);
        self.acks.fetch_add(1, Ordering::Relaxed);
    }

    fn got(&self, _tenant: u32, op_id: u64, _value: Option<u64>) {
        self.done_ns[op_id as usize].store(self.now_ns(), Ordering::Release);
        self.gets_done.fetch_add(1, Ordering::Relaxed);
    }
}

fn pctile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

// ------------------------------------------------------------------ cells

struct CellResult {
    workload: &'static str,
    d: usize,
    mode: &'static str,
    batched: bool,
    ops: usize,
    wall: f64,
    thrpt: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    transfers: u64,
    transfers_per_op: f64,
    cache_hit_rate: f64,
    pool_hit_rate: f64,
    batches: u64,
    compactions: u64,
    retries: u64,
    faults: u64,
}

struct CellOut {
    result: CellResult,
    /// `(tenant, key, value)` triples of the post-run dictionary.
    final_state: Vec<(u32, u64, u64)>,
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bench-serve-{tag}-{}", std::process::id()));
    p
}

fn serve_config(s: &Sizing, batched: bool) -> ServeConfig {
    let mut cfg = ServeConfig::new(SHARDS, TENANTS);
    cfg.queue_depth = QUEUE_DEPTH;
    cfg.batch_max = BATCH_MAX;
    cfg.batch_deadline = BATCH_DEADLINE;
    cfg.compact_threshold = COMPACT_THRESHOLD;
    cfg.pool_frames = s.pool_frames;
    cfg.absorber_mem = ABSORBER_MEM;
    cfg.cache_records = s.cache_records;
    cfg.batched = batched;
    cfg
}

/// Run one serving cell on `array`: preload the keyspace, replay `tape`
/// (optionally open-loop paced), measure, audit the final state against an
/// in-memory replay, and tear down.
#[allow(clippy::too_many_arguments)]
fn run_cell_on(
    array: Arc<DiskArray>,
    workload: &'static str,
    d: usize,
    mode_label: &'static str,
    batched: bool,
    tape: &[OpRec],
    s: &Sizing,
    pace: Option<Duration>,
) -> CellOut {
    let preload_ops = TENANTS as u64 * s.keys_per_tenant;
    let slots = preload_ops as usize + tape.len();
    let t0 = Instant::now();
    let sink = LatSink::new(t0, slots);
    let srv: Server<u64, u64> =
        Server::new(array.clone(), serve_config(s, batched), sink.clone()).expect("server");

    // Preload every key of every tenant, then settle (flush + compact) so
    // the measured window starts from a serving-shaped tree.
    let mut op_id = 0u64;
    for t in 0..TENANTS as u32 {
        for k in 0..s.keys_per_tenant {
            srv.submit(Request {
                tenant: t,
                op_id,
                kind: ReqKind::Put(k, preload_value(t, k)),
            })
            .expect("preload submit");
            op_id += 1;
        }
    }
    srv.barrier().expect("preload barrier");
    srv.compact_all().expect("preload compact");

    // Measured window.
    let before = array.stats().snapshot();
    let (cache_h0, cache_m0) = (srv.stats().cache_hits(), srv.stats().cache_misses());
    let (pool_h0, pool_m0) = srv.pool_hit_stats();
    let batches0 = srv.stats().batches();
    let compactions0 = srv.stats().compactions();

    let first_id = op_id;
    let mut submit_ns: Vec<u64> = Vec::with_capacity(tape.len());
    let start = Instant::now();
    for (i, op) in tape.iter().enumerate() {
        if let Some(gap) = pace {
            // Open loop: arrival times are scheduled, not reactive.  If the
            // server lags, the lag lands in the latency, not the schedule.
            let due = start + gap * i as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            submit_ns.push((due - t0).as_nanos() as u64);
        } else {
            submit_ns.push(t0.elapsed().as_nanos() as u64);
        }
        let kind = match &op.kind {
            OpKind::Put(v) => ReqKind::Put(op.key, *v),
            OpKind::Delete => ReqKind::Delete(op.key),
            OpKind::Get => ReqKind::Get(op.key),
        };
        srv.submit(Request {
            tenant: op.tenant,
            op_id,
            kind,
        })
        .expect("submit");
        op_id += 1;
    }
    srv.barrier().expect("measured barrier");
    let wall = start.elapsed().as_secs_f64();

    let delta = array.stats().snapshot_delta(&before);
    let (cache_h, cache_m) = (
        srv.stats().cache_hits() - cache_h0,
        srv.stats().cache_misses() - cache_m0,
    );
    let (pool_h1, pool_m1) = srv.pool_hit_stats();
    let (pool_h, pool_m) = (pool_h1 - pool_h0, pool_m1 - pool_m0);

    // Every write (preload + measured) must have been acknowledged.
    let writes_submitted = preload_ops
        + tape
            .iter()
            .filter(|o| !matches!(o.kind, OpKind::Get))
            .count() as u64;
    assert_eq!(
        sink.acks.load(Ordering::Relaxed),
        writes_submitted,
        "{workload} d={d} {mode_label} batched={batched}: unacked writes"
    );

    // Latencies of the measured ops only.
    let mut lat: Vec<u64> = (0..tape.len())
        .map(|i| {
            let done = sink.done_ns[(first_id as usize) + i].load(Ordering::Acquire);
            done.saturating_sub(submit_ns[i])
        })
        .collect();
    lat.sort_unstable();

    // Zero lost acknowledged writes: final state == in-memory replay.
    let mut reference: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    for t in 0..TENANTS as u32 {
        for k in 0..s.keys_per_tenant {
            reference.insert((t, k), preload_value(t, k));
        }
    }
    for op in tape {
        match op.kind {
            OpKind::Put(v) => {
                reference.insert((op.tenant, op.key), v);
            }
            OpKind::Delete => {
                reference.remove(&(op.tenant, op.key));
            }
            OpKind::Get => {}
        }
    }
    let mut final_state: Vec<(u32, u64, u64)> = Vec::with_capacity(reference.len());
    for t in 0..TENANTS as u32 {
        for (k, v) in srv.range(t, 0, u64::MAX).expect("final range") {
            final_state.push((t, k, v));
        }
    }
    let want: Vec<(u32, u64, u64)> = reference.iter().map(|(&(t, k), &v)| (t, k, v)).collect();
    assert_eq!(
        final_state, want,
        "{workload} d={d} {mode_label} batched={batched}: final state diverged \
         (acknowledged write lost or phantom record)"
    );

    // Faults and retries are audited over the whole run (preload included) —
    // the cure matters everywhere, not just inside the measured window.
    let lifetime = array.stats().snapshot();
    let result = CellResult {
        workload,
        d,
        mode: mode_label,
        batched,
        ops: tape.len(),
        wall,
        thrpt: tape.len() as f64 / wall,
        p50_us: pctile_us(&lat, 0.50),
        p99_us: pctile_us(&lat, 0.99),
        p999_us: pctile_us(&lat, 0.999),
        transfers: delta.total(),
        transfers_per_op: delta.total() as f64 / tape.len() as f64,
        cache_hit_rate: if cache_h + cache_m == 0 {
            0.0
        } else {
            cache_h as f64 / (cache_h + cache_m) as f64
        },
        pool_hit_rate: if pool_h + pool_m == 0 {
            0.0
        } else {
            pool_h as f64 / (pool_h + pool_m) as f64
        },
        batches: srv.stats().batches() - batches0,
        compactions: srv.stats().compactions() - compactions0,
        retries: lifetime.retries(),
        faults: lifetime.faults_injected(),
    };
    srv.shutdown().expect("shutdown");
    CellOut {
        result,
        final_state,
    }
}

fn run_cell(
    workload: &'static str,
    d: usize,
    mode: IoMode,
    batched: bool,
    tape: &[OpRec],
    s: &Sizing,
) -> CellOut {
    let mode_label = match mode {
        IoMode::Synchronous => "sync",
        IoMode::Overlapped => "overlapped",
    };
    let dir = tmpdir(&format!(
        "{workload}-d{d}-{mode_label}-{}",
        if batched { "batched" } else { "unbatched" }
    ));
    let array = DiskArray::new_file_with_service(
        &dir,
        d,
        PHYS_BLOCK,
        Placement::Independent,
        mode,
        Duration::from_micros(SERVICE_US),
    )
    .expect("create disk array");
    let out = run_cell_on(array, workload, d, mode_label, batched, tape, s, None);
    std::fs::remove_dir_all(&dir).ok();
    out
}

// ----------------------------------------------------- ingest calibration

struct CalResult {
    label: &'static str,
    d: usize,
    batched: bool,
    ops: usize,
    wall: f64,
    thrpt: f64,
    transfers: u64,
    transfers_per_op: f64,
}

/// Pure-put ingest of `ops` uniform-random keys (no preload, no reads):
/// the write-absorption half of the tentpole, isolated.
fn run_ingest(
    label: &'static str,
    array: Arc<DiskArray>,
    d: usize,
    batched: bool,
    ops: usize,
    s: &Sizing,
) -> CalResult {
    let t0 = Instant::now();
    let sink = LatSink::new(t0, ops);
    let mut cfg = serve_config(s, batched);
    cfg.compact_threshold = usize::MAX; // isolate absorption from compaction
    let srv: Server<u64, u64> = Server::new(array.clone(), cfg, sink.clone()).expect("server");
    let mut rng = StdRng::seed_from_u64(0xCA11);
    let before = array.stats().snapshot();
    let start = Instant::now();
    for i in 0..ops {
        srv.submit(Request {
            tenant: (i % TENANTS) as u32,
            op_id: i as u64,
            kind: ReqKind::Put(rng.gen_range(0..u64::MAX / 2), rng.gen::<u64>()),
        })
        .expect("ingest submit");
    }
    srv.barrier().expect("ingest barrier");
    let wall = start.elapsed().as_secs_f64();
    let delta = array.stats().snapshot_delta(&before);
    assert_eq!(sink.acks.load(Ordering::Relaxed), ops as u64);
    srv.shutdown().expect("shutdown");
    CalResult {
        label,
        d,
        batched,
        ops,
        wall,
        thrpt: ops as f64 / wall,
        transfers: delta.total(),
        transfers_per_op: delta.total() as f64 / ops as f64,
    }
}

/// Transfers per op of a *plain* `BufferTree` absorbing the same marked
/// records the server's shards store — the amortized baseline the serving
/// layer is held to (within 2×).
fn buffer_tree_baseline(ops: usize) -> f64 {
    let array = DiskArray::new_ram(1, PHYS_BLOCK, Placement::Independent);
    let device: SharedDevice = array.clone();
    let mut bt: BufferTree<(u32, u64), (u64, u8)> = BufferTree::new(device, ABSORBER_MEM);
    let mut rng = StdRng::seed_from_u64(0xCA11);
    let before = array.stats().snapshot();
    for i in 0..ops {
        bt.insert(
            ((i % TENANTS) as u32, rng.gen_range(0..u64::MAX / 2)),
            (rng.gen::<u64>(), 0),
        )
        .expect("baseline insert");
    }
    let delta = array.stats().snapshot_delta(&before);
    delta.total() as f64 / ops as f64
}

// ------------------------------------------------------------- fault runs

struct FaultRun {
    label: &'static str,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    retries: u64,
    faults: u64,
}

fn run_fault_pair(s: &Sizing) -> (FaultRun, FaultRun) {
    let tape = gen_tape(0xFA117, s.paced_ops, s.keys_per_tenant, 0.5, DELETE_FRAC);
    let d = 4;
    // RAM-backed so the only latency differences come from the faults.
    let clean = DiskArray::new_ram(d, PHYS_BLOCK, Placement::Independent);
    let clean_out = run_cell_on(
        clean,
        "fault-clean",
        d,
        "sync",
        true,
        &tape,
        s,
        Some(s.pace),
    );

    let plans: Vec<FaultPlan> = (0..d)
        .map(|disk| {
            FaultPlan::new(0xBAD + disk as u64)
                .with_transient(60, 2)
                .with_latency(20, Duration::from_micros(500))
        })
        .collect();
    let faulty = DiskArray::new_ram_faulty(
        d,
        PHYS_BLOCK,
        Placement::Independent,
        IoMode::Synchronous,
        &plans,
        RetryPolicy::new(4, Duration::from_micros(100)),
    );
    let fault_out = run_cell_on(
        faulty,
        "fault-cured",
        d,
        "sync",
        true,
        &tape,
        s,
        Some(s.pace),
    );

    let mk = |label, out: &CellOut| FaultRun {
        label,
        p50_us: out.result.p50_us,
        p99_us: out.result.p99_us,
        p999_us: out.result.p999_us,
        retries: out.result.retries,
        faults: out.result.faults,
    };
    // The degraded run must actually have been degraded — and cured.
    assert!(fault_out.result.faults > 0, "fault plan injected nothing");
    assert!(fault_out.result.retries > 0, "no retries recorded");
    assert_eq!(
        clean_out.final_state, fault_out.final_state,
        "cured faults changed the final dictionary"
    );
    (mk("clean", &clean_out), mk("cured-faults", &fault_out))
}

// ----------------------------------------------------- crash recovery cell

/// A deterministic journaled-shard write tape: rounds of puts and deletes,
/// one `flush_batch` and one `maybe_compact` per round.
struct CrashTape {
    rounds: u64,
    ops_per_round: u64,
    keys: u64,
    compact_threshold: usize,
}

/// The crash sweeps' tape: short, with a small threshold that forces
/// compactions into the sweep.
const SWEEP_TAPE: CrashTape = CrashTape {
    rounds: 8,
    ops_per_round: 8,
    keys: 48,
    compact_threshold: 16,
};
/// The journal ledger's tape: batches the size a server flushes and an
/// overlay that grows to hundreds of keys between its compactions, so a
/// checkpoint that costs more than its epoch changed shows in the ratio.
/// (On the sweeps' tape the two header writes of each of 12 checkpoints
/// alone exceed the 24 transfers of the unjournaled run.)
const LEDGER_TAPE: CrashTape = CrashTape {
    rounds: 64,
    ops_per_round: 32,
    keys: 4096,
    compact_threshold: 512,
};
/// Shard sizing for the crash cells.
const CRASH_POOL_FRAMES: usize = 16;
const CRASH_ABSORBER_MEM: usize = 2_048;
/// The ledger's guards.  The journal may add, per checkpoint, its two header
/// writes and the chain blocks of the manifests (3.3 on the ledger tape);
/// a compaction may move 5 % more blocks than the nodes of the tree it reads
/// and the tree it writes.
const LEDGER_MAX_PER_CHECKPOINT: f64 = 4.0;
const LEDGER_MAX_COMPACTION_RATIO: f64 = 1.05;

/// The surviving physical medium of one crash cell.
struct CrashMedium {
    rams: Vec<Arc<RamDisk>>,
    placement: Placement,
    stats: Arc<IoStats>,
}

impl CrashMedium {
    fn new(d: usize, placement: Placement) -> Self {
        let stats = IoStats::new(d, PHYS_BLOCK);
        let rams = (0..d)
            .map(|i| Arc::new(RamDisk::with_stats(PHYS_BLOCK, Arc::clone(&stats), i)))
            .collect();
        CrashMedium {
            rams,
            placement,
            stats,
        }
    }

    fn bare(&self) -> SharedDevice {
        DiskArray::from_devices(
            self.rams
                .iter()
                .map(|r| Arc::clone(r) as Arc<dyn BlockDevice>)
                .collect(),
            self.placement,
            IoMode::Synchronous,
            RetryPolicy::none(),
        )
    }

    fn crashy(&self, k: u64) -> SharedDevice {
        let switch = CrashSwitch::after(k);
        let disks = self
            .rams
            .iter()
            .enumerate()
            .map(|(i, r)| {
                FaultDisk::wrap(
                    Arc::clone(r) as SharedDevice,
                    FaultPlan::new(i as u64).with_crash(switch.clone()),
                ) as Arc<dyn BlockDevice>
            })
            .collect();
        DiskArray::from_devices(
            disks,
            self.placement,
            IoMode::Synchronous,
            RetryPolicy::none(),
        )
    }

    fn format(&self) -> [BlockId; 2] {
        let j = Journal::format(self.bare()).expect("format journal");
        j.header_blocks().expect("fresh journal has headers")
    }
}

/// Drive the scripted workload on `shard`, tracking the acked and
/// acked-plus-in-flight models; returns Err on crash.  `compact` runs the
/// round's `maybe_compact` (the ledger wraps it in its probe).
fn crash_script(
    shard: &mut Shard<u64, u64>,
    tape: &CrashTape,
    acked: &mut BTreeMap<u64, Option<u64>>,
    pending: &mut BTreeMap<u64, Option<u64>>,
    acks_delivered: &mut u64,
    mut compact: impl FnMut(&mut Shard<u64, u64>) -> pdm::Result<bool>,
) -> pdm::Result<()> {
    let mut op_id = 0u64;
    for round in 0..tape.rounds {
        for i in 0..tape.ops_per_round {
            let x = 0x5EED_u64.wrapping_add(round * 131 + i * 17);
            let key = x % tape.keys;
            let op = (!x.is_multiple_of(5)).then_some(x);
            shard.enqueue(1, op_id, key, op);
            pending.insert(key, op);
            op_id += 1;
        }
        let mut n = 0u64;
        shard.flush_batch(|_, _| n += 1)?;
        *acks_delivered += n;
        *acked = pending.clone();
        compact(shard)?;
    }
    Ok(())
}

/// One crash point: run the workload on a device that dies after `k`
/// transfers, reboot on the surviving medium, and audit.  Returns
/// `(crashed, acked_writes)`; panics if any acked write was lost or the
/// recovered state is not exactly one checkpoint.
fn crash_point(d: usize, placement: Placement, k: u64) -> (bool, u64, u64) {
    let tape = &SWEEP_TAPE;
    let m = CrashMedium::new(d, placement);
    let headers = m.format();
    let mut acked: BTreeMap<u64, Option<u64>> = BTreeMap::new();
    let mut pending: BTreeMap<u64, Option<u64>> = BTreeMap::new();
    let mut acks = 0u64;
    let mut crashed = true;
    if let Ok(j) = Journal::recover(m.crashy(k), headers) {
        if let Ok(mut s) = Shard::<u64, u64>::recover(
            j,
            CRASH_POOL_FRAMES,
            CRASH_ABSORBER_MEM,
            tape.compact_threshold,
        ) {
            crashed = crash_script(
                &mut s,
                tape,
                &mut acked,
                &mut pending,
                &mut acks,
                Shard::maybe_compact,
            )
            .is_err();
            // The crashed instance's destructor would free blocks the
            // recovered shard owns; leak it like the process it models.
            std::mem::forget(s);
        }
    }
    let j = Journal::recover(m.bare(), headers).expect("recovery on the surviving medium");
    let s = Shard::<u64, u64>::recover(
        j,
        CRASH_POOL_FRAMES,
        CRASH_ABSORBER_MEM,
        tape.compact_threshold,
    )
    .expect("shard recovery");
    s.check_invariants().expect("recovered shard consistent");
    let recovered: BTreeMap<u64, u64> = (0..tape.keys)
        .filter_map(|key| s.get(1, &key).expect("recovered get").map(|v| (key, v)))
        .collect();
    let live = |mdl: &BTreeMap<u64, Option<u64>>| -> BTreeMap<u64, u64> {
        mdl.iter().filter_map(|(&k, v)| v.map(|v| (k, v))).collect()
    };
    assert!(
        recovered == live(&acked) || recovered == live(&pending),
        "crash at {k} (d={d}): recovered state matches neither the acked \
         checkpoint nor the commit-but-unacked one — acked writes lost"
    );
    (crashed, acks, m.stats.snapshot().total())
}

struct CrashSweep {
    d: usize,
    placement: &'static str,
    points: usize,
    mid_run_crashes: usize,
    total_transfers: u64,
}

/// Sweep crash points across the whole transfer range of the workload.
fn crash_sweep(d: usize, placement: Placement, label: &'static str, points: usize) -> CrashSweep {
    let (crashed, _, total) = crash_point(d, placement, u64::MAX);
    assert!(!crashed, "fault-free crash-cell run must complete");
    let step = (total / points as u64).max(1);
    let mut mid_run_crashes = 0;
    let mut swept = 0;
    for k in (0..total).step_by(step as usize) {
        let (crashed, acks, _) = crash_point(d, placement, k);
        swept += 1;
        if crashed && acks > 0 {
            mid_run_crashes += 1;
        }
    }
    assert!(
        mid_run_crashes > 0,
        "crash sweep (d={d}, {label}) never crashed after an acked batch"
    );
    CrashSweep {
        d,
        placement: label,
        points: swept,
        mid_run_crashes,
        total_transfers: total,
    }
}

/// One compaction of the ledger tape: the transfers it issued against the
/// nodes of the tree it read plus the tree it wrote — its floor.
#[derive(Debug, PartialEq)]
struct CompactionRow {
    transfers: u64,
    nodes: u64,
}

struct OverheadCell {
    unjournaled_reads: u64,
    unjournaled_writes: u64,
    journaled_reads: u64,
    journaled_writes: u64,
    wal: WalOverhead,
    compactions: Vec<CompactionRow>,
}

impl OverheadCell {
    /// Journaled transfers over unjournaled transfers of the same tape.
    /// Reported, not guarded: it moves when the denominator does.
    fn ratio(&self) -> f64 {
        (self.journaled_reads + self.journaled_writes) as f64
            / (self.unjournaled_reads + self.unjournaled_writes) as f64
    }

    /// What the journal added per checkpoint.
    fn per_checkpoint(&self) -> f64 {
        self.wal.total() as f64 / self.wal.checkpoints as f64
    }

    /// Transfers over nodes, all compactions of the tape together.
    fn compaction_ratio(&self) -> f64 {
        let (transfers, nodes) = self
            .compactions
            .iter()
            .fold((0, 0), |(t, n), c| (t + c.transfers, n + c.nodes));
        transfers as f64 / nodes as f64
    }
}

/// Run the ledger tape unjournaled and journaled on identical D = 1 RAM
/// media and report the exact transfer counts.  Both runs are repeated to
/// assert the counts are deterministic — the journal's cost is an exact
/// number, not a distribution — and held to the ledger's guards.
///
/// The unjournaled twin flushes its pool wherever the journaled shard
/// checkpoints — after every batch and after every compaction — so the two
/// runs differ by the journal's own transfers and nothing else.  Nothing
/// but the tree is allocated on the twin's medium right after a compaction,
/// which gives the node counts without a read.
fn journal_overhead_cell() -> OverheadCell {
    let tape = &LEDGER_TAPE;
    let unjournaled = || -> (u64, u64, Vec<CompactionRow>) {
        let m = CrashMedium::new(1, Placement::Independent);
        let dev = m.bare();
        let mut s: Shard<u64, u64> = Shard::new(
            dev.clone(),
            CRASH_POOL_FRAMES,
            CRASH_ABSORBER_MEM,
            tape.compact_threshold,
        )
        .expect("unjournaled shard");
        let mut old_nodes = dev.allocated_blocks();
        let mut rows = Vec::new();
        let probe = |s: &mut Shard<u64, u64>| {
            s.pool().flush()?;
            let before = m.stats.snapshot().total();
            let compacted = s.maybe_compact()?;
            if compacted {
                s.pool().flush()?;
                let new_nodes = dev.allocated_blocks();
                rows.push(CompactionRow {
                    transfers: m.stats.snapshot().total() - before,
                    nodes: old_nodes + new_nodes,
                });
                old_nodes = new_nodes;
            }
            Ok(compacted)
        };
        let (mut a, mut p, mut n) = (BTreeMap::new(), BTreeMap::new(), 0);
        crash_script(&mut s, tape, &mut a, &mut p, &mut n, probe).expect("unjournaled run");
        let snap = m.stats.snapshot();
        (snap.reads(), snap.writes(), rows)
    };
    let journaled = || -> (u64, u64, WalOverhead) {
        let m = CrashMedium::new(1, Placement::Independent);
        let j = Journal::format(m.bare()).expect("format journal");
        let mut s: Shard<u64, u64> = Shard::with_journal(
            j.clone(),
            CRASH_POOL_FRAMES,
            CRASH_ABSORBER_MEM,
            tape.compact_threshold,
        )
        .expect("journaled shard");
        let (mut a, mut p, mut n) = (BTreeMap::new(), BTreeMap::new(), 0);
        crash_script(&mut s, tape, &mut a, &mut p, &mut n, Shard::maybe_compact)
            .expect("journaled run");
        let snap = m.stats.snapshot();
        (snap.reads(), snap.writes(), j.overhead())
    };

    let first = unjournaled();
    assert_eq!(
        first,
        unjournaled(),
        "unjournaled transfer counts must be deterministic"
    );
    let (ur, uw, compactions) = first;
    let first = journaled();
    assert_eq!(
        first,
        journaled(),
        "journaled transfer counts must be deterministic"
    );
    let (jr, jw, wal) = first;
    // A checkpoint costs what its epoch changed.  A tape that rewrote no
    // committed block (no shadow) has nothing to copy home.
    if wal.shadow_writes == 0 {
        assert_eq!(
            wal.apply_reads + wal.apply_writes,
            0,
            "journal ledger: apply transfers on a tape that rewrote no committed block"
        );
    }
    let cell = OverheadCell {
        unjournaled_reads: ur,
        unjournaled_writes: uw,
        journaled_reads: jr,
        journaled_writes: jw,
        wal,
        compactions,
    };
    // The journal owes its own transfers and nothing else …
    assert_eq!(
        (jr + jw) - (ur + uw),
        cell.wal.total(),
        "journal ledger: journaled {} - unjournaled {} transfers is not the journal's own {}",
        jr + jw,
        ur + uw,
        cell.wal.total()
    );
    // … a bounded number of them per checkpoint …
    assert!(
        cell.per_checkpoint() <= LEDGER_MAX_PER_CHECKPOINT,
        "journal ledger: {:.2} journal transfers per checkpoint (> {LEDGER_MAX_PER_CHECKPOINT})",
        cell.per_checkpoint()
    );
    // … and a compaction costs what it merges.
    assert!(!cell.compactions.is_empty(), "ledger tape never compacted");
    assert!(
        cell.compaction_ratio() <= LEDGER_MAX_COMPACTION_RATIO,
        "compaction ledger: {:.3} transfers per old + new tree node \
         (> {LEDGER_MAX_COMPACTION_RATIO})",
        cell.compaction_ratio()
    );
    cell
}

// ------------------------------------------------------------------- main

fn json_matrix_rows(results: &[CellResult]) -> Vec<String> {
    results
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": \"{}\", \"d\": {}, \"mode\": \"{}\", \"write_path\": \"{}\", \
                 \"ops\": {}, \"wall_seconds\": {:.6}, \"ops_per_sec\": {:.1}, \
                 \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}, \
                 \"transfers\": {}, \"transfers_per_op\": {:.4}, \
                 \"cache_hit_rate\": {:.4}, \"pool_hit_rate\": {:.4}, \
                 \"batches\": {}, \"compactions\": {}}}",
                r.workload,
                r.d,
                r.mode,
                if r.batched { "batched" } else { "unbatched" },
                r.ops,
                r.wall,
                r.thrpt,
                r.p50_us,
                r.p99_us,
                r.p999_us,
                r.transfers,
                r.transfers_per_op,
                r.cache_hit_rate,
                r.pool_hit_rate,
                r.batches,
                r.compactions
            )
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let crash = args.iter().any(|a| a == "--crash");
    let s = sizing(smoke);

    println!("# emserve: sharded multi-tenant KV serving under Zipfian load");
    println!(
        "\n{} tenants x {} keys each, {} shards, Zipf theta = {ZIPF_THETA}, \
         physical block = {PHYS_BLOCK} B, service = {SERVICE_US} us/transfer, \
         batch <= {BATCH_MAX} ops / {} ms deadline, pool = {} frames/shard, \
         cache = {} records/tenant, {} ops/cell{}\n",
        TENANTS,
        s.keys_per_tenant,
        SHARDS,
        BATCH_DEADLINE.as_millis(),
        s.pool_frames,
        s.cache_records,
        s.ops,
        if smoke { " (smoke)" } else { "" }
    );

    // ---- workload matrix ------------------------------------------------
    let workloads: [(&'static str, f64, f64); 3] =
        [("A", 0.5, DELETE_FRAC), ("B", 0.95, 0.0), ("C", 1.0, 0.0)];
    let mut results: Vec<CellResult> = Vec::new();
    let mut determinism_state: Option<Vec<(u32, u64, u64)>> = None;
    for (name, read_frac, del_frac) in workloads {
        let tape = gen_tape(
            0x5EED + name.len() as u64,
            s.ops,
            s.keys_per_tenant,
            read_frac,
            del_frac,
        );
        for d in [1usize, 2, 4] {
            for mode in [IoMode::Synchronous, IoMode::Overlapped] {
                for batched in [true, false] {
                    let out = run_cell(name, d, mode, batched, &tape, &s);
                    if name == "A" && d == 2 && mode == IoMode::Synchronous && batched {
                        determinism_state = Some(out.final_state);
                    }
                    results.push(out.result);
                }
            }
        }
    }

    println!("| wl | D | mode | writes | kops/s | p50 us | p99 us | p999 us | xfer/op | cache hit | pool hit | batches | compactions |");
    println!("|----|---|------|--------|--------|--------|--------|---------|---------|-----------|----------|---------|-------------|");
    for r in &results {
        println!(
            "| {} | {} | {} | {} | {:.1} | {:.0} | {:.0} | {:.0} | {:.3} | {:.1}% | {:.1}% | {} | {} |",
            r.workload,
            r.d,
            r.mode,
            if r.batched { "batched" } else { "unbatched" },
            r.thrpt / 1_000.0,
            r.p50_us,
            r.p99_us,
            r.p999_us,
            r.transfers_per_op,
            100.0 * r.cache_hit_rate,
            100.0 * r.pool_hit_rate,
            r.batches,
            r.compactions
        );
    }

    // ---- determinism: same tape + seed => same final dictionary ---------
    {
        let tape = gen_tape(0x5EED + 1, s.ops, s.keys_per_tenant, 0.5, DELETE_FRAC);
        let out = run_cell("A", 2, IoMode::Synchronous, true, &tape, &s);
        assert_eq!(
            determinism_state
                .as_ref()
                .expect("first A/2/sync/batched run"),
            &out.final_state,
            "same seed, different final state"
        );
        println!("\ndeterminism: A/D=2/sync/batched replayed bit-identically");
    }

    // ---- ingest calibration ---------------------------------------------
    let mut cals: Vec<CalResult> = Vec::new();
    for (d, batched) in [(4usize, true), (4, false), (1, true)] {
        let dir = tmpdir(&format!("cal-d{d}-{batched}"));
        let array = DiskArray::new_file_with_service(
            &dir,
            d,
            PHYS_BLOCK,
            Placement::Independent,
            IoMode::Synchronous,
            Duration::from_micros(SERVICE_US),
        )
        .expect("create disk array");
        cals.push(run_ingest("ingest", array, d, batched, s.cal_ops, &s));
        std::fs::remove_dir_all(&dir).ok();
    }
    let baseline_per_op = buffer_tree_baseline(s.cal_ops.min(40_000));

    println!("\n| ingest cell | D | writes | kops/s | xfer/op |");
    println!("|-------------|---|--------|--------|---------|");
    for c in &cals {
        println!(
            "| {} | {} | {} | {:.1} | {:.4} |",
            c.label,
            c.d,
            if c.batched { "batched" } else { "unbatched" },
            c.thrpt / 1_000.0,
            c.transfers_per_op
        );
    }
    println!("| plain BufferTree | 1 | n/a | n/a | {baseline_per_op:.4} |");

    // ---- fault degradation ----------------------------------------------
    let (clean, cured) = run_fault_pair(&s);
    println!("\n| paced A run | p50 us | p99 us | p999 us | faults | retries |");
    println!("|-------------|--------|--------|---------|--------|---------|");
    for f in [&clean, &cured] {
        println!(
            "| {} | {:.0} | {:.0} | {:.0} | {} | {} |",
            f.label, f.p50_us, f.p99_us, f.p999_us, f.faults, f.retries
        );
    }

    // ---- crash recovery --------------------------------------------------
    let mut crash_sweeps: Vec<CrashSweep> = Vec::new();
    let mut overhead: Option<OverheadCell> = None;
    if crash {
        let points = if smoke { 24 } else { 48 };
        crash_sweeps.push(crash_sweep(
            1,
            Placement::Independent,
            "independent",
            points,
        ));
        crash_sweeps.push(crash_sweep(
            4,
            Placement::Independent,
            "independent",
            points,
        ));
        crash_sweeps.push(crash_sweep(4, Placement::Striped, "striped", points));

        println!(
            "\n| crash sweep | D | placement | points | mid-run crashes | transfers | lost acks |"
        );
        println!(
            "|-------------|---|-----------|--------|-----------------|-----------|-----------|"
        );
        for c in &crash_sweeps {
            println!(
                "| shard | {} | {} | {} | {} | {} | 0 |",
                c.d, c.placement, c.points, c.mid_run_crashes, c.total_transfers
            );
        }

        let oc = journal_overhead_cell();
        println!(
            "\n| journal overhead ({} rounds x {} ops, D=1) | reads | writes |",
            LEDGER_TAPE.rounds, LEDGER_TAPE.ops_per_round
        );
        println!("|---------------------------------------|-------|--------|");
        println!(
            "| unjournaled | {} | {} |",
            oc.unjournaled_reads, oc.unjournaled_writes
        );
        println!(
            "| journaled | {} | {} |",
            oc.journaled_reads, oc.journaled_writes
        );
        println!(
            "\njournal breakdown: {} shadow writes (replace bare writes), \
             {} chain + {} header + {} apply-read + {} apply-write transfers \
             over {} checkpoints = journaled - unjournaled exactly, {:.2} per checkpoint \
             (<= {LEDGER_MAX_PER_CHECKPOINT}); journaled/unjournaled = {:.2}",
            oc.wal.shadow_writes,
            oc.wal.chain_writes,
            oc.wal.header_writes,
            oc.wal.apply_reads,
            oc.wal.apply_writes,
            oc.wal.checkpoints,
            oc.per_checkpoint(),
            oc.ratio()
        );
        println!("\n| compaction | transfers | old + new tree nodes | ratio |");
        println!("|------------|-----------|----------------------|-------|");
        for (i, c) in oc.compactions.iter().enumerate() {
            println!(
                "| {} | {} | {} | {:.3} |",
                i + 1,
                c.transfers,
                c.nodes,
                c.transfers as f64 / c.nodes as f64
            );
        }
        println!(
            "all compactions: {:.3} transfers per node (<= {LEDGER_MAX_COMPACTION_RATIO})",
            oc.compaction_ratio()
        );
        overhead = Some(oc);
    }

    // ---- JSON ------------------------------------------------------------
    let cal_rows: Vec<String> = cals
        .iter()
        .map(|c| {
            format!(
                "    {{\"cell\": \"{}\", \"d\": {}, \"write_path\": \"{}\", \"ops\": {}, \
                 \"wall_seconds\": {:.6}, \"ops_per_sec\": {:.1}, \"transfers\": {}, \
                 \"transfers_per_op\": {:.4}}}",
                c.label,
                c.d,
                if c.batched { "batched" } else { "unbatched" },
                c.ops,
                c.wall,
                c.thrpt,
                c.transfers,
                c.transfers_per_op
            )
        })
        .collect();
    let fault_rows: Vec<String> = [&clean, &cured]
        .iter()
        .map(|f| {
            format!(
                "    {{\"run\": \"{}\", \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
                 \"p999_us\": {:.1}, \"faults_injected\": {}, \"retries\": {}}}",
                f.label, f.p50_us, f.p99_us, f.p999_us, f.faults, f.retries
            )
        })
        .collect();
    let crash_rows: Vec<String> = crash_sweeps
        .iter()
        .map(|c| {
            format!(
                "    {{\"structure\": \"shard\", \"d\": {}, \"placement\": \"{}\", \
                 \"sweep_points\": {}, \"mid_run_crashes\": {}, \
                 \"workload_transfers\": {}, \"lost_acked_writes\": 0, \
                 \"recovered_to_a_checkpoint\": true}}",
                c.d, c.placement, c.points, c.mid_run_crashes, c.total_transfers
            )
        })
        .collect();
    let overhead_json = match &overhead {
        None => "null".to_string(),
        Some(oc) => format!(
            "{{\"rounds\": {}, \"ops_per_round\": {}, \"compact_threshold\": {}, \
             \"unjournaled_reads\": {}, \"unjournaled_writes\": {}, \
             \"journaled_reads\": {}, \"journaled_writes\": {}, \
             \"shadow_writes\": {}, \"chain_writes\": {}, \"chain_reads\": {}, \
             \"header_writes\": {}, \"header_reads\": {}, \"apply_reads\": {}, \
             \"apply_writes\": {}, \"checkpoints\": {}, \"added_transfers\": {}, \
             \"added_per_checkpoint\": {:.3}, \"compaction\": [{}], \
             \"compaction_transfers_per_node\": {:.3}}}",
            LEDGER_TAPE.rounds,
            LEDGER_TAPE.ops_per_round,
            LEDGER_TAPE.compact_threshold,
            oc.unjournaled_reads,
            oc.unjournaled_writes,
            oc.journaled_reads,
            oc.journaled_writes,
            oc.wal.shadow_writes,
            oc.wal.chain_writes,
            oc.wal.chain_reads,
            oc.wal.header_writes,
            oc.wal.header_reads,
            oc.wal.apply_reads,
            oc.wal.apply_writes,
            oc.wal.checkpoints,
            oc.wal.total(),
            oc.per_checkpoint(),
            oc.compactions
                .iter()
                .map(|c| format!(
                    "{{\"transfers\": {}, \"tree_nodes_old_plus_new\": {}}}",
                    c.transfers, c.nodes
                ))
                .collect::<Vec<_>>()
                .join(", "),
            oc.compaction_ratio()
        ),
    };
    let json = format!(
        "{{\n  \"benchmark\": \"serve_batched_vs_unbatched\",\n  \"tenants\": {TENANTS},\n  \
         \"keys_per_tenant\": {},\n  \"shards\": {SHARDS},\n  \"zipf_theta\": {ZIPF_THETA},\n  \
         \"physical_block_bytes\": {PHYS_BLOCK},\n  \"service_time_us\": {SERVICE_US},\n  \
         \"batch_max\": {BATCH_MAX},\n  \"batch_deadline_ms\": {},\n  \
         \"pool_frames\": {},\n  \"cache_records_per_tenant\": {},\n  \
         \"ops_per_cell\": {},\n  \"smoke\": {smoke},\n  \
         \"buffer_tree_baseline_transfers_per_op\": {baseline_per_op:.4},\n  \
         \"matrix\": [\n{}\n  ],\n  \"ingest\": [\n{}\n  ],\n  \"fault\": [\n{}\n  ],\n  \
         \"crash\": [\n{}\n  ],\n  \"journal_overhead\": {}\n}}\n",
        s.keys_per_tenant,
        BATCH_DEADLINE.as_millis(),
        s.pool_frames,
        s.cache_records,
        s.ops,
        json_matrix_rows(&results).join(",\n"),
        cal_rows.join(",\n"),
        fault_rows.join(",\n"),
        crash_rows.join(",\n"),
        overhead_json
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("\nwrote BENCH_serve.json");

    // ---- guards (after all output, so failures leave the evidence) ------
    if s.perf_guards {
        let find_cal = |d: usize, batched: bool| {
            cals.iter()
                .find(|c| c.d == d && c.batched == batched)
                .expect("calibration cell")
        };
        let (b, u) = (find_cal(4, true), find_cal(4, false));
        let speedup = b.thrpt / u.thrpt;
        assert!(
            speedup >= 3.0,
            "ingest at D=4: batched only {speedup:.2}x unbatched (need >= 3x)"
        );
        println!("guard: batched ingest {speedup:.1}x unbatched at D=4 (>= 3x)");

        let d1 = find_cal(1, true);
        let ratio = d1.transfers_per_op / baseline_per_op.max(1e-9);
        assert!(
            ratio <= 2.0,
            "serving overhead: {:.4} transfers/op vs plain buffer tree {:.4} \
             ({ratio:.2}x > 2x)",
            d1.transfers_per_op,
            baseline_per_op
        );
        println!(
            "guard: serving ingest within {ratio:.2}x of the plain buffer-tree \
             amortized bound (<= 2x)"
        );

        let c_cell = results
            .iter()
            .find(|r| r.workload == "C" && r.d == 4 && r.mode == "sync" && r.batched)
            .expect("C cell");
        assert!(
            c_cell.pool_hit_rate >= 0.80,
            "Zipfian-C pool hit rate {:.1}% < 80%",
            100.0 * c_cell.pool_hit_rate
        );
        println!(
            "guard: Zipfian-C buffer-pool hit rate {:.1}% (>= 80%)",
            100.0 * c_cell.pool_hit_rate
        );

        assert!(
            cured.p99_us <= 5.0 * clean.p99_us.max(1.0),
            "cured-fault p99 {:.0}us > 5x clean p99 {:.0}us",
            cured.p99_us,
            clean.p99_us
        );
        println!(
            "guard: cured-fault p99 {:.0}us within 5x of clean {:.0}us",
            cured.p99_us, clean.p99_us
        );
    } else {
        println!("smoke: perf guards skipped (correctness guards ran on every cell)");
    }
    println!("all guards passed");
}
