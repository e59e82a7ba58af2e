//! The drain rule, end to end: overlap in the query engine is pure
//! scheduling.
//!
//! * **Invariance matrix.**  Every hash operator, the in-memory hash join
//!   under a group-by, the skew tape that takes the sort fallback, and the two sort-based
//!   candidates run over `D ∈ {1, 2, 4}` × {synchronous, overlapped} ×
//!   depth ∈ {0, 1, 2}: output byte-identical to the depth-0 run, reads and
//!   writes equal, not one prefetched block wasted, and the
//!   `bounds::hash_*_exact_ios` replay still exact.
//! * **It really overlaps, inside its memory.**  On two disks whose every
//!   transfer sleeps a fixed delay the hash pipelines keep both lanes' queues full, finish
//!   well ahead of the synchronous run at the same transfer counts, and
//!   never hold more than `M` plus the declared overlap headroom.

use std::time::{Duration, Instant};

use em_core::bounds::{hash_group_exact_ios, hash_join_exact_ios};
use em_core::{ExtVec, MemBudget};
use emrel::{
    collect, sort_pipe, sort_scan, ExecConfig, FilterExec, GroupByExec, HashGroupByExec,
    HashJoinExec, MergeJoinExec, Order, ProjectExec, QueryExec, ScanExec,
};
use emsort::{OverlapConfig, SortConfig};
use pdm::{DiskArray, FaultPlan, IoMode, IoSnapshot, Placement, RetryPolicy, SharedDevice};

type Row = (u64, u64);
type Grp = (u64, u64, u64);

const KEY: u32 = 1;
/// 256-byte blocks: 16 rows, 32 bare keys.
const BLOCK: usize = 256;
const B: usize = BLOCK / 16;

fn key_hash(k: u64) -> u64 {
    em_core::key_hash(&k)
}

fn rows(n: u64, keys: u64, seed: u64) -> Vec<Row> {
    (0..n)
        .map(|i| ((i.wrapping_mul(seed) ^ i >> 3) % keys, i))
        .collect()
}

fn less(a: &Row, b: &Row) -> bool {
    a.0 < b.0
}

fn keep(r: &Row) -> bool {
    !r.1.is_multiple_of(4)
}

fn cfg(m: usize, overlap: OverlapConfig) -> ExecConfig {
    ExecConfig {
        sort: SortConfig::new(m).with_overlap(overlap),
    }
}

fn sum_groups(
    child: &mut dyn QueryExec<Item = Row>,
    device: &SharedDevice,
    cfg: &ExecConfig,
    fan_out: usize,
) -> pdm::Result<ExtVec<Grp>> {
    let mut g = HashGroupByExec::build(
        child,
        device,
        cfg,
        fan_out,
        |r: &Row| r.0,
        0u64,
        |acc: &mut u64, r: &Row| *acc = acc.wrapping_add(r.1),
        |k, acc, n| (k, acc, n),
    )?;
    collect(&mut g, device)
}

/// What one pipeline run produced: its output flattened to words (in output
/// order), the device delta, and — for the hash operators — the transfer
/// count the planner's replay predicts.
struct Outcome {
    words: Vec<u64>,
    ios: IoSnapshot,
    predicted: Option<u64>,
}

/// Run `pipeline` inside a stats window and read its output back.
fn outcome<O: em_core::Record>(
    device: &SharedDevice,
    pipeline: impl FnOnce() -> pdm::Result<(ExtVec<O>, Option<u64>)>,
    flatten: impl Fn(&O) -> Vec<u64>,
) -> Outcome {
    let before = device.stats().snapshot();
    let (out, replay) = pipeline().unwrap();
    let ios = device.stats().snapshot().since(&before);
    let words = out.to_vec().unwrap().iter().flat_map(flatten).collect();
    Outcome {
        words,
        ios,
        predicted: replay.map(|r| r + out.num_blocks() as u64),
    }
}

fn grp_words(g: &Grp) -> Vec<u64> {
    vec![g.0, g.1, g.2]
}

fn row_words(r: &Row) -> Vec<u64> {
    vec![r.0, r.1]
}

/// The seven pipelines of the matrix, by name.
const CASES: [&str; 7] = [
    "hash group-by",
    "hash distinct",
    "grace join",
    "in-memory hash join under a hash group-by",
    "skew tape (sort fallback)",
    "sort group-by",
    "sort-merge join",
];

fn run_case(case: &str, device: &SharedDevice, overlap: OverlapConfig) -> Outcome {
    let load = |data: &[Row]| ExtVec::from_slice(device.clone(), data).unwrap();
    match case {
        "hash group-by" => {
            let data = rows(6000, 3000, 0x1234_5679);
            let (v, m, fan) = (load(&data), 16 * B, 4);
            let c = cfg(m, overlap);
            let hashes: Vec<u64> = data
                .iter()
                .filter(|r| keep(r))
                .map(|r| key_hash(r.0))
                .collect();
            let replay = v.num_blocks() as u64
                + hash_group_exact_ios(&hashes, m, B, fan, c.sort.effective_fan_in(B));
            outcome(
                device,
                || {
                    let mut filt = FilterExec::new(ScanExec::new(&v), keep);
                    Ok((sum_groups(&mut filt, device, &c, fan)?, Some(replay)))
                },
                grp_words,
            )
        }
        "hash distinct" => {
            let data = rows(5000, 900, 0xDEAD_BEF1);
            let (v, b8, fan) = (load(&data), BLOCK / 8, 4);
            let m = 8 * b8;
            let c = cfg(m, overlap);
            let hashes: Vec<u64> = data.iter().map(|r| key_hash(r.0)).collect();
            let replay = v.num_blocks() as u64
                + hash_group_exact_ios(&hashes, m, b8, fan, c.sort.effective_fan_in(b8));
            outcome(
                device,
                || {
                    let mut keys: ProjectExec<_, _, u64> =
                        ProjectExec::new(ScanExec::new(&v), |r: &Row| Some(r.0), Order::Unordered);
                    // Keyed on the whole record, a group-by is distinct.
                    let mut d = HashGroupByExec::build(
                        &mut keys,
                        device,
                        &c,
                        fan,
                        |k: &u64| *k,
                        (),
                        |_, _| {},
                        |k, (), _| k,
                    )?;
                    Ok((collect(&mut d, device)?, Some(replay)))
                },
                |k: &u64| vec![*k],
            )
        }
        "grace join" => {
            let (build, probe) = (rows(2000, 5000, 0xABCD_EF13), rows(6000, 5000, 0x1357_9BD1));
            let (bv, pv, m, fan) = (load(&build), load(&probe), 16 * B, 4);
            let c = cfg(m, overlap);
            let bh: Vec<u64> = build.iter().map(|r| key_hash(r.0)).collect();
            let ph: Vec<u64> = probe.iter().map(|r| key_hash(r.0)).collect();
            let replay = (bv.num_blocks() + pv.num_blocks()) as u64
                + hash_join_exact_ios(&bh, &ph, m, B, B, 16, fan);
            outcome(
                device,
                || {
                    let mut bscan = ScanExec::new(&bv);
                    let mut j: HashJoinExec<_, u64, Row, _, _, _, Grp> = HashJoinExec::build(
                        &mut bscan,
                        ScanExec::new(&pv),
                        device,
                        &c,
                        fan,
                        false,
                        |b: &Row| b.0,
                        |p: &Row| p.0,
                        |b, p| (b.0, b.1, p.1),
                    )?;
                    Ok((collect(&mut j, device)?, Some(replay)))
                },
                grp_words,
            )
        }
        "in-memory hash join under a hash group-by" => {
            // Fan-out 2 leaves the join R = 256 − 3·16 = 208 ≥ 200 build
            // rows, so it holds them and streams the facts past in their
            // own order; the group-by above spills at fan-out 4.
            let dims: Vec<Row> = (0..200u64).map(|k| (k, k * 100)).collect();
            let facts = rows(4000, 400, 0x9E37_79B9);
            let (bv, pv, m, fan) = (load(&dims), load(&facts), 16 * B, 4);
            let c = cfg(m, overlap);
            let bh: Vec<u64> = dims.iter().map(|r| key_hash(r.0)).collect();
            let ph: Vec<u64> = facts.iter().map(|r| key_hash(r.0)).collect();
            assert_eq!(hash_join_exact_ios(&bh, &ph, m, B, B, 16, 2), 0);
            let joined: Vec<u64> = facts
                .iter()
                .filter(|r| r.0 < 200)
                .map(|r| key_hash(r.0))
                .collect();
            let replay = (bv.num_blocks() + pv.num_blocks()) as u64
                + hash_group_exact_ios(&joined, m, B, fan, c.sort.effective_fan_in(B));
            outcome(
                device,
                || {
                    let mut bscan = ScanExec::new(&bv);
                    let mut j = HashJoinExec::build(
                        &mut bscan,
                        ScanExec::new(&pv),
                        device,
                        &c,
                        2,
                        false,
                        |b: &Row| b.0,
                        |p: &Row| p.0,
                        |b: &Row, p: &Row| (p.0, p.1.wrapping_add(b.1)),
                    )?;
                    Ok((sum_groups(&mut j, device, &c, fan)?, Some(replay)))
                },
                grp_words,
            )
        }
        "skew tape (sort fallback)" => {
            // M = (F+1)·B zeroes the hybrid table, so the all-equal tape
            // spills whole, cannot shrink, and is sorted instead.
            let data: Vec<Row> = (0..3000).map(|i| (7u64, i)).collect();
            let (v, m, fan) = (load(&data), 4 * B, 3);
            let c = cfg(m, overlap);
            let hashes: Vec<u64> = data.iter().map(|r| key_hash(r.0)).collect();
            let replay = v.num_blocks() as u64
                + hash_group_exact_ios(&hashes, m, B, fan, c.sort.effective_fan_in(B));
            let o = outcome(
                device,
                || {
                    let mut scan = ScanExec::new(&v);
                    Ok((sum_groups(&mut scan, device, &c, fan)?, Some(replay)))
                },
                grp_words,
            );
            // One group is one output block; every other write is a spill.
            assert!(o.ios.writes() > 1, "the skew tape spilled");
            o
        }
        "sort group-by" => {
            let data = rows(6000, 3000, 0x1234_5679);
            let (v, c) = (load(&data), cfg(16 * B, overlap));
            outcome(
                device,
                || {
                    let mut filt = FilterExec::new(ScanExec::new(&v), keep);
                    let out = sort_pipe(&mut filt, device, &c, KEY, less, |s| {
                        let mut g = GroupByExec::new(
                            s,
                            |r: &Row| r.0,
                            0u64,
                            |acc: &mut u64, r: &Row| *acc = acc.wrapping_add(r.1),
                            |k, acc, n| (k, acc, n),
                            Order::Key(KEY),
                        );
                        collect(&mut g, device)
                    })?;
                    Ok((out, None))
                },
                grp_words,
            )
        }
        "sort-merge join" => {
            let orders: Vec<Row> = rows(1500, 1 << 40, 0xABCD_EF13)
                .into_iter()
                .enumerate()
                .map(|(i, r)| (i as u64 * 7919 % 1500, r.1))
                .collect();
            let lines = rows(6000, 1500, 0x1357_9BD1);
            let (ov, lv, c) = (load(&orders), load(&lines), cfg(16 * B, overlap));
            outcome(
                device,
                || {
                    let out = sort_scan(&lv, Order::Unordered, &c, KEY, less, |lines| {
                        let mut kept = FilterExec::new(ScanExec::new(&ov), keep);
                        sort_pipe(&mut kept, device, &c, KEY, less, |orders| {
                            let mut j = MergeJoinExec::new(
                                orders,
                                lines,
                                |l: &Row| l.0,
                                |r: &Row| r.0,
                                |l: &Row, r: &Row| (l.0, r.1),
                                16 * B,
                            );
                            collect(&mut j, device)
                        })
                    })?;
                    Ok((out, None))
                },
                row_words,
            )
        }
        other => unreachable!("unknown case {other}"),
    }
}

#[test]
fn overlap_depth_mode_and_disks_never_move_an_output_or_a_count() {
    for case in CASES {
        let mut reference: Option<Outcome> = None;
        for d in [1usize, 2, 4] {
            for mode in [IoMode::Synchronous, IoMode::Overlapped] {
                for depth in [0usize, 1, 2] {
                    let device = DiskArray::new_ram_with(d, BLOCK, Placement::Independent, mode)
                        as SharedDevice;
                    let got = run_case(case, &device, OverlapConfig::symmetric(depth));
                    let cell = format!("{case}: D={d} {mode:?} depth={depth}");
                    assert_eq!(got.ios.prefetch_wasted(), 0, "{cell}");
                    if let Some(predicted) = got.predicted {
                        assert_eq!(got.ios.total(), predicted, "{cell}: replay not exact");
                    }
                    if depth > 0 {
                        assert_eq!(
                            got.ios.prefetch_hits(),
                            got.ios.prefetched(),
                            "{cell}: every block read ahead was consumed"
                        );
                        assert!(got.ios.prefetched() > 0, "{cell}: nothing read ahead");
                    }
                    // The first cell (D = 1, synchronous, depth 0) is the
                    // reference for all eighteen.
                    let Some(want) = &reference else {
                        reference = Some(got);
                        continue;
                    };
                    assert_eq!(got.words, want.words, "{cell}: output moved");
                    assert_eq!(
                        (got.ios.total(), got.ios.reads(), got.ios.writes()),
                        (want.ios.total(), want.ios.reads(), want.ios.writes()),
                        "{cell}: counts moved"
                    );
                }
            }
        }
    }
}

/// Two RAM disks whose every transfer sleeps `SERVICE` first, on its
/// lane's worker when overlapped.
fn timed_array(mode: IoMode) -> SharedDevice {
    let slow = FaultPlan::new(0).with_latency(1000, SERVICE);
    let plans = [slow.clone(), slow];
    let device = DiskArray::new_ram_faulty(
        2,
        1024,
        Placement::Independent,
        mode,
        &plans,
        RetryPolicy::none(),
    );
    device as SharedDevice
}

const SERVICE: Duration = Duration::from_millis(1);
const DEPTH: usize = 2;
/// 1 KiB blocks hold 64 rows.
const B_TIMED: usize = 64;

/// Wall time, device delta and output of one timed pipeline.
struct Timed {
    wall: Duration,
    ios: IoSnapshot,
    words: Vec<u64>,
}

/// Q1-hash shape, spilling: `Filter(Scan) → HashGroupBy → collect` with
/// more groups than the resident table holds.
fn timed_q1_hash(mode: IoMode) -> Timed {
    let device = timed_array(mode);
    let data = rows(16_000, 6_000, 0x1234_5679);
    let v = ExtVec::from_slice(device.clone(), &data).unwrap();
    let (m, fan) = (16 * B_TIMED, 7);
    let c = cfg(m, OverlapConfig::symmetric(DEPTH));
    let root = MemBudget::new(usize::MAX);
    let entered = root.enter();
    let before = device.stats().snapshot();
    let t0 = Instant::now();
    let mut filt = FilterExec::new(ScanExec::new(&v), keep);
    let mut g = HashGroupByExec::build(
        &mut filt,
        &device,
        &c,
        fan,
        |r: &Row| r.0,
        0u64,
        |acc: &mut u64, r: &Row| *acc = acc.wrapping_add(r.1),
        |k, acc, n| (k, acc, n),
    )
    .unwrap();
    let out = collect(&mut g, &device).unwrap();
    let wall = t0.elapsed();
    let ios = device.stats().snapshot().since(&before);
    drop((entered, g, filt));
    // M plus the declared headroom through every phase: the scan's
    // read-ahead, one pass's queues (a reader's read-ahead and F writers'
    // write-behind) and the sink's write-behind, each `DEPTH` blocks a disk.
    let lanes = device.stream_lanes();
    let headroom = (DEPTH * lanes * (2 + fan)) * B_TIMED + DEPTH * lanes * (1024 / 24);
    assert_eq!(root.high_water(), m + headroom, "{mode:?}");
    assert_eq!(root.used(), 0, "everything released once drained");
    let words = out.to_vec().unwrap().iter().flat_map(grp_words).collect();
    Timed { wall, ios, words }
}

/// Q3u-grace shape: `Project(HashJoin(Filter(Scan), Scan)) → collect`, the
/// build side partitioned once, every pair resident.
fn timed_q3u_grace(mode: IoMode) -> Timed {
    let device = timed_array(mode);
    let orders = rows(3_000, 1 << 40, 0xABCD_EF13)
        .into_iter()
        .enumerate()
        .map(|(i, r)| (i as u64, r.1))
        .collect::<Vec<Row>>();
    let lines = rows(12_000, 3_000, 0x1357_9BD1);
    let ov = ExtVec::from_slice(device.clone(), &orders).unwrap();
    let lv = ExtVec::from_slice(device.clone(), &lines).unwrap();
    let (m, fan) = (16 * B_TIMED, 7);
    let c = cfg(m, OverlapConfig::symmetric(DEPTH));
    let root = MemBudget::new(usize::MAX);
    let entered = root.enter();
    let before = device.stats().snapshot();
    let t0 = Instant::now();
    let mut build = FilterExec::new(ScanExec::new(&ov), keep);
    let join = HashJoinExec::build(
        &mut build,
        ScanExec::new(&lv),
        &device,
        &c,
        fan,
        false,
        |b: &Row| b.0,
        |p: &Row| p.0,
        |_b: &Row, p: &Row| (p.0, p.1),
    )
    .unwrap();
    let mut rows: ProjectExec<_, _, Grp> =
        ProjectExec::new(join, |r: &Row| Some((r.0, r.1, 0)), Order::Unordered);
    let out = collect(&mut rows, &device).unwrap();
    let wall = t0.elapsed();
    let ios = device.stats().snapshot().since(&before);
    drop((entered, build, rows));
    // M plus the declared headroom: the two scans' read-ahead, one pass's
    // queues in blocks of `B_build + B_probe` records, and the sink's
    // write-behind, each `DEPTH` blocks a disk.
    let lanes = device.stream_lanes();
    let headroom = DEPTH * lanes * ((2 + 2 * (1 + fan)) * B_TIMED + 1024 / 24);
    assert!(
        root.high_water() > m,
        "{mode:?}: overlap queues were charged"
    );
    assert!(root.high_water() <= m + headroom, "{mode:?}");
    assert_eq!(root.used(), 0, "everything released once drained");
    let words = out.to_vec().unwrap().iter().flat_map(grp_words).collect();
    Timed { wall, ios, words }
}

#[test]
fn hash_pipelines_overlap_on_two_disks_and_stay_inside_their_memory() {
    type Shape = fn(IoMode) -> Timed;
    let shapes: [(&str, Shape); 2] = [("Q1-hash", timed_q1_hash), ("Q3u-grace", timed_q3u_grace)];
    for (name, run) in shapes {
        let sync = run(IoMode::Synchronous);
        let fast = run(IoMode::Overlapped);
        assert_eq!(fast.words, sync.words, "{name}: output moved");
        assert_eq!(
            (fast.ios.reads(), fast.ios.writes()),
            (sync.ios.reads(), sync.ios.writes()),
            "{name}: counts moved"
        );
        assert_eq!(fast.ios.prefetch_wasted(), 0, "{name}");
        assert!(
            fast.ios.max_queue_depth() >= 2 * 2,
            "{name}: lanes' queues peaked at {} — a synchronous step is in the path",
            fast.ios.max_queue_depth()
        );
        assert!(
            fast.wall.as_secs_f64() < 0.7 * sync.wall.as_secs_f64(),
            "{name}: overlapped {:?} vs synchronous {:?} over {} transfers",
            fast.wall,
            sync.wall,
            sync.ios.total()
        );
    }
}
