//! The model is enforced, not assumed: exceeding the declared internal
//! memory is a loud failure, and algorithms stay within their budgets.

use std::sync::Arc;
use std::time::Duration;

use em_core::hash::Draws;
use em_core::{EmConfig, ExtVec, MemBudget};
use emrel::{
    collect, sort_pipe, sort_scan, ExecConfig, FilterExec, GroupByExec, HashGroupByExec,
    HashJoinExec, MergeJoinExec, Order, ProjectExec, ScanExec,
};
use emserve::{CompletionSink, ReqKind, Request, ServeConfig, Server};
use emsort::{
    merge_sort, merge_sort_by, merge_sort_streaming, OverlapConfig, SortConfig, SortingWriter,
};
use pdm::{BufferPool, DiskArray, EvictionPolicy, IoMode, PdmError, Placement, SharedDevice};

#[test]
#[should_panic(expected = "memory budget exceeded")]
fn overcharging_a_budget_panics() {
    let budget = MemBudget::new(100);
    let _a = budget.charge(80);
    let _b = budget.charge(30);
}

#[test]
fn sorts_respect_their_declared_budget() {
    // MemBudget panics internally on violation, so completing the sort *is*
    // the assertion; also check the recorded high-water mark.
    let cfg = EmConfig::new(256, 16);
    let device = cfg.ram_disk();
    let m = cfg.mem_records::<u64>();
    let mut rng = Draws::new(2001);
    let data: Vec<u64> = (0..50_000).map(|_| rng.next_u64()).collect();
    let input = ExtVec::from_slice(device, &data).unwrap();
    let out = merge_sort(&input, &SortConfig::new(m)).unwrap();
    assert_eq!(out.len(), 50_000);
}

/// Two blocks form runs but cannot merge them: one merge charges `3B`.
/// Every sort of more than one load says so before it writes a block, and
/// one load still sorts in two blocks.
#[test]
fn two_blocks_of_memory_cannot_merge_and_say_so_before_writing() {
    let cfg = EmConfig::new(128, 16);
    let device = cfg.ram_disk();
    let b = cfg.block_records::<u64>();
    let sort_cfg = SortConfig::new(2 * b);
    let data: Vec<u64> = (0..5 * b as u64).rev().collect();
    let input = ExtVec::from_slice(device.clone(), &data).unwrap();
    let blocks = device.allocated_blocks();
    let before = device.stats().snapshot();
    let exceeded = |r: pdm::Result<()>| match r {
        Err(PdmError::MemoryExceeded { needed, available }) => {
            assert_eq!((needed, available), (3 * b, 2 * b));
        }
        other => panic!("expected MemoryExceeded, got {other:?}"),
    };
    exceeded(merge_sort(&input, &sort_cfg).map(|_| ()));
    exceeded(merge_sort_streaming(
        &input,
        &sort_cfg,
        |a, b| a < b,
        |_| Ok(()),
    ));
    let mut w = SortingWriter::new(device.clone(), &sort_cfg, |a: &u64, b: &u64| a < b);
    exceeded(data.iter().try_for_each(|&x| w.push(x)));
    assert_eq!(w.runs_spilled(), 0);
    drop(w);
    let d = device.stats().snapshot().since(&before);
    assert_eq!(d.writes(), 0, "nothing is written before the error");
    assert_eq!(device.allocated_blocks(), blocks);

    // One load never merges: two blocks are enough.
    let one = ExtVec::from_slice(device.clone(), &data[..2 * b]).unwrap();
    let mut expect = data[..2 * b].to_vec();
    expect.sort_unstable();
    assert_eq!(
        merge_sort(&one, &sort_cfg).unwrap().to_vec().unwrap(),
        expect
    );
    let mut w = SortingWriter::new(device, &sort_cfg, |a: &u64, b: &u64| a < b);
    for &x in &data[..2 * b] {
        w.push(x).unwrap();
    }
    assert_eq!(w.finish_sorted().unwrap().to_vec().unwrap(), expect);
}

#[test]
fn pool_refuses_to_exceed_frame_capacity() {
    let cfg = EmConfig::new(256, 4);
    let device = cfg.ram_disk();
    let ids: Vec<_> = (0..4).map(|_| device.allocate().unwrap()).collect();
    let pool = BufferPool::new(device, 2, EvictionPolicy::Lru);
    let _g0 = pool.read(ids[0]).unwrap();
    let _g1 = pool.read(ids[1]).unwrap();
    // Both frames pinned: a third access must fail rather than grow memory.
    match pool.read(ids[2]) {
        Err(PdmError::PoolExhausted) => {}
        Err(e) => panic!("expected PoolExhausted, got {e}"),
        Ok(_) => panic!("expected PoolExhausted, got a frame"),
    };
}

#[test]
fn budget_guard_scoping_releases_memory() {
    let budget = MemBudget::new(1000);
    {
        let _phase1 = budget.charge(900);
        assert_eq!(budget.available(), 100);
    }
    // Phase 1 memory released; phase 2 may use it all again.
    let _phase2 = budget.charge(1000);
    assert_eq!(budget.available(), 0);
    assert_eq!(budget.high_water(), 1000);
}

#[test]
fn device_io_accounting_is_exact_for_known_patterns() {
    // A full read-back of a V-block vector is exactly V reads; re-verified
    // here at the integration level because every experiment relies on it.
    let cfg = EmConfig::new(512, 8);
    let device = cfg.ram_disk();
    let v = ExtVec::from_slice(device.clone(), &(0u64..6400).collect::<Vec<_>>()).unwrap();
    let before = device.stats().snapshot();
    let _ = v.to_vec().unwrap();
    let d = device.stats().snapshot().since(&before);
    assert_eq!(d.reads(), v.num_blocks() as u64);
    assert_eq!(d.writes(), 0);
    assert_eq!(d.bytes(), v.num_blocks() as u64 * 512);
}

/// Peak records held by every budget `run` builds, read at an uncapped root
/// entered around it.  Every charge is released by the time it returns.
fn root_high_water<T>(run: impl FnOnce() -> T) -> (T, usize) {
    let root = MemBudget::new(usize::MAX);
    let entered = root.enter();
    let out = run();
    drop(entered);
    assert_eq!(root.used(), 0, "a charge outlived its caller");
    (out, root.high_water())
}

type Row = (u64, u64);
type Grp = (u64, u64, u64);

fn row_less(a: &Row, b: &Row) -> bool {
    a.0 < b.0
}

/// A RAM disk with overlap off, or two overlapped lanes at depth 2: the two
/// ends of the overlap axis, at 256-byte blocks.
fn report_device(overlapped: bool) -> (SharedDevice, OverlapConfig) {
    if overlapped {
        let d = DiskArray::new_ram_with(2, 256, Placement::Independent, IoMode::Overlapped);
        (d as SharedDevice, OverlapConfig::symmetric(2))
    } else {
        (EmConfig::new(256, 16).ram_disk(), OverlapConfig::off())
    }
}

/// `merge_sort_by` and a `SortingWriter` over 20 000 keys at `M` = 16
/// blocks: `(M, root high-water)` of each.
fn report_sorts(overlapped: bool) -> [(usize, usize); 2] {
    let (device, overlap) = report_device(overlapped);
    let m = 16 * 32;
    let cfg = SortConfig::new(m).with_overlap(overlap);
    let mut rng = Draws::new(58);
    let data: Vec<u64> = (0..20_000).map(|_| rng.next_u64()).collect();
    let input = ExtVec::from_slice(device.clone(), &data).unwrap();
    let mut expect = data.clone();
    expect.sort_unstable();
    let less = |a: &u64, b: &u64| a < b;
    let (sorted, by) = root_high_water(|| merge_sort_by(&input, &cfg, less).unwrap());
    assert_eq!(sorted.to_vec().unwrap(), expect);
    let (sorted, writer) = root_high_water(|| {
        let mut w = SortingWriter::new(device.clone(), &cfg, less);
        data.iter().for_each(|&x| w.push(x).unwrap());
        w.finish_sorted().unwrap()
    });
    assert_eq!(sorted.to_vec().unwrap(), expect);
    [(m, by), (m, writer)]
}

/// Q1 (filter, then sum per group) by sort and by hash, and Q3u (filtered
/// orders ⋈ lineitem) by merge join and by Grace hash join, each on its own
/// `M` of 16 blocks: `(M, root high-water)` of each, in that order.
fn report_plans(overlapped: bool) -> [(usize, usize); 4] {
    let (device, overlap) = report_device(overlapped);
    let m = 16 * 16;
    let cfg = ExecConfig {
        sort: SortConfig::new(m).with_overlap(overlap),
    };
    let mut rng = Draws::new(1998);
    let q1: Vec<Row> = (0..20_000)
        .map(|_| (rng.below(2_000), rng.next_u64()))
        .collect();
    let q1 = ExtVec::from_slice(device.clone(), &q1).unwrap();
    let keep = |r: &Row| !r.1.is_multiple_of(4);
    let mut orders: Vec<Row> = (0..2_000u64).map(|k| (k, k * 7)).collect();
    rng.shuffle(&mut orders);
    let mut lineitem: Vec<Row> = (0..2_000u64)
        .flat_map(|k| (0..k % 16).map(move |j| (k, k * 1000 + j)))
        .collect();
    rng.shuffle(&mut lineitem);
    let (orders, lineitem) = (
        ExtVec::from_slice(device.clone(), &orders).unwrap(),
        ExtVec::from_slice(device.clone(), &lineitem).unwrap(),
    );
    // The highest order is kept, so the merge join drains lineitem.
    let kept = |r: &Row| r.0 == 1_999 || r.0.is_multiple_of(7);
    let pad = |r: &Row| Some((r.0, r.1, 0u64));
    let sum = |acc: &mut u64, r: &Row| *acc = acc.wrapping_add(r.1);
    let sorted = |out: pdm::Result<ExtVec<Grp>>| {
        let mut v = out.unwrap().to_vec().unwrap();
        v.sort_unstable();
        v
    };

    let (q1_sort, q1_sort_hw) = root_high_water(|| {
        let mut rows = FilterExec::new(ScanExec::new(&q1), keep);
        sorted(sort_pipe(&mut rows, &device, &cfg, 0, row_less, |s| {
            let mut g = GroupByExec::new(
                s,
                |r: &Row| r.0,
                0u64,
                sum,
                |k, a, n| (k, a, n),
                Order::Key(0),
            );
            collect(&mut g, &device)
        }))
    });
    let (q1_hash, q1_hash_hw) = root_high_water(|| {
        let mut rows = FilterExec::new(ScanExec::new(&q1), keep);
        let mut g = HashGroupByExec::build(
            &mut rows,
            &device,
            &cfg,
            4,
            |r: &Row| r.0,
            0u64,
            sum,
            |k, a, n| (k, a, n),
        )
        .unwrap();
        sorted(collect(&mut g, &device))
    });
    assert_eq!(q1_sort, q1_hash);
    let (q3u_merge, q3u_merge_hw) = root_high_water(|| {
        sorted(sort_scan(
            &lineitem,
            Order::Unordered,
            &cfg,
            0,
            row_less,
            |lines| {
                let mut kept_orders = FilterExec::new(ScanExec::new(&orders), kept);
                sort_pipe(
                    &mut kept_orders,
                    &device,
                    &cfg,
                    0,
                    row_less,
                    |kept_orders| {
                        let join = MergeJoinExec::new(
                            kept_orders,
                            lines,
                            |l: &Row| l.0,
                            |r: &Row| r.0,
                            |l: &Row, r: &Row| (l.0, r.1),
                            m,
                        );
                        collect(&mut ProjectExec::new(join, pad, Order::Unordered), &device)
                    },
                )
            },
        ))
    });
    let (q3u_grace, q3u_grace_hw) = root_high_water(|| {
        let mut build = FilterExec::new(ScanExec::new(&orders), kept);
        let join = HashJoinExec::build(
            &mut build,
            ScanExec::new(&lineitem),
            &device,
            &cfg,
            4,
            false,
            |b: &Row| b.0,
            |p: &Row| p.0,
            |_: &Row, p: &Row| (p.0, p.1),
        )
        .unwrap();
        sorted(collect(
            &mut ProjectExec::new(join, pad, Order::Unordered),
            &device,
        ))
    });
    assert_eq!(q3u_merge, q3u_grace);
    [
        (m, q1_sort_hw),
        (m, q1_hash_hw),
        (m, q3u_merge_hw),
        (m, q3u_grace_hw),
    ]
}

struct NoSink;

impl CompletionSink<u64> for NoSink {
    fn acked_write(&self, _tenant: u32, _op_id: u64) {}
    fn got(&self, _tenant: u32, _op_id: u64, _value: Option<u64>) {}
}

/// A one-shard, two-tenant `Server` through 600 puts, a flush, a
/// compaction and 600 gets.  Its budgets are the tenants' record-cache
/// shares, so its `M` is two tenants' `cache_records`.
fn report_server() -> (usize, usize) {
    let mut cfg = ServeConfig::new(1, 2);
    cfg.batch_deadline = Duration::MAX;
    cfg.pool_frames = 16;
    cfg.cache_records = 32;
    let m = cfg.tenants * cfg.cache_records;
    let array = DiskArray::new_ram_with(1, 1024, Placement::Independent, IoMode::Synchronous);
    let ((), hw) = root_high_water(|| {
        let srv: Server<u64, u64> = Server::new(array, cfg, Arc::new(NoSink)).unwrap();
        let request = |op_id: u64, kind| Request {
            tenant: (op_id % 2) as u32,
            op_id,
            kind,
        };
        for i in 0..600u64 {
            srv.submit(request(i, ReqKind::Put(i * 7 % 600, i)))
                .unwrap();
        }
        srv.barrier().unwrap();
        srv.compact_all().unwrap();
        for i in 0..600u64 {
            srv.submit(request(i, ReqKind::Get(i * 11 % 600))).unwrap();
        }
        srv.barrier().unwrap();
        srv.shutdown().unwrap();
    });
    (m, hw)
}

/// Root high-water of each case, `(case, M, records)`.  The rows above `M`
/// are DESIGN.md's listed exceptions: overlap queues are headroom declared
/// beyond `M`, and a sort-merge join's lineitem merge stays open while the
/// orders sort.  A `SortingWriter` releases its chunk's `M` once the last
/// chunk is formed, so its final merge (and Q1's sort, which sorts through
/// one) holds what `merge_sort_by`'s does.
const ROOT_HIGH_WATER: &[(&str, usize, usize)] = &[
    ("sync merge_sort_by", 512, 512),
    ("sync SortingWriter", 512, 512),
    ("sync Q1 sort", 256, 256),
    ("sync Q1 hash", 256, 256),
    ("sync Q3u merge", 256, 320),
    ("sync Q3u grace", 256, 256),
    ("overlapped merge_sort_by", 512, 2432),
    ("overlapped SortingWriter", 512, 2432),
    ("overlapped Q1 sort", 256, 1280),
    ("overlapped Q1 hash", 256, 680),
    ("overlapped Q3u merge", 256, 1216),
    ("overlapped Q3u grace", 256, 680),
    ("Server", 64, 64),
];

/// What a whole sort, plan or `Server` holds, against its declared `M`: one
/// root entered around each, read after it returns.  Where a case fits `M`
/// the pin asserts it does; a case that moves must move its row.
#[test]
fn every_root_high_water_is_reported_against_m() {
    let mut rows: Vec<(String, usize, usize)> = Vec::new();
    for (overlapped, mode) in [(false, "sync"), (true, "overlapped")] {
        let [by, writer] = report_sorts(overlapped);
        let [q1_sort, q1_hash, q3u_merge, q3u_grace] = report_plans(overlapped);
        for (name, (m, hw)) in [
            ("merge_sort_by", by),
            ("SortingWriter", writer),
            ("Q1 sort", q1_sort),
            ("Q1 hash", q1_hash),
            ("Q3u merge", q3u_merge),
            ("Q3u grace", q3u_grace),
        ] {
            rows.push((format!("{mode} {name}"), m, hw));
        }
    }
    let (m, hw) = report_server();
    rows.push(("Server".to_string(), m, hw));
    let pinned: Vec<(String, usize, usize)> = ROOT_HIGH_WATER
        .iter()
        .map(|&(name, m, hw)| (name.to_string(), m, hw))
        .collect();
    assert_eq!(rows, pinned);
    for (name, m, hw) in &rows {
        let exception = name.starts_with("overlapped") || name == "sync Q3u merge";
        assert_eq!(hw > m, exception, "{name}: {hw} records against M = {m}");
    }
}
