//! T2 / F6 / F7 / F8 — external data-structure experiments.

use em_core::hash::Draws;
use em_core::{bounds, EmConfig};
use emtree::{BTree, BufferTree, ExtPriorityQueue, ExtQueue, ExtStack};
use pdm::{BufferPool, EvictionPolicy};

use crate::{fmt, measure, table};

/// T2 — B-tree search: worst-case lookup I/Os vs ⌈log_B N⌉, plus the
/// LRU-vs-FIFO buffer-pool ablation.
pub fn t2_btree_search() {
    let mut rows = Vec::new();
    for &(bb, n) in &[
        (256usize, 10_000u64),
        (256, 1_000_000),
        (1024, 1_000_000),
        (4096, 1_000_000),
    ] {
        let cfg = EmConfig::new(bb, 8);
        let device = cfg.ram_disk();
        let pool = BufferPool::new(device.clone(), 4, EvictionPolicy::Lru); // cold-ish
        let tree: BTree<u64, u64> = BTree::bulk_load(pool, (0..n).map(|k| (k, k))).unwrap();
        let eff_b = tree.leaf_capacity();
        let mut rng = Draws::new(42);
        let mut worst = 0u64;
        let mut total = 0u64;
        let trials = 200;
        for _ in 0..trials {
            let k = rng.below(n);
            let (v, d) = measure(&device, || tree.get(&k).unwrap());
            assert_eq!(v, Some(k));
            worst = worst.max(d.reads());
            total += d.reads();
        }
        rows.push(vec![
            format!("B≈{eff_b}, N={n}"),
            tree.height().to_string(),
            worst.to_string(),
            fmt(total as f64 / trials as f64),
            fmt(bounds::search(n, eff_b)),
        ]);
    }
    table(
        "T2 — B-tree point lookups: height tracks ⌈log_B N⌉",
        &[
            "machine",
            "tree height",
            "worst I/Os",
            "mean I/Os",
            "⌈log_B N⌉",
        ],
        &rows,
    );

    // Ablation: eviction policy under a skewed (Zipf-ish) lookup workload.
    let mut rows = Vec::new();
    let cfg = EmConfig::new(512, 8);
    let n = 200_000u64;
    for (name, policy) in [("LRU", EvictionPolicy::Lru), ("FIFO", EvictionPolicy::Fifo)] {
        let device = cfg.ram_disk();
        let pool = BufferPool::new(device.clone(), 16, policy);
        let tree: BTree<u64, u64> = BTree::bulk_load(pool.clone(), (0..n).map(|k| (k, k))).unwrap();
        let mut rng = Draws::new(43);
        let before = device.stats().snapshot();
        for _ in 0..5000 {
            // 90% of lookups in a hot 1% key range.
            let k = if rng.unit() < 0.9 {
                rng.below(n / 100)
            } else {
                rng.below(n)
            };
            tree.get(&k).unwrap();
        }
        let d = device.stats().snapshot().since(&before);
        rows.push(vec![
            name.to_string(),
            d.reads().to_string(),
            pool.stats().hits().to_string(),
            pool.stats().misses().to_string(),
        ]);
    }
    table(
        "T2a — buffer-pool eviction ablation: 5000 skewed lookups, 16 frames",
        &["policy", "device reads", "pool hits", "pool misses"],
        &rows,
    );
}

/// F6 — buffer tree vs B-tree: amortized I/Os per insert.
pub fn f6_buffer_tree_amortization() {
    let mut rows = Vec::new();
    for &bb in &[512usize, 1024, 4096] {
        let cfg = EmConfig::new(bb, 64);
        let n = 200_000u64;

        // B-tree: one-at-a-time inserts through a small pool.
        let device = cfg.ram_disk();
        let pool = BufferPool::new(device.clone(), 8, EvictionPolicy::Lru);
        let mut bt: BTree<u64, u64> = BTree::new(pool).unwrap();
        let mut rng = Draws::new(61);
        let (_, d_bt) = measure(&device, || {
            for _ in 0..n {
                bt.insert(rng.next_u64(), 0).unwrap();
            }
        });

        // Buffer tree: the same inserts, batched through node buffers.
        let device2 = cfg.ram_disk();
        let ev_per_block = bb / 24;
        let m_events = ev_per_block * 64;
        let mut bft: BufferTree<u64, u64> = BufferTree::new(device2.clone(), m_events);
        let mut rng = Draws::new(61);
        let (_, d_bf) = measure(&device2, || {
            for _ in 0..n {
                bft.insert(rng.next_u64(), 0).unwrap();
            }
            bft.flush_all().unwrap();
        });

        let per_bt = d_bt.total() as f64 / n as f64;
        let per_bf = d_bf.total() as f64 / n as f64;
        rows.push(vec![
            format!("{}B", bb),
            fmt(per_bt),
            fmt(per_bf),
            fmt(per_bt / per_bf),
            fmt(bounds::sort(n, m_events, ev_per_block) / n as f64),
        ]);
    }
    table(
        "F6 — amortized I/Os per insert (N=200k): online B-tree vs buffer tree",
        &[
            "block",
            "B-tree I/Os/op",
            "buffer tree I/Os/op",
            "speedup",
            "Sort(N)/N",
        ],
        &rows,
    );
}

/// F7 — external priority queue: amortized I/Os per push+pop vs N.
pub fn f7_priority_queue() {
    let cfg = EmConfig::new(1024, 32);
    let b = cfg.block_records::<u64>();
    let m = cfg.mem_records::<u64>();
    let mut rows = Vec::new();
    for &n in &[50_000u64, 200_000, 800_000] {
        let device = cfg.ram_disk();
        let mut pq: ExtPriorityQueue<u64> = ExtPriorityQueue::new(device.clone(), m).expect("pq");
        let mut rng = Draws::new(71);
        let (_, d) = measure(&device, || {
            for _ in 0..n {
                pq.push(rng.next_u64()).unwrap();
            }
            for _ in 0..n {
                pq.pop().unwrap().unwrap();
            }
        });
        let per_op = d.total() as f64 / (2 * n) as f64;
        rows.push(vec![
            n.to_string(),
            d.total().to_string(),
            fmt(per_op),
            fmt(bounds::sort(n, m, b) / n as f64),
        ]);
    }
    table(
        "F7 — external priority queue (B=128, M=4096): N pushes then N pops",
        &["N", "total I/Os", "I/Os per op", "Sort(N)/N per op"],
        &rows,
    );
}

/// F8 — external stack and queue: ~2/B I/Os per operation.
pub fn f8_stack_queue() {
    let cfg = EmConfig::new(1024, 8);
    let b = cfg.block_records::<u64>();
    let n = 1_000_000u64;
    let mut rows = Vec::new();

    let device = cfg.ram_disk();
    let mut st: ExtStack<u64> = ExtStack::new(device.clone()).expect("u64 fits a 1 KiB block");
    let (_, d) = measure(&device, || {
        for i in 0..n {
            st.push(i).unwrap();
        }
        for _ in 0..n {
            st.pop().unwrap().unwrap();
        }
    });
    rows.push(vec![
        "stack".into(),
        d.total().to_string(),
        fmt(d.total() as f64 / (2 * n) as f64),
        fmt(1.0 / b as f64),
    ]);

    let device = cfg.ram_disk();
    let mut q: ExtQueue<u64> = ExtQueue::new(device.clone()).expect("u64 fits a 1 KiB block");
    let (_, d) = measure(&device, || {
        for i in 0..n {
            q.push(i).unwrap();
        }
        for _ in 0..n {
            q.pop().unwrap().unwrap();
        }
    });
    rows.push(vec![
        "queue".into(),
        d.total().to_string(),
        fmt(d.total() as f64 / (2 * n) as f64),
        fmt(1.0 / b as f64),
    ]);

    table(
        "F8 — external stack/queue (B=128): 1M pushes + 1M pops",
        &["structure", "total I/Os", "I/Os per op", "1/B"],
        &rows,
    );
}
