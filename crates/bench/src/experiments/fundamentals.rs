//! T1 — the survey's table of fundamental I/O bounds, measured.
//!
//! For a grid of machine shapes, run the canonical algorithm for each
//! fundamental operation and report measured I/Os next to the closed-form
//! bound.  The measured/bound ratio should be a small constant (≈2 for
//! scan+write round trips, ≈4–6 for sorting's read+write passes), uniform
//! across machine shapes — that uniformity is the table's claim.

use em_core::hash::Draws;
use em_core::{bounds, EmConfig, ExtVec};
use emsort::{merge_sort, SortConfig};
use emtree::BTree;
use pdm::{BufferPool, EvictionPolicy};

use crate::{fmt, measure, table};

pub fn t1_fundamental_bounds() {
    let mut rows = Vec::new();
    // (block bytes, memory blocks, N records)
    for &(bb, mb, n) in &[
        (512usize, 16usize, 50_000u64),
        (1024, 32, 100_000),
        (4096, 32, 400_000),
    ] {
        let cfg = EmConfig::new(bb, mb);
        let b = cfg.block_records::<u64>();
        let m = cfg.mem_records::<u64>();
        let mut rng = Draws::new(1);
        let data: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();

        // Scan.
        let device = cfg.ram_disk();
        let input = ExtVec::from_slice(device.clone(), &data).unwrap();
        let (_, d) = measure(&device, || {
            let mut reader = input.reader();
            while reader.try_next().unwrap().is_some() {}
        });
        rows.push(vec![
            format!("Scan, B={b}, M={m}, N={n}"),
            fmt(d.total() as f64),
            fmt(bounds::scan(n, b)),
            fmt(d.total() as f64 / bounds::scan(n, b)),
        ]);

        // Sort.
        let (_, d) = measure(&device, || merge_sort(&input, &SortConfig::new(m)).unwrap());
        rows.push(vec![
            format!("Sort, B={b}, M={m}, N={n}"),
            fmt(d.total() as f64),
            fmt(bounds::sort(n, m, b)),
            fmt(d.total() as f64 / bounds::sort(n, m, b)),
        ]);

        // Search: cold B-tree lookups.
        let pool_device = cfg.ram_disk();
        let pool = BufferPool::new(pool_device.clone(), 4, EvictionPolicy::Lru);
        let tree = BTree::bulk_load(pool, (0..n).map(|k| (k, k))).unwrap();
        let mut rng = Draws::new(2);
        let trials = 50;
        let mut total = 0u64;
        for _ in 0..trials {
            let k = rng.below(n);
            let (_, d) = measure(&pool_device, || tree.get(&k).unwrap());
            total += d.reads();
        }
        let per = total as f64 / trials as f64;
        let eff_b = tree.leaf_capacity();
        rows.push(vec![
            format!("Search, B={b} (tree B≈{eff_b}), N={n}"),
            fmt(per),
            fmt(bounds::search(n, eff_b)),
            fmt(per / bounds::search(n, eff_b)),
        ]);

        // Output: report Z = n/10 records from a range scan.
        let z = n / 10;
        let (res, d) = measure(&pool_device, || tree.range(&0, &(z - 1)).unwrap());
        assert_eq!(res.len() as u64, z);
        rows.push(vec![
            format!("Output, B={b}, Z={z}"),
            fmt(d.reads() as f64),
            fmt(bounds::output(z, eff_b) + bounds::search(n, eff_b)),
            fmt(d.reads() as f64 / (bounds::output(z, eff_b) + bounds::search(n, eff_b))),
        ]);
    }
    table(
        "T1 — fundamental operations: measured I/Os vs closed-form bounds",
        &["operation / machine", "measured I/Os", "bound", "ratio"],
        &rows,
    );
}
