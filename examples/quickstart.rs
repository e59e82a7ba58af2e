//! Quickstart: the I/O model in five minutes.
//!
//! Builds a Parallel Disk Model machine, writes a dataset that is 16× bigger
//! than memory, sorts it externally, indexes it with a B-tree, and answers a
//! range query — printing measured I/Os next to the survey's bounds at each
//! step.
//!
//! ```text
//! cargo run --release -p bench --example quickstart
//! ```

use em_core::hash::Draws;
use em_core::{bounds, EmConfig, ExtVec};
use emsort::{merge_sort, SortConfig};
use emtree::BTree;
use pdm::{BufferPool, EvictionPolicy};

fn main() {
    // The machine: 4 KiB blocks, 32 blocks of memory.
    let cfg = EmConfig::new(4096, 32);
    let b = cfg.block_records::<u64>(); // B = 512 records per block
    let m = cfg.mem_records::<u64>(); // M = 16384 records of memory
    let n: u64 = 16 * m as u64; // dataset 16× memory
    println!("machine: B = {b} records/block, M = {m} records, N = {n} records\n");

    let device = cfg.ram_disk();

    // 1. Write the dataset (sequential: Scan(N) write I/Os).
    let mut rng = Draws::new(2026);
    let data: Vec<u64> = (0..n).map(|_| rng.below(1_000_000_000)).collect();
    let before = device.stats().snapshot();
    let input = ExtVec::from_slice(device.clone(), &data).unwrap();
    let d = device.stats().snapshot().since(&before);
    println!(
        "write dataset : {:>7} I/Os   (Scan(N) = {})",
        d.total(),
        bounds::scan(n, b)
    );

    // 2. Sort it externally.
    let before = device.stats().snapshot();
    let sorted = merge_sort(&input, &SortConfig::new(m)).unwrap();
    let d = device.stats().snapshot().since(&before);
    println!(
        "merge sort    : {:>7} I/Os   (Θ Sort(N) = {:.0}, exact 2·(N/B)·passes = {:.0})",
        d.total(),
        bounds::sort(n, m, b),
        bounds::merge_sort_ios(n, m, b, SortConfig::new(m).effective_fan_in(b)),
    );

    // 3. Bulk-load a B-tree from the sorted run.
    let pool = BufferPool::new(device.clone(), 8, EvictionPolicy::Lru);
    let before = device.stats().snapshot();
    // Make keys strictly increasing (k is nondecreasing, so k + i works).
    let mut reader = sorted.reader();
    let keys = std::iter::from_fn(move || reader.try_next().unwrap());
    let tree: BTree<u64, u64> = BTree::bulk_load(
        pool,
        keys.enumerate().map(|(i, k)| (k + i as u64, i as u64)),
    )
    .unwrap();
    let d = device.stats().snapshot().since(&before);
    println!(
        "B-tree load   : {:>7} I/Os   (height {} ≈ ⌈log_B N⌉ = {:.0})",
        d.total(),
        tree.height(),
        bounds::search(n, tree.leaf_capacity()),
    );

    // 4. A point lookup and a range query.
    let key = sorted.get(42).unwrap() + 42; // the 42nd key of the bulk load
    let before = device.stats().snapshot();
    assert!(tree.get(&key).unwrap().is_some());
    let d = device.stats().snapshot().since(&before);
    println!(
        "point lookup  : {:>7} I/Os   (Search(N) = {:.0}, warm cache does better)",
        d.reads(),
        bounds::search(n, tree.leaf_capacity())
    );

    let before = device.stats().snapshot();
    let hits = tree.range(&0, &1_000_000).unwrap();
    let d = device.stats().snapshot().since(&before);
    println!(
        "range query   : {:>7} I/Os for {} answers   (Output(Z) = {:.0})",
        d.reads(),
        hits.len(),
        bounds::output(hits.len() as u64, tree.leaf_capacity()),
    );

    println!(
        "\ntotal device traffic: {} block transfers ({} bytes)",
        device.stats().snapshot().total(),
        device.stats().snapshot().bytes()
    );
}
