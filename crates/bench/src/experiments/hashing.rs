//! F13 — extendible hashing: O(1) I/Os per op vs the B-tree's log_B N.

use em_core::hash::Draws;
use em_core::EmConfig;
use emhash::ExtendibleHash;
use emtree::BTree;
use pdm::{BufferPool, EvictionPolicy};

use crate::{fmt, measure, table};

pub fn f13_extendible_hashing() {
    // Growth behaviour: directory size and amortized insert cost vs N.
    let mut rows = Vec::new();
    for &n in &[10_000u64, 100_000, 1_000_000] {
        let cfg = EmConfig::new(4096, 8);
        let device = cfg.ram_disk();
        let pool = BufferPool::new(device.clone(), 8, EvictionPolicy::Lru);
        let mut h: ExtendibleHash<u64, u64> = ExtendibleHash::new(pool).unwrap();
        let (_, d) = measure(&device, || {
            for k in 0..n {
                h.insert(k, k).unwrap();
            }
        });
        rows.push(vec![
            n.to_string(),
            fmt(d.total() as f64 / n as f64),
            h.directory_size().to_string(),
            h.splits().to_string(),
            h.doublings().to_string(),
            fmt(h.load_factor()),
        ]);
    }
    table(
        "F13 — extendible hashing growth (4 KiB buckets, 255 entries each)",
        &[
            "N inserts",
            "I/Os per insert",
            "directory",
            "splits",
            "doublings",
            "load factor",
        ],
        &rows,
    );

    // Point-lookup shoot-out vs the B-tree, cold cache.
    let mut rows = Vec::new();
    let n = 1_000_000u64;
    for &bb in &[256usize, 1024, 4096] {
        let cfg = EmConfig::new(bb, 8);
        // Hash.
        let device_h = cfg.ram_disk();
        let pool_h = BufferPool::new(device_h.clone(), 4, EvictionPolicy::Lru);
        let mut h: ExtendibleHash<u64, u64> = ExtendibleHash::new(pool_h).unwrap();
        for k in 0..n {
            h.insert(k, k).unwrap();
        }
        // Tree.
        let device_t = cfg.ram_disk();
        let pool_t = BufferPool::new(device_t.clone(), 4, EvictionPolicy::Lru);
        let tree: BTree<u64, u64> = BTree::bulk_load(pool_t, (0..n).map(|k| (k, k))).unwrap();

        let mut rng = Draws::new(131);
        let trials = 300;
        let mut hash_reads = 0u64;
        let mut tree_reads = 0u64;
        for _ in 0..trials {
            let k = rng.below(n);
            let (_, d) = measure(&device_h, || h.get(&k).unwrap());
            hash_reads += d.reads();
            let (_, d) = measure(&device_t, || tree.get(&k).unwrap());
            tree_reads += d.reads();
        }
        rows.push(vec![
            format!("{bb}B"),
            fmt(hash_reads as f64 / trials as f64),
            fmt(tree_reads as f64 / trials as f64),
            tree.height().to_string(),
        ]);
    }
    table(
        "F13a — cold point lookups, hash vs B-tree (N=1M)",
        &[
            "block",
            "hash I/Os per lookup",
            "B-tree I/Os per lookup",
            "tree height",
        ],
        &rows,
    );
}
