//! Cross-crate pipeline: generate → external sort → B-tree bulk load →
//! range scans, with every stage verified against an in-memory reference.

use em_core::hash::Draws;
use em_core::{bounds, EmConfig, ExtVec, Record};
use emsort::{distribution_sort, merge_sort, RunFormation, SortConfig};
use emtree::BTree;
use pdm::{BufferPool, EvictionPolicy};
use std::collections::BTreeMap;

#[test]
fn sort_index_scan_pipeline() {
    let cfg = EmConfig::new(512, 16);
    let device = cfg.ram_disk();
    let m = cfg.mem_records::<u64>();
    let n = 30_000u64;

    let mut rng = Draws::new(1001);
    // Distinct keys so the B-tree bulk load (strictly increasing) applies.
    let mut keys: Vec<u64> = (0..n).map(|i| i * 7 + 1).collect();
    rng.shuffle(&mut keys);

    let input = ExtVec::from_slice(device.clone(), &keys).unwrap();
    let sorted = merge_sort(&input, &SortConfig::new(m)).unwrap();
    let sorted_v = sorted.to_vec().unwrap();
    let mut expect = keys.clone();
    expect.sort_unstable();
    assert_eq!(sorted_v, expect);

    // Index the sorted keys (key → rank).
    let pool = BufferPool::new(device.clone(), 16, EvictionPolicy::Lru);
    let mut reader = sorted.reader();
    let keys = std::iter::from_fn(move || reader.try_next().unwrap());
    let tree: BTree<u64, u64> =
        BTree::bulk_load(pool, keys.enumerate().map(|(i, k)| (k, i as u64))).unwrap();
    tree.check_invariants().unwrap();
    assert_eq!(tree.len(), n);

    // Range scans agree with the reference map.
    let model: BTreeMap<u64, u64> = expect
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u64))
        .collect();
    let mut rng = Draws::new(1002);
    for _ in 0..20 {
        let lo = rng.below(n * 7);
        let hi = lo + rng.below(n);
        let got = tree.range(&lo, &hi).unwrap();
        let expect: Vec<(u64, u64)> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, expect, "range [{lo}, {hi}]");
    }
}

/// `Search(N)` as a lower bound: on an `(N, M, B)` grid, keys sorted under
/// `M` and bulk-loaded into a B-tree, every point lookup through a cold pool
/// — present key or absent — reads at least `⌈log_B N⌉` blocks, `B` the
/// `(key, value)` pairs a block holds.  Fewer would be an accounting bug.
#[test]
fn cold_lookups_read_at_least_a_search_path() {
    for block_bytes in [128usize, 512] {
        let b = block_bytes / <(u64, u64)>::BYTES;
        for mem_blocks in [4, 16] {
            let cfg = EmConfig::new(block_bytes, mem_blocks);
            let device = cfg.ram_disk();
            let sort_cfg = SortConfig::new(cfg.mem_records::<u64>());
            for n in [1u64, b as u64, (b * b) as u64 + 1, 5_000] {
                let mut keys: Vec<u64> = (0..n).map(|i| i * 3 + 1).collect();
                Draws::new(n).shuffle(&mut keys);
                let input = ExtVec::from_slice(device.clone(), &keys).unwrap();
                let sorted = merge_sort(&input, &sort_cfg).unwrap();
                let pool = BufferPool::new(device.clone(), 16, EvictionPolicy::Lru);
                let mut reader = sorted.reader();
                let keys = std::iter::from_fn(move || reader.try_next().unwrap());
                let tree: BTree<u64, u64> = BTree::bulk_load(pool, keys.map(|k| (k, k))).unwrap();
                tree.pool().flush().unwrap();
                let floor = bounds::search(n, b);
                for probe in [0, 1, n / 2 * 3 + 1, n * 3, n * 3 + 1] {
                    let cold = BufferPool::new(device.clone(), 4, EvictionPolicy::Lru);
                    let cold = BTree::<u64, u64>::reattach(cold, tree.root(), tree.height(), n);
                    let before = device.stats().snapshot();
                    let got = cold.get(&probe).unwrap();
                    let reads = device.stats().snapshot().since(&before).reads();
                    assert_eq!(got, (probe % 3 == 1 && probe < 3 * n).then_some(probe));
                    let at = format!("N={n} M={} B={b} key {probe}", sort_cfg.mem_records);
                    assert!(
                        reads as f64 >= floor,
                        "{at}: {reads} reads, Search(N) = {floor}"
                    );
                }
                sorted.free().unwrap();
                input.free().unwrap();
            }
        }
    }
}

#[test]
fn both_sorts_and_all_run_formations_agree() {
    let cfg = EmConfig::new(256, 16);
    let device = cfg.ram_disk();
    let m = cfg.mem_records::<u64>();
    let mut rng = Draws::new(1003);
    let data: Vec<u64> = (0..20_000).map(|_| rng.below(1000)).collect();
    let input = ExtVec::from_slice(device, &data).unwrap();

    let a = merge_sort(&input, &SortConfig::new(m))
        .unwrap()
        .to_vec()
        .unwrap();
    let b = merge_sort(
        &input,
        &SortConfig::new(m).with_run_formation(RunFormation::ReplacementSelection),
    )
    .unwrap()
    .to_vec()
    .unwrap();
    let c = distribution_sort(&input, &SortConfig::new(m))
        .unwrap()
        .to_vec()
        .unwrap();
    let d = merge_sort(&input, &SortConfig::new(m).with_fan_in(2))
        .unwrap()
        .to_vec()
        .unwrap();
    assert_eq!(a, b);
    assert_eq!(a, c);
    assert_eq!(a, d);
    let mut expect = data;
    expect.sort_unstable();
    assert_eq!(a, expect);
}

#[test]
fn sorted_data_feeds_buffer_tree_and_btree_identically() {
    let cfg = EmConfig::new(512, 64);
    let device = cfg.ram_disk();
    let n = 10_000u64;
    let mut rng = Draws::new(1004);
    let pairs: Vec<(u64, u64)> = (0..n).map(|_| (rng.below(5000), rng.next_u64())).collect();

    // Through a B-tree.
    let pool = BufferPool::new(cfg.ram_disk(), 16, EvictionPolicy::Lru);
    let mut bt: BTree<u64, u64> = BTree::new(pool).unwrap();
    for (k, v) in &pairs {
        bt.insert(*k, *v).unwrap();
    }
    // Through a buffer tree.
    let mut bft: emtree::BufferTree<u64, u64> = emtree::BufferTree::new(device, 2048);
    for (k, v) in &pairs {
        bft.insert(*k, *v).unwrap();
    }
    let from_bft = bft.to_sorted_ext_vec().unwrap().to_vec().unwrap();
    let from_bt = bt.range(&0, &u64::MAX).unwrap();
    assert_eq!(from_bft, from_bt);
}
