//! Cross-crate graph pipeline: the same structural facts computed through
//! independent algorithm stacks must agree.

use em_core::{EmConfig, ExtVec};
use emgraph::{bfs_mr, connected_components, gen, list_rank, time_forward, tree_depths};
use emsort::{OverlapConfig, SortConfig};
use pdm::{DiskArray, IoMode, Placement, SharedDevice};

#[test]
fn euler_depths_equal_bfs_distances_on_trees() {
    // On a tree, BFS hop distance from the root *is* the rooted depth, so
    // the Euler-tour/list-ranking stack and the MR-BFS stack must agree.
    let cfg = EmConfig::new(512, 16);
    let device = cfg.ram_disk();
    let sc = SortConfig::new(1024);
    for seed in [5u64, 6, 7] {
        let n = 3000;
        let tree = gen::random_tree(device.clone(), n, seed).unwrap();
        let depths = tree_depths(&tree, 0, &sc).unwrap().to_vec().unwrap();
        let dists = bfs_mr(&tree, n, 0, &sc).unwrap().to_vec().unwrap();
        assert_eq!(depths, dists, "seed {seed}");
    }
}

#[test]
fn list_ranking_orders_a_bfs_level_chain() {
    // Build a path graph, compute BFS distances, and independently rank the
    // path as a linked list — the two orders must match.
    let cfg = EmConfig::new(512, 16);
    let device = cfg.ram_disk();
    let sc = SortConfig::new(1024);
    let n = 5000u64;
    let edges: Vec<(u64, u64)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    let g = ExtVec::from_slice(device.clone(), &edges).unwrap();
    let dists = bfs_mr(&g, n, 0, &sc).unwrap().to_vec().unwrap();

    let succ: Vec<(u64, u64)> = (0..n)
        .map(|i| (i, if i + 1 < n { i + 1 } else { u64::MAX }))
        .collect();
    let sv = ExtVec::from_slice(device, &succ).unwrap();
    let ranks = list_rank(&sv, 0, &sc).unwrap().to_vec().unwrap();
    assert_eq!(dists, ranks);
}

#[test]
fn components_count_matches_forest_structure() {
    // k disjoint random trees ⇒ exactly k components, and each tree's
    // depths remain internally consistent.
    let cfg = EmConfig::new(512, 16);
    let device = cfg.ram_disk();
    let sc = SortConfig::new(1024);
    let k = 7u64;
    let n_each = 500u64;
    let g = gen::planted_components(device.clone(), k, n_each, 11).unwrap();
    let labels = connected_components(&g, k * n_each, &sc)
        .unwrap()
        .to_vec()
        .unwrap();
    let mut distinct: Vec<u64> = labels.iter().map(|&(_, l)| l).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len() as u64, k);
    // Labels are the component minima: exactly the multiples of n_each.
    assert_eq!(distinct, (0..k).map(|c| c * n_each).collect::<Vec<_>>());
}

#[test]
fn time_forward_computes_bfs_layers_on_a_dag() {
    // Orient a path 0→1→…→n-1 as a DAG: the longest-path value at v equals
    // v, which equals its BFS distance in the undirected path.
    let cfg = EmConfig::new(512, 16);
    let device = cfg.ram_disk();
    let sc = SortConfig::new(1024);
    let n = 4000u64;
    let edges: Vec<(u64, u64)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    let dag = ExtVec::from_slice(device.clone(), &edges).unwrap();
    let labels: Vec<(u64, u64)> = (0..n).map(|v| (v, 0)).collect();
    let lv = ExtVec::from_slice(device.clone(), &labels).unwrap();
    let values = time_forward(&lv, &dag, &sc, |_, _, inc| {
        inc.iter().max().map_or(0, |m| m + 1)
    })
    .unwrap()
    .to_vec()
    .unwrap();
    let dists = bfs_mr(&dag, n, 0, &sc).unwrap().to_vec().unwrap();
    assert_eq!(values, dists);
}

/// One algorithm's output and the `(reads, writes)` it cost.
type Round = (Vec<(u64, u64)>, (u64, u64));

/// BFS, connected components and list ranking, each measured, on a `d`-disk
/// independent-placement array.  The inputs are built by arithmetic — a ring
/// plus LCG chords, and a strided list — so the counts depend on no
/// generator crate.  `M` is about a twentieth of the symmetrized arc list,
/// so the sorts inside a round really merge.
fn graph_rounds(d: usize, mode: IoMode, overlap: OverlapConfig) -> [Round; 3] {
    const V: u64 = 1200;
    const LIST: u64 = 3001;
    let device: SharedDevice = DiskArray::new_ram_with(d, 256, Placement::Independent, mode);
    let sc = SortConfig::new(512).with_overlap(overlap);

    let mut edges: Vec<(u64, u64)> = (0..V).map(|i| (i, (i + 1) % V)).collect();
    let mut x = 12345u64;
    let mut lcg = || {
        x = (x * 1_103_515_245 + 12_345) % (1 << 31);
        (x >> 8) % V
    };
    for _ in 0..3 * V {
        let (a, b) = (lcg(), lcg());
        if a != b {
            edges.push((a, b));
        }
    }
    let g = ExtVec::from_slice(device.clone(), &edges).unwrap();

    // The list visits node `p · 7 mod LIST` at position p (7 ∤ 3001), so
    // successors are scattered over the id-sorted array.
    let at = |p: u64| if p < LIST { p * 7 % LIST } else { u64::MAX };
    let mut succ: Vec<(u64, u64)> = (0..LIST).map(|p| (at(p), at(p + 1))).collect();
    succ.sort_unstable();
    let list = ExtVec::from_slice(device.clone(), &succ).unwrap();

    let measure = |run: &dyn Fn() -> ExtVec<(u64, u64)>| {
        let before = device.stats().snapshot();
        let out = run();
        let delta = device.stats().snapshot().since(&before);
        (out.to_vec().unwrap(), (delta.reads(), delta.writes()))
    };
    [
        measure(&|| bfs_mr(&g, V, 0, &sc).unwrap()),
        measure(&|| connected_components(&g, V, &sc).unwrap()),
        measure(&|| list_rank(&list, 0, &sc).unwrap()),
    ]
}

#[test]
fn graph_rounds_keep_their_counts_across_io_modes() {
    for d in [1usize, 4] {
        // Overlap moves when a transfer happens, never whether.
        let sync = graph_rounds(d, IoMode::Synchronous, OverlapConfig::off());
        let over = graph_rounds(d, IoMode::Overlapped, OverlapConfig::symmetric(2));
        assert_eq!(sync, over, "D = {d}");
        if d == 1 {
            // `(reads, writes)` recorded at c73cee2, before the
            // materialize-everything baselines were deleted: a sorted
            // intermediate that is written and re-read again moves these.
            let counts = sync.map(|(_, c)| c);
            assert_eq!(counts, [(4961, 1768), (5836, 5025), (7460, 6409)]);
        }
    }
}
