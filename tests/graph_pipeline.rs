//! Cross-crate graph pipeline: the same structural facts computed through
//! independent algorithm stacks must agree.

use em_core::{EmConfig, ExtVec, Record};
use emgeom::{
    batched_range_reporting, dominance_count, segment_intersections, HSeg, Point, Rect, VSeg,
};
use emgraph::{
    bfs_mr, connected_components, gen, list_rank, minimum_spanning_forest, sssp, time_forward,
    tree_depths,
};
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

    // The two users of the shared contraction agree with each other: the
    // MSF of the same graph has V − components edges, and those edges alone
    // connect exactly what the whole graph connects.
    let weighted: Vec<(u64, u64, u64)> = g
        .to_vec()
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(i, (a, b))| (a, b, (i as u64 * 7919) % 1009))
        .collect();
    let weighted = ExtVec::from_slice(device.clone(), &weighted).unwrap();
    let forest = minimum_spanning_forest(&weighted, k * n_each, &sc)
        .unwrap()
        .to_vec()
        .unwrap();
    assert_eq!(forest.len() as u64, k * n_each - k);
    let forest_edges: Vec<(u64, u64)> = forest.iter().map(|&(a, b, _)| (a, b)).collect();
    let forest_edges = ExtVec::from_slice(device, &forest_edges).unwrap();
    let forest_labels = connected_components(&forest_edges, k * n_each, &sc).unwrap();
    assert_eq!(forest_labels.to_vec().unwrap(), labels);
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

/// BFS, connected components, list ranking and a minimum spanning forest,
/// then the three distribution sweeps, then shortest paths over the weighted
/// graph and Euler-tour depths of a tree, each measured, on a `d`-disk
/// independent-placement array.  The inputs are built by arithmetic — a ring
/// plus LCG chords, a strided list, LCG coordinates — so the counts depend
/// on no generator crate.  `M` is about a twentieth of the symmetrized arc
/// list and a sixth of each sweep's events, so the sorts inside a round
/// really merge and every sweep really distributes.
fn graph_rounds(d: usize, mode: IoMode, overlap: OverlapConfig) -> [Round; 9] {
    const V: u64 = 1200;
    const LIST: u64 = 3001;
    const SPAN: u64 = 4096;
    let device: SharedDevice = DiskArray::new_ram_with(d, 256, Placement::Independent, mode);
    let sc = SortConfig::new(512).with_overlap(overlap);

    let mut x = 12345u64;
    let mut lcg = |modulus: u64| {
        x = (x * 1_103_515_245 + 12_345) % (1 << 31);
        (x >> 8) % modulus
    };
    let mut edges: Vec<(u64, u64)> = (0..V).map(|i| (i, (i + 1) % V)).collect();
    for _ in 0..3 * V {
        let (a, b) = (lcg(V), lcg(V));
        if a != b {
            edges.push((a, b));
        }
    }
    let g = ExtVec::from_slice(device.clone(), &edges).unwrap();
    let weighted: Vec<(u64, u64, u64)> = edges.iter().map(|&(a, b)| (a, b, lcg(997))).collect();
    let weighted = ExtVec::from_slice(device.clone(), &weighted).unwrap();

    // The list visits node `p · 7 mod LIST` at position p (7 ∤ 3001), so
    // successors are scattered over the id-sorted array.
    let at = |p: u64| if p < LIST { p * 7 % LIST } else { u64::MAX };
    let mut succ: Vec<(u64, u64)> = (0..LIST).map(|p| (at(p), at(p + 1))).collect();
    succ.sort_unstable();
    let list = ExtVec::from_slice(device.clone(), &succ).unwrap();

    // Segments and rectangles reach up to an eighth of the span, so some
    // cross several slabs and some only stick into one.
    let mut coord = |modulus: u64| lcg(modulus) as i64;
    let (mut hs, mut vs, mut pts, mut rects) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for id in 0..1500 {
        let (x1, y1) = (coord(SPAN), coord(SPAN));
        hs.push(HSeg {
            id,
            y: coord(SPAN),
            x1,
            x2: x1 + coord(SPAN / 8),
        });
        vs.push(VSeg {
            id,
            x: coord(SPAN),
            y1,
            y2: y1 + coord(SPAN / 8),
        });
        let (x, y) = (coord(SPAN), coord(SPAN));
        pts.push(Point { id, x, y });
    }
    for id in 0..500 {
        let (x1, y1) = (coord(SPAN), coord(SPAN));
        rects.push(Rect {
            id,
            x1,
            x2: x1 + coord(SPAN / 8),
            y1,
            y2: y1 + coord(SPAN / 8),
        });
    }
    let hs = ExtVec::from_slice(device.clone(), &hs).unwrap();
    let vs = ExtVec::from_slice(device.clone(), &vs).unwrap();
    let pts = ExtVec::from_slice(device.clone(), &pts).unwrap();
    let rects = ExtVec::from_slice(device.clone(), &rects).unwrap();

    // Vertex v hangs under an LCG-chosen earlier vertex: depth ≈ ln V, every
    // fan-out from leaf to hub.
    let tree: Vec<(u64, u64)> = (1..V).map(|v| (lcg(v), v)).collect();
    let tree = ExtVec::from_slice(device.clone(), &tree).unwrap();

    fn measure<R: Record>(
        device: &SharedDevice,
        run: impl FnOnce() -> ExtVec<R>,
    ) -> (Vec<R>, (u64, u64)) {
        let before = device.stats().snapshot();
        let out = run();
        let delta = device.stats().snapshot().since(&before);
        (out.to_vec().unwrap(), (delta.reads(), delta.writes()))
    }
    let (forest, forest_cost) = measure(&device, || {
        minimum_spanning_forest(&weighted, V, &sc).unwrap()
    });
    // Endpoints folded into one word so the forest fits a `Round`.
    let forest = forest.iter().map(|&(a, b, w)| (a * V + b, w)).collect();
    [
        measure(&device, || bfs_mr(&g, V, 0, &sc).unwrap()),
        measure(&device, || connected_components(&g, V, &sc).unwrap()),
        measure(&device, || list_rank(&list, 0, &sc).unwrap()),
        (forest, forest_cost),
        measure(&device, || segment_intersections(&hs, &vs, &sc).unwrap()),
        measure(&device, || {
            batched_range_reporting(&pts, &rects, &sc).unwrap()
        }),
        measure(&device, || dominance_count(&pts, &pts, &sc).unwrap()),
        measure(&device, || sssp(&weighted, V, 0, &sc).unwrap()),
        measure(&device, || tree_depths(&tree, 0, &sc).unwrap()),
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
            // `(reads, writes)`: a sorted intermediate that is written and
            // re-read again moves these.  BFS and CC were recorded at
            // c73cee2, before the materialize-everything baselines were
            // deleted; MSF and the sweeps when MSF moved onto the contraction
            // CC uses and the sweeps onto one driver with a fused prologue.
            // The three rounds with a scan-fed sort inside, at 3e88fd5 (each
            // such stream written unsorted, then sorted) and now (the scan
            // feeds the sort):
            //
            //   list_rank     (7460, 6409)    → (6803, 5752)    `preds`
            //   sssp          (7249, 3669)    → (6290, 2710)    the arc list
            //   tree_depths   (14128, 11940)  → (12446, 10258)  arcs, `rel`,
            //                                   `tagged`, and list ranking's `preds`
            //
            // Every round then moved down once more when a sort whose runs
            // fit one merge stopped writing its last load's resident tail:
            // BFS (4961, 1768), CC (5836, 5025), list_rank (6803, 5752),
            // MSF (14988, 12455), segments (2288, 1996), range reporting
            // (1653, 1249), dominance (2233, 1598), sssp (6290, 2710),
            // tree_depths (12446, 10258) before.
            //
            // The sweeps' slab boundaries then came from distribution sort's
            // seeded reservoir sampler instead of every ⌈n/(8·want)⌉-th
            // event: segments (2225, 1933), range reporting (1575, 1171)
            // and dominance (2142, 1507) before.
            //
            // tree_depths then ranked its tour once, reading depth off the
            // positions as a running sum over the arcs in tour order
            // instead of ranking ±1 weights a second time: (11099, 8911)
            // before.
            let counts = sync.map(|(_, c)| c);
            assert_eq!(
                counts,
                [
                    (4909, 1716),
                    (5637, 4826),
                    (6129, 5078),
                    (14239, 11706),
                    (2230, 1939),
                    (1579, 1175),
                    (2144, 1509),
                    (6231, 2651),
                    (6245, 5151),
                ]
            );
        }
    }
}
