//! Property-based tests: core invariants under randomized machine shapes
//! (N, M, B) and data distributions.

use em_core::{EmConfig, ExtVec};
use emsort::{
    distribution_sort, merge_sort, permute_by_sort, permute_naive, transpose_blocked,
    transpose_naive, RunFormation, SortConfig,
};
use proptest::prelude::*;

/// A machine shape: block bytes ∈ {64…512} (8–64 u64s/block), m ∈ {6…32}.
fn machine() -> impl Strategy<Value = EmConfig> {
    (6u32..=9, 6usize..=32).prop_map(|(bexp, m)| EmConfig::new(1 << bexp, m))
}

/// The shape `machine()` steers around: `EmConfig { block_bytes: 64,
/// mem_blocks: 4 }` under 3.9 k duplicate-heavy keys.  Four blocks cannot
/// partition (the sort needs six), and the caller is told so rather than
/// panicked at from inside the recursion.
#[test]
fn distribution_sort_with_four_blocks_of_memory_is_a_typed_error() {
    let cfg = EmConfig::new(64, 4);
    let (b, m) = (8, cfg.mem_records::<u64>());
    let data: Vec<u64> = (0..3900u64).map(|i| i * 37 % 64).collect();
    let input = ExtVec::from_slice(cfg.ram_disk(), &data).unwrap();
    match distribution_sort(&input, &SortConfig::new(m)).map(|_| ()) {
        Err(pdm::PdmError::MemoryExceeded { needed, available }) => {
            assert_eq!((needed, available), (6 * b, 4 * b));
        }
        other => panic!("expected MemoryExceeded, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn merge_sort_sorts_any_input(
        cfg in machine(),
        data in prop::collection::vec(any::<u64>(), 0..4000),
        rs in any::<bool>(),
    ) {
        let device = cfg.ram_disk();
        let m = cfg.mem_records::<u64>();
        let input = ExtVec::from_slice(device, &data).unwrap();
        let sc = if rs {
            SortConfig::new(m).with_run_formation(RunFormation::ReplacementSelection)
        } else {
            SortConfig::new(m)
        };
        let out = merge_sort(&input, &sc).unwrap().to_vec().unwrap();
        let mut expect = data;
        expect.sort_unstable();
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn distribution_sort_sorts_any_input(
        cfg in machine(),
        data in prop::collection::vec(0u64..64, 0..4000), // duplicate-heavy
    ) {
        let device = cfg.ram_disk();
        let m = cfg.mem_records::<u64>();
        let input = ExtVec::from_slice(device, &data).unwrap();
        let out = distribution_sort(&input, &SortConfig::new(m)).unwrap().to_vec().unwrap();
        let mut expect = data;
        expect.sort_unstable();
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn permute_methods_agree(
        cfg in machine(),
        n in 1u64..1500,
        seed in any::<u64>(),
    ) {
        use em_core::hash::Draws;
        let device = cfg.ram_disk();
        let m = cfg.mem_records::<u64>();
        let data: Vec<u64> = (0..n).map(|i| i * 3).collect();
        let mut perm: Vec<u64> = (0..n).collect();
        Draws::new(seed).shuffle(&mut perm);
        let input = ExtVec::from_slice(device.clone(), &data).unwrap();
        let dest = ExtVec::from_slice(device, &perm).unwrap();
        let a = permute_naive(&input, &dest).unwrap().to_vec().unwrap();
        let b = permute_by_sort(&input, &dest, &SortConfig::new(m)).unwrap().to_vec().unwrap();
        prop_assert_eq!(&a, &b);
        // Spot-check the permutation semantics.
        for (i, &d) in perm.iter().enumerate() {
            prop_assert_eq!(a[d as usize], data[i]);
        }
    }

    #[test]
    fn transpose_is_an_involution(
        cfg in machine(),
        p in 1u64..60,
        q in 1u64..60,
    ) {
        let device = cfg.ram_disk();
        let m = cfg.mem_records::<u64>().max(512);
        let data: Vec<u64> = (0..p * q).collect();
        let input = ExtVec::from_slice(device, &data).unwrap();
        let sc = SortConfig::new(m);
        let t = transpose_blocked(&input, p, q, &sc).unwrap();
        let tt = transpose_blocked(&t, q, p, &sc).unwrap();
        prop_assert_eq!(tt.to_vec().unwrap(), data);
    }

    #[test]
    fn blocked_and_naive_transpose_agree(
        cfg in machine(),
        p in 1u64..40,
        q in 1u64..40,
    ) {
        let device = cfg.ram_disk();
        let m = cfg.mem_records::<u64>();
        let data: Vec<u64> = (0..p * q).map(|i| i.wrapping_mul(0x9E3779B9)).collect();
        let input = ExtVec::from_slice(device, &data).unwrap();
        let a = transpose_blocked(&input, p, q, &SortConfig::new(m)).unwrap().to_vec().unwrap();
        let b = transpose_naive(&input, p, q).unwrap().to_vec().unwrap();
        prop_assert_eq!(a, b);
    }
}

mod structures {
    use super::*;
    use emtree::{BTree, ExtPriorityQueue};
    use pdm::{BufferPool, EvictionPolicy};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn btree_matches_btreemap_under_mixed_ops(
            ops in prop::collection::vec((0u64..300, any::<u64>(), any::<bool>()), 0..2500),
        ) {
            let cfg = EmConfig::new(256, 16);
            let pool = BufferPool::new(cfg.ram_disk(), 8, EvictionPolicy::Lru);
            let mut tree: BTree<u64, u64> = BTree::new(pool).unwrap();
            let mut model = std::collections::BTreeMap::new();
            for (k, v, is_insert) in ops {
                if is_insert {
                    prop_assert_eq!(tree.insert(k, v).unwrap(), model.insert(k, v));
                } else {
                    prop_assert_eq!(tree.remove(&k).unwrap(), model.remove(&k));
                }
            }
            tree.check_invariants().unwrap();
            let expect: Vec<(u64, u64)> = model.into_iter().collect();
            prop_assert_eq!(tree.range(&0, &u64::MAX).unwrap(), expect);
        }

        #[test]
        fn epq_drains_sorted(
            data in prop::collection::vec(any::<u64>(), 0..3000),
        ) {
            let cfg = EmConfig::new(256, 16);
            let device = cfg.ram_disk();
            let mut pq: ExtPriorityQueue<u64> =
                ExtPriorityQueue::new(device, cfg.mem_records::<u64>()).unwrap();
            for &x in &data {
                pq.push(x).unwrap();
            }
            let mut out = Vec::with_capacity(data.len());
            while let Some(x) = pq.pop().unwrap() {
                out.push(x);
            }
            let mut expect = data;
            expect.sort_unstable();
            prop_assert_eq!(out, expect);
        }
    }
}

mod graphs {
    use super::*;
    use emgraph::{connected_components, list_rank, tree_depths};
    use emsort::SortConfig;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn list_ranking_matches_walk(n in 1u64..1200, seed in any::<u64>()) {
            let cfg = EmConfig::new(256, 16);
            let device = cfg.ram_disk();
            let (list, head) = emgraph::gen::random_list(device, n, seed).unwrap();
            let sc = SortConfig::new(256); // force contraction for larger n
            let ranks = list_rank(&list, head, &sc).unwrap().to_vec().unwrap();
            // Walk the list in memory.
            let succ: std::collections::HashMap<u64, u64> =
                list.to_vec().unwrap().into_iter().collect();
            let mut expect = Vec::new();
            let mut cur = head;
            let mut r = 0u64;
            while cur != u64::MAX {
                expect.push((cur, r));
                r += 1;
                cur = succ[&cur];
            }
            expect.sort_unstable();
            prop_assert_eq!(ranks, expect);
        }

        #[test]
        fn tree_depths_match_bfs(n in 2u64..800, seed in any::<u64>()) {
            let cfg = EmConfig::new(256, 16);
            let device = cfg.ram_disk();
            let edges = emgraph::gen::random_tree(device, n, seed).unwrap();
            let sc = SortConfig::new(512);
            let got = tree_depths(&edges, 0, &sc).unwrap().to_vec().unwrap();
            // In-memory BFS reference.
            let es = edges.to_vec().unwrap();
            let mut adj = vec![Vec::new(); n as usize];
            for (u, v) in es {
                adj[u as usize].push(v);
                adj[v as usize].push(u);
            }
            let mut depth = vec![u64::MAX; n as usize];
            depth[0] = 0;
            let mut q = std::collections::VecDeque::from([0u64]);
            while let Some(u) = q.pop_front() {
                for &v in &adj[u as usize] {
                    if depth[v as usize] == u64::MAX {
                        depth[v as usize] = depth[u as usize] + 1;
                        q.push_back(v);
                    }
                }
            }
            let expect: Vec<(u64, u64)> = (0..n).map(|v| (v, depth[v as usize])).collect();
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn cc_matches_union_find(n in 2u64..500, deg in 1u32..4, seed in any::<u64>()) {
            let cfg = EmConfig::new(256, 16);
            let device = cfg.ram_disk();
            let g = emgraph::gen::random_graph(device, n, deg as f64, seed).unwrap();
            let sc = SortConfig::new(256);
            let got = connected_components(&g, n, &sc).unwrap().to_vec().unwrap();
            // Union-find reference.
            let mut parent: Vec<u64> = (0..n).collect();
            fn find(p: &mut Vec<u64>, x: u64) -> u64 {
                if p[x as usize] != x {
                    let r = find(p, p[x as usize]);
                    p[x as usize] = r;
                }
                p[x as usize]
            }
            for (a, b) in g.to_vec().unwrap() {
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                if ra != rb {
                    let (lo, hi) = (ra.min(rb), ra.max(rb));
                    parent[hi as usize] = lo;
                }
            }
            let expect: Vec<(u64, u64)> = (0..n).map(|v| (v, find(&mut parent, v))).collect();
            prop_assert_eq!(got, expect);
        }
    }
}

mod substrate {
    use super::*;
    use pdm::{BufferPool, EvictionPolicy, SharedDevice};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The buffer pool's device-read count must match a reference LRU
        /// cache simulation exactly.
        #[test]
        fn pool_reads_match_reference_lru(
            accesses in prop::collection::vec(0u64..20, 1..300),
            capacity in 1usize..8,
        ) {
            let cfg = EmConfig::new(64, 8);
            let device: SharedDevice = cfg.ram_disk();
            let ids: Vec<_> = (0..20).map(|_| device.allocate().unwrap()).collect();
            let before = device.stats().snapshot();
            let pool = BufferPool::new(device.clone(), capacity, EvictionPolicy::Lru);
            // Reference: a Vec in most-recently-used-first order.
            let mut cache: Vec<u64> = Vec::new();
            let mut expected_reads = 0u64;
            for &a in &accesses {
                let id = ids[a as usize];
                drop(pool.read(id).unwrap());
                if let Some(pos) = cache.iter().position(|&c| c == id) {
                    cache.remove(pos);
                } else {
                    expected_reads += 1;
                    if cache.len() == capacity {
                        cache.pop();
                    }
                }
                cache.insert(0, id);
            }
            prop_assert_eq!(device.stats().snapshot().since(&before).reads(), expected_reads);
        }

        /// read_range/write_range behave exactly like slice ops on a Vec.
        #[test]
        fn ranges_match_vec_model(
            len in 1u64..200,
            ops in prop::collection::vec((0u64..200, 0usize..50, any::<bool>()), 0..40),
        ) {
            let cfg = EmConfig::new(64, 8);
            let device = cfg.ram_disk();
            let mut model: Vec<u64> = (0..len).collect();
            let v = ExtVec::from_slice(device, &model).unwrap();
            let mut scratch = Vec::new();
            for (start, count, is_write) in ops {
                let start = start % len;
                let count = count.min((len - start) as usize);
                if is_write {
                    let data: Vec<u64> = (0..count as u64).map(|i| start + i + 1000).collect();
                    v.write_range(start, &data).unwrap();
                    model[start as usize..start as usize + count].copy_from_slice(&data);
                } else {
                    v.read_range(start, count, &mut scratch).unwrap();
                    prop_assert_eq!(&scratch[..], &model[start as usize..start as usize + count]);
                }
            }
            prop_assert_eq!(v.to_vec().unwrap(), model);
        }
    }
}

mod applications {
    use super::*;
    use emgeom::{segment_intersections, segment_intersections_naive, HSeg, VSeg};
    use emgraph::minimum_spanning_forest;
    use emtext::suffix_array;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn segment_sweep_matches_nested_loops(
            hs in prop::collection::vec((-50i64..50, -50i64..50, 0i64..40), 0..120),
            vs in prop::collection::vec((-50i64..50, -50i64..50, 0i64..40), 0..120),
        ) {
            let cfg = EmConfig::new(256, 16);
            let device = cfg.ram_disk();
            let hsegs: Vec<HSeg> = hs
                .iter()
                .enumerate()
                .map(|(id, &(x, y, len))| HSeg { id: id as u64, y, x1: x, x2: x + len })
                .collect();
            let vsegs: Vec<VSeg> = vs
                .iter()
                .enumerate()
                .map(|(id, &(x, y, len))| VSeg { id: id as u64, x, y1: y, y2: y + len })
                .collect();
            let hv = ExtVec::from_slice(device.clone(), &hsegs).unwrap();
            let vv = ExtVec::from_slice(device, &vsegs).unwrap();
            let sc = SortConfig::new(64); // tiny memory forces deep recursion
            let mut smart = segment_intersections(&hv, &vv, &sc).unwrap().to_vec().unwrap();
            let mut naive = segment_intersections_naive(&hv, &vv).unwrap().to_vec().unwrap();
            smart.sort_unstable();
            naive.sort_unstable();
            prop_assert_eq!(smart, naive);
        }

        #[test]
        fn suffix_array_matches_reference(
            text in prop::collection::vec(b'a'..=b'c', 0..400),
        ) {
            let cfg = EmConfig::new(256, 16);
            let device = cfg.ram_disk();
            let tv = ExtVec::from_slice(device, &text).unwrap();
            let sa = suffix_array(&tv, &SortConfig::new(128)).unwrap().to_vec().unwrap();
            let mut expect: Vec<u64> = (0..text.len() as u64).collect();
            expect.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
            prop_assert_eq!(sa, expect);
        }

        #[test]
        fn msf_weight_matches_kruskal(
            n in 2u64..120,
            raw_edges in prop::collection::vec((0u64..120, 0u64..120, 1u64..50), 0..300),
        ) {
            let cfg = EmConfig::new(256, 16);
            let device = cfg.ram_disk();
            let edges: Vec<(u64, u64, u64)> = raw_edges
                .into_iter()
                .map(|(a, b, w)| (a % n, b % n, w))
                .filter(|&(a, b, _)| a != b)
                .collect();
            let g = ExtVec::from_slice(device, &edges).unwrap();
            let msf = minimum_spanning_forest(&g, n, &SortConfig::new(96)).unwrap().to_vec().unwrap();

            // Kruskal reference total weight + forest size.
            let mut idx: Vec<usize> = (0..edges.len()).collect();
            idx.sort_by_key(|&i| (edges[i].2, i));
            let mut parent: Vec<u64> = (0..n).collect();
            fn find(p: &mut Vec<u64>, x: u64) -> u64 {
                if p[x as usize] != x {
                    let r = find(p, p[x as usize]);
                    p[x as usize] = r;
                }
                p[x as usize]
            }
            let mut total = 0u64;
            let mut count = 0usize;
            for i in idx {
                let (a, b, w) = edges[i];
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                if ra != rb {
                    parent[ra.max(rb) as usize] = ra.min(rb);
                    total += w;
                    count += 1;
                }
            }
            prop_assert_eq!(msf.len(), count);
            prop_assert_eq!(msf.iter().map(|e| e.2).sum::<u64>(), total);
        }
    }
}
