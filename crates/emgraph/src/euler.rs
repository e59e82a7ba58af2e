//! The Euler-tour technique for external-memory tree problems.
//!
//! A tree on `N` vertices becomes a linked list of its `2(N−1)` arcs: the
//! successor of arc `(u, v)` is the arc after `(v, u)` in `v`'s circular
//! adjacency order.  That list is exactly an Euler tour of the tree, and
//! tree statistics reduce to list ranking over it:
//!
//! * depth: walk the arcs in tour order with a running depth, `+1` on a
//!   forward arc and `−1` on a back arc; the running depth just after the
//!   forward arc into `v` is `depth(v)`.  One list ranking gives the order.
//! * subtree size, pre/post-order numbers, … follow the same pattern.
//!
//! All construction steps are sorts and scans — `O(Sort(N))` I/Os total —
//! which is the whole point: no per-edge pointer chasing.

use em_core::{ExtVec, ExtVecWriter};
use emsort::{merge_sort_by, merge_sort_streaming, SortConfig, SortingWriter};
use pdm::{PdmError, Result};

use crate::list_ranking::{list_rank, NIL};

/// An Euler tour of a tree, as a linked list of arcs.
pub struct EulerTour {
    /// All `2(N−1)` arcs, sorted by `(src, dst)`; the arc's id is its index.
    pub arcs: ExtVec<(u64, u64)>,
    /// `(arc_id, successor_arc_id)` sorted by arc id; the final arc of the
    /// tour has successor `NIL`.
    pub succ: ExtVec<(u64, u64)>,
    /// Arc id where the tour starts (the root's first out-arc).
    pub head: u64,
}

impl EulerTour {
    /// Release all external storage now, reporting a failed free; a
    /// dropped tour releases it too.
    pub fn free(self) -> Result<()> {
        self.arcs.free()?;
        self.succ.free()
    }
}

/// Build the Euler tour of the tree given by undirected `edges`, rooted at
/// `root`.  `O(Sort(N))` I/Os.  No edges, a self loop, an edge listed
/// twice (either way round), a root with no incident edge, or edges that
/// do not number one less than the vertices they touch is
/// [`PdmError::InvalidRequest`], all found by the scan that links the
/// tour.  A forest beside a cycle with exactly that count (`0–1` beside the
/// triangle `2–3–4`) passes the scan: its tour misses arcs, which only a
/// later ranking finds.
pub fn euler_tour(edges: &ExtVec<(u64, u64)>, root: u64, cfg: &SortConfig) -> Result<EulerTour> {
    let device = edges.device().clone();
    if edges.is_empty() {
        return Err(invalid("the edge list is empty"));
    }

    // 1. Symmetrize and sort: arcs ordered by (src, dst); id = position.
    //    The symmetrizing scan feeds the sort directly.
    let arcs = {
        let mut w = SortingWriter::new(device.clone(), cfg, |a: &(u64, u64), b| a < b);
        let mut r = edges.reader();
        while let Some((u, v)) = r.try_next()? {
            if u == v {
                return Err(invalid("the edge list has a self loop"));
            }
            w.push((u, v))?;
            w.push((v, u))?;
        }
        w.finish_sorted()?
    };

    // 2. Per source group, link the circular order: the successor of arc
    //    (x_i, v) is v's next out-arc after (v, x_i).  Emit keyed by the
    //    *predecessor twin* (x_i, v): records (x_i, v, succ_arc_id).
    //    Also note the root's first out-arc (the tour head).  An edge
    //    listed twice is two equal adjacent arcs in one group; a tree on
    //    `V` vertices (one group each) has `2(V − 1)` arcs.
    let mut head: Option<u64> = None;
    let mut vertices = 0u64;
    let rel = {
        let mut w = SortingWriter::new(device.clone(), cfg, |a: &(u64, u64, u64), b| {
            (a.0, a.1) < (b.0, b.1)
        });
        let mut r = arcs.reader();
        let mut idx = 0u64;
        let mut group: Option<(u64, u64, u64)> = None; // (src, first_arc_id, prev_dst)
        while let Some((src, dst)) = r.try_next()? {
            match &mut group {
                Some((gsrc, _first_id, prev_dst)) if *gsrc == src => {
                    if dst == *prev_dst {
                        return Err(invalid("the edge list has a duplicated edge"));
                    }
                    // The arc after (src, prev_dst) in src's circular order
                    // is this one, so it is the tour successor of the twin
                    // arc (prev_dst, src).
                    w.push((*prev_dst, src, idx))?;
                    *prev_dst = dst;
                }
                _ => {
                    if let Some((gsrc, first_id, prev_dst)) = group {
                        // Close the previous group's circle.
                        w.push((prev_dst, gsrc, first_id))?;
                    }
                    if src == root && head.is_none() {
                        head = Some(idx);
                    }
                    group = Some((src, idx, dst));
                    vertices += 1;
                }
            }
            idx += 1;
        }
        if let Some((gsrc, first_id, prev_dst)) = group {
            w.push((prev_dst, gsrc, first_id))?;
        }
        if idx != 2 * (vertices - 1) {
            return Err(invalid("the edges do not number V − 1 for V vertices"));
        }
        w
    };
    let Some(head) = head else {
        return Err(invalid("the root has no incident edge"));
    };

    // 3. Zip: `rel` sorted by (x, v) runs parallel to `arcs` sorted by
    //    (src, dst); position i in `arcs` is arc id i.  Break the cycle at
    //    the arc whose successor is the head.  The relation is produced by
    //    one scan and consumed by one, so both ends of its sort are fused.
    let succ = rel.finish_streaming(|rr| {
        let mut w: ExtVecWriter<(u64, u64)> = ExtVecWriter::new(device.clone());
        let mut ra = arcs.reader();
        let mut idx = 0u64;
        while let Some((src, dst)) = ra.try_next()? {
            let Some((x, v, next)) = rr.try_next()? else {
                return Err(invalid("an arc has no relation record"));
            };
            debug_assert_eq!((x, v), (src, dst), "relation misaligned with arcs");
            w.push((idx, if next == head { NIL } else { next }))?;
            idx += 1;
        }
        w.finish()
    })?;

    Ok(EulerTour { arcs, succ, head })
}

/// Depth of every vertex of the tree `edges` rooted at `root`, via the
/// Euler tour and one list ranking: `O(Sort(N))` I/Os.  Returns
/// `(vertex, depth)` sorted by vertex id, with `depth(root) = 0`.  Edges
/// that are not a tree containing `root` are [`PdmError::InvalidRequest`].
pub fn tree_depths(
    edges: &ExtVec<(u64, u64)>,
    root: u64,
    cfg: &SortConfig,
) -> Result<ExtVec<(u64, u64)>> {
    let device = edges.device().clone();
    if edges.is_empty() {
        return ExtVec::from_slice(device, &[(root, 0u64)]);
    }
    let tour = euler_tour(edges, root, cfg)?;

    // Unit ranks order the arcs along the tour.
    let positions = list_rank(&tour.succ, tour.head, cfg)?; // (arc_id, position), sorted by arc id

    // Pair twin arcs by normalized endpoints: records (min, max, position,
    // dst), sorted by (min, max, position).
    let twins = {
        let mut w = SortingWriter::new(device.clone(), cfg, |a: &(u64, u64, u64, u64), b| {
            (a.0, a.1, a.2) < (b.0, b.1, b.2)
        });
        // arcs and positions are both in arc-id order; zip them.
        let mut ra = tour.arcs.reader();
        let mut rp = positions.reader();
        while let Some((u, v)) = ra.try_next()? {
            let Some((_, pos)) = rp.try_next()? else {
                return Err(invalid("an arc has no rank"));
            };
            w.push((u.min(v), u.max(v), pos, v))?;
        }
        w
    };
    positions.free()?;
    tour.free()?;

    // Each consecutive pair in sorted `twins` shares (lo, hi): the arc with
    // the smaller position is the forward arc, and its dst is the child.
    // One step per arc, keyed by position with the low bit set on a back
    // arc: `(2·position, child)` and `(2·position + 1, child)`.  The pairs
    // are produced by one scan and consumed by one: both ends fused.
    let mut steps_w: ExtVecWriter<(u64, u64)> = ExtVecWriter::new(device.clone());
    twins.finish_streaming(|rt| {
        while let Some((lo, hi, pos, child)) = rt.try_next()? {
            let Some(back) = rt.try_next()?.filter(|s| (s.0, s.1) == (lo, hi)) else {
                return Err(invalid("the arcs do not come in twin pairs"));
            };
            steps_w.push((2 * pos, child))?;
            steps_w.push((2 * back.2 + 1, child))?;
        }
        Ok(())
    })?;
    let steps = steps_w.finish()?;

    // Walk the steps in tour order with a running depth: a forward arc
    // enters its child one level deeper, a back arc climbs one level.  The
    // sorted steps are consumed once, so the final merge streams into it.
    let mut depths_w: ExtVecWriter<(u64, u64)> = ExtVecWriter::new(device.clone());
    depths_w.push((root, 0))?;
    merge_sort_streaming(
        &steps,
        cfg,
        |a, b| a.0 < b.0,
        |rs| {
            let mut depth = 0u64;
            while let Some((key, child)) = rs.try_next()? {
                if key & 1 == 1 {
                    depth = depth
                        .checked_sub(1)
                        .ok_or_else(|| invalid("the tour climbs above the root"))?;
                } else {
                    depth += 1;
                    depths_w.push((child, depth))?;
                }
            }
            Ok(())
        },
    )?;
    steps.free()?;
    let unsorted = depths_w.finish()?;
    let sorted = merge_sort_by(&unsorted, cfg, |a, b| a.0 < b.0)?;
    unsorted.free()?;
    Ok(sorted)
}

fn invalid(what: &str) -> PdmError {
    PdmError::InvalidRequest(format!("Euler tour: {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_tree;
    use em_core::EmConfig;
    use pdm::SharedDevice;

    fn device() -> SharedDevice {
        EmConfig::new(128, 8).ram_disk()
    }

    fn reference_depths(edges: &[(u64, u64)], root: u64, n: u64) -> Vec<(u64, u64)> {
        let mut adj = vec![Vec::new(); n as usize];
        for &(u, v) in edges {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        let mut depth = vec![u64::MAX; n as usize];
        depth[root as usize] = 0;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u as usize] {
                if depth[v as usize] == u64::MAX {
                    depth[v as usize] = depth[u as usize] + 1;
                    queue.push_back(v);
                }
            }
        }
        (0..n).map(|v| (v, depth[v as usize])).collect()
    }

    #[test]
    fn tour_visits_every_arc_once() {
        let d = device();
        let edges = random_tree(d.clone(), 50, 91).unwrap();
        let tour = euler_tour(&edges, 0, &SortConfig::new(128)).unwrap();
        assert_eq!(tour.arcs.len(), 2 * 49);
        let succ: std::collections::HashMap<u64, u64> =
            tour.succ.to_vec().unwrap().into_iter().collect();
        let mut cur = tour.head;
        let mut visited = std::collections::HashSet::new();
        while cur != NIL {
            assert!(visited.insert(cur), "arc visited twice");
            cur = succ[&cur];
        }
        assert_eq!(visited.len() as u64, tour.arcs.len(), "tour misses arcs");
    }

    #[test]
    fn tour_is_contiguous_walk() {
        // Each consecutive pair of arcs must share the middle vertex.
        let d = device();
        let edges = random_tree(d.clone(), 30, 92).unwrap();
        let tour = euler_tour(&edges, 0, &SortConfig::new(128)).unwrap();
        let arcs = tour.arcs.to_vec().unwrap();
        let succ: std::collections::HashMap<u64, u64> =
            tour.succ.to_vec().unwrap().into_iter().collect();
        let mut cur = tour.head;
        assert_eq!(arcs[cur as usize].0, 0, "tour starts at the root");
        while succ[&cur] != NIL {
            let nxt = succ[&cur];
            assert_eq!(arcs[cur as usize].1, arcs[nxt as usize].0, "walk breaks");
            cur = nxt;
        }
        assert_eq!(arcs[cur as usize].1, 0, "tour ends back at the root");
    }

    #[test]
    fn depths_path_graph() {
        let d = device();
        let edges: Vec<(u64, u64)> = (0..9u64).map(|i| (i, i + 1)).collect();
        let ev = ExtVec::from_slice(d, &edges).unwrap();
        let depths = tree_depths(&ev, 0, &SortConfig::new(128)).unwrap();
        assert_eq!(
            depths.to_vec().unwrap(),
            (0..10u64).map(|v| (v, v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn depths_star_graph() {
        let d = device();
        let edges: Vec<(u64, u64)> = (1..20u64).map(|i| (0, i)).collect();
        let ev = ExtVec::from_slice(d, &edges).unwrap();
        let depths = tree_depths(&ev, 0, &SortConfig::new(128)).unwrap();
        let got = depths.to_vec().unwrap();
        assert_eq!(got[0], (0, 0));
        assert!(got[1..].iter().all(|&(_, dep)| dep == 1));
    }

    #[test]
    fn depths_random_trees_match_bfs() {
        let d = device();
        for (n, seed) in [(100u64, 93u64), (1000, 94), (2500, 95)] {
            let edges = random_tree(d.clone(), n, seed).unwrap();
            let depths = tree_depths(&edges, 0, &SortConfig::new(200)).unwrap();
            assert_eq!(
                depths.to_vec().unwrap(),
                reference_depths(&edges.to_vec().unwrap(), 0, n),
                "n={n}"
            );
        }
    }

    /// `tree_depths` pays for one Euler tour and one ranking of it, and
    /// then at most `8 · Sort(2(N−1))` for the rest: the twin-pairing sort
    /// of double-width records, the sort of the steps by position and the
    /// final sort of `N` depths, each a read and a write a pass, plus their
    /// scans.  A second ranking of the tour costs more than the whole rest.
    #[test]
    fn tree_depths_ranks_its_tour_once() {
        for (n, seed, m) in [(1000u64, 3u64, 128usize), (2500, 95, 200)] {
            let d = device();
            let edges = random_tree(d.clone(), n, seed).unwrap();
            let cfg = SortConfig::new(m);
            let cost = |run: &mut dyn FnMut()| {
                let before = d.stats().snapshot();
                run();
                d.stats().snapshot().since(&before).total()
            };
            let mut tour = None;
            let tour_cost = cost(&mut || tour = Some(euler_tour(&edges, 0, &cfg).unwrap()));
            let tour = tour.unwrap();
            let rank_cost = cost(&mut || drop(list_rank(&tour.succ, tour.head, &cfg).unwrap()));
            drop(tour);
            let depths_cost = cost(&mut || drop(tree_depths(&edges, 0, &cfg).unwrap()));
            let b = d.block_size() / 16;
            let rest = 8.0 * em_core::bounds::sort(2 * (n - 1), m, b);
            assert!(
                depths_cost as f64 <= (tour_cost + rank_cost) as f64 + rest,
                "n = {n}: {depths_cost} > {tour_cost} + {rank_cost} + {rest:.0}"
            );
        }
    }

    /// Vertex ids are any `u64`: `NIL` names only the end of a list.
    #[test]
    fn a_vertex_named_nil_has_a_depth() {
        let d = device();
        let edges = ExtVec::from_slice(d, &[(0u64, 1u64), (1, NIL)]).unwrap();
        let depths = tree_depths(&edges, 0, &SortConfig::new(128)).unwrap();
        assert_eq!(depths.to_vec().unwrap(), vec![(0, 0), (1, 1), (NIL, 2)]);
        let depths = tree_depths(&edges, NIL, &SortConfig::new(128)).unwrap();
        assert_eq!(depths.to_vec().unwrap(), vec![(0, 2), (1, 1), (NIL, 0)]);
    }

    #[test]
    fn depths_with_nonzero_root() {
        let d = device();
        let edges = ExtVec::from_slice(d, &[(0u64, 1u64), (1, 2), (2, 3)]).unwrap();
        let depths = tree_depths(&edges, 2, &SortConfig::new(128)).unwrap();
        assert_eq!(
            depths.to_vec().unwrap(),
            vec![(0, 2), (1, 1), (2, 0), (3, 1)]
        );
    }

    /// An edge listed twice, either way round, fails the tour's linking
    /// scan (before any list ranking) and frees every block it wrote.
    #[test]
    fn a_duplicated_edge_is_refused() {
        fn refused<T>(r: Result<T>) -> bool {
            matches!(r, Err(PdmError::InvalidRequest(m)) if m.contains("duplicated edge"))
        }
        for twin in [(1u64, 2u64), (2, 1)] {
            let d = device();
            let edges =
                ExtVec::from_slice(d.clone(), &[(0u64, 1u64), (1, 2), twin, (2, 3)]).unwrap();
            let cfg = SortConfig::new(128);
            let baseline = d.allocated_blocks();
            assert!(refused(euler_tour(&edges, 0, &cfg)), "{twin:?}: tour");
            assert_eq!(d.allocated_blocks(), baseline, "{twin:?}: tour leaked");
            assert!(refused(tree_depths(&edges, 0, &cfg)), "{twin:?}: depths");
            assert_eq!(d.allocated_blocks(), baseline, "{twin:?}: depths leaked");
        }
    }

    /// Edges that do not number one less than their vertices, a cycle
    /// beside a leaf or two separate edges, fail the tour's linking scan
    /// after one sort, before any list ranking, and free every block.
    #[test]
    fn a_non_tree_edge_count_is_refused() {
        fn refused<T>(r: Result<T>) -> bool {
            matches!(r, Err(PdmError::InvalidRequest(m)) if m.contains("V − 1"))
        }
        let cycle: &[(u64, u64)] = &[(0, 1), (1, 2), (2, 0), (2, 3)];
        let forest: &[(u64, u64)] = &[(0, 1), (2, 3)];
        for shape in [cycle, forest] {
            let d = device();
            let edges = ExtVec::from_slice(d.clone(), shape).unwrap();
            let cfg = SortConfig::new(128);
            let baseline = d.allocated_blocks();
            assert!(refused(euler_tour(&edges, 0, &cfg)), "{shape:?}: tour");
            assert_eq!(d.allocated_blocks(), baseline, "{shape:?}: tour leaked");
            assert!(refused(tree_depths(&edges, 0, &cfg)), "{shape:?}: depths");
            assert_eq!(d.allocated_blocks(), baseline, "{shape:?}: depths leaked");
        }
    }

    #[test]
    fn single_edge_tree() {
        let d = device();
        let edges = ExtVec::from_slice(d, &[(0u64, 1u64)]).unwrap();
        let depths = tree_depths(&edges, 0, &SortConfig::new(128)).unwrap();
        assert_eq!(depths.to_vec().unwrap(), vec![(0, 0), (1, 1)]);
    }
}
