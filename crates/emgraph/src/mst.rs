//! Minimum spanning forest by external Borůvka rounds.
//!
//! Every round, each component selects its minimum-weight incident edge
//! (one sort + one grouped scan), those edges join the forest, and the
//! components they connect are contracted exactly as in
//! [`connected_components`](crate::connected_components) — hook, pointer-
//! double, relabel.  Components at least halve per round, so
//!
//! ```text
//! I/Os = O(Sort(E) · log(V))
//! ```
//!
//! matching the survey's MSF bound (its refinements shave the log to
//! log(V/M); our base case — finish in memory once the contracted graph
//! fits — implements exactly that cutoff).
//!
//! Ties are broken by edge id, making every weight distinct, which is what
//! guarantees that the selected-edge graph has no cycles other than
//! mutual (2-cycle) selections — resolved by keeping the smaller label as
//! the root.

use em_core::{ExtVec, ExtVecWriter};
use emsort::{merge_sort_streaming, SortConfig, SortingWriter};
use pdm::Result;

use crate::contract::{compress, relabel, Labels, ROOT};
use crate::util::{check_vertex, join_left_stream};

/// Compute a minimum spanning forest of the undirected weighted graph
/// `edges` (`(u, v, w)`, dense vertex ids `0..n`).  Returns the forest's
/// edges as `(u, v, w)` in input order.  `O(Sort(E)·log V)` I/Os.
///
/// An edge naming a vertex `≥ n` is [`InvalidRequest`](pdm::PdmError::InvalidRequest).
pub fn minimum_spanning_forest(
    edges: &ExtVec<(u64, u64, u64)>,
    n: u64,
    cfg: &SortConfig,
) -> Result<ExtVec<(u64, u64, u64)>> {
    let device = edges.device().clone();

    // Working edges carry (label_a, label_b, weight, original edge id).
    let mut work: ExtVec<(u64, u64, u64, u64)> = {
        let mut w: ExtVecWriter<(u64, u64, u64, u64)> = ExtVecWriter::new(device.clone());
        let mut r = edges.reader();
        let mut id = 0u64;
        while let Some((a, b, wt)) = r.try_next()? {
            check_vertex(a.max(b), n)?;
            if a != b {
                w.push((a, b, wt, id))?;
            }
            id += 1;
        }
        w.finish()?
    };
    // Chosen original-edge ids accumulate here across the rounds, beside
    // whichever sort a round is running — so as a plain one-block writer,
    // not as a second `M`-record sorting sink.
    let mut chosen: ExtVecWriter<u64> = ExtVecWriter::new(device.clone());

    for round in 0.. {
        // Components at least halve a round: 64 rounds cover any `u64`
        // vertex count.
        debug_assert!(round < 64, "Borůvka failed to converge");
        if work.is_empty() {
            break;
        }
        // Base case: finish in memory.
        if work.len() as usize <= cfg.mem_records / 2 {
            for id in in_memory_msf(&work)? {
                chosen.push(id)?;
            }
            work.free()?;
            work = ExtVec::new(device.clone());
            break;
        }

        // Minimum incident edge per label: the doubled arcs feed the sort
        // by (label, w, id) as they are produced, and the grouped scan reads
        // the sorted arcs off the final merge.  The first arc of each source
        // group is its minimum edge: hook + choose.
        let mut arcs_w = SortingWriter::new(
            device.clone(),
            cfg,
            |x: &(u64, u64, u64, u64), y: &(u64, u64, u64, u64)| (x.0, x.2, x.3) < (y.0, y.2, y.3),
        );
        {
            let mut r = work.reader();
            while let Some((a, b, wt, id)) = r.try_next()? {
                arcs_w.push((a, b, wt, id))?;
                arcs_w.push((b, a, wt, id))?;
            }
        }
        let mut hooks_w: ExtVecWriter<(u64, u64)> = ExtVecWriter::new(device.clone()); // (label, parent)
        arcs_w.finish_streaming(|r| {
            let mut cur_src = u64::MAX;
            while let Some((src, dst, _wt, id)) = r.try_next()? {
                if src != cur_src {
                    cur_src = src;
                    hooks_w.push((src, dst))?;
                    chosen.push(id)?;
                }
            }
            Ok(())
        })?;
        let hooks = hooks_w.finish()?; // sorted by label (group order)

        // Contract exactly as connected components does, once the mutual
        // selections are broken.  Relabelling keeps, per label pair, only
        // the lightest edge: pruning parallels keeps the working set small
        // without affecting the forest.
        let parents = compress(break_two_cycles(hooks, cfg)?, cfg)?;
        work = relabel(work, &parents, cfg)?;
        parents.free()?;
    }
    work.free()?;

    // Map chosen ids back to original edges: sort + dedupe + merge with an
    // id-indexed pass over the input; the sorted ids are consumed once, so
    // the sort's final merge streams into the pass.
    let chosen = chosen.finish()?;
    let mut out: ExtVecWriter<(u64, u64, u64)> = ExtVecWriter::new(device);
    merge_sort_streaming(
        &chosen,
        cfg,
        |a, b| a < b,
        |ids| {
            let mut cur = ids.try_next()?;
            let mut r = edges.reader();
            let mut idx = 0u64;
            while let Some(e) = r.try_next()? {
                let mut take = false;
                while cur == Some(idx) {
                    take = true;
                    cur = ids.try_next()?; // skip duplicates of the same id
                }
                if take {
                    out.push(e)?;
                }
                idx += 1;
            }
            debug_assert!(cur.is_none(), "chosen id beyond input range");
            Ok(())
        },
    )?;
    chosen.free()?;
    out.finish()
}

/// Remove one side of every mutual (x ⇄ p) selection, keeping the smaller
/// label as a root.  Returns the surviving hooks sorted by `x`.
fn break_two_cycles(hooks: ExtVec<(u64, u64)>, cfg: &SortConfig) -> Result<ExtVec<(u64, u64)>> {
    let device = hooks.device().clone();
    let by_key = |a: &(u64, u64), b: &(u64, u64)| a.0 < b.0;
    // joined: ((p, x), pp | ROOT) with pp = parent(p).
    let mut swapped_w = SortingWriter::new(device.clone(), cfg, by_key);
    {
        let mut r = hooks.reader();
        while let Some((x, p)) = r.try_next()? {
            swapped_w.push((p, x))?;
        }
    }
    let joined = swapped_w.finish_streaming(|s| join_left_stream(s, |r| r.0, &hooks, ROOT))?;
    hooks.free()?;
    let mut kept_w = SortingWriter::new(device, cfg, by_key);
    {
        let mut r = joined.reader();
        while let Some(((p, x), pp)) = r.try_next()? {
            // Entry represents hook x → p.  Drop it iff p → x too and
            // x < p (x becomes the root of the merged pair).
            if !(pp == x && x < p) {
                kept_w.push((x, p))?;
            }
        }
    }
    joined.free()?;
    kept_w.finish_sorted()
}

/// In-memory Kruskal on the contracted edge set; returns chosen original
/// edge ids.
fn in_memory_msf(work: &ExtVec<(u64, u64, u64, u64)>) -> Result<Vec<u64>> {
    let mut es = work.to_vec()?;
    es.sort_unstable_by_key(|&(_, _, w, id)| (w, id));
    let mut labels = Labels::default();
    es.retain(|&(a, b, _, _)| labels.union(a, b));
    Ok(es.into_iter().map(|(_, _, _, id)| id).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::hash::Draws;
    use em_core::EmConfig;
    use pdm::SharedDevice;

    fn device() -> SharedDevice {
        EmConfig::new(256, 16).ram_disk()
    }

    fn reference_msf_weight(edges: &[(u64, u64, u64)], n: u64) -> (u64, usize) {
        // Kruskal with (w, index) tie-break: total weight and edge count.
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
        let mut total = 0;
        let mut count = 0;
        for i in idx {
            let (a, b, w) = edges[i];
            if a == b {
                continue;
            }
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra.max(rb) as usize] = ra.min(rb);
                total += w;
                count += 1;
            }
        }
        (total, count)
    }

    fn check_is_spanning_forest(msf: &[(u64, u64, u64)], edges: &[(u64, u64, u64)], n: u64) {
        // Same weight and cardinality as Kruskal, acyclic, and spans the
        // same components.
        let (ref_w, ref_c) = reference_msf_weight(edges, n);
        let got_w: u64 = msf.iter().map(|e| e.2).sum();
        assert_eq!(msf.len(), ref_c, "edge count");
        assert_eq!(got_w, ref_w, "total weight");
        // Acyclicity via union-find over the chosen edges.
        let mut parent: Vec<u64> = (0..n).collect();
        fn find(p: &mut Vec<u64>, x: u64) -> u64 {
            if p[x as usize] != x {
                let r = find(p, p[x as usize]);
                p[x as usize] = r;
            }
            p[x as usize]
        }
        for &(a, b, _) in msf {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            assert_ne!(ra, rb, "cycle in forest");
            parent[ra.max(rb) as usize] = ra.min(rb);
        }
    }

    #[test]
    fn triangle_drops_heaviest() {
        let d = device();
        let edges = vec![(0u64, 1u64, 1u64), (1, 2, 2), (0, 2, 3)];
        let g = ExtVec::from_slice(d, &edges).unwrap();
        let msf = minimum_spanning_forest(&g, 3, &SortConfig::new(256)).unwrap();
        let mut got = msf.to_vec().unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 1, 1), (1, 2, 2)]);
    }

    #[test]
    fn random_graphs_match_kruskal_weight() {
        let d = device();
        for seed in [171u64, 172, 173] {
            let n = 600u64;
            let mut rng = Draws::new(seed);
            let mut edges = Vec::new();
            for v in 1..n {
                edges.push((rng.below(v), v, 1 + rng.below(999)));
            }
            for _ in 0..1200 {
                let a = rng.below(n);
                let b = rng.below(n);
                if a != b {
                    edges.push((a.min(b), a.max(b), 1 + rng.below(999)));
                }
            }
            let g = ExtVec::from_slice(d.clone(), &edges).unwrap();
            // Small memory to force external rounds.
            let msf = minimum_spanning_forest(&g, n, &SortConfig::new(256)).unwrap();
            check_is_spanning_forest(&msf.to_vec().unwrap(), &edges, n);
        }
    }

    #[test]
    fn disconnected_graph_yields_forest() {
        let d = device();
        let edges = vec![(0u64, 1u64, 5u64), (1, 2, 3), (0, 2, 4), (3, 4, 7)];
        let g = ExtVec::from_slice(d, &edges).unwrap();
        let msf = minimum_spanning_forest(&g, 5, &SortConfig::new(256)).unwrap();
        let got = msf.to_vec().unwrap();
        check_is_spanning_forest(&got, &edges, 5);
        assert_eq!(got.len(), 3); // 2 + 1 edges across the two components
    }

    #[test]
    fn duplicate_weights_handled_by_id_tiebreak() {
        let d = device();
        let mut rng = Draws::new(174);
        let n = 400u64;
        let mut edges = Vec::new();
        for v in 1..n {
            edges.push((rng.below(v), v, 1u64)); // all weights equal
        }
        for _ in 0..800 {
            let a = rng.below(n);
            let b = rng.below(n);
            if a != b {
                edges.push((a.min(b), a.max(b), 1));
            }
        }
        let g = ExtVec::from_slice(d, &edges).unwrap();
        let msf = minimum_spanning_forest(&g, n, &SortConfig::new(200)).unwrap();
        let got = msf.to_vec().unwrap();
        assert_eq!(got.len() as u64, n - 1, "spanning tree size");
        check_is_spanning_forest(&got, &edges, n);
    }

    #[test]
    fn empty_and_single_edge() {
        let d = device();
        let g: ExtVec<(u64, u64, u64)> = ExtVec::new(d.clone());
        assert!(minimum_spanning_forest(&g, 3, &SortConfig::new(256))
            .unwrap()
            .is_empty());
        let g = ExtVec::from_slice(d, &[(0u64, 1u64, 9u64)]).unwrap();
        let msf = minimum_spanning_forest(&g, 2, &SortConfig::new(256)).unwrap();
        assert_eq!(msf.to_vec().unwrap(), vec![(0, 1, 9)]);
    }

    #[test]
    fn self_loops_ignored() {
        let d = device();
        let g = ExtVec::from_slice(d, &[(0u64, 0u64, 1u64), (0, 1, 2)]).unwrap();
        let msf = minimum_spanning_forest(&g, 2, &SortConfig::new(256)).unwrap();
        assert_eq!(msf.to_vec().unwrap(), vec![(0, 1, 2)]);
    }
}
