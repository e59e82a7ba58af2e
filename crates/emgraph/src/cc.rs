//! Connected components by hook-and-contract (Borůvka-style) rounds.
//!
//! Each round: every component label *hooks* onto its minimum neighbouring
//! label; the resulting parent forest is compressed by pointer doubling
//! (each step a sort + join, not a pointer chase); labels and edges are
//! rewritten through the compressed map; intra-component edges vanish.  The
//! number of live labels at least halves per round, so
//!
//! ```text
//! I/Os = O(Sort(E) · log(V))
//! ```
//!
//! (the survey also covers `O(Sort(E) · log(V/M))` refinements that switch
//! to an internal-memory algorithm once the contracted graph fits; the
//! implementation does exactly that as its base case).

use em_core::{ExtVec, ExtVecWriter};
use emsort::{SortConfig, SortingWriter};
use pdm::Result;

use crate::contract::{compress, relabel, through, Labels, ROOT};
use crate::util::{check_vertex, join_left_stream};

/// Component label of every vertex of the undirected graph `edges` (dense
/// vertex ids `0..n`): `(vertex, label)` sorted by vertex, where the label
/// is the minimum vertex id of the component.
///
/// An edge naming a vertex `≥ n` is [`InvalidRequest`](pdm::PdmError::InvalidRequest).
pub fn connected_components(
    edges: &ExtVec<(u64, u64)>,
    n: u64,
    cfg: &SortConfig,
) -> Result<ExtVec<(u64, u64)>> {
    let device = edges.device().clone();

    // labels: (vertex, current label), sorted by vertex.
    let mut labels = {
        let mut w: ExtVecWriter<(u64, u64)> = ExtVecWriter::new(device.clone());
        for v in 0..n {
            w.push((v, v))?;
        }
        w.finish()?
    };
    // Live inter-label edges.
    let mut cur_edges = {
        let mut w: ExtVecWriter<(u64, u64)> = ExtVecWriter::new(device.clone());
        let mut r = edges.reader();
        while let Some((u, v)) = r.try_next()? {
            check_vertex(u.max(v), n)?;
            if u != v {
                w.push((u, v))?;
            }
        }
        w.finish()?
    };

    for round in 0.. {
        // Every label with an edge hooks or is hooked, so live labels at
        // least halve a round: 64 rounds cover any `u64` vertex count.
        debug_assert!(round < 64, "component labelling failed to converge");
        if cur_edges.is_empty() {
            break;
        }
        // Base case: the contracted edge set fits in memory.
        if cur_edges.len() as usize <= cfg.mem_records / 2 {
            let parents = in_memory_components(&cur_edges)?;
            cur_edges.free()?;
            cur_edges = ExtVec::new(device.clone());
            labels = apply_map(labels, &parents, cfg)?;
            parents.free()?;
            break;
        }

        // Hook: each label points to its minimum neighbour if smaller.  The
        // doubled arcs feed the sort as they are produced, and the sorted
        // arc list is consumed once by the grouping scan — both ends of the
        // sort fused.
        let mut arcs_w: SortingWriter<(u64, u64), _> =
            SortingWriter::new(device.clone(), cfg, |x, y| x < y);
        {
            let mut r = cur_edges.reader();
            while let Some((a, b)) = r.try_next()? {
                arcs_w.push((a, b))?;
                arcs_w.push((b, a))?;
            }
        }
        let mut hooks_w: ExtVecWriter<(u64, u64)> = ExtVecWriter::new(device.clone());
        arcs_w.finish_streaming(|r| {
            let mut cur_src = u64::MAX;
            while let Some((src, dst)) = r.try_next()? {
                // Arcs sort by (src, dst): a group's first is its minimum.
                if src != cur_src {
                    cur_src = src;
                    if dst < src {
                        hooks_w.push((src, dst))?;
                    }
                }
            }
            Ok(())
        })?;
        let hooks = hooks_w.finish()?; // sorted by src, src strictly decreases to parent

        // Contract: flatten the parent forest, then rewrite labels and
        // edges through it (duplicate label pairs collapse to one edge).
        let parents = compress(hooks, cfg)?;
        labels = apply_map(labels, &parents, cfg)?;
        cur_edges = relabel(cur_edges, &parents, cfg)?;
        parents.free()?;
    }
    cur_edges.free()?;
    Ok(labels)
}

/// Rewrite the label column of `(vertex, label)` through the parent map
/// (labels not present in the map are unchanged).  Consumes `labels`.
fn apply_map(
    labels: ExtVec<(u64, u64)>,
    parents: &ExtVec<(u64, u64)>,
    cfg: &SortConfig,
) -> Result<ExtVec<(u64, u64)>> {
    let device = labels.device().clone();
    // Key by label: (label, vertex) pairs flow straight into the sort, and
    // the sorted sequence is consumed once by the join — both ends fused.
    let mut by_label_w: SortingWriter<(u64, u64), _> =
        SortingWriter::new(device.clone(), cfg, |a: &(u64, u64), b| a.0 < b.0);
    {
        let mut r = labels.reader();
        while let Some((v, l)) = r.try_next()? {
            by_label_w.push((l, v))?;
        }
    }
    labels.free()?;
    let joined = by_label_w.finish_streaming(|s| join_left_stream(s, |r| r.0, parents, ROOT))?;
    let remapped = {
        let mut w: SortingWriter<(u64, u64), _> =
            SortingWriter::new(device.clone(), cfg, |a: &(u64, u64), b| a.0 < b.0);
        let mut r = joined.reader();
        while let Some(((l, v), p)) = r.try_next()? {
            w.push((v, through(l, p)))?;
        }
        w.finish_sorted()?
    };
    joined.free()?;
    Ok(remapped)
}

/// In-memory union-find base case; returns a `(label, root)` map for every
/// label that appears in `edges`, sorted by label.
fn in_memory_components(edges: &ExtVec<(u64, u64)>) -> Result<ExtVec<(u64, u64)>> {
    let mut labels = Labels::default();
    for (a, b) in edges.to_vec()? {
        labels.union(a, b);
    }
    ExtVec::from_slice(edges.device().clone(), &labels.into_parents())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{grid_graph, planted_components, random_graph};
    use em_core::EmConfig;
    use pdm::SharedDevice;

    fn device() -> SharedDevice {
        EmConfig::new(128, 16).ram_disk()
    }

    fn reference_cc(edges: &[(u64, u64)], n: u64) -> Vec<(u64, u64)> {
        let mut parent: Vec<u64> = (0..n).collect();
        fn find(p: &mut Vec<u64>, x: u64) -> u64 {
            if p[x as usize] != x {
                let r = find(p, p[x as usize]);
                p[x as usize] = r;
            }
            p[x as usize]
        }
        for &(a, b) in edges {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                let (lo, hi) = (ra.min(rb), ra.max(rb));
                parent[hi as usize] = lo;
            }
        }
        (0..n).map(|v| (v, find(&mut parent, v))).collect()
    }

    #[test]
    fn planted_components_found() {
        let d = device();
        let g = planted_components(d.clone(), 5, 100, 121).unwrap();
        // Force external rounds with a small memory budget.
        let got = connected_components(&g, 500, &SortConfig::new(128)).unwrap();
        let expect: Vec<(u64, u64)> = (0..500u64).map(|v| (v, (v / 100) * 100)).collect();
        assert_eq!(got.to_vec().unwrap(), expect);
    }

    #[test]
    fn path_collapses_to_single_label() {
        let d = device();
        let edges: Vec<(u64, u64)> = (0..499u64).map(|i| (i, i + 1)).collect();
        let g = ExtVec::from_slice(d, &edges).unwrap();
        let got = connected_components(&g, 500, &SortConfig::new(128)).unwrap();
        assert!(got.to_vec().unwrap().iter().all(|&(_, l)| l == 0));
    }

    #[test]
    fn grid_is_one_component() {
        let d = device();
        let g = grid_graph(d.clone(), 20, 20).unwrap();
        let got = connected_components(&g, 400, &SortConfig::new(128)).unwrap();
        assert!(got.to_vec().unwrap().iter().all(|&(_, l)| l == 0));
    }

    #[test]
    fn random_graph_matches_union_find() {
        let d = device();
        let n = 1000u64;
        let g = random_graph(d.clone(), n, 1.5, 123).unwrap(); // sparse → many components
        let got = connected_components(&g, n, &SortConfig::new(256)).unwrap();
        assert_eq!(got.to_vec().unwrap(), reference_cc(&g.to_vec().unwrap(), n));
    }

    #[test]
    fn isolated_vertices_keep_own_label() {
        let d = device();
        let g = ExtVec::from_slice(d, &[(0u64, 1u64)]).unwrap();
        let got = connected_components(&g, 4, &SortConfig::new(128)).unwrap();
        assert_eq!(got.to_vec().unwrap(), vec![(0, 0), (1, 0), (2, 2), (3, 3)]);
    }

    #[test]
    fn empty_graph() {
        let d = device();
        let g: ExtVec<(u64, u64)> = ExtVec::new(d);
        let got = connected_components(&g, 3, &SortConfig::new(128)).unwrap();
        assert_eq!(got.to_vec().unwrap(), vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn io_scales_with_sort_times_log() {
        // Realistic block size so Sort(E)·log ≪ E.
        let d = EmConfig::new(4096, 16).ram_disk();
        let n = 3000u64;
        let g = random_graph(d.clone(), n, 3.0, 125).unwrap();
        let e = g.len();
        let before = d.stats().snapshot();
        connected_components(&g, n, &SortConfig::new(2048)).unwrap();
        let ios = d.stats().snapshot().since(&before).total();
        // Generous constant, but must be far below 1 I/O per edge per round.
        assert!(
            (ios as f64) < 1.2 * e as f64,
            "CC used {ios} I/Os for {e} edges"
        );
    }
}
