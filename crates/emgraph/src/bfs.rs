//! External breadth-first search.
//!
//! [`bfs_mr`] is the Munagala–Ranade algorithm: the classic observation that
//! the neighbours of level `L(t)` minus `L(t) ∪ L(t−1)` are exactly
//! `L(t+1)`, so levels can be built by *sorting and set-subtraction* instead
//! of a visited-bit lookup per edge:
//!
//! ```text
//! I/Os = O(V + Sort(E))
//! ```
//!
//! (the `V` term pays one random access per vertex to fetch its adjacency
//! list).  [`bfs_naive`] is the baseline the survey contrasts it with: an
//! internal-memory BFS run over unclustered external adjacency data, paying
//! `Θ(1)` I/Os per *edge* (experiment F10).

use em_core::{ExtVec, ExtVecWriter};
use emsort::{SortConfig, SortingWriter};
use pdm::Result;

use crate::util::clustered_adjacency;

/// Munagala–Ranade BFS over the undirected graph `edges` (vertex ids dense
/// in `0..n`).  Returns `(vertex, distance)` for every vertex reachable from
/// `source`, sorted by vertex id.
pub fn bfs_mr(
    edges: &ExtVec<(u64, u64)>,
    n: u64,
    source: u64,
    cfg: &SortConfig,
) -> Result<ExtVec<(u64, u64)>> {
    assert!(source < n);
    let device = edges.device().clone();

    // Preprocess: clustered adjacency (arcs sorted by (src, dst)) plus a
    // dense offset table (start, degree) indexed by vertex.
    let (adj, offsets) = clustered_adjacency(edges, n, cfg, |(u, v)| [(u, v), (v, u)], |a| *a)?;

    // Levels append in discovery order; the sink sorts them by vertex id
    // without ever materializing the unsorted sequence.
    let mut out: SortingWriter<(u64, u64), _> =
        SortingWriter::new(device.clone(), cfg, |a: &(u64, u64), b| a.0 < b.0);
    out.push((source, 0))?;

    let mut prev: ExtVec<u64> = ExtVec::new(device.clone()); // L(t−1)
    let mut cur: ExtVec<u64> = ExtVec::from_slice(device.clone(), &[source])?; // L(t)
    let mut dist = 0u64;
    let mut nbr_buf: Vec<(u64, u64)> = Vec::new();

    while !cur.is_empty() {
        // Gather neighbours of the frontier straight into a sorting sink:
        // runs form as the gather produces, so the unsorted neighbour list
        // is never written out or re-read.
        let mut nbrs_w: SortingWriter<u64, _> =
            SortingWriter::new(device.clone(), cfg, |a, b| a < b);
        {
            let mut rc = cur.reader();
            while let Some(v) = rc.try_next()? {
                let (start, deg) = offsets.get(v)?; // one random I/O per frontier vertex
                if deg > 0 {
                    adj.read_range(start, deg as usize, &mut nbr_buf)?;
                    for (_, dst) in nbr_buf.drain(..) {
                        nbrs_w.push(dst)?;
                    }
                }
            }
        }

        // next = dedup(sort(nbrs)) − cur − prev (all three sorted).  The
        // sorted neighbour list is consumed in exactly one pass, so the
        // final merge streams straight into the set subtraction.
        let mut next_w: ExtVecWriter<u64> = ExtVecWriter::new(device.clone());
        nbrs_w.finish_streaming(|rn| {
            let mut rc = cur.reader();
            let mut rp = prev.reader();
            let mut cur_c: Option<u64> = rc.try_next()?;
            let mut cur_p: Option<u64> = rp.try_next()?;
            let mut last: Option<u64> = None;
            while let Some(x) = rn.try_next()? {
                if last == Some(x) {
                    continue; // dedup
                }
                last = Some(x);
                while cur_c.is_some_and(|c| c < x) {
                    cur_c = rc.try_next()?;
                }
                while cur_p.is_some_and(|p| p < x) {
                    cur_p = rp.try_next()?;
                }
                if cur_c != Some(x) && cur_p != Some(x) {
                    next_w.push(x)?;
                }
            }
            Ok(())
        })?;
        let next = next_w.finish()?;

        dist += 1;
        {
            let mut r = next.reader();
            while let Some(v) = r.try_next()? {
                out.push((v, dist))?;
            }
        }
        prev.free()?;
        prev = cur;
        cur = next;
    }
    prev.free()?;
    cur.free()?;
    adj.free()?;
    offsets.free()?;

    out.finish_sorted()
}

/// Baseline: internal-memory BFS over *unclustered* external adjacency — the
/// edge endpoints of each vertex are fetched with one random I/O apiece, so
/// the total cost is `Θ(E)` I/Os.  (The visited set and queue are held in
/// memory, which only helps the baseline.)  Returns `(vertex, distance)`
/// sorted by vertex id.
pub fn bfs_naive(
    edges: &ExtVec<(u64, u64)>,
    n: u64,
    source: u64,
    cfg: &SortConfig,
) -> Result<ExtVec<(u64, u64)>> {
    assert!(source < n);
    // In-memory index of *positions* into the unclustered edge array.
    let mut incidence: Vec<Vec<u64>> = vec![Vec::new(); n as usize];
    {
        let mut r = edges.reader();
        let mut i = 0u64;
        while let Some((u, v)) = r.try_next()? {
            incidence[u as usize].push(i);
            incidence[v as usize].push(i);
            i += 1;
        }
    }
    let mut dist = vec![u64::MAX; n as usize];
    dist[source as usize] = 0;
    let mut queue = std::collections::VecDeque::from([source]);
    // Discovery order goes straight into a sorting sink: the walk holds one
    // block, so the unsorted visit list is never written.
    let mut out = SortingWriter::new(edges.device().clone(), cfg, |a: &(u64, u64), b| a.0 < b.0);
    while let Some(u) = queue.pop_front() {
        out.push((u, dist[u as usize]))?;
        for &pos in &incidence[u as usize] {
            let (a, b) = edges.get(pos)?; // one random I/O per incident edge
            let w = if a == u { b } else { a };
            if dist[w as usize] == u64::MAX {
                dist[w as usize] = dist[u as usize] + 1;
                queue.push_back(w);
            }
        }
    }
    out.finish_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{grid_graph, random_connected_graph, random_graph};
    use em_core::EmConfig;
    use pdm::SharedDevice;

    fn device() -> SharedDevice {
        EmConfig::new(128, 16).ram_disk()
    }

    fn reference_bfs(edges: &[(u64, u64)], n: u64, source: u64) -> Vec<(u64, u64)> {
        let mut adj = vec![Vec::new(); n as usize];
        for &(u, v) in edges {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        let mut dist = vec![u64::MAX; n as usize];
        dist[source as usize] = 0;
        let mut q = std::collections::VecDeque::from([source]);
        while let Some(u) = q.pop_front() {
            for &v in &adj[u as usize] {
                if dist[v as usize] == u64::MAX {
                    dist[v as usize] = dist[u as usize] + 1;
                    q.push_back(v);
                }
            }
        }
        (0..n)
            .filter(|&v| dist[v as usize] != u64::MAX)
            .map(|v| (v, dist[v as usize]))
            .collect()
    }

    #[test]
    fn grid_distances() {
        let d = device();
        let (w, h) = (12u64, 9u64);
        let g = grid_graph(d.clone(), w, h).unwrap();
        let got = bfs_mr(&g, w * h, 0, &SortConfig::new(256)).unwrap();
        // Manhattan distance from the corner.
        let expect: Vec<(u64, u64)> = (0..w * h).map(|v| (v, v % w + v / w)).collect();
        assert_eq!(got.to_vec().unwrap(), expect);
    }

    #[test]
    fn random_connected_matches_reference() {
        let d = device();
        let n = 1500u64;
        let g = random_connected_graph(d.clone(), n, 2000, 111).unwrap();
        let got = bfs_mr(&g, n, 3, &SortConfig::new(256)).unwrap();
        assert_eq!(
            got.to_vec().unwrap(),
            reference_bfs(&g.to_vec().unwrap(), n, 3)
        );
    }

    #[test]
    fn disconnected_graph_reports_only_reachable() {
        let d = device();
        // Two components: 0-1-2 and 3-4.
        let g = ExtVec::from_slice(d, &[(0u64, 1u64), (1, 2), (3, 4)]).unwrap();
        let got = bfs_mr(&g, 5, 0, &SortConfig::new(128)).unwrap();
        assert_eq!(got.to_vec().unwrap(), vec![(0, 0), (1, 1), (2, 2)]);
        let got4 = bfs_mr(&g, 5, 4, &SortConfig::new(128)).unwrap();
        assert_eq!(got4.to_vec().unwrap(), vec![(3, 1), (4, 0)]);
    }

    #[test]
    fn naive_matches_mr() {
        let d = device();
        let n = 600u64;
        let g = random_graph(d.clone(), n, 4.0, 113).unwrap();
        let cfg = SortConfig::new(256);
        let a = bfs_mr(&g, n, 0, &cfg).unwrap().to_vec().unwrap();
        let b = bfs_naive(&g, n, 0, &cfg).unwrap().to_vec().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mr_beats_naive_on_io() {
        // Realistic block size (B = 256 pairs): with tiny blocks the sort
        // constants dominate and per-edge I/O wins — the survey's crossover.
        let d = EmConfig::new(4096, 16).ram_disk();
        let n = 4000u64;
        let g = random_connected_graph(d.clone(), n, 12_000, 115).unwrap();
        let cfg = SortConfig::new(8192);
        let e = g.len();

        let before = d.stats().snapshot();
        bfs_naive(&g, n, 0, &cfg).unwrap();
        let naive = d.stats().snapshot().since(&before).total();

        let before = d.stats().snapshot();
        bfs_mr(&g, n, 0, &cfg).unwrap();
        let mr = d.stats().snapshot().since(&before).total();

        assert!(
            naive as f64 >= 1.5 * e as f64,
            "naive pays per edge: {naive} for {e} edges"
        );
        assert!(mr < naive, "MR ({mr}) should beat per-edge I/O ({naive})");
    }

    #[test]
    fn single_vertex_graph() {
        let d = device();
        let g: ExtVec<(u64, u64)> = ExtVec::new(d);
        let got = bfs_mr(&g, 1, 0, &SortConfig::new(128)).unwrap();
        assert_eq!(got.to_vec().unwrap(), vec![(0, 0)]);
    }

    #[test]
    fn temporaries_freed() {
        let d = device();
        let g = random_connected_graph(d.clone(), 800, 800, 117).unwrap();
        let before = d.allocated_blocks();
        let got = bfs_mr(&g, 800, 0, &SortConfig::new(256)).unwrap();
        assert_eq!(d.allocated_blocks(), before + got.num_blocks() as u64);
    }
}
