//! Deterministic workload generators for lists, trees and graphs.
//!
//! Everything is seeded: each generator draws from the workspace's one
//! splitmix64 stream, [`Draws`], the stream the tests, examples and
//! experiments draw their own inputs from, so a seed names one input
//! everywhere.  All generators return external arrays on the caller's
//! device.

use em_core::{ExtVec, ExtVecWriter};
use pdm::hash::Draws;
use pdm::{PdmError, Result, SharedDevice};

/// [`PdmError::InvalidRequest`] unless `n ≥ least`.
fn at_least(n: u64, least: u64) -> Result<()> {
    if n < least {
        return Err(PdmError::InvalidRequest(format!(
            "{n} vertices; the generator needs at least {least}"
        )));
    }
    Ok(())
}

/// [`PdmError::InvalidRequest`] unless `edges` distinct edges fit among
/// the `n·(n−1)/2` pairs of `n` vertices, so a rejection loop ends.
fn within_pairs(n: u64, edges: u128) -> Result<()> {
    let pairs = u128::from(n) * u128::from(n.saturating_sub(1)) / 2;
    if edges > pairs {
        return Err(PdmError::InvalidRequest(format!(
            "{edges} distinct edges; {n} vertices have {pairs} pairs"
        )));
    }
    Ok(())
}

/// A random singly-linked list over nodes `0..n` as `(node, successor)`
/// pairs sorted by node id; returns `(pairs, head)`.  The tail's successor
/// is `u64::MAX`.  `n = 0` is [`PdmError::InvalidRequest`].
pub fn random_list(device: SharedDevice, n: u64, seed: u64) -> Result<(ExtVec<(u64, u64)>, u64)> {
    at_least(n, 1)?;
    let mut rng = Draws::new(seed);
    // Random order of the node ids = positions along the list.
    let mut order: Vec<u64> = (0..n).collect();
    rng.shuffle(&mut order);
    let head = order[0];
    let mut succ: Vec<(u64, u64)> = (0..n).map(|i| (i, u64::MAX)).collect();
    for w in order.windows(2) {
        succ[w[0] as usize].1 = w[1];
    }
    let v = ExtVec::from_slice(device, &succ)?;
    Ok((v, head))
}

/// A uniformly random rooted tree on vertices `0..n` (root 0), returned as
/// undirected edges `(parent, child)`.  Every vertex `v > 0` picks a random
/// parent among `0..v`.  `n = 0` is [`PdmError::InvalidRequest`].
pub fn random_tree(device: SharedDevice, n: u64, seed: u64) -> Result<ExtVec<(u64, u64)>> {
    at_least(n, 1)?;
    let mut rng = Draws::new(seed);
    let mut w = ExtVecWriter::new(device);
    for v in 1..n {
        let p = rng.below(v);
        w.push((p, v))?;
    }
    w.finish()
}

/// A random sparse undirected graph on `n` vertices with ~`avg_degree·n/2`
/// distinct edges (no loops, no duplicates), as `(u, v)` with `u < v`.
/// `n < 2`, or more edges than the `n·(n−1)/2` pairs, is
/// [`PdmError::InvalidRequest`].
pub fn random_graph(
    device: SharedDevice,
    n: u64,
    avg_degree: f64,
    seed: u64,
) -> Result<ExtVec<(u64, u64)>> {
    at_least(n, 2)?;
    let mut rng = Draws::new(seed);
    let target = ((n as f64 * avg_degree) / 2.0) as usize;
    within_pairs(n, target as u128)?;
    let mut edges = std::collections::BTreeSet::new();
    while edges.len() < target {
        let a = rng.below(n);
        let b = rng.below(n);
        if a != b {
            edges.insert((a.min(b), a.max(b)));
        }
    }
    let flat: Vec<(u64, u64)> = edges.into_iter().collect();
    ExtVec::from_slice(device, &flat)
}

/// A connected random graph: a random tree plus extra random edges.  More
/// edges in all than the `n·(n−1)/2` pairs (extra edges on fewer than two
/// vertices among them) are [`PdmError::InvalidRequest`].
pub fn random_connected_graph(
    device: SharedDevice,
    n: u64,
    extra_edges: u64,
    seed: u64,
) -> Result<ExtVec<(u64, u64)>> {
    within_pairs(n, u128::from(n.saturating_sub(1)) + u128::from(extra_edges))?;
    let mut rng = Draws::new(seed);
    let mut edges = std::collections::BTreeSet::new();
    for v in 1..n {
        let p = rng.below(v);
        edges.insert((p.min(v), p.max(v)));
    }
    let mut added = 0;
    while added < extra_edges {
        let a = rng.below(n);
        let b = rng.below(n);
        if a != b && edges.insert((a.min(b), a.max(b))) {
            added += 1;
        }
    }
    let flat: Vec<(u64, u64)> = edges.into_iter().collect();
    ExtVec::from_slice(device, &flat)
}

/// A `w × h` grid graph (the road-network-like workload): vertex
/// `(x, y) = y·w + x`, edges to the right and downward neighbours.
pub fn grid_graph(device: SharedDevice, w: u64, h: u64) -> Result<ExtVec<(u64, u64)>> {
    let mut out = ExtVecWriter::new(device);
    for y in 0..h {
        for x in 0..w {
            let v = y * w + x;
            if x + 1 < w {
                out.push((v, v + 1))?;
            }
            if y + 1 < h {
                out.push((v, v + w))?;
            }
        }
    }
    out.finish()
}

/// A graph made of `k` disjoint random connected components of `n_each`
/// vertices; returns the edge list and the expected component id of each
/// vertex (`vertex / n_each`).
pub fn planted_components(
    device: SharedDevice,
    k: u64,
    n_each: u64,
    seed: u64,
) -> Result<ExtVec<(u64, u64)>> {
    let mut rng = Draws::new(seed);
    let mut w = ExtVecWriter::new(device);
    for c in 0..k {
        let base = c * n_each;
        for v in 1..n_each {
            let p = rng.below(v);
            w.push((base + p, base + v))?;
        }
        // A few extra intra-component edges.
        for _ in 0..n_each / 4 {
            let a = rng.below(n_each);
            let b = rng.below(n_each);
            if a != b {
                w.push((base + a.min(b), base + a.max(b)))?;
            }
        }
    }
    w.finish()
}

/// A random DAG on topologically-numbered vertices `0..n`: each vertex
/// `v ≥ 1` receives `deg_in` edges from uniformly random earlier vertices
/// (duplicates removed).  Returned sorted by `(src, dst)`.
pub fn random_dag(
    device: SharedDevice,
    n: u64,
    deg_in: u64,
    seed: u64,
) -> Result<ExtVec<(u64, u64)>> {
    let mut rng = Draws::new(seed);
    let mut edges = std::collections::BTreeSet::new();
    for v in 1..n {
        for _ in 0..deg_in {
            let u = rng.below(v);
            edges.insert((u, v));
        }
    }
    let flat: Vec<(u64, u64)> = edges.into_iter().collect();
    ExtVec::from_slice(device, &flat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::EmConfig;

    fn device() -> SharedDevice {
        EmConfig::new(128, 8).ram_disk()
    }

    #[test]
    fn random_list_is_a_permutation_chain() {
        let (list, head) = random_list(device(), 500, 7).unwrap();
        let pairs = list.to_vec().unwrap();
        assert_eq!(pairs.len(), 500);
        // Follow the chain; must visit every node exactly once.
        let succ: Vec<u64> = pairs.iter().map(|p| p.1).collect();
        let mut seen = vec![false; 500];
        let mut cur = head;
        for _ in 0..500 {
            assert!(!seen[cur as usize]);
            seen[cur as usize] = true;
            cur = succ[cur as usize];
        }
        assert_eq!(cur, u64::MAX);
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn random_tree_has_n_minus_one_edges() {
        let t = random_tree(device(), 100, 9).unwrap();
        let edges = t.to_vec().unwrap();
        assert_eq!(edges.len(), 99);
        for (p, c) in edges {
            assert!(p < c, "parent is earlier than child by construction");
        }
    }

    #[test]
    fn grid_graph_edge_count() {
        let g = grid_graph(device(), 4, 3).unwrap();
        // 3 rows × 3 horizontal + 4 cols × 2 vertical = 9 + 8
        assert_eq!(g.len(), 17);
    }

    #[test]
    fn random_graph_no_dupes_or_loops() {
        let g = random_graph(device(), 50, 4.0, 11).unwrap();
        let edges = g.to_vec().unwrap();
        let set: std::collections::BTreeSet<_> = edges.iter().collect();
        assert_eq!(set.len(), edges.len());
        assert!(edges.iter().all(|(a, b)| a < b));
    }

    /// Asking for more distinct edges than there are pairs is refused
    /// before the rejection loop, which would never end; exactly as many
    /// builds the complete graph.
    #[test]
    fn more_edges_than_pairs_is_refused() {
        let complete = random_connected_graph(device(), 3, 1, 17).unwrap();
        assert_eq!(complete.to_vec().unwrap(), vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(random_graph(device(), 3, 2.0, 17).unwrap().len(), 3);
        for got in [
            random_connected_graph(device(), 3, 2, 17),
            random_connected_graph(device(), 1, 1, 17),
            random_graph(device(), 2, 4.0, 17),
            random_graph(device(), 4, 3.5, 17),
        ] {
            assert!(matches!(got, Err(PdmError::InvalidRequest(_))));
        }
    }

    #[test]
    fn random_dag_edges_point_forward() {
        let g = random_dag(device(), 200, 3, 13).unwrap();
        assert!(g.to_vec().unwrap().iter().all(|(u, v)| u < v));
    }
}
