//! Deterministic workload generators for lists, trees and graphs.
//!
//! Everything is seeded, so tests and experiments are reproducible.  All
//! generators return external arrays on the caller's device.

use em_core::{ExtVec, ExtVecWriter};
use pdm::hash::splitmix;
use pdm::{PdmError, Result, SharedDevice};

/// The splitmix64 stream every generator draws from: each draw adds the
/// golden-ratio step to the state, then mixes it.
struct Draws(u64);

impl Draws {
    /// A draw in `0..n` (`n ≥ 1`).
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix(self.0) % n
    }

    /// Fisher–Yates, from the back.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// [`PdmError::InvalidRequest`] unless `n ≥ least`.
fn at_least(n: u64, least: u64) -> Result<()> {
    if n < least {
        return Err(PdmError::InvalidRequest(format!(
            "{n} vertices; the generator needs at least {least}"
        )));
    }
    Ok(())
}

/// A random singly-linked list over nodes `0..n` as `(node, successor)`
/// pairs sorted by node id; returns `(pairs, head)`.  The tail's successor
/// is `u64::MAX`.  `n = 0` is [`PdmError::InvalidRequest`].
pub fn random_list(device: SharedDevice, n: u64, seed: u64) -> Result<(ExtVec<(u64, u64)>, u64)> {
    at_least(n, 1)?;
    let mut rng = Draws(seed);
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
    let mut rng = Draws(seed);
    let mut w = ExtVecWriter::new(device);
    for v in 1..n {
        let p = rng.below(v);
        w.push((p, v))?;
    }
    w.finish()
}

/// A random sparse undirected graph on `n` vertices with ~`avg_degree·n/2`
/// distinct edges (no loops, no duplicates), as `(u, v)` with `u < v`.
/// `n < 2` is [`PdmError::InvalidRequest`].
pub fn random_graph(
    device: SharedDevice,
    n: u64,
    avg_degree: f64,
    seed: u64,
) -> Result<ExtVec<(u64, u64)>> {
    at_least(n, 2)?;
    let mut rng = Draws(seed);
    let target = ((n as f64 * avg_degree) / 2.0) as usize;
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

/// A connected random graph: a random tree plus extra random edges.
/// Extra edges on fewer than two vertices are [`PdmError::InvalidRequest`].
pub fn random_connected_graph(
    device: SharedDevice,
    n: u64,
    extra_edges: u64,
    seed: u64,
) -> Result<ExtVec<(u64, u64)>> {
    if extra_edges > 0 {
        at_least(n, 2)?;
    }
    let mut rng = Draws(seed);
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
    let mut rng = Draws(seed);
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
    let mut rng = Draws(seed);
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

    #[test]
    fn random_dag_edges_point_forward() {
        let g = random_dag(device(), 200, 3, 13).unwrap();
        assert!(g.to_vec().unwrap().iter().all(|(u, v)| u < v));
    }
}
