//! Maximal independent set via time-forward processing.
//!
//! The survey's showcase application of [`time_forward`](crate::time_forward):
//! process vertices in id order; a vertex joins the set iff none of its
//! lower-numbered neighbours did.  Every "am I blocked?" message travels
//! through the external priority queue, so the whole computation costs
//! `O(Sort(E))` I/Os and no random accesses at all.

use em_core::{ExtVec, ExtVecWriter};
use emsort::SortConfig;
use pdm::{PdmError, Result};

use crate::time_forward;
use crate::util::check_vertex;

/// Compute the lexicographically-first maximal independent set of the
/// undirected graph `edges` (dense vertex ids `0..n`).  Returns
/// `(vertex, in_set)` with `in_set ∈ {0, 1}`, sorted by vertex id.
/// `O(Sort(E))` I/Os.
///
/// An edge naming a vertex `≥ n`, or a self loop `(v, v)` — which would
/// leave no independent set holding `v` — is
/// [`InvalidRequest`](pdm::PdmError::InvalidRequest).
pub fn maximal_independent_set(
    edges: &ExtVec<(u64, u64)>,
    n: u64,
    cfg: &SortConfig,
) -> Result<ExtVec<(u64, u64)>> {
    let device = edges.device().clone();
    // Orient every edge from the smaller to the larger endpoint: a valid
    // topological numbering of the derived DAG.
    let oriented = {
        let mut w: ExtVecWriter<(u64, u64)> = ExtVecWriter::new(device.clone());
        let mut r = edges.reader();
        while let Some((u, v)) = r.try_next()? {
            check_vertex(u.max(v), n)?;
            if u == v {
                return Err(PdmError::InvalidRequest(format!(
                    "maximal independent set: vertex {v} has a self loop"
                )));
            }
            w.push((u.min(v), u.max(v)))?;
        }
        w.finish()?
    };
    let labels: ExtVec<(u64, u64)> = {
        let mut w = ExtVecWriter::new(device);
        for v in 0..n {
            w.push((v, 0))?;
        }
        w.finish()?
    };
    let result = time_forward(&labels, &oriented, cfg, |_, _, incoming| {
        // incoming = membership flags of lower-numbered neighbours.
        u64::from(incoming.iter().all(|&m| m == 0))
    })?;
    labels.free()?;
    oriented.free()?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use em_core::EmConfig;
    use pdm::SharedDevice;

    fn device() -> SharedDevice {
        EmConfig::new(256, 16).ram_disk()
    }

    fn check_mis(edges: &[(u64, u64)], n: u64, flags: &[(u64, u64)]) {
        assert_eq!(flags.len() as u64, n);
        let in_set: Vec<bool> = flags.iter().map(|&(_, f)| f == 1).collect();
        // Independence.
        for &(u, v) in edges {
            assert!(
                !(in_set[u as usize] && in_set[v as usize]),
                "edge ({u},{v}) inside the set"
            );
        }
        // Maximality: every excluded vertex has a neighbour in the set.
        let mut adj = vec![Vec::new(); n as usize];
        for &(u, v) in edges {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        for v in 0..n as usize {
            if !in_set[v] {
                assert!(
                    adj[v].iter().any(|&u| in_set[u as usize]),
                    "vertex {v} excluded but unblocked"
                );
            }
        }
        // Lexicographically-first: matches the greedy reference.
        let mut greedy = vec![false; n as usize];
        for v in 0..n as usize {
            greedy[v] = adj[v]
                .iter()
                .all(|&u| u as usize >= v || !greedy[u as usize]);
        }
        assert_eq!(in_set, greedy, "not the greedy MIS");
    }

    #[test]
    fn path_graph_alternates() {
        let d = device();
        let edges: Vec<(u64, u64)> = (0..9u64).map(|i| (i, i + 1)).collect();
        let g = ExtVec::from_slice(d, &edges).unwrap();
        let flags = maximal_independent_set(&g, 10, &SortConfig::new(256)).unwrap();
        let got = flags.to_vec().unwrap();
        assert_eq!(
            got,
            (0..10u64)
                .map(|v| (v, (v % 2 == 0) as u64))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn random_graphs_are_valid_mis() {
        let d = device();
        for seed in [181u64, 182, 183] {
            let n = 1500u64;
            let g = gen::random_graph(d.clone(), n, 4.0, seed).unwrap();
            let flags = maximal_independent_set(&g, n, &SortConfig::new(512)).unwrap();
            check_mis(&g.to_vec().unwrap(), n, &flags.to_vec().unwrap());
        }
    }

    #[test]
    fn complete_graph_keeps_only_vertex_zero() {
        let d = device();
        let mut edges = Vec::new();
        for u in 0..8u64 {
            for v in u + 1..8 {
                edges.push((u, v));
            }
        }
        let g = ExtVec::from_slice(d, &edges).unwrap();
        let flags = maximal_independent_set(&g, 8, &SortConfig::new(256)).unwrap();
        let got = flags.to_vec().unwrap();
        assert_eq!(got[0], (0, 1));
        assert!(got[1..].iter().all(|&(_, f)| f == 0));
    }

    #[test]
    fn edgeless_graph_takes_everyone() {
        let d = device();
        let g: ExtVec<(u64, u64)> = ExtVec::new(d);
        let flags = maximal_independent_set(&g, 5, &SortConfig::new(256)).unwrap();
        assert!(flags.to_vec().unwrap().iter().all(|&(_, f)| f == 1));
    }
}
