//! # `emgraph` — external-memory graph algorithms
//!
//! The survey's batched graph-processing toolkit.  The unifying theme is
//! that *pointer chasing is death* in external memory (`Ω(1)` I/Os per
//! hop), so every algorithm here is recast as a short pipeline of sorts,
//! scans and merge-joins over edge lists — paying `O(Sort(N))` total instead
//! of `O(N)`:
//!
//! * [`list_rank`] / [`list_rank_weighted`] — list ranking by randomized
//!   independent-set contraction: `O(Sort(N))` I/Os (experiment F9), versus
//!   the naive `Θ(N)` pointer walk.
//! * [`euler_tour`] and [`tree_depths`] — the Euler-tour technique: tree
//!   problems (depth, subtree membership) become list-ranking problems.
//! * [`time_forward`] — evaluate a topologically-ordered DAG by shipping
//!   values "forward in time" through an external priority queue:
//!   `O(Sort(E))` I/Os (experiment F14).
//! * [`bfs_mr`] — Munagala–Ranade breadth-first search:
//!   `O(V + Sort(E))` I/Os versus the naive `Ω(E)` (experiment F10).
//! * [`connected_components`] — hook-and-contract (Borůvka-style) labeling
//!   in `O(Sort(E) · log(V))` I/Os (experiment F11).
//! * [`minimum_spanning_forest`] — external Borůvka over the same
//!   contraction step (pointer doubling + edge relabeling, written once for
//!   both): `O(Sort(E) · log(V))` I/Os (experiment F11a).
//! * [`gen`] — deterministic workload generators (lists, trees, random
//!   graphs, grids) shared by tests, examples and benches.
//!
//! Graphs are plain external edge lists: `ExtVec<(u64, u64)>` with dense
//! vertex ids `0..V`.  Undirected graphs store each edge once; algorithms
//! symmetrize internally when they need arcs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod bfs;
mod cc;
mod contract;
mod euler;
pub mod gen;
mod list_ranking;
mod mis;
mod mst;
mod sssp;
mod time_forward;
mod util;

pub use bfs::{bfs_mr, bfs_naive};
pub use cc::connected_components;
pub use euler::{euler_tour, tree_depths, EulerTour};
pub use list_ranking::{list_rank, list_rank_naive, list_rank_weighted};
pub use mis::maximal_independent_set;
pub use mst::minimum_spanning_forest;
pub use sssp::sssp;
pub use time_forward::time_forward;

#[cfg(test)]
mod overlap_tests {
    use super::*;
    use em_core::EmConfig;
    use emsort::{OverlapConfig, SortConfig};

    #[test]
    fn overlapped_rounds_match_sync_results() {
        // The same BFS / CC answers must come out whether the rounds run
        // with synchronous or overlapped (multi-disk) I/O.
        let n = 1200u64;
        let sync_dev = EmConfig::new(256, 16).ram_disk();
        let g = gen::random_connected_graph(sync_dev.clone(), n, 2000, 31).unwrap();
        let sync_cfg = SortConfig::new(512).with_overlap(OverlapConfig::off());
        let want_bfs = bfs_mr(&g, n, 0, &sync_cfg).unwrap().to_vec().unwrap();
        let want_cc = connected_components(&g, n, &sync_cfg)
            .unwrap()
            .to_vec()
            .unwrap();

        let dev =
            pdm::DiskArray::new_ram_with(4, 256, pdm::Placement::Striped, pdm::IoMode::Overlapped)
                as pdm::SharedDevice;
        let g2 = gen::random_connected_graph(dev, n, 2000, 31).unwrap();
        let over_cfg = SortConfig::new(512).with_overlap(OverlapConfig::symmetric(2));
        assert_eq!(
            bfs_mr(&g2, n, 0, &over_cfg).unwrap().to_vec().unwrap(),
            want_bfs
        );
        assert_eq!(
            connected_components(&g2, n, &over_cfg)
                .unwrap()
                .to_vec()
                .unwrap(),
            want_cc
        );
    }

    /// An edge naming vertex `n` is a typed error from every algorithm that
    /// reads an edge list, and so is a source `n` on a valid graph and a
    /// self loop given to the MIS; each frees whatever its scan had written.
    #[test]
    fn a_vertex_id_out_of_range_is_invalid_request() {
        let n = 600u64;
        let d = EmConfig::new(256, 16).ram_disk();
        let cfg = SortConfig::new(256);
        let weigh = |pairs: &[(u64, u64)]| -> Vec<(u64, u64, u64)> {
            pairs.iter().map(|&(u, v)| (u, v, u + v)).collect()
        };
        let mut pairs: Vec<(u64, u64)> = (0..n - 1).map(|v| (v, v + 1)).collect();
        let path = em_core::ExtVec::from_slice(d.clone(), &pairs).unwrap();
        let path_w = em_core::ExtVec::from_slice(d.clone(), &weigh(&pairs)).unwrap();
        pairs.insert(400, (7, n));
        let g = em_core::ExtVec::from_slice(d.clone(), &pairs).unwrap();
        let w = em_core::ExtVec::from_slice(d.clone(), &weigh(&pairs)).unwrap();
        let looped = em_core::ExtVec::from_slice(d.clone(), &[(0, 1), (1, 1), (1, 2)]).unwrap();
        let held = d.allocated_blocks();
        for (what, got) in [
            ("bfs_mr", bfs_mr(&g, n, 0, &cfg).map(|_| ())),
            ("bfs_naive", bfs_naive(&g, n, 0, &cfg).map(|_| ())),
            ("sssp", sssp(&w, n, 0, &cfg).map(|_| ())),
            ("bfs_mr source", bfs_mr(&path, n, n, &cfg).map(|_| ())),
            ("bfs_naive source", bfs_naive(&path, n, n, &cfg).map(|_| ())),
            ("sssp source", sssp(&path_w, n, n, &cfg).map(|_| ())),
            ("cc", connected_components(&g, n, &cfg).map(|_| ())),
            ("mis", maximal_independent_set(&g, n, &cfg).map(|_| ())),
            (
                "mis self loop",
                maximal_independent_set(&looped, n, &cfg).map(|_| ()),
            ),
            ("msf", minimum_spanning_forest(&w, n, &cfg).map(|_| ())),
        ] {
            assert!(
                matches!(got, Err(pdm::PdmError::InvalidRequest(_))),
                "{what}: {got:?}"
            );
            assert_eq!(d.allocated_blocks(), held, "{what} leaked");
        }
    }
}
