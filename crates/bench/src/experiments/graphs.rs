//! F9 / F10 / F11 / F14 — external graph-algorithm experiments.

use em_core::{bounds, EmConfig, ExtVec};
use emgraph::gen;
use emgraph::{
    bfs_mr, bfs_naive, connected_components, list_rank, list_rank_naive, minimum_spanning_forest,
    sssp, time_forward,
};
use emsort::SortConfig;

use crate::{fmt, measure, table};

/// F9 — list ranking: contraction (`O(Sort(N))`) vs pointer chasing (`Θ(N)`).
pub fn f9_list_ranking() {
    let cfg = EmConfig::new(4096, 16); // B = 512 u64s
    let b = cfg.block_records::<u64>();
    let mut rows = Vec::new();
    for &n in &[32_768u64, 131_072, 524_288] {
        let device = cfg.ram_disk();
        let (list, head) = gen::random_list(device.clone(), n, 90 + n).unwrap();
        let m = 16_384usize;
        let sc = SortConfig::new(m);
        let (_, dn) = measure(&device, || list_rank_naive(&list, head, &sc).unwrap());
        let (_, ds) = measure(&device, || list_rank(&list, head, &sc).unwrap());
        rows.push(vec![
            n.to_string(),
            dn.total().to_string(),
            ds.total().to_string(),
            fmt(dn.total() as f64 / ds.total() as f64),
            fmt(bounds::sort(n, m, b / 2)),
        ]);
    }
    table(
        "F9 — list ranking (B=512, M=16384): pointer chase vs independent-set contraction",
        &[
            "N",
            "naive I/Os",
            "contraction I/Os",
            "speedup",
            "Θ Sort(N)",
        ],
        &rows,
    );
}

/// F10 — BFS: Munagala–Ranade vs per-edge I/O.
pub fn f10_bfs() {
    let cfg = EmConfig::new(4096, 16);
    let mut rows = Vec::new();
    for &n in &[10_000u64, 40_000, 160_000] {
        let device = cfg.ram_disk();
        let g = gen::random_connected_graph(device.clone(), n, 3 * n, 91).unwrap();
        let e = g.len();
        let sc = SortConfig::new(16_384);
        let (_, dn) = measure(&device, || bfs_naive(&g, n, 0, &sc).unwrap());
        let (_, dm) = measure(&device, || bfs_mr(&g, n, 0, &sc).unwrap());
        rows.push(vec![
            n.to_string(),
            e.to_string(),
            dn.total().to_string(),
            dm.total().to_string(),
            fmt(dn.total() as f64 / dm.total() as f64),
        ]);
    }
    table(
        "F10 — BFS on random connected graphs (E ≈ 4V): naive per-edge vs Munagala–Ranade",
        &["V", "E", "naive I/Os", "MR I/Os", "speedup"],
        &rows,
    );

    // Extension: weighted single-source shortest paths (semi-external
    // Dijkstra over the external priority queue).
    let mut rows = Vec::new();
    for &n in &[10_000u64, 40_000, 160_000] {
        let device = cfg.ram_disk();
        let g = gen::random_connected_graph(device.clone(), n, 3 * n, 94).unwrap();
        // Attach weights.
        let weighted = {
            use em_core::hash::Draws;
            use em_core::ExtVecWriter;
            let mut rng = Draws::new(95);
            let mut w: ExtVecWriter<(u64, u64, u64)> = ExtVecWriter::new(device.clone());
            let mut r = g.reader();
            while let Some((a, b)) = r.try_next().unwrap() {
                w.push((a, b, 1 + rng.below(999))).unwrap();
            }
            w.finish().unwrap()
        };
        let e = weighted.len();
        let sc = SortConfig::new(16_384);
        let (_, d) = measure(&device, || sssp(&weighted, n, 0, &sc).unwrap());
        rows.push(vec![
            n.to_string(),
            e.to_string(),
            d.total().to_string(),
            fmt(d.total() as f64 / e as f64),
        ]);
    }
    table(
        "F10a — semi-external Dijkstra (lazy-deletion EPQ): I/Os stay far below one per edge",
        &["V", "E", "measured I/Os", "I/Os per edge"],
        &rows,
    );
}

/// F11 — connected components: I/Os vs Sort(E)·log(V).
pub fn f11_connected_components() {
    let cfg = EmConfig::new(4096, 16);
    let b = cfg.block_records::<(u64, u64)>();
    let m = 16_384usize;
    let mut rows = Vec::new();
    for &n in &[20_000u64, 80_000, 320_000] {
        let device = cfg.ram_disk();
        let g = gen::random_graph(device.clone(), n, 3.0, 92).unwrap();
        let e = g.len();
        let sc = SortConfig::new(m);
        let (labels, d) = measure(&device, || connected_components(&g, n, &sc).unwrap());
        // Count components for the record.
        let mut comps = labels
            .to_vec()
            .unwrap()
            .into_iter()
            .map(|(_, l)| l)
            .collect::<Vec<_>>();
        comps.sort_unstable();
        comps.dedup();
        let overlay = bounds::sort(e, m, b) * (n as f64).log2();
        rows.push(vec![
            n.to_string(),
            e.to_string(),
            comps.len().to_string(),
            d.total().to_string(),
            fmt(overlay),
            fmt(d.total() as f64 / overlay),
        ]);
    }
    table(
        "F11 — connected components (avg degree 3): hook-and-contract",
        &[
            "V",
            "E",
            "components",
            "measured I/Os",
            "Sort(E)·log₂V",
            "ratio",
        ],
        &rows,
    );

    // Extension: minimum spanning forest by external Borůvka.
    let mut rows = Vec::new();
    for &n in &[20_000u64, 80_000] {
        let device = cfg.ram_disk();
        let weighted = {
            use em_core::hash::Draws;
            use em_core::ExtVecWriter;
            let g = gen::random_connected_graph(device.clone(), n, 2 * n, 96).unwrap();
            let mut rng = Draws::new(97);
            let mut w: ExtVecWriter<(u64, u64, u64)> = ExtVecWriter::new(device.clone());
            let mut r = g.reader();
            while let Some((a, b)) = r.try_next().unwrap() {
                w.push((a, b, 1 + rng.below(999_999))).unwrap();
            }
            w.finish().unwrap()
        };
        let e = weighted.len();
        let sc = SortConfig::new(m);
        let (msf, d) = measure(&device, || {
            minimum_spanning_forest(&weighted, n, &sc).unwrap()
        });
        rows.push(vec![
            n.to_string(),
            e.to_string(),
            msf.len().to_string(),
            d.total().to_string(),
            fmt(bounds::sort(e, m, b) * (n as f64).log2()),
        ]);
    }
    table(
        "F11a — minimum spanning forest (external Borůvka)",
        &["V", "E", "forest edges", "measured I/Os", "Sort(E)·log₂V"],
        &rows,
    );
}

/// F14 — time-forward processing: DAG evaluation at Θ(Sort(E)).
pub fn f14_time_forward() {
    let cfg = EmConfig::new(4096, 16);
    let b = cfg.block_records::<(u64, u64, u64)>();
    let m = 16_384usize;
    let mut rows = Vec::new();
    for &n in &[20_000u64, 80_000, 320_000] {
        let device = cfg.ram_disk();
        let dag = gen::random_dag(device.clone(), n, 4, 93).unwrap();
        let e = dag.len();
        let labels: Vec<(u64, u64)> = (0..n).map(|v| (v, 0)).collect();
        let labels = ExtVec::from_slice(device.clone(), &labels).unwrap();
        let sc = SortConfig::new(m);
        let (_, d) = measure(&device, || {
            time_forward(&labels, &dag, &sc, |_, _, inc| {
                inc.iter().copied().max().map_or(0, |x| x + 1)
            })
            .unwrap()
        });
        rows.push(vec![
            n.to_string(),
            e.to_string(),
            d.total().to_string(),
            fmt(bounds::sort(e, m, b)),
            fmt(d.total() as f64 / e as f64),
        ]);
    }
    table(
        "F14 — time-forward processing (longest path in a random DAG, in-degree 4)",
        &["V", "E", "measured I/Os", "Θ Sort(E)", "I/Os per edge"],
        &rows,
    );
}
