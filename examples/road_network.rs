//! Road-network analytics: external graph algorithms end to end.
//!
//! A GIS-style scenario on a large grid road network: single-source
//! shortest hop counts (external BFS), connectivity after closures
//! (connected components), and a drainage-style question on the BFS tree
//! (vertex depths via Euler tour + list ranking).
//!
//! ```text
//! cargo run --release -p bench --example road_network
//! ```

use em_core::hash::Draws;
use em_core::{bounds, EmConfig, ExtVecWriter};
use emgraph::{bfs_mr, connected_components, gen, tree_depths};
use emsort::SortConfig;

fn main() {
    let cfg = EmConfig::new(4096, 16);
    let device = cfg.ram_disk();
    let (w, h) = (400u64, 250u64); // 100k intersections
    let n = w * h;
    let m = 16_384usize;
    let sc = SortConfig::new(m);

    println!("road network: {w}×{h} grid, {n} intersections");
    let roads = gen::grid_graph(device.clone(), w, h).unwrap();
    println!("{} road segments\n", roads.len());

    // 1. BFS hop distances from the depot (corner 0).
    let before = device.stats().snapshot();
    let dist = bfs_mr(&roads, n, 0, &sc).unwrap();
    let d = device.stats().snapshot().since(&before);
    let max_d = dist.to_vec().unwrap().iter().map(|e| e.1).max().unwrap();
    println!(
        "BFS from depot: {} I/Os, {} reachable, eccentricity {max_d} (Θ V + Sort(E) ≈ {:.0})",
        d.total(),
        dist.len(),
        n as f64 + bounds::sort(2 * roads.len(), m, 256),
    );

    // 2. Storm closes 30% of the roads — how many disconnected districts?
    let mut rng = Draws::new(7);
    let mut wtr: ExtVecWriter<(u64, u64)> = ExtVecWriter::new(device.clone());
    {
        let mut r = roads.reader();
        while let Some(e) = r.try_next().unwrap() {
            if rng.unit() < 0.7 {
                wtr.push(e).unwrap();
            }
        }
    }
    let damaged = wtr.finish().unwrap();
    let before = device.stats().snapshot();
    let labels = connected_components(&damaged, n, &sc).unwrap();
    let d = device.stats().snapshot().since(&before);
    let mut comps: Vec<u64> = labels.to_vec().unwrap().iter().map(|e| e.1).collect();
    comps.sort_unstable();
    comps.dedup();
    println!(
        "after closures: {} I/Os, network splits into {} districts",
        d.total(),
        comps.len()
    );

    // 3. Depths in a random spanning tree of the service area (Euler tour).
    let tree = gen::random_tree(device.clone(), n.min(50_000), 9).unwrap();
    let before = device.stats().snapshot();
    let depths = tree_depths(&tree, 0, &sc).unwrap();
    let d = device.stats().snapshot().since(&before);
    let max_depth = depths.to_vec().unwrap().iter().map(|e| e.1).max().unwrap();
    println!(
        "service-tree depths (Euler tour + list ranking): {} I/Os, max depth {max_depth}",
        d.total()
    );
}
