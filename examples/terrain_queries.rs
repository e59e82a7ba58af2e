//! Terrain queries: batched geometry over survey points and utility lines.
//!
//! A GIS batch job: millions of elevation sample points, a batch of
//! rectangular parcel queries (which samples fall in each parcel?), and a
//! grid of utility lines checked for crossings — both answered with
//! distribution sweeping at `O(Sort(N) + Z/B)` I/Os.
//!
//! ```text
//! cargo run --release -p bench --example terrain_queries
//! ```

use em_core::hash::Draws;
use em_core::{bounds, EmConfig, ExtVec};
use emgeom::{batched_range_reporting, segment_intersections, HSeg, Point, Rect, VSeg};
use emsort::SortConfig;

fn main() {
    let cfg = EmConfig::new(4096, 16);
    let device = cfg.ram_disk();
    let m = 16_384usize;
    let sc = SortConfig::new(m);
    let span = 1_000_000i64;
    let mut rng = Draws::new(1234);

    // Survey points.
    let n_pts = 200_000u64;
    let pts: Vec<Point> = (0..n_pts)
        .map(|id| Point {
            id,
            x: -span + rng.below(2 * span as u64) as i64,
            y: -span + rng.below(2 * span as u64) as i64,
        })
        .collect();
    let points = ExtVec::from_slice(device.clone(), &pts).unwrap();

    // Parcel queries.
    let n_q = 20_000u64;
    let qs: Vec<Rect> = (0..n_q)
        .map(|id| {
            let x = -span + rng.below(2 * span as u64) as i64;
            let y = -span + rng.below(2 * span as u64) as i64;
            Rect {
                id,
                x1: x,
                x2: x + 100 + rng.below(19_900) as i64,
                y1: y,
                y2: y + 100 + rng.below(19_900) as i64,
            }
        })
        .collect();
    let parcels = ExtVec::from_slice(device.clone(), &qs).unwrap();

    println!("{n_pts} survey points, {n_q} parcel queries");
    let before = device.stats().snapshot();
    let hits = batched_range_reporting(&points, &parcels, &sc).unwrap();
    let d = device.stats().snapshot().since(&before);
    let b_ev = 4096 / 41;
    println!(
        "parcel containment: {} I/Os, {} (parcel, point) pairs   (Θ Sort(N+Q)+Z/B ≈ {:.0})",
        d.total(),
        hits.len(),
        bounds::sort(n_pts + n_q, m, b_ev) + bounds::output(hits.len(), b_ev),
    );

    // Utility lines: horizontal water mains vs vertical power lines.
    let n_lines = 50_000u64;
    let mains: Vec<HSeg> = (0..n_lines)
        .map(|id| {
            let x = -span + rng.below(2 * span as u64) as i64;
            HSeg {
                id,
                y: -span + rng.below(2 * span as u64) as i64,
                x1: x,
                x2: x + 1000 + rng.below(99_000) as i64,
            }
        })
        .collect();
    let lines: Vec<VSeg> = (0..n_lines)
        .map(|id| {
            let y = -span + rng.below(2 * span as u64) as i64;
            VSeg {
                id,
                x: -span + rng.below(2 * span as u64) as i64,
                y1: y,
                y2: y + 1000 + rng.below(99_000) as i64,
            }
        })
        .collect();
    let hv = ExtVec::from_slice(device.clone(), &mains).unwrap();
    let vv = ExtVec::from_slice(device.clone(), &lines).unwrap();

    println!("\n{n_lines} water mains × {n_lines} power lines");
    let before = device.stats().snapshot();
    let crossings = segment_intersections(&hv, &vv, &sc).unwrap();
    let d = device.stats().snapshot().since(&before);
    println!(
        "crossing check: {} I/Os, {} crossings found",
        d.total(),
        crossings.len()
    );
    println!(
        "(a nested-loop join would cost ≈ {} I/Os)",
        (hv.num_blocks() as u64) * (vv.num_blocks() as u64)
    );
}
