//! F12 — distribution sweeping: `O(Sort(N) + Z/B)` batched geometry.

use em_core::hash::Draws;
use em_core::{bounds, EmConfig, ExtVec};
use emgeom::{
    batched_range_reporting, batched_range_reporting_naive, segment_intersections,
    segment_intersections_naive, HSeg, Point, Rect, VSeg,
};
use emsort::SortConfig;

use crate::{fmt, measure, table};

pub fn f12_distribution_sweeping() {
    let cfg = EmConfig::new(4096, 16);
    let m = 16_384usize;

    // Scaling in N at roughly constant answer density.
    let mut rows = Vec::new();
    for &n in &[5_000u64, 10_000, 20_000] {
        let device = cfg.ram_disk();
        let span = 200 * n as i64; // keeps Z small relative to N²
        let mut rng = Draws::new(120 + n);
        let hs: Vec<HSeg> = (0..n)
            .map(|id| {
                let x = -span + rng.below(2 * span as u64) as i64;
                HSeg {
                    id,
                    y: -span + rng.below(2 * span as u64) as i64,
                    x1: x,
                    x2: x + rng.below((span / 2) as u64) as i64,
                }
            })
            .collect();
        let vs: Vec<VSeg> = (0..n)
            .map(|id| {
                let y = -span + rng.below(2 * span as u64) as i64;
                VSeg {
                    id,
                    x: -span + rng.below(2 * span as u64) as i64,
                    y1: y,
                    y2: y + rng.below((span / 2) as u64) as i64,
                }
            })
            .collect();
        let hv = ExtVec::from_slice(device.clone(), &hs).unwrap();
        let vv = ExtVec::from_slice(device.clone(), &vs).unwrap();
        let sc = SortConfig::new(m);
        let (ans, ds) = measure(&device, || segment_intersections(&hv, &vv, &sc).unwrap());
        let z = ans.len();
        let (_, dn) = measure(&device, || segment_intersections_naive(&hv, &vv).unwrap());
        let b = 4096 / 33; // event records per block
        rows.push(vec![
            (2 * n).to_string(),
            z.to_string(),
            ds.total().to_string(),
            dn.total().to_string(),
            fmt(bounds::sort(2 * n, m, b) + bounds::output(z, b)),
        ]);
    }
    table(
        "F12 — orthogonal segment intersection: distribution sweep vs nested loops",
        &[
            "N segments",
            "Z answers",
            "sweep I/Os",
            "naive I/Os",
            "Θ Sort(N)+Z/B",
        ],
        &rows,
    );

    // Output sensitivity: fixed N, growing Z (denser rectangles).
    let mut rows = Vec::new();
    let n = 10_000u64;
    for &size_div in &[64i64, 16, 4] {
        let device = cfg.ram_disk();
        let span = 100_000i64;
        let mut rng = Draws::new(121);
        let pts: Vec<Point> = (0..n)
            .map(|id| Point {
                id,
                x: -span + rng.below(2 * span as u64) as i64,
                y: -span + rng.below(2 * span as u64) as i64,
            })
            .collect();
        let qs: Vec<Rect> = (0..n / 4)
            .map(|id| {
                let x = -span + rng.below(2 * span as u64) as i64;
                let y = -span + rng.below(2 * span as u64) as i64;
                let w = rng.below((span / size_div) as u64) as i64;
                let h = rng.below((span / size_div) as u64) as i64;
                Rect {
                    id,
                    x1: x,
                    x2: x + w,
                    y1: y,
                    y2: y + h,
                }
            })
            .collect();
        let pv = ExtVec::from_slice(device.clone(), &pts).unwrap();
        let qv = ExtVec::from_slice(device.clone(), &qs).unwrap();
        let sc = SortConfig::new(m);
        let (ans, d) = measure(&device, || batched_range_reporting(&pv, &qv, &sc).unwrap());
        let z = ans.len();
        let (_, dn) = measure(&device, || batched_range_reporting_naive(&pv, &qv).unwrap());
        rows.push(vec![
            format!("span/{size_div}"),
            z.to_string(),
            d.total().to_string(),
            dn.total().to_string(),
            fmt(d.total() as f64 / (z as f64 / (4096.0 / 16.0)).max(1.0)),
        ]);
    }
    table(
        "F12a — batched range reporting, output sensitivity (N=10k points, Q=2.5k rects)",
        &[
            "rect size",
            "Z answers",
            "sweep I/Os",
            "naive I/Os",
            "I/Os per z/B",
        ],
        &rows,
    );
}
