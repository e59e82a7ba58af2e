//! F15 — (extension) external suffix-array construction and search.

use em_core::hash::Draws;
use em_core::{bounds, EmConfig, ExtVec};
use emsort::SortConfig;
use emtext::{find_occurrences, suffix_array};

use crate::{fmt, measure, table};

pub fn f15_suffix_array() {
    let cfg = EmConfig::new(4096, 16);
    let b = cfg.block_records::<(u64, u64)>();
    let m = 16_384usize;
    let mut rows = Vec::new();
    for &n in &[50_000usize, 200_000, 800_000] {
        let device = cfg.ram_disk();
        let mut rng = Draws::new(150 + n as u64);
        let text: Vec<u8> = (0..n).map(|_| b'a' + rng.below(6) as u8).collect();
        let tv = ExtVec::from_slice(device.clone(), &text).unwrap();
        let sc = SortConfig::new(m);
        let (sa, d) = measure(&device, || suffix_array(&tv, &sc).unwrap());
        let overlay = bounds::sort(n as u64, m, b) * (n as f64).log2();
        // One search for the record.
        let (hits, dq) = measure(&device, || find_occurrences(&tv, &sa, b"abc").unwrap());
        rows.push(vec![
            n.to_string(),
            d.total().to_string(),
            fmt(overlay),
            fmt(d.total() as f64 / overlay),
            format!("{} in {} I/Os", hits.len(), dq.total()),
        ]);
    }
    table(
        "F15 — (extension) suffix array by prefix doubling (6-letter alphabet)",
        &[
            "N bytes",
            "build I/Os",
            "Sort(N)·log₂N",
            "ratio",
            "search \"abc\"",
        ],
        &rows,
    );
}
