//! F3 — the permutation crossover: `Permute(N) = Θ(min(N, Sort(N)))`.
//!
//! The survey's signature observation: in internal memory permuting is
//! trivially linear, but externally the naive record-by-record move costs
//! `Θ(N)` I/Os while sorting costs `Sort(N) ≪ N` for any realistic block
//! size.  Sweeping `B` exposes the crossover: for tiny blocks the naive
//! method wins, and the advantage flips as `B` grows.

use em_core::hash::Draws;
use em_core::{bounds, EmConfig, ExtVec};
use emsort::{permute_by_sort, permute_naive, SortConfig};

use crate::{fmt, measure, table};

pub fn f3_permute_crossover() {
    let n = 65_536u64;
    let mut rows = Vec::new();
    for &bb in &[16usize, 64, 256, 1024, 4096] {
        let cfg = EmConfig::new(bb, 32);
        let b = cfg.block_records::<u64>();
        let m = cfg.mem_records::<u64>();
        let device = cfg.ram_disk();
        let data: Vec<u64> = (0..n).collect();
        let mut perm: Vec<u64> = (0..n).collect();
        Draws::new(33).shuffle(&mut perm);
        let input = ExtVec::from_slice(device.clone(), &data).unwrap();
        let dest = ExtVec::from_slice(device.clone(), &perm).unwrap();

        let (_, dn) = measure(&device, || permute_naive(&input, &dest).unwrap());
        let (_, ds) = measure(&device, || {
            permute_by_sort(&input, &dest, &SortConfig::new(m)).unwrap()
        });
        let winner = if dn.total() < ds.total() {
            "naive"
        } else {
            "sort"
        };
        rows.push(vec![
            b.to_string(),
            m.to_string(),
            dn.total().to_string(),
            ds.total().to_string(),
            fmt(bounds::permute(n, m, b)),
            winner.to_string(),
        ]);
    }
    table(
        "F3 — permuting N=65536 records: naive (Θ(N)) vs sort-based (Θ(Sort(N))) as B grows",
        &[
            "B (records)",
            "M",
            "naive I/Os",
            "sort-based I/Os",
            "Θ min(N, Sort(N))",
            "winner",
        ],
        &rows,
    );
}
