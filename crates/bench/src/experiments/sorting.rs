//! F1 / F2 / F5 — external sorting experiments.

use em_core::hash::Draws;
use em_core::{bounds, EmConfig, ExtVec};
use emsort::{distribution_sort, merge_sort, RunFormation, SortConfig};
use pdm::{BlockDevice, Placement};

use crate::{fmt, measure, table};

fn random_input(device: &pdm::SharedDevice, n: u64, seed: u64) -> ExtVec<u64> {
    let mut rng = Draws::new(seed);
    let data: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    ExtVec::from_slice(device.clone(), &data).unwrap()
}

/// F1 — merge-sort I/Os vs N at fixed (M, B), with the exact pass-count
/// prediction as overlay, plus the run-formation and fan-in ablations.
pub fn f1_merge_sort_scaling() {
    let cfg = EmConfig::new(1024, 32); // B = 128 u64s, M = 4096
    let b = cfg.block_records::<u64>();
    let m = cfg.mem_records::<u64>();
    let mut rows = Vec::new();
    for &n in &[10_000u64, 40_000, 160_000, 640_000, 2_560_000] {
        let device = cfg.ram_disk();
        let input = random_input(&device, n, 10 + n);
        let sc = SortConfig::new(m);
        let k = sc.effective_fan_in(b);
        let (_, d) = measure(&device, || merge_sort(&input, &sc).unwrap());
        let predicted = bounds::merge_sort_ios(n, m, b, k);
        let theta = bounds::sort(n, m, b);
        rows.push(vec![
            n.to_string(),
            d.total().to_string(),
            fmt(predicted),
            fmt(d.total() as f64 / predicted),
            fmt(theta),
            fmt(d.total() as f64 / theta),
        ]);
    }
    table(
        "F1 — merge sort: measured I/Os vs N (B=128, M=4096, fan-in=31)",
        &[
            "N",
            "measured",
            "2·(N/B)·passes",
            "ratio",
            "Θ Sort(N)",
            "measured/Θ",
        ],
        &rows,
    );

    // Ablation: run formation strategy.
    let mut rows = Vec::new();
    let n = 640_000u64;
    for (name, rf) in [
        ("load-sort-store", RunFormation::LoadSort),
        ("replacement-selection", RunFormation::ReplacementSelection),
    ] {
        let device = cfg.ram_disk();
        let input = random_input(&device, n, 77);
        let sc = SortConfig::new(m).with_run_formation(rf);
        let runs = emsort::form_runs(&input, &sc, |a, b| a < b).unwrap();
        let nruns = runs.len();
        let avg = runs.iter().map(|r| r.len()).sum::<u64>() as f64 / nruns as f64;
        for r in runs {
            r.free().unwrap();
        }
        let (_, d) = measure(&device, || merge_sort(&input, &sc).unwrap());
        rows.push(vec![
            name.to_string(),
            nruns.to_string(),
            fmt(avg / m as f64),
            d.total().to_string(),
        ]);
    }
    table(
        "F1a — run-formation ablation (N=640k, M=4096): replacement selection halves the run count",
        &["strategy", "runs", "avg run / M", "total sort I/Os"],
        &rows,
    );

    // Ablation: merge fan-in.
    let mut rows = Vec::new();
    for &k in &[2usize, 4, 8, 16, 31] {
        let device = cfg.ram_disk();
        let input = random_input(&device, n, 78);
        let sc = SortConfig::new(m).with_fan_in(k);
        let (_, d) = measure(&device, || merge_sort(&input, &sc).unwrap());
        rows.push(vec![
            k.to_string(),
            bounds::merge_passes(n, m, k).to_string(),
            d.total().to_string(),
        ]);
    }
    table(
        "F1b — fan-in ablation (N=640k): passes = 1 + ⌈log_k(N/M)⌉",
        &["fan-in k", "predicted passes", "measured I/Os"],
        &rows,
    );
}

/// F2 — distribution sort vs merge sort: same Θ, different constants.
pub fn f2_merge_vs_distribution() {
    let cfg = EmConfig::new(1024, 32);
    let m = cfg.mem_records::<u64>();
    let b = cfg.block_records::<u64>();
    let mut rows = Vec::new();
    for &n in &[40_000u64, 160_000, 640_000, 2_560_000] {
        let device = cfg.ram_disk();
        let input = random_input(&device, n, 20 + n);
        let sc = SortConfig::new(m);
        let (_, dm) = measure(&device, || merge_sort(&input, &sc).unwrap());
        let (_, dd) = measure(&device, || distribution_sort(&input, &sc).unwrap());
        let theta = bounds::sort(n, m, b);
        rows.push(vec![
            n.to_string(),
            dm.total().to_string(),
            dd.total().to_string(),
            fmt(dd.total() as f64 / dm.total() as f64),
            fmt(theta),
        ]);
    }
    table(
        "F2 — merge vs distribution sort (B=128, M=4096)",
        &[
            "N",
            "merge I/Os",
            "distribution I/Os",
            "dist/merge",
            "Θ Sort(N)",
        ],
        &rows,
    );
}

/// F5 — disk striping vs independent disks: parallel I/O time of a sort as
/// D grows.  Striping shrinks the fan-in to M/(D·B); independent placement
/// keeps fan-in M/B while spreading each run's blocks round-robin.
pub fn f5_striping_vs_independent() {
    let n = 400_000u64;
    let phys_block = 512; // bytes per physical-disk block
    let mem_blocks = 16; // in *logical* blocks, recomputed per mode below
    let mut rows = Vec::new();
    for &d in &[1usize, 2, 4, 8] {
        // Striped: one logical device, block D·B, same total memory bytes.
        let striped = pdm::DiskArray::new_ram(d, phys_block, Placement::Striped);
        let mem_bytes = phys_block * mem_blocks * 8; // fixed memory budget in bytes
        let m_striped = mem_bytes / 8; // records (u64)
        let dev = striped.clone() as pdm::SharedDevice;
        let input = random_input(&dev, n, 50);
        let b_log = striped.block_size() / 8;
        let sc = SortConfig::new(m_striped);
        let fan_in = sc.effective_fan_in(b_log);
        let (_, ds) = measure(&dev, || merge_sort(&input, &sc).unwrap());

        // Independent: logical block = B, round-robin placement.
        let indep = pdm::DiskArray::new_ram(d, phys_block, Placement::Independent);
        let dev_i = indep.clone() as pdm::SharedDevice;
        let input_i = random_input(&dev_i, n, 50);
        let sc_i = SortConfig::new(m_striped);
        let fan_in_i = sc_i.effective_fan_in(phys_block / 8);
        let (_, di) = measure(&dev_i, || merge_sort(&input_i, &sc_i).unwrap());

        rows.push(vec![
            d.to_string(),
            fan_in.to_string(),
            ds.parallel_time().to_string(),
            fan_in_i.to_string(),
            di.parallel_time().to_string(),
            fmt(ds.parallel_time() as f64 / di.parallel_time() as f64),
        ]);
    }
    table(
        "F5 — striped vs independent disks: parallel I/O time of sorting N=400k (fixed memory bytes)",
        &["D", "striped fan-in", "striped ∥-time", "indep fan-in", "indep ∥-time", "striped/indep"],
        &rows,
    );
}
