//! Wall-clock benchmark: the sort engine across placement, I/O mode, and
//! disk count.
//!
//! For each `D ∈ {1, 2, 4}` this sorts the same data on a `D`-disk file
//! array through every cell of **placement × mode**: `striped`,
//! `independent` (stream `r` starts on lane `r mod D`) and
//! `randomized_cycling` (each stream walks its own seeded permutation of the
//! lanes, Vitter–Hutchinson), each synchronous and overlapped.  The engine
//! variants this binary used to race (SRM placement, guided prefetch,
//! RAM-efficient run formation, the heap kernel) were removed once the race
//! was settled; EXPERIMENTS.md F19 keeps its table.
//!
//! Every cell of one `D` sorts identical data and must produce
//! byte-identical output (checksummed and asserted).  The two B-block
//! placements must move exactly the same transfer counts — lane choice is
//! pure placement — and every cell must match the closed-form `Sort(N)`
//! prediction (`em_core::bounds::merge_sort_ios`) at its logical block size.
//! Striping merges with logical blocks of `D·B`, so the fan-in drops from
//! `Θ(M/B)` to `Θ(M/(DB))` and extra merge passes appear (experiment F17);
//! the B-block cells at D ∈ {2, 4} must finish in a single merge pass with
//! exactly the D=1 transfer counts.
//!
//! Each member disk carries a simulated per-transfer **service time**
//! ([`DiskArray::new_file_with_service`]): benchmark files this small live
//! in the OS page cache, where a "block transfer" is a memcpy and every
//! configuration looks compute-bound.  The service time restores the PDM
//! cost model in wall-clock terms — a disk is a serial resource that holds
//! each transfer for a fixed interval — so the numbers below measure what
//! the paper's model actually predicts: `D` disks serve `D` transfers at
//! once, and overlapped I/O hides device time behind the merge kernel.
//!
//! Methodology: every configuration runs one discarded **warmup** pass
//! (checked for order and checksummed), then the median wall time of
//! `TRIALS` measured passes is reported, along with the forecast counters —
//! split per lane — of the median trial; the per-phase split is `embench
//! trace --workload sort_io|sort_cpu`'s to report.  Results go to stdout as
//! a markdown table and to `BENCH_sort.json` (`schema_version` 4: rows no
//! longer carry the five per-phase fields).
//!
//! ```text
//! cargo run --release -p bench --bin bench_sort [-- N] [-- --smoke]
//! ```
//!
//! `--smoke` runs a small-N, fewer-trial variant that checks every
//! count/content invariant (including the single-pass regression guard) —
//! the CI configuration.  It writes BENCH_sort.json too, so CI can archive
//! the bench trajectory as a workflow artifact.  The wall-clock guard
//! (independent beats striped wherever striping pays an extra pass) runs on
//! full invocations only, where the simulated service time dominates timing
//! noise.

use std::time::Instant;

use em_core::hash::fnv1a_words as fnv1a;
use em_core::{bounds, ExtVec};
use emsort::{merge_sort, OverlapConfig, SortConfig};
use pdm::{DiskArray, IoMode, Placement, SharedDevice};
use rand::prelude::*;

/// Bytes per physical block (one member disk's transfer unit).
const PHYS_BLOCK: usize = 32 * 1024;
/// Records of internal memory (`M`), independent of `D`.
const MEM_RECORDS: usize = 128 * 1024;
/// Read-ahead / write-behind depth for the overlapped runs.
const DEPTH: usize = 2;
/// Simulated device service time per block transfer, in microseconds.
/// 32 KiB / 400 µs ≈ 80 MB/s per disk — a commodity HDD.  Chosen so the
/// device side binds: at 200 µs the single-threaded merge's CPU time
/// (~0.3 s at N = 2M) is on par with striped D=4's entire per-disk I/O
/// floor, and the placement comparison measures the CPU, not the disks.
const SERVICE_US: u64 = 400;
/// Measured passes per configuration (after one warmup).
const TRIALS: usize = 5;
const SMOKE_TRIALS: usize = 3;
const SMOKE_N: u64 = 300_000;
/// Seed of the randomized placement: fixed so every invocation lays blocks
/// out identically (the placement is seeded-deterministic).
const CYCLING_SEED: u64 = 0x5EED_0002;
/// BENCH_sort.json schema: 2 added the top-level `schema_version` and a
/// per-row `variant` field; 3 dropped `variant` with the variants; 4 dropped
/// the per-phase seconds and `merge_passes` with the sort's metrics fork.
const SCHEMA_VERSION: u32 = 4;

const PLACEMENTS: [Placement; 3] = [
    Placement::Striped,
    Placement::Independent,
    Placement::RandomizedCycling { seed: CYCLING_SEED },
];

struct RunResult {
    d: usize,
    placement: &'static str,
    mode: &'static str,
    /// Fan-in of the merge at this placement's logical block size.
    fan_in: usize,
    /// Median wall time over the measured trials.
    secs: f64,
    reads: u64,
    writes: u64,
    parallel_time: u64,
    max_queue_depth: u64,
    queue_depth_hwm_by_lane: Vec<u64>,
    prefetched: u64,
    prefetch_hits: u64,
    forecast_issued: u64,
    forecast_hits: u64,
    forecast_issued_by_lane: Vec<u64>,
    forecast_hits_by_lane: Vec<u64>,
    trials: usize,
    /// FNV-1a over the sorted output — byte-identity across cells.
    checksum: u64,
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bench-sort-{tag}-{}", std::process::id()));
    p
}

fn run_one(d: usize, placement: Placement, mode: IoMode, n: u64, trials: usize) -> RunResult {
    let label = match mode {
        IoMode::Synchronous => "sync",
        IoMode::Overlapped => "overlapped",
    };
    let pl_label = placement.label();
    let dir = tmpdir(&format!("{pl_label}-{label}-d{d}"));
    let arr = DiskArray::new_file_with_service(
        &dir,
        d,
        PHYS_BLOCK,
        placement,
        mode,
        std::time::Duration::from_micros(SERVICE_US),
    )
    .expect("create disk array");
    let device = arr.clone() as SharedDevice;

    // Same seed per D regardless of placement/mode: every cell of one D
    // sorts identical data.
    let mut rng = StdRng::seed_from_u64(n ^ d as u64);
    let data: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
    let input = ExtVec::from_slice(device.clone(), &data).expect("write input");

    let overlap = match mode {
        IoMode::Synchronous => OverlapConfig::off(),
        IoMode::Overlapped => OverlapConfig::symmetric(DEPTH),
    };
    let cfg = SortConfig::new(MEM_RECORDS).with_overlap(overlap);
    let fan_in = cfg.effective_fan_in(input.per_block());

    // Warmup pass (cold caches; discarded from timing), checked in full.
    let before = device.stats().snapshot();
    let out = merge_sort(&input, &cfg).expect("warmup sort");
    let warm_delta = device.stats().snapshot().since(&before);
    assert_eq!(out.len(), n);
    let v = out.to_vec().expect("read output");
    assert!(v.windows(2).all(|w| w[0] <= w[1]), "output not sorted");
    let checksum = fnv1a(&v);
    drop(v);
    out.free().expect("free warmup output");

    // Measured trials: identical input.  Counts must repeat exactly — the
    // pipeline is deterministic.
    let mut measured = Vec::with_capacity(trials);
    for trial in 0..trials {
        let before = device.stats().snapshot();
        let start = Instant::now();
        let out = merge_sort(&input, &cfg).expect("sort");
        let secs = start.elapsed().as_secs_f64();
        let delta = device.stats().snapshot().since(&before);
        assert_eq!(out.len(), n);
        out.free().expect("free output");
        assert_eq!(
            (warm_delta.reads(), warm_delta.writes()),
            (delta.reads(), delta.writes()),
            "D={d} {pl_label} {label} trial {trial}: transfer counts changed between passes"
        );
        assert_eq!(warm_delta.parallel_time(), delta.parallel_time());
        measured.push((secs, delta));
    }
    // Median by wall time.
    measured.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    let (secs, delta) = &measured[trials / 2];

    let snap = device.stats().snapshot();
    drop(input);
    drop(device);
    drop(arr);
    std::fs::remove_dir_all(&dir).ok();

    RunResult {
        d,
        placement: pl_label,
        mode: label,
        fan_in,
        secs: *secs,
        reads: delta.reads(),
        writes: delta.writes(),
        parallel_time: delta.parallel_time(),
        max_queue_depth: snap.max_queue_depth(),
        queue_depth_hwm_by_lane: (0..d).map(|i| snap.queue_depth_hwm(i)).collect(),
        prefetched: delta.prefetched(),
        prefetch_hits: delta.prefetch_hits(),
        forecast_issued: delta.forecast_issued(),
        forecast_hits: delta.forecast_hits(),
        forecast_issued_by_lane: (0..d).map(|i| delta.forecast_issued_on(i)).collect(),
        forecast_hits_by_lane: (0..d).map(|i| delta.forecast_hits_on(i)).collect(),
        trials,
        checksum,
    }
}

fn join_u64(v: &[u64], sep: &str) -> String {
    v.iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(sep)
}

fn json_u64_array(v: &[u64]) -> String {
    format!("[{}]", join_u64(v, ", "))
}

fn main() {
    let mut smoke = false;
    let mut n_arg: Option<u64> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            n_arg = Some(arg.parse().expect("N must be an integer"));
        }
    }
    let n = n_arg.unwrap_or(if smoke { SMOKE_N } else { 2_000_000 });
    let trials = if smoke { SMOKE_TRIALS } else { TRIALS };

    println!("# External sort: placement × I/O mode × D");
    println!(
        "\nN = {n} u64 records, M = {MEM_RECORDS} records, physical block = {PHYS_BLOCK} B, \
         overlap depth = {DEPTH}, device service time = {SERVICE_US} µs/transfer, \
         warmup + median of {trials} trials\n"
    );

    let mut results: Vec<RunResult> = Vec::new();
    for d in [1usize, 2, 4] {
        for placement in PLACEMENTS {
            let sync = run_one(d, placement, IoMode::Synchronous, n, trials);
            let over = run_one(d, placement, IoMode::Overlapped, n, trials);
            // The hard invariant of the scheduler: mode never changes the
            // model counts, only when the transfers run.
            assert_eq!(
                (sync.reads, sync.writes, sync.parallel_time),
                (over.reads, over.writes, over.parallel_time),
                "I/O counts or parallel time diverged between modes at D={d} {}",
                sync.placement
            );
            assert!(
                over.forecast_hits > 0,
                "forecasting inactive in overlapped run at D={d} {}",
                sync.placement
            );
            results.push(sync);
            results.push(over);
        }
    }
    // Merge levels of a cell, ⌈log_k ⌈N/M⌉⌉ at its fan-in (the bound counts
    // run formation as a pass too).
    let passes = |r: &RunResult| bounds::merge_passes(n, MEM_RECORDS, r.fan_in) - 1;
    let cell = |d: usize, placement: &str, mode: &str| {
        results
            .iter()
            .find(|r| r.d == d && r.placement == placement && r.mode == mode)
            .expect("cell present")
    };

    for r in &results {
        let at = format!("D={} {} {}", r.d, r.placement, r.mode);
        // Byte-identity across the matrix: every cell of one D sorted the
        // same records — placement and mode are content-neutral.
        assert_eq!(
            r.checksum,
            cell(r.d, "striped", "sync").checksum,
            "{at}: output differs from the striped sync cell"
        );
        // Closed-form Sort(N) check: member-disk transfers must match
        // 2·⌈N/B_logical⌉·passes at the cell's logical block size (× D under
        // striping, whose logical transfers occupy all members).  Partial
        // runs and partial blocks add slack; stay within 10%.
        let phys_records = PHYS_BLOCK / 8;
        let b_block = r.placement != "striped";
        let (b_logical, members) = if b_block {
            (phys_records, 1.0)
        } else {
            (r.d * phys_records, r.d as f64)
        };
        let predicted = bounds::merge_sort_ios(n, MEM_RECORDS, b_logical, r.fan_in) * members;
        let measured = (r.reads + r.writes) as f64;
        assert!(
            (measured - predicted).abs() / predicted < 0.10,
            "{at}: measured {measured} transfers vs predicted {predicted}"
        );
        if !b_block {
            continue;
        }
        // Transfer equality, and the full-fan-in regression guard: the
        // logical block stays at B, so the merge fan-in stays Θ(M/B) at any
        // D and every B-block cell must move exactly the transfers of the
        // single-disk independent run — which lane serves a block is pure
        // placement — in ONE merge pass.  Striping, with its D·B logical
        // block, cannot do this once D·B shrinks the fan-in enough.
        let base = cell(1, "independent", r.mode);
        assert_eq!(
            (r.reads, r.writes),
            (base.reads, base.writes),
            "{at}: transfer counts differ from the D=1 independent run"
        );
        if r.d > 1 {
            assert_eq!(passes(r), 1, "{at}: expected a single merge pass");
        }
        // Per-lane forecast accounting must be live on every multi-disk
        // B-block overlapped run: each lane issues and hits.
        if r.d > 1 && r.mode == "overlapped" {
            assert!(
                r.forecast_issued_by_lane.iter().all(|&c| c > 0)
                    && r.forecast_hits_by_lane.iter().all(|&c| c > 0),
                "{at}: a lane saw no forecast prefetches or hits: {:?} / {:?}",
                r.forecast_issued_by_lane,
                r.forecast_hits_by_lane
            );
        }
    }

    println!("| D | placement | mode | fan-in | wall (s) | reads | writes | prefetched | hits | fc issued | fc hits | fc issued/lane | depth hwm/lane | speedup |");
    println!("|---|-----------|------|--------|----------|-------|--------|------------|------|-----------|---------|----------------|----------------|---------|");
    let mut json_rows = Vec::new();
    for pair in results.chunks(2) {
        let sync = &pair[0];
        for r in pair {
            let speedup = sync.secs / r.secs;
            println!(
                "| {} | {} | {} | {} | {:.3} | {} | {} | {} | {} | {} | {} | {} | {} | {:.2}x |",
                r.d,
                r.placement,
                r.mode,
                r.fan_in,
                r.secs,
                r.reads,
                r.writes,
                r.prefetched,
                r.prefetch_hits,
                r.forecast_issued,
                r.forecast_hits,
                join_u64(&r.forecast_issued_by_lane, "/"),
                join_u64(&r.queue_depth_hwm_by_lane, "/"),
                speedup
            );
            json_rows.push(format!(
                "    {{\"d\": {}, \"placement\": \"{}\", \"mode\": \"{}\", \
                 \"fan_in\": {}, \
                 \"wall_seconds\": {:.6}, \"reads\": {}, \
                 \"writes\": {}, \"parallel_time\": {}, \"max_queue_depth\": {}, \
                 \"queue_depth_hwm_by_lane\": {}, \
                 \"prefetched\": {}, \"prefetch_hits\": {}, \"forecast_issued\": {}, \
                 \"forecast_hits\": {}, \"forecast_issued_by_lane\": {}, \
                 \"forecast_hits_by_lane\": {}, \"trials\": {}, \
                 \"speedup_vs_sync\": {:.4}}}",
                r.d,
                r.placement,
                r.mode,
                r.fan_in,
                r.secs,
                r.reads,
                r.writes,
                r.parallel_time,
                r.max_queue_depth,
                json_u64_array(&r.queue_depth_hwm_by_lane),
                r.prefetched,
                r.prefetch_hits,
                r.forecast_issued,
                r.forecast_hits,
                json_u64_array(&r.forecast_issued_by_lane),
                json_u64_array(&r.forecast_hits_by_lane),
                r.trials,
                speedup
            ));
        }
    }

    let json = format!(
        "{{\n  \"benchmark\": \"sort_placement_x_io_mode\",\n  \
         \"schema_version\": {SCHEMA_VERSION},\n  \"n\": {n},\n  \
         \"mem_records\": {MEM_RECORDS},\n  \"physical_block_bytes\": {PHYS_BLOCK},\n  \
         \"overlap_depth\": {DEPTH},\n  \
         \"service_time_us\": {SERVICE_US},\n  \"smoke\": {smoke},\n  \
         \"warmup\": true,\n  \"trials\": {trials},\n  \"results\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_sort.json", &json).expect("write BENCH_sort.json");
    println!("\nwrote BENCH_sort.json");

    // The headline comparison, overlapped: what striping's D·B logical
    // block costs against B-block placement at full fan-in.
    for d in [2usize, 4] {
        let striped = cell(d, "striped", "overlapped");
        let indep = cell(d, "independent", "overlapped");
        println!(
            "D={d} overlapped: striped {:.3}s ({} passes, {} reads) vs independent {:.3}s ({} pass, {} reads) — {:.2}x",
            striped.secs,
            passes(striped),
            striped.reads,
            indep.secs,
            passes(indep),
            indep.reads,
            striped.secs / indep.secs
        );
        // Wall-clock payoff (full runs only; at smoke N the simulated
        // service floor is too small for timing to be signal).  Checked
        // last, after the table and BENCH_sort.json are out, so a failure
        // still leaves the full breakdown for diagnosis: erasing the extra
        // striped merge pass must show up as real time wherever striping
        // actually pays that pass.
        if !smoke && passes(striped) > passes(indep) {
            assert!(
                indep.secs < striped.secs,
                "independent D={d} ({:.3}s) did not beat striped ({:.3}s)",
                indep.secs,
                striped.secs
            );
        }
    }
}
