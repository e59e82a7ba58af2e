//! Cross-crate equivalence and cost-model tests for the fused (streaming)
//! sort path.
//!
//! The contract under test:
//!
//! * **Same sequence.**  `merge_sort_streaming` must deliver exactly the
//!   sequence `merge_sort_by` materializes, across overlap depths and
//!   disk placements.
//! * **Exact savings.**  Draining the stream must cost exactly
//!   `2·⌈N/B⌉` fewer block transfers than the materialized sort plus one
//!   consumer scan — one output-write pass and one re-read pass — whenever
//!   the input takes two or more memory loads (so the final stage actually
//!   merges).  An input of one load is streamed from memory: it costs its
//!   read plus a write and a re-read of only the prefix its resident tail
//!   cannot hold.
//! * **Clean failure.**  Faults injected under the fused path must surface
//!   as a clean `Err` through the consumer closure — with an enabled retry
//!   policy that runs dry, specifically [`PdmError::RetriesExhausted`] —
//!   never a panic or silently wrong output.

use em_core::{bounds, ExtVec};
use emsort::{merge_sort_by, merge_sort_streaming, OverlapConfig, RunFormation, SortConfig};
use pdm::{DiskArray, FaultPlan, IoMode, PdmError, Placement, RetryPolicy, SharedDevice};
use proptest::prelude::*;

/// One plan per disk, all derived from `seed` but decorrelated per member.
fn mk_plans(d: usize, seed: u64, transient_permille: u64, fail_attempts: u32) -> Vec<FaultPlan> {
    (0..d)
        .map(|i| {
            FaultPlan::new(seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9))
                .with_transient(transient_permille, fail_attempts)
        })
        .collect()
}

/// Drain a [`SortedStream`](emsort::SortedStream) into a `Vec`.
fn drain<F>(s: &mut emsort::SortedStream<'_, u64, F>) -> pdm::Result<Vec<u64>>
where
    F: Fn(&u64, &u64) -> bool + Copy,
{
    let mut out = Vec::new();
    while let Some(x) = s.try_next()? {
        out.push(x);
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Streaming must yield the materialized sequence with transfer counts
    /// exactly `2·⌈N/B⌉` below "sort + consumer scan" when the final stage
    /// merges, and only the resident tail's spilled prefix beyond the input
    /// read when a single load forms.
    #[test]
    fn streaming_matches_materialized_minus_saved_passes(
        data in prop::collection::vec(any::<u64>(), 0..3000),
        depth in 0usize..=2,
    ) {
        let mut expect = data.clone();
        expect.sort_unstable();

        for placement in [
            Placement::Striped,
            Placement::Independent,
            Placement::RandomizedCycling { seed: 42 },
        ] {
            // The logical block is D·B records under striping, B under
            // independent placement (64-byte physical blocks of u64s).
            let b = if placement.is_striped() { 16 } else { 8 };
            // LoadSort chunks exactly `m` records per run, so the run count
            // — and with it the predicted savings — is ⌈N/m⌉ by design.
            let m = 8 * b;
            let cfg = SortConfig::new(m)
                .with_run_formation(RunFormation::LoadSort)
                .with_overlap(OverlapConfig::symmetric(depth));
            let device =
                DiskArray::new_ram_with(2, 64, placement, IoMode::Overlapped) as SharedDevice;
            let input = ExtVec::from_slice(device.clone(), &data).unwrap();

            // Materialized sort plus one consumer scan of the output,
            // with the scan metered separately: the output-write pass
            // fusion skips moves exactly the blocks this scan re-reads
            // (`⌈N/B⌉` in device-transfer units, which on a striped
            // array are per-member-disk, not logical-block, counts).
            let before = device.stats().snapshot();
            let sorted = merge_sort_by(&input, &cfg, |a, b| a < b).unwrap();
            let mid = device.stats().snapshot();
            let mut mat = Vec::new();
            {
                let mut r = sorted.reader();
                while let Some(x) = r.try_next().unwrap() {
                    mat.push(x);
                }
            }
            let d_mat = device.stats().snapshot().since(&before);
            let d_scan = device.stats().snapshot().since(&mid);
            prop_assert_eq!(d_scan.writes(), 0,
                "{:?} consumer scan must be read-only", placement);
            sorted.free().unwrap();

            // Fused sort: the consumer drains the final merge directly.
            let before = device.stats().snapshot();
            let streamed =
                merge_sort_streaming(&input, &cfg, |a, b| a < b, drain).unwrap();
            let d_str = device.stats().snapshot().since(&before);

            prop_assert_eq!(&mat, &expect,
                "{:?} materialized output wrong", placement);
            prop_assert_eq!(&streamed, &expect,
                "{:?} streamed output wrong", placement);

            if data.len() <= m {
                // One load: the stream writes and re-reads only what its
                // resident tail cannot hold — nothing up to M − B records.
                let k = cfg.effective_fan_in(b);
                let tail = bounds::resident_tail(1, data.len(), m, b, k, false);
                let unit = if placement.is_striped() { 2 } else { 1 };
                let spilled = unit * (data.len() - tail).div_ceil(b) as u64;
                prop_assert_eq!(d_str.writes(), spilled, "{:?} one load", placement);
                prop_assert_eq!(d_str.reads(), d_scan.reads() + spilled,
                    "{:?} one load reads its input and its spilled prefix", placement);
                input.free().unwrap();
                continue;
            }
            // ≥ 2 loads: both sorts write and read the same runs, and
            // fusion saves the output write + re-read.
            let saved = d_scan.reads();
            prop_assert_eq!(d_str.writes() + saved, d_mat.writes(),
                "{:?} fusion must skip exactly the output-write pass",
                placement);
            prop_assert_eq!(d_str.reads() + saved, d_mat.reads(),
                "{:?} fusion must skip exactly the re-read pass",
                placement);
            prop_assert_eq!(d_str.total() + 2 * saved, d_mat.total(),
                "{:?} fusion must save exactly 2·⌈N/B⌉ transfers",
                placement);

            input.free().unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary transient plans, possibly beyond the retry budget: the
    /// fused sort either completes with the correct output or returns a
    /// clean error through the consumer closure — never a panic, and never
    /// a silently wrong sequence.
    #[test]
    fn streaming_with_arbitrary_faults_completes_or_errs_cleanly(
        data in prop::collection::vec(any::<u64>(), 0..700),
        seed in any::<u64>(),
        permille in 0usize..=120,
        attempts in 0usize..=3,
        cycling in any::<bool>(),
    ) {
        let mut expect = data.clone();
        expect.sort_unstable();

        let placement = if cycling {
            Placement::RandomizedCycling { seed: 52 }
        } else {
            Placement::Independent
        };
        let plans = mk_plans(2, seed, permille as u64, 2);
        let retry = if attempts > 0 {
            RetryPolicy::new(attempts as u32)
        } else {
            RetryPolicy::none()
        };
        let device = DiskArray::new_ram_faulty(
            2, 64, placement, IoMode::Synchronous, &plans, retry,
        ) as SharedDevice;
        let cfg = SortConfig::new(128);
        let run = ExtVec::from_slice(device.clone(), &data)
            .and_then(|input| merge_sort_streaming(&input, &cfg, |a, b| a < b, drain));
        // A clean failure is acceptable under uncured faults; only an `Ok`
        // carries an obligation.
        if let Ok(got) = run {
            prop_assert_eq!(got, expect, "a completed fused sort must be correct");
        }
    }
}

/// With an enabled retry policy that the fault plan outlasts, the error that
/// reaches the `merge_sort_streaming` caller — crossing the consumer closure
/// via `?` on `try_next` — must be [`PdmError::RetriesExhausted`].
#[test]
fn retries_exhausted_propagates_through_consumer_path() {
    let data: Vec<u64> = (0..2000u64).rev().collect();
    let cfg = SortConfig::new(128);
    let mut saw_fused_failure = false;
    // Fault plans are seed-reproducible: scan seeds until one lets the input
    // build cleanly but trips a fault inside the fused sort itself.
    for seed in 0..400u64 {
        // Every faulted op fails 3 attempts; the policy allows only 2, so a
        // fault deterministically becomes RetriesExhausted.
        let plans = mk_plans(2, seed, 3, 3);
        let retry = RetryPolicy::new(2);
        let device = DiskArray::new_ram_faulty(
            2,
            64,
            Placement::Independent,
            IoMode::Synchronous,
            &plans,
            retry,
        ) as SharedDevice;
        let Ok(input) = ExtVec::from_slice(device.clone(), &data) else {
            continue;
        };
        match merge_sort_streaming(&input, &cfg, |a, b| a < b, drain) {
            Ok(got) => assert_eq!(got.len(), data.len(), "completed sort lost records"),
            Err(e) => {
                assert!(
                    matches!(e, PdmError::RetriesExhausted { .. }),
                    "expected RetriesExhausted through the consumer path, got {e:?}"
                );
                saw_fused_failure = true;
                break;
            }
        }
    }
    assert!(
        saw_fused_failure,
        "no seed produced a fault inside the fused sort"
    );
}
