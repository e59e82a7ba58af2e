//! Distribution (sample) sort.
//!
//! The dual of merge sort: instead of combining sorted runs, split the input
//! around `Θ(M/B)` sampled pivots into buckets, recurse on each bucket, and
//! concatenate.  Each level of recursion scans the data a constant number of
//! times (sample + partition), and the bucket count per level is `Θ(M/B)`,
//! so the total cost is `Θ((N/B) · log_{M/B}(N/B))` — the same sorting bound
//! as merge sort, reached from the other side (experiment F2 compares the
//! constants).
//!
//! Pivot handling follows the classic three-way discipline: records
//! equivalent to a pivot form their own *equal zone* which is emitted
//! verbatim.  Since every pivot is drawn from the bucket, each equal zone is
//! non-empty and every recursive zone is strictly smaller than its parent —
//! progress is guaranteed even on duplicate-heavy inputs.
//!
//! A level's pivots come from the one sampler, [`sample_pivots`], and its
//! partition is one [`PartitionPass`] over `2P + 1` zones, the `P + 1` open
//! zones first and the `P` equal zones after, routed by a pivot search; an
//! equal zone is copied out by [`copy_blocks`].  A sample of one distinct
//! key yields that key as the only pivot, so the level still makes its
//! equal zone.

use std::sync::Arc;

use em_core::{ExtVec, ExtVecWriter, MemBudget, Record};
use pdm::{PdmError, Result};

use crate::pass::{copy_blocks, pass_budget, sample_pivots, PartitionPass};
use crate::runs::cmp_from_less;
use crate::SortConfig;

/// Sort `input` by natural ordering using distribution sort.
pub fn distribution_sort<R: Record + Ord>(
    input: &ExtVec<R>,
    cfg: &SortConfig,
) -> Result<ExtVec<R>> {
    distribution_sort_by(input, cfg, |a, b| a < b)
}

/// Sort `input` by a strict-less predicate using distribution sort.
///
/// The input is left untouched; the result is a new array on the same
/// device.  Pivot sampling is deterministic (seeded per level) so experiment
/// runs are reproducible.  Intermediate buckets are freed as soon as they have
/// been partitioned, so peak disk usage stays `O(N/B)` blocks beyond the
/// input.
///
/// The [`OverlapConfig`](crate::OverlapConfig) on `cfg` applies here exactly
/// as it does to merge sort: the partition reader prefetches ahead and the
/// zone writers retire blocks behind, charged as budget *headroom* beyond
/// `M` so pivot counts, recursion structure, and transfer counts are
/// byte-identical to the synchronous pipeline.  On an independent-placement
/// [`DiskArray`](pdm::DiskArray), bucket blocks round-robin across lanes as
/// they are allocated, so zone writes stay D-parallel.
///
/// A level takes `P = (k − 1) / 2` pivots, at least one, for the fan-in `k`
/// of [`SortConfig::effective_fan_in`].  An input larger than `M` is partitioned, and
/// partitioning needs six blocks of memory (the reader's block and the five
/// zone writers of a two-pivot split): with fewer the sort returns
/// [`PdmError::MemoryExceeded`] before anything is written.  An input that
/// fits in `M` never partitions and sorts at any budget.
pub fn distribution_sort_by<R, F>(input: &ExtVec<R>, cfg: &SortConfig, less: F) -> Result<ExtVec<R>>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy,
{
    let b = input.per_block();
    let device = input.device();
    let p = ((cfg.effective_fan_in(b) - 1) / 2).max(1);
    // A level holds its 2P+1 zone writers and the output stream open.
    let budget = pass_budget(device, 2 * p + 2, b, cfg.mem_records, cfg.overlap);
    let ov = cfg.overlap.for_lanes(device.stream_lanes());
    let ctx = Ctx {
        budget,
        cfg: *cfg,
        p,
        read_ahead: ov.read_ahead,
        levels: std::cell::Cell::new(0),
    };
    let mut out = ExtVecWriter::with_write_behind(device.clone(), ov.write_behind, &ctx.budget);
    if input.len() as usize <= cfg.mem_records {
        emit_sorted_in_memory(input, &mut out, &ctx, less)?;
    } else {
        let (open, equal) = partition(input, &ctx, less)?;
        recurse_zones(open, equal, &mut out, &ctx, less, 1)?;
    }
    out.finish()
}

struct Ctx {
    budget: Arc<MemBudget>,
    cfg: SortConfig,
    /// Pivots a level takes.
    p: usize,
    /// `cfg`'s read-ahead on this device's lanes.
    read_ahead: usize,
    /// Partition calls so far — the stream token each level's pass
    /// announces to the device's lane policy, and its sample's seed.
    levels: std::cell::Cell<usize>,
}

/// Base case: the bucket fits in memory — load, sort, append to `out`.
fn emit_sorted_in_memory<R, F>(
    bucket: &ExtVec<R>,
    out: &mut ExtVecWriter<R>,
    ctx: &Ctx,
    less: F,
) -> Result<()>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy,
{
    let _charge = ctx.budget.charge(bucket.len() as usize);
    let mut records = bucket.to_vec()?;
    records.sort_by(|x, y| cmp_from_less(less, x, y));
    out.extend_from_slice(&records)
}

/// Open zones and equal zones produced by one partition level.
type Zones<R> = (Vec<ExtVec<R>>, Vec<ExtVec<R>>);

/// Split `bucket` around sampled pivots into `P+1` open zones and `P` equal
/// zones.  Costs two scans of the bucket plus one write of every record.
fn partition<R, F>(bucket: &ExtVec<R>, ctx: &Ctx, less: F) -> Result<Zones<R>>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy,
{
    // All sizing decisions come from the configured M, not the budget's
    // capacity (which includes overlap headroom): P and the sample size
    // determine the bucket tree, and that tree must not depend on whether
    // I/O overlap is enabled.
    let m = ctx.cfg.mem_records;
    let b = bucket.per_block();
    if m / b < 6 {
        return Err(PdmError::MemoryExceeded {
            needed: 6 * b,
            available: m,
        });
    }
    // The recursion is deterministic, so the level tokens — and hence the
    // samples and the block layout — are reproducible run to run.
    let level = ctx.levels.get();
    ctx.levels.set(level + 1);
    let (overlap, budget) = (ctx.cfg.overlap, &ctx.budget);

    // Pass 1: sample up to P pivots.
    let (pivots, _) = sample_pivots(bucket, ctx.p, level, &ctx.cfg, budget, Vec::push, less)?;
    let np = pivots.len();

    // Pass 2: distribute.
    let mut open =
        PartitionPass::spill_array(bucket, 2 * np + 1, level, overlap, budget, |pass, r| {
            let lo = pivots.partition_point(|pv| less(pv, &r));
            if lo < np && !less(&r, &pivots[lo]) {
                pass.push(np + 1 + lo, r)
            } else {
                pass.push(lo, r)
            }
        })?;
    let equal = open.split_off(np + 1);
    Ok((open, equal))
}

/// Emit zones in sorted order: recurse on open zones, stream equal zones.
fn recurse_zones<R, F>(
    open: Vec<ExtVec<R>>,
    equal: Vec<ExtVec<R>>,
    out: &mut ExtVecWriter<R>,
    ctx: &Ctx,
    less: F,
    depth: u32,
) -> Result<()>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy,
{
    // Under a strict weak order every pivot lands in an equal zone, so each
    // level shrinks; only a comparator that is not one (`<=`) gets here.
    if depth >= 64 {
        let why = "distribution sort made no progress: `less` is not a strict weak order";
        return Err(PdmError::InvalidRequest(why.into()));
    }
    let mut equal_iter = equal.into_iter();
    for zone in open {
        sort_owned(zone, out, ctx, less, depth)?;
        if let Some(eq) = equal_iter.next() {
            // Records equivalent to the pivot need no further sorting.
            copy_blocks(&eq, out, ctx.read_ahead, &ctx.budget)?;
            eq.free()?;
        }
    }
    Ok(())
}

/// Sort an owned bucket into `out`, freeing its blocks as soon as its
/// records have been copied onward.
fn sort_owned<R, F>(
    bucket: ExtVec<R>,
    out: &mut ExtVecWriter<R>,
    ctx: &Ctx,
    less: F,
    depth: u32,
) -> Result<()>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy,
{
    // In-memory threshold uses the configured M, not the overlap-inflated
    // budget capacity, so the recursion bottoms out identically either way.
    if bucket.len() as usize <= ctx.cfg.mem_records {
        emit_sorted_in_memory(&bucket, out, ctx, less)?;
        return bucket.free();
    }
    let (open, equal) = partition(&bucket, ctx, less)?;
    bucket.free()?;
    recurse_zones(open, equal, out, ctx, less, depth + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::hash::Draws;
    use em_core::{bounds, EmConfig};

    fn device_b8() -> pdm::SharedDevice {
        EmConfig::new(64, 8).ram_disk()
    }

    fn check_sort(data: Vec<u64>, m: usize) {
        let device = device_b8();
        let input = ExtVec::from_slice(device, &data).unwrap();
        let out = distribution_sort(&input, &SortConfig::new(m)).unwrap();
        let mut expect = data;
        expect.sort_unstable();
        assert_eq!(out.to_vec().unwrap(), expect);
    }

    #[test]
    fn sorts_random_input() {
        let mut rng = Draws::new(11);
        check_sort((0..5000).map(|_| rng.next_u64()).collect(), 64);
    }

    #[test]
    fn sorts_sorted_and_reversed() {
        check_sort((0..2000).collect(), 64);
        check_sort((0..2000).rev().collect(), 64);
    }

    #[test]
    fn duplicate_heavy_terminates() {
        let mut rng = Draws::new(12);
        check_sort((0..4000).map(|_| rng.below(3)).collect(), 64);
    }

    /// Five blocks of memory cannot partition: a typed error, nothing
    /// allocated — and no error at all for an input that fits and so never
    /// partitions.
    #[test]
    fn partitioning_with_under_six_blocks_is_memory_exceeded() {
        let device = device_b8();
        let input = ExtVec::from_slice(device.clone(), &(0..100).collect::<Vec<u64>>()).unwrap();
        let blocks = device.allocated_blocks();
        match distribution_sort(&input, &SortConfig::new(5 * 8)).map(|_| ()) {
            Err(PdmError::MemoryExceeded { needed, available }) => {
                assert_eq!((needed, available), (48, 40));
            }
            other => panic!("expected MemoryExceeded, got {other:?}"),
        }
        assert_eq!(device.allocated_blocks(), blocks);
        assert!(distribution_sort(&input, &SortConfig::new(6 * 8)).is_ok());
        check_sort((0..40).rev().collect(), 5 * 8);
    }

    /// A value that repeats every 333 records: a sample taken at a fixed
    /// stride could meet it in step and see one key per level.
    #[test]
    fn a_periodic_input_sorts() {
        let device = EmConfig::new(1024, 32).ram_disk();
        let data: Vec<u64> = (0..40_000).map(|i| i % 333).collect();
        let input = ExtVec::from_slice(device, &data).unwrap();
        let out = distribution_sort(&input, &SortConfig::new(32 * 128)).unwrap();
        let mut expect = data;
        expect.sort_unstable();
        assert_eq!(out.to_vec().unwrap(), expect);
    }

    #[test]
    fn all_equal_input() {
        check_sort(vec![7u64; 3000], 48);
    }

    #[test]
    fn small_inputs() {
        for n in [0u64, 1, 5, 64] {
            check_sort((0..n).rev().collect(), 64);
        }
    }

    #[test]
    fn custom_comparator() {
        let device = device_b8();
        let mut rng = Draws::new(13);
        let data: Vec<u64> = (0..2000).map(|_| rng.next_u64()).collect();
        let input = ExtVec::from_slice(device, &data).unwrap();
        let out = distribution_sort_by(&input, &SortConfig::new(64), |a, b| a > b).unwrap();
        let mut expect = data;
        expect.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(out.to_vec().unwrap(), expect);
    }

    #[test]
    fn io_within_constant_of_sort_bound() {
        let device = device_b8();
        let mut rng = Draws::new(14);
        let n = 20_000u64;
        let m = 128usize;
        let b = 8usize;
        let data: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let input = ExtVec::from_slice(device.clone(), &data).unwrap();
        let before = device.stats().snapshot();
        let out = distribution_sort(&input, &SortConfig::new(m)).unwrap();
        let d = device.stats().snapshot().since(&before);
        assert_eq!(out.len(), n);
        let bound = bounds::sort(n, m, b);
        let ratio = d.total() as f64 / bound;
        assert!(
            ratio < 8.0,
            "distribution sort used {}, bound {bound}, ratio {ratio}",
            d.total()
        );
    }

    #[test]
    fn temporaries_are_freed() {
        let device = device_b8();
        let mut rng = Draws::new(15);
        let data: Vec<u64> = (0..5000).map(|_| rng.next_u64()).collect();
        let input = ExtVec::from_slice(device.clone(), &data).unwrap();
        let before = device.allocated_blocks();
        let out = distribution_sort(&input, &SortConfig::new(64)).unwrap();
        assert_eq!(device.allocated_blocks() - before, out.num_blocks() as u64);
    }

    #[test]
    fn a_comparator_that_is_not_a_strict_weak_order_is_a_typed_error() {
        // Under `<=` no pivot is equal to itself, so every record of an
        // all-equal input lands in one open zone, level after level.
        let input = ExtVec::from_slice(device_b8(), &[7u64; 100]).unwrap();
        let got = distribution_sort_by(&input, &SortConfig::new(64), |a, b| a <= b);
        assert!(matches!(
            got.map(|v| v.len()),
            Err(PdmError::InvalidRequest(_))
        ));
    }

    /// Overlap is pure scheduling for distribution sort too: with read-ahead
    /// and write-behind enabled the output AND the exact transfer counts
    /// must match the synchronous run (the bucket tree may not shift).
    #[test]
    fn overlap_preserves_output_and_transfer_counts() {
        use crate::OverlapConfig;

        let mut rng = Draws::new(17);
        let data: Vec<u64> = (0..6000).map(|_| rng.next_u64()).collect();

        let run = |ov: OverlapConfig| {
            let device = device_b8();
            let input = ExtVec::from_slice(device.clone(), &data).unwrap();
            let before = device.stats().snapshot();
            let out =
                distribution_sort_by(&input, &SortConfig::new(64).with_overlap(ov), |a, b| a < b)
                    .unwrap();
            let delta = device.stats().snapshot().since(&before);
            (out.to_vec().unwrap(), delta.reads(), delta.writes())
        };

        let (sync_out, sync_r, sync_w) = run(OverlapConfig::off());
        let (ov_out, ov_r, ov_w) = run(OverlapConfig::symmetric(2));
        assert_eq!(sync_out, ov_out, "overlap changed distribution output");
        assert_eq!(sync_r, ov_r, "overlap changed distribution read count");
        assert_eq!(sync_w, ov_w, "overlap changed distribution write count");
        let mut expect = data.clone();
        expect.sort_unstable();
        assert_eq!(sync_out, expect);
    }

    /// A fan-in override larger than `M/B` allows is clamped as merge sort
    /// clamps it: `with_fan_in(31)` in eight blocks sorts exactly as
    /// `with_fan_in(7)` does.
    #[test]
    fn an_oversized_fan_in_override_is_clamped_to_memory() {
        let mut rng = Draws::new(18);
        let data: Vec<u64> = (0..2000).map(|_| rng.next_u64()).collect();
        let run = |k: usize| {
            let device = device_b8();
            let input = ExtVec::from_slice(device.clone(), &data).unwrap();
            let before = device.stats().snapshot();
            let out = distribution_sort(&input, &SortConfig::new(64).with_fan_in(k)).unwrap();
            let delta = device.stats().snapshot().since(&before);
            (out.to_vec().unwrap(), delta.reads(), delta.writes())
        };
        let (wide, clamped) = (run(31), run(7));
        assert_eq!(wide, clamped);
        let mut expect = data.clone();
        expect.sort_unstable();
        assert_eq!(wide.0, expect);
    }

    #[test]
    fn fan_in_override_narrows_partitions() {
        // With fan_in 3 → P = 1 pivot per level; still sorts correctly.
        let device = device_b8();
        let mut rng = Draws::new(16);
        let data: Vec<u64> = (0..3000).map(|_| rng.next_u64()).collect();
        let input = ExtVec::from_slice(device, &data).unwrap();
        let out = distribution_sort_by(&input, &SortConfig::new(64).with_fan_in(3), |a, b| a < b)
            .unwrap();
        let mut expect = data;
        expect.sort_unstable();
        assert_eq!(out.to_vec().unwrap(), expect);
    }
}
