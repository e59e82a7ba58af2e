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

use std::sync::Arc;

use em_core::{ExtVec, ExtVecWriter, MemBudget, Record};
use pdm::{PdmError, Result};
use rand::prelude::*;

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
/// device.  Pivot sampling is deterministic (fixed seed) so experiment runs
/// are reproducible.  Intermediate buckets are freed as soon as they have
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
/// An input larger than `M` is partitioned, and partitioning needs six
/// blocks of memory (the reader's block and the five zone writers of a
/// two-pivot split): with fewer the sort returns
/// [`PdmError::MemoryExceeded`] before anything is written.  An input that
/// fits in `M` never partitions and sorts at any budget.
pub fn distribution_sort_by<R, F>(input: &ExtVec<R>, cfg: &SortConfig, less: F) -> Result<ExtVec<R>>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy,
{
    let b = input.per_block();
    // Overlap depths are per disk: streams on an independent-placement
    // array deepen their queues by the lane count (see
    // [`OverlapConfig::for_lanes`](crate::OverlapConfig::for_lanes)) so the
    // partition reader and zone writers keep every member disk busy.
    let ov = cfg.overlap.for_lanes(input.device().stream_lanes());
    let cfg = &cfg.with_overlap(ov);
    // Overlap headroom beyond M: read-ahead for the one partition reader
    // plus write-behind for every zone writer a level can hold (2P+1 zones
    // and the output stream).  Partition math below is computed from
    // `mem_records` alone, never from the inflated budget capacity, so the
    // bucket tree — and with it every transfer — is identical with overlap
    // on or off.
    let p_bound = cfg
        .fan_in
        .map(|k| k.saturating_sub(1) / 2)
        .unwrap_or((cfg.mem_records / b).saturating_sub(2) / 2)
        .max(1);
    let reserve = (ov.read_ahead + (2 * p_bound + 2) * ov.write_behind) * b;
    let ctx = Ctx {
        budget: MemBudget::new(cfg.mem_records + reserve),
        cfg: *cfg,
        rng: std::cell::RefCell::new(StdRng::seed_from_u64(0xD157_0507)),
        levels: std::cell::Cell::new(0),
    };
    let mut out =
        ExtVecWriter::with_write_behind(input.device().clone(), ov.write_behind, &ctx.budget);
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
    rng: std::cell::RefCell<StdRng>,
    /// Partition calls so far — the stream token announced to the device's
    /// lane policy before each level's zone writers allocate (see
    /// [`BlockDevice::direct_next_stream`](pdm::BlockDevice::direct_next_stream)).
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
    let m_blocks = m / b;
    if m_blocks < 6 {
        return Err(PdmError::MemoryExceeded {
            needed: 6 * b,
            available: m,
        });
    }
    // 2P+1 zone writers + 1 reader block must fit in M.
    let p = ctx
        .cfg
        .fan_in
        .map(|k| k.saturating_sub(1) / 2)
        .unwrap_or((m_blocks - 2) / 2)
        .max(1);

    // Pass 1: reservoir-sample pivot candidates.
    let ov = ctx.cfg.overlap;
    let sample_target = (p * 4).min(m / 2).max(p.min(m / 2)).max(1);
    let mut sample: Vec<R> = Vec::with_capacity(sample_target);
    {
        let _charge = ctx.budget.charge(sample_target + b);
        let mut rng = ctx.rng.borrow_mut();
        let mut seen = 0u64;
        let mut reader = bucket.reader_at_prefetch(0, ov.read_ahead, &ctx.budget);
        while let Some(r) = reader.try_next()? {
            seen += 1;
            if sample.len() < sample_target {
                sample.push(r);
            } else {
                let j = rng.gen_range(0..seen);
                if (j as usize) < sample_target {
                    sample[j as usize] = r;
                }
            }
        }
    }
    sample.sort_by(|x, y| cmp_from_less(less, x, y));
    // P evenly spaced pivots, equivalents dropped.
    let mut pivots: Vec<R> = Vec::with_capacity(p);
    for i in 1..=p {
        let idx = (i * sample.len()) / (p + 1);
        let cand = sample[idx.min(sample.len() - 1)].clone();
        if pivots.last().is_none_or(|last| less(last, &cand)) {
            pivots.push(cand);
        }
    }
    let np = pivots.len();

    // Pass 2: distribute.  On independent-geometry arrays the level's zone
    // writers interleave their allocations through the device's one lane
    // cursor, so the bucket writes of one level keep all D lanes busy.
    // Announcing the level as a stream lets the seeded lane policies (SRM /
    // randomized cycling) decorrelate where each level's allocation
    // sequence starts and in what order it cycles — the recursion is
    // deterministic, so the token sequence (and hence the block layout) is
    // reproducible run to run.
    let level = ctx.levels.get();
    ctx.levels.set(level + 1);
    bucket.device().direct_next_stream(level);
    let mut open: Vec<ExtVecWriter<R>> = (0..=np)
        .map(|_| {
            ExtVecWriter::with_write_behind(bucket.device().clone(), ov.write_behind, &ctx.budget)
        })
        .collect();
    let mut equal: Vec<ExtVecWriter<R>> = (0..np)
        .map(|_| {
            ExtVecWriter::with_write_behind(bucket.device().clone(), ov.write_behind, &ctx.budget)
        })
        .collect();
    {
        let _charge = ctx.budget.charge((2 * np + 2) * b);
        let mut reader = bucket.reader_at_prefetch(0, ov.read_ahead, &ctx.budget);
        while let Some(r) = reader.try_next()? {
            let lo = pivots.partition_point(|pv| less(pv, &r));
            if lo < np && !less(&r, &pivots[lo]) {
                equal[lo].push(r)?;
            } else {
                open[lo].push(r)?;
            }
        }
    }
    let open = open
        .into_iter()
        .map(|w| w.finish())
        .collect::<Result<Vec<_>>>()?;
    let equal = equal
        .into_iter()
        .map(|w| w.finish())
        .collect::<Result<Vec<_>>>()?;
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
            // Records equivalent to the pivot need no further sorting: copy
            // them a block at a time (reader, copy and writer buffers).
            let b = eq.per_block();
            let _charge = ctx.budget.charge(3 * b);
            let mut reader = eq.reader_at_prefetch(0, ctx.cfg.overlap.read_ahead, &ctx.budget);
            let mut block = Vec::with_capacity(b);
            while reader.read_into(&mut block, b)? > 0 {
                out.extend_from_slice(&block)?;
                block.clear();
            }
            drop(reader);
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
        let mut rng = StdRng::seed_from_u64(11);
        check_sort((0..5000).map(|_| rng.gen()).collect(), 64);
    }

    #[test]
    fn sorts_sorted_and_reversed() {
        check_sort((0..2000).collect(), 64);
        check_sort((0..2000).rev().collect(), 64);
    }

    #[test]
    fn duplicate_heavy_terminates() {
        let mut rng = StdRng::seed_from_u64(12);
        check_sort((0..4000).map(|_| rng.gen_range(0..3)).collect(), 64);
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
        let mut rng = StdRng::seed_from_u64(13);
        let data: Vec<u64> = (0..2000).map(|_| rng.gen()).collect();
        let input = ExtVec::from_slice(device, &data).unwrap();
        let out = distribution_sort_by(&input, &SortConfig::new(64), |a, b| a > b).unwrap();
        let mut expect = data;
        expect.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(out.to_vec().unwrap(), expect);
    }

    #[test]
    fn io_within_constant_of_sort_bound() {
        let device = device_b8();
        let mut rng = StdRng::seed_from_u64(14);
        let n = 20_000u64;
        let m = 128usize;
        let b = 8usize;
        let data: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
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
        let mut rng = StdRng::seed_from_u64(15);
        let data: Vec<u64> = (0..5000).map(|_| rng.gen()).collect();
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

        let mut rng = StdRng::seed_from_u64(17);
        let data: Vec<u64> = (0..6000).map(|_| rng.gen()).collect();

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

    #[test]
    fn fan_in_override_narrows_partitions() {
        // With fan_in 3 → P = 1 pivot per level; still sorts correctly.
        let device = device_b8();
        let mut rng = StdRng::seed_from_u64(16);
        let data: Vec<u64> = (0..3000).map(|_| rng.gen()).collect();
        let input = ExtVec::from_slice(device, &data).unwrap();
        let out = distribution_sort_by(&input, &SortConfig::new(64).with_fan_in(3), |a, b| a < b)
            .unwrap();
        let mut expect = data;
        expect.sort_unstable();
        assert_eq!(out.to_vec().unwrap(), expect);
    }
}
