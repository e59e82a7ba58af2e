//! External selection: the k-th smallest record in `O(Scan(N))` expected
//! I/Os.
//!
//! One of the survey's batched problems that is strictly *easier* than
//! sorting: like internal quickselect, partition around a random pivot and
//! recurse into one side only, so the geometric series of scans sums to
//! `O(N/B)` expected.  A level is one two-way [`PartitionPass`] whose route
//! closure counts the records equal to the pivot instead of writing them,
//! which guarantees progress on duplicate-heavy inputs.  The pivot is one
//! record at a splitmix-drawn index: a single pivot needs no sample, so
//! selection does not call the sampler distribution sort and the sweep
//! share.

use em_core::{ExtVec, Record};
use pdm::hash::splitmix;
use pdm::{PdmError, Result};

use crate::pass::{pass_budget, PartitionPass};
use crate::runs::cmp_from_less;
use crate::SortConfig;

/// Return the `k`-th smallest record of `input` (0-based, by natural
/// order).  Expected `O(Scan(N))` I/Os.
pub fn select<R: Record + Ord>(input: &ExtVec<R>, k: u64, cfg: &SortConfig) -> Result<R> {
    select_by(input, k, cfg, |a, b| a < b)
}

/// Return the `k`-th smallest record by a strict-less predicate.  A rank
/// `k ≥ N` is [`PdmError::InvalidRequest`], before anything is allocated.
///
/// Candidates that fit in `M` are sorted in memory; larger ones are split
/// around a pivot, reading ahead and writing behind at `cfg`'s overlap out
/// of the budget's headroom, so transfer counts do not depend on it.
pub fn select_by<R, F>(input: &ExtVec<R>, k: u64, cfg: &SortConfig, less: F) -> Result<R>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy,
{
    if k >= input.len() {
        return Err(PdmError::InvalidRequest(format!(
            "select: rank {k} of {} records",
            input.len()
        )));
    }
    let (b, m) = (input.per_block(), cfg.mem_records);
    let budget = pass_budget(input.device(), 2, b, m, cfg.overlap);
    // The first level reads the borrowed input; later ones own the
    // shrinking candidate array, freed as soon as it is split.
    let (mut owned, mut k, mut level) = (None::<ExtVec<R>>, k, 0);
    loop {
        let data = owned.as_ref().unwrap_or(input);
        if data.len() as usize <= m {
            let _charge = budget.charge(data.len() as usize);
            let mut v = data.to_vec()?;
            let (_, kth, _) =
                v.select_nth_unstable_by(k as usize, |a, b| cmp_from_less(less, a, b));
            return Ok(kth.clone());
        }
        let pivot = data.get(splitmix(0x005E_1EC7 ^ level as u64) % data.len())?;
        let mut eq = 0u64;
        let route = |pass: &mut PartitionPass<R>, x: R| {
            if less(&x, &pivot) {
                pass.push(0, x)
            } else if less(&pivot, &x) {
                pass.push(1, x)
            } else {
                eq += 1;
                Ok(())
            }
        };
        let sides = PartitionPass::spill_array(data, 2, level, cfg.overlap, &budget, route)?;
        let n_lo = sides.first().map_or(0, ExtVec::len);
        let keep = if k < n_lo {
            Some(0)
        } else if k < n_lo + eq {
            None
        } else {
            k -= n_lo + eq;
            Some(1)
        };
        if let Some(split) = owned.take() {
            split.free()?;
        }
        for (side, bucket) in sides.into_iter().enumerate() {
            if keep == Some(side) {
                owned = Some(bucket);
            } else {
                bucket.free()?;
            }
        }
        if keep.is_none() {
            return Ok(pivot);
        }
        level += 1;
    }
}

/// Convenience: the median (lower median for even lengths); of no records,
/// [`PdmError::InvalidRequest`].
pub fn median<R: Record + Ord>(input: &ExtVec<R>, cfg: &SortConfig) -> Result<R> {
    select(input, input.len().saturating_sub(1) / 2, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::hash::Draws;
    use em_core::{bounds, EmConfig};

    fn device() -> pdm::SharedDevice {
        EmConfig::new(128, 8).ram_disk()
    }

    #[test]
    fn selects_every_rank_on_small_input() {
        let d = device();
        let data: Vec<u64> = vec![5, 3, 9, 1, 7, 3, 8, 0, 3, 2];
        let input = ExtVec::from_slice(d, &data).unwrap();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let cfg = SortConfig::new(64);
        for k in 0..data.len() as u64 {
            assert_eq!(
                select(&input, k, &cfg).unwrap(),
                sorted[k as usize],
                "k={k}"
            );
        }
    }

    #[test]
    fn selects_on_large_random_input() {
        let d = device();
        let mut rng = Draws::new(9);
        let data: Vec<u64> = (0..20_000).map(|_| rng.below(1_000_000)).collect();
        let input = ExtVec::from_slice(d, &data).unwrap();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let cfg = SortConfig::new(128);
        for k in [0u64, 1, 9_999, 19_998, 19_999] {
            assert_eq!(
                select(&input, k, &cfg).unwrap(),
                sorted[k as usize],
                "k={k}"
            );
        }
    }

    #[test]
    fn duplicate_heavy_input() {
        let d = device();
        let data: Vec<u64> = (0..10_000).map(|i| i % 3).collect();
        let input = ExtVec::from_slice(d, &data).unwrap();
        let cfg = SortConfig::new(64);
        assert_eq!(select(&input, 0, &cfg).unwrap(), 0);
        assert_eq!(select(&input, 5_000, &cfg).unwrap(), 1);
        assert_eq!(select(&input, 9_999, &cfg).unwrap(), 2);
    }

    #[test]
    fn median_of_shuffled_range() {
        let d = device();
        let mut rng = Draws::new(10);
        let mut data: Vec<u64> = (0..5001).collect();
        rng.shuffle(&mut data);
        let input = ExtVec::from_slice(d, &data).unwrap();
        assert_eq!(median(&input, &SortConfig::new(64)).unwrap(), 2500);
    }

    #[test]
    fn custom_comparator() {
        let d = device();
        let data: Vec<u64> = (0..1000).collect();
        let input = ExtVec::from_slice(d, &data).unwrap();
        // Descending order: rank 0 is the maximum.
        assert_eq!(
            select_by(&input, 0, &SortConfig::new(64), |a, b| a > b).unwrap(),
            999
        );
    }

    #[test]
    fn io_is_linear_not_sort() {
        let d = EmConfig::new(4096, 16).ram_disk();
        let mut rng = Draws::new(11);
        let n = 200_000u64;
        let data: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let input = ExtVec::from_slice(d.clone(), &data).unwrap();
        let cfg = SortConfig::new(8192);
        let before = d.stats().snapshot();
        select(&input, n / 2, &cfg).unwrap();
        let ios = d.stats().snapshot().since(&before).total();
        // For the median, a random pivot leaves 3/4·N expected, so the
        // read+write series sums to ≈ 8 scans; allow 2× slack for pivot
        // luck.  Still far below sorting (which costs ~4 scans *per pass*
        // plus the log factor — and more to the point, grows as N log N).
        let scan = bounds::scan(n, 512);
        assert!(
            (ios as f64) < 16.0 * scan,
            "selection used {ios} I/Os, scan = {scan}"
        );
    }

    #[test]
    fn temporaries_freed() {
        let d = device();
        let mut rng = Draws::new(12);
        let data: Vec<u64> = (0..5000).map(|_| rng.next_u64()).collect();
        let input = ExtVec::from_slice(d.clone(), &data).unwrap();
        let before = d.allocated_blocks();
        select(&input, 2500, &SortConfig::new(64)).unwrap();
        assert_eq!(d.allocated_blocks(), before);
    }

    #[test]
    fn out_of_range_rank_is_a_typed_error() {
        let d = device();
        let input = ExtVec::from_slice(d.clone(), &[1u64, 2, 3]).unwrap();
        let empty: ExtVec<u64> = ExtVec::new(d.clone());
        let blocks = d.allocated_blocks();
        let cfg = SortConfig::new(64);
        for got in [select(&input, 3, &cfg), median(&empty, &cfg)] {
            assert!(matches!(got, Err(PdmError::InvalidRequest(_))), "{got:?}");
        }
        assert_eq!(d.allocated_blocks(), blocks);
    }
}
