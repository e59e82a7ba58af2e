//! External selection: the k-th smallest record in `O(Scan(N))` expected
//! I/Os.
//!
//! One of the survey's batched problems that is strictly *easier* than
//! sorting: like internal quickselect, partition around a sampled pivot and
//! recurse into one side only, so the geometric series of scans sums to
//! `O(N/B)` expected.  The three-way (less / equal / greater) partition
//! guarantees progress on duplicate-heavy inputs.

use em_core::{ExtVec, ExtVecWriter, MemBudget, Record};
use pdm::{PdmError, Result};
use rand::prelude::*;

use crate::runs::cmp_from_less;
use crate::SortConfig;

/// Return the `k`-th smallest record of `input` (0-based, by natural
/// order).  Expected `O(Scan(N))` I/Os.
pub fn select<R: Record + Ord>(input: &ExtVec<R>, k: u64, cfg: &SortConfig) -> Result<R> {
    select_by(input, k, cfg, |a, b| a < b)
}

/// Return the `k`-th smallest record by a strict-less predicate.  A rank
/// `k ≥ N` is [`PdmError::InvalidRequest`], before anything is allocated.
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
    let budget = MemBudget::new(cfg.mem_records);
    let mut rng = StdRng::seed_from_u64(0x005E_1EC7);

    // First level reads from the borrowed input; afterwards we own the
    // shrinking candidate array.
    let (mut current, mut k) = {
        match select_level(input, k, &budget, less, &mut rng)? {
            Outcome::Found(r) => return Ok(r),
            Outcome::Recurse(next, k2) => (next, k2),
        }
    };
    loop {
        if current.len() as usize <= budget.capacity() {
            let _charge = budget.charge(current.len() as usize);
            let mut v = current.to_vec()?;
            v.sort_by(|a, b| cmp_from_less(less, a, b));
            let answer = v[k as usize].clone();
            current.free()?;
            return Ok(answer);
        }
        match select_level(&current, k, &budget, less, &mut rng)? {
            Outcome::Found(r) => {
                current.free()?;
                return Ok(r);
            }
            Outcome::Recurse(next, k2) => {
                current.free()?;
                current = next;
                k = k2;
            }
        }
    }
}

enum Outcome<R: Record> {
    Found(R),
    Recurse(ExtVec<R>, u64),
}

/// One partition level: pick a random pivot (one random access), then split
/// `data` into less / greater around it in a single scan, counting equals.
fn select_level<R, F>(
    data: &ExtVec<R>,
    k: u64,
    budget: &std::sync::Arc<MemBudget>,
    less: F,
    rng: &mut StdRng,
) -> Result<Outcome<R>>
where
    R: Record,
    F: Fn(&R, &R) -> bool + Copy,
{
    let pivot = data.get(rng.gen_range(0..data.len()))?;
    let device = data.device().clone();
    let mut lo: ExtVecWriter<R> = ExtVecWriter::new(device.clone());
    let mut hi: ExtVecWriter<R> = ExtVecWriter::new(device);
    let mut eq = 0u64;
    {
        let _charge = budget.charge(3 * data.per_block());
        let mut r = data.reader();
        while let Some(x) = r.try_next()? {
            if less(&x, &pivot) {
                lo.push(x)?;
            } else if less(&pivot, &x) {
                hi.push(x)?;
            } else {
                eq += 1;
            }
        }
    }
    let lo = lo.finish()?;
    let hi = hi.finish()?;
    let n_lo = lo.len();
    if k < n_lo {
        hi.free()?;
        Ok(Outcome::Recurse(lo, k))
    } else if k < n_lo + eq {
        lo.free()?;
        hi.free()?;
        Ok(Outcome::Found(pivot))
    } else {
        lo.free()?;
        Ok(Outcome::Recurse(hi, k - n_lo - eq))
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
        let mut rng = StdRng::seed_from_u64(9);
        let data: Vec<u64> = (0..20_000).map(|_| rng.gen_range(0..1_000_000)).collect();
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
        let mut rng = StdRng::seed_from_u64(10);
        let mut data: Vec<u64> = (0..5001).collect();
        data.shuffle(&mut rng);
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
        let mut rng = StdRng::seed_from_u64(11);
        let n = 200_000u64;
        let data: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
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
        let mut rng = StdRng::seed_from_u64(12);
        let data: Vec<u64> = (0..5000).map(|_| rng.gen()).collect();
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
