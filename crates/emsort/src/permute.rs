//! External permuting — both sides of `Permute(N) = Θ(min(N, Sort(N)))`.
//!
//! Given records `x_0 … x_{N−1}` and destinations `d_0 … d_{N−1}` (a
//! permutation of `0 … N−1`), produce the array with `out[d_i] = x_i`.
//!
//! * [`permute_naive`] moves one record at a time: a scan of the input plus a
//!   random-access write per record — `Θ(N)` I/Os.  In internal memory this
//!   is optimal; in external memory it is the *baseline* the sorting-based
//!   method beats whenever `B` is non-trivial.
//! * [`permute_by_sort`] tags each record with its destination and sorts by
//!   it — `Θ(Sort(N))` I/Os.
//!
//! The crossover between the two as `B` grows is experiment F3, one of the
//! survey's signature "external memory is different" results.
//!
//! Both sort-based routines here, and the sort-based sides of
//! [`transpose_blocked`](crate::transpose_blocked) and
//! [`bmmc_permute`](crate::bmmc_permute), are one scan feeding
//! `place_by_destination`: the tagged pairs are never written unsorted nor
//! written sorted, so the bill is the input scan, the pair sort's runs and
//! intermediate merges, and `⌈N/B⌉` output writes.

use em_core::{ExtVec, ExtVecWriter, Record};
use pdm::{PdmError, Result, SharedDevice};

use crate::{SortConfig, SortingWriter};

/// Apply a permutation one record at a time: `Θ(N)` I/Os.
///
/// `dest` must have the same length as `input` and hold a permutation of
/// `0..N`; `out[dest[i]] = input[i]`.  Costs `2·⌈N/B⌉` sequential reads plus
/// `2N` random I/Os (read-modify-write per record).
///
/// Lengths that differ are [`PdmError::InvalidRequest`] before anything is
/// allocated; so is a destination `≥ N`, found mid-scan.
pub fn permute_naive<R: Record>(input: &ExtVec<R>, dest: &ExtVec<u64>) -> Result<ExtVec<R>> {
    check_lengths(input, dest)?;
    let out = ExtVec::with_len(input.device().clone(), input.len())?;
    let mut records = input.reader();
    let mut dests = dest.reader();
    while let (Some(r), Some(d)) = (records.try_next()?, dests.try_next()?) {
        if d >= input.len() {
            return Err(out_of_range(d, input.len()));
        }
        out.set(d, &r)?;
    }
    Ok(out)
}

/// Apply a permutation by sorting `(destination, record)` pairs:
/// `Θ(Sort(N))` I/Os.
///
/// `cfg.mem_records` is interpreted in records of `R`; the internal pair
/// records are bigger, so the pair-sort budget is scaled down to keep the
/// byte budget identical.
///
/// Lengths that differ are [`PdmError::InvalidRequest`] before anything is
/// allocated; so is a destination `≥ N`, found mid-scan.
pub fn permute_by_sort<R: Record>(
    input: &ExtVec<R>,
    dest: &ExtVec<u64>,
    cfg: &SortConfig,
) -> Result<ExtVec<R>> {
    check_lengths(input, dest)?;
    let mut records = input.reader();
    let mut dests = dest.reader();
    place_by_destination(input.device().clone(), cfg, || {
        let (Some(r), Some(d)) = (records.try_next()?, dests.try_next()?) else {
            return Ok(None);
        };
        if d >= input.len() {
            return Err(out_of_range(d, input.len()));
        }
        Ok(Some((d, r)))
    })
}

/// One destination per record, or [`PdmError::InvalidRequest`].
fn check_lengths<R: Record>(input: &ExtVec<R>, dest: &ExtVec<u64>) -> Result<()> {
    if input.len() == dest.len() {
        return Ok(());
    }
    Err(PdmError::InvalidRequest(format!(
        "permute: {} destinations for {} records",
        dest.len(),
        input.len()
    )))
}

fn out_of_range(d: u64, n: u64) -> PdmError {
    PdmError::InvalidRequest(format!("permute: destination {d} is not below {n}"))
}

/// Compute the inverse permutation: `inv[perm[i]] = i`, in `Θ(Sort(N))`
/// I/Os.  Nothing in the workspace calls it today (the graph algorithms get
/// their rank → position maps from their own joins); it is kept as the
/// smallest client of the shared tag → sort → strip.
pub fn invert_permutation(perm: &ExtVec<u64>, cfg: &SortConfig) -> Result<ExtVec<u64>> {
    let mut reader = perm.reader();
    let mut i = 0u64;
    place_by_destination(perm.device().clone(), cfg, || {
        let Some(p) = reader.try_next()? else {
            return Ok(None);
        };
        let position = i;
        i += 1;
        Ok(Some((p, position)))
    })
}

/// The one tag → sort → strip: pull `(destination, record)` pairs from
/// `next_tagged` until it returns `None`, sort them by destination in a
/// [`SortingWriter`] whose budget is `cfg`'s bytes counted in pairs, and
/// write the records as the final merge delivers them.
pub(crate) fn place_by_destination<R: Record>(
    device: SharedDevice,
    cfg: &SortConfig,
    mut next_tagged: impl FnMut() -> Result<Option<(u64, R)>>,
) -> Result<ExtVec<R>> {
    let pair_cfg = SortConfig {
        mem_records: (cfg.mem_records * R::BYTES / (u64::BYTES + R::BYTES)).max(1),
        ..*cfg
    };
    let mut tagged = SortingWriter::new(device.clone(), &pair_cfg, |a: &(u64, R), b| a.0 < b.0);
    while let Some(pair) = next_tagged()? {
        tagged.push(pair)?;
    }
    tagged.finish_streaming(|sorted| {
        let mut out: ExtVecWriter<R> = ExtVecWriter::new(device);
        while let Some((_, r)) = sorted.try_next()? {
            out.push(r)?;
        }
        out.finish()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::hash::Draws;
    use em_core::{bounds, EmConfig};

    fn device_b8() -> pdm::SharedDevice {
        EmConfig::new(64, 8).ram_disk()
    }

    fn random_perm(n: u64, seed: u64) -> Vec<u64> {
        let mut rng = Draws::new(seed);
        let mut p: Vec<u64> = (0..n).collect();
        rng.shuffle(&mut p);
        p
    }

    fn apply_in_memory<R: Clone + Default>(data: &[R], dest: &[u64]) -> Vec<R> {
        let mut out = vec![R::default(); data.len()];
        for (r, &d) in data.iter().zip(dest) {
            out[d as usize] = r.clone();
        }
        out
    }

    #[test]
    fn naive_matches_reference() {
        let device = device_b8();
        let n = 500u64;
        let data: Vec<u64> = (0..n).map(|i| i * 10).collect();
        let perm = random_perm(n, 21);
        let input = ExtVec::from_slice(device.clone(), &data).unwrap();
        let dest = ExtVec::from_slice(device, &perm).unwrap();
        let out = permute_naive(&input, &dest).unwrap();
        assert_eq!(out.to_vec().unwrap(), apply_in_memory(&data, &perm));
    }

    #[test]
    fn sort_based_matches_reference() {
        let device = device_b8();
        let n = 3000u64;
        let data: Vec<u64> = (0..n).map(|i| i * 7 + 1).collect();
        let perm = random_perm(n, 22);
        let input = ExtVec::from_slice(device.clone(), &data).unwrap();
        let dest = ExtVec::from_slice(device, &perm).unwrap();
        let out = permute_by_sort(&input, &dest, &SortConfig::new(128)).unwrap();
        assert_eq!(out.to_vec().unwrap(), apply_in_memory(&data, &perm));
    }

    #[test]
    fn both_agree_on_identity_and_reverse() {
        let device = device_b8();
        let n = 200u64;
        let data: Vec<u64> = (0..n).collect();
        for perm in [(0..n).collect::<Vec<_>>(), (0..n).rev().collect()] {
            let input = ExtVec::from_slice(device.clone(), &data).unwrap();
            let dest = ExtVec::from_slice(device.clone(), &perm).unwrap();
            let a = permute_naive(&input, &dest).unwrap().to_vec().unwrap();
            let b = permute_by_sort(&input, &dest, &SortConfig::new(64))
                .unwrap()
                .to_vec()
                .unwrap();
            assert_eq!(a, b);
            assert_eq!(a, apply_in_memory(&data, &perm));
        }
    }

    #[test]
    fn naive_costs_theta_n_sort_costs_sort_n() {
        // Use a realistic block size (B = 32 records) so the crossover of
        // Permute(N) = min(N, Sort(N)) is clearly on the sorting side.
        let device = EmConfig::new(256, 16).ram_disk();
        let n = 4096u64;
        let m = 512usize;
        let data: Vec<u64> = (0..n).collect();
        let perm = random_perm(n, 23);
        let input = ExtVec::from_slice(device.clone(), &data).unwrap();
        let dest = ExtVec::from_slice(device.clone(), &perm).unwrap();

        let before = device.stats().snapshot();
        permute_naive(&input, &dest).unwrap();
        let naive = device.stats().snapshot().since(&before).total();

        let before = device.stats().snapshot();
        permute_by_sort(&input, &dest, &SortConfig::new(m)).unwrap();
        let sorted = device.stats().snapshot().since(&before).total();

        // Naive ≈ 2N random I/Os (+ scans); the sort-based bill is exact in
        // `sort_based_permutations_pay_the_pair_sort_and_one_output_write`.
        assert!(naive as f64 >= 2.0 * n as f64, "naive={naive}");
        assert!(
            sorted < naive,
            "with B=32 sorting should already win: {sorted} vs {naive}"
        );
    }

    #[test]
    fn sort_based_permutations_pay_the_pair_sort_and_one_output_write() {
        // B = 32 records, 16 pairs; M = 128 records is 64 pairs, so 64 runs
        // merge 3 ways over several passes before the fused last one.
        let device = EmConfig::new(256, 16).ram_disk();
        let (bits, side) = (12u32, 64u64);
        let n = 1u64 << bits;
        let (b, m) = (32usize, 128usize);
        let cfg = SortConfig::new(m);
        let data: Vec<u64> = (0..n).map(|i| i * 7 + 1).collect();
        let input = ExtVec::from_slice(device.clone(), &data).unwrap();
        let dest = ExtVec::from_slice(device.clone(), &random_perm(n, 25)).unwrap();

        let (b_pair, m_pair) = (b / 2, m / 2);
        let scan = bounds::scan(n, b) as u64;
        let pair_sort = bounds::sorting_writer_streamed_ios(n, m_pair, b_pair, m_pair / b_pair - 1);
        let bill = |inputs_read: u64, run: &dyn Fn() -> ExtVec<u64>| {
            let before = device.stats().snapshot();
            run();
            let total = device.stats().snapshot().since(&before).total();
            assert_eq!(total, inputs_read * scan + pair_sort + scan);
            // A count under the permutation bound is an accounting bug.
            assert!(total as f64 >= bounds::permute(n, m, b), "total={total}");
        };
        bill(2, &|| permute_by_sort(&input, &dest, &cfg).unwrap());
        bill(1, &|| invert_permutation(&dest, &cfg).unwrap());
        bill(1, &|| {
            crate::transpose_blocked(&input, side, side, &cfg).unwrap()
        });
        bill(1, &|| {
            crate::bmmc_permute(&input, &crate::bit_reversal(bits), &cfg).unwrap()
        });
    }

    #[test]
    fn invert_permutation_round_trips() {
        let device = device_b8();
        let n = 1000u64;
        let perm = random_perm(n, 24);
        let pv = ExtVec::from_slice(device.clone(), &perm).unwrap();
        let inv = invert_permutation(&pv, &SortConfig::new(64)).unwrap();
        let inv_v = inv.to_vec().unwrap();
        for (i, &p) in perm.iter().enumerate() {
            assert_eq!(inv_v[p as usize], i as u64);
        }
    }

    /// Lengths that differ fail before anything is allocated; a destination
    /// out of range, placed late enough that the sort has spilled runs,
    /// fails having freed everything either method wrote.
    #[test]
    fn mismatched_or_out_of_range_destinations_are_typed_errors() {
        let device = device_b8();
        let n = 500u64;
        let data: Vec<u64> = (0..n).collect();
        let input = ExtVec::from_slice(device.clone(), &data).unwrap();
        let short = ExtVec::from_slice(device.clone(), &data[1..]).unwrap();
        let mut bad = random_perm(n, 26);
        bad[450] = n;
        let bad = ExtVec::from_slice(device.clone(), &bad).unwrap();
        let cfg = SortConfig::new(64);
        let blocks = device.allocated_blocks();
        for (dest, what) in [(&short, "lengths"), (&bad, "destination")] {
            let naive = permute_naive(&input, dest).map(|out| out.len());
            let sorted = permute_by_sort(&input, dest, &cfg).map(|out| out.len());
            for got in [naive, sorted] {
                assert!(
                    matches!(got, Err(PdmError::InvalidRequest(_))),
                    "{what}: {got:?}"
                );
                assert_eq!(device.allocated_blocks(), blocks, "{what}");
            }
        }
    }

    #[test]
    fn empty_permutation() {
        let device = device_b8();
        let input: ExtVec<u64> = ExtVec::new(device.clone());
        let dest: ExtVec<u64> = ExtVec::new(device);
        assert_eq!(permute_naive(&input, &dest).unwrap().len(), 0);
        assert_eq!(
            permute_by_sort(&input, &dest, &SortConfig::new(64))
                .unwrap()
                .len(),
            0
        );
    }
}
