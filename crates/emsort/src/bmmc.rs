//! BMMC (bit-matrix-multiply/complement) permutations.
//!
//! The survey's treatment of structured permutations — FFT dataflow, bit
//! reversal, matrix (un)shuffles, Gray codes — is unified by the BMMC
//! class: the target address is an affine map of the source address over
//! GF(2),
//!
//! ```text
//! target = A · source ⊕ c      (A a nonsingular log N × log N bit matrix)
//! ```
//!
//! The optimal algorithm performs `Θ((N/B)·(1 + rank(A_{low})/log m))` I/Os;
//! this implementation routes BMMC permutations through the generic sorting
//! bound (`O(Sort(N))`) — within the survey's `log` factor of optimal, and
//! the honest baseline for the class (documented in DESIGN.md).  What it
//! buys over [`permute_by_sort`](crate::permute_by_sort) is that the target
//! addresses are *computed on the fly from the bit matrix* instead of being
//! materialized as an `N`-record destination vector: one less scan and no
//! `8N` bytes of destination storage.
//!
//! [`bit_reversal`] builds the `A` for the FFT's bit-reversal step;
//! [`perfect_shuffle`] the cyclic address rotation.

use em_core::{ExtVec, Record};
use pdm::{PdmError, Result};

use crate::permute::place_by_destination;
use crate::SortConfig;

/// An affine address map over GF(2): `target = A·source ⊕ c`, for addresses
/// of `bits` bits.  Row `i` of `A` is stored as a u64 mask of source bits.
#[derive(Debug, Clone)]
pub struct BmmcMatrix {
    /// `rows[i]` = mask of source-address bits XORed into target bit `i`.
    rows: Vec<u64>,
    /// Complement vector `c`.
    complement: u64,
}

impl BmmcMatrix {
    /// Build from rows (row `i` = mask of source bits feeding target bit
    /// `i`) and a complement vector.
    ///
    /// [`PdmError::InvalidRequest`] if there are more than 64 rows, or if
    /// the matrix is singular over GF(2) (the map would not be a
    /// permutation).
    pub fn new(rows: Vec<u64>, complement: u64) -> Result<Self> {
        if rows.len() > 64 || !Self::is_nonsingular(&rows) {
            return Err(PdmError::InvalidRequest(format!(
                "{} rows: a BMMC matrix has at most 64, and is nonsingular over GF(2)",
                rows.len()
            )));
        }
        Ok(BmmcMatrix { rows, complement })
    }

    /// The map sending source bit `sources[i]` to target bit `i` — a
    /// permutation matrix, nonsingular by construction.
    fn permuting(sources: impl Iterator<Item = u32>) -> Self {
        BmmcMatrix {
            rows: sources.map(|bit| 1u64 << bit).collect(),
            complement: 0,
        }
    }

    /// The identity map on `bits`-bit addresses.
    pub fn identity(bits: u32) -> Self {
        Self::permuting(0..bits)
    }

    /// Number of address bits.
    pub fn bits(&self) -> u32 {
        self.rows.len() as u32
    }

    /// Apply the map to one address.
    pub fn apply(&self, source: u64) -> u64 {
        let mut out = 0u64;
        for (i, &mask) in self.rows.iter().enumerate() {
            out |= u64::from((source & mask).count_ones() & 1) << i;
        }
        out ^ self.complement
    }

    fn is_nonsingular(rows: &[u64]) -> bool {
        // Gaussian elimination over GF(2).
        let mut m: Vec<u64> = rows.to_vec();
        let n = m.len();
        let mut rank = 0;
        for bit in 0..n {
            let pivot = (rank..n).find(|&r| m[r] >> bit & 1 == 1);
            let Some(p) = pivot else { continue };
            m.swap(rank, p);
            for r in 0..n {
                if r != rank && m[r] >> bit & 1 == 1 {
                    m[r] ^= m[rank];
                }
            }
            rank += 1;
        }
        rank == n
    }
}

/// The bit-reversal map on `bits`-bit addresses — the FFT's data
/// rearrangement step.
pub fn bit_reversal(bits: u32) -> BmmcMatrix {
    BmmcMatrix::permuting((0..bits).map(|i| bits - 1 - i))
}

/// The perfect-shuffle map (cyclic left rotation of the address bits).
pub fn perfect_shuffle(bits: u32) -> BmmcMatrix {
    // target bit (i+1) mod bits = source bit i.
    BmmcMatrix::permuting((0..bits).map(|i| (i + bits - 1) % bits))
}

/// Apply a BMMC permutation to an array of exactly `2^bits` records:
/// `out[A·i ⊕ c] = input[i]`.  `O(Sort(N))` I/Os.  Any other length is
/// [`PdmError::InvalidRequest`], before anything is allocated.
pub fn bmmc_permute<R: Record>(
    input: &ExtVec<R>,
    matrix: &BmmcMatrix,
    cfg: &SortConfig,
) -> Result<ExtVec<R>> {
    let n = input.len();
    if 1u64.checked_shl(matrix.bits()) != Some(n) {
        return Err(PdmError::InvalidRequest(format!(
            "bmmc_permute: {n} records for a {}-bit address map",
            matrix.bits()
        )));
    }
    // Targets are computed as the scan goes (no materialized destination
    // vector).
    let mut reader = input.reader();
    let mut i = 0u64;
    place_by_destination(input.device().clone(), cfg, || {
        let Some(rec) = reader.try_next()? else {
            return Ok(None);
        };
        let target = matrix.apply(i);
        i += 1;
        Ok(Some((target, rec)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::EmConfig;

    fn device() -> pdm::SharedDevice {
        EmConfig::new(128, 8).ram_disk()
    }

    #[test]
    fn identity_is_identity() {
        let d = device();
        let data: Vec<u64> = (0..256).collect();
        let v = ExtVec::from_slice(d, &data).unwrap();
        let out = bmmc_permute(&v, &BmmcMatrix::identity(8), &SortConfig::new(64)).unwrap();
        assert_eq!(out.to_vec().unwrap(), data);
    }

    #[test]
    fn bit_reversal_matches_reference() {
        let bits = 10;
        let n = 1u64 << bits;
        let d = device();
        let data: Vec<u64> = (0..n).map(|i| i * 3).collect();
        let v = ExtVec::from_slice(d, &data).unwrap();
        let out = bmmc_permute(&v, &bit_reversal(bits), &SortConfig::new(128))
            .unwrap()
            .to_vec()
            .unwrap();
        for i in 0..n {
            let rev = i.reverse_bits() >> (64 - bits);
            assert_eq!(out[rev as usize], data[i as usize], "i={i}");
        }
    }

    #[test]
    fn bit_reversal_is_an_involution() {
        let bits = 9;
        let d = device();
        let data: Vec<u64> = (0..1u64 << bits).map(|i| i.wrapping_mul(0x9E37)).collect();
        let v = ExtVec::from_slice(d, &data).unwrap();
        let cfg = SortConfig::new(128);
        let once = bmmc_permute(&v, &bit_reversal(bits), &cfg).unwrap();
        let twice = bmmc_permute(&once, &bit_reversal(bits), &cfg).unwrap();
        assert_eq!(twice.to_vec().unwrap(), data);
    }

    #[test]
    fn perfect_shuffle_interleaves_halves() {
        // Shuffling 0..2^b moves element i (in the first half) to 2i —
        // the riffle of a card deck.
        let bits = 6;
        let n = 1u64 << bits;
        let d = device();
        let data: Vec<u64> = (0..n).collect();
        let v = ExtVec::from_slice(d, &data).unwrap();
        let out = bmmc_permute(&v, &perfect_shuffle(bits), &SortConfig::new(64))
            .unwrap()
            .to_vec()
            .unwrap();
        for i in 0..n / 2 {
            assert_eq!(out[(2 * i) as usize], i, "first-half card {i}");
            assert_eq!(out[(2 * i + 1) as usize], n / 2 + i, "second-half card {i}");
        }
    }

    #[test]
    fn complement_vector_xors_addresses() {
        let bits = 5;
        let n = 1u64 << bits;
        let d = device();
        let data: Vec<u64> = (0..n).collect();
        let v = ExtVec::from_slice(d, &data).unwrap();
        let m = BmmcMatrix::new((0..bits).map(|i| 1u64 << i).collect(), 0b10101).unwrap();
        let out = bmmc_permute(&v, &m, &SortConfig::new(64))
            .unwrap()
            .to_vec()
            .unwrap();
        for i in 0..n {
            assert_eq!(out[(i ^ 0b10101) as usize], i);
        }
    }

    #[test]
    fn singular_matrix_rejected() {
        // Two identical rows → singular.
        let got = BmmcMatrix::new(vec![0b01, 0b01], 0);
        assert!(matches!(got, Err(PdmError::InvalidRequest(_))));
    }

    #[test]
    fn more_than_64_address_bits_is_a_typed_error() {
        let rows: Vec<u64> = (0..65).map(|i| 1u64 << (i % 64)).collect();
        let got = BmmcMatrix::new(rows, 0);
        assert!(matches!(got, Err(PdmError::InvalidRequest(_))));
    }

    #[test]
    fn wrong_length_is_a_typed_error() {
        let d = device();
        let v = ExtVec::from_slice(d.clone(), &[1u64, 2, 3]).unwrap();
        let blocks = d.allocated_blocks();
        for bits in [2, 64] {
            let got = bmmc_permute(&v, &BmmcMatrix::identity(bits), &SortConfig::new(64));
            assert!(
                matches!(got.map(|out| out.len()), Err(PdmError::InvalidRequest(_))),
                "{bits} bits"
            );
        }
        assert_eq!(d.allocated_blocks(), blocks);
    }
}
