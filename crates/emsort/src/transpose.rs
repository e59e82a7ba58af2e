//! External matrix transposition.
//!
//! Transposing a `p × q` row-major matrix is a structured permutation; the
//! survey's bound is `Θ((N/B) · log_m min(M, p, q, N/M))`.  Two regimes
//! matter in practice:
//!
//! * **Tall memory (`M ≥ 4B²`)** — the `log` term is constant and
//!   [`transpose_blocked`] achieves `O(N/B)` I/Os with square tiles of side
//!   `t = ⌊√(M/2)⌋ ≥ B`: each tile is read row-segment-wise, transposed in
//!   memory, and written column-segment-wise (edge blocks read-modify-write).
//! * **Small memory (`M < 4B²`)** — the blocked method degrades (each
//!   segment touches a whole block for `< B` useful records), so
//!   `transpose_blocked` falls back to sort-based transposition
//!   (`O(Sort(N))` I/Os), which is within the `log` factor of optimal.
//!
//! [`transpose_naive`] writes each record to its target position one at a
//! time (`Θ(N)` I/Os) — the baseline of experiment F4.

use em_core::{ExtVec, Record};
use pdm::{PdmError, Result};

use crate::permute::place_by_destination;
use crate::SortConfig;

/// Transpose a `p × q` row-major matrix one record at a time: a sequential
/// scan plus `2N` random I/Os.  A shape that is not `input`'s length is
/// [`PdmError::InvalidRequest`], before anything is allocated.
pub fn transpose_naive<R: Record>(input: &ExtVec<R>, p: u64, q: u64) -> Result<ExtVec<R>> {
    check_shape(input, p, q)?;
    let out = ExtVec::with_len(input.device().clone(), input.len())?;
    let mut reader = input.reader();
    let mut idx = 0u64;
    while let Some(rec) = reader.try_next()? {
        let (r, c) = (idx / q, idx % q);
        out.set(c * p + r, &rec)?;
        idx += 1;
    }
    Ok(out)
}

/// Transpose a `p × q` row-major matrix I/O-efficiently.
///
/// Uses square-tile transposition (`O(N/B)` I/Os) when `M ≥ 4B²` and both
/// dimensions exceed `B`; otherwise sorts `(target, record)` pairs
/// (`O(Sort(N))` I/Os).  A shape that is not `input`'s length is
/// [`PdmError::InvalidRequest`], before anything is allocated.
pub fn transpose_blocked<R: Record>(
    input: &ExtVec<R>,
    p: u64,
    q: u64,
    cfg: &SortConfig,
) -> Result<ExtVec<R>> {
    check_shape(input, p, q)?;
    let b = input.per_block() as u64;
    let m = cfg.mem_records as u64;
    let tile = (((m / 2) as f64).sqrt() as u64).max(1);
    if tile >= b && p >= b && q >= b {
        transpose_tiled(input, p, q, tile, cfg)
    } else {
        transpose_by_sort(input, p, q, cfg)
    }
}

/// `p·q` records, or [`PdmError::InvalidRequest`].
fn check_shape<R: Record>(input: &ExtVec<R>, p: u64, q: u64) -> Result<()> {
    if p.checked_mul(q) == Some(input.len()) {
        return Ok(());
    }
    Err(PdmError::InvalidRequest(format!(
        "transpose: a {p} × {q} matrix is not {} records",
        input.len()
    )))
}

fn transpose_tiled<R: Record>(
    input: &ExtVec<R>,
    p: u64,
    q: u64,
    tile: u64,
    cfg: &SortConfig,
) -> Result<ExtVec<R>> {
    let budget = em_core::MemBudget::new(cfg.mem_records);
    let out = ExtVec::with_len(input.device().clone(), input.len())?;
    let mut seg: Vec<R> = Vec::new();
    let mut tile_buf: Vec<R> = Vec::new();
    for r0 in (0..p).step_by(tile as usize) {
        let rows = tile.min(p - r0);
        for c0 in (0..q).step_by(tile as usize) {
            let cols = tile.min(q - c0);
            let _charge = budget.charge((rows * cols) as usize + input.per_block());
            // Gather the tile, row segment by row segment.
            tile_buf.clear();
            tile_buf.reserve((rows * cols) as usize);
            for r in r0..r0 + rows {
                input.read_range(r * q + c0, cols as usize, &mut seg)?;
                tile_buf.append(&mut seg);
            }
            // Scatter transposed: output row `c` (a column of the input)
            // gets the tile's column c−c0.
            let mut out_seg: Vec<R> = Vec::with_capacity(rows as usize);
            for c in 0..cols {
                out_seg.clear();
                for r in 0..rows {
                    out_seg.push(tile_buf[(r * cols + c) as usize].clone());
                }
                out.write_range((c0 + c) * p + r0, &out_seg)?;
            }
        }
    }
    Ok(out)
}

fn transpose_by_sort<R: Record>(
    input: &ExtVec<R>,
    p: u64,
    q: u64,
    cfg: &SortConfig,
) -> Result<ExtVec<R>> {
    let mut reader = input.reader();
    let mut idx = 0u64;
    place_by_destination(input.device().clone(), cfg, || {
        let Some(rec) = reader.try_next()? else {
            return Ok(None);
        };
        let (r, c) = (idx / q, idx % q);
        idx += 1;
        Ok(Some((c * p + r, rec)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::EmConfig;

    fn reference_transpose(data: &[u64], p: u64, q: u64) -> Vec<u64> {
        let mut out = vec![0u64; data.len()];
        for r in 0..p {
            for c in 0..q {
                out[(c * p + r) as usize] = data[(r * q + c) as usize];
            }
        }
        out
    }

    fn matrix(p: u64, q: u64) -> Vec<u64> {
        (0..p * q).map(|i| i * 3 + 1).collect()
    }

    #[test]
    fn naive_matches_reference() {
        let device = EmConfig::new(64, 8).ram_disk();
        let (p, q) = (12, 20);
        let data = matrix(p, q);
        let input = ExtVec::from_slice(device, &data).unwrap();
        let out = transpose_naive(&input, p, q).unwrap();
        assert_eq!(out.to_vec().unwrap(), reference_transpose(&data, p, q));
    }

    #[test]
    fn tiled_matches_reference_square() {
        // B = 8, M = 512 → tile = 16 ≥ B: tiled path.
        let device = EmConfig::new(64, 64).ram_disk();
        let (p, q) = (64, 64);
        let data = matrix(p, q);
        let input = ExtVec::from_slice(device, &data).unwrap();
        let out = transpose_blocked(&input, p, q, &SortConfig::new(512)).unwrap();
        assert_eq!(out.to_vec().unwrap(), reference_transpose(&data, p, q));
    }

    #[test]
    fn tiled_matches_reference_rectangular_unaligned() {
        let device = EmConfig::new(64, 64).ram_disk();
        let (p, q) = (37, 53); // nothing aligns with tile or block
        let data = matrix(p, q);
        let input = ExtVec::from_slice(device, &data).unwrap();
        let out = transpose_blocked(&input, p, q, &SortConfig::new(512)).unwrap();
        assert_eq!(out.to_vec().unwrap(), reference_transpose(&data, p, q));
    }

    #[test]
    fn sort_fallback_matches_reference() {
        // M = 32 < 4B² = 256 → sort-based path.
        let device = EmConfig::new(64, 8).ram_disk();
        let (p, q) = (40, 24);
        let data = matrix(p, q);
        let input = ExtVec::from_slice(device, &data).unwrap();
        let out = transpose_blocked(&input, p, q, &SortConfig::new(32)).unwrap();
        assert_eq!(out.to_vec().unwrap(), reference_transpose(&data, p, q));
    }

    #[test]
    fn double_transpose_is_identity() {
        let device = EmConfig::new(64, 64).ram_disk();
        let (p, q) = (48, 32);
        let data = matrix(p, q);
        let input = ExtVec::from_slice(device, &data).unwrap();
        let cfg = SortConfig::new(512);
        let t = transpose_blocked(&input, p, q, &cfg).unwrap();
        let tt = transpose_blocked(&t, q, p, &cfg).unwrap();
        assert_eq!(tt.to_vec().unwrap(), data);
    }

    #[test]
    fn tiled_beats_naive_on_io() {
        let device = EmConfig::new(64, 64).ram_disk();
        let (p, q) = (128, 128);
        let data = matrix(p, q);
        let input = ExtVec::from_slice(device.clone(), &data).unwrap();

        let before = device.stats().snapshot();
        transpose_blocked(&input, p, q, &SortConfig::new(512)).unwrap();
        let blocked = device.stats().snapshot().since(&before).total();

        let before = device.stats().snapshot();
        transpose_naive(&input, p, q).unwrap();
        let naive = device.stats().snapshot().since(&before).total();

        let n = p * q;
        let scan = n / 8;
        assert!(naive >= 2 * n, "naive is ~2 I/Os per record: {naive}");
        assert!(
            blocked <= 8 * scan,
            "blocked should be O(N/B): {blocked} vs scan {scan}"
        );
    }

    #[test]
    fn single_row_and_column() {
        let device = EmConfig::new(64, 8).ram_disk();
        let data = matrix(1, 30);
        let input = ExtVec::from_slice(device, &data).unwrap();
        let out = transpose_blocked(&input, 1, 30, &SortConfig::new(64)).unwrap();
        assert_eq!(
            out.to_vec().unwrap(),
            data,
            "transpose of a row vector is the same sequence"
        );
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        let device = EmConfig::new(64, 8).ram_disk();
        let input = ExtVec::from_slice(device.clone(), &[1u64, 2, 3]).unwrap();
        let blocks = device.allocated_blocks();
        for (p, q) in [(2, 2), (1 << 32, 1 << 32)] {
            let naive = transpose_naive(&input, p, q).map(|out| out.len());
            let blocked =
                transpose_blocked(&input, p, q, &SortConfig::new(64)).map(|out| out.len());
            for got in [naive, blocked] {
                assert!(
                    matches!(got, Err(PdmError::InvalidRequest(_))),
                    "{p} × {q}: {got:?}"
                );
            }
        }
        assert_eq!(device.allocated_blocks(), blocks);
    }
}
