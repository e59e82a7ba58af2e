//! The merge-join every contraction step is built from, and the clustered
//! adjacency both traversals walk.
//!
//! Every algorithm in this crate is assembled from sorts (delegated to
//! `emsort`) plus streaming joins.  The join below consumes a sort's final
//! merge as its probe side and reads the other side with a one-block reader,
//! so it costs `O(scan)` I/Os.

use em_core::{ExtVec, ExtVecWriter, Record};
use emsort::{SortConfig, SortedStream, SortingWriter};
use pdm::{PdmError, Result};

/// [`PdmError::InvalidRequest`] unless `v` names one of the vertices
/// `0..n` — every edge list is checked as it is first read.
pub(crate) fn check_vertex(v: u64, n: u64) -> Result<()> {
    if v >= n {
        return Err(PdmError::InvalidRequest(format!(
            "vertex id {v} out of range for {n} vertices"
        )));
    }
    Ok(())
}

/// Vertex `v`'s slice of a clustered arc array, as `(start, degree)` at
/// index `v`.
type Offsets = ExtVec<(u64, u64)>;

/// The clustered adjacency of the undirected graph `edges` on vertices
/// `0..n`: both arcs of every edge (`arcs_of`) sorted by `ends` — an arc's
/// `(src, dst)` — plus their [`Offsets`].  The symmetrized arcs feed the sort
/// directly, so the unsorted arc list is never written.
pub(crate) fn clustered_adjacency<E: Record, A: Record>(
    edges: &ExtVec<E>,
    n: u64,
    cfg: &SortConfig,
    arcs_of: impl Fn(E) -> [A; 2],
    ends: impl Fn(&A) -> (u64, u64) + Copy + Send,
) -> Result<(ExtVec<A>, Offsets)> {
    let device = edges.device().clone();
    let mut arcs = SortingWriter::new(device.clone(), cfg, move |a: &A, b: &A| ends(a) < ends(b));
    let mut r = edges.reader();
    while let Some(e) = r.try_next()? {
        for arc in arcs_of(e) {
            check_vertex(ends(&arc).0, n)?;
            arcs.push(arc)?;
        }
    }
    let adj = arcs.finish_sorted()?;

    let mut offsets: ExtVecWriter<(u64, u64)> = ExtVecWriter::new(device);
    let mut r = adj.reader();
    let mut next = r.try_next()?;
    let mut pos = 0u64;
    for v in 0..n {
        let start = pos;
        while next.as_ref().is_some_and(|arc| ends(arc).0 == v) {
            pos += 1;
            next = r.try_next()?;
        }
        offsets.push((start, pos - start))?;
    }
    drop(r);
    Ok((adj, offsets.finish()?))
}

/// Left-outer merge-join of the stream `a`, sorted by `key`, against `b`,
/// sorted by its unique `u64` key (`.0`): every record of `a` is emitted
/// once, paired with the value `b` holds for its key, or with `default` when
/// `b` has no such key.  `a` arrives straight off a sort's final merge pass
/// instead of being materialized first, so the join costs one read of `b`
/// and one write of the result.
pub(crate) fn join_left_stream<A: Record, Y: Record, F>(
    a: &mut SortedStream<'_, A, F>,
    key: impl Fn(&A) -> u64,
    b: &ExtVec<(u64, Y)>,
    default: Y,
) -> Result<ExtVec<(A, Y)>>
where
    F: Fn(&A, &A) -> bool + Copy,
{
    let mut out: ExtVecWriter<(A, Y)> = ExtVecWriter::new(b.device().clone());
    let mut rb = b.reader();
    let mut cur_b: Option<(u64, Y)> = rb.try_next()?;
    while let Some(rec) = a.try_next()? {
        let k = key(&rec);
        while cur_b.as_ref().is_some_and(|(bk, _)| *bk < k) {
            cur_b = rb.try_next()?;
        }
        match &cur_b {
            Some((bk, y)) if *bk == k => out.push((rec, y.clone()))?,
            _ => out.push((rec, default.clone()))?,
        }
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::EmConfig;
    use emsort::{merge_sort_streaming, SortConfig};
    use pdm::SharedDevice;

    fn device() -> SharedDevice {
        EmConfig::new(128, 8).ram_disk()
    }

    fn join(a: &ExtVec<(u64, u64)>, b: &ExtVec<(u64, u64)>) -> Vec<((u64, u64), u64)> {
        let joined = merge_sort_streaming(
            a,
            &SortConfig::new(64),
            |x, y| x.0 < y.0,
            |s| join_left_stream(s, |r| r.0, b, u64::MAX),
        )
        .unwrap();
        joined.to_vec().unwrap()
    }

    #[test]
    fn join_left_fills_default() {
        let d = device();
        let a = ExtVec::from_slice(d.clone(), &[(4u64, 40u64), (2, 20), (1, 10), (2, 21)]).unwrap();
        let b = ExtVec::from_slice(d, &[(1u64, 100u64), (2, 200), (3, 300)]).unwrap();
        assert_eq!(
            join(&a, &b),
            vec![
                ((1, 10), 100),
                ((2, 20), 200),
                ((2, 21), 200),
                ((4, 40), u64::MAX)
            ]
        );
    }

    #[test]
    fn join_empty_sides() {
        let d = device();
        let none: ExtVec<(u64, u64)> = ExtVec::new(d.clone());
        let one = ExtVec::from_slice(d, &[(1u64, 1u64)]).unwrap();
        assert!(join(&none, &one).is_empty());
        assert_eq!(join(&one, &none), vec![((1, 1), u64::MAX)]);
    }

    #[test]
    fn join_is_scan_cost() {
        let d = device();
        let a_data: Vec<(u64, u64)> = (0..1000u64).map(|i| (i, i)).collect();
        let a = ExtVec::from_slice(d.clone(), &a_data).unwrap();
        let b = ExtVec::from_slice(d.clone(), &a_data).unwrap();
        // One run (M ≥ N), so the sort itself is one read of `a` + one run
        // written and re-read by the streamed merge: 3 × 125 blocks.
        let cfg = SortConfig::new(1024);
        let before = d.stats().snapshot();
        let j = merge_sort_streaming(
            &a,
            &cfg,
            |x, y| x.0 < y.0,
            |s| join_left_stream(s, |r| r.0, &b, u64::MAX),
        )
        .unwrap();
        let ios = d.stats().snapshot().since(&before).total();
        assert_eq!(j.len(), 1000);
        // The join adds one read of b (125 blocks of 8 pairs) and one write
        // of 1000 triples at 5 per block (200) — nothing per record.
        assert!(ios <= 3 * 125 + 125 + 200, "sort + join cost {ios}");
    }
}
