//! Borůvka contraction, written once for its two users.
//!
//! [`connected_components`](crate::connected_components) and
//! [`minimum_spanning_forest`](crate::minimum_spanning_forest) differ only
//! in how a component picks the neighbour it hooks onto.  What follows the
//! hook is the same for both: the parent forest is flattened by pointer
//! doubling ([`compress`]) and the live edges are rewritten through the
//! flattened map ([`relabel`]).  Every computed stream feeds its sort through
//! a [`SortingWriter`] and every sorted sequence that is read once is
//! consumed off the sort's final merge, so no intermediate is written only
//! to be sorted and freed.

use std::collections::HashMap;

use em_core::{ExtVec, ExtVecWriter, Record};
use emsort::{merge_sort_streaming, SortConfig, SortingWriter};
use pdm::Result;

use crate::util::join_left_stream;

/// "No parent" in a joined `(record, parent)` pair: the key is a root.
pub(crate) const ROOT: u64 = u64::MAX;

/// A live edge of the contracted graph: two component labels plus whatever
/// the caller carries along.  [`relabel`] keeps, per label pair, the first
/// edge in the record's own order.
pub(crate) trait Edge: Record + PartialOrd {
    /// The two labels this edge connects.
    fn ends(&self) -> (u64, u64);
    /// The same edge between labels `a` and `b`.
    fn with_ends(self, a: u64, b: u64) -> Self;
}

impl Edge for (u64, u64) {
    fn ends(&self) -> (u64, u64) {
        *self
    }
    fn with_ends(self, a: u64, b: u64) -> Self {
        (a, b)
    }
}

/// `(label, label, weight, original edge id)`: tuple order keeps the
/// lightest edge, ties by id.
impl Edge for (u64, u64, u64, u64) {
    fn ends(&self) -> (u64, u64) {
        (self.0, self.1)
    }
    fn with_ends(self, a: u64, b: u64) -> Self {
        (a, b, self.2, self.3)
    }
}

/// `x` rewritten through a joined parent: roots map to themselves.
pub(crate) fn through(x: u64, parent: u64) -> u64 {
    if parent == ROOT {
        x
    } else {
        parent
    }
}

/// Union-find over sparse labels for the in-memory base cases; of two
/// merged roots the smaller label stays the root.
#[derive(Default)]
pub(crate) struct Labels(HashMap<u64, u64>);

impl Labels {
    /// The root of `x`'s set, compressing the path to it.
    fn find(&mut self, x: u64) -> u64 {
        let p = *self.0.entry(x).or_insert(x);
        if p == x {
            return x;
        }
        let root = self.find(p);
        self.0.insert(x, root);
        root
    }

    /// Merge the sets of `a` and `b`; `false` if they were one already.
    pub(crate) fn union(&mut self, a: u64, b: u64) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0.insert(ra.max(rb), ra.min(rb));
        }
        ra != rb
    }

    /// `(label, root)` for every label seen, sorted by label.
    pub(crate) fn into_parents(mut self) -> Vec<(u64, u64)> {
        let mut labels: Vec<u64> = self.0.keys().copied().collect();
        labels.sort_unstable();
        labels.into_iter().map(|l| (l, self.find(l))).collect()
    }
}

/// Pointer-double the parent map `(x, p)` (sorted by its unique `x`, no
/// cycles) until every entry points at a root.  Each step is a sort + join,
/// not a pointer chase: `O(Sort(P) · log depth)` I/Os.  Consumes `parents`.
pub(crate) fn compress(
    mut parents: ExtVec<(u64, u64)>,
    cfg: &SortConfig,
) -> Result<ExtVec<(u64, u64)>> {
    let device = parents.device().clone();
    let by_key = |a: &(u64, u64), b: &(u64, u64)| a.0 < b.0;
    loop {
        // new_p(x) = p(p(x)), where unmapped values are roots: (p, x) sorted
        // by p streams into the join against the map itself.
        let mut swapped_w = SortingWriter::new(device.clone(), cfg, by_key);
        {
            let mut r = parents.reader();
            while let Some((x, p)) = r.try_next()? {
                swapped_w.push((p, x))?;
            }
        }
        let joined =
            swapped_w.finish_streaming(|s| join_left_stream(s, |r| r.0, &parents, ROOT))?;
        let mut changed = false;
        let mut next_w = SortingWriter::new(device.clone(), cfg, by_key);
        {
            let mut r = joined.reader();
            while let Some(((p, x), pp)) = r.try_next()? {
                changed |= pp != ROOT;
                next_w.push((x, through(p, pp)))?;
            }
        }
        let next = next_w.finish_sorted()?;
        joined.free()?;
        parents.free()?;
        parents = next;
        if !changed {
            return Ok(parents);
        }
    }
}

/// Rewrite both endpoints of `edges` through the compressed parent map,
/// drop self-loops, normalize to `(min, max)` and keep the first edge per
/// label pair in `E`'s order.  Three sorts, each fused at both ends.
/// Consumes `edges`.
pub(crate) fn relabel<E: Edge>(
    edges: ExtVec<E>,
    parents: &ExtVec<(u64, u64)>,
    cfg: &SortConfig,
) -> Result<ExtVec<E>> {
    let device = edges.device().clone();
    // First endpoint: `edges` is already on the device, so its sort reads it
    // in place and streams into the join.
    let ja = merge_sort_streaming(
        &edges,
        cfg,
        |x: &E, y: &E| x.ends().0 < y.ends().0,
        |s| join_left_stream(s, |e| e.ends().0, parents, ROOT),
    )?;
    edges.free()?;
    // Second endpoint.
    let mut half_w =
        SortingWriter::new(device.clone(), cfg, |x: &E, y: &E| x.ends().1 < y.ends().1);
    {
        let mut r = ja.reader();
        while let Some((e, pa)) = r.try_next()? {
            let (a, b) = e.ends();
            half_w.push(e.with_ends(through(a, pa), b))?;
        }
    }
    ja.free()?;
    let jb = half_w.finish_streaming(|s| join_left_stream(s, |e| e.ends().1, parents, ROOT))?;
    // Normalized survivors in `E`'s order; the scan keeps each pair's first.
    let mut full_w = SortingWriter::new(device.clone(), cfg, |x: &E, y: &E| x < y);
    {
        let mut r = jb.reader();
        while let Some((e, pb)) = r.try_next()? {
            let (a2, b) = e.ends();
            let b2 = through(b, pb);
            if a2 != b2 {
                full_w.push(e.with_ends(a2.min(b2), a2.max(b2)))?;
            }
        }
    }
    jb.free()?;
    full_w.finish_streaming(|r| {
        let mut w: ExtVecWriter<E> = ExtVecWriter::new(device);
        let mut last = None;
        while let Some(e) = r.try_next()? {
            if last != Some(e.ends()) {
                last = Some(e.ends());
                w.push(e)?;
            }
        }
        w.finish()
    })
}
