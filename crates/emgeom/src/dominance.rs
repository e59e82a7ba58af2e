//! Batched 2-D dominance counting by distribution sweeping.
//!
//! For each query point `q`, count the input points `p` with `p.x ≤ q.x`
//! and `p.y ≤ q.y` — the building block of batched range *counting* and of
//! ECDF/skyline computations.  Unlike the reporting problems, the answer is
//! one number per query, so the cost is pure `O(Sort(N + Q))`:
//!
//! * sweep all events in increasing `y`;
//! * each slab keeps one in-memory counter of the points deposited in it so
//!   far;
//! * a query adds up the counters of every slab entirely to its left (those
//!   points dominate in `x` by construction and in `y` because they were
//!   swept earlier) and recurses into its own slab for the partial one.
//!
//! Per level a query does `O(k)` in-memory work and recurses exactly once,
//! so every record is rewritten once per level — the distribution-sort
//! recurrence.

use em_core::{ExtVec, ExtVecWriter, Record};
use emsort::{merge_sort_by, SortConfig};
use pdm::Result;

use crate::sweep::{distribution_sweep, event_sorter, Answers, Down, Level, Sweep};
use crate::Point;

/// Sweep event: point deposit or query, ordered by `(y, kind)` with points
/// (kind 0) before queries (kind 1) at equal `y` so boundary ties dominate.
#[derive(Debug, Clone, Copy)]
struct Event {
    y: i64,
    kind: u8,
    id: u64,
    x: i64,
    /// Partial count accumulated at outer recursion levels (queries only).
    acc: u64,
}

impl Record for Event {
    const BYTES: usize = <(i64, u8, u64, i64, u64)>::BYTES;
    fn write_to(&self, buf: &mut [u8]) {
        (self.y, self.kind, self.id, self.x, self.acc).write_to(buf);
    }
    fn read_from(buf: &[u8]) -> Self {
        let (y, kind, id, x, acc) = Record::read_from(buf);
        Event {
            y,
            kind,
            id,
            x,
            acc,
        }
    }
}

/// For each query, the number of `points` it dominates (`≤` in both
/// coordinates).  Returns `(query id, count)` sorted by query id.
/// `O(Sort(N + Q))` I/Os.
pub fn dominance_count(
    points: &ExtVec<Point>,
    queries: &ExtVec<Point>,
    cfg: &SortConfig,
) -> Result<ExtVec<(u64, u64)>> {
    let mut events = event_sorter::<Dominance>(points.device().clone(), cfg);
    for (kind, input) in [(0, points), (1, queries)] {
        let mut r = input.reader();
        while let Some(p) = r.try_next()? {
            events.push(Event {
                y: p.y,
                kind,
                id: p.id,
                x: p.x,
                acc: 0,
            })?;
        }
    }
    // The answers accumulate beside the sweep's own `M` records, so through
    // a one-block writer — sorted by query id only once the sweep is done.
    let unsorted = distribution_sweep::<Dominance>(events, cfg)?;
    let sorted = merge_sort_by(&unsorted, cfg, |a, b| a.0 < b.0)?;
    unsorted.free()?;
    Ok(sorted)
}

/// A point bumps its slab's counter; a query adds up the counters of every
/// slab strictly to its left.  Both recurse into their own slab.
struct Dominance;

impl Sweep for Dominance {
    type Event = Event;
    /// Points deposited in the slab so far.
    type Slab = u64;

    fn order(e: &Event) -> (i64, u8) {
        (e.y, e.kind)
    }

    fn sample_xs(e: &Event, xs: &mut Vec<i64>) {
        xs.push(e.x);
    }

    fn visit(mut e: Event, level: &mut Level<Self>, down: &mut Down<Self>) -> Result<()> {
        let s = level.slab_of(e.x);
        if e.kind == 0 {
            level.state[s] += 1;
        } else {
            // Slabs strictly left of s hold only points with smaller x
            // (and smaller y, since they were swept earlier).
            e.acc += level.state[..s].iter().sum::<u64>();
        }
        down.push(s, e)
    }

    fn solve_in_memory(events: Vec<Event>, out: &mut Answers) -> Result<()> {
        // Events are y-sorted; count points with x ≤ qx among those already
        // swept.  A sorted Vec with binary search keeps this O(n log n).
        let mut xs: Vec<i64> = Vec::new();
        for e in events {
            let below = xs.partition_point(|&x| x <= e.x);
            if e.kind == 0 {
                xs.insert(below, e.x);
            } else {
                out.push((e.id, e.acc + below as u64))?;
            }
        }
        Ok(())
    }
}

/// Baseline: block-nested loops — quadratic I/Os and comparisons.
pub fn dominance_count_naive(
    points: &ExtVec<Point>,
    queries: &ExtVec<Point>,
) -> Result<ExtVec<(u64, u64)>> {
    let mut out: ExtVecWriter<(u64, u64)> = ExtVecWriter::new(points.device().clone());
    let mut qblock = Vec::new();
    for qb in 0..queries.num_blocks() {
        queries.read_block_into(qb, &mut qblock)?;
        let mut counts = vec![0u64; qblock.len()];
        let mut pr = points.reader();
        while let Some(p) = pr.try_next()? {
            for (i, q) in qblock.iter().enumerate() {
                if p.x <= q.x && p.y <= q.y {
                    counts[i] += 1;
                }
            }
        }
        for (q, c) in qblock.iter().zip(counts) {
            out.push((q.id, c))?;
        }
    }
    let unsorted = out.finish()?;
    // Sort for a deterministic order (ids are unique).
    let device = points.device().clone();
    let mut sorted_pairs = unsorted.to_vec()?;
    unsorted.free()?;
    sorted_pairs.sort_unstable();
    ExtVec::from_slice(device, &sorted_pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::EmConfig;
    use pdm::SharedDevice;
    use rand::prelude::*;

    fn device() -> SharedDevice {
        EmConfig::new(256, 16).ram_disk()
    }

    fn pts(d: &SharedDevice, data: &[(u64, i64, i64)]) -> ExtVec<Point> {
        let v: Vec<Point> = data.iter().map(|&(id, x, y)| Point { id, x, y }).collect();
        ExtVec::from_slice(d.clone(), &v).unwrap()
    }

    /// Every 30th point on `x = 0`, the rest on `x = i`: a sample taken at
    /// a stride of 30 points would see only `x = 0` and find no slab
    /// boundary, though 3 017 distinct x values split easily.
    #[test]
    fn a_periodic_x_is_split_and_answered() {
        let d = EmConfig::new(4096, 16).ram_disk();
        let data: Vec<(u64, i64, i64)> = (0..3120)
            .map(|i| (i, if i % 30 == 0 { 0 } else { i as i64 }, i as i64))
            .collect();
        let points = pts(&d, &data);
        let got = dominance_count(&points, &points, &SortConfig::new(1984)).unwrap();
        let mut got = got.to_vec().unwrap();
        let mut want = dominance_count_naive(&points, &points)
            .unwrap()
            .to_vec()
            .unwrap();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got.len(), 3120);
        assert_eq!(got, want);
    }

    #[test]
    fn tiny_example() {
        let d = device();
        let points = pts(&d, &[(0, 1, 1), (1, 2, 5), (2, 5, 2), (3, -1, -1)]);
        let queries = pts(&d, &[(10, 3, 3), (11, 0, 0), (12, 10, 10)]);
        let got = dominance_count(&points, &queries, &SortConfig::new(256)).unwrap();
        // q10 (3,3): dominates (1,1), (-1,-1) → 2.  q11 (0,0): (-1,-1) → 1.
        // q12 (10,10): all 4.
        assert_eq!(got.to_vec().unwrap(), vec![(10, 2), (11, 1), (12, 4)]);
    }

    #[test]
    fn boundary_ties_are_inclusive() {
        let d = device();
        let points = pts(&d, &[(0, 5, 5)]);
        let queries = pts(&d, &[(1, 5, 5), (2, 5, 4), (3, 4, 5)]);
        let got = dominance_count(&points, &queries, &SortConfig::new(256)).unwrap();
        assert_eq!(got.to_vec().unwrap(), vec![(1, 1), (2, 0), (3, 0)]);
    }

    #[test]
    fn random_matches_naive() {
        let d = device();
        let mut rng = StdRng::seed_from_u64(301);
        let points: Vec<(u64, i64, i64)> = (0..1200)
            .map(|id| (id, rng.gen_range(-500..500), rng.gen_range(-500..500)))
            .collect();
        let queries: Vec<(u64, i64, i64)> = (0..800)
            .map(|id| (id, rng.gen_range(-500..500), rng.gen_range(-500..500)))
            .collect();
        let pv = pts(&d, &points);
        let qv = pts(&d, &queries);
        let smart = dominance_count(&pv, &qv, &SortConfig::new(96))
            .unwrap()
            .to_vec()
            .unwrap();
        let naive = dominance_count_naive(&pv, &qv).unwrap().to_vec().unwrap();
        assert_eq!(smart, naive);
    }

    #[test]
    fn counting_is_output_insensitive() {
        // Unlike reporting, huge answer totals cost nothing extra.
        let d = EmConfig::new(4096, 16).ram_disk();
        let mut rng = StdRng::seed_from_u64(302);
        let n = 50_000u64;
        let points: Vec<Point> = (0..n)
            .map(|id| Point {
                id,
                x: rng.gen_range(-1000..1000),
                y: rng.gen_range(-1000..1000),
            })
            .collect();
        // Queries in the top-right corner: each dominates ~all points.
        let queries: Vec<Point> = (0..n / 5).map(|id| Point { id, x: 900, y: 900 }).collect();
        let pv = ExtVec::from_slice(d.clone(), &points).unwrap();
        let qv = ExtVec::from_slice(d.clone(), &queries).unwrap();
        let before = d.stats().snapshot();
        let got = dominance_count(&pv, &qv, &SortConfig::new(16_384)).unwrap();
        let ios = d.stats().snapshot().since(&before).total();
        let total: u64 = got.reader().map(|(_, c)| c).sum();
        assert!(
            total > (n / 5) * (n / 2),
            "answers should be enormous: {total}"
        );
        // …yet the I/O cost is a few sorts of N+Q.
        // ≈10 scans of N+Q (event build + sorts + recursion); a reporting
        // version would pay ~Z/B ≈ 2assert!(ios < 3000, "counting used {ios} I/Os");#47;… millions more.
        assert!(ios < 8000, "counting used {ios} I/Os");
    }

    #[test]
    fn empty_inputs() {
        let d = device();
        let none: ExtVec<Point> = ExtVec::new(d.clone());
        let one = pts(&d, &[(1, 0, 0)]);
        assert!(dominance_count(&none, &none, &SortConfig::new(256))
            .unwrap()
            .is_empty());
        let got = dominance_count(&none, &one, &SortConfig::new(256)).unwrap();
        assert_eq!(got.to_vec().unwrap(), vec![(1, 0)]);
    }
}
