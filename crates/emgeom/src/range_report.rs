//! Batched orthogonal range reporting by distribution sweeping.
//!
//! Given `N` points and `Q` axis-parallel query rectangles, report every
//! (rectangle, point) containment pair in `O(Sort(N+Q) + Z/B)` I/Os — the
//! same engine as segment intersection with the roles swapped: rectangles
//! become *active* in the slabs they span completely when the sweep passes
//! their bottom edge; a point scans its slab's active list, where every
//! live rectangle must contain it (the rectangle spans the point's whole
//! slab horizontally and its y-interval covers the sweep line).

use em_core::{AppendBuffer, ExtVec, ExtVecWriter, Record};
use emsort::SortConfig;
use pdm::{PdmError, Result};

use crate::sweep::{distribution_sweep, event_sorter, report_live, Answers, Down, Level, Sweep};

/// A point with an identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    /// Caller-chosen identifier, reported in answers.
    pub id: u64,
    /// X coordinate.
    pub x: i64,
    /// Y coordinate.
    pub y: i64,
}

impl Record for Point {
    const BYTES: usize = <(u64, i64, i64)>::BYTES;
    fn write_to(&self, buf: &mut [u8]) {
        (self.id, self.x, self.y).write_to(buf);
    }
    fn read_from(buf: &[u8]) -> Self {
        let (id, x, y) = Record::read_from(buf);
        Point { id, x, y }
    }
}

/// An axis-parallel query rectangle `[x1, x2] × [y1, y2]` (inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    /// Caller-chosen identifier, reported in answers.
    pub id: u64,
    /// Left x (≤ `x2`).
    pub x1: i64,
    /// Right x.
    pub x2: i64,
    /// Bottom y (≤ `y2`).
    pub y1: i64,
    /// Top y.
    pub y2: i64,
}

impl Record for Rect {
    const BYTES: usize = <(u64, i64, i64, i64, i64)>::BYTES;
    fn write_to(&self, buf: &mut [u8]) {
        (self.id, self.x1, self.x2, self.y1, self.y2).write_to(buf);
    }
    fn read_from(buf: &[u8]) -> Self {
        let (id, x1, x2, y1, y2) = Record::read_from(buf);
        Rect { id, x1, x2, y1, y2 }
    }
}

/// Sweep event, ordered by `(y, kind)`: rectangle bottoms (kind 0) before
/// points (kind 1) at equal `y`, so boundary contacts count.
#[derive(Debug, Clone, Copy)]
struct Event {
    y: i64,
    kind: u8, // 0 = rectangle bottom, 1 = point
    id: u64,
    a: i64, // rect: x1   point: x
    b: i64, // rect: x2   point: unused (0)
    c: i64, // rect: y2   point: unused (0)
}

impl Record for Event {
    const BYTES: usize = <(i64, u8, u64, i64, i64, i64)>::BYTES;
    fn write_to(&self, buf: &mut [u8]) {
        (self.y, self.kind, self.id, self.a, self.b, self.c).write_to(buf);
    }
    fn read_from(buf: &[u8]) -> Self {
        let (y, kind, id, a, b, c) = Record::read_from(buf);
        Event {
            y,
            kind,
            id,
            a,
            b,
            c,
        }
    }
}

/// Report every (rectangle id, point id) pair with the point inside the
/// rectangle (boundaries inclusive).  `O(Sort(N+Q) + Z/B)` I/Os; output
/// order unspecified.  A rectangle with `x1 > x2` or `y1 > y2` is
/// [`PdmError::InvalidRequest`].
pub fn batched_range_reporting(
    points: &ExtVec<Point>,
    rects: &ExtVec<Rect>,
    cfg: &SortConfig,
) -> Result<ExtVec<(u64, u64)>> {
    let mut events = event_sorter::<RangeReport>(points.device().clone(), cfg);
    let mut r = rects.reader();
    while let Some(q) = r.try_next()? {
        if q.x1 > q.x2 || q.y1 > q.y2 {
            return Err(PdmError::InvalidRequest(format!(
                "malformed rectangle {}: [{}, {}] × [{}, {}]",
                q.id, q.x1, q.x2, q.y1, q.y2
            )));
        }
        events.push(Event {
            y: q.y1,
            kind: 0,
            id: q.id,
            a: q.x1,
            b: q.x2,
            c: q.y2,
        })?;
    }
    let mut r = points.reader();
    while let Some(p) = r.try_next()? {
        events.push(Event {
            y: p.y,
            kind: 1,
            id: p.id,
            a: p.x,
            b: 0,
            c: 0,
        })?;
    }
    distribution_sweep::<RangeReport>(events, cfg)
}

/// A rectangle activates in every slab it spans and recurses, clipped, into
/// the (at most two) it does not; a point reports against its slab's active
/// list and recurses.
struct RangeReport;

impl Sweep for RangeReport {
    type Event = Event;
    /// Active rectangles: `(rect id, y_top)`.
    type Slab = AppendBuffer<(u64, i64)>;

    fn order(e: &Event) -> (i64, u8) {
        (e.y, e.kind)
    }

    fn sample_xs(e: &Event, xs: &mut Vec<i64>) {
        xs.push(e.a);
        if e.kind == 0 {
            xs.push(e.b);
        }
    }

    fn visit(e: Event, level: &mut Level<Self>, down: &mut Down<Self>) -> Result<()> {
        if e.kind == 1 {
            let s = level.slab_of(e.a);
            report_live(&mut level.state[s], e.y, level.out, |r_id| (r_id, e.id))?;
            // The rectangle stubs clipped into this slab are matched below.
            return down.push(s, e);
        }
        for s in level.slab_of(e.a)..=level.slab_of(e.b) {
            match level.clip(s, e.a, e.b) {
                None => level.state[s].push((e.id, e.c))?,
                Some((a, b)) => down.push(s, Event { a, b, ..e })?,
            }
        }
        Ok(())
    }

    fn solve_in_memory(events: Vec<Event>, out: &mut Answers) -> Result<()> {
        use std::collections::BTreeMap;
        // Active rectangles keyed by (x1, id) → (x2, y2).
        let mut active: BTreeMap<(i64, u64), (i64, i64)> = BTreeMap::new();
        for e in events {
            if e.kind == 0 {
                active.insert((e.a, e.id), (e.b, e.c));
            } else {
                let mut dead = Vec::new();
                for (&(x1, r_id), &(x2, y2)) in active.range(..=(e.a, u64::MAX)) {
                    if y2 < e.y {
                        dead.push((x1, r_id));
                    } else if x2 >= e.a {
                        out.push((r_id, e.id))?;
                    }
                }
                for key in dead {
                    active.remove(&key);
                }
            }
        }
        Ok(())
    }
}

/// Baseline: block-nested-loop containment join — quadratic I/Os.
pub fn batched_range_reporting_naive(
    points: &ExtVec<Point>,
    rects: &ExtVec<Rect>,
) -> Result<ExtVec<(u64, u64)>> {
    let mut out: ExtVecWriter<(u64, u64)> = ExtVecWriter::new(points.device().clone());
    let mut rblock = Vec::new();
    for rb in 0..rects.num_blocks() {
        rects.read_block_into(rb, &mut rblock)?;
        let mut pr = points.reader();
        while let Some(p) = pr.try_next()? {
            for q in &rblock {
                if p.x >= q.x1 && p.x <= q.x2 && p.y >= q.y1 && p.y <= q.y2 {
                    out.push((q.id, p.id))?;
                }
            }
        }
    }
    out.finish()
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

    fn random_instance(
        d: &SharedDevice,
        np: u64,
        nq: u64,
        span: i64,
        seed: u64,
    ) -> (ExtVec<Point>, ExtVec<Rect>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<Point> = (0..np)
            .map(|id| Point {
                id,
                x: rng.gen_range(-span..span),
                y: rng.gen_range(-span..span),
            })
            .collect();
        let qs: Vec<Rect> = (0..nq)
            .map(|id| {
                let x = rng.gen_range(-span..span);
                let y = rng.gen_range(-span..span);
                let (w, h) = (rng.gen_range(0..span / 4), rng.gen_range(0..span / 4));
                Rect {
                    id,
                    x1: x,
                    x2: x + w,
                    y1: y,
                    y2: y + h,
                }
            })
            .collect();
        (
            ExtVec::from_slice(d.clone(), &pts).unwrap(),
            ExtVec::from_slice(d.clone(), &qs).unwrap(),
        )
    }

    fn as_sorted(v: ExtVec<(u64, u64)>) -> Vec<(u64, u64)> {
        let mut x = v.to_vec().unwrap();
        x.sort_unstable();
        x
    }

    #[test]
    fn record_round_trips() {
        let p = Point { id: 1, x: -5, y: 9 };
        let mut buf = [0u8; 24];
        p.write_to(&mut buf);
        assert_eq!(Point::read_from(&buf), p);
        let q = Rect {
            id: 2,
            x1: -1,
            x2: 1,
            y1: -2,
            y2: 2,
        };
        let mut buf = [0u8; 40];
        q.write_to(&mut buf);
        assert_eq!(Rect::read_from(&buf), q);
    }

    #[test]
    fn point_inside_and_outside() {
        let d = device();
        let pts = ExtVec::from_slice(
            d.clone(),
            &[Point { id: 10, x: 0, y: 0 }, Point { id: 11, x: 9, y: 9 }],
        )
        .unwrap();
        let qs = ExtVec::from_slice(
            d,
            &[Rect {
                id: 1,
                x1: -1,
                x2: 1,
                y1: -1,
                y2: 1,
            }],
        )
        .unwrap();
        let got = batched_range_reporting(&pts, &qs, &SortConfig::new(256)).unwrap();
        assert_eq!(got.to_vec().unwrap(), vec![(1, 10)]);
    }

    #[test]
    fn boundary_points_count() {
        let d = device();
        let pts = ExtVec::from_slice(
            d.clone(),
            &[
                Point { id: 0, x: -1, y: 0 }, // left edge
                Point { id: 1, x: 1, y: 0 },  // right edge
                Point { id: 2, x: 0, y: -1 }, // bottom edge
                Point { id: 3, x: 0, y: 1 },  // top edge
                Point { id: 4, x: 1, y: 1 },  // corner
            ],
        )
        .unwrap();
        let qs = ExtVec::from_slice(
            d,
            &[Rect {
                id: 9,
                x1: -1,
                x2: 1,
                y1: -1,
                y2: 1,
            }],
        )
        .unwrap();
        let got = as_sorted(batched_range_reporting(&pts, &qs, &SortConfig::new(256)).unwrap());
        assert_eq!(got, vec![(9, 0), (9, 1), (9, 2), (9, 3), (9, 4)]);
    }

    #[test]
    fn random_matches_naive() {
        let d = device();
        let (pts, qs) = random_instance(&d, 400, 300, 200, 141);
        let cfg = SortConfig::new(96); // force recursion
        let smart = as_sorted(batched_range_reporting(&pts, &qs, &cfg).unwrap());
        let naive = as_sorted(batched_range_reporting_naive(&pts, &qs).unwrap());
        assert_eq!(smart, naive);
        assert!(!naive.is_empty());
    }

    #[test]
    fn random_matches_naive_larger() {
        let d = device();
        let (pts, qs) = random_instance(&d, 1500, 800, 600, 143);
        let cfg = SortConfig::new(192);
        let smart = as_sorted(batched_range_reporting(&pts, &qs, &cfg).unwrap());
        let naive = as_sorted(batched_range_reporting_naive(&pts, &qs).unwrap());
        assert_eq!(smart, naive);
    }

    #[test]
    fn sweep_beats_naive_io() {
        let d = EmConfig::new(4096, 16).ram_disk();
        let (pts, qs) = random_instance(&d, 20_000, 10_000, 3_000_000, 147);
        let cfg = SortConfig::new(16_384);

        let before = d.stats().snapshot();
        let a = batched_range_reporting(&pts, &qs, &cfg).unwrap();
        let smart = d.stats().snapshot().since(&before).total();

        let before = d.stats().snapshot();
        let b = batched_range_reporting_naive(&pts, &qs).unwrap();
        let naive = d.stats().snapshot().since(&before).total();

        assert_eq!(as_sorted(a), as_sorted(b));
        // Quadratic-vs-linearithmic: the margin widens with N.
        assert!(
            smart * 3 < naive * 2,
            "sweep ({smart}) vs nested loops ({naive})"
        );
    }

    /// A rectangle with `x1 > x2` is the caller's mistake: a typed error,
    /// and the events already sorted into runs go with the sort.
    #[test]
    fn a_malformed_rectangle_is_a_typed_error_that_leaks_no_block() {
        let d = device();
        let (pts, qs) = random_instance(&d, 200, 600, 1_000, 17);
        let mut rects = qs.to_vec().unwrap();
        rects.push(Rect {
            id: 600,
            x1: 5,
            x2: 4,
            y1: 0,
            y2: 1,
        });
        let qs = ExtVec::from_slice(d.clone(), &rects).unwrap();
        let allocated = d.allocated_blocks();
        let got = batched_range_reporting(&pts, &qs, &SortConfig::new(64));
        assert!(matches!(got, Err(PdmError::InvalidRequest(_))));
        assert_eq!(
            d.allocated_blocks(),
            allocated,
            "the spilled runs are freed"
        );
    }

    #[test]
    fn empty_inputs() {
        let d = device();
        let pts: ExtVec<Point> = ExtVec::new(d.clone());
        let qs: ExtVec<Rect> = ExtVec::new(d);
        assert!(batched_range_reporting(&pts, &qs, &SortConfig::new(256))
            .unwrap()
            .is_empty());
    }
}
