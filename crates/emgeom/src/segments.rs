//! Orthogonal segment intersection by distribution sweeping.
//!
//! The survey's canonical batched-geometry example: given horizontal and
//! vertical axis-parallel segments, report all intersecting pairs in
//! `O(Sort(N) + Z/B)` I/Os.
//!
//! The plane is recursively partitioned into `Θ(M/B)` vertical slabs; all
//! events are processed in increasing-`y` order.  A vertical segment becomes
//! *active* in its slab when the sweep passes its lower endpoint.  A
//! horizontal segment is matched, at the highest recursion level possible,
//! against the active lists of every slab it spans *completely*; its two
//! clipped end pieces recurse.  The key amortization: when a horizontal
//! spans a slab completely, every live vertical in that slab's active list
//! *must* intersect it — so each scan step either reports an answer or
//! permanently deletes a dead (passed) vertical.

use em_core::{AppendBuffer, ExtVec, ExtVecWriter, Record};
use emsort::SortConfig;
use pdm::{PdmError, Result};

use crate::sweep::{distribution_sweep, event_sorter, report_live, Answers, Down, Level, Sweep};

/// A horizontal segment `[x1, x2] × {y}` (inclusive endpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HSeg {
    /// Caller-chosen identifier, reported in answers.
    pub id: u64,
    /// The segment's y coordinate.
    pub y: i64,
    /// Left x (must be ≤ `x2`).
    pub x1: i64,
    /// Right x.
    pub x2: i64,
}

/// A vertical segment `{x} × [y1, y2]` (inclusive endpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VSeg {
    /// Caller-chosen identifier, reported in answers.
    pub id: u64,
    /// The segment's x coordinate.
    pub x: i64,
    /// Lower y (must be ≤ `y2`).
    pub y1: i64,
    /// Upper y.
    pub y2: i64,
}

impl Record for HSeg {
    const BYTES: usize = <(u64, i64, i64, i64)>::BYTES;
    fn write_to(&self, buf: &mut [u8]) {
        (self.id, self.y, self.x1, self.x2).write_to(buf);
    }
    fn read_from(buf: &[u8]) -> Self {
        let (id, y, x1, x2) = Record::read_from(buf);
        HSeg { id, y, x1, x2 }
    }
}

impl Record for VSeg {
    const BYTES: usize = <(u64, i64, i64, i64)>::BYTES;
    fn write_to(&self, buf: &mut [u8]) {
        (self.id, self.x, self.y1, self.y2).write_to(buf);
    }
    fn read_from(buf: &[u8]) -> Self {
        let (id, x, y1, y2) = Record::read_from(buf);
        VSeg { id, x, y1, y2 }
    }
}

/// Sweep event: vertical insertion or horizontal query, ordered by
/// `(y, kind)` with verticals (kind 0) before horizontals (kind 1) at equal
/// `y`, so that a vertical starting exactly at a horizontal's height counts
/// as intersecting.
#[derive(Debug, Clone, Copy)]
struct Event {
    y: i64,
    kind: u8, // 0 = vertical, 1 = horizontal
    id: u64,
    a: i64, // vertical: x        horizontal: x1
    b: i64, // vertical: y_top    horizontal: x2
}

impl Record for Event {
    const BYTES: usize = <(i64, u8, u64, i64, i64)>::BYTES;
    fn write_to(&self, buf: &mut [u8]) {
        (self.y, self.kind, self.id, self.a, self.b).write_to(buf);
    }
    fn read_from(buf: &[u8]) -> Self {
        let (y, kind, id, a, b) = Record::read_from(buf);
        Event { y, kind, id, a, b }
    }
}

/// Report every intersecting (horizontal id, vertical id) pair.
///
/// `O(Sort(N) + Z/B)` I/Os; output order is unspecified.  A segment with
/// `x1 > x2` or `y1 > y2` is [`PdmError::InvalidRequest`].
pub fn segment_intersections(
    hs: &ExtVec<HSeg>,
    vs: &ExtVec<VSeg>,
    cfg: &SortConfig,
) -> Result<ExtVec<(u64, u64)>> {
    let mut events = event_sorter::<Segments>(hs.device().clone(), cfg);
    let mut r = vs.reader();
    while let Some(v) = r.try_next()? {
        if v.y1 > v.y2 {
            return Err(PdmError::InvalidRequest(format!(
                "vertical segment {} has y1 {} > y2 {}",
                v.id, v.y1, v.y2
            )));
        }
        events.push(Event {
            y: v.y1,
            kind: 0,
            id: v.id,
            a: v.x,
            b: v.y2,
        })?;
    }
    let mut r = hs.reader();
    while let Some(h) = r.try_next()? {
        if h.x1 > h.x2 {
            return Err(PdmError::InvalidRequest(format!(
                "horizontal segment {} has x1 {} > x2 {}",
                h.id, h.x1, h.x2
            )));
        }
        events.push(Event {
            y: h.y,
            kind: 1,
            id: h.id,
            a: h.x1,
            b: h.x2,
        })?;
    }
    distribution_sweep::<Segments>(events, cfg)
}

/// Verticals activate in their slab; a horizontal reports against every
/// slab it spans and recurses, clipped, into the (at most two) it does not.
struct Segments;

impl Sweep for Segments {
    type Event = Event;
    /// Active verticals: `(vertical id, y_top)`.
    type Slab = AppendBuffer<(u64, i64)>;

    fn order(e: &Event) -> (i64, u8) {
        (e.y, e.kind)
    }

    fn sample_xs(e: &Event, xs: &mut Vec<i64>) {
        xs.push(e.a);
        if e.kind == 1 {
            xs.push(e.b);
        }
    }

    fn visit(e: Event, level: &mut Level<Self>, down: &mut Down<Self>) -> Result<()> {
        if e.kind == 0 {
            let s = level.slab_of(e.a);
            level.state[s].push((e.id, e.b))?;
            return down.push(s, e);
        }
        for s in level.slab_of(e.a)..=level.slab_of(e.b) {
            match level.clip(s, e.a, e.b) {
                // Spanned completely: every live vertical here intersects.
                None => report_live(&mut level.state[s], e.y, level.out, |v_id| (e.id, v_id))?,
                Some((a, b)) => down.push(s, Event { a, b, ..e })?,
            }
        }
        Ok(())
    }

    /// Classic plane sweep with a balanced tree.
    fn solve_in_memory(events: Vec<Event>, out: &mut Answers) -> Result<()> {
        use std::collections::BTreeMap;
        // Active verticals keyed by (x, id) → y_top.
        let mut active: BTreeMap<(i64, u64), i64> = BTreeMap::new();
        for e in events {
            if e.kind == 0 {
                active.insert((e.a, e.id), e.b);
            } else {
                let mut dead = Vec::new();
                for (&(x, v_id), &y_top) in active.range((e.a, 0)..=(e.b, u64::MAX)) {
                    if y_top >= e.y {
                        out.push((e.id, v_id))?;
                    } else {
                        dead.push((x, v_id));
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

/// Baseline: block-nested-loop join of the two segment sets —
/// `O((H/B)·(V/B)·B)` I/Os, quadratic in the input.
pub fn segment_intersections_naive(
    hs: &ExtVec<HSeg>,
    vs: &ExtVec<VSeg>,
) -> Result<ExtVec<(u64, u64)>> {
    let mut out: ExtVecWriter<(u64, u64)> = ExtVecWriter::new(hs.device().clone());
    let mut hblock = Vec::new();
    for hb in 0..hs.num_blocks() {
        hs.read_block_into(hb, &mut hblock)?;
        let mut r = vs.reader();
        while let Some(v) = r.try_next()? {
            for h in &hblock {
                if v.x >= h.x1 && v.x <= h.x2 && h.y >= v.y1 && h.y <= v.y2 {
                    out.push((h.id, v.id))?;
                }
            }
        }
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::hash::Draws;
    use em_core::EmConfig;
    use pdm::SharedDevice;

    fn device() -> SharedDevice {
        EmConfig::new(256, 16).ram_disk()
    }

    fn random_instance(
        d: &SharedDevice,
        nh: u64,
        nv: u64,
        span: i64,
        seed: u64,
    ) -> (ExtVec<HSeg>, ExtVec<VSeg>) {
        let mut rng = Draws::new(seed);
        let hs: Vec<HSeg> = (0..nh)
            .map(|id| {
                let x = -span + rng.below(2 * span as u64) as i64;
                let len = rng.below((span / 2) as u64) as i64;
                HSeg {
                    id,
                    y: -span + rng.below(2 * span as u64) as i64,
                    x1: x,
                    x2: x + len,
                }
            })
            .collect();
        let vs: Vec<VSeg> = (0..nv)
            .map(|id| {
                let y = -span + rng.below(2 * span as u64) as i64;
                let len = rng.below((span / 2) as u64) as i64;
                VSeg {
                    id,
                    x: -span + rng.below(2 * span as u64) as i64,
                    y1: y,
                    y2: y + len,
                }
            })
            .collect();
        (
            ExtVec::from_slice(d.clone(), &hs).unwrap(),
            ExtVec::from_slice(d.clone(), &vs).unwrap(),
        )
    }

    fn as_sorted(v: ExtVec<(u64, u64)>) -> Vec<(u64, u64)> {
        let mut x = v.to_vec().unwrap();
        x.sort_unstable();
        x
    }

    #[test]
    fn record_round_trips() {
        let h = HSeg {
            id: 7,
            y: -3,
            x1: -10,
            x2: 10,
        };
        let mut buf = [0u8; 32];
        h.write_to(&mut buf);
        assert_eq!(HSeg::read_from(&buf), h);
        let v = VSeg {
            id: 9,
            x: 5,
            y1: -2,
            y2: 2,
        };
        v.write_to(&mut buf);
        assert_eq!(VSeg::read_from(&buf), v);
    }

    #[test]
    fn simple_cross() {
        let d = device();
        let hs = ExtVec::from_slice(
            d.clone(),
            &[HSeg {
                id: 1,
                y: 0,
                x1: -5,
                x2: 5,
            }],
        )
        .unwrap();
        let vs = ExtVec::from_slice(
            d,
            &[VSeg {
                id: 2,
                x: 0,
                y1: -5,
                y2: 5,
            }],
        )
        .unwrap();
        let got = segment_intersections(&hs, &vs, &SortConfig::new(256)).unwrap();
        assert_eq!(got.to_vec().unwrap(), vec![(1, 2)]);
    }

    #[test]
    fn touching_endpoints_count() {
        let d = device();
        // Vertical starts exactly on the horizontal; horizontal ends exactly
        // on the vertical's x.
        let hs = ExtVec::from_slice(
            d.clone(),
            &[HSeg {
                id: 1,
                y: 0,
                x1: 0,
                x2: 4,
            }],
        )
        .unwrap();
        let vs = ExtVec::from_slice(
            d,
            &[
                VSeg {
                    id: 2,
                    x: 4,
                    y1: 0,
                    y2: 9,
                },
                VSeg {
                    id: 3,
                    x: 0,
                    y1: -9,
                    y2: 0,
                },
            ],
        )
        .unwrap();
        let got = as_sorted(segment_intersections(&hs, &vs, &SortConfig::new(256)).unwrap());
        assert_eq!(got, vec![(1, 2), (1, 3)]);
    }

    #[test]
    fn disjoint_segments_report_nothing() {
        let d = device();
        let hs = ExtVec::from_slice(
            d.clone(),
            &[HSeg {
                id: 1,
                y: 0,
                x1: 0,
                x2: 1,
            }],
        )
        .unwrap();
        let vs = ExtVec::from_slice(
            d,
            &[VSeg {
                id: 2,
                x: 5,
                y1: 5,
                y2: 6,
            }],
        )
        .unwrap();
        let got = segment_intersections(&hs, &vs, &SortConfig::new(256)).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn random_matches_naive_small() {
        let d = device();
        let (hs, vs) = random_instance(&d, 150, 150, 100, 131);
        let cfg = SortConfig::new(64); // force recursion
        let smart = as_sorted(segment_intersections(&hs, &vs, &cfg).unwrap());
        let naive = as_sorted(segment_intersections_naive(&hs, &vs).unwrap());
        assert_eq!(smart, naive);
        assert!(!naive.is_empty(), "instance should have intersections");
    }

    #[test]
    fn random_matches_naive_larger() {
        let d = device();
        let (hs, vs) = random_instance(&d, 800, 800, 400, 133);
        let cfg = SortConfig::new(128);
        let smart = as_sorted(segment_intersections(&hs, &vs, &cfg).unwrap());
        let naive = as_sorted(segment_intersections_naive(&hs, &vs).unwrap());
        assert_eq!(smart, naive);
    }

    #[test]
    fn grid_instance_every_pair_intersects() {
        let d = device();
        let k = 20u64;
        let hs: Vec<HSeg> = (0..k)
            .map(|i| HSeg {
                id: i,
                y: i as i64,
                x1: -100,
                x2: 100,
            })
            .collect();
        let vs: Vec<VSeg> = (0..k)
            .map(|i| VSeg {
                id: i,
                x: i as i64,
                y1: -100,
                y2: 100,
            })
            .collect();
        let hv = ExtVec::from_slice(d.clone(), &hs).unwrap();
        let vv = ExtVec::from_slice(d, &vs).unwrap();
        let got = segment_intersections(&hv, &vv, &SortConfig::new(64)).unwrap();
        assert_eq!(got.len(), k * k, "grid must produce k² intersections");
    }

    #[test]
    fn sweep_beats_naive_io_on_sparse_instance() {
        let d = EmConfig::new(4096, 16).ram_disk();
        // Sparse: few intersections, so Z/B is negligible.
        let (hs, vs) = random_instance(&d, 20_000, 20_000, 2_000_000, 137);
        let cfg = SortConfig::new(16_384);

        let before = d.stats().snapshot();
        let a = segment_intersections(&hs, &vs, &cfg).unwrap();
        let smart = d.stats().snapshot().since(&before).total();

        let before = d.stats().snapshot();
        let b = segment_intersections_naive(&hs, &vs).unwrap();
        let naive = d.stats().snapshot().since(&before).total();

        assert_eq!(as_sorted(a), as_sorted(b));
        // The gap is quadratic-vs-linearithmic, so it widens with N; at
        // this size a 1.5× margin is already decisive and robust.
        assert!(
            smart * 3 < naive * 2,
            "sweep ({smart}) should be below nested loops ({naive})"
        );
    }

    /// Segment intersection over `hs` and `vs` must be `InvalidRequest`
    /// and free every event run it had spilled.
    fn rejects_without_leaking(d: &SharedDevice, hs: &[HSeg], vs: &[VSeg]) {
        let hv = ExtVec::from_slice(d.clone(), hs).unwrap();
        let vv = ExtVec::from_slice(d.clone(), vs).unwrap();
        let allocated = d.allocated_blocks();
        let got = segment_intersections(&hv, &vv, &SortConfig::new(64));
        assert!(matches!(got, Err(PdmError::InvalidRequest(_))));
        assert_eq!(
            d.allocated_blocks(),
            allocated,
            "the spilled runs are freed"
        );
    }

    #[test]
    fn a_vertical_segment_upside_down_is_a_typed_error_that_leaks_no_block() {
        let d = device();
        let (hs, vs) = random_instance(&d, 300, 300, 1_000, 23);
        let mut vs = vs.to_vec().unwrap();
        vs.push(VSeg {
            id: 300,
            x: 0,
            y1: 2,
            y2: 1,
        });
        rejects_without_leaking(&d, &hs.to_vec().unwrap(), &vs);
    }

    #[test]
    fn a_horizontal_segment_right_to_left_is_a_typed_error_that_leaks_no_block() {
        let d = device();
        let (hs, vs) = random_instance(&d, 300, 300, 1_000, 29);
        let mut hs = hs.to_vec().unwrap();
        hs.push(HSeg {
            id: 300,
            y: 0,
            x1: 2,
            x2: 1,
        });
        rejects_without_leaking(&d, &hs, &vs.to_vec().unwrap());
    }

    #[test]
    fn empty_inputs() {
        let d = device();
        let hs: ExtVec<HSeg> = ExtVec::new(d.clone());
        let vs: ExtVec<VSeg> = ExtVec::new(d);
        let got = segment_intersections(&hs, &vs, &SortConfig::new(256)).unwrap();
        assert!(got.is_empty());
    }
}
