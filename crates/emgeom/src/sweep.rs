//! Distribution sweeping, written once for its three users.
//!
//! The driver owns everything the technique itself prescribes: sort the
//! events by `(y, kind)`; if they fit in memory, solve directly; otherwise
//! sample `Θ(M/B)` slab boundaries, sweep the events once in `y` order —
//! each event acts on the slabs it meets and is handed down, whole or
//! clipped, into the slabs it does not span — then recurse into every slab.
//! A problem ([`Sweep`]) supplies only its event record, what a slab
//! remembers ([`SlabState`]), what an event does at a [`Level`], and its
//! in-memory base case.
//! A level's slab boundaries come from the one sampler,
//! [`sample_pivots`], over the events' [`Sweep::sample_xs`]; the level is
//! one [`PartitionPass`], a writer per slab, whose route closure owns the
//! [`Level`]; the sweep runs in one [`operator_budget`], which also pays
//! for the sample.

use std::sync::Arc;

use em_core::{AppendBuffer, BudgetGuard, ExtVec, ExtVecWriter, MemBudget, Record};
use emsort::{operator_budget, sample_pivots, PartitionPass, SortConfig, SortingWriter};
use pdm::{PdmError, Result, SharedDevice};

/// Where every sweep reports: `(id, id)` or `(id, count)` pairs.
pub(crate) type Answers = ExtVecWriter<(u64, u64)>;

/// The fused prologue: events are pushed straight into their `(y, kind)`
/// sort, never written unsorted first.
pub(crate) type EventSorter<P> =
    SortingWriter<<P as Sweep>::Event, fn(&<P as Sweep>::Event, &<P as Sweep>::Event) -> bool>;

/// One batched problem solved by distribution sweeping.
pub(crate) trait Sweep: Sized {
    /// A sweep event; objects with extent in `x` are clipped as they descend.
    type Event: Record + Copy;
    /// What each slab remembers about the events swept so far.
    type Slab: SlabState;

    /// Sweep order: `y`, then kind, so that boundary contacts count.
    fn order(e: &Self::Event) -> (i64, u8);
    /// Append the x coordinates of `e` that may serve as slab boundaries.
    fn sample_xs(e: &Self::Event, xs: &mut Vec<i64>);
    /// Apply `e` to the slabs of `level`: update their state, report what
    /// is decided at this level, and push what is not into `down`, by slab.
    fn visit(e: Self::Event, level: &mut Level<Self>, down: &mut Down<Self>) -> Result<()>;
    /// Solve a `y`-sorted sub-problem of at most `M` events directly.
    fn solve_in_memory(events: Vec<Self::Event>, out: &mut Answers) -> Result<()>;
}

/// Per-slab sweep state.  Beside its down-writer's block, a slab keeps
/// `BLOCKS` more resident, which fixes the fan-out `M/B` allows.
pub(crate) trait SlabState: Sized {
    /// Memory blocks one slab's state holds.
    const BLOCKS: usize;
    /// The state before any event.
    fn new(device: &SharedDevice) -> Self;
}

/// An active list: one tail block per slab, so fan-out `(m − 2) / 2`.
impl<R: Record> SlabState for AppendBuffer<R> {
    const BLOCKS: usize = 1;
    fn new(device: &SharedDevice) -> Self {
        AppendBuffer::new(device.clone())
    }
}

/// A counter: nothing on the device, so fan-out `m − 2`.
impl SlabState for u64 {
    const BLOCKS: usize = 0;
    fn new(_: &SharedDevice) -> Self {
        0
    }
}

/// A level's pass: the writers collecting each slab's sub-problem.
pub(crate) type Down<P> = PartitionPass<<P as Sweep>::Event>;

/// One recursion level: the slabs `(-∞, p₀)`, `[p₀, p₁)`, …, `[pₖ, +∞)`,
/// each with its state, and where the level reports.
pub(crate) struct Level<'a, P: Sweep> {
    pivots: Vec<i64>,
    /// State of slab `i`.
    pub(crate) state: Vec<P::Slab>,
    pub(crate) out: &'a mut Answers,
    /// The states' `F·BLOCKS·B` records, charged while they live.
    _charge: BudgetGuard,
}

impl<P: Sweep> Level<'_, P> {
    /// The slab containing `x`.
    pub(crate) fn slab_of(&self, x: i64) -> usize {
        self.pivots.partition_point(|&p| p <= x)
    }

    /// How `[x1, x2]` meets slab `s`, one of `slab_of(x1)..=slab_of(x2)`:
    /// `None` if it spans the slab completely, else the part inside it.
    pub(crate) fn clip(&self, s: usize, x1: i64, x2: i64) -> Option<(i64, i64)> {
        let lo = if s == 0 { i64::MIN } else { self.pivots[s - 1] };
        let hi = self.pivots.get(s).map_or(i64::MAX, |&p| p - 1);
        if x1 <= lo && hi <= x2 {
            return None;
        }
        debug_assert!(x1.max(lo) <= x2.min(hi), "interval misses the slab");
        Some((x1.max(lo), x2.min(hi)))
    }
}

/// The report-or-die scan of an active list of `(id, y_top)` at sweep height
/// `y`: an entry still reaching `y` is an answer (`pair(id)`) and stays, the
/// others lie below the sweep line for good and are dropped — so every
/// scanned record is paid for by an answer or by its own deletion.
pub(crate) fn report_live(
    active: &mut AppendBuffer<(u64, i64)>,
    y: i64,
    out: &mut Answers,
    pair: impl Fn(u64) -> (u64, u64),
) -> Result<()> {
    let mut push_err = None;
    active.retain(|&(id, y_top)| {
        if y_top < y {
            return false;
        }
        if push_err.is_none() {
            push_err = out.push(pair(id)).err();
        }
        true
    })?;
    push_err.map_or(Ok(()), Err)
}

/// A sink for `P`'s events that sorts them into sweep order.
pub(crate) fn event_sorter<P: Sweep>(device: SharedDevice, cfg: &SortConfig) -> EventSorter<P> {
    SortingWriter::new(device, cfg, |a, b| P::order(a) < P::order(b))
}

/// Sweep the pushed events; returns the answers in the order found, or
/// [`check_fan_out`](emsort::check_fan_out)'s error if `M` holds no level.
pub(crate) fn distribution_sweep<P: Sweep>(
    events: EventSorter<P>,
    cfg: &SortConfig,
) -> Result<ExtVec<(u64, u64)>> {
    let events = events.finish_sorted()?;
    let (device, b, m) = (events.device().clone(), events.per_block(), cfg.mem_records);
    let budget = operator_budget(&device, slabs::<P>(b, m), b, m, cfg.overlap)?;
    let mut out: Answers = ExtVecWriter::new(device);
    sweep::<P>(events, cfg, &budget, &mut out, 0)?;
    out.finish()
}

/// The slabs a level may open: each holds its writer's block and `BLOCKS`
/// more, and the reader and the answers take a block each — at most 64.
fn slabs<P: Sweep>(b: usize, m: usize) -> usize {
    ((m / b).saturating_sub(2) / (1 + P::Slab::BLOCKS)).min(64)
}

/// Recursive distribution sweep over a `y`-sorted event array (consumed).
fn sweep<P: Sweep>(
    events: ExtVec<P::Event>,
    cfg: &SortConfig,
    budget: &Arc<MemBudget>,
    out: &mut Answers,
    depth: usize,
) -> Result<()> {
    debug_assert!(depth < 64, "distribution sweep failed to make progress");
    let device = events.device().clone();
    let n = events.len() as usize;
    if n <= cfg.mem_records {
        let _charge = budget.charge(n);
        P::solve_in_memory(events.to_vec()?, out)?;
        return events.free();
    }

    let b = events.per_block();
    let want = slabs::<P>(b, cfg.mem_records) - 1;
    let sample_xs = |xs: &mut Vec<i64>, e| P::sample_xs(&e, xs);
    let (pivots, distinct) = sample_pivots(&events, want, depth, cfg, budget, sample_xs, i64::lt)?;
    if distinct < 2 {
        // Every sampled x coincides, so no half-open slab boundary
        // separates the events and the sub-problem can be neither split
        // nor loaded.
        return Err(PdmError::MemoryExceeded {
            needed: n,
            available: cfg.mem_records,
        });
    }
    let nslabs = pivots.len() + 1;
    let mut level: Level<P> = Level {
        pivots,
        state: (0..nslabs).map(|_| P::Slab::new(&device)).collect(),
        out: &mut *out,
        _charge: budget.charge(nslabs * P::Slab::BLOCKS * b),
    };
    let route = move |down: &mut Down<P>, e| P::visit(e, &mut level, down);
    let subs = PartitionPass::spill_array(&events, nslabs, depth, cfg.overlap, budget, route)?;
    events.free()?;
    for sub in subs {
        if !sub.is_empty() {
            sweep::<P>(sub, cfg, budget, out, depth + 1)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{batched_range_reporting, dominance_count, segment_intersections};
    use crate::{HSeg, Point, Rect, VSeg};
    use em_core::EmConfig;
    use emsort::OverlapConfig;
    use pdm::{DiskArray, IoMode, Placement};
    use rand::prelude::*;

    /// Events `(y, x)` whose slabs keep a one-block active list each.
    struct Stripes;

    impl Sweep for Stripes {
        type Event = (i64, i64);
        type Slab = AppendBuffer<(u64, i64)>;
        fn order(e: &(i64, i64)) -> (i64, u8) {
            (e.0, 0)
        }
        fn sample_xs(e: &(i64, i64), xs: &mut Vec<i64>) {
            xs.push(e.1);
        }
        fn visit(e: (i64, i64), level: &mut Level<Self>, down: &mut Down<Self>) -> Result<()> {
            let s = level.slab_of(e.1);
            level.state[s].push((0, e.0))?;
            down.push(s, e)
        }
        fn solve_in_memory(_: Vec<(i64, i64)>, _: &mut Answers) -> Result<()> {
            Ok(())
        }
    }

    /// The sweep lives inside its budget: its high water holds at least
    /// the top level's pass, `(F+1)·B`, and its slab states, `F·B`, and
    /// never passes the capacity.
    #[test]
    fn a_sweep_stays_inside_its_budget() {
        let d = EmConfig::new(256, 16).ram_disk();
        let cfg = SortConfig::new(256).with_overlap(OverlapConfig::symmetric(2));
        let events: Vec<(i64, i64)> = (0..3000).map(|i| (i, (i * 7919) % 1000)).collect();
        let events = ExtVec::from_slice(d.clone(), &events).unwrap();
        let (b, m) = (events.per_block(), cfg.mem_records);
        let k = slabs::<Stripes>(b, m);
        let budget = operator_budget(&d, k, b, m, cfg.overlap).unwrap();
        let mut out = ExtVecWriter::new(d.clone());
        sweep::<Stripes>(events, &cfg, &budget, &mut out, 0).unwrap();
        assert!(
            budget.high_water() >= (2 * k + 1) * b,
            "{}",
            budget.high_water()
        );
        assert!(budget.high_water() <= budget.capacity());
    }

    /// `M` too small for two slabs is the pass's fan-out error, and the
    /// sorted events are freed.
    #[test]
    fn memory_for_under_two_slabs_is_a_typed_error() {
        let d = EmConfig::new(256, 16).ram_disk();
        let cfg = SortConfig::new(21); // three blocks of every sweep's events
        let pts: Vec<Point> = (0..100)
            .map(|id| Point {
                id,
                x: id as i64,
                y: 0,
            })
            .collect();
        let pts = ExtVec::from_slice(d.clone(), &pts).unwrap();
        let held = d.allocated_blocks();
        let got = dominance_count(&pts, &pts, &cfg).map(|v| v.len());
        assert!(matches!(got, Err(PdmError::InvalidRequest(_))), "{got:?}");
        assert_eq!(d.allocated_blocks(), held);
    }

    /// On two independent lanes the sweep reads ahead and writes behind,
    /// and that changes no answer and no transfer, on any lane.
    #[test]
    fn overlap_on_two_lanes_moves_no_transfer() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut seg = || {
            let (x, y, len) = (rng.gen_range(0..500i64), rng.gen_range(0..500i64), 40);
            (x, y, len)
        };
        let hs: Vec<HSeg> = (0..600)
            .map(|id| {
                let (x, y, len) = seg();
                HSeg {
                    id,
                    y,
                    x1: x,
                    x2: x + len,
                }
            })
            .collect();
        let vs: Vec<VSeg> = (0..600)
            .map(|id| {
                let (x, y, len) = seg();
                VSeg {
                    id,
                    x,
                    y1: y,
                    y2: y + len,
                }
            })
            .collect();
        let pts: Vec<Point> = (0..1200)
            .map(|id| {
                let (x, y, _) = seg();
                Point { id, x, y }
            })
            .collect();
        let run = |overlap: OverlapConfig| {
            let placement = Placement::Independent;
            let d: SharedDevice = DiskArray::new_ram_with(2, 256, placement, IoMode::Overlapped);
            let cfg = SortConfig::new(128).with_overlap(overlap);
            let hs = ExtVec::from_slice(d.clone(), &hs).unwrap();
            let vs = ExtVec::from_slice(d.clone(), &vs).unwrap();
            let pts = ExtVec::from_slice(d.clone(), &pts).unwrap();
            let before = d.stats().snapshot();
            let crossings = segment_intersections(&hs, &vs, &cfg).unwrap();
            let counts = dominance_count(&pts, &pts, &cfg).unwrap();
            let io = d.stats().snapshot().since(&before);
            let lanes: Vec<(u64, u64)> =
                (0..2).map(|l| (io.reads_on(l), io.writes_on(l))).collect();
            let mut crossings = crossings.to_vec().unwrap();
            crossings.sort_unstable();
            (crossings, counts.to_vec().unwrap(), lanes)
        };
        let sync = run(OverlapConfig::off());
        assert!(!sync.0.is_empty());
        assert_eq!(sync, run(OverlapConfig::symmetric(2)));
    }

    #[test]
    fn unsplittable_subproblem_is_a_typed_error_and_frees_its_blocks() {
        // Every event on x = 0: no pivot separates them, and at N = 4·M
        // they cannot be loaded either.
        const M: usize = 128;
        let d = EmConfig::new(256, 16).ram_disk();
        let cfg = SortConfig::new(M);
        let ids = 0..2 * M as u64;
        let (x, x1, x2, y1, y2) = (0, 0, 0, 0, 2 * M as i64);
        let pts: Vec<Point> = ids
            .clone()
            .map(|id| Point {
                id,
                x,
                y: id as i64,
            })
            .collect();
        let hs: Vec<HSeg> = ids
            .clone()
            .map(|id| HSeg {
                id,
                y: id as i64,
                x1,
                x2,
            })
            .collect();
        let vs: Vec<VSeg> = ids.clone().map(|id| VSeg { id, x, y1, y2 }).collect();
        let rects: Vec<Rect> = ids.map(|id| Rect { id, x1, x2, y1, y2 }).collect();
        let pts = ExtVec::from_slice(d.clone(), &pts).unwrap();
        let hs = ExtVec::from_slice(d.clone(), &hs).unwrap();
        let vs = ExtVec::from_slice(d.clone(), &vs).unwrap();
        let rects = ExtVec::from_slice(d.clone(), &rects).unwrap();

        let held = d.allocated_blocks();
        for result in [
            segment_intersections(&hs, &vs, &cfg),
            batched_range_reporting(&pts, &rects, &cfg),
            dominance_count(&pts, &pts, &cfg),
        ] {
            match result {
                Err(PdmError::MemoryExceeded { needed, available }) => {
                    assert_eq!((needed, available), (4 * M, M));
                }
                other => panic!("expected MemoryExceeded, got {:?}", other.map(|v| v.len())),
            }
        }
        assert_eq!(d.allocated_blocks(), held, "a failed sweep leaked blocks");
    }
}
