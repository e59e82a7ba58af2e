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

use em_core::{AppendBuffer, ExtVec, ExtVecWriter, Record};
use emsort::{SortConfig, SortingWriter};
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
    /// is decided at this level, and push what is not into `level.down`.
    fn visit(e: Self::Event, level: &mut Level<Self>, out: &mut Answers) -> Result<()>;
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

/// One recursion level: the slabs `(-∞, p₀)`, `[p₀, p₁)`, …, `[pₖ, +∞)`,
/// each with its state and the writer collecting its sub-problem.
pub(crate) struct Level<P: Sweep> {
    pivots: Vec<i64>,
    /// State of slab `i`.
    pub(crate) state: Vec<P::Slab>,
    /// Events recursing into slab `i`.
    pub(crate) down: Vec<ExtVecWriter<P::Event>>,
}

impl<P: Sweep> Level<P> {
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

/// Sweep the pushed events; returns the answers in the order found.
pub(crate) fn distribution_sweep<P: Sweep>(
    events: EventSorter<P>,
    cfg: &SortConfig,
) -> Result<ExtVec<(u64, u64)>> {
    let events = events.finish_sorted()?;
    let mut out: Answers = ExtVecWriter::new(events.device().clone());
    sweep::<P>(events, cfg, &mut out, 0)?;
    out.finish()
}

/// Recursive distribution sweep over a `y`-sorted event array (consumed).
fn sweep<P: Sweep>(
    events: ExtVec<P::Event>,
    cfg: &SortConfig,
    out: &mut Answers,
    depth: u32,
) -> Result<()> {
    debug_assert!(depth < 64, "distribution sweep failed to make progress");
    let device = events.device().clone();
    let n = events.len() as usize;
    if n <= cfg.mem_records {
        P::solve_in_memory(events.to_vec()?, out)?;
        return events.free();
    }

    let m_blocks = (cfg.mem_records / events.per_block()).max(6);
    let k = ((m_blocks - 2) / (1 + P::Slab::BLOCKS)).clamp(2, 64);
    let pivots = sample_pivots::<P>(&events, k - 1)?;
    if pivots.is_empty() {
        // Every sampled x coincides, so no boundary separates the events
        // and the sub-problem can be neither split nor loaded.
        return Err(PdmError::MemoryExceeded {
            needed: n,
            available: cfg.mem_records,
        });
    }
    let nslabs = pivots.len() + 1;
    let mut level: Level<P> = Level {
        pivots,
        state: (0..nslabs).map(|_| P::Slab::new(&device)).collect(),
        down: (0..nslabs)
            .map(|_| ExtVecWriter::new(device.clone()))
            .collect(),
    };
    {
        let mut r = events.reader();
        while let Some(e) = r.try_next()? {
            P::visit(e, &mut level, out)?;
        }
    }
    events.free()?;
    // The slabs' states free their blocks before the recursion runs.
    drop(level.state);
    let subs = level
        .down
        .into_iter()
        .map(ExtVecWriter::finish)
        .collect::<Result<Vec<_>>>()?;
    for sub in subs {
        if !sub.is_empty() {
            sweep::<P>(sub, cfg, out, depth + 1)?;
        }
    }
    Ok(())
}

/// Up to `want` evenly-spaced distinct x pivots from a systematic sample
/// (every `⌈n/(8·want)⌉`-th event) taken in one scan.
fn sample_pivots<P: Sweep>(events: &ExtVec<P::Event>, want: usize) -> Result<Vec<i64>> {
    let stride = (events.len() as usize / (8 * want.max(1))).max(1);
    let mut xs: Vec<i64> = Vec::new();
    let mut r = events.reader();
    let mut i = 0usize;
    while let Some(e) = r.try_next()? {
        if i.is_multiple_of(stride) {
            P::sample_xs(&e, &mut xs);
        }
        i += 1;
    }
    xs.sort_unstable();
    xs.dedup();
    if xs.len() <= 1 {
        return Ok(Vec::new());
    }
    let mut pivots = Vec::with_capacity(want);
    for j in 1..=want {
        let cand = xs[(j * xs.len() / (want + 1)).min(xs.len() - 1)];
        if pivots.last() != Some(&cand) {
            pivots.push(cand);
        }
    }
    Ok(pivots)
}

#[cfg(test)]
mod tests {
    use crate::{
        batched_range_reporting, dominance_count, segment_intersections, HSeg, Point, Rect, VSeg,
    };
    use em_core::{EmConfig, ExtVec};
    use emsort::SortConfig;
    use pdm::PdmError;

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
