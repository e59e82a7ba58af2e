//! External priority queue.
//!
//! A merge-based design (the shape used by STXXL and Sanders' sequence
//! heap, and equivalent in bound to the survey's buffer-tree priority
//! queue): a bounded in-memory *insertion heap* plus external sorted runs.
//!
//! * `push`: into the insertion heap; when full, the heap is sorted and
//!   spilled as a new run (`O(1/B)` amortized).
//! * `pop`: minimum of the insertion heap and all run fronts; each run keeps
//!   one buffered block in memory.
//! * When the number of runs reaches the fan-in limit `Θ(M/B)`, all runs are
//!   merged into one (from their current positions), multiplying run length
//!   by the fan-in — so each record is rewritten `O(log_{M/B}(N/B))` times.
//!
//! Total: `O((1/B)·log_{M/B}(N/B))` amortized I/Os per operation, i.e.
//! `O(Sort(N))` for `N` pushes + `N` pops (experiment F7).  This is the
//! engine behind time-forward processing in `emgraph`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use em_core::{ExtVec, ExtVecCursor, ExtVecWriter, MemBudget, Record};
use emsort::{merge_runs_streaming, SortConfig};
use pdm::{PdmError, Result, SharedDevice};

/// An unbounded external min-priority queue over `Ord` records.
///
/// ```
/// use em_core::EmConfig;
/// use emtree::ExtPriorityQueue;
///
/// let cfg = EmConfig::new(512, 16);
/// let mut pq: ExtPriorityQueue<u64> = ExtPriorityQueue::new(cfg.ram_disk(), 512)?;
/// for x in [9u64, 1, 5] {
///     pq.push(x)?;
/// }
/// assert_eq!(pq.pop()?, Some(1));
/// assert_eq!(pq.peek()?, Some(5));
/// # Ok::<(), pdm::PdmError>(())
/// ```
pub struct ExtPriorityQueue<R: Record + Ord> {
    device: SharedDevice,
    budget: Arc<MemBudget>,
    /// In-memory insertion heap, capacity `M/2`.
    insertion: BinaryHeap<Reverse<R>>,
    insertion_cap: usize,
    /// External sorted runs, each read a block at a time on demand.
    runs: Vec<ExtVecCursor<R>>,
    /// Maximum live runs before a full merge: `M/(2B) − 1`.
    max_runs: usize,
    len: u64,
}

impl<R: Record + Ord> ExtPriorityQueue<R> {
    /// Create a priority queue with an internal-memory budget of
    /// `mem_records` records.  Budgets below the queue's working minimum of
    /// 8 blocks' worth of records are raised to that floor (callers no
    /// longer need to hand-roll `mem_records.max(8 * per_block)`).
    ///
    /// Fails with [`PdmError::RecordTooLarge`] if one record does not fit in
    /// a device block.
    pub fn new(device: SharedDevice, mem_records: usize) -> Result<Self> {
        if R::BYTES > device.block_size() {
            return Err(PdmError::RecordTooLarge {
                record: R::BYTES,
                block: device.block_size(),
            });
        }
        let per_block = (device.block_size() / R::BYTES).max(1);
        let mem_records = mem_records.max(8 * per_block);
        let insertion_cap = mem_records / 2;
        let max_runs = (mem_records / (2 * per_block)).saturating_sub(1).max(2);
        Ok(ExtPriorityQueue {
            device,
            budget: MemBudget::new(mem_records),
            insertion: BinaryHeap::with_capacity(insertion_cap),
            insertion_cap,
            runs: Vec::new(),
            max_runs,
            len: 0,
        })
    }

    /// Number of queued records.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if no records are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a record.
    pub fn push(&mut self, r: R) -> Result<()> {
        if self.insertion.len() == self.insertion_cap {
            self.spill_insertion_heap()?;
        }
        self.insertion.push(Reverse(r));
        self.len += 1;
        Ok(())
    }

    /// Remove and return the minimum record.
    pub fn pop(&mut self) -> Result<Option<R>> {
        let source = self.min_source()?;
        let r = match source {
            None => None,
            Some(MinSource::Insertion) => self.insertion.pop().map(|Reverse(r)| r),
            Some(MinSource::Run(i)) => {
                let run = &mut self.runs[i];
                let r = run.try_next()?;
                if run.remaining() == 0 {
                    self.runs.swap_remove(i).into_inner().free()?;
                }
                r
            }
        };
        if r.is_some() {
            self.len -= 1;
        }
        Ok(r)
    }

    /// Return (without removing) the minimum record.
    pub fn peek(&mut self) -> Result<Option<R>> {
        Ok(match self.min_source()? {
            None => None,
            Some(MinSource::Insertion) => self.insertion.peek().map(|Reverse(r)| r.clone()),
            Some(MinSource::Run(i)) => self.runs[i].buffered_at_least(1)?.first().cloned(),
        })
    }

    fn min_source(&mut self) -> Result<Option<MinSource>> {
        let mut best: Option<(R, MinSource)> = self
            .insertion
            .peek()
            .map(|Reverse(r)| (r.clone(), MinSource::Insertion));
        for i in 0..self.runs.len() {
            if let Some(front) = self.runs[i].buffered_at_least(1)?.first() {
                if best.as_ref().is_none_or(|(b, _)| front < b) {
                    best = Some((front.clone(), MinSource::Run(i)));
                }
            }
        }
        Ok(best.map(|(_, s)| s))
    }

    /// Sort the insertion heap and write it out as a run; merge runs if the
    /// fan-in limit is reached.
    fn spill_insertion_heap(&mut self) -> Result<()> {
        let _charge = self.budget.charge(self.insertion.len());
        let mut sorted: Vec<R> = Vec::with_capacity(self.insertion.len());
        while let Some(Reverse(r)) = self.insertion.pop() {
            sorted.push(r);
        }
        let mut w = ExtVecWriter::new(self.device.clone());
        w.extend_from_slice(&sorted)?;
        self.runs.push(w.finish()?.into_cursor());
        if self.runs.len() >= self.max_runs {
            self.merge_all_runs()?;
        }
        Ok(())
    }

    /// Merge every run (from its current position) into a single fresh run,
    /// via `emsort`'s streaming run merge: the batch merge with per-run
    /// read-ahead and overlap replaces the old best-of-k front scan, and
    /// the merged records stream straight into the new run's writer.  The
    /// `(k+1)·B`-record working memory is charged inside the streaming
    /// merge.
    fn merge_all_runs(&mut self) -> Result<()> {
        let old = std::mem::take(&mut self.runs);
        let parts: Vec<(&ExtVec<R>, u64)> = old
            .iter()
            .map(|run| (run.source(), run.source().len() - run.remaining()))
            .collect();
        let cfg = SortConfig::new(self.budget.capacity());
        let device = self.device.clone();
        let merged = merge_runs_streaming(
            &parts,
            &self.budget,
            &cfg,
            |a, b| a < b,
            |stream| {
                let mut w = ExtVecWriter::new(device);
                while let Some(r) = stream.try_next()? {
                    w.push(r)?;
                }
                w.finish()
            },
        )?;
        for run in old {
            run.into_inner().free()?;
        }
        if !merged.is_empty() {
            self.runs.push(merged.into_cursor());
        } else {
            merged.free()?;
        }
        Ok(())
    }
}

enum MinSource {
    Insertion,
    Run(usize),
}

#[cfg(test)]
impl<R: Record + Ord> ExtPriorityQueue<R> {
    /// Number of external runs currently live (diagnostics).
    fn run_count(&self) -> usize {
        self.runs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::{bounds, EmConfig};
    use rand::prelude::*;

    fn device() -> SharedDevice {
        EmConfig::new(64, 16).ram_disk() // B = 8 u64s
    }

    #[test]
    fn drains_in_sorted_order() {
        let mut pq = ExtPriorityQueue::new(device(), 64).unwrap();
        let mut rng = StdRng::seed_from_u64(51);
        let mut data: Vec<u64> = (0..5000).map(|_| rng.gen_range(0..10_000)).collect();
        for &x in &data {
            pq.push(x).unwrap();
        }
        data.sort_unstable();
        for (i, expect) in data.iter().enumerate() {
            assert_eq!(pq.pop().unwrap(), Some(*expect), "at {i}");
        }
        assert_eq!(pq.pop().unwrap(), None);
    }

    #[test]
    fn interleaved_against_binary_heap() {
        let mut pq = ExtPriorityQueue::new(device(), 64).unwrap();
        let mut model: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
        let mut rng = StdRng::seed_from_u64(52);
        for _ in 0..10_000 {
            if rng.gen_bool(0.6) || model.is_empty() {
                let x = rng.gen_range(0..100_000u64);
                pq.push(x).unwrap();
                model.push(Reverse(x));
            } else {
                assert_eq!(pq.pop().unwrap(), model.pop().map(|Reverse(r)| r));
            }
            assert_eq!(pq.len() as usize, model.len());
        }
    }

    #[test]
    fn peek_is_nondestructive() {
        let mut pq = ExtPriorityQueue::new(device(), 64).unwrap();
        assert_eq!(pq.peek().unwrap(), None);
        pq.push(9u64).unwrap();
        pq.push(3u64).unwrap();
        assert_eq!(pq.peek().unwrap(), Some(3));
        assert_eq!(pq.peek().unwrap(), Some(3));
        assert_eq!(pq.len(), 2);
        assert_eq!(pq.pop().unwrap(), Some(3));
    }

    #[test]
    fn monotone_workload_like_dijkstra() {
        // Priorities pop in nondecreasing order while new ones arrive
        // slightly above the current minimum — the graph-algorithm pattern.
        let mut pq = ExtPriorityQueue::new(device(), 64).unwrap();
        let mut rng = StdRng::seed_from_u64(53);
        for seed in 0..100u64 {
            pq.push(seed).unwrap();
        }
        let mut last = 0u64;
        let mut popped = 0;
        while let Some(x) = pq.pop().unwrap() {
            assert!(x >= last, "non-monotone pop");
            last = x;
            popped += 1;
            if popped < 5000 {
                for _ in 0..2 {
                    pq.push(x + 1 + rng.gen_range(0..50u64)).unwrap();
                }
            }
        }
        assert!(popped > 5000);
    }

    #[test]
    fn run_count_stays_bounded() {
        let mut pq: ExtPriorityQueue<u64> = ExtPriorityQueue::new(device(), 64).unwrap(); // max_runs = 3
        let mut rng = StdRng::seed_from_u64(54);
        for _ in 0..20_000u64 {
            pq.push(rng.gen()).unwrap();
        }
        assert!(pq.run_count() <= 4, "runs: {}", pq.run_count());
    }

    #[test]
    fn amortized_io_near_sort_bound() {
        let device = device();
        let n = 20_000u64;
        let m = 256usize;
        let b = 8usize;
        let mut pq = ExtPriorityQueue::new(device.clone(), m).unwrap();
        let mut rng = StdRng::seed_from_u64(55);
        let before = device.stats().snapshot();
        for _ in 0..n {
            pq.push(rng.gen::<u64>()).unwrap();
        }
        for _ in 0..n {
            pq.pop().unwrap().unwrap();
        }
        let d = device.stats().snapshot().since(&before);
        let bound = bounds::sort(n, m, b);
        let ratio = d.total() as f64 / bound;
        assert!(
            ratio < 8.0,
            "EPQ used {} I/Os, Sort(N) = {bound}, ratio {ratio}",
            d.total()
        );
    }

    #[test]
    fn duplicates_all_surface() {
        let mut pq = ExtPriorityQueue::new(device(), 64).unwrap();
        for _ in 0..1000 {
            pq.push(7u64).unwrap();
        }
        pq.push(3u64).unwrap();
        assert_eq!(pq.pop().unwrap(), Some(3));
        let mut count = 0;
        while let Some(x) = pq.pop().unwrap() {
            assert_eq!(x, 7);
            count += 1;
        }
        assert_eq!(count, 1000);
    }

    #[test]
    fn tuple_records_order_lexicographically() {
        let mut pq: ExtPriorityQueue<(u64, u64)> = ExtPriorityQueue::new(device(), 64).unwrap();
        pq.push((2, 1)).unwrap();
        pq.push((1, 9)).unwrap();
        pq.push((1, 2)).unwrap();
        assert_eq!(pq.pop().unwrap(), Some((1, 2)));
        assert_eq!(pq.pop().unwrap(), Some((1, 9)));
        assert_eq!(pq.pop().unwrap(), Some((2, 1)));
    }

    #[test]
    fn tiny_budget_is_raised_to_the_floor() {
        // B = 8 u64s → floor is 64 records; a budget of 1 must still work.
        let mut pq: ExtPriorityQueue<u64> = ExtPriorityQueue::new(device(), 1).unwrap();
        let mut rng = StdRng::seed_from_u64(56);
        let mut data: Vec<u64> = (0..3000).map(|_| rng.gen()).collect();
        for &x in &data {
            pq.push(x).unwrap();
        }
        data.sort_unstable();
        for expect in data {
            assert_eq!(pq.pop().unwrap(), Some(expect));
        }
    }

    #[test]
    fn oversized_record_is_a_typed_error() {
        // 16-byte blocks cannot hold a 24-byte (u64, u64, u64) record.
        let small = EmConfig::new(16, 16).ram_disk();
        match ExtPriorityQueue::<(u64, u64, u64)>::new(small, 1024) {
            Err(pdm::PdmError::RecordTooLarge { record, block }) => {
                assert_eq!(record, 24);
                assert_eq!(block, 16);
            }
            Err(e) => panic!("expected RecordTooLarge, got {e}"),
            Ok(_) => panic!("expected RecordTooLarge, got Ok"),
        }
    }

    #[test]
    fn drop_releases_blocks() {
        let device = device();
        {
            let mut pq = ExtPriorityQueue::new(device.clone(), 64).unwrap();
            for i in 0..5000u64 {
                pq.push(i).unwrap();
            }
            assert!(device.allocated_blocks() > 0);
        }
        assert_eq!(device.allocated_blocks(), 0);
    }
}
