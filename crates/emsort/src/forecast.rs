//! Forecasting: key-directed prefetch scheduling for the k-way merge.
//!
//! With `D` independent disks, a merge that read-ahead-buffers each run
//! uniformly wastes its memory on runs that will not be consumed for a long
//! time.  Vitter's survey (§3.2, §5.1) describes the classical fix,
//! *forecasting*: because each run is consumed in order, the run whose next
//! unbuffered block carries the **smallest leading key** is the one the merge
//! will demand first — so that block should be fetched first.  The leading
//! keys are recorded for free when the runs are written (see
//! [`em_core::ExtVec`] block-head metadata), and a [`Forecaster`] uses them
//! to order prefetch submissions across all `k` runs sharing one buffer
//! pool.
//!
//! Forecasting is pure *scheduling*: every block it submits is one the
//! demand-paged merge would read anyway, merely issued earlier and in a
//! smarter order.  Transfer counts are therefore identical with forecasting
//! on or off, and — because the merge consumes every run to its end — no
//! prefetched block is ever wasted.

use std::sync::Arc;

use em_core::{BudgetGuard, ExtVecReader, MemBudget, Record};

/// Shared prefetch pool for the readers of one k-way merge, scheduled by
/// leading key.
///
/// The pool holds up to `pool` blocks in flight across *all* runs; each call
/// to [`pump`](Self::pump) tops it up by repeatedly submitting the most
/// urgent unfetched block (smallest leading key, ties toward the lower run
/// index).  Memory honesty: the pool's blocks are charged against the
/// sort's [`MemBudget`] here, once, and the managed readers deliberately
/// hold no per-reader spares — see
/// [`ExtVec::reader_forecast`](em_core::ExtVec::reader_forecast).
pub(crate) struct Forecaster {
    pool: usize,
    /// Independent I/O lanes behind the device ([`BlockDevice::lanes`]
    /// (pdm::BlockDevice::lanes)); 1 for a plain disk.
    lanes: usize,
    /// Cap on in-flight blocks per lane.  With one lane this equals `pool`
    /// (the classic global policy); with `D` independent lanes the pool is
    /// spread so no disk hoards it while others idle — the per-disk queue
    /// discipline that keeps full-fan-in merging D-parallel.
    per_lane: usize,
    _reserve: Option<BudgetGuard>,
}

impl Forecaster {
    /// Charge up to `k·depth` blocks of `per_block` records from `budget`
    /// headroom, degrading to whatever whole number of blocks fits (possibly
    /// zero, in which case forecasting is a no-op and the merge runs
    /// synchronously).  `lanes` is the device's independent-disk count; the
    /// granted pool is balanced across lanes, keeping at least `depth`
    /// outstanding reads available to every disk.
    pub fn new(
        budget: &Arc<MemBudget>,
        k: usize,
        depth: usize,
        per_block: usize,
        lanes: usize,
    ) -> Self {
        let reserve = budget.try_charge_units(k * depth, per_block);
        let pool = reserve.as_ref().map_or(0, |g| g.records() / per_block);
        let lanes = lanes.max(1);
        // With one lane the cap degenerates to the whole pool (global
        // policy, unchanged from the single-disk forecaster); with D lanes
        // each disk gets an even share, but never less than the configured
        // overlap depth.
        let per_lane = depth.max(pool.div_ceil(lanes));
        Forecaster {
            pool,
            lanes,
            per_lane,
            _reserve: reserve,
        }
    }

    /// Blocks the pool may keep in flight.
    pub fn pool(&self) -> usize {
        self.pool
    }

    /// Top the pool up: while capacity remains, submit the next unfetched
    /// block of the run whose leading key is smallest under `less` (ties
    /// toward the lower run index), skipping runs whose next block lands on
    /// a lane already at its per-disk cap.  Runs without block-head metadata
    /// or with every block already submitted are skipped.  Blocks that span
    /// all lanes (striped placement) are bounded only by the global pool —
    /// every striped transfer occupies all D disks at once, so a per-lane
    /// cap would be meaningless for them.
    pub(crate) fn pump<R, F>(&self, readers: &mut [ExtVecReader<'_, R>], less: F)
    where
        R: Record,
        F: Fn(&R, &R) -> bool + Copy,
    {
        if self.pool == 0 {
            return;
        }
        let mut in_flight: usize = readers.iter().map(|r| r.in_flight()).sum();
        let mut per_lane = vec![0usize; self.lanes];
        for rd in readers.iter() {
            rd.add_in_flight_per_lane(&mut per_lane);
        }
        while in_flight < self.pool {
            let mut best: Option<(usize, &R)> = None;
            for (i, rd) in readers.iter().enumerate() {
                let Some(head) = rd.next_fetch_head() else {
                    continue;
                };
                if let Some(lane) = rd.next_fetch_lane() {
                    if per_lane[lane % self.lanes] >= self.per_lane {
                        continue; // this disk's queue is full; look elsewhere
                    }
                }
                if best.is_none_or(|(_, best_head)| less(head, best_head)) {
                    best = Some((i, head));
                }
            }
            let Some((i, _)) = best else { return };
            let lane = readers[i].next_fetch_lane();
            if !readers[i].prefetch_one() {
                return; // per-reader capacity exhausted; pool effectively full
            }
            if let Some(lane) = lane {
                per_lane[lane % self.lanes] += 1;
            }
            in_flight += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::{EmConfig, ExtVec};

    /// Two runs, B = 8: run 0 holds small keys, run 1 large ones.  The
    /// forecaster must spend the whole pool on run 0 first.
    #[test]
    fn pump_prioritizes_smallest_leading_key() {
        let cfg = EmConfig::new(64, 16);
        let device = cfg.ram_disk();
        let small: Vec<u64> = (0..32).collect();
        let large: Vec<u64> = (1000..1032).collect();
        let a = ExtVec::from_slice(device.clone(), &small).unwrap();
        let b = ExtVec::from_slice(device.clone(), &large).unwrap();
        assert!(a.has_block_heads() && b.has_block_heads());

        let budget = MemBudget::new(64);
        let fc = Forecaster::new(&budget, 2, 2, 8, 1);
        assert_eq!(fc.pool(), 4);
        let mut readers = vec![
            a.reader_forecast(0, fc.pool()),
            b.reader_forecast(0, fc.pool()),
        ];
        fc.pump(&mut readers, |x: &u64, y: &u64| x < y);
        // All four of run 0's blocks beat run 1's first block (head 1000).
        assert_eq!(
            readers[0].in_flight(),
            4,
            "every pool slot goes to the small-key run"
        );
        assert_eq!(readers[1].in_flight(), 0);

        // Drain run 0 completely; the pool then shifts to run 1.
        while readers[0].try_next().unwrap().is_some() {
            fc.pump(&mut readers, |x: &u64, y: &u64| x < y);
        }
        assert_eq!(readers[0].in_flight(), 0);
        assert_eq!(readers[1].in_flight(), 4);
        while readers[1].try_next().unwrap().is_some() {}
        let snap = device.stats().snapshot();
        assert_eq!(snap.prefetch_wasted(), 0);
        assert_eq!(snap.prefetched(), 8, "every block was forecast-submitted");
        assert_eq!(snap.prefetch_hits(), 8);
    }

    #[test]
    fn interleaved_keys_alternate_submissions() {
        let cfg = EmConfig::new(64, 16);
        let device = cfg.ram_disk();
        // Block heads: run 0 → 0, 20, 40, 60; run 1 → 10, 30, 50, 70.
        let r0: Vec<u64> = (0..32).map(|i| (i / 8) * 20 + i % 8).collect();
        let r1: Vec<u64> = (0..32).map(|i| 10 + (i / 8) * 20 + i % 8).collect();
        let a = ExtVec::from_slice(device.clone(), &r0).unwrap();
        let b = ExtVec::from_slice(device.clone(), &r1).unwrap();
        let budget = MemBudget::new(32);
        let fc = Forecaster::new(&budget, 2, 2, 8, 1);
        assert_eq!(fc.pool(), 4);
        let mut readers = vec![
            a.reader_forecast(0, fc.pool()),
            b.reader_forecast(0, fc.pool()),
        ];
        fc.pump(&mut readers, |x: &u64, y: &u64| x < y);
        // Urgency order 0,10,20,30 → two blocks in flight per run.
        assert_eq!(readers[0].in_flight(), 2);
        assert_eq!(readers[1].in_flight(), 2);
    }

    #[test]
    fn zero_pool_is_a_noop() {
        let cfg = EmConfig::new(64, 16);
        let device = cfg.ram_disk();
        let a = ExtVec::from_slice(device.clone(), &(0u64..16).collect::<Vec<_>>()).unwrap();
        let budget = MemBudget::new(4); // less than one block
        let fc = Forecaster::new(&budget, 1, 2, 8, 1);
        assert_eq!(fc.pool(), 0);
        let mut readers = vec![a.reader_forecast(0, 0)];
        fc.pump(&mut readers, |x: &u64, y: &u64| x < y);
        assert_eq!(readers[0].in_flight(), 0);
        // Demand reads still work and count normally.
        assert_eq!(readers[0].by_ref().count(), 16);
        assert_eq!(device.stats().snapshot().prefetched(), 0);
    }

    #[test]
    fn pool_degrades_to_budget_headroom() {
        let budget = MemBudget::new(100);
        let _working = budget.charge(80);
        let fc = Forecaster::new(&budget, 4, 3, 8, 1); // wants 12 blocks, 2 fit
        assert_eq!(fc.pool(), 2);
        assert_eq!(budget.used(), 96);
    }

    #[test]
    fn single_lane_cap_is_whole_pool() {
        let budget = MemBudget::new(1000);
        let fc = Forecaster::new(&budget, 8, 2, 8, 1);
        assert_eq!(fc.pool(), 16);
        assert_eq!(fc.per_lane, 16, "one lane gets the global policy");
    }

    #[test]
    fn multi_lane_cap_splits_pool_evenly() {
        let budget = MemBudget::new(1000);
        let fc = Forecaster::new(&budget, 8, 2, 8, 4);
        assert_eq!(fc.pool(), 16);
        assert_eq!(fc.per_lane, 4, "16 blocks over 4 lanes");
        // Degenerate pool still allows `depth` per disk.
        let tight = MemBudget::new(24);
        let fc2 = Forecaster::new(&tight, 8, 2, 8, 4); // 3 blocks granted
        assert_eq!(fc2.pool(), 3);
        assert_eq!(fc2.per_lane, 2);
    }

    /// On an independent-placement array the pump must respect the per-lane
    /// cap: when a lane's queue is full, the next-most-urgent block on a
    /// *different* lane is submitted instead, even though it carries a
    /// larger key than a block the full lane still holds.
    #[test]
    fn pump_caps_outstanding_reads_per_lane() {
        use pdm::{DiskArray, Placement};

        let device: pdm::SharedDevice = DiskArray::new_ram(2, 64, Placement::Independent);
        // Six single-block runs; round-robin allocation alternates lanes, so
        // creation order pins each run's lane.  The three smallest heads all
        // live on lane 0; a globally greedy pool of 4 would take v5 (head 2)
        // before v4 (head 101).
        let v1 = ExtVec::from_slice(device.clone(), &(0u64..8).collect::<Vec<_>>()).unwrap();
        let v2 = ExtVec::from_slice(device.clone(), &(100u64..108).collect::<Vec<_>>()).unwrap();
        let v3 = ExtVec::from_slice(device.clone(), &(10u64..18).collect::<Vec<_>>()).unwrap();
        let v4 = ExtVec::from_slice(device.clone(), &(101u64..109).collect::<Vec<_>>()).unwrap();
        let v5 = ExtVec::from_slice(device.clone(), &(20u64..28).collect::<Vec<_>>()).unwrap();
        let v6 = ExtVec::from_slice(device.clone(), &(102u64..110).collect::<Vec<_>>()).unwrap();
        let runs = [&v1, &v2, &v3, &v4, &v5, &v6];

        // Budget grants only 4 of the requested 6 blocks → per-lane cap 2.
        let budget = MemBudget::new(32);
        let fc = Forecaster::new(&budget, 6, 1, 8, 2);
        assert_eq!(fc.pool(), 4);
        assert_eq!(fc.per_lane, 2);
        let mut readers: Vec<_> = runs
            .iter()
            .map(|v| v.reader_forecast(0, fc.pool()))
            .collect();
        fc.pump(&mut readers, |x: &u64, y: &u64| x < y);
        // Lane 0 (runs v1, v3, v5 with heads 0, 10, 20) fills at two blocks;
        // the remaining two slots go to lane 1 (v2, v4) despite v5's
        // smaller head — that's the per-disk queue discipline.
        let in_flight: Vec<usize> = readers.iter().map(|r| r.in_flight()).collect();
        assert_eq!(
            in_flight,
            vec![1, 1, 1, 1, 0, 0],
            "v5 (lane 0, head 20) must be skipped for v2/v4 on lane 1"
        );
        let mut per_lane = [0usize; 2];
        for rd in &readers {
            rd.add_in_flight_per_lane(&mut per_lane);
        }
        assert_eq!(per_lane, [2, 2]);

        // Draining everything still wastes nothing and hits every forecast.
        for rd in &mut readers {
            while rd.try_next().unwrap().is_some() {}
        }
        drop(readers);
        let snap = device.stats().snapshot();
        assert_eq!(snap.prefetch_wasted(), 0);
        assert_eq!(snap.prefetched(), 4);
        assert_eq!(snap.prefetch_hits(), 4);
    }
}
