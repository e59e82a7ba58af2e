//! Explicit internal-memory accounting.
//!
//! The I/O model's results only hold if the algorithm really keeps at most
//! `M` records resident.  Algorithms in this workspace *charge* their
//! in-memory buffers against a [`MemBudget`]; exceeding the budget panics,
//! turning a silent model violation into a loud test failure.  (Online
//! structures running on a [`pdm::BufferPool`] get the same enforcement from
//! the pool's bounded frame count instead.)

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A budget of `capacity` records of internal memory.
#[derive(Debug)]
pub struct MemBudget {
    capacity: usize,
    used: AtomicUsize,
    high_water: AtomicUsize,
}

impl MemBudget {
    /// Create a budget of `capacity` records.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(MemBudget {
            capacity,
            used: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
        })
    }

    /// Total capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently charged.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// Records still available.
    pub fn available(&self) -> usize {
        self.capacity - self.used()
    }

    /// Peak charged usage over the budget's lifetime.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Charge `records` against the budget; the charge is released when the
    /// returned guard drops.
    ///
    /// # Panics
    /// If the charge would exceed the capacity — that is a model violation
    /// by the calling algorithm.
    pub fn charge(self: &Arc<Self>, records: usize) -> BudgetGuard {
        let prev = self.used.fetch_add(records, Ordering::Relaxed);
        let now = prev + records;
        assert!(
            now <= self.capacity,
            "memory budget exceeded: {now} records charged, capacity {}",
            self.capacity
        );
        self.high_water.fetch_max(now, Ordering::Relaxed);
        BudgetGuard {
            budget: Arc::clone(self),
            records,
        }
    }

    /// Charge the largest multiple of `unit` records that fits, up to
    /// `max_units · unit`, or `None` if not even one unit fits.
    ///
    /// This is the degrading charge of the streams' read-ahead and
    /// write-behind buffers: a reader that wants `depth` blocks shrinks to
    /// whatever whole number of blocks the budget has left rather than
    /// violating the model.
    pub(crate) fn try_charge_units(
        self: &Arc<Self>,
        max_units: usize,
        unit: usize,
    ) -> Option<BudgetGuard> {
        for units in (1..=max_units).rev() {
            if let Some(guard) = self.try_charge(units * unit) {
                return Some(guard);
            }
        }
        None
    }

    /// Charge `records` if capacity allows, or return `None` charging
    /// nothing.
    ///
    /// Opportunistic consumers use this — read-ahead and write-behind
    /// buffers shrink to whatever the budget has left (possibly zero) rather
    /// than violating the model.
    pub fn try_charge(self: &Arc<Self>, records: usize) -> Option<BudgetGuard> {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let now = cur.checked_add(records)?;
            if now > self.capacity {
                return None;
            }
            match self
                .used
                .compare_exchange_weak(cur, now, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.high_water.fetch_max(now, Ordering::Relaxed);
                    return Some(BudgetGuard {
                        budget: Arc::clone(self),
                        records,
                    });
                }
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Releases its charge on drop.
#[derive(Debug)]
pub struct BudgetGuard {
    budget: Arc<MemBudget>,
    records: usize,
}

impl BudgetGuard {
    /// Size of this charge, in records.
    pub fn records(&self) -> usize {
        self.records
    }

    /// True when this charge is held against `budget`.
    pub fn charges(&self, budget: &Arc<MemBudget>) -> bool {
        Arc::ptr_eq(&self.budget, budget)
    }
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        self.budget.used.fetch_sub(self.records, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_release() {
        let b = MemBudget::new(100);
        let g1 = b.charge(60);
        assert_eq!(b.used(), 60);
        assert_eq!(b.available(), 40);
        let g2 = b.charge(40);
        assert_eq!(b.available(), 0);
        drop(g1);
        assert_eq!(b.used(), 40);
        drop(g2);
        assert_eq!(b.used(), 0);
        assert_eq!(b.high_water(), 100);
    }

    #[test]
    #[should_panic(expected = "memory budget exceeded")]
    fn over_charge_panics() {
        let b = MemBudget::new(10);
        let _g = b.charge(5);
        let _h = b.charge(6);
    }

    #[test]
    fn zero_charge_is_free() {
        let b = MemBudget::new(1);
        let _g = b.charge(0);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn try_charge_units_degrades_to_largest_fit() {
        let b = MemBudget::new(25);
        let g = b.try_charge_units(5, 8).expect("three blocks fit");
        assert_eq!(g.records(), 24, "granted ⌊25/8⌋ = 3 units");
        assert!(b.try_charge_units(2, 8).is_none(), "no whole unit left");
        drop(g);
        assert_eq!(b.try_charge_units(1, 8).unwrap().records(), 8);
    }

    #[test]
    fn try_charge_succeeds_within_capacity_and_refuses_beyond() {
        let b = MemBudget::new(100);
        let g = b.try_charge(70).expect("fits");
        assert_eq!(g.records(), 70);
        assert_eq!(b.used(), 70);
        assert!(b.try_charge(31).is_none(), "over capacity refused");
        assert_eq!(b.used(), 70, "failed try_charge charges nothing");
        drop(g);
        assert!(b.try_charge(100).is_some());
    }
}
