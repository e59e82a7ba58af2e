//! Explicit internal-memory accounting.
//!
//! The I/O model's results only hold if the algorithm really keeps at most
//! `M` records resident.  Algorithms in this workspace *charge* their
//! in-memory buffers against a [`MemBudget`]; exceeding the budget panics,
//! turning a silent model violation into a loud test failure.  (Online
//! structures running on a [`pdm::BufferPool`] get the same enforcement from
//! the pool's bounded frame count instead.)
//!
//! Budgets form one tree per caller.  A budget built while its thread has
//! [entered](MemBudget::enter) a node is that node's child; a charge must
//! fit the budget and every ancestor, and each node keeps its own
//! high-water.  No library enters a node: a caller enters a root around a
//! sort, plan or `Server` and reads what the whole of it held.  Entering is
//! per thread, so callers on different threads keep separate trees.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

thread_local! {
    /// The node this thread has entered, parent of every budget it builds.
    static ENTERED: RefCell<Option<Arc<MemBudget>>> = const { RefCell::new(None) };
}

/// A budget of `capacity` records of internal memory.
#[derive(Debug)]
pub struct MemBudget {
    capacity: usize,
    used: AtomicUsize,
    high_water: AtomicUsize,
    /// The node entered where this budget was built; `None` for a root.
    parent: Option<Arc<MemBudget>>,
}

impl MemBudget {
    /// Create a budget of `capacity` records, the child of the node this
    /// thread has entered, or a root if it has entered none.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(MemBudget {
            capacity,
            used: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
            parent: ENTERED.with(|entered| entered.borrow().clone()),
        })
    }

    /// Make this budget the parent of every budget the calling thread
    /// builds until the returned guard drops, which restores the node
    /// entered before.  Guards on one thread drop in reverse order.
    pub fn enter(self: &Arc<Self>) -> Entered {
        let previous = ENTERED.with(|entered| entered.replace(Some(Arc::clone(self))));
        Entered {
            previous,
            _per_thread: PhantomData,
        }
    }

    /// Total capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently charged.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// Records still available, here and in every ancestor.
    pub fn available(&self) -> usize {
        let own = self.capacity - self.used();
        self.parent.as_ref().map_or(own, |p| own.min(p.available()))
    }

    /// Peak charged usage over the budget's lifetime.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Charge `records` against the budget and its ancestors; the charge is
    /// released when the returned guard drops.
    ///
    /// # Panics
    /// If the charge would exceed the capacity of the budget or of an
    /// ancestor — that is a model violation by the calling algorithm.
    pub fn charge(self: &Arc<Self>, records: usize) -> BudgetGuard {
        let (now, capacity) = self.add(records).err().unwrap_or_default();
        assert!(
            now <= capacity,
            "memory budget exceeded: {now} records charged, capacity {capacity}"
        );
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
        self.add(records).ok()?;
        Some(BudgetGuard {
            budget: Arc::clone(self),
            records,
        })
    }

    /// Add `records` to this node and every ancestor, raising each one's
    /// high-water, or change nothing and return the refusing node's
    /// would-be total and capacity.
    fn add(&self, records: usize) -> Result<(), (usize, usize)> {
        let mut cur = self.used.load(Ordering::Relaxed);
        let now = loop {
            let now = cur.saturating_add(records);
            if now > self.capacity {
                return Err((now, self.capacity));
            }
            match self
                .used
                .compare_exchange_weak(cur, now, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break now,
                Err(actual) => cur = actual,
            }
        };
        if let Some(parent) = &self.parent {
            if let Err(refused) = parent.add(records) {
                self.used.fetch_sub(records, Ordering::Relaxed);
                return Err(refused);
            }
        }
        self.high_water.fetch_max(now, Ordering::Relaxed);
        Ok(())
    }
}

/// The guard of [`MemBudget::enter`]: while it lives, budgets the thread
/// builds are children of the entered node.  It cannot leave its thread.
#[derive(Debug)]
pub struct Entered {
    previous: Option<Arc<MemBudget>>,
    _per_thread: PhantomData<*const ()>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        ENTERED.with(|entered| entered.replace(self.previous.take()));
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
        let mut node = Some(&self.budget);
        while let Some(budget) = node {
            budget.used.fetch_sub(self.records, Ordering::Relaxed);
            node = budget.parent.as_ref();
        }
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

    #[test]
    fn a_budget_built_outside_any_entered_node_is_a_root() {
        assert!(MemBudget::new(8).parent.is_none());
        let root = MemBudget::new(8);
        let child = {
            let _in = root.enter();
            MemBudget::new(4)
        };
        assert!(Arc::ptr_eq(child.parent.as_ref().unwrap(), &root));
        assert!(MemBudget::new(8).parent.is_none(), "the guard dropped");
    }

    #[test]
    fn nested_enters_restore_the_previous_node() {
        let (outer, inner) = (MemBudget::new(100), MemBudget::new(50));
        let parent_of_new = || MemBudget::new(1).parent.clone();
        let _o = outer.enter();
        {
            let _i = inner.enter();
            assert!(Arc::ptr_eq(&parent_of_new().unwrap(), &inner));
        }
        assert!(Arc::ptr_eq(&parent_of_new().unwrap(), &outer));
        drop(_o);
        assert!(parent_of_new().is_none());
    }

    #[test]
    fn an_ancestor_refuses_a_charge_without_changing_any_used() {
        let root = MemBudget::new(10);
        let _in = root.enter();
        let mid = MemBudget::new(100);
        let _mid_in = mid.enter();
        let leaf = MemBudget::new(100);
        let _held = leaf.charge(6);
        assert_eq!((leaf.used(), mid.used(), root.used()), (6, 6, 6));
        assert_eq!(leaf.available(), 4, "the root binds");
        assert!(leaf.try_charge(5).is_none(), "6 + 5 > the root's 10");
        assert_eq!((leaf.used(), mid.used(), root.used()), (6, 6, 6));
        assert_eq!(leaf.high_water(), 6, "a refused charge raises no mark");
        assert_eq!(leaf.try_charge_units(3, 2).unwrap().records(), 4);
    }

    #[test]
    #[should_panic(expected = "memory budget exceeded: 11 records charged, capacity 10")]
    fn a_charge_past_an_ancestors_capacity_panics() {
        let root = MemBudget::new(10);
        let _in = root.enter();
        let leaf = MemBudget::new(100);
        let _g = leaf.charge(5);
        let _h = leaf.charge(6);
    }

    #[test]
    fn each_node_keeps_its_own_high_water_and_releases_up_the_chain() {
        let root = MemBudget::new(usize::MAX);
        let _in = root.enter();
        let (a, b) = (MemBudget::new(10), MemBudget::new(10));
        let ga = a.charge(7);
        drop(a.charge(3));
        let gb = b.charge(4);
        assert_eq!(root.used(), 11);
        drop(ga);
        let gb2 = b.charge(6);
        assert_eq!(
            (a.high_water(), b.high_water(), root.high_water()),
            (10, 10, 11)
        );
        drop((gb, gb2));
        assert_eq!((a.used(), b.used(), root.used()), (0, 0, 0));
    }

    #[test]
    fn two_threads_keep_two_trees() {
        use std::sync::Barrier;
        let step = Arc::new(Barrier::new(2));
        let run = |peak: usize| {
            let step = Arc::clone(&step);
            std::thread::spawn(move || {
                let root = MemBudget::new(usize::MAX);
                // The threads enter, charge, leave and re-enter in
                // lockstep, so every step of one falls between two of the
                // other's.
                step.wait();
                let entered = root.enter();
                step.wait();
                let node = MemBudget::new(peak);
                let held = node.charge(peak / 2);
                step.wait();
                let more = node.charge(peak - peak / 2);
                step.wait();
                drop(entered);
                step.wait();
                assert!(MemBudget::new(1).parent.is_none());
                let _again = root.enter();
                step.wait();
                drop((held, more));
                let _small = MemBudget::new(1).charge(1);
                step.wait();
                (root.high_water(), root.used())
            })
        };
        let (a, b) = (run(40), run(300));
        assert_eq!(a.join().unwrap(), (40, 1));
        assert_eq!(b.join().unwrap(), (300, 1));
    }
}
