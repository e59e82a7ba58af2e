//! The shard's record cache: a segmented LRU whose every record is charged
//! to a frame slot or to its tenant's budget.
//!
//! Each [`Shard`](crate::Shard) holds one [`HotCache`].  A record is charged
//! to one of two memories: a *slot* of the pool frames the shard's trees
//! gave up, or one record of its tenant's [`MemBudget`], which that tenant's
//! records on every shard share.  Admission takes a free slot first, then
//! the tenant's budget.  When neither is free, the SLRU victim's charge
//! passes to the new record if it may hold it — a slot, or a record of the
//! same budget — and the victim goes; otherwise the new record is refused,
//! as evicting another tenant's record would free nothing it could use.
//! Passing the charge on, rather than releasing it and charging anew, means
//! another shard cannot take the freed record between the two steps.
//!
//! The policy is a **two-segment LRU** (SLRU).  A record that missed is
//! admitted to *probation*; a hit there promotes it to *protected*;
//! protected is held to 4/5 of what is resident by demoting its
//! least-recently-used entry back to probation's most-recent end; eviction
//! takes probation's least-recently-used entry and reaches into protected
//! only when probation is empty.  A key asked for once therefore displaces
//! only other keys asked for once, and a key asked for twice is safe from
//! every one-off until it has been the coldest of the twice-asked — under a
//! Zipf tail that is the difference between holding the head and churning
//! it (hit ratio 0.66 against plain LRU's 0.60 on the `serve_read` tape
//! shape; the policy table is in DESIGN.md §9).
//!
//! Two invariants: *nothing is retained about a key that is not resident*
//! (no ghost list, no frequency sketch — memory nothing is charged for),
//! and *every resident record holds exactly one charge*: slot-charged
//! records never outnumber the slots, and a tenant's budget-charged records
//! on every shard never exceed its budget.  Each segment's recency order is
//! a doubly linked list threaded through one dense vector of the resident
//! records, so get, insert, invalidate and evict are `O(1)` beside their
//! one hash lookup, and a fixed access tape leaves a fixed resident set in
//! a fixed order.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use em_core::{BudgetGuard, MemBudget, PassThrough};

use crate::stats::ServeStats;

/// Protected's share of the resident records.  The share is of `len()`, not
/// of the memory the cache may charge: a tenant budget shared across shards
/// binds at no fixed size.  Any probation share from 1/16 to 1/5 scores the
/// same on Zipf tapes, so this is a constant and not a knob.
const PROTECTED_SHARE: (usize, usize) = (4, 5);

/// "No neighbour" in a [`Node`]'s links and a [`Segment`]'s ends.
const NIL: usize = usize::MAX;

/// What a resident record is charged to.
enum Charge {
    /// A slot of the frames the pool gave up.
    Slot,
    /// One record of a tenant's budget, released when the record goes.
    Budget(BudgetGuard),
}

impl Charge {
    /// True when a record charged to `budget` may hold this charge: any
    /// slot, or a record of that same budget.
    fn serves(&self, budget: Option<&Arc<MemBudget>>) -> bool {
        match self {
            Charge::Slot => true,
            Charge::Budget(guard) => budget.is_some_and(|b| guard.charges(b)),
        }
    }
}

struct Node<V> {
    key: u64,
    value: V,
    protected: bool,
    /// Neighbours in this node's segment, as indices into `HotCache::nodes`.
    older: usize,
    newer: usize,
    charge: Charge,
}

/// One segment's recency order: the ends of a list threaded through the
/// nodes' `older` / `newer` links.
struct Segment {
    oldest: usize,
    newest: usize,
    len: usize,
}

impl Segment {
    const EMPTY: Segment = Segment {
        oldest: NIL,
        newest: NIL,
        len: 0,
    };
}

/// A segmented-LRU cache whose records are each charged to a slot or to a
/// budget.
///
/// Admission can fail (returning `false` from [`HotCache::insert`]) when no
/// slot is free, the budget is exhausted *and* the victim's charge cannot
/// pass to the new record — the entry is simply not cached, never silently
/// over-admitted.
pub(crate) struct HotCache<V> {
    /// Where each resident key's node is.  A key is a filter hash, so it
    /// indexes as itself.
    index: HashMap<u64, usize, BuildHasherDefault<PassThrough>>,
    /// The resident records, dense: a removal moves the last node into the
    /// hole.
    nodes: Vec<Node<V>>,
    probation: Segment,
    protected: Segment,
    /// Slots, and the resident records charged to them.
    slots: usize,
    in_slots: usize,
    /// Where promotions and demotions are counted.
    stats: Arc<ServeStats>,
}

impl<V: Clone> HotCache<V> {
    /// An empty cache with no slots, counting its segment moves in `stats`.
    pub(crate) fn new(stats: Arc<ServeStats>) -> Self {
        HotCache {
            index: HashMap::default(),
            nodes: Vec::new(),
            probation: Segment::EMPTY,
            protected: Segment::EMPTY,
            slots: 0,
            in_slots: 0,
            stats,
        }
    }

    /// Cached value for `key`; a hit moves it to protected's recent end.
    pub(crate) fn get(&mut self, key: u64) -> Option<V> {
        let i = *self.index.get(&key)?;
        self.touch(i);
        Some(self.nodes[i].value.clone())
    }

    /// Admit `key -> value` on probation, or refresh it as a hit would.  A
    /// new record takes a free slot, else one record of `budget`, else the
    /// victim's place if it may hold the victim's charge.  Returns `false`
    /// when nothing could be charged.
    pub(crate) fn insert(&mut self, key: u64, value: V, budget: Option<&Arc<MemBudget>>) -> bool {
        if let Some(&i) = self.index.get(&key) {
            self.nodes[i].value = value;
            self.touch(i);
            return true;
        }
        let charge = self.charge(budget).or_else(|| {
            let victim = self.victim()?;
            self.nodes[victim]
                .charge
                .serves(budget)
                .then(|| self.remove(victim))
        });
        let admitted = charge.is_some();
        if let Some(charge) = charge {
            self.in_slots += usize::from(matches!(charge, Charge::Slot));
            let i = self.nodes.len();
            self.index.insert(key, i);
            self.nodes.push(Node {
                key,
                value,
                protected: false,
                older: NIL,
                newer: NIL,
                charge,
            });
            self.link_newest(i);
        }
        self.rebalance();
        admitted
    }

    /// A free slot, else one record of `budget`.
    fn charge(&self, budget: Option<&Arc<MemBudget>>) -> Option<Charge> {
        if self.in_slots < self.slots {
            return Some(Charge::Slot);
        }
        budget?.try_charge(1).map(Charge::Budget)
    }

    /// Drop `key` if cached, releasing its charge.
    pub(crate) fn invalidate(&mut self, key: u64) {
        if let Some(&i) = self.index.get(&key) {
            self.remove(i);
            self.rebalance();
        }
    }

    /// Lower the slots to `slots`, evicting slot-charged records in victim
    /// order — probation's least recent first, then protected's — until no
    /// more are left than slots; the budget-charged records stay.
    pub(crate) fn shrink_slots(&mut self, slots: usize) {
        let mut excess = self.in_slots.saturating_sub(slots);
        let mut victims = Vec::with_capacity(excess);
        for oldest in [self.probation.oldest, self.protected.oldest] {
            let mut i = oldest;
            while i != NIL && excess > 0 {
                if matches!(self.nodes[i].charge, Charge::Slot) {
                    victims.push(self.nodes[i].key);
                    excess -= 1;
                }
                i = self.nodes[i].newer;
            }
        }
        for key in victims {
            if let Some(i) = self.index.get(&key).copied() {
                self.remove(i);
            }
        }
        self.slots = slots;
        self.rebalance();
    }

    /// True when `key` is resident; unlike [`get`](Self::get), not a
    /// reference to it.
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.index.contains_key(&key)
    }

    /// Raise the slots to `slots`, which is never below the records they
    /// hold.
    pub(crate) fn set_slots(&mut self, slots: usize) {
        debug_assert!(slots >= self.in_slots, "fewer slots than slot records");
        self.slots = slots;
    }

    /// Slots, and the records charged to them.
    pub(crate) fn slots(&self) -> (usize, usize) {
        (self.slots, self.in_slots)
    }

    /// Number of cached records.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing is cached.
    pub(crate) fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn segment(&mut self, protected: bool) -> &mut Segment {
        if protected {
            &mut self.protected
        } else {
            &mut self.probation
        }
    }

    /// Between neighbours `older` and `newer` of a `protected` (or probation)
    /// node, make `older` point forward to `a` and `newer` back to `b`; a
    /// missing neighbour is the segment's end.
    fn splice(&mut self, protected: bool, older: usize, newer: usize, a: usize, b: usize) {
        match older {
            NIL => self.segment(protected).oldest = a,
            o => self.nodes[o].newer = a,
        }
        match newer {
            NIL => self.segment(protected).newest = b,
            n => self.nodes[n].older = b,
        }
    }

    /// Take node `i` out of its segment's order.
    fn unlink(&mut self, i: usize) {
        let Node {
            protected,
            older,
            newer,
            ..
        } = self.nodes[i];
        self.splice(protected, older, newer, newer, older);
        self.segment(protected).len -= 1;
    }

    /// Put the unlinked node `i` at the recent end of the segment its
    /// `protected` flag names.
    fn link_newest(&mut self, i: usize) {
        let segment = self.segment(self.nodes[i].protected);
        let older = std::mem::replace(&mut segment.newest, i);
        segment.len += 1;
        match older {
            NIL => segment.oldest = i,
            o => self.nodes[o].newer = i,
        }
        self.nodes[i].older = older;
        self.nodes[i].newer = NIL;
    }

    /// A reference to resident node `i`: move it to protected's recent end,
    /// from whichever segment holds it.
    fn touch(&mut self, i: usize) {
        if !self.nodes[i].protected {
            self.stats.record_cache_promotion();
        } else if self.nodes[i].newer == NIL {
            return;
        }
        self.unlink(i);
        self.nodes[i].protected = true;
        self.link_newest(i);
        self.rebalance();
    }

    /// Demote protected's least recent entries to probation's recent end
    /// until protected is back within its share of what is resident.
    fn rebalance(&mut self) {
        let (num, den) = PROTECTED_SHARE;
        while self.protected.len > (self.nodes.len() * num).div_ceil(den) {
            let i = self.protected.oldest;
            self.unlink(i);
            self.nodes[i].protected = false;
            self.link_newest(i);
            self.stats.record_cache_demotion();
        }
    }

    /// The next to go: probation's least recent entry, or protected's when
    /// probation is empty; `None` if the cache is empty.
    fn victim(&self) -> Option<usize> {
        match (self.probation.oldest, self.protected.oldest) {
            (NIL, NIL) => None,
            (NIL, i) | (i, _) => Some(i),
        }
    }

    /// Remove node `i` and return its charge, and keep `nodes` dense: the
    /// last node moves into the hole and everything that named its old
    /// position is told the new one.
    fn remove(&mut self, i: usize) -> Charge {
        self.unlink(i);
        let gone = self.nodes.swap_remove(i);
        self.index.remove(&gone.key);
        self.in_slots -= usize::from(matches!(gone.charge, Charge::Slot));
        if let Some(moved) = self.nodes.get(i) {
            let (protected, older, newer) = (moved.protected, moved.older, moved.newer);
            self.index.insert(moved.key, i);
            self.splice(protected, older, newer, i, i);
        }
        gone.charge
    }

    /// `protected`'s (or probation's) keys, least recent first.
    #[cfg(test)]
    fn order(&self, protected: bool) -> Vec<u64> {
        let segment = if protected {
            &self.protected
        } else {
            &self.probation
        };
        let mut keys = Vec::with_capacity(segment.len);
        let mut i = segment.oldest;
        while i != NIL {
            keys.push(self.nodes[i].key);
            i = self.nodes[i].newer;
        }
        assert_eq!(keys.len(), segment.len);
        keys
    }

    /// Resident records charged to `budget`.
    #[cfg(test)]
    pub(crate) fn charged_to(&self, budget: &Arc<MemBudget>) -> usize {
        let of = |n: &&Node<V>| matches!(&n.charge, Charge::Budget(g) if g.charges(budget));
        self.nodes.iter().filter(of).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A cache of `slots` slots.
    fn with_slots(slots: usize) -> HotCache<u64> {
        let mut c = HotCache::new(Arc::default());
        c.set_slots(slots);
        c
    }

    #[test]
    fn lru_eviction_within_local_capacity() {
        let mut c = with_slots(2);
        assert!(c.insert(1, 10, None));
        assert!(c.insert(2, 20, None));
        assert_eq!(c.get(1), Some(10)); // refresh 1; 2 is now LRU
        assert!(c.insert(3, 30, None));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(2), None);
        assert_eq!(c.get(1), Some(10));
        assert_eq!(c.get(3), Some(30));
        assert_eq!(c.slots(), (2, 2));
    }

    #[test]
    fn shared_budget_gates_admission_across_caches() {
        let budget = MemBudget::new(2);
        let (mut a, mut b) = (with_slots(0), with_slots(0));
        assert!(a.insert(1, 1, Some(&budget)));
        assert!(a.insert(2, 2, Some(&budget)));
        // Tenant budget is fully held by cache `a`; `b` may evict locally,
        // finds nothing, and must refuse.
        assert!(!b.insert(9, 9, Some(&budget)));
        assert_eq!(b.len(), 0);
        // Releasing from `a` lets `b` admit.
        a.invalidate(1);
        assert!(b.insert(9, 9, Some(&budget)));
        assert_eq!(budget.used(), 2);
    }

    #[test]
    fn local_pressure_evicts_before_refusing() {
        let budget = MemBudget::new(1);
        let mut c = with_slots(0);
        assert!(c.insert(1, 1, Some(&budget)));
        // Budget exhausted by our own entry: evict it, admit the new one.
        assert!(c.insert(2, 2, Some(&budget)));
        assert_eq!(c.get(1), None);
        assert_eq!(c.get(2), Some(2));
        assert_eq!(budget.used(), 1);
    }

    #[test]
    fn invalidate_and_overwrite() {
        let budget = MemBudget::new(4);
        let mut c = with_slots(0);
        assert!(c.insert(1, 1, Some(&budget)));
        assert!(c.insert(1, 100, Some(&budget))); // refresh does not double-charge
        assert_eq!(budget.used(), 1);
        assert_eq!(c.get(1), Some(100));
        c.invalidate(1);
        assert!(c.is_empty());
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn zero_capacity_cache_never_admits() {
        let mut c = with_slots(0);
        assert!(!c.insert(1, 1, Some(&MemBudget::new(0))));
        assert!(!c.insert(1, 1, None));
        assert!(c.is_empty());
    }

    /// Slots first, then the budget; a victim's charge passes to the record
    /// that displaces it when that record may hold it, and the record is
    /// refused otherwise.
    #[test]
    fn a_victims_charge_passes_to_the_record_that_displaces_it() {
        let (mine, theirs) = (MemBudget::new(2), MemBudget::new(1));
        let mut c = with_slots(1);
        assert!(c.insert(1, 1, Some(&mine))); // the slot
        assert!(c.insert(2, 2, Some(&mine)));
        assert!(c.insert(3, 3, Some(&mine)));
        assert_eq!((c.slots(), mine.used()), ((1, 1), 2));
        // Full: victim 1's slot passes to 4, then victim 2's record of
        // `mine` to 5.
        assert!(c.insert(4, 4, Some(&mine)));
        assert!(c.insert(5, 5, Some(&mine)));
        assert_eq!((c.slots(), mine.used()), ((1, 1), 2));
        assert_eq!(c.order(false), [3, 4, 5]);
        // Another budget with room is charged, and nothing goes.
        assert!(c.insert(6, 6, Some(&theirs)));
        assert_eq!(c.order(false), [3, 4, 5, 6]);
        // With `theirs` spent, victim 3 holds `mine`, which a record of
        // `theirs` cannot hold: 7 is refused and 3 stays …
        assert!(!c.insert(7, 7, Some(&theirs)));
        assert_eq!(c.order(false), [3, 4, 5, 6]);
        // … until a record of `mine` takes its place; then victim 4's slot
        // serves anyone.
        assert!(c.insert(8, 8, Some(&mine)));
        assert!(c.insert(9, 9, Some(&theirs)));
        assert_eq!(c.order(false), [5, 6, 8, 9]);
        assert_eq!((c.slots(), mine.used(), theirs.used()), ((1, 1), 2, 1));
    }

    // ---- policy tests: a seeded Zipf tape, all in memory ----

    const KEYS: u64 = 8_000;
    const BUDGET: usize = 512;
    const WARMUP: usize = 2_000;
    const GETS: usize = 20_000;

    /// Zipf(0.99) popularity ranks from a seeded splitmix stream.
    struct Zipf {
        cdf: Vec<f64>,
        state: u64,
    }

    impl Zipf {
        fn new(seed: u64) -> Self {
            let mut cdf: Vec<f64> = Vec::with_capacity(KEYS as usize);
            let mut acc = 0.0;
            for r in 0..KEYS {
                acc += 1.0 / ((r + 1) as f64).powf(0.99);
                cdf.push(acc);
            }
            cdf.iter_mut().for_each(|c| *c /= acc);
            Zipf { cdf, state: seed }
        }

        fn rank(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let u = (pdm::hash::splitmix(self.state) >> 11) as f64 / (1u64 << 53) as f64;
            (self.cdf.partition_point(|&c| c <= u) as u64).min(KEYS - 1)
        }
    }

    /// Which key holds which rank: `(a, b)` with `a` coprime to [`KEYS`] is
    /// a permutation, and `a` odd deals consecutive ranks to the two caches
    /// alternately whatever `b` is.
    fn key_of(rank: u64, (a, b): (u64, u64)) -> u64 {
        (rank * a + b) % KEYS
    }

    /// Two caches sharing one tenant budget, as two shards of a `Server` do.
    struct Rig {
        budget: Arc<MemBudget>,
        caches: [HotCache<u64>; 2],
    }

    impl Rig {
        fn new() -> Self {
            let budget = MemBudget::new(BUDGET);
            let caches = [HotCache::new(Arc::default()), HotCache::new(Arc::default())];
            Rig { budget, caches }
        }

        /// One get with insert-on-miss; `true` on a hit.
        fn get(&mut self, key: u64) -> bool {
            let cache = &mut self.caches[(key % 2) as usize];
            match cache.get(key) {
                Some(v) => {
                    assert_eq!(v, !key, "cached value of {key}");
                    true
                }
                None => {
                    cache.insert(key, !key, Some(&self.budget));
                    false
                }
            }
        }

        /// Hits over `gets` draws of `zipf` under popularity `perm`.
        fn run(&mut self, zipf: &mut Zipf, perm: (u64, u64), gets: usize) -> usize {
            (0..gets)
                .filter(|step| {
                    let hit = self.get(key_of(zipf.rank(), perm));
                    self.check_accounting();
                    if step % 256 == 0 {
                        self.check_links();
                    }
                    hit
                })
                .count()
        }

        fn check_accounting(&self) {
            let resident: usize = self.caches.iter().map(HotCache::len).sum();
            assert_eq!(self.budget.used(), resident);
            assert!(resident <= BUDGET);
            for c in &self.caches {
                assert_eq!(c.probation.len + c.protected.len, c.len());
                assert!(c.protected.len <= (c.len() * 4).div_ceil(5));
            }
        }

        /// Both lists walk end to end over exactly the resident nodes, and
        /// the index names each key's node.
        fn check_links(&self) {
            for c in &self.caches {
                assert_eq!(c.order(false).len() + c.order(true).len(), c.len());
                assert_eq!(c.index.len(), c.len());
                assert!(c.index.iter().all(|(k, &i)| c.nodes[i].key == *k));
            }
        }

        /// Every resident key in recency order, per cache and segment.
        fn residents(&self) -> Vec<Vec<u64>> {
            self.caches
                .iter()
                .flat_map(|c| [c.order(false), c.order(true)])
                .collect()
        }
    }

    /// A plain LRU over the same total record count, for comparison.
    struct RefLru {
        tick: u64,
        last_used: HashMap<u64, u64>,
        by_tick: BTreeMap<u64, u64>,
    }

    impl RefLru {
        fn get(&mut self, key: u64) -> bool {
            self.tick += 1;
            let hit = match self.last_used.insert(key, self.tick) {
                Some(old) => self.by_tick.remove(&old).is_some(),
                None => false,
            };
            self.by_tick.insert(self.tick, key);
            if self.by_tick.len() > BUDGET {
                let (_, victim) = self.by_tick.pop_first().unwrap();
                self.last_used.remove(&victim);
            }
            hit
        }
    }

    #[test]
    fn zipf_tape_beats_plain_lru_with_exact_accounting() {
        let mut rig = Rig::new();
        let mut zipf = Zipf::new(1);
        rig.run(&mut zipf, (1, 0), WARMUP);
        let hits = rig.run(&mut zipf, (1, 0), GETS);

        let mut lru = RefLru {
            tick: 0,
            last_used: HashMap::new(),
            by_tick: BTreeMap::new(),
        };
        let mut zipf = Zipf::new(1);
        (0..WARMUP).for_each(|_| {
            lru.get(zipf.rank());
        });
        let lru_hits = (0..GETS).filter(|_| lru.get(zipf.rank())).count();

        let (ratio, lru_ratio) = (hits as f64 / GETS as f64, lru_hits as f64 / GETS as f64);
        assert!(ratio >= 0.64, "hit ratio {ratio:.3}");
        assert!(
            ratio >= lru_ratio + 0.04,
            "segmented {ratio:.3} vs plain LRU {lru_ratio:.3}"
        );
    }

    #[test]
    fn one_pass_scan_evicts_no_protected_entry() {
        const CAPACITY: u64 = 100;
        let mut c = with_slots(CAPACITY as usize);
        for round in 0..2 {
            for k in 0..CAPACITY / 2 {
                if c.get(k).is_none() {
                    assert_eq!(round, 0);
                    c.insert(k, k, None);
                }
            }
        }
        let hot = c.order(true);
        assert_eq!(hot.len(), 40, "4/5 of the 50 resident");
        for k in 0..10 * CAPACITY {
            assert_eq!(c.get(1_000 + k), None);
            c.insert(1_000 + k, k, None);
        }
        assert_eq!(c.len(), CAPACITY as usize);
        assert_eq!(c.order(true), hot);
    }

    #[test]
    fn a_popularity_shift_is_relearned() {
        let mut rig = Rig::new();
        let mut zipf = Zipf::new(2);
        rig.run(&mut zipf, (1, 0), WARMUP + GETS / 2);
        let steady = rig.run(&mut zipf, (1, 0), GETS / 2);
        // Every rank moves to another key: protected holds yesterday's head.
        let shifted = (3_001, 4_000);
        rig.run(&mut zipf, shifted, GETS / 2);
        let relearned = rig.run(&mut zipf, shifted, GETS / 2);
        assert!(
            relearned as f64 >= steady as f64 - 0.03 * (GETS / 2) as f64,
            "{relearned} hits after the shift vs {steady} before, of {}",
            GETS / 2
        );
    }

    #[test]
    fn invalidate_and_shrink_slots_drop_from_either_segment() {
        // Records 0–3 take the four slots, 4 and 5 the budget.
        let budget = MemBudget::new(8);
        let mut c = with_slots(4);
        for k in 0..6 {
            assert!(c.insert(k, k, Some(&budget)));
        }
        assert_eq!(c.get(0), Some(0));
        assert_eq!(c.get(1), Some(1));
        assert_eq!(
            (c.order(false), c.order(true)),
            (vec![2, 3, 4, 5], vec![0, 1])
        );
        c.invalidate(0); // protected, a slot
        c.invalidate(5); // probation, the budget
        assert_eq!((c.order(false), c.order(true)), (vec![2, 3, 4], vec![1]));
        assert_eq!((c.len(), c.slots(), budget.used()), (4, (4, 3), 1));
        assert_eq!(
            (c.stats.cache_promotions(), c.stats.cache_demotions()),
            (2, 0)
        );
        // Shrinking to two slots evicts the one slot record in excess, the
        // first victim (probation's oldest); none when they fit.
        c.shrink_slots(2);
        assert_eq!((c.order(false), c.order(true)), (vec![3, 4], vec![1]));
        assert_eq!((c.slots(), budget.used()), ((2, 2), 1));
        c.shrink_slots(3);
        assert_eq!((c.len(), c.slots()), (3, (3, 2)));
        // At no slots the rest go, from either segment; the budget's record
        // stays.
        c.shrink_slots(0);
        assert_eq!((c.order(false), c.order(true)), (vec![4], vec![]));
        assert_eq!((c.slots(), budget.used()), ((0, 0), 1));
        c.invalidate(4);
        assert!(c.is_empty() && c.order(false).is_empty() && c.order(true).is_empty());
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn same_tape_same_residents_in_the_same_segments() {
        let residents = || {
            let mut rig = Rig::new();
            rig.run(&mut Zipf::new(3), (1, 0), WARMUP + GETS);
            rig.residents()
        };
        let first = residents();
        assert_eq!(first.iter().map(Vec::len).sum::<usize>(), BUDGET);
        assert_eq!(first, residents());
    }
}
