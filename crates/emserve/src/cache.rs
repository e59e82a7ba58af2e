//! Hot-key read cache with per-tenant memory admission.
//!
//! One [`HotCache`] sits in front of each (shard, tenant) pair.  Entries are
//! charged against a *shared per-tenant* [`MemBudget`], so the sum of a
//! tenant's cached records across every shard never exceeds that tenant's
//! grant — one tenant's hot set cannot squeeze out another's, which is the
//! serving-layer analogue of the allocation discipline the PDM structures
//! already follow internally.
//!
//! Within a cache the policy is a **two-segment LRU** (SLRU).  A record that
//! missed is admitted to *probation*; a hit there promotes it to
//! *protected*; protected is held to 4/5 of what is resident by demoting its
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
//! (no ghost list, no frequency sketch — memory the tenant budget would
//! have to be charged for), and *Σ resident ≤ tenant budget*.  Each
//! segment's recency order is a doubly linked list threaded through one
//! dense vector of the resident records, so get, insert, invalidate and
//! evict are `O(1)` beside their one hash lookup, and a fixed access tape
//! leaves a fixed resident set in a fixed order.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use em_core::{BudgetGuard, MemBudget};

/// Protected's share of the resident records.  The share is of `len()`, not
/// of `capacity`: the tenant budget shared across shards, not the local cap,
/// is what usually binds.  Any probation share from 1/16 to 1/5 scores the
/// same on Zipf tapes, so this is a constant and not a knob.
const PROTECTED_SHARE: (usize, usize) = (4, 5);

/// "No neighbour" in a [`Node`]'s links and a [`Segment`]'s ends.
const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    protected: bool,
    /// Neighbours in this node's segment, as indices into `HotCache::nodes`.
    older: usize,
    newer: usize,
    /// Holds the tenant budget charge for this record; released on eviction.
    _guard: BudgetGuard,
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

/// A record-budgeted segmented-LRU cache of positive lookups for one
/// (shard, tenant).
///
/// Admission can fail (returning `false` from [`HotCache::insert`]) when the
/// tenant's shared budget is exhausted *and* this cache holds nothing
/// evictable — the entry is simply not cached, never silently over-admitted.
pub struct HotCache<K, V> {
    /// Where each resident key's node is.
    index: HashMap<K, usize>,
    /// The resident records, dense: a removal moves the last node into the
    /// hole.
    nodes: Vec<Node<K, V>>,
    probation: Segment,
    protected: Segment,
    budget: Arc<MemBudget>,
    /// Local record cap for this cache, independent of the shared budget.
    capacity: usize,
    promotions: u64,
    demotions: u64,
}

impl<K: Clone + Eq + Hash, V: Clone> HotCache<K, V> {
    /// A cache holding at most `capacity` records locally, each admitted
    /// record charging one record on the tenant-wide `budget`.
    pub fn new(budget: Arc<MemBudget>, capacity: usize) -> Self {
        HotCache {
            index: HashMap::new(),
            nodes: Vec::new(),
            probation: Segment::EMPTY,
            protected: Segment::EMPTY,
            budget,
            capacity,
            promotions: 0,
            demotions: 0,
        }
    }

    /// Cached value for `key`; a hit moves it to protected's recent end.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let i = *self.index.get(key)?;
        self.touch(i);
        Some(self.nodes[i].value.clone())
    }

    /// Admit `key -> value` on probation, or refresh it as a hit would.
    /// Returns `false` when the tenant budget denied admission and nothing
    /// local could be evicted.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        if let Some(&i) = self.index.get(&key) {
            self.nodes[i].value = value;
            self.touch(i);
            return true;
        }
        if self.capacity == 0 {
            return false;
        }
        if self.nodes.len() >= self.capacity {
            self.evict();
        }
        let guard = match self.budget.try_charge(1) {
            Some(g) => Some(g),
            // The tenant's budget is held elsewhere (other shards, or a
            // scan); make room locally once, then give up gracefully.
            None if self.evict() => self.budget.try_charge(1),
            None => None,
        };
        let admitted = guard.is_some();
        if let Some(guard) = guard {
            let i = self.nodes.len();
            self.index.insert(key.clone(), i);
            self.nodes.push(Node {
                key,
                value,
                protected: false,
                older: NIL,
                newer: NIL,
                _guard: guard,
            });
            self.link_newest(i);
        }
        // A denied admission may have evicted, shrinking protected's share.
        self.rebalance();
        admitted
    }

    /// Drop `key` if cached (called before every write to the key).
    pub(crate) fn invalidate(&mut self, key: &K) {
        if let Some(&i) = self.index.get(key) {
            self.remove(i);
            self.rebalance();
        }
    }

    /// Drop everything, releasing all budget charges.
    pub fn clear(&mut self) {
        self.index.clear();
        self.nodes.clear();
        self.probation = Segment::EMPTY;
        self.protected = Segment::EMPTY;
    }

    /// True when `key` is resident; unlike [`get`](Self::get), not a
    /// reference to it.
    pub(crate) fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Raise the local record cap to `capacity`, which is never below what
    /// is resident.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        debug_assert!(capacity >= self.len(), "a cap below the resident records");
        self.capacity = capacity;
    }

    /// Number of cached records.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Probation → protected moves so far (monotone).
    pub(crate) fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Protected → probation moves so far (monotone).
    pub(crate) fn demotions(&self) -> u64 {
        self.demotions
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
            self.promotions += 1;
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
            self.demotions += 1;
        }
    }

    /// Evict probation's least recent entry, or protected's when probation
    /// is empty; `false` if the cache was empty.
    fn evict(&mut self) -> bool {
        let victim = match self.probation.oldest {
            NIL => self.protected.oldest,
            i => i,
        };
        if victim != NIL {
            self.remove(victim);
        }
        victim != NIL
    }

    /// Remove node `i`, releasing its charge, and keep `nodes` dense: the
    /// last node moves into the hole and everything that named its old
    /// position is told the new one.
    fn remove(&mut self, i: usize) {
        self.unlink(i);
        let gone = self.nodes.swap_remove(i);
        self.index.remove(&gone.key);
        let Some(moved) = self.nodes.get(i) else {
            return;
        };
        let (protected, older, newer) = (moved.protected, moved.older, moved.newer);
        self.index.insert(moved.key.clone(), i);
        self.splice(protected, older, newer, i, i);
    }

    /// `protected`'s (or probation's) keys, least recent first.
    #[cfg(test)]
    fn order(&self, protected: bool) -> Vec<K> {
        let segment = if protected {
            &self.protected
        } else {
            &self.probation
        };
        let mut keys = Vec::with_capacity(segment.len);
        let mut i = segment.oldest;
        while i != NIL {
            keys.push(self.nodes[i].key.clone());
            i = self.nodes[i].newer;
        }
        assert_eq!(keys.len(), segment.len);
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn lru_eviction_within_local_capacity() {
        let budget = MemBudget::new(100);
        let mut c: HotCache<u64, u64> = HotCache::new(budget.clone(), 2);
        assert!(c.insert(1, 10));
        assert!(c.insert(2, 20));
        assert_eq!(c.get(&1), Some(10)); // refresh 1; 2 is now LRU
        assert!(c.insert(3, 30));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
        assert_eq!(budget.used(), 2);
    }

    #[test]
    fn shared_budget_gates_admission_across_caches() {
        let budget = MemBudget::new(2);
        let mut a: HotCache<u64, u64> = HotCache::new(budget.clone(), 8);
        let mut b: HotCache<u64, u64> = HotCache::new(budget.clone(), 8);
        assert!(a.insert(1, 1));
        assert!(a.insert(2, 2));
        // Tenant budget is fully held by cache `a`; `b` may evict locally,
        // finds nothing, and must refuse.
        assert!(!b.insert(9, 9));
        assert_eq!(b.len(), 0);
        // Releasing from `a` lets `b` admit.
        a.invalidate(&1);
        assert!(b.insert(9, 9));
        assert_eq!(budget.used(), 2);
    }

    #[test]
    fn local_pressure_evicts_before_refusing() {
        let budget = MemBudget::new(1);
        let mut c: HotCache<u64, u64> = HotCache::new(budget.clone(), 8);
        assert!(c.insert(1, 1));
        // Budget exhausted by our own entry: evict it, admit the new one.
        assert!(c.insert(2, 2));
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(2));
        assert_eq!(budget.used(), 1);
    }

    #[test]
    fn invalidate_and_overwrite() {
        let budget = MemBudget::new(4);
        let mut c: HotCache<u64, u64> = HotCache::new(budget.clone(), 4);
        assert!(c.insert(1, 1));
        assert!(c.insert(1, 100)); // refresh does not double-charge
        assert_eq!(budget.used(), 1);
        assert_eq!(c.get(&1), Some(100));
        c.invalidate(&1);
        assert!(c.is_empty());
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn zero_capacity_cache_never_admits() {
        let budget = MemBudget::new(4);
        let mut c: HotCache<u64, u64> = HotCache::new(budget, 0);
        assert!(!c.insert(1, 1));
        assert!(c.is_empty());
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
        caches: [HotCache<u64, u64>; 2],
    }

    impl Rig {
        fn new() -> Self {
            let budget = MemBudget::new(BUDGET);
            let caches = [
                HotCache::new(budget.clone(), BUDGET),
                HotCache::new(budget.clone(), BUDGET),
            ];
            Rig { budget, caches }
        }

        /// One get with insert-on-miss; `true` on a hit.
        fn get(&mut self, key: u64) -> bool {
            let cache = &mut self.caches[(key % 2) as usize];
            match cache.get(&key) {
                Some(v) => {
                    assert_eq!(v, !key, "cached value of {key}");
                    true
                }
                None => {
                    cache.insert(key, !key);
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
        let budget = MemBudget::new(1 << 20);
        let mut c: HotCache<u64, u64> = HotCache::new(budget, CAPACITY as usize);
        for round in 0..2 {
            for k in 0..CAPACITY / 2 {
                if c.get(&k).is_none() {
                    assert_eq!(round, 0);
                    c.insert(k, k);
                }
            }
        }
        let hot = c.order(true);
        assert_eq!(hot.len(), 40, "4/5 of the 50 resident");
        for k in 0..10 * CAPACITY {
            assert_eq!(c.get(&(1_000 + k)), None);
            c.insert(1_000 + k, k);
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
    fn invalidate_releases_from_either_segment_and_clear_empties_both() {
        let budget = MemBudget::new(8);
        let mut c: HotCache<u64, u64> = HotCache::new(budget.clone(), 8);
        for k in 0..6 {
            assert!(c.insert(k, k));
        }
        assert_eq!(c.get(&0), Some(0));
        assert_eq!(c.get(&1), Some(1));
        assert_eq!(
            (c.order(false), c.order(true)),
            (vec![2, 3, 4, 5], vec![0, 1])
        );
        c.invalidate(&0); // protected
        c.invalidate(&5); // probation
        assert_eq!((c.order(false), c.order(true)), (vec![2, 3, 4], vec![1]));
        assert_eq!((c.len(), budget.used()), (4, 4));
        assert_eq!((c.promotions(), c.demotions()), (2, 0));
        c.clear();
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
