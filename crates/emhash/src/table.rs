//! The resident table the hash operators finish a partition in.
//!
//! Hash partitioning co-locates equal keys without comparing them; the
//! in-memory step that ends each partition should not take the comparisons
//! back.  [`ResidentTable`] is open addressing (linear probing) over a
//! power-of-two array of `u32` slots pointing into one entry arena, keyed by
//! the **level-0 hash the partitioner already computed**
//! ([`em_core::key_hash`]) plus key equality: a lookup is one multiply, one
//! or two slot reads and — only where the stored hash matches — one `==`.  No `Ord`, no `Hash`, no rehash of the key.
//!
//! The slot comes from the *top* bits of a multiplicative remix of `h0`,
//! not from `h0`'s own low bits: a partition holds exactly the records whose
//! [`level_bucket`](em_core::hash::level_bucket) agreed, i.e. whose `h0` (or
//! a splitmix of it) share a residue, and a slot taken from the same bits
//! would crowd them into `1/fan_out` of the array.
//!
//! Entries live in one arena in arrival order and are emitted in key
//! order: [`ResidentTable::into_sorted`] is the one place keys are
//! compared, and nothing a caller can observe depends on slot positions.  [`ResidentMultimap`] is the join face: all
//! records in one arena, chained per key in arrival order.
//!
//! The slot array keeps at least four slots an entry, so the load factor is
//! ≤ 1/4 and linear probing inspects ≈ 1.17 slots for a hit and ≈ 1.39 for a
//! miss.  At load 1/2 (1.5 and 2.5) the probe loop's exit branch
//! mispredicts on about a third of lookups.
//!
//! Neither type charges a [`MemBudget`](em_core::MemBudget): callers charge
//! the *records* they admit (the capacity decision is theirs, in records);
//! the slot array and chain links are `O(len)` words of index overhead —
//! 4–8 `u32` slots and the stored `u64` hash, 24–40 bytes an entry, plus
//! one `u32` link a record in the multimap.

/// Slots per entry the array keeps at least: load factor ≤ 1/4, where
/// linear probing's expected probe length is ≤ 1.17 (hit) / 1.39 (miss).
const SLOTS_PER_ENTRY: usize = 4;
/// Odd multiplier of the slot remix (2⁶⁴/φ).
const REMIX: u64 = 0x9E37_79B9_7F4A_7C15;
/// The empty-slot marker; occupied slots hold an arena index plus one.
const EMPTY: u32 = 0;

struct Entry<K, V> {
    h0: u64,
    key: K,
    value: V,
}

/// An in-memory map from keys to values, addressed by a caller-supplied
/// 64-bit hash of the key and disambiguated by `K: Eq`.
///
/// Every method that takes `h0` requires the same `h0` for equal keys
/// (it is a function of the key); distinct keys may share an `h0` — they
/// stay distinct.
pub struct ResidentTable<K, V> {
    /// `entries` index + 1, or [`EMPTY`].  Length zero or a power of two.
    slots: Vec<u32>,
    entries: Vec<Entry<K, V>>,
    /// `64 − log2(slots.len())`: the remix's top bits index `slots`.
    shift: u32,
}

impl<K, V> Default for ResidentTable<K, V> {
    fn default() -> Self {
        ResidentTable {
            slots: Vec::new(),
            entries: Vec::new(),
            shift: 0,
        }
    }
}

impl<K: Eq, V> ResidentTable<K, V> {
    /// An empty table; nothing is allocated until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct keys held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no key is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forget every entry, keeping the slot array and the arena allocated.
    pub fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.entries.clear();
    }

    #[inline]
    fn home(&self, h0: u64) -> usize {
        (h0.wrapping_mul(REMIX) >> self.shift) as usize
    }

    /// The arena index of `key`, if present.
    #[inline]
    fn find(&self, h0: u64, key: &K) -> Option<usize> {
        if self.entries.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(h0);
        loop {
            let slot = self.slots[at];
            if slot == EMPTY {
                return None;
            }
            let e = &self.entries[slot as usize - 1];
            if e.h0 == h0 && e.key == *key {
                return Some(slot as usize - 1);
            }
            at = (at + 1) & mask;
        }
    }

    /// The value stored under `key`.
    #[inline]
    pub fn get(&self, h0: u64, key: &K) -> Option<&V> {
        self.find(h0, key).map(|i| &self.entries[i].value)
    }

    /// The value stored under `key`, mutably.
    #[inline]
    pub fn get_mut(&mut self, h0: u64, key: &K) -> Option<&mut V> {
        self.find(h0, key).map(|i| &mut self.entries[i].value)
    }

    /// The value stored under `key`, inserting `make()` first if the key is
    /// new (it then becomes the last entry in arrival order).
    #[inline]
    pub fn get_or_insert_with(&mut self, h0: u64, key: K, make: impl FnOnce() -> V) -> &mut V {
        let i = match self.find(h0, &key) {
            Some(i) => i,
            None => self.push_entry(h0, key, make()),
        };
        &mut self.entries[i].value
    }

    /// Append an entry for a key known to be absent; returns its index.
    fn push_entry(&mut self, h0: u64, key: K, value: V) -> usize {
        let i = self.entries.len();
        assert!(i < u32::MAX as usize, "resident table index overflow");
        if (i + 1) * SLOTS_PER_ENTRY > self.slots.len() {
            self.resize_slots(((i + 1) * SLOTS_PER_ENTRY).next_power_of_two());
        }
        self.entries.push(Entry { h0, key, value });
        self.link(i);
        i
    }

    /// Point the first free slot at or after entry `i`'s home at it.
    fn link(&mut self, i: usize) {
        let mask = self.slots.len() - 1;
        let mut at = self.home(self.entries[i].h0);
        while self.slots[at] != EMPTY {
            at = (at + 1) & mask;
        }
        self.slots[at] = i as u32 + 1;
    }

    /// Replace the slot array with `n` empty slots and re-link every entry
    /// from its stored hash (keys are neither rehashed nor compared).
    fn resize_slots(&mut self, n: usize) {
        debug_assert!(n.is_power_of_two() && n >= SLOTS_PER_ENTRY);
        self.slots.clear();
        self.slots.resize(n, EMPTY);
        self.shift = 64 - n.trailing_zeros();
        for i in 0..self.entries.len() {
            self.link(i);
        }
    }

    /// Consume the table in ascending key order — the only place this type
    /// compares keys.
    pub fn into_sorted(mut self) -> impl Iterator<Item = (K, V)>
    where
        K: Ord,
    {
        // Keys are distinct, so the unstable sort is deterministic.
        self.entries.sort_unstable_by(|a, b| a.key.cmp(&b.key));
        self.entries.into_iter().map(|e| (e.key, e.value))
    }
}

/// First and last arena index of one key's chain.
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

/// End-of-chain marker in [`ResidentMultimap`]'s arena links.
const NIL: u32 = u32::MAX;

/// The multimap face of [`ResidentTable`] for join build sides: every
/// record sits in one arena, and each key's records are linked in the order
/// they arrived — what a `Vec<R>` per key gave, without the allocation per
/// key.
pub struct ResidentMultimap<K, R> {
    chains: ResidentTable<K, Chain>,
    /// `(record, next index in the same key's chain)`.
    arena: Vec<(R, u32)>,
}

impl<K, R> Default for ResidentMultimap<K, R> {
    fn default() -> Self {
        ResidentMultimap {
            chains: ResidentTable::default(),
            arena: Vec::new(),
        }
    }
}

impl<K: Eq, R> ResidentMultimap<K, R> {
    /// An empty multimap; nothing is allocated until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records held (not distinct keys).
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True when no record is held.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Forget every record, keeping all allocations.
    pub fn clear(&mut self) {
        self.chains.clear();
        self.arena.clear();
    }

    /// Append `record` to `key`'s chain.
    #[inline]
    pub fn insert(&mut self, h0: u64, key: K, record: R) {
        let i = self.arena.len();
        assert!(i < NIL as usize, "resident multimap index overflow");
        let i = i as u32;
        self.arena.push((record, NIL));
        let chain = self
            .chains
            .get_or_insert_with(h0, key, || Chain { head: i, tail: i });
        if chain.tail != i {
            self.arena[chain.tail as usize].1 = i;
            chain.tail = i;
        }
    }

    /// `key`'s records in arrival order (empty if the key is absent).
    #[inline]
    pub fn get(&self, h0: u64, key: &K) -> impl Iterator<Item = &R> {
        let mut next = self.chains.get(h0, key).map_or(NIL, |c| c.head);
        std::iter::from_fn(move || {
            let (record, link) = self.arena.get(next as usize)?;
            next = *link;
            Some(record)
        })
    }

    /// Consume the multimap, yielding every record in arrival order across
    /// all keys — what a caller that must give the records up (a build
    /// side that stopped fitting) replays into its spill.
    pub fn into_records(self) -> impl Iterator<Item = R> {
        self.arena.into_iter().map(|(record, _)| record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::hash::{level_bucket, splitmix};
    use std::cell::Cell;
    use std::cmp::Ordering;
    use std::collections::BTreeMap;

    fn h(k: u64) -> u64 {
        em_core::key_hash(&k)
    }

    #[test]
    fn empty_and_zero_capacity_tables_answer_lookups() {
        let mut t: ResidentTable<u64, u64> = ResidentTable::new();
        assert!(t.is_empty());
        assert_eq!(t.get(h(1), &1), None);
        assert_eq!(t.get_mut(0, &0), None);
        t.clear();
        assert_eq!(t.get(h(9), &9), None);
        assert_eq!(t.into_sorted().count(), 0);
        let mut m: ResidentMultimap<u64, u64> = ResidentMultimap::new();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(h(3), &3).count(), 0);
    }

    #[test]
    fn distinct_keys_with_one_hash_stay_distinct() {
        // A full-collision tape: every key is handed the same h0, so only
        // key equality can tell them apart.
        let mut t: ResidentTable<u64, u64> = ResidentTable::new();
        for k in 0..200u64 {
            *t.get_or_insert_with(42, k, || 0) += k + 1;
        }
        for k in 0..200u64 {
            *t.get_or_insert_with(42, k, || 0) += 1000;
        }
        assert_eq!(t.len(), 200);
        for k in 0..200u64 {
            assert_eq!(t.get(42, &k), Some(&(k + 1001)));
        }
        assert_eq!(t.get(42, &200), None);
        let mut m: ResidentMultimap<u64, u64> = ResidentMultimap::new();
        for i in 0..300u64 {
            m.insert(7, i % 3, i);
        }
        for k in 0..3u64 {
            let got: Vec<u64> = m.get(7, &k).copied().collect();
            let want: Vec<u64> = (0..300).filter(|i| i % 3 == k).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn growth_across_doublings_preserves_every_entry() {
        let mut t: ResidentTable<u64, u64> = ResidentTable::new();
        let mut model = BTreeMap::new();
        let mut sizes = vec![t.slots.len()];
        for i in 0..5000u64 {
            let k = i.wrapping_mul(0x9E37_79B9) % 3000;
            *t.get_or_insert_with(h(k), k, || 0) += i;
            *model.entry(k).or_insert(0) += i;
            if *sizes.last().unwrap() != t.slots.len() {
                sizes.push(t.slots.len());
                for (k, v) in &model {
                    assert_eq!(
                        t.get(h(*k), k),
                        Some(v),
                        "after growth to {}",
                        t.slots.len()
                    );
                }
            }
        }
        assert!(sizes.len() > 8, "grew through {sizes:?}");
        assert!(t.slots.len() >= SLOTS_PER_ENTRY * t.len());
        assert_eq!(t.len(), model.len());
        assert!(t.into_sorted().eq(model));
    }

    #[test]
    fn multimap_chains_yield_arrival_order() {
        let mut m: ResidentMultimap<u64, (u64, u64)> = ResidentMultimap::new();
        let mut model: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for i in 0..4000u64 {
            let k = (i.wrapping_mul(0xABCD_EF12) ^ i >> 3) % 257;
            m.insert(h(k), k, (k, i));
            model.entry(k).or_default().push((k, i));
        }
        assert_eq!(m.len(), 4000);
        for (k, want) in &model {
            let got: Vec<(u64, u64)> = m.get(h(*k), k).copied().collect();
            assert_eq!(&got, want, "key {k}");
        }
        assert_eq!(m.get(h(999), &999).count(), 0);
        // The drain ignores the chains: global arrival order.
        assert!(m.into_records().map(|r| r.1).eq(0..4000));
    }

    #[test]
    fn clear_keeps_allocations_and_forgets_entries() {
        let mut t: ResidentTable<u64, u64> = ResidentTable::new();
        let mut m: ResidentMultimap<u64, u64> = ResidentMultimap::new();
        for k in 0..500u64 {
            t.get_or_insert_with(h(k), k, || k);
            m.insert(h(k % 50), k % 50, k);
        }
        let (slots, cap, arena_cap) = (t.slots.len(), t.entries.capacity(), m.arena.capacity());
        t.clear();
        m.clear();
        assert!(t.is_empty() && m.is_empty());
        assert_eq!(
            (t.slots.len(), t.entries.capacity(), m.arena.capacity()),
            (slots, cap, arena_cap)
        );
        for k in 0..500u64 {
            assert_eq!(t.get(h(k), &k), None);
            assert_eq!(m.get(h(k % 50), &(k % 50)).count(), 0);
        }
        // Reuse: second-round contents only.
        for k in 250..600u64 {
            t.get_or_insert_with(h(k), k, || k * 2);
            m.insert(h(k), k, k * 2);
        }
        assert_eq!(t.len(), 350);
        assert_eq!(t.get(h(10), &10), None);
        assert_eq!(t.get(h(599), &599), Some(&1198));
        assert_eq!(m.get(h(300), &300).copied().collect::<Vec<_>>(), [600]);
        assert_eq!(t.slots.len(), slots, "350 entries fit the slots 500 needed");
    }

    /// Mean distance of the stored entries from their home slots.
    fn mean_displacement<K: Eq, V>(t: &ResidentTable<K, V>) -> f64 {
        let mask = t.slots.len() - 1;
        let total: usize = (0..t.slots.len())
            .filter(|&at| t.slots[at] != EMPTY)
            .map(|at| {
                let e = &t.entries[t.slots[at] as usize - 1];
                at.wrapping_sub(t.home(e.h0)) & mask
            })
            .sum();
        total as f64 / t.len() as f64
    }

    #[test]
    fn slots_are_independent_of_the_bucket_that_filled_the_partition() {
        // A partition holds only keys whose level bucket agreed.  Were the
        // slot taken from the same bits (`h0 & mask` at level 0 with a
        // power-of-two fan-out), the keys would share 1/64 of the array and
        // sit hundreds of slots from home; uniform placement at load ≤ 1/4
        // averages under a fifth of a slot.
        for (level, fan_out) in [(0usize, 64usize), (0, 7), (1, 64), (3, 31)] {
            let mut t: ResidentTable<u64, ()> = ResidentTable::new();
            let mut k = 0u64;
            while t.len() < 4000 {
                if level_bucket(h(k), level, fan_out) == 0 {
                    t.get_or_insert_with(h(k), k, || ());
                }
                k += 1;
            }
            let mean = mean_displacement(&t);
            assert!(
                mean <= 1.0,
                "level {level} fan-out {fan_out}: {mean} slots from home"
            );
        }
    }

    #[test]
    fn probes_stay_short_where_the_table_is_fullest() {
        // Slots inspected, counted from the slot positions: a hit walks
        // from its home to its own slot, a miss from its home to the first
        // empty one.  At n = 1 024 and 4 096 the array is exactly
        // `SLOTS_PER_ENTRY · n`, its fullest; at load 1/4 linear probing
        // expects 1.17 (hit) and 1.39 (miss), at 1/2 it expects 1.5 and 2.5.
        for n in [1024u64, 4096] {
            let mut t: ResidentTable<u64, ()> = ResidentTable::new();
            for k in 0..n {
                t.get_or_insert_with(h(k), k, || ());
            }
            assert_eq!(t.slots.len(), SLOTS_PER_ENTRY * n as usize);
            let mask = t.slots.len() - 1;
            let hit = 1.0 + mean_displacement(&t);
            let misses = 100_000u64;
            let missed: usize = (n..n + misses)
                .map(|k| {
                    let mut at = t.home(h(k));
                    let mut inspected = 1;
                    while t.slots[at] != EMPTY {
                        at = (at + 1) & mask;
                        inspected += 1;
                    }
                    inspected
                })
                .sum();
            let miss = missed as f64 / misses as f64;
            assert!(hit <= 1.25, "n = {n}: {hit} slots a hit");
            assert!(miss <= 1.5, "n = {n}: {miss} slots a miss");
        }
    }

    thread_local! {
        static CMPS: Cell<u64> = const { Cell::new(0) };
        static EQS: Cell<u64> = const { Cell::new(0) };
    }

    /// A key that counts its comparisons (per test thread).
    #[derive(Clone, Debug)]
    struct Counted(u64);

    impl PartialEq for Counted {
        fn eq(&self, other: &Self) -> bool {
            EQS.with(|c| c.set(c.get() + 1));
            self.0 == other.0
        }
    }
    impl Eq for Counted {}
    impl PartialOrd for Counted {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Counted {
        fn cmp(&self, other: &Self) -> Ordering {
            CMPS.with(|c| c.set(c.get() + 1));
            self.0.cmp(&other.0)
        }
    }

    #[test]
    fn lookups_never_order_keys_and_rarely_compare_them() {
        // 20 000 operations over 1 500 keys on a random tape: growth,
        // hits, misses.  No `Ord::cmp` at all; `==` runs only where the
        // stored 64-bit hash already matched, i.e. once per hit and never
        // on a miss, short of a full 64-bit collision.
        let mut t: ResidentTable<Counted, u64> = ResidentTable::new();
        let mut m: ResidentMultimap<Counted, u64> = ResidentMultimap::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut ops = 0u64;
        for i in 0..10_000u64 {
            x = splitmix(x);
            let k = x % 1500;
            *t.get_or_insert_with(h(k), Counted(k), || 0) += 1;
            m.insert(h(k), Counted(k), i);
            let probe = splitmix(x) % 3000; // half the probes miss
            let hit = t.get(h(probe), &Counted(probe)).is_some();
            assert_eq!(hit, m.get(h(probe), &Counted(probe)).next().is_some());
            ops += 4;
        }
        assert_eq!(CMPS.with(Cell::get), 0, "lookups compared key order");
        let eqs = EQS.with(Cell::get);
        assert!(eqs <= ops, "{eqs} `==` calls for {ops} operations");
        // The sort at the end is where ordering is paid for, once per key.
        let n = t.len() as u64;
        assert!(t.into_sorted().map(|(k, _)| k.0).is_sorted());
        let cmps = CMPS.with(Cell::get);
        assert!(cmps > 0 && cmps <= 2 * n * (64 - n.leading_zeros() as u64));
    }
}
