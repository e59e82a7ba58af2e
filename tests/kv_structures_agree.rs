//! Differential test: the four external dictionaries (B-tree, buffer tree,
//! extendible hash, and the emserve serving shard that composes the first
//! two) replay the same randomized operation tape and must end in identical
//! states — and match `std::collections` models.

use em_core::hash::Draws;
use em_core::EmConfig;
use emhash::ExtendibleHash;
use emserve::Shard;
use emtree::{BTree, BufferTree};
use pdm::SharedDevice;
use pdm::{
    BlockDevice, BufferPool, DiskArray, EvictionPolicy, FaultPlan, IoMode, Placement, RetryPolicy,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, u64),
    Delete(u64),
}

fn random_tape(len: usize, key_space: u64, seed: u64) -> Vec<Op> {
    let mut rng = Draws::new(seed);
    (0..len)
        .map(|_| {
            let k = rng.below(key_space);
            if rng.unit() < 0.7 {
                Op::Insert(k, rng.next_u64())
            } else {
                Op::Delete(k)
            }
        })
        .collect()
}

/// Replay `tape` through an emserve `Shard` the way its drain thread would:
/// enqueue into batches of `batch_max`, flush (collecting acks), compact when
/// the delta crosses the shard's threshold.  Returns the acked op count.
fn replay_on_shard(s: &mut Shard<u64, u64>, tape: &[Op], batch_max: usize) -> usize {
    let mut acked = 0usize;
    for (i, op) in tape.iter().enumerate() {
        match *op {
            Op::Insert(k, v) => s.enqueue(0, i as u64, k, Some(v)),
            Op::Delete(k) => s.enqueue(0, i as u64, k, None),
        }
        if s.batch_len() >= batch_max {
            acked += s.flush_batch(|_, _| {}).unwrap();
            s.maybe_compact().unwrap();
        }
    }
    acked += s.flush_batch(|_, _| {}).unwrap();
    acked
}

#[test]
fn all_four_dictionaries_converge() {
    let tape = random_tape(25_000, 3_000, 3001);
    let cfg = EmConfig::new(512, 64);

    // Reference.
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in &tape {
        match *op {
            Op::Insert(k, v) => {
                model.insert(k, v);
            }
            Op::Delete(k) => {
                model.remove(&k);
            }
        }
    }
    let expect: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();

    // B-tree.
    let pool = BufferPool::new(cfg.ram_disk(), 16, EvictionPolicy::Lru);
    let mut bt: BTree<u64, u64> = BTree::new(pool).unwrap();
    for op in &tape {
        match *op {
            Op::Insert(k, v) => {
                bt.insert(k, v).unwrap();
            }
            Op::Delete(k) => {
                bt.remove(&k).unwrap();
            }
        }
    }
    bt.check_invariants().unwrap();
    assert_eq!(bt.range(&0, &u64::MAX).unwrap(), expect, "B-tree state");

    // Buffer tree.
    let mut bft: BufferTree<u64, u64> = BufferTree::new(cfg.ram_disk(), 2048);
    for op in &tape {
        match *op {
            Op::Insert(k, v) => bft.insert(k, v).unwrap(),
            Op::Delete(k) => bft.delete(k).unwrap(),
        }
    }
    assert_eq!(
        bft.to_sorted_ext_vec().unwrap().to_vec().unwrap(),
        expect,
        "buffer tree state"
    );

    // Extendible hash.
    let pool = BufferPool::new(cfg.ram_disk(), 16, EvictionPolicy::Lru);
    let mut eh: ExtendibleHash<u64, u64> = ExtendibleHash::new(pool).unwrap();
    for op in &tape {
        match *op {
            Op::Insert(k, v) => {
                eh.insert(k, v).unwrap();
            }
            Op::Delete(k) => {
                eh.remove(&k).unwrap();
            }
        }
    }
    let mut hashed = eh.to_vec().unwrap();
    hashed.sort_unstable();
    assert_eq!(hashed, expect, "hash state");

    // Serving shard (B-tree + delta overlay),
    // driven the way the emserve drain thread drives it: batched enqueues,
    // periodic flushes, threshold compactions.  Mid-tape, range scans must
    // already agree with a prefix model — that is the delta overlay
    // answering for ops the tree has not yet seen.
    let mut shard: Shard<u64, u64> = Shard::new(cfg.ram_disk(), 16, 4096, 1024).unwrap();
    let mid = tape.len() / 2;
    let acked_first = replay_on_shard(&mut shard, &tape[..mid], 64);
    let mut prefix: BTreeMap<u64, u64> = BTreeMap::new();
    for op in &tape[..mid] {
        match *op {
            Op::Insert(k, v) => {
                prefix.insert(k, v);
            }
            Op::Delete(k) => {
                prefix.remove(&k);
            }
        }
    }
    let want_mid: Vec<(u64, u64)> = prefix.range(750..=2_250).map(|(&k, &v)| (k, v)).collect();
    assert_eq!(
        shard.range(0, &750, &2_250).unwrap(),
        want_mid,
        "shard mid-tape range (delta overlay)"
    );
    let acked = acked_first + replay_on_shard(&mut shard, &tape[mid..], 64);
    assert_eq!(acked, tape.len(), "every batched op acked exactly once");
    assert_eq!(
        shard.range(0, &0, &u64::MAX).unwrap(),
        expect,
        "shard state pre-compaction"
    );
    shard.compact().unwrap();
    shard.check_invariants().unwrap();
    assert_eq!(shard.pending(), 0);
    assert_eq!(shard.tree_len() as usize, expect.len());
    assert_eq!(
        shard.range(0, &0, &u64::MAX).unwrap(),
        expect,
        "shard state post-compaction"
    );

    // Spot point lookups across all four.
    let mut rng = Draws::new(3002);
    for _ in 0..200 {
        let k = rng.below(3_000);
        let want = model.get(&k).copied();
        assert_eq!(bt.get(&k).unwrap(), want);
        assert_eq!(bft.get(&k).unwrap(), want);
        assert_eq!(eh.get(&k).unwrap(), want);
        assert_eq!(shard.get(0, &k).unwrap(), want);
    }
    // Keys the tape never wrote, after the shard's compaction: its key filter
    // answers most of them without the tree, and every answer is absent.
    for k in 3_000..4_000u64 {
        assert_eq!(bt.get(&k).unwrap(), None);
        assert_eq!(bft.get(&k).unwrap(), None);
        assert_eq!(eh.get(&k).unwrap(), None);
        assert_eq!(shard.get(0, &k).unwrap(), None, "key {k}");
    }
}

/// The serving shard must reach the same final state when every device in
/// its array injects transient faults that the retry layer cures — and the
/// plan must actually have fired, or the test proves nothing.
#[test]
fn serving_shard_agrees_under_cured_faults() {
    let tape = random_tape(8_000, 1_000, 3003);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in &tape {
        match *op {
            Op::Insert(k, v) => {
                model.insert(k, v);
            }
            Op::Delete(k) => {
                model.remove(&k);
            }
        }
    }
    let expect: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();

    let plans: Vec<FaultPlan> = (0..2u64)
        .map(|d| FaultPlan::new(0x0DD5 + d).with_transient(80, 2))
        .collect();
    let array = DiskArray::new_ram_faulty(
        2,
        512,
        Placement::Independent,
        IoMode::Synchronous,
        &plans,
        RetryPolicy::new(4),
    );
    let mut shard: Shard<u64, u64> = Shard::new(array.clone(), 16, 2048, 512).unwrap();
    let acked = replay_on_shard(&mut shard, &tape, 64);
    assert_eq!(acked, tape.len());
    shard.compact().unwrap();
    shard.check_invariants().unwrap();
    assert_eq!(
        shard.range(0, &0, &u64::MAX).unwrap(),
        expect,
        "cured-fault shard state"
    );

    let snap = array.stats().snapshot();
    assert!(snap.faults_injected() > 0, "fault plan never fired");
    assert!(snap.retries() > 0, "faults were injected but never retried");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Extendible hashing driven past two directory doublings on a faulty
    /// array whose transient faults always cure within the retry budget:
    /// every operation must succeed, and after the directory has doubled
    /// (and doubled again) around them, every inserted pair must read back
    /// byte-identical, misses must still miss, and the full contents must
    /// match a `BTreeMap` model.
    #[test]
    fn extendible_hash_doubles_twice_under_cured_faults(
        seed in any::<u64>(),
        permille in 0u64..=80,
        key_stride in 1u64..=257,
    ) {
        let plans: Vec<FaultPlan> = (0..2u64)
            .map(|d| {
                FaultPlan::new(seed.wrapping_add(d).wrapping_mul(0x9E37_79B9))
                    .with_transient(permille, 2)
            })
            .collect();
        // Two failing attempts per faulted block, three retries: every
        // injected fault cures before the budget runs out.
        let array = DiskArray::new_ram_faulty(
            2,
            256,
            Placement::Independent,
            IoMode::Synchronous,
            &plans,
            RetryPolicy::new(3),
        );
        let pool = BufferPool::new(array.clone() as SharedDevice, 16, EvictionPolicy::Lru);
        let mut eh: ExtendibleHash<u64, u64> = ExtendibleHash::new(pool).unwrap();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();

        let mut k = seed % 1024;
        while eh.doublings() < 2 {
            let v = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
            eh.insert(k, v).unwrap();
            model.insert(k, v);
            k = k.wrapping_add(key_stride);
            prop_assert!(model.len() < 4096, "directory refused to double");
        }
        prop_assert!(eh.doublings() >= 2);
        prop_assert!(eh.directory_size() >= 4);
        prop_assert_eq!(eh.len() as usize, model.len());

        // Lookup-after-cure: byte-identity for every key the table has ever
        // absorbed, across however many splits and doublings moved it.
        for (&k, &v) in &model {
            prop_assert_eq!(eh.get(&k).unwrap(), Some(v));
        }
        let mut miss = seed % 1024;
        while model.contains_key(&miss) {
            miss = miss.wrapping_add(1);
        }
        prop_assert_eq!(eh.get(&miss).unwrap(), None);

        let mut all = eh.to_vec().unwrap();
        all.sort_unstable();
        let expect: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(all, expect);

        if permille > 0 {
            let snap = array.stats().snapshot();
            prop_assert!(snap.faults_injected() == 0 || snap.retries() > 0,
                "injected faults must have been retried, not surfaced");
        }
    }
}
