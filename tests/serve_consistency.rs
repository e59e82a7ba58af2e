//! Property tests for the emserve serving layer's consistency contract.
//!
//! The server promises that concurrent batched ingest is *equivalent to a
//! sequential replay*: ops on one key are FIFO through that key's shard
//! queue, so every get observes exactly the value a sequential reference
//! map would hold at that point — including gets that land while the write
//! is still in an open (unflushed) batch, which is the read-your-writes
//! delta overlay doing its job.  The properties below check that claim
//! across shard counts × disk counts × placement × batch size (down to one op),
//! and that every acknowledged write survives into the final state both
//! before and after forced compaction.  A state-machine test then drives
//! every call of the surface, ranges and compactions included, against a
//! `BTreeMap` model.  A last test shrinks the record cache
//! to four and to eight records, so that its two segments promote, demote
//! and evict within a few ops, and checks that no get is answered stale.

use emserve::{CompletionSink, ReqKind, Request, ServeConfig, Server, Shard};
use pdm::{DiskArray, Placement};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Records every completion: acks are counted, gets keep `(op_id, value)`.
struct RecordingSink {
    acks: AtomicU64,
    gots: Mutex<Vec<(u64, Option<u64>)>>,
}

impl RecordingSink {
    fn new() -> Arc<Self> {
        Arc::new(RecordingSink {
            acks: AtomicU64::new(0),
            gots: Mutex::new(Vec::new()),
        })
    }

    fn acks(&self) -> u64 {
        self.acks.load(Ordering::SeqCst)
    }

    /// Get completions sorted back into submission (`op_id`) order.
    fn gots_in_order(&self) -> Vec<(u64, Option<u64>)> {
        let mut g = self.gots.lock().unwrap().clone();
        g.sort_by_key(|&(id, _)| id);
        g
    }
}

impl CompletionSink<u64> for RecordingSink {
    fn acked_write(&self, _tenant: u32, _op_id: u64) {
        self.acks.fetch_add(1, Ordering::SeqCst);
    }
    fn got(&self, _tenant: u32, op_id: u64, value: Option<u64>) {
        self.gots.lock().unwrap().push((op_id, value));
    }
}

/// One generated request: `(tenant, key, selector, value)`; the selector
/// picks put (0..4), delete (4..6) or get (6..10) — a 40/20/40 mix.
type TapeOp = (u32, u64, u8, u64);

/// What a sequential replay of a tape predicts: the final map and the value
/// every get must observe, as `(op_id, value)`.
type Reference = (BTreeMap<(u32, u64), u64>, Vec<(u64, Option<u64>)>, u64);

/// Drive `tape` through a server, mirroring it into a sequential reference.
/// Returns `(reference_map, expected_get_results, write_count)`.
fn drive(srv: &Server<u64, u64>, tape: &[TapeOp]) -> Reference {
    let mut reference: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    let mut expect_gots: Vec<(u64, Option<u64>)> = Vec::new();
    let mut writes = 0u64;
    for (i, &(tenant, key, sel, val)) in tape.iter().enumerate() {
        let op_id = i as u64;
        let kind = if sel < 4 {
            writes += 1;
            reference.insert((tenant, key), val);
            ReqKind::Put(key, val)
        } else if sel < 6 {
            writes += 1;
            reference.remove(&(tenant, key));
            ReqKind::Delete(key)
        } else {
            expect_gots.push((op_id, reference.get(&(tenant, key)).copied()));
            ReqKind::Get(key)
        };
        srv.submit(Request {
            tenant,
            op_id,
            kind,
        })
        .unwrap();
    }
    (reference, expect_gots, writes)
}

/// The reference map's view of one tenant, in `Server::range` shape.
fn tenant_slice(reference: &BTreeMap<(u32, u64), u64>, tenant: u32) -> Vec<(u64, u64)> {
    reference
        .range((tenant, 0)..=(tenant, u64::MAX))
        .map(|(&(_, k), &v)| (k, v))
        .collect()
}

fn small_config(shards: usize, batch_max: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(shards, 2);
    cfg.batch_max = batch_max;
    // A deadline no clock reaches: flushes happen on size (or barrier), so
    // small batches genuinely sit open and gets must be answered from the
    // delta overlay.
    cfg.batch_deadline = Duration::MAX;
    cfg.compact_threshold = 64;
    cfg.pool_frames = 16;
    cfg.cache_records = 32;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Concurrent ingest ≡ sequential reference, across shard counts ×
    /// disk counts × placement × batch size (1 = flush per op), with compaction forced
    /// at the end to prove acked writes survive the log→tree move.
    #[test]
    fn ingest_matches_sequential_reference(
        shards in 1usize..=4,
        disks in 1usize..=4,
        striped in any::<bool>(),
        batch_max in 1usize..=16,
        tape in prop::collection::vec(
            (0u32..2, 0u64..48, 0u8..10, 1u64..1_000_000),
            1..250,
        ),
    ) {
        let placement = if striped {
            Placement::Striped
        } else {
            Placement::Independent
        };
        let array = DiskArray::new_ram(disks, 512, placement);
        let sink = RecordingSink::new();
        let srv: Server<u64, u64> =
            Server::new(array, small_config(shards, batch_max), sink.clone()).unwrap();

        let (reference, expect_gots, writes) = drive(&srv, &tape);
        srv.barrier().unwrap();

        // Every write acked exactly once, no get lost, every get saw the
        // sequential-reference value (read-your-writes included: with a
        // deadline no clock reaches, most answered from an open batch's
        // overlay).
        prop_assert_eq!(sink.acks(), writes);
        prop_assert_eq!(sink.gots_in_order(), expect_gots);

        for tenant in 0..2u32 {
            let want = tenant_slice(&reference, tenant);
            prop_assert_eq!(
                srv.range(tenant, 0, u64::MAX).unwrap(),
                want.clone(),
                "tenant {} pre-compaction",
                tenant
            );
        }
        srv.compact_all().unwrap();
        for tenant in 0..2u32 {
            let want = tenant_slice(&reference, tenant);
            prop_assert_eq!(
                srv.range(tenant, 0, u64::MAX).unwrap(),
                want,
                "tenant {} post-compaction",
                tenant
            );
        }
        srv.shutdown().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Put → get → delete → get → put → get per key, with a batch size
    /// small enough that the sequence straddles flush boundaries: each get
    /// must see the write just before it whether that write is still in
    /// the open batch, absorbed, or already compacted into the tree.
    #[test]
    fn read_your_writes_across_the_batch_boundary(
        shards in 1usize..=3,
        batch_max in 1usize..=8,
        keys in prop::collection::vec(0u64..1_000, 1..32),
        v1 in 1u64..1_000_000,
        v2 in 1u64..1_000_000,
    ) {
        let array = DiskArray::new_ram(2, 512, Placement::Independent);
        let sink = RecordingSink::new();
        let mut cfg = small_config(shards, batch_max);
        cfg.compact_threshold = 8; // compact aggressively mid-stream too
        let srv: Server<u64, u64> = Server::new(array, cfg, sink.clone()).unwrap();

        let mut op_id = 0u64;
        let mut expect: Vec<(u64, Option<u64>)> = Vec::new();
        let mut submit = |kind: ReqKind<u64, u64>, want: Option<Option<u64>>| {
            if let Some(w) = want {
                expect.push((op_id, w));
            }
            srv.submit(Request { tenant: 0, op_id, kind }).unwrap();
            op_id += 1;
        };
        for &k in &keys {
            submit(ReqKind::Put(k, v1), None);
            submit(ReqKind::Get(k), Some(Some(v1)));
            submit(ReqKind::Delete(k), None);
            submit(ReqKind::Get(k), Some(None));
            submit(ReqKind::Put(k, v2), None);
            submit(ReqKind::Get(k), Some(Some(v2)));
        }
        srv.barrier().unwrap();
        prop_assert_eq!(sink.acks(), 3 * keys.len() as u64);
        prop_assert_eq!(sink.gots_in_order(), expect);

        // Final state: each distinct key holds v2 exactly once.
        let mut want_final: Vec<(u64, u64)> = {
            let mut ks = keys.clone();
            ks.sort_unstable();
            ks.dedup();
            ks.into_iter().map(|k| (k, v2)).collect()
        };
        want_final.sort_unstable();
        prop_assert_eq!(srv.range(0, 0, u64::MAX).unwrap(), want_final);
        srv.shutdown().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A seeded state machine over the whole `Server` surface: put, delete,
    /// get, range and `compact_all` interleaved across two tenants at one
    /// and at three shards, against a `BTreeMap` model.  A range or a
    /// compaction is a synchronous call, so each range answer is checked
    /// the moment it returns; gets complete through the sink and are
    /// checked, each against the model as of its submission, at the end.
    /// `compact_threshold = 16` lets new keys and overwrites trigger
    /// compactions of their own between the forced ones.
    #[test]
    fn server_agrees_with_a_btreemap_model_at_every_step(
        three_shards in any::<bool>(),
        steps in prop::collection::vec(
            (0u8..10, 0u32..2, 0u64..32, 0u64..1_000_000),
            1..300,
        ),
    ) {
        let shards = if three_shards { 3 } else { 1 };
        let array = DiskArray::new_ram(shards, 512, Placement::Independent);
        let sink = RecordingSink::new();
        let mut cfg = small_config(shards, 4);
        cfg.compact_threshold = 16;
        let srv: Server<u64, u64> = Server::new(array, cfg, sink.clone()).unwrap();

        let mut model: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        let mut expect_gots = Vec::new();
        let mut writes = 0u64;
        for (i, &(sel, tenant, key, val)) in steps.iter().enumerate() {
            let op_id = i as u64;
            let kind = match sel {
                0..=3 => {
                    model.insert((tenant, key), val);
                    ReqKind::Put(key, val)
                }
                4 | 5 => {
                    model.remove(&(tenant, key));
                    ReqKind::Delete(key)
                }
                6 | 7 => {
                    expect_gots.push((op_id, model.get(&(tenant, key)).copied()));
                    ReqKind::Get(key)
                }
                8 => {
                    let (lo, hi) = (key.min(val % 32), key.max(val % 32));
                    let want: Vec<(u64, u64)> = model
                        .range((tenant, lo)..=(tenant, hi))
                        .map(|(&(_, k), &v)| (k, v))
                        .collect();
                    prop_assert_eq!(srv.range(tenant, lo, hi).unwrap(), want, "step {}", i);
                    continue;
                }
                _ => {
                    srv.compact_all().unwrap();
                    continue;
                }
            };
            writes += u64::from(sel < 6);
            srv.submit(Request { tenant, op_id, kind }).unwrap();
        }
        srv.barrier().unwrap();
        prop_assert_eq!(sink.acks(), writes);
        prop_assert_eq!(sink.gots_in_order(), expect_gots);
        for tenant in 0..2u32 {
            prop_assert_eq!(
                srv.range(tenant, 0, u64::MAX).unwrap(),
                tenant_slice(&model, tenant),
                "tenant {} at the end",
                tenant
            );
        }
        srv.shutdown().unwrap();
    }
}

/// The same tape through two independently built servers produces
/// bit-identical completions and final state — routing is seeded FNV, queue
/// drains are FIFO, and the storage substrate is deterministic.
#[test]
fn replay_is_deterministic() {
    let tape: Vec<TapeOp> = (0..600u64)
        .map(|i| {
            // Cheap LCG keeps the tape fixed without pulling in a RNG.
            let r = i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((i % 2) as u32, r >> 40 & 0x3f, (r >> 33 & 0x7) as u8, r | 1)
        })
        .collect();
    let run = || {
        let array = DiskArray::new_ram(2, 512, Placement::Independent);
        let sink = RecordingSink::new();
        let srv: Server<u64, u64> = Server::new(array, small_config(3, 16), sink.clone()).unwrap();
        drive(&srv, &tape);
        srv.barrier().unwrap();
        let state = srv.range(0, 0, u64::MAX).unwrap();
        srv.shutdown().unwrap();
        (sink.acks(), sink.gots_in_order(), state)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "two replays of one tape diverged");
}

/// No stale read through either segment of the record cache.  A seeded
/// put / delete / get tape runs at `cache_records = 4`, where every
/// resident key may be protected and eviction has to reach into that
/// segment, and at 8, where protected overflows and demotes.  The shard has
/// one pool frame, which its one-leaf tree takes, so every cached record is
/// on the tenant's budget and survives a compaction unless the compaction's
/// delta touches its key.  Every fourth write flushes a batch, and each
/// flush compacts; caches promote and evict within a few ops, and every
/// get must still match the model — opening with a key whose cached copy
/// sits in *protected* when the overwrite, and then the delete, are
/// compacted.
#[test]
fn no_stale_read_through_either_cache_segment() {
    // Three more writes flush and compact the put of 3; then get it twice:
    // the miss admits on probation, the hit promotes.
    let others = |v| [1, 2, 4].map(|k| (0, k, 0, v));
    let mut tape: Vec<TapeOp> = vec![(0, 3, 0, 10)];
    tape.extend(others(1));
    tape.extend([(0, 3, 6, 0), (0, 3, 6, 0)]);
    tape.push((0, 3, 0, 20)); // overwrite under a protected copy
    tape.extend(others(2));
    tape.extend([(0, 3, 6, 0), (0, 3, 6, 0)]);
    tape.push((0, 3, 4, 0)); // delete under a protected copy
    tape.extend(others(3));
    tape.push((0, 3, 6, 0));
    // Then 20 % puts, 10 % deletes, 70 % gets over 16 keys, the smaller of
    // two draws so that a few keys are asked for again and again.
    tape.extend((0..3_000u64).map(|i| {
        let r = i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let key = (r >> 40 & 0xf).min(r >> 48 & 0xf);
        let sel = [0, 0, 4, 6, 6, 6, 6, 6, 6, 6][(r >> 33) as usize % 10];
        (0, key, sel, r | 1)
    }));

    for cache_records in [4, 8] {
        let array = DiskArray::new_ram(1, 512, Placement::Independent);
        let sink = RecordingSink::new();
        let mut cfg = small_config(1, 4);
        cfg.cache_records = cache_records;
        cfg.compact_threshold = 4;
        cfg.pool_frames = 1;
        let srv: Server<u64, u64> = Server::new(array, cfg, sink.clone()).unwrap();
        let (reference, expect_gots, writes) = drive(&srv, &tape);
        srv.barrier().unwrap();

        assert_eq!(sink.acks(), writes);
        assert_eq!(sink.gots_in_order(), expect_gots);
        assert_eq!(
            srv.range(0, 0, u64::MAX).unwrap(),
            tenant_slice(&reference, 0)
        );
        let stats = srv.stats();
        assert!(stats.cache_hits() > 0 && stats.cache_misses() > 0);
        assert_eq!(stats.cache_rejected(), 0);
        assert!(stats.cache_promotions() > 0, "no get hit on probation");
        // ⌈4/5 · 4⌉ = 4: a four-record cache never has to demote.
        assert_eq!(stats.cache_demotions() > 0, cache_records == 8);
        srv.shutdown().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A shard whose two tenant trees outgrow its pool, against a
    /// `BTreeMap` model.  Gets fill the record cache, which takes pool
    /// frames until only the two roots and one leaf frame remain and then
    /// displaces records; puts, deletes and batch flushes go on under it,
    /// and compactions, one of them forced halfway, drop the records of
    /// the keys they apply and keep the rest.  Every get is checked against
    /// the model, and after every step the pool's resident frames and the
    /// frames the cached records are worth fit the pool.
    #[test]
    fn shard_agrees_with_a_btreemap_model_while_records_displace_frames(
        steps in prop::collection::vec((0u8..20, 0u32..2, 0u64..700, 0u64..1_000_000), 400..800),
    ) {
        const FRAMES: usize = 6;
        let device = DiskArray::new_ram(1, 512, Placement::Independent);
        let mut shard: Shard<u64, u64> = Shard::new(device, FRAMES, 0, 400).unwrap();
        let mut model: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        // 31 records a leaf at 512 bytes: 2 × 10 leaves under 2 roots.
        for key in 0..600u64 {
            shard.enqueue((key % 2) as u32, key, key, Some(key));
            model.insert(((key % 2) as u32, key), key);
        }
        shard.flush_batch(|_, _| {}).unwrap();
        shard.compact().unwrap();
        let (mut most_cached, mut least_limit, mut kept) = (0, FRAMES, 0);
        for (i, &(sel, tenant, key, val)) in steps.iter().enumerate() {
            match sel {
                0..=13 => {
                    let want = model.get(&(tenant, key)).copied();
                    prop_assert_eq!(shard.get(tenant, &key).unwrap(), want, "step {}", i);
                }
                14..=16 => {
                    shard.enqueue(tenant, i as u64, key, Some(val));
                    model.insert((tenant, key), val);
                }
                17 | 18 => {
                    shard.enqueue(tenant, i as u64, key, None);
                    model.remove(&(tenant, key));
                }
                _ => shard.flush_batch(|_, _| {}).map(drop).unwrap(),
            }
            if i == steps.len() / 2 || shard.wants_compact() {
                shard.flush_batch(|_, _| {}).unwrap();
                shard.compact().unwrap();
                // The slots keep the frames the pool's limit gave up.
                let slot_frames = FRAMES - shard.pool().limit();
                prop_assert!(shard.cached_records() <= slot_frames * 31);
                kept += usize::from(shard.cached_records() > 0);
            }
            let pool = shard.pool();
            let frames = pool.resident() + shard.cached_records().div_ceil(31);
            prop_assert!(frames <= FRAMES, "step {}: {} frames in use", i, frames);
            most_cached = most_cached.max(shard.cached_records());
            least_limit = least_limit.min(pool.limit());
        }
        // The cache filled the three frames beyond two roots and a leaf
        // frame, and records outlived a compaction.
        prop_assert_eq!((most_cached, least_limit), (3 * 31, 3));
        prop_assert!(kept >= 1);
        for tenant in 0..2u32 {
            prop_assert_eq!(
                shard.range(tenant, &0, &u64::MAX).unwrap(),
                tenant_slice(&model, tenant)
            );
        }
    }
}
