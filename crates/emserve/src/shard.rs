//! One partition of the serving dictionary.
//!
//! A [`Shard`] pairs the authoritative B+-tree (point reads in
//! `O(log_B N)` through a [`BufferPool`]) with a buffer-tree *write
//! absorber* (amortized `O((1/B)·log_{M/B}(N/B))` per update) and an
//! in-memory, key-ordered *delta map* holding the latest operation per key
//! accepted since the last compaction.  The delta map is what makes
//! reads-your-writes cheap: a get consults it before the tree, so neither
//! reads nor writes ever force the absorber to flush (the
//! `BufferTree::get` path would).
//!
//! The invariant the rest stands on: **with the batch empty, the delta is
//! exactly the absorber's latest-op-per-key view.**  The two are therefore
//! never read for the same purpose: compaction consumes the delta (in
//! memory, in key order) and merely frees the absorber's blocks; only
//! [`Shard::recover`] reads the absorber, to rebuild the delta a crash
//! lost.  The absorber is the shard's durable log, not a stage its data
//! passes through.
//!
//! Multi-tenancy is by key prefix: the stored key is `(tenant, key)`, so
//! one physical tree serves every tenant of the shard and per-tenant range
//! scans are contiguous.  Deletes are stored in the absorber as *marked
//! records* `(value, TOMBSTONE)` rather than buffer-tree deletes — the
//! buffer tree's leaf-apply discards a delete whose key is absent from its
//! own leaves, which is correct for a self-contained dictionary but would
//! lose deletions destined for the B+-tree.  Compaction feeds the delta, in
//! key order, to [`BTree::apply_sorted_batch`] — puts as upserts, deletes as
//! erases — then resets absorber and delta.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use em_core::Record;
use emtree::{BTree, BufferTree};
use pdm::{BufferPool, EvictionPolicy, Journal, PdmError, Result, SharedDevice};

/// Marked-record tombstone flag (0 = live, 1 = deleted).
const TOMBSTONE: u8 = 1;

/// Internal key: tenant id then user key, so tenant ranges are contiguous.
type Ik<K> = (u32, K);

/// Deterministic FNV-1a routing of `(tenant, key)` onto `shards` partitions.
///
/// `std`'s default hasher is seeded per process, which would make shard
/// placement — and therefore lane placement and every I/O trace — differ
/// between runs.  FNV-1a over the *encoded record bytes*
/// ([`em_core::hash::fnv1a`]) gives the same routing on every run and every
/// platform; routing is persisted-state-affecting, so the golden test below
/// pins the exact placements.
pub fn shard_of_key<K: Record>(tenant: u32, key: &K, shards: usize) -> usize {
    assert!(shards > 0, "need at least one shard");
    let mut buf = vec![0u8; 4 + K::BYTES];
    buf[..4].copy_from_slice(&tenant.to_le_bytes());
    key.write_to(&mut buf[4..]);
    (em_core::hash::fnv1a(&buf) % shards as u64) as usize
}

/// A pending write destined for the absorber: who to ack, and what to apply.
struct PendingOp<K, V> {
    tenant: u32,
    op_id: u64,
    key: Ik<K>,
    /// `Some(v)` = put, `None` = delete.
    op: Option<V>,
}

/// One partition of the dictionary: B+-tree + buffer-tree absorber + delta.
///
/// Single-threaded by design — the [`Server`](crate::Server) gives each
/// shard its own drain thread and lane-pinned device, so shards never
/// contend on locks or on each other's disk queues.
pub struct Shard<K: Record + Ord, V: Record> {
    pool: Arc<BufferPool>,
    tree: BTree<Ik<K>, V>,
    absorber: BufferTree<Ik<K>, (V, u8)>,
    /// Every op since the last compaction (absorbed *or* still in-flight in
    /// `batch`): `Some(v)` put, `None` delete.  Read-your-writes overlay
    /// and, being ordered, compaction's input.
    delta: BTreeMap<Ik<K>, Option<V>>,
    /// Ops accepted but not yet absorbed (the open batch).
    batch: Vec<PendingOp<K, V>>,
    batch_opened: Option<Instant>,
    compact_threshold: usize,
    /// Crash-recovery journal, when the shard runs on a
    /// [`Journal`]-wrapped device.  Every batch flush and compaction
    /// commits a checkpoint (tree triple + absorber manifests) before any
    /// op is acknowledged, so acked writes survive a crash.  The delta is
    /// not checkpointed: with the batch empty it is exactly the absorber's
    /// latest-op-per-key view, which [`recover`](Self::recover) reads back.
    journal: Option<Arc<Journal>>,
}

impl<K, V> Shard<K, V>
where
    K: Record + Ord,
    V: Record,
{
    /// Build a shard on `device` with a `pool_frames`-frame read pool, an
    /// `absorber_mem`-record buffer-tree budget, and compaction once the
    /// delta holds `compact_threshold` distinct keys.
    pub fn new(
        device: SharedDevice,
        pool_frames: usize,
        absorber_mem: usize,
        compact_threshold: usize,
    ) -> Result<Self> {
        Self::build(device, None, pool_frames, absorber_mem, compact_threshold)
    }

    /// Build a journaled shard: all shard storage lives behind `journal`
    /// (shadow-block writes, checkpoint-and-rewind), and every
    /// [`flush_batch`](Self::flush_batch) commits a checkpoint *before*
    /// acknowledging, so a crash never loses an acked write.  Pair with
    /// [`recover`](Self::recover) after a crash.
    pub fn with_journal(
        journal: Arc<Journal>,
        pool_frames: usize,
        absorber_mem: usize,
        compact_threshold: usize,
    ) -> Result<Self> {
        let device: SharedDevice = Arc::clone(&journal) as SharedDevice;
        Self::build(
            device,
            Some(journal),
            pool_frames,
            absorber_mem,
            compact_threshold,
        )
    }

    fn build(
        device: SharedDevice,
        journal: Option<Arc<Journal>>,
        pool_frames: usize,
        absorber_mem: usize,
        compact_threshold: usize,
    ) -> Result<Self> {
        let pool = BufferPool::new(device.clone(), pool_frames, EvictionPolicy::Lru);
        let tree = BTree::new(pool.clone())?;
        let budget = Self::absorber_budget(&device, absorber_mem);
        let absorber = BufferTree::new(device, budget);
        Ok(Shard {
            pool,
            tree,
            absorber,
            delta: BTreeMap::new(),
            batch: Vec::new(),
            batch_opened: None,
            compact_threshold: compact_threshold.max(1),
            journal,
        })
    }

    /// The absorber needs at least 32 blocks' worth of event records
    /// ((ts, (tenant, key), (value, mark)) tuples); round the budget up
    /// rather than aborting on small configs.
    fn absorber_budget(device: &SharedDevice, absorber_mem: usize) -> usize {
        let ev_bytes = 8 + (4 + K::BYTES) + (V::BYTES + 1);
        let ev_per_block = (device.block_size() / ev_bytes).max(1);
        absorber_mem.max(32 * ev_per_block)
    }

    /// Rebuild a shard from `journal`'s last committed checkpoint (obtained
    /// via `pdm::Journal::recover` over the surviving medium).  A journal
    /// with no shard checkpoint yet (crash before the first flush) yields a
    /// fresh empty shard.  Un-checkpointed work — including a batch whose
    /// flush never committed — is rewound; none of it was ever acked.
    ///
    /// The delta overlay is rebuilt from the recovered absorber by one
    /// read-only [`BufferTree::scan`]: `O(absorber blocks)` reads paid once
    /// here, instead of `O(δ/B)` chain writes at every flush.
    pub fn recover(
        journal: Arc<Journal>,
        pool_frames: usize,
        absorber_mem: usize,
        compact_threshold: usize,
    ) -> Result<Self> {
        let Some(bm) = journal.manifest("btree") else {
            return Self::with_journal(journal, pool_frames, absorber_mem, compact_threshold);
        };
        let corrupt = || PdmError::Corrupt("malformed shard checkpoint".into());
        if bm.len() != 24 {
            return Err(corrupt());
        }
        let word = |i: usize| u64::from_le_bytes(bm[i * 8..(i + 1) * 8].try_into().expect("8"));
        let (root, height, len) = (
            word(0),
            u32::try_from(word(1)).map_err(|_| corrupt())?,
            word(2),
        );
        let device: SharedDevice = Arc::clone(&journal) as SharedDevice;
        let pool = BufferPool::new(device.clone(), pool_frames, EvictionPolicy::Lru);
        let tree = BTree::reattach(pool.clone(), root, height, len);
        let am = journal.manifest("absorber").ok_or_else(corrupt)?;
        let absorber = BufferTree::reattach(
            device.clone(),
            Self::absorber_budget(&device, absorber_mem),
            &am,
        )?;
        let delta = Self::absorbed_view(&absorber)?;
        Ok(Shard {
            pool,
            tree,
            absorber,
            delta,
            batch: Vec::new(),
            batch_opened: None,
            compact_threshold: compact_threshold.max(1),
            journal: Some(journal),
        })
    }

    /// The absorber's latest op per key, read back without changing it —
    /// what the delta is whenever the batch is empty.
    fn absorbed_view(absorber: &BufferTree<Ik<K>, (V, u8)>) -> Result<BTreeMap<Ik<K>, Option<V>>> {
        let view = absorber.scan()?.into_iter();
        Ok(view
            .map(|(ik, (v, dead))| (ik, (dead == 0).then_some(v)))
            .collect())
    }

    /// The read pool (hit/miss counters feed the serving hit-rate metric).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Distinct keys touched since the last compaction.
    pub fn pending(&self) -> usize {
        self.delta.len()
    }

    /// Ops waiting in the open (unflushed) batch.
    pub fn batch_len(&self) -> usize {
        self.batch.len()
    }

    /// When the open batch received its first op, if one is open.
    pub fn batch_opened_at(&self) -> Option<Instant> {
        self.batch_opened
    }

    /// Queue a write into the open batch.  Visible to reads
    /// immediately via the delta; acknowledged only once flushed.
    pub fn enqueue(&mut self, tenant: u32, op_id: u64, key: K, op: Option<V>) {
        let ik = (tenant, key);
        self.delta.insert(ik.clone(), op.clone());
        if self.batch.is_empty() {
            self.batch_opened = Some(Instant::now());
        }
        self.batch.push(PendingOp {
            tenant,
            op_id,
            key: ik,
            op,
        });
    }

    /// Flush the open batch into the absorber, acknowledging each op through
    /// `ack(tenant, op_id)` *after* it is durable.  Returns the number of
    /// ops flushed.  Does not compact — see [`Shard::maybe_compact`].
    ///
    /// The ack ordering is the crash-safety contract: on a journaled shard
    /// the whole batch is committed to a checkpoint first, so a crash at any
    /// point either rewinds an entirely-unacked batch or recovers every
    /// acked op.  On an unjournaled shard a device
    /// [`barrier`](pdm::BlockDevice::barrier) runs first, so a write-behind
    /// failure surfaces as this batch's error instead of being acked around.
    pub fn flush_batch(&mut self, mut ack: impl FnMut(u32, u64)) -> Result<usize> {
        let batch = std::mem::take(&mut self.batch);
        self.batch_opened = None;
        let n = batch.len();
        let mut acks = Vec::with_capacity(n);
        for p in batch {
            match p.op {
                Some(v) => self.absorber.insert(p.key, (v, 0))?,
                None => self
                    .absorber
                    .insert(p.key, (Self::zero_value(), TOMBSTONE))?,
            }
            acks.push((p.tenant, p.op_id));
        }
        if n > 0 {
            self.checkpoint()?;
        }
        for (t, id) in acks {
            ack(t, id);
        }
        Ok(n)
    }

    /// Make all accepted state durable.  With a journal: flush the read
    /// pool's dirty frames, record the tree and absorber manifests, and
    /// commit a checkpoint.  Without one: a device barrier, surfacing any
    /// dropped write-behind error (no extra transfers).
    ///
    /// Only ever runs with the batch empty: the overlay is not written, it
    /// is re-derived from the absorber, so an op still in the batch would
    /// be committed nowhere.
    fn checkpoint(&mut self) -> Result<()> {
        debug_assert!(self.batch.is_empty(), "checkpoint over an open batch");
        let Some(journal) = &self.journal else {
            return self.pool.device().barrier();
        };
        let journal = Arc::clone(journal);
        self.pool.flush()?;
        let mut bm = Vec::with_capacity(24);
        bm.extend_from_slice(&self.tree.root().to_le_bytes());
        bm.extend_from_slice(&u64::from(self.tree.height()).to_le_bytes());
        bm.extend_from_slice(&self.tree.len().to_le_bytes());
        journal.set_manifest("btree", bm);
        journal.set_manifest("absorber", self.absorber.manifest_bytes());
        journal.checkpoint()
    }

    /// Point lookup: delta overlay first (read-your-writes, including the
    /// open batch), then the B+-tree through the pool.
    pub fn get(&self, tenant: u32, key: &K) -> Result<Option<V>> {
        let ik = (tenant, key.clone());
        match self.delta.get(&ik) {
            Some(Some(v)) => Ok(Some(v.clone())),
            Some(None) => Ok(None),
            None => self.tree.get(&ik),
        }
    }

    /// Tenant-scoped range scan over `[lo, hi]`, merging the tree's view
    /// with the delta overlay (deletes hide tree records, puts override).
    pub fn range(&self, tenant: u32, lo: &K, hi: &K) -> Result<Vec<(K, V)>> {
        if lo > hi {
            return Ok(Vec::new());
        }
        let lo_ik = (tenant, lo.clone());
        let hi_ik = (tenant, hi.clone());
        let mut merged: BTreeMap<Ik<K>, V> = self.tree.range(&lo_ik, &hi_ik)?.into_iter().collect();
        for (ik, op) in self.delta.range(&lo_ik..=&hi_ik) {
            match op {
                Some(v) => {
                    merged.insert(ik.clone(), v.clone());
                }
                None => {
                    merged.remove(ik);
                }
            }
        }
        Ok(merged.into_iter().map(|((_, k), v)| (k, v)).collect())
    }

    /// True when the delta has grown past the compaction threshold.
    /// Only meaningful between batches (the open batch must be flushed
    /// first so the absorber and delta agree).
    pub fn wants_compact(&self) -> bool {
        self.batch.is_empty() && self.delta.len() >= self.compact_threshold
    }

    /// Compact if [`Shard::wants_compact`]; returns whether it ran.
    pub fn maybe_compact(&mut self) -> Result<bool> {
        if self.wants_compact() {
            self.compact()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Merge everything accepted since the last compaction into the B+-tree
    /// in one streaming pass.
    ///
    /// The delta is the absorber's latest-op-per-key view, in memory and in
    /// key order, so it feeds `apply_sorted_batch` directly: puts become
    /// upserts, deletes become erases, and the tree is rebuilt at its floor
    /// — each old node read once, each new node written once, `O((N+Δ)/B)`
    /// transfers instead of `Δ·O(log_B N)` point updates.  The absorber is
    /// neither flushed nor read: its blocks are freed, which costs nothing.
    pub fn compact(&mut self) -> Result<()> {
        assert!(
            self.batch.is_empty(),
            "flush the open batch before compacting"
        );
        if self.delta.is_empty() {
            return Ok(());
        }
        self.tree
            .apply_sorted_batch(self.delta.iter().map(|(ik, op)| (ik.clone(), op.clone())))?;
        self.absorber.clear()?;
        self.delta.clear();
        // On a journaled shard the rebuild must commit atomically: the frees
        // of the old tree's nodes and of the absorber's blocks are deferred
        // inside the journal until this checkpoint, so a crash mid-compaction
        // rewinds to the intact pre-compaction state, absorber untouched.
        if self.journal.is_some() {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Records in the authoritative tree (excludes pending delta ops).
    pub fn tree_len(&self) -> u64 {
        self.tree.len()
    }

    /// Structural self-check of the underlying B+-tree.
    pub fn check_invariants(&self) -> Result<()> {
        self.tree.check_invariants()
    }

    /// The all-zero-bytes value used to pad tombstone marks.
    fn zero_value() -> V {
        V::read_from(&vec![0u8; V::BYTES])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::{DiskArray, Placement};

    fn ram_shard(compact_threshold: usize) -> Shard<u64, u64> {
        let dev: SharedDevice = DiskArray::new_ram(1, 512, Placement::Independent);
        Shard::new(dev, 16, 256, compact_threshold).unwrap()
    }

    #[test]
    fn routing_matches_golden_placements() {
        // Shard routing decides which lane-pinned device owns a key, so a
        // change here silently orphans every record a prior run persisted.
        // These placements were produced by the original in-crate FNV-1a
        // and must survive the move to `em_core::hash` bit-for-bit.
        let got: Vec<usize> = [0u32, 1, 2]
            .iter()
            .flat_map(|&t| {
                [0u64, 1, 42, 1 << 40, 0xDEAD_BEEF]
                    .iter()
                    .map(move |&k| shard_of_key(t, &k, 8))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(got, [5, 4, 7, 2, 3, 4, 5, 6, 7, 2, 7, 6, 5, 4, 1]);
        let five: Vec<usize> = (0u64..10).map(|k| shard_of_key(0, &k, 5)).collect();
        assert_eq!(five, [0, 1, 3, 4, 0, 1, 2, 4, 1, 2]);
    }

    #[test]
    fn routing_is_deterministic_and_spread() {
        let a = shard_of_key(0, &42u64, 8);
        let b = shard_of_key(0, &42u64, 8);
        assert_eq!(a, b);
        let mut seen = [0usize; 8];
        for k in 0..800u64 {
            seen[shard_of_key(k as u32 % 3, &k, 8)] += 1;
        }
        assert!(seen.iter().all(|&c| c > 0), "all shards used: {seen:?}");
    }

    #[test]
    fn read_your_writes_across_batch_and_compaction() {
        let mut s = ram_shard(3);
        // In-flight batch is visible before any flush.
        s.enqueue(1, 0, 10, Some(100));
        s.enqueue(1, 1, 11, Some(110));
        assert_eq!(s.get(1, &10).unwrap(), Some(100));
        assert_eq!(s.batch_len(), 2);
        let mut acks = Vec::new();
        s.flush_batch(|t, id| acks.push((t, id))).unwrap();
        assert_eq!(acks, vec![(1, 0), (1, 1)]);
        assert_eq!(s.get(1, &10).unwrap(), Some(100));
        // Delete of an absorbed key, then compaction: stays gone.
        s.enqueue(1, 2, 10, None);
        s.enqueue(1, 3, 12, Some(120));
        assert_eq!(s.get(1, &10).unwrap(), None);
        s.flush_batch(|_, _| {}).unwrap();
        assert!(s.wants_compact());
        assert!(s.maybe_compact().unwrap());
        assert_eq!(s.pending(), 0);
        assert_eq!(s.get(1, &10).unwrap(), None);
        assert_eq!(s.get(1, &11).unwrap(), Some(110));
        assert_eq!(s.get(1, &12).unwrap(), Some(120));
        assert_eq!(s.tree_len(), 2);
        s.check_invariants().unwrap();
    }

    #[test]
    fn tombstones_survive_compaction_into_the_tree() {
        let mut s = ram_shard(1);
        // Land a key in the tree via a first compaction.
        s.enqueue(7, 0, 5, Some(50));
        s.flush_batch(|_, _| {}).unwrap();
        s.maybe_compact().unwrap();
        assert_eq!(s.tree_len(), 1);
        // Delete it through the absorber path; the marked record must reach
        // apply_sorted_batch as an erase (a raw BufferTree delete would be
        // dropped because the absorber's own leaves never held the key).
        s.enqueue(7, 1, 5, None);
        s.flush_batch(|_, _| {}).unwrap();
        s.maybe_compact().unwrap();
        assert_eq!(s.get(7, &5).unwrap(), None);
        assert_eq!(s.tree_len(), 0);
    }

    #[test]
    fn tenants_are_isolated_in_ranges() {
        let mut s = ram_shard(100);
        for k in 0..10u64 {
            s.enqueue(1, k, k, Some(k * 10));
            s.enqueue(2, 100 + k, k, Some(k * 1000));
        }
        s.flush_batch(|_, _| {}).unwrap();
        let t1 = s.range(1, &2, &4).unwrap();
        assert_eq!(t1, vec![(2, 20), (3, 30), (4, 40)]);
        let t2 = s.range(2, &2, &4).unwrap();
        assert_eq!(t2, vec![(2, 2000), (3, 3000), (4, 4000)]);
        // Overlay semantics: delete one, overwrite another, still unflushed.
        s.enqueue(1, 200, 3, None);
        s.enqueue(1, 201, 4, Some(999));
        let t1 = s.range(1, &2, &4).unwrap();
        assert_eq!(t1, vec![(2, 20), (4, 999)]);
        assert_eq!(s.range(1, &9, &3).unwrap(), Vec::new());
    }

    /// One scripted journaled-shard run on a device that crashes after `k`
    /// transfers.  Returns the model of *acked* state, whether the run
    /// crashed, and the total transfers performed.
    fn crashy_run(k: u64) -> (BTreeMap<u64, Option<u64>>, bool, u64) {
        use pdm::{CrashSwitch, FaultDisk, FaultPlan, IoStats, Journal, RamDisk};
        const KEYS: u64 = 40;
        let bs = 512;
        let stats = IoStats::new(1, bs);
        let ram = Arc::new(RamDisk::with_stats(bs, Arc::clone(&stats), 0));
        // First boot happens on the pristine medium: the header pair exists
        // before the machine starts failing.
        let j0 = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
        let headers = j0.header_blocks().unwrap();
        drop(j0);
        let faulty = FaultDisk::wrap(
            Arc::clone(&ram) as SharedDevice,
            FaultPlan::new(0).with_crash(CrashSwitch::after(k)),
        );
        // `acked` tracks what clients were promised; `pending` additionally
        // holds the batch whose checkpoint was in flight at the crash.  A
        // crash after the journal's commit point but before `flush_batch`
        // returns leaves that batch durable-but-unacked, so the recovered
        // state must equal one of the two — never a mix.
        let mut acked: BTreeMap<u64, Option<u64>> = BTreeMap::new();
        let mut pending: BTreeMap<u64, Option<u64>> = BTreeMap::new();
        // The overlay is not checkpointed but re-derived from the absorber,
        // so it gets the same two-candidate audit: the delta as of the last
        // checkpoint that returned, or as the checkpoint in flight at the
        // crash would have left it.
        let mut delta_acked = BTreeMap::new();
        let mut delta_in_flight = BTreeMap::new();
        let mut crashed = true;
        if let Ok(j) = Journal::recover(faulty as SharedDevice, headers) {
            if let Ok(mut s) = Shard::<u64, u64>::recover(j, 16, 256, 16) {
                let mut op_id = 0u64;
                let result: Result<()> = (|| {
                    for round in 0..10u64 {
                        for i in 0..8u64 {
                            let key = (round * 8 + i) % KEYS;
                            let op = ((round + i) % 5 != 0).then_some(key * 10 + round);
                            s.enqueue(1, op_id, key, op);
                            pending.insert(key, op);
                            op_id += 1;
                        }
                        let mut n_acked = 0usize;
                        delta_in_flight = s.delta.clone();
                        s.flush_batch(|_, _| n_acked += 1)?;
                        assert_eq!(n_acked, 8, "whole batch acked after its checkpoint");
                        acked = pending.clone();
                        delta_acked = s.delta.clone();
                        if s.wants_compact() {
                            delta_in_flight = BTreeMap::new();
                        }
                        s.maybe_compact()?;
                        delta_acked = s.delta.clone();
                    }
                    Ok(())
                })();
                crashed = result.is_err();
                // A crashed shard must not run Drop (it would free blocks the
                // recovered shard owns); leak it like the process it models.
                std::mem::forget(s);
            }
        }
        // Reboot on the surviving medium and verify every promise.
        let j2 = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
        let s2 = Shard::<u64, u64>::recover(j2, 16, 256, 16).unwrap();
        let recovered: BTreeMap<u64, Option<u64>> = (0..KEYS)
            .map(|key| (key, s2.get(1, &key).unwrap()))
            .collect();
        let flat = |m: &BTreeMap<u64, Option<u64>>| -> BTreeMap<u64, Option<u64>> {
            (0..KEYS)
                .map(|k| (k, m.get(&k).cloned().flatten()))
                .collect()
        };
        assert!(
            recovered == flat(&acked) || recovered == flat(&pending),
            "crash at {k}: recovered state matches neither the acked model \
             nor the acked-plus-in-flight-batch model"
        );
        assert!(
            s2.delta == delta_acked || s2.delta == delta_in_flight,
            "crash at {k}: the overlay derived from the recovered absorber is \
             not the delta of either checkpoint"
        );
        s2.check_invariants().unwrap();
        (acked, crashed, stats.snapshot().total())
    }

    #[test]
    fn journaled_shard_acked_writes_survive_any_crash_point() {
        let (model, crashed, total) = crashy_run(u64::MAX);
        assert!(!crashed);
        assert_eq!(model.len(), 40, "fault-free run touched every key");
        // Sweep ~30 crash points across the whole run.
        let step = (total / 30).max(1);
        let mut mid_run_recoveries = 0;
        for k in (0..total).step_by(step as usize) {
            let (model, crashed, _) = crashy_run(k);
            if crashed && !model.is_empty() {
                mid_run_recoveries += 1;
            }
        }
        assert!(
            mid_run_recoveries > 0,
            "sweep never crashed after an acked batch — widen it"
        );
    }

    #[test]
    fn compaction_never_touches_the_absorber() {
        let mut s = ram_shard(usize::MAX);
        let dev = s.pool.device().clone();
        // A tree from a first compaction, then a second overlay above it.
        for round in 0..2u64 {
            for i in 0..600u64 {
                let key = (i * 7 + round * 3) % 900;
                s.enqueue(1, i, key, (i % 6 != 0).then_some(key + round));
                if i % 32 == 31 {
                    s.flush_batch(|_, _| {}).unwrap();
                }
            }
            s.flush_batch(|_, _| {}).unwrap();
            if round == 0 {
                s.compact().unwrap();
            }
        }
        // No old node may still be waiting to be written for the first time.
        s.pool.flush().unwrap();
        let old_nodes = s.tree.node_count().unwrap();
        assert!(old_nodes > 16, "old tree must exceed the pool");
        assert!(
            dev.allocated_blocks() > old_nodes,
            "the absorber must hold blocks for the test to mean anything"
        );
        let looked_up = |s: &Shard<u64, u64>| s.pool.stats().hits() + s.pool.stats().misses();
        let (io, lookups, misses, writebacks) = (
            dev.stats().snapshot(),
            looked_up(&s),
            s.pool.stats().misses(),
            s.pool.stats().writebacks(),
        );
        s.compact().unwrap();
        s.pool.flush().unwrap();
        let d = dev.stats().snapshot_delta(&io);
        // Each old node was looked at once, and nothing but a tree node
        // missing from the pool was read …
        assert_eq!(looked_up(&s) - lookups, old_nodes);
        assert_eq!(d.reads(), s.pool.stats().misses() - misses);
        // … each new node was written once, and nothing else was written …
        let new_nodes = s.tree.node_count().unwrap();
        assert_eq!(d.writes(), new_nodes);
        assert_eq!(d.writes(), s.pool.stats().writebacks() - writebacks);
        // … and the absorber's blocks were only freed.
        assert_eq!(dev.allocated_blocks(), new_nodes);
        s.check_invariants().unwrap();
    }

    /// Play batches `from..` of a seeded 2 000-op put/overwrite/delete tape
    /// (25 ops a batch, a compaction whenever 300 keys are pending).  Before
    /// each compaction the overlay must equal the absorber's own view, after
    /// it the shard must equal the model.  On a device error returns the
    /// index of the batch in flight, which is safe to replay: an op's effect
    /// depends only on its position in the tape.
    fn play_tape(
        s: &mut Shard<u64, u64>,
        model: &mut BTreeMap<u64, u64>,
        from: u64,
    ) -> std::result::Result<u32, u64> {
        let mut compactions = 0;
        for batch in from..80 {
            for i in batch * 25..(batch + 1) * 25 {
                let x = em_core::hash::fnv1a(&i.to_le_bytes());
                let key = x % 1_000;
                let op = (x >> 32) % 10 < 7;
                s.enqueue(0, i, key, op.then_some(i));
                match op {
                    true => model.insert(key, i),
                    false => model.remove(&key),
                };
            }
            s.flush_batch(|_, _| {}).map_err(|_| batch)?;
            if !s.wants_compact() {
                continue;
            }
            let absorbed = Shard::absorbed_view(&s.absorber).map_err(|_| batch)?;
            assert_eq!(s.delta, absorbed, "batch {batch}: overlay != absorber view");
            s.compact().map_err(|_| batch)?;
            compactions += 1;
            let all = s.range(0, &0, &u64::MAX).map_err(|_| batch)?;
            assert!(
                all.iter().copied().eq(model.iter().map(|(&k, &v)| (k, v))),
                "batch {batch}: shard != model after compaction"
            );
        }
        Ok(compactions)
    }

    #[test]
    fn overlay_equals_absorber_view_before_every_compaction() {
        let dev: SharedDevice = DiskArray::new_ram(1, 512, Placement::Independent);
        let mut s: Shard<u64, u64> = Shard::new(dev, 16, 256, 300).unwrap();
        let compactions = play_tape(&mut s, &mut BTreeMap::new(), 0).unwrap();
        assert!(compactions >= 4, "only {compactions} compactions");
        s.check_invariants().unwrap();
    }

    #[test]
    fn overlay_equals_absorber_view_on_a_recovered_shard() {
        use pdm::{BlockDevice, CrashSwitch, FaultDisk, FaultPlan, Journal, RamDisk};
        // Returns the batch the tape was resumed from after the crash, if it
        // crashed, and the transfers the medium saw.
        let run = |kill_after: u64| -> (Option<u64>, u64) {
            let ram = RamDisk::new(512);
            let j0 = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
            let headers = j0.header_blocks().unwrap();
            drop(j0);
            let faulty = FaultDisk::wrap(
                Arc::clone(&ram) as SharedDevice,
                FaultPlan::new(0).with_crash(CrashSwitch::after(kill_after)),
            );
            let mut model = BTreeMap::new();
            let j = Journal::recover(faulty as SharedDevice, headers).unwrap();
            let mut s = Shard::<u64, u64>::recover(j, 16, 256, 300).unwrap();
            let Err(in_flight) = play_tape(&mut s, &mut model, 0) else {
                return (None, ram.stats().snapshot().total());
            };
            // The crashed instance's Drop would free blocks the recovered
            // shard owns; leak it like the process it models.
            std::mem::forget(s);
            let j = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
            let mut s = Shard::<u64, u64>::recover(j, 16, 256, 300).unwrap();
            let compactions = play_tape(&mut s, &mut model, in_flight).unwrap();
            assert!(
                compactions >= 1,
                "kill at {kill_after}: nothing left to compact"
            );
            s.check_invariants().unwrap();
            (Some(in_flight), ram.stats().snapshot().total())
        };
        let (None, total) = run(u64::MAX) else {
            panic!("fault-free run crashed");
        };
        // Six kill points spread over the tape, each with an overlay pending
        // (crashes inside a compaction are `crashy_run`'s sweep).
        let resumed: Vec<u64> = (1..=6)
            .map(|i| run(total * i / 8).0.expect("kill point inside the run"))
            .collect();
        assert!(
            resumed.windows(2).all(|w| w[0] < w[1]) && resumed[0] > 0,
            "kill points did not spread over the tape: {resumed:?}"
        );
    }

    #[test]
    fn checkpoint_cost_does_not_grow_with_the_overlay() {
        use pdm::{Journal, RamDisk};
        // The benchmark's geometry: 1 KiB blocks, 4 096-event absorber,
        // compaction out of reach, insert-only, so the overlay only grows.
        let ram = RamDisk::new(1024);
        let journal = Journal::format(ram as SharedDevice).unwrap();
        let mut s: Shard<u64, u64> =
            Shard::with_journal(Arc::clone(&journal), 16, 4096, usize::MAX).unwrap();
        let mut chain = Vec::new();
        for round in 0..40u64 {
            for i in 0..32u64 {
                let key = round * 32 + i;
                s.enqueue(0, key, key, Some(key));
            }
            let before = journal.overhead().chain_writes;
            s.flush_batch(|_, _| {}).unwrap();
            chain.push(journal.overhead().chain_writes - before);
        }
        assert_eq!(s.pending(), 40 * 32);
        // A serialized overlay would be 1 280 × 21 bytes = 27 chain blocks by
        // now.  What is left is the absorber's manifest — 8 bytes per buffer
        // block and, once the root buffer has emptied into leaves (round
        // 32), some 70 per leaf of 36 records.  Its first 976 bytes ride in
        // the header block, so it overflows into 0–1 chain blocks before
        // and 2–3 after.
        assert!(
            chain[39] <= chain[1] + 2,
            "chain blocks per checkpoint grew with the overlay: {chain:?}"
        );
        // Every block the tape wrote was born in the epoch that wrote it
        // (the absorber stages a whole block before it appends one).
        let wal = journal.overhead();
        assert_eq!(wal.checkpoints, 40);
        assert_eq!(wal.shadow_writes, 0);
        assert_eq!(wal.apply_reads + wal.apply_writes, 0);
    }
}
