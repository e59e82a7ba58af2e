//! One partition of the serving dictionary.
//!
//! A [`Shard`] pairs the authoritative B+-tree (point reads in
//! `O(log_B N)` through a [`BufferPool`]) with an in-memory, key-ordered
//! *delta map* holding the latest operation per key accepted since the last
//! compaction and, on a [`Journal`], a *log* of those operations.  The delta
//! map is what makes reads-your-writes cheap: a get consults it before the
//! tree, and nothing ever reads the log to answer a query.
//!
//! The invariant the rest stands on: **with the batch empty, the delta is
//! exactly the log's latest-op-per-key view.**  The two are therefore never
//! read for the same purpose: compaction consumes the delta (in memory, in
//! key order) and merely resets the log; only [`Shard::recover`] replays the
//! log, to rebuild the delta a crash lost.  The log is the shard's durable
//! record of accepted writes, not a stage its data passes through: the
//! journal's `"log"` manifest, to which each flush appends its batch's
//! 21-byte records, so the one header that commits a batch carries them and
//! the log has no blocks of its own.  An unjournaled shard keeps no log,
//! since nothing could ever read one, only a count of the ops flushed since
//! the last compaction.
//!
//! Multi-tenancy is one tree per tenant: a tree entry is the user's own
//! `(key, value)` record, with no tenant prefix repeated in every entry, so
//! a block holds as many records as a single-tenant tree's would.  The log
//! and the delta keep `(tenant, key)`, ordered by tenant first.  A delete
//! is logged as a tombstone record, and compaction feeds each tenant's run
//! of the delta, in key order, to that tenant's
//! [`BTree::apply_sorted_batch`] — puts as upserts, deletes as erases —
//! then resets log and delta.  A tenant the delta does not touch is neither
//! read nor rewritten, and a tenant's tree is created by the first
//! compaction that puts a key of it, through the same call.  Compaction
//! runs once the delta holds `compact_threshold` keys, or once
//! `compact_threshold` of the ops flushed since the last one were
//! superseded by a later op on the same key, so an overwrite stream on a
//! few hot keys cannot grow the log past about twice the threshold.
//!
//! Beside each tree sits a *key filter* ([`KeyFilter`], two bytes a key),
//! rebuilt by every compaction of that tree from the keys it writes.
//! Between compactions the shard never changes a tree, so its filter has no
//! false negatives; a key written since is answered by the delta before the
//! filter is asked.  A get of a key neither holds therefore costs no
//! transfer, except on a false positive, and a get for a tenant with no
//! tree costs none at all.  Filters are memory only: a recovered tree has
//! none until its next compaction, and reads the tree for every get the
//! delta does not answer.
//!
//! A get asks the shard's one *record cache* (`RecordCache`) after the
//! filter and before the tree.  Each cached record is charged to one of two
//! memories.  The pool's `pool_frames` frames are shared by the trees'
//! nodes and the cache's *slots*: a frame is worth a leaf of records, and
//! the slots take frames from the pool one at a time as they fill, until
//! the pool holds only the trees' root and internal nodes and one leaf
//! frame; the pool then keeps those upper levels over its leaf frame, so a
//! lookup the cache misses reads one leaf.  A [`Server`](crate::Server)'s
//! shard may also charge a record to its tenant's budget, which the
//! tenant's records on every shard share.  Between compactions the trees do
//! not change, so a cached record is the tree's; a key written since is
//! answered by the delta first.  A compaction drops the record of every key
//! its delta touches, on a slot or a budget, and keeps the rest, since the
//! rebuild changes no other value; it rebuilds under the pool's current
//! limit, then shrinks the slots to the frames the new trees leave.  Like
//! the filters, the cache is memory only: a recovered shard admits nothing
//! until its next compaction.
//!
//! A journaled shard's checkpoint records its trees in the `"btree"`
//! manifest as one `(tenant u32, root u64, height u64, len u64)` entry of 28
//! bytes each, in tenant order ([`TREE_ENTRY`]).  Only a compaction changes
//! it, so the chained header that commits a flush leaves it out.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use em_core::hash::KeyFilter;
use em_core::{key_hash, route_hash, MemBudget, Record};
use emtree::BTree;
use pdm::{BufferPool, EvictionPolicy, Journal, PdmError, Result, SharedDevice};

use crate::cache::HotCache;
use crate::oplog::{self, Ik, Latest};
use crate::stats::ServeStats;

/// Deterministic FNV-1a routing of `(tenant, key)` onto `shards` partitions.
///
/// `std`'s default hasher is seeded per process, which would make shard
/// placement — and therefore lane placement and every I/O trace — differ
/// between runs.  FNV-1a over the *encoded `(tenant, key)` record*
/// ([`em_core::route_hash`]) gives the same routing on every run and every
/// platform; routing is persisted-state-affecting, so the golden test below
/// pins the exact placements.
///
/// # Panics
///
/// If `shards` is 0 (the remainder by zero); [`Server::new`](crate::Server::new)
/// rejects such a config before routing anything.
pub fn shard_of_key<K: Record>(tenant: u32, key: &K, shards: usize) -> usize {
    debug_assert!(shards > 0, "need at least one shard");
    (route_hash(&(tenant, key.clone())) % shards as u64) as usize
}

/// The key filter's hash of `(tenant, key)`: [`key_hash`] of the record that
/// routing hashes with FNV-1a, so a key's shard says nothing of its filter bits.
fn filter_hash<K: Record>(tenant: u32, key: &K) -> u64 {
    key_hash(&(tenant, key.clone()))
}

/// One tree's checkpoint entry: tenant, root, height, len.
type TreeEntry = (u32, u64, u64, u64);

/// Bytes of a [`TreeEntry`]: 28.
const TREE_ENTRY: usize = <TreeEntry as Record>::BYTES;

/// One tenant's B+-tree and the key filter over it.
struct TenantTree<K: Record + Ord, V: Record> {
    tree: BTree<K, V>,
    /// Membership summary of `tree`'s keys, built from the keys its last
    /// compaction wrote and consulted by [`Shard::get`] before the tree.
    /// `None` for a tree this instance has not compacted yet.  In memory
    /// only, and charged to no budget, like the delta.
    filter: Option<KeyFilter>,
}

/// Root and internal nodes of `tree`, from its length alone: every shard
/// tree is built packed by a compaction, `⌈c/(internal_cap + 1)⌉` nodes
/// over each level of `c`, starting from `⌈len/leaf_cap⌉` leaves.
fn upper_nodes<K: Record + Ord, V: Record>(tree: &BTree<K, V>) -> usize {
    let mut level = (tree.len() as usize).div_ceil(tree.leaf_capacity());
    let mut upper = 0;
    while level > 1 {
        level = level.div_ceil(tree.internal_capacity() + 1);
        upper += level;
    }
    upper
}

/// Frames the record cache's slots may take from `pool`, beside `trees`:
/// all but their root and internal nodes and one leaf frame.  `None` if
/// there is no tree.
fn max_frames<K: Record + Ord, V: Record>(
    trees: &BTreeMap<u32, TenantTree<K, V>>,
    pool: &BufferPool,
) -> Option<usize> {
    let floor = 1 + trees.values().map(|t| upper_nodes(&t.tree)).sum::<usize>();
    (!trees.is_empty()).then(|| pool.capacity().saturating_sub(floor))
}

/// The shard's one record cache: hot records, each charged to a slot of the
/// pool frames the trees' leaves gave up or to its tenant's budget.
///
/// A frame is worth a leaf of slots ([`BTree::leaf_capacity`]).  A cache
/// whose slots are all taken and may still grow lowers the pool's frame
/// limit by one before a descent; the pool releases that frame at its next
/// miss, and its slots are added after the descent.  So at every step the
/// pool's resident frames plus `⌈slot records / leaf capacity⌉` are at most
/// the pool's capacity: the *frame rule*.  Growth stops at `max_frames`.  A
/// record found with no slot free is charged to its tenant's budget, if the
/// shard has one; the budget is shared with the tenant's records on every
/// shard, so their sum never exceeds it: the *tenant rule*.  When neither
/// is free, the record displaces another, by the [`HotCache`]'s segmented
/// LRU.
struct RecordCache<K, V> {
    /// Records keyed by the key filter's hash of `(tenant, key)`; the value
    /// carries the key, compared on a hit.
    records: HotCache<(u32, K, V)>,
    /// Frames the slots may hold beside the trees; `None` until this
    /// instance's first compaction, and then a lookup reads the tree and
    /// admits nothing.
    max_frames: Option<usize>,
    /// Each tenant's budget, by tenant; none outside a `Server`.
    budgets: Vec<Arc<MemBudget>>,
    /// Where hits and rejected admissions are counted.
    stats: Arc<ServeStats>,
}

impl<K: Record + Ord, V: Record> RecordCache<K, V> {
    fn new(budgets: Vec<Arc<MemBudget>>, stats: Arc<ServeStats>) -> Self {
        RecordCache {
            records: HotCache::new(stats.clone()),
            max_frames: None,
            budgets,
            stats,
        }
    }

    /// `tenant`'s `key`, whose filter hash is `hash`: from the cache, else
    /// from `tree` through `pool`, admitting from the leaf it reads.
    fn lookup(
        &mut self,
        pool: &BufferPool,
        tree: &BTree<K, V>,
        tenant: u32,
        (hash, key): (u64, &K),
    ) -> Result<Option<V>> {
        let Some(max_frames) = self.max_frames else {
            return tree.get(key);
        };
        match self.records.get(hash) {
            Some((t, k, v)) if t == tenant && k == *key => {
                self.stats.record_cache_hit();
                return Ok(Some(v));
            }
            _ => {}
        }
        // Full slots that may grow, and the last frame asked of the pool
        // released: ask for one more.
        let per_frame = tree.leaf_capacity();
        let ((slots, taken), limit) = (self.records.slots(), pool.limit());
        let frames = slots / per_frame;
        if taken >= slots && limit + frames == pool.capacity() && frames < max_frames {
            pool.set_limit(limit - 1);
        }
        tree.get_with_leaf(key, |found, leaf| {
            self.admit(pool, per_frame, tenant, (hash, key), found, leaf);
            found.cloned()
        })
    }

    /// After a descent for `key` (filter hash `hash`) that found `found` in
    /// `leaf`: add the slots of the frames the pool has released, admit the
    /// rest of the leaf while slots are free, then the record found, which
    /// takes a slot, else its tenant's budget, else another record's place.
    fn admit(
        &mut self,
        pool: &BufferPool,
        per_frame: usize,
        tenant: u32,
        (hash, key): (u64, &K),
        found: Option<&V>,
        leaf: &[(K, V)],
    ) {
        let held = pool.capacity() - pool.resident().max(pool.limit());
        self.records.set_slots(held * per_frame);
        let (slots, taken) = self.records.slots();
        let mut free = (slots - taken).saturating_sub(usize::from(found.is_some()));
        for (k, v) in leaf {
            if free == 0 {
                break;
            }
            let h = filter_hash(tenant, k);
            if k != key && !self.records.contains(h) {
                self.records.insert(h, (tenant, k.clone(), v.clone()), None);
                free -= 1;
            }
        }
        if let Some(v) = found {
            let record = (tenant, key.clone(), v.clone());
            if !self
                .records
                .insert(hash, record, self.budgets.get(tenant as usize))
            {
                self.stats.record_cache_rejected();
            }
        }
    }

    /// Before a compaction: drop the record of every key in `touched`, on a
    /// slot or a budget, whose value the rebuild may change.  The rest
    /// stay, as the rebuild changes no other value.
    fn invalidate<'a>(&mut self, touched: impl IntoIterator<Item = &'a Ik<K>>)
    where
        K: 'a,
    {
        for (tenant, key) in touched {
            if self.records.is_empty() {
                break;
            }
            self.records.invalidate(filter_hash(*tenant, key));
        }
    }

    /// After a compaction, with `max_frames` for the trees it left and
    /// `per_frame` records a leaf: keep at most that many frames of slots,
    /// evicting the SLRU's slot records beyond them, and give the pool back
    /// the frames the slots no longer hold.
    fn shrink(&mut self, pool: &BufferPool, per_frame: usize, max_frames: Option<usize>) {
        self.max_frames = max_frames;
        let frames = self.records.slots().0 / per_frame;
        let keep = frames.min(max_frames.unwrap_or(0));
        if keep < frames {
            self.records.shrink_slots(keep * per_frame);
            pool.set_limit(pool.capacity() - keep);
        }
    }
}

/// Parse a checkpoint's tree manifest into `(tenant, root, height, len)`
/// entries.  A length that is not a whole number of entries, a height that
/// does not fit `u32`, or tenants not strictly increasing (one listed twice)
/// is [`PdmError::Corrupt`].
fn parse_trees(bytes: &[u8]) -> Result<Vec<(u32, u64, u32, u64)>> {
    let corrupt = || PdmError::Corrupt("malformed shard tree manifest".into());
    if !bytes.len().is_multiple_of(TREE_ENTRY) {
        return Err(corrupt());
    }
    let mut entries: Vec<(u32, u64, u32, u64)> = Vec::with_capacity(bytes.len() / TREE_ENTRY);
    for chunk in bytes.chunks_exact(TREE_ENTRY) {
        let (tenant, root, height, len) = TreeEntry::read_from(chunk);
        let height = u32::try_from(height).map_err(|_| corrupt())?;
        if entries.last().is_some_and(|&(prev, ..)| prev >= tenant) {
            return Err(corrupt());
        }
        entries.push((tenant, root, height, len));
    }
    Ok(entries)
}

/// A pending write destined for the log: who to ack, and what to apply.
struct PendingOp<K, V> {
    tenant: u32,
    op_id: u64,
    key: Ik<K>,
    /// `Some(v)` = put, `None` = delete.
    op: Option<V>,
}

/// One partition of the dictionary: a B+-tree per tenant + log + delta.
///
/// Single-threaded by design — the [`Server`](crate::Server) gives each
/// shard its own drain thread and lane-pinned device, so shards never
/// contend on locks or on each other's disk queues.
pub struct Shard<K: Record + Ord, V: Record> {
    /// Read pool every tenant's tree shares.
    pool: Arc<BufferPool>,
    /// Each tenant's tree, once a compaction has put a key of it.
    trees: BTreeMap<u32, TenantTree<K, V>>,
    /// Ops flushed since the last compaction, superseded or not: with the
    /// delta's size, what [`wants_compact`](Self::wants_compact) counts.  On
    /// a journal, the records of the `"log"` manifest.
    logged: usize,
    /// Every op since the last compaction (logged *or* still in-flight in
    /// `batch`): `Some(v)` put, `None` delete.  Read-your-writes overlay
    /// and, being ordered, compaction's input.
    delta: Latest<K, V>,
    /// Ops accepted but not yet logged (the open batch).
    batch: Vec<PendingOp<K, V>>,
    compact_threshold: usize,
    /// Hot records, in the pool frames the trees' leaves gave up or on
    /// their tenants' budgets.  Behind a lock because a get, which takes
    /// `&self`, admits records.
    records: Mutex<RecordCache<K, V>>,
    /// Crash-recovery journal, when the shard runs on a
    /// [`Journal`]-wrapped device.  Every batch flush and compaction
    /// commits a checkpoint (tree entries + the log's new records) before
    /// any op is acknowledged, so acked writes survive a crash.  The delta
    /// is not checkpointed: with the batch empty it is exactly the log's
    /// latest-op-per-key view, which [`recover`](Self::recover) replays.
    journal: Option<Arc<Journal>>,
}

impl<K, V> Shard<K, V>
where
    K: Record + Ord,
    V: Record,
{
    /// Build a shard on `device` with a `pool_frames`-frame pool, which the
    /// trees' nodes and the record cache share, and compaction once the
    /// delta holds `compact_threshold` distinct keys (or that many of the
    /// ops flushed since were superseded).
    ///
    /// `_absorber_mem` is ignored.  It sized the buffer-tree absorber the
    /// log replaced, and stays so that callers written against that
    /// signature keep compiling.  The same holds for
    /// [`with_journal`](Self::with_journal) and [`recover`](Self::recover).
    pub fn new(
        device: SharedDevice,
        pool_frames: usize,
        _absorber_mem: usize,
        compact_threshold: usize,
    ) -> Result<Self> {
        let records = RecordCache::new(Vec::new(), Arc::default());
        Ok(Self::build(
            device,
            None,
            pool_frames,
            compact_threshold,
            records,
        ))
    }

    /// Build a journaled shard: all shard storage lives behind `journal`
    /// (copy-on-write epochs, checkpoint-and-rewind), and every
    /// [`flush_batch`](Self::flush_batch) commits a checkpoint *before*
    /// acknowledging, so a crash never loses an acked write.  Pair with
    /// [`recover`](Self::recover) after a crash.
    pub fn with_journal(
        journal: Arc<Journal>,
        pool_frames: usize,
        _absorber_mem: usize,
        compact_threshold: usize,
    ) -> Result<Self> {
        let device: SharedDevice = Arc::clone(&journal) as SharedDevice;
        Ok(Self::build(
            device,
            Some(journal),
            pool_frames,
            compact_threshold,
            RecordCache::new(Vec::new(), Arc::default()),
        ))
    }

    /// A [`Server`](crate::Server)'s shard: as [`new`](Self::new), and its
    /// record cache also charges `budgets[tenant]` for a record of `tenant`
    /// no slot holds, and counts its hits, rejected admissions and segment
    /// moves in `stats`.
    pub(crate) fn for_server(
        device: SharedDevice,
        pool_frames: usize,
        compact_threshold: usize,
        budgets: Vec<Arc<MemBudget>>,
        stats: Arc<ServeStats>,
    ) -> Self {
        let records = RecordCache::new(budgets, stats);
        Self::build(device, None, pool_frames, compact_threshold, records)
    }

    fn build(
        device: SharedDevice,
        journal: Option<Arc<Journal>>,
        pool_frames: usize,
        compact_threshold: usize,
        records: RecordCache<K, V>,
    ) -> Self {
        let pool = BufferPool::new(device, pool_frames, EvictionPolicy::Lru);
        Shard {
            pool,
            trees: BTreeMap::new(),
            logged: 0,
            delta: BTreeMap::new(),
            batch: Vec::new(),
            compact_threshold: compact_threshold.max(1),
            records: Mutex::new(records),
            journal,
        }
    }

    /// Rebuild a shard from `journal`'s last committed checkpoint (obtained
    /// via `pdm::Journal::recover` over the surviving medium).  A journal
    /// with no shard checkpoint yet (crash before the first flush) yields a
    /// fresh empty shard.  Un-checkpointed work — including a batch whose
    /// flush never committed — is rewound; none of it was ever acked.
    ///
    /// Each tenant's tree is reattached from its checkpoint entry, with no
    /// I/O and no key filter.  The delta overlay is rebuilt by replaying
    /// the recovered `"log"` manifest, newest op first, in memory: the
    /// journal's recovery read it with the headers that carry it, so this
    /// costs no transfer.
    ///
    /// # Errors
    ///
    /// [`PdmError::Corrupt`] for a malformed checkpoint: a tree manifest
    /// that is not a whole number of entries or lists a tenant twice, or a
    /// missing log manifest or one that is not a whole number of records.
    pub fn recover(
        journal: Arc<Journal>,
        pool_frames: usize,
        _absorber_mem: usize,
        compact_threshold: usize,
    ) -> Result<Self> {
        let Some(bm) = journal.manifest("btree") else {
            return Self::with_journal(journal, pool_frames, 0, compact_threshold);
        };
        let device: SharedDevice = Arc::clone(&journal) as SharedDevice;
        let pool = BufferPool::new(device, pool_frames, EvictionPolicy::Lru);
        let trees = parse_trees(&bm)?
            .into_iter()
            .map(|(tenant, root, height, len)| {
                let tree = BTree::reattach(pool.clone(), root, height, len);
                (tenant, TenantTree { tree, filter: None })
            })
            .collect();
        let log = journal
            .manifest("log")
            .ok_or_else(|| PdmError::Corrupt("shard checkpoint has no log manifest".into()))?;
        Ok(Shard {
            pool,
            trees,
            logged: log.len() / oplog::record_len::<K, V>(),
            delta: oplog::replay(&log)?,
            batch: Vec::new(),
            compact_threshold: compact_threshold.max(1),
            records: Mutex::new(RecordCache::new(Vec::new(), Arc::default())),
            journal: Some(journal),
        })
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

    /// Queue a write into the open batch.  Visible to reads
    /// immediately via the delta; acknowledged only once flushed.
    pub fn enqueue(&mut self, tenant: u32, op_id: u64, key: K, op: Option<V>) {
        let ik = (tenant, key);
        self.delta.insert(ik.clone(), op.clone());
        self.batch.push(PendingOp {
            tenant,
            op_id,
            key: ik,
            op,
        });
    }

    /// Append the open batch to the log, acknowledging each op through
    /// `ack(tenant, op_id)` *after* it is durable.  Returns the number of
    /// ops flushed.  Does not compact — see [`Shard::maybe_compact`].
    ///
    /// The ack ordering is the crash-safety contract: on a journaled shard
    /// the whole batch is committed to a checkpoint first, so a crash at any
    /// point either rewinds an entirely-unacked batch or recovers every
    /// acked op.  On an unjournaled shard a device
    /// [`barrier`](pdm::BlockDevice::barrier) runs first, so a write-behind
    /// failure surfaces as this batch's error instead of being acked around.
    ///
    /// Cost: the checkpoint alone, and no reads.  On a journal that is one
    /// header write carrying the batch's records: the header that commits a
    /// flush is chained, and holds only what changed since the one before —
    /// 21 bytes an op and 43 bytes of framing, not the log before it, and
    /// not the tree entries, which only a compaction changes.  At `B` =
    /// 1 KiB a batch of up to 44 ops is one write however many tenant trees,
    /// and each 1 008 bytes more is one overflow block.  (The first flush
    /// after a compaction is an anchor instead when the whole record fits,
    /// up to `⌊(904 − 28·T)/21⌋` ops at `T` trees: one write either way.)
    /// Batches under about 24 ops, half a block of records, grow the chain
    /// faster than the log, so the journal's anchor rule rewrites the log
    /// as an anchor each time the chain reaches twice that: at most 1.5
    /// writes a flush, amortized.  Without a journal, a device barrier and
    /// no transfer.
    pub fn flush_batch(&mut self, mut ack: impl FnMut(u32, u64)) -> Result<usize> {
        let batch = std::mem::take(&mut self.batch);
        if batch.is_empty() {
            return Ok(0);
        }
        if let Some(journal) = &self.journal {
            let mut records = Vec::with_capacity(batch.len() * oplog::record_len::<K, V>());
            for p in &batch {
                oplog::encode(&p.key, &p.op, &mut records);
            }
            journal.append_manifest("log", &records);
        }
        self.logged += batch.len();
        self.checkpoint()?;
        for p in &batch {
            ack(p.tenant, p.op_id);
        }
        Ok(batch.len())
    }

    /// Make all accepted state durable.  With a journal: flush the read
    /// pool's dirty frames, record one [`TreeEntry`] per tree in tenant
    /// order, and commit a checkpoint, which carries the log's new records
    /// too.  Without one: a device barrier, surfacing any dropped
    /// write-behind error (no extra transfers).
    ///
    /// Only ever runs with the batch empty: the overlay is not written, it
    /// is re-derived from the log, so an op still in the batch would be
    /// committed nowhere.
    fn checkpoint(&mut self) -> Result<()> {
        debug_assert!(self.batch.is_empty(), "checkpoint over an open batch");
        let Some(journal) = &self.journal else {
            return self.pool.device().barrier();
        };
        let journal = Arc::clone(journal);
        self.pool.flush()?;
        let mut bm = vec![0u8; self.trees.len() * TREE_ENTRY];
        for ((&tenant, t), entry) in self.trees.iter().zip(bm.chunks_exact_mut(TREE_ENTRY)) {
            let tree = &t.tree;
            (tenant, tree.root(), u64::from(tree.height()), tree.len()).write_to(entry);
        }
        journal.set_manifest("btree", bm);
        journal.checkpoint()
    }

    /// Point lookup: the delta overlay first (read-your-writes, including
    /// the open batch), then the tenant's key filter, then the record
    /// cache, then the tenant's B+-tree through the pool, whose leaf the
    /// record cache admits from.  A get the record cache answers is a hit,
    /// every other get a miss.
    ///
    /// Cost: no transfer when the delta answers, the tenant has no tree,
    /// the filter rejects the key or the record cache holds it, else the
    /// tree's `Search(N)`: one leaf read once the cache has taken every
    /// frame it may, the upper levels staying pooled.  A key the tree holds
    /// always passes the filter; one it does not hold passes only as a
    /// false positive, at 8–16 bits a key about 1.4–4.9 % of the time, so an
    /// absent key costs that share of `Search(N)`.  A recovered shard has
    /// no filter and no record cache until its next compaction, and every
    /// lookup the delta does not answer reads the tree.
    pub fn get(&self, tenant: u32, key: &K) -> Result<Option<V>> {
        if let Some(op) = self.delta.get(&(tenant, key.clone())) {
            return Ok(op.clone());
        }
        let Some(t) = self.trees.get(&tenant) else {
            return Ok(None);
        };
        let hash = filter_hash(tenant, key);
        if t.filter.as_ref().is_some_and(|f| !f.may_contain(hash)) {
            return Ok(None);
        }
        let mut records = self.records.lock().unwrap_or_else(PoisonError::into_inner);
        records.lookup(&self.pool, &t.tree, tenant, (hash, key))
    }

    /// Records the record cache holds, on slots and on budgets: none until
    /// this instance's first compaction.
    pub fn cached_records(&self) -> usize {
        let records = self.records.lock().unwrap_or_else(PoisonError::into_inner);
        records.records.len()
    }

    /// Tenant-scoped range scan over `[lo, hi]`, merging the tenant's tree
    /// with the delta overlay (deletes hide tree records, puts override).
    pub fn range(&self, tenant: u32, lo: &K, hi: &K) -> Result<Vec<(K, V)>> {
        if lo > hi {
            return Ok(Vec::new());
        }
        let mut merged: BTreeMap<K, V> = match self.trees.get(&tenant) {
            Some(t) => t.tree.range(lo, hi)?.into_iter().collect(),
            None => BTreeMap::new(),
        };
        let (lo_ik, hi_ik) = ((tenant, lo.clone()), (tenant, hi.clone()));
        for ((_, k), op) in self.delta.range(&lo_ik..=&hi_ik) {
            match op {
                Some(v) => {
                    merged.insert(k.clone(), v.clone());
                }
                None => {
                    merged.remove(k);
                }
            }
        }
        Ok(merged.into_iter().collect())
    }

    /// True when the delta has reached the compaction threshold, or that
    /// many of the ops flushed since the last compaction were superseded by
    /// a later op on the same key.  Only meaningful between batches (the
    /// open batch must be flushed first so the log and delta agree).
    pub fn wants_compact(&self) -> bool {
        let superseded = self.logged.saturating_sub(self.delta.len());
        self.batch.is_empty() && self.delta.len().max(superseded) >= self.compact_threshold
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

    /// Merge everything accepted since the last compaction into the tenants'
    /// B+-trees, one streaming pass per tenant the delta touches.
    ///
    /// The delta is the log's latest-op-per-key view, in memory and ordered
    /// by tenant, then key, so each tenant's run of it feeds that tenant's
    /// `apply_sorted_batch` directly: puts become upserts, deletes become
    /// erases, and the tree is rebuilt at its floor — each old node the
    /// pool does not hold read once, each new node written once,
    /// `O((N+Δ)/B)` transfers instead of `Δ·O(log_B N)` point updates; an
    /// old node the pool holds is consumed in place, not evicted by the
    /// rebuild's own writes.  A tenant the delta does not touch is
    /// neither read nor rewritten.  A tenant with no tree gets an empty one,
    /// which the same call rebuilds, unless its run holds deletes only.  The
    /// log is not read, only reset to empty.
    ///
    /// The record cache drops the records of the keys the delta touches,
    /// on slots and budgets alike, and keeps the rest.  The rebuild runs
    /// under the pool's current limit, beside the slots, so the frame rule
    /// holds throughout; afterwards the slots shrink to the frames the new
    /// trees leave them, evicting SLRU victims, and the pool's limit rises
    /// by the frames they give back.  Whether or not the compaction
    /// succeeded, the cache is warm after it.
    ///
    /// Each tenant's key filter is rebuilt from the keys its rebuild writes,
    /// at two bytes per key the new tree can hold (the old tree's plus the
    /// run's puts), and replaces the old one only once that rebuild
    /// succeeded.  A failure stops the compaction: tenants already rebuilt
    /// keep their new trees and filters, the failed one its old tree and
    /// filter (or the empty tree it was given), and the delta and log stay
    /// whole, so reads stay exact and the next compaction re-applies the
    /// delta, which is idempotent.  On a journal the compaction is one
    /// epoch, so a crash rewinds every tenant together.
    ///
    /// # Errors
    ///
    /// [`PdmError::InvalidRequest`] while a batch is open: its ops are in
    /// the delta but not in the log, so compacting would apply writes that
    /// were never made durable.  Flush it first.
    pub fn compact(&mut self) -> Result<()> {
        if !self.batch.is_empty() {
            return Err(PdmError::InvalidRequest(
                "flush the open batch before compacting".into(),
            ));
        }
        if self.delta.is_empty() {
            return Ok(());
        }
        self.records
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .invalidate(self.delta.keys());
        let rebuilt = self.rebuild_trees();
        // Shrink the slots to what the trees now leave, whether or not
        // every rebuild succeeded: the trees are whatever it left.
        let max_frames = max_frames(&self.trees, &self.pool);
        if let Some(t) = self.trees.values().next() {
            let per_frame = t.tree.leaf_capacity();
            self.records
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .shrink(&self.pool, per_frame, max_frames);
        }
        rebuilt
    }

    /// [`compact`](Self::compact)'s rebuilds, under the pool's current
    /// limit, and on a journal the checkpoint that commits them.
    fn rebuild_trees(&mut self) -> Result<()> {
        // (tenant, ops, puts) per tenant the delta touches, in delta order.
        let mut runs: Vec<(u32, usize, usize)> = Vec::new();
        for ((tenant, _), op) in &self.delta {
            match runs.last_mut() {
                Some((t, ops, puts)) if t == tenant => {
                    *ops += 1;
                    *puts += usize::from(op.is_some());
                }
                _ => runs.push((*tenant, 1, usize::from(op.is_some()))),
            }
        }
        let mut ops = self
            .delta
            .iter()
            .map(|((_, k), op)| (k.clone(), op.clone()));
        for (tenant, n, puts) in runs {
            let run = ops.by_ref().take(n);
            let t = match self.trees.entry(tenant) {
                Entry::Occupied(t) => t.into_mut(),
                Entry::Vacant(_) if puts == 0 => {
                    run.for_each(drop);
                    continue;
                }
                Entry::Vacant(slot) => slot.insert(TenantTree {
                    tree: BTree::new(self.pool.clone())?,
                    filter: None,
                }),
            };
            let mut filter = KeyFilter::with_bytes(2 * (t.tree.len() as usize + puts));
            t.tree
                .apply_sorted_batch(run, |key| filter.insert(filter_hash(tenant, key)))?;
            t.filter = Some(filter);
        }
        self.delta.clear();
        self.logged = 0;
        // On a journaled shard the rebuilds must commit atomically: the frees
        // of the old trees' nodes are deferred inside the journal until this
        // checkpoint, so a crash mid-compaction rewinds every tenant to the
        // intact pre-compaction state, log untouched.
        if let Some(journal) = self.journal.clone() {
            journal.set_manifest("log", Vec::new());
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Records in the authoritative trees, summed over tenants (excludes
    /// pending delta ops).
    pub fn tree_len(&self) -> u64 {
        self.trees.values().map(|t| t.tree.len()).sum()
    }

    /// Structural self-check of every tenant's B+-tree.
    pub fn check_invariants(&self) -> Result<()> {
        self.trees
            .values()
            .try_for_each(|t| t.tree.check_invariants())
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

    impl<K: Record + Ord, V: Record> Shard<K, V> {
        /// `tenant`'s tree and filter; the tenant must have a tree.
        fn tree_of(&self, tenant: u32) -> &TenantTree<K, V> {
            &self.trees[&tenant]
        }

        /// `(tenant, len)` of every tree, in tenant order.
        fn tree_lens(&self) -> Vec<(u32, u64)> {
            self.trees
                .iter()
                .map(|(&t, tt)| (t, tt.tree.len()))
                .collect()
        }
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
    fn route_and_filter_hashes_are_pinned() {
        // Over `usize::MAX` shards a route is the whole 64-bit FNV-1a hash;
        // the filter hash sets the key filters' bits and keys the cache.
        assert_eq!(
            shard_of_key(3, &42u64, usize::MAX) as u64,
            0xE2E4_BFD2_1763_9E2C
        );
        assert_eq!(filter_hash(3, &42u64), 0x1211_EA19_9BFF_2409);
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
        // Delete of a logged key, then compaction: stays gone.
        s.enqueue(1, 2, 10, None);
        s.enqueue(1, 3, 12, Some(120));
        assert_eq!(s.get(1, &10).unwrap(), None);
        // A compaction over the open batch is refused and changes nothing.
        assert!(matches!(s.compact(), Err(PdmError::InvalidRequest(_))));
        assert_eq!((s.batch_len(), s.tree_len()), (2, 0));
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
        // Delete it through the log; the tombstone must reach
        // apply_sorted_batch as an erase of a key only the tree holds.
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
        // Compacted into a tree per tenant, the same answers; a tenant with
        // no tree answers from the delta alone.
        s.flush_batch(|_, _| {}).unwrap();
        s.compact().unwrap();
        assert_eq!(s.tree_lens(), [(1, 9), (2, 10)]);
        assert_eq!(s.range(1, &2, &4).unwrap(), vec![(2, 20), (4, 999)]);
        assert_eq!(s.range(2, &8, &20).unwrap(), vec![(8, 8000), (9, 9000)]);
        s.enqueue(3, 300, 5, Some(5));
        assert_eq!(s.range(3, &0, &9).unwrap(), vec![(5, 5)]);
        assert_eq!(
            (s.get(3, &5).unwrap(), s.get(4, &5).unwrap()),
            (Some(5), None)
        );
    }

    /// The tenant [`crashy_run`] writes `key` under.
    fn crashy_tenant(key: u64) -> u32 {
        (key % 3) as u32
    }

    /// What [`crashy_run`] returns: the model of *acked* state, whether the
    /// run crashed, the total transfers performed, and the recovered
    /// shard's `(tenant, len)` per tree.
    type CrashyRun = (BTreeMap<u64, Option<u64>>, bool, u64, Vec<(u32, u64)>);

    /// One scripted journaled-shard run on a device that crashes after `k`
    /// transfers.  Keys spread over three tenants ([`crashy_tenant`]); the
    /// second half of the run deletes every key of tenant 2, so its tree is
    /// deleted to empty and the manifest lists three trees, one of them
    /// empty, by the end.
    fn crashy_run(k: u64) -> CrashyRun {
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
        // The overlay is not checkpointed but re-derived from the log,
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
                            let tenant = crashy_tenant(key);
                            let put = (round + i) % 5 != 0 && (tenant != 2 || round < 5);
                            let op = put.then_some(key * 10 + round);
                            s.enqueue(tenant, op_id, key, op);
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
            .map(|key| (key, s2.get(crashy_tenant(key), &key).unwrap()))
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
            "crash at {k}: the overlay derived from the recovered log is not \
             the delta of either checkpoint"
        );
        s2.check_invariants().unwrap();
        (acked, crashed, stats.snapshot().total(), s2.tree_lens())
    }

    #[test]
    fn journaled_shard_acked_writes_survive_any_crash_point() {
        let (model, crashed, total, trees) = crashy_run(u64::MAX);
        assert!(!crashed);
        assert_eq!(model.len(), 40, "fault-free run touched every key");
        // Three trees come back from the last checkpoint, tenant 2's empty.
        let live = |t: u32| {
            let held = model
                .iter()
                .filter(|&(&k, v)| crashy_tenant(k) == t && v.is_some());
            held.count() as u64
        };
        assert_eq!(trees, [(0, live(0)), (1, live(1)), (2, 0)]);
        assert!(live(0) > 0 && live(1) > 0);
        // Sweep ~30 crash points across the whole run.
        let step = (total / 30).max(1);
        let mut mid_run_recoveries = 0;
        for k in (0..total).step_by(step as usize) {
            let (model, crashed, ..) = crashy_run(k);
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
    fn compaction_never_touches_the_log() {
        use pdm::{Journal, RamDisk};
        let journal = Journal::format(RamDisk::new(512) as SharedDevice).unwrap();
        let mut s: Shard<u64, u64> =
            Shard::with_journal(Arc::clone(&journal), 16, 256, usize::MAX).unwrap();
        let dev = journal.inner().clone();
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
        let old_nodes = s.tree_of(1).tree.node_count().unwrap();
        assert!(old_nodes > 16, "old tree must exceed the pool");
        assert_eq!(
            journal.manifest("log").unwrap().len(),
            600 * 21,
            "the second round's ops are in the log"
        );
        let looked_up = |s: &Shard<u64, u64>| s.pool.stats().hits() + s.pool.stats().misses();
        let (io, wal, lookups, misses, writebacks) = (
            dev.stats().snapshot(),
            journal.overhead(),
            looked_up(&s),
            s.pool.stats().misses(),
            s.pool.stats().writebacks(),
        );
        s.compact().unwrap();
        let d = dev.stats().snapshot().since(&io);
        // Each old node was looked at once, and nothing but a tree node
        // missing from the pool was read …
        assert_eq!(looked_up(&s) - lookups, old_nodes);
        assert_eq!(d.reads(), s.pool.stats().misses() - misses);
        // … each new node was written once, and besides them only the
        // checkpoint's header: its record, one tree entry and an empty log,
        // fits an anchor …
        let new_nodes = s.tree_of(1).tree.node_count().unwrap();
        assert_eq!(d.writes() - 1, new_nodes);
        assert_eq!(d.writes() - 1, s.pool.stats().writebacks() - writebacks);
        let now = journal.overhead();
        assert_eq!(
            (
                now.header_writes - wal.header_writes,
                now.chain_writes - wal.chain_writes,
                now.shadow_writes - wal.shadow_writes,
            ),
            (1, 0, 0)
        );
        // … and the log was reset, not read.  The device holds the new tree
        // and the journal's two anchor slots and pre-allocated block.
        assert_eq!(journal.manifest("log"), Some(Vec::new()));
        assert_eq!(dev.allocated_blocks(), new_nodes + 3);
        s.check_invariants().unwrap();
    }

    /// A compaction rebuilds the tree packed: `⌈n/leaf_cap⌉` leaves, then
    /// `⌈c/(internal_cap + 1)⌉` internal nodes over each level of `c`.  A
    /// tree entry is the user's 16-byte record, so at `B` = 512 a leaf
    /// holds `⌊501/16⌋` = 31 pairs and an internal node 31 keys.
    #[test]
    fn a_compaction_packs_the_tree_to_its_floor() {
        let mut s = ram_shard(usize::MAX);
        for round in 0..2u64 {
            for i in 0..1_000u64 {
                let key = (i * 13 + round * 5) % 1_500;
                s.enqueue(1, i, key, (i % 4 != 0).then_some(i));
            }
            s.flush_batch(|_, _| {}).unwrap();
            s.compact().unwrap();
            let tree = &s.tree_of(1).tree;
            let (lc, ic) = (tree.leaf_capacity(), tree.internal_capacity());
            assert_eq!((lc, ic), (31, 31));
            let mut level = s.tree_len().div_ceil(lc as u64);
            let mut nodes = level;
            while level > 1 {
                level = level.div_ceil(ic as u64 + 1);
                nodes += level;
            }
            assert_eq!(tree.node_count().unwrap(), nodes, "round {round}");
            s.check_invariants().unwrap();
        }
    }

    #[test]
    fn a_compaction_rewrites_only_the_tenants_its_delta_touches() {
        let mut s = ram_shard(usize::MAX);
        let dev = s.pool.device().clone();
        // Two tenants' trees, each larger than the pool …
        for tenant in [1, 2] {
            for k in 0..1_000u64 {
                s.enqueue(tenant, k, k, Some(k));
            }
        }
        s.flush_batch(|_, _| {}).unwrap();
        s.compact().unwrap();
        // … and a delta that touches tenant 1 only: 30 of its keys deleted,
        // 120 overwritten, 120 added.
        for k in 0..300u64 {
            s.enqueue(1, k, 700 + 2 * k, (k % 5 != 0).then_some(k));
        }
        s.flush_batch(|_, _| {}).unwrap();
        s.pool.flush().unwrap();
        let nodes = |s: &Shard<u64, u64>, t: u32| s.tree_of(t).tree.node_count().unwrap();
        let (old_nodes, untouched) = (nodes(&s, 1), nodes(&s, 2));
        assert!(
            old_nodes > 16 && untouched > 16,
            "trees must exceed the pool"
        );
        let root = s.tree_of(2).tree.root();
        let looked_up = |s: &Shard<u64, u64>| s.pool.stats().hits() + s.pool.stats().misses();
        let (io, lookups, misses) = (
            dev.stats().snapshot(),
            looked_up(&s),
            s.pool.stats().misses(),
        );
        s.compact().unwrap();
        s.pool.flush().unwrap();
        let d = dev.stats().snapshot().since(&io);
        // Tenant 1's old nodes were each looked at once, and only they were
        // read; only its new nodes were written.
        assert_eq!(looked_up(&s) - lookups, old_nodes);
        assert_eq!(d.reads(), s.pool.stats().misses() - misses);
        let new_nodes = nodes(&s, 1);
        assert_eq!(d.writes(), new_nodes);
        // Tenant 2's tree is where it was, and the device holds the two trees.
        assert_eq!(s.tree_of(2).tree.root(), root);
        assert_eq!(dev.allocated_blocks(), new_nodes + untouched);
        assert_eq!(s.tree_lens(), [(1, 1_090), (2, 1_000)]);
        s.check_invariants().unwrap();
    }

    /// Nodes of `t`'s packed tree, from its length: what a compaction
    /// built, `⌈len/leaf_cap⌉` leaves (one, empty, at no keys) and the
    /// levels above.
    fn packed_nodes(t: &TenantTree<u64, u64>) -> u64 {
        let leaves = t.tree.len().div_ceil(t.tree.leaf_capacity() as u64).max(1);
        leaves + upper_nodes(&t.tree) as u64
    }

    /// `serve_write`'s shape: one journaled tenant on 1 KiB blocks, 16
    /// frames, a compaction at 1 536 keys, rounds of 29 puts, 3 deletes and
    /// 3 gets.  A compaction reads only the old nodes the pool does not
    /// hold when it starts (with one tenant, every resident frame is one of
    /// them), and writes each new node once.
    #[test]
    fn a_compaction_reads_only_the_old_nodes_the_pool_does_not_hold() {
        use pdm::{Journal, RamDisk};
        use rand::prelude::*;
        let journal = Journal::format(RamDisk::new(1024) as SharedDevice).unwrap();
        let dev = journal.inner().clone();
        let mut s: Shard<u64, u64> = Shard::with_journal(journal, 16, 0, 1_536).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let (mut seen, mut model) = (Vec::new(), BTreeMap::new());
        let mut ledger = Vec::new();
        for round in 0..220u64 {
            let mut writes = Vec::new();
            for _ in 0..29 {
                let (key, value) = (rng.gen_range(0..50_000u64), rng.gen::<u64>());
                seen.push(key);
                writes.push((key, Some(value)));
            }
            for _ in 0..3 {
                writes.push((seen[rng.gen_range(0..seen.len())], None));
            }
            for (i, &(key, op)) in writes.iter().enumerate() {
                s.enqueue(0, round * 32 + i as u64, key, op);
                match op {
                    Some(v) => model.insert(key, v),
                    None => model.remove(&key),
                };
            }
            s.flush_batch(|_, _| {}).unwrap();
            if s.wants_compact() {
                let old = s.trees.get(&0).map_or(0, packed_nodes);
                let (resident, limit) = (s.pool.resident() as u64, s.pool.limit() as u64);
                let io = dev.stats().snapshot();
                s.compact().unwrap();
                let d = dev.stats().snapshot().since(&io);
                // Each new node once, and the checkpoint's one header.
                if old > 0 {
                    assert_eq!(d.writes(), packed_nodes(s.tree_of(0)) + 1);
                }
                // Of the old nodes resident, only those past `limit − 2`
                // may have been evicted before the walk reached them.
                let reread = d.reads() + resident - old;
                assert!(reread <= (resident + 2).saturating_sub(limit));
                ledger.push((old, resident, limit, d.reads()));
                assert_one_memory(&s);
            }
            for g in 0..3 {
                let key = if g % 2 == 0 {
                    writes[rng.gen_range(0..writes.len())].0
                } else {
                    rng.gen_range(0..50_000u64)
                };
                assert_eq!(s.get(0, &key).unwrap(), model.get(&key).copied());
            }
        }
        // (old nodes, old nodes resident, pool limit, reads) a compaction.
        // As the slots take frames the limit falls, and the rebuild's two
        // working frames cost one or two of the resident old nodes.  While
        // slots did not survive a compaction, each read every old node but
        // one or two: 23, 43 and 62.
        assert_eq!(
            ledger,
            [
                (0, 0, 16, 0),
                (24, 14, 13, 12),
                (44, 8, 8, 37),
                (64, 6, 6, 59)
            ]
        );
        s.check_invariants().unwrap();
    }

    /// Batches in [`play_tape`]'s tape.
    const TAPE_BATCHES: u64 = 80;

    /// Play `batches` of a seeded 2 000-op put/overwrite/delete tape (25 ops
    /// a batch, a compaction whenever 300 keys are pending) on a journaled
    /// shard.  Before each compaction the overlay must equal the view the
    /// journal's `"log"` manifest replays to, after it the shard must equal
    /// the model.  On a device error returns the index of
    /// the batch in flight, which is safe to replay: an op's effect depends
    /// only on its position in the tape.  (The two tests that play it keep
    /// the names they had when the log was a buffer-tree absorber.)
    fn play_tape(
        s: &mut Shard<u64, u64>,
        model: &mut BTreeMap<u64, u64>,
        batches: std::ops::Range<u64>,
    ) -> std::result::Result<u32, u64> {
        let mut compactions = 0;
        for batch in batches {
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
            let log = s.journal.as_ref().and_then(|j| j.manifest("log"));
            let logged = oplog::replay(&log.expect("a journaled shard")).map_err(|_| batch)?;
            assert_eq!(s.delta, logged, "batch {batch}: overlay != log view");
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
        use pdm::{Journal, RamDisk};
        let journal = Journal::format(RamDisk::new(512) as SharedDevice).unwrap();
        let mut s: Shard<u64, u64> = Shard::with_journal(journal, 16, 256, 300).unwrap();
        let compactions = play_tape(&mut s, &mut BTreeMap::new(), 0..TAPE_BATCHES).unwrap();
        assert!(compactions >= 4, "only {compactions} compactions");
        s.check_invariants().unwrap();
    }

    #[test]
    fn overlay_equals_absorber_view_on_a_recovered_shard() {
        use pdm::{BlockDevice, CrashSwitch, FaultDisk, FaultPlan, Journal, RamDisk};
        // A formatted medium, its header pair, and the transfers formatting
        // took (which no crash switch sees).
        let medium = || {
            let ram = RamDisk::new(512);
            let j0 = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
            let headers = j0.header_blocks().unwrap();
            drop(j0);
            let formatted = ram.stats().snapshot().total();
            (ram, headers, formatted)
        };
        // Returns the batch the tape was resumed from after the crash, if it
        // crashed.
        let run = |kill_after: u64| -> Option<u64> {
            let (ram, headers, _) = medium();
            let faulty = FaultDisk::wrap(
                Arc::clone(&ram) as SharedDevice,
                FaultPlan::new(0).with_crash(CrashSwitch::after(kill_after)),
            );
            let mut model = BTreeMap::new();
            let j = Journal::recover(faulty as SharedDevice, headers).unwrap();
            let mut s = Shard::<u64, u64>::recover(j, 16, 256, 300).unwrap();
            let Err(in_flight) = play_tape(&mut s, &mut model, 0..TAPE_BATCHES) else {
                return None;
            };
            // The crashed instance's Drop would free blocks the recovered
            // shard owns; leak it like the process it models.
            std::mem::forget(s);
            let j = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
            let mut s = Shard::<u64, u64>::recover(j, 16, 256, 300).unwrap();
            let compactions = play_tape(&mut s, &mut model, in_flight..TAPE_BATCHES).unwrap();
            assert!(
                compactions >= 1,
                "kill at {kill_after}: nothing left to compact"
            );
            s.check_invariants().unwrap();
            Some(in_flight)
        };
        assert_eq!(run(u64::MAX), None, "fault-free run crashed");
        // The fault-free run once more, a batch at a time: the transfers the
        // switch would have counted by the end of each batch, and whether
        // the batch compacted.
        let (ram, headers, formatted) = medium();
        let j = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
        let mut s = Shard::<u64, u64>::recover(j, 16, 256, 300).unwrap();
        let mut model = BTreeMap::new();
        let done: Vec<(u64, bool)> = (0..TAPE_BATCHES)
            .map(|b| {
                let compacted = play_tape(&mut s, &mut model, b..b + 1).unwrap() > 0;
                (ram.stats().snapshot().total() - formatted, compacted)
            })
            .collect();
        // Six kill points spread over the tape, each inside a batch whose
        // predecessor left an overlay pending — at the batch's first, second,
        // … transfer, so the crash hits its overflow block, its commit
        // header or its compaction.
        let batches: Vec<u64> = (1..=6)
            .map(|i| (i * 10..).find(|&b| !done[b as usize - 1].1).unwrap())
            .collect();
        let resumed: Vec<u64> = batches
            .iter()
            .zip(0u64..)
            .map(|(&b, i)| {
                let (start, end) = (done[b as usize - 1].0, done[b as usize].0);
                run(start + i % (end - start)).expect("kill point inside the run")
            })
            .collect();
        assert_eq!(resumed, batches, "each crash resumes the batch it hit");
        assert!(
            resumed.windows(2).all(|w| w[0] < w[1]) && resumed[0] > 0,
            "kill points did not spread over the tape: {resumed:?}"
        );
    }

    #[test]
    fn checkpoint_cost_does_not_grow_with_the_overlay() {
        use pdm::{BlockDevice, Journal, RamDisk};
        // The benchmark's geometry: 1 KiB blocks, 32-op batches, compaction
        // out of reach, insert-only, so the overlay only grows.
        let ram = RamDisk::new(1024);
        let journal = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
        let mut s: Shard<u64, u64> =
            Shard::with_journal(Arc::clone(&journal), 16, 4096, usize::MAX).unwrap();
        for round in 0..40u64 {
            for i in 0..32u64 {
                let key = round * 32 + i;
                s.enqueue(0, key, key, Some(key));
            }
            let (io, wal) = (ram.stats().snapshot(), journal.overhead());
            s.flush_batch(|_, _| {}).unwrap();
            let d = ram.stats().snapshot().since(&io);
            let now = journal.overhead();
            // One header, which carries the batch's 672 bytes of records:
            // the first an anchor (the whole record, 744 of its 976 inline
            // bytes), every later one a chained header (43 bytes of framing
            // and the new records).  Nothing is read, nothing overflows,
            // nothing is shadowed: a shard that has never compacted has no
            // tree to write.
            assert_eq!((d.reads(), d.writes()), (0, 1), "round {round}");
            assert_eq!(
                (
                    now.header_writes - wal.header_writes,
                    now.chain_writes - wal.chain_writes,
                    now.shadow_writes - wal.shadow_writes,
                ),
                (1, 0, 0),
                "round {round}"
            );
        }
        // The log holds 1 280 × 21 bytes, 27 blocks' worth, and no header
        // carried more than its own batch.
        assert_eq!(journal.manifest("log").unwrap().len(), 40 * 32 * 21);
        assert_eq!(s.pending(), 40 * 32);
        let wal = journal.overhead();
        assert_eq!(wal.checkpoints, 40);
        assert_eq!(wal.apply_reads + wal.apply_writes, 0);
    }

    /// On a journaled shard holding `trees` tenant trees at `B` = 1 KiB, a
    /// flush of 44 ops costs one header write and one of 45 an overflow
    /// block more, however long the log grows: the chained header that
    /// commits a batch holds its 21-byte records and 43 bytes of framing in
    /// 976 inline bytes, and leaves out the tree entries, which did not
    /// change.  (The tests keep the names they had under a 56-byte header
    /// and 51 bytes of framing, when the boundary was 43 ops.)
    fn assert_batch_spills_past_44(trees: u32) {
        use pdm::{Journal, RamDisk};
        let journal = Journal::format(RamDisk::new(1024) as SharedDevice).unwrap();
        let mut s: Shard<u64, u64> =
            Shard::with_journal(Arc::clone(&journal), 16, 4096, usize::MAX).unwrap();
        for tenant in 0..trees {
            s.enqueue(tenant, 0, 0, Some(0));
        }
        s.flush_batch(|_, _| {}).unwrap();
        s.compact().unwrap();
        assert_eq!(
            journal.manifest("btree").unwrap().len(),
            28 * trees as usize
        );
        let mut key = 0u64;
        for (n, chain) in [(44, 0), (45, 1), (44, 0), (45, 1), (1, 0)] {
            for _ in 0..n {
                s.enqueue(0, key, key, Some(key));
                key += 1;
            }
            let before = journal.overhead();
            s.flush_batch(|_, _| {}).unwrap();
            let now = journal.overhead();
            assert_eq!(
                (
                    now.header_writes - before.header_writes,
                    now.chain_writes - before.chain_writes
                ),
                (1, chain),
                "{trees} trees, a batch of {n} after {} ops",
                s.logged - n as usize
            );
        }
    }

    #[test]
    fn a_batch_past_43_records_spills_one_chain_block() {
        assert_batch_spills_past_44(1);
    }

    /// A tree's 28-byte entry rides in anchors only, so the boundary does
    /// not move with the number of trees.
    #[test]
    fn with_two_trees_a_batch_past_43_records_spills_one_chain_block() {
        assert_batch_spills_past_44(2);
    }

    /// Batches of at least half a block of records, 24 ops at 1 KiB, grow
    /// the full record twice as fast as the chain: every flush is one
    /// header.  Smaller ones let the chain outgrow the log, and the anchor
    /// rule rewrites the log as an anchor whenever the chain reaches twice
    /// it, which adds at most half the chain's own writes.
    #[test]
    fn batches_under_half_a_block_pay_at_most_half_again_for_anchors() {
        use pdm::{BlockDevice, Journal, RamDisk};
        const FLUSHES: u64 = 400;
        for (n, writes) in [(24u64, FLUSHES), (23, 425), (8, 572)] {
            let ram = RamDisk::new(1024);
            let journal = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
            let mut s: Shard<u64, u64> = Shard::with_journal(journal, 16, 0, usize::MAX).unwrap();
            let before = ram.stats().snapshot();
            for key in 0..FLUSHES * n {
                s.enqueue(0, key, key, Some(key));
                if key % n == n - 1 {
                    s.flush_batch(|_, _| {}).unwrap();
                }
            }
            let d = ram.stats().snapshot().since(&before);
            assert_eq!((d.reads(), d.writes()), (0, writes), "{n}-op batches");
            assert!(2 * writes <= 3 * FLUSHES, "{n}-op batches");
        }
    }

    #[test]
    fn a_malformed_tree_manifest_is_corrupt_not_a_panic() {
        use pdm::{Journal, RamDisk};
        let journal = Journal::format(RamDisk::new(1024) as SharedDevice).unwrap();
        let mut s: Shard<u64, u64> =
            Shard::with_journal(Arc::clone(&journal), 16, 0, usize::MAX).unwrap();
        for tenant in [2, 5, 9] {
            s.enqueue(tenant, 0, 7, Some(u64::from(tenant)));
        }
        s.flush_batch(|_, _| {}).unwrap();
        s.compact().unwrap();
        let good = journal.manifest("btree").unwrap();
        assert_eq!(good.len(), 3 * 28);
        // Recovering over the live journal: the compacted log owns no block.
        let recover = |bytes: &[u8]| {
            journal.set_manifest("btree", bytes.to_vec());
            Shard::<u64, u64>::recover(Arc::clone(&journal), 16, 0, usize::MAX)
        };
        let again = recover(&good).unwrap();
        assert_eq!(again.tree_lens(), [(2, 1), (5, 1), (9, 1)]);
        assert_eq!(again.get(5, &7).unwrap(), Some(5));
        let entry = |i: usize| &good[i * 28..(i + 1) * 28];
        let twice = [entry(0), entry(1), entry(1)].concat();
        let unordered = [entry(1), entry(0), entry(2)].concat();
        let mut tall = good.clone();
        tall[16..20].fill(0xFF); // the high half of the first height
        for bad in [
            &good[..27],
            &good[..good.len() - 1],
            &twice,
            &unordered,
            &tall,
        ] {
            let got = recover(bad);
            assert!(matches!(got, Err(PdmError::Corrupt(_))), "{:?}", got.err());
        }
        assert_eq!(recover(&[]).unwrap().tree_lens(), []);
    }

    #[test]
    fn crash_after_commit_recovers_ops_that_lived_only_in_the_inline_tail() {
        use pdm::{BlockDevice, Journal, RamDisk};
        let ram = RamDisk::new(1024);
        let journal = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
        let headers = journal.header_blocks().unwrap();
        let mut s: Shard<u64, u64> = Shard::with_journal(journal, 16, 4096, usize::MAX).unwrap();
        // Two batches of 32 over 40 keys: ops 40..64 overwrite keys 0..24
        // and op 50 deletes key 10.  No block holds a log record: the first
        // batch's records live in an anchor, the second's in the chained
        // header after it.
        let mut model = BTreeMap::new();
        for i in 0..64u64 {
            let op = (i != 50).then_some(i);
            s.enqueue(0, i, i % 40, op);
            model.insert((0, i % 40), op);
            if i % 32 == 31 {
                s.flush_batch(|_, _| {}).unwrap();
            }
        }
        assert_eq!(s.delta, model);
        // The crash: flush_batch returned, so its header has landed; the
        // process dies without running a destructor.
        std::mem::forget(s);
        let before = ram.stats().snapshot();
        let journal = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
        let s = Shard::<u64, u64>::recover(journal, 16, 4096, usize::MAX).unwrap();
        let d = ram.stats().snapshot().since(&before);
        // Both anchor slots, the chained header and the block that ends the
        // walk; the shard replays the log from memory.
        assert_eq!((d.reads(), d.writes()), (2 + 1 + 1, 0));
        assert_eq!(s.logged, 64);
        assert_eq!(s.delta, model);
        assert_eq!(
            s.get(0, &8).unwrap(),
            Some(48),
            "an overwrite from the tail"
        );
        assert_eq!(s.get(0, &10).unwrap(), None, "a delete from the tail");
        assert_eq!(s.get(0, &24).unwrap(), Some(24), "untouched by the tail");
    }

    #[test]
    fn hot_key_overwrites_compact_on_the_log_slack() {
        // 10 000 overwrites of 4 keys never bring the delta near its 64-key
        // threshold; the log's slack of as many superseded records is what
        // compacts them, and bounds it.
        const THRESHOLD: usize = 64;
        const SLACK: usize = THRESHOLD;
        let dev: SharedDevice = DiskArray::new_ram(1, 512, Placement::Independent);
        let mut s: Shard<u64, u64> = Shard::new(dev, 16, 256, THRESHOLD).unwrap();
        let mut model = BTreeMap::new();
        let (mut longest, mut compactions) = (0, 0);
        for i in 0..10_000u64 {
            s.enqueue(0, i, i % 4, Some(i));
            model.insert(i % 4, i);
            if i % 16 == 15 {
                s.flush_batch(|_, _| {}).unwrap();
                longest = longest.max(s.logged);
                assert!(s.pending() <= 4);
                compactions += usize::from(s.maybe_compact().unwrap());
            }
        }
        assert!(longest <= THRESHOLD + SLACK, "log grew to {longest}");
        // The 5th flush of 16 leaves 80 records, 76 of them superseded: one
        // compaction every 5 of the 625 flushes.
        assert_eq!((longest, compactions), (80, 625 / 5));
        let all = s.range(0, &0, &u64::MAX).unwrap();
        assert!(all.into_iter().eq(model));
        s.check_invariants().unwrap();
    }

    /// Pool lookups (hits + misses) and device reads of `gets` on `s`.
    fn get_ledger(s: &Shard<u64, u64>, keys: impl IntoIterator<Item = u64>) -> (u64, u64) {
        let stats = s.pool.stats();
        let lookups = || stats.hits() + stats.misses();
        let (before, io) = (lookups(), s.pool.device().stats().snapshot());
        for k in keys {
            s.get(0, &k).unwrap();
        }
        let reads = s.pool.device().stats().snapshot().since(&io).reads();
        (lookups() - before, reads)
    }

    /// How many of `keys` tenant 0's key filter lets through to the tree.
    fn passes(s: &Shard<u64, u64>, keys: impl IntoIterator<Item = u64>) -> usize {
        let filter = s
            .tree_of(0)
            .filter
            .as_ref()
            .expect("a compacted tree has a filter");
        keys.into_iter()
            .filter(|k| filter.may_contain(filter_hash(0, k)))
            .count()
    }

    #[test]
    fn gets_agree_with_a_model_across_compactions_and_a_recovery() {
        use pdm::{Journal, RamDisk};
        use rand::prelude::*;
        // Writes draw keys from 0..1 000 and gets from 0..2 000, so at
        // least half the gets ask for a key the shard does not hold.
        const KEYS: u64 = 1_000;
        let ram = RamDisk::new(512);
        let journal = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
        let headers = journal.header_blocks().unwrap();
        let mut s: Shard<u64, u64> = Shard::with_journal(journal, 16, 0, 200).unwrap();
        let mut model = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(31);
        let (mut compactions, mut gets, mut absent) = ([0usize; 2], 0, 0);
        for round in 0..120u64 {
            if round == 60 {
                // A crash after an acked flush; the recovered shard starts
                // without a filter.
                std::mem::forget(s);
                let j = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
                s = Shard::recover(j, 16, 0, 200).unwrap();
                assert!(s.tree_of(0).filter.is_none());
            }
            for i in 0..20 {
                let key = rng.gen_range(0..KEYS);
                let op = rng.gen_bool(0.7).then_some(round * 100 + i);
                s.enqueue(0, round * 100 + i, key, op);
                match op {
                    Some(v) => model.insert(key, v),
                    None => model.remove(&key),
                };
            }
            s.flush_batch(|_, _| {}).unwrap();
            compactions[usize::from(round >= 60)] += usize::from(s.maybe_compact().unwrap());
            for _ in 0..20 {
                let key = rng.gen_range(0..2 * KEYS);
                let want = model.get(&key).copied();
                absent += usize::from(want.is_none());
                gets += 1;
                assert_eq!(s.get(0, &key).unwrap(), want, "round {round}, key {key}");
            }
        }
        assert!(
            2 * absent >= gets,
            "{absent} of {gets} gets were of absent keys"
        );
        assert!(
            compactions[0] >= 3 && compactions[1] >= 3,
            "{compactions:?}"
        );
        s.check_invariants().unwrap();
    }

    /// 5 000 even keys compacted into a tree of 31 pairs a leaf and 32
    /// children a node at `B` = 512: 162 leaves, 6 internal nodes and a
    /// root.  The key filter is 8 KiB, 13 bits a key.
    fn compacted_evens() -> Shard<u64, u64> {
        let mut s = ram_shard(usize::MAX);
        for k in 0..5_000u64 {
            s.enqueue(0, k, 2 * k, Some(k));
        }
        s.flush_batch(|_, _| {}).unwrap();
        s.compact().unwrap();
        let t = s.tree_of(0);
        assert_eq!(
            (t.tree.height(), t.filter.as_ref().unwrap().bits()),
            (3, 1 << 16)
        );
        s
    }

    #[test]
    fn a_get_of_an_absent_key_reads_the_tree_only_on_a_false_positive() {
        let s = compacted_evens();
        let spread = |i: u64| 2 * (i * 37 % 5_000);
        // Present keys first, from the pool state the compaction left: each
        // descends the tree unless the record cache holds it, which 4 do,
        // admitted with a leaf read for another key.  Under plain LRU the
        // pool re-read internal nodes too: 3 000 lookups, 1 043 reads.
        let (lookups, reads) = get_ledger(&s, (0..1_000).map(spread));
        assert_eq!((lookups, reads), (2_988, 996));
        // Absent keys between them: only the filter's false positives
        // descend, three lookups and one leaf read each.  Without the
        // filter every one did, as no absent key is ever cached.
        let absent = || (0..1_000).map(|i| spread(i) + 1);
        let false_positives = passes(&s, absent());
        assert_eq!(false_positives, 23);
        let (lookups, reads) = get_ledger(&s, absent());
        let false_positives = false_positives as u64;
        assert_eq!((lookups, reads), (3 * false_positives, false_positives));
        assert!(absent().all(|k| s.get(0, &k).unwrap().is_none()));
    }

    /// Whether `s`'s record cache holds tenant 0's `key`.
    fn cached(s: &Shard<u64, u64>, key: u64) -> bool {
        let records = s.records.lock().unwrap();
        records.records.contains(filter_hash(0, &key))
    }

    /// The frame rule: the pool's resident frames and the frames the
    /// slots' records are worth never exceed the pool's frames.
    fn assert_one_memory<K: Record + Ord, V: Record>(s: &Shard<K, V>) {
        let Some(t) = s.trees.values().next() else {
            return;
        };
        let (_, taken) = s.records.lock().unwrap().records.slots();
        let frames = s.pool.resident() + taken.div_ceil(t.tree.leaf_capacity());
        assert!(frames <= s.pool.capacity(), "{frames} frames in use");
    }

    /// The first key of leaf `j` of [`compacted_evens`]' tree.
    fn leaf_key(j: u64) -> u64 {
        2 * 31 * j
    }

    #[test]
    fn a_cold_cache_takes_a_leaf_of_records_for_each_leaf_read() {
        // The compaction left the tree's 7 upper nodes and its last 9
        // leaves resident, all dirty.  Each get of an early leaf reads that
        // leaf alone, and the frame it frees holds its 31 records, until
        // the records hold the 8 frames beyond the upper levels and one
        // leaf frame.
        let s = compacted_evens();
        let dev = s.pool.device().clone();
        let io = dev.stats().snapshot();
        let writebacks = s.pool.stats().writebacks();
        for k in 1..=12u64 {
            s.get(0, &leaf_key(2 * k)).unwrap();
            let d = dev.stats().snapshot().since(&io);
            assert_eq!(d.reads(), k, "get {k}");
            assert_eq!(s.cached_records(), (31 * k as usize).min(8 * 31), "get {k}");
            assert_one_memory(&s);
            // Lowering the limit wrote nothing: every write is a dirty
            // frame's write-back at its eviction.
            assert_eq!(d.writes(), s.pool.stats().writebacks() - writebacks);
        }
        assert_eq!((s.pool.limit(), s.pool.resident()), (8, 8));
        // From the ninth get on, the record found displaces the oldest one
        // admitted: a leaf-mate of the first get's key.
        assert!((1..=12).all(|k| cached(&s, leaf_key(2 * k))));
        let first_leaf = (1..31).filter(|i| cached(&s, leaf_key(2) + 2 * i));
        assert_eq!(first_leaf.count(), 30 - 4);
    }

    #[test]
    fn with_a_full_record_cache_a_height_3_lookup_reads_one_block() {
        let s = compacted_evens();
        for j in 0..20 {
            s.get(0, &leaf_key(j)).unwrap();
        }
        assert_eq!(s.cached_records(), 8 * 31);
        // Lookups the cache misses, each in another leaf than the one
        // before: three pool lookups and exactly one device read each,
        // as the root and the six internal nodes stay resident.
        let misses: Vec<u64> = (0..162u64)
            .map(|j| leaf_key(j * 37 % 162) + 2 * (j % 31))
            .filter(|&k| !cached(&s, k))
            .collect();
        assert!(misses.len() > 100);
        for &k in &misses {
            assert_eq!(get_ledger(&s, [k]), (3, 1), "key {k}");
            assert_eq!(s.get(0, &k).unwrap(), Some(k / 2));
            assert_one_memory(&s);
        }
        assert_eq!(s.cached_records(), 8 * 31);
    }

    #[test]
    fn slot_records_outlive_a_compaction_their_keys_are_not_in() {
        let mut s = compacted_evens();
        for j in 0..20 {
            s.get(0, &leaf_key(j)).unwrap();
        }
        let cached_keys: Vec<u64> = (0..5_000u64)
            .map(|k| 2 * k)
            .filter(|&k| cached(&s, k))
            .collect();
        assert_eq!(cached_keys.len(), 8 * 31);
        // A delta overwriting every fourth cached key and adding odd keys
        // elsewhere: the tree keeps its shape, so the slots keep their
        // eight frames.
        let touched: Vec<u64> = cached_keys.iter().copied().step_by(4).collect();
        for &k in &touched {
            s.enqueue(0, k, k, Some(k + 1));
        }
        for k in 0..40u64 {
            s.enqueue(0, k, 4_001 + 200 * k, Some(k));
        }
        s.flush_batch(|_, _| {}).unwrap();
        s.compact().unwrap();
        assert_one_memory(&s);
        assert_eq!(s.records.lock().unwrap().records.slots().0, 8 * 31);
        // Every untouched record stayed, and a get of it reads nothing …
        let untouched: Vec<u64> = cached_keys
            .iter()
            .copied()
            .filter(|k| !touched.contains(k))
            .collect();
        assert!(untouched.iter().all(|&k| cached(&s, k)));
        assert_eq!(s.cached_records(), untouched.len());
        let io = s.pool.device().stats().snapshot();
        for &k in &untouched {
            assert_eq!(s.get(0, &k).unwrap(), Some(k / 2));
        }
        assert_eq!(s.pool.device().stats().snapshot().since(&io).total(), 0);
        // … and a touched key was dropped and reads its new value.
        assert!(touched.iter().all(|&k| !cached(&s, k)));
        for &k in &touched {
            assert_eq!(s.get(0, &k).unwrap(), Some(k + 1));
        }
    }

    /// Two shards on two tenants' budgets, as a `Server` builds them,
    /// against a `BTreeMap` model: the sibling of `serve_consistency.rs`'s
    /// `shard_agrees_with_a_btreemap_model_while_records_displace_frames`.
    /// Gets fill each shard's slots, then the budgets, then displace
    /// records; puts, deletes, flushes and compactions go on under them.
    /// After every step each shard keeps the frame rule, and each tenant's
    /// budget records on both shards are what its budget has charged, at
    /// most its cap: the tenant rule.
    #[test]
    fn two_shards_keep_the_frame_and_tenant_rules_across_compactions() {
        use rand::prelude::*;
        const FRAMES: usize = 6;
        const CAP: usize = 40;
        for seed in 0..4u64 {
            let budgets = vec![MemBudget::new(CAP), MemBudget::new(CAP)];
            let stats = Arc::new(ServeStats::default());
            let mut shards: Vec<Shard<u64, u64>> = (0..2)
                .map(|_| {
                    let dev: SharedDevice = DiskArray::new_ram(1, 512, Placement::Independent);
                    Shard::for_server(dev, FRAMES, 60, budgets.clone(), stats.clone())
                })
                .collect();
            let route = |tenant: u32, key: u64| shard_of_key(tenant, &key, 2);
            let mut model: BTreeMap<(u32, u64), u64> = BTreeMap::new();
            // 1 200 keys: on each shard, two trees of ≈ 300 keys, 10 leaves
            // of 31 under a root, so 3 of the 6 frames are slots.
            for key in 0..1_200u64 {
                let tenant = (key % 2) as u32;
                shards[route(tenant, key)].enqueue(tenant, key, key, Some(key));
                model.insert((tenant, key), key);
            }
            for s in &mut shards {
                s.flush_batch(|_, _| {}).unwrap();
                s.compact().unwrap();
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut full_slots, mut full_budgets) = (0, [false; 2]);
            let (mut kept, mut kept_in_slots) = (0, 0);
            for step in 0..1_500u64 {
                // Skewed, so that hot keys are read, cached and written again.
                let x = rng.gen_range(0..1_300u64);
                let (tenant, key) = (rng.gen_range(0..2u32), x * x / 1_300);
                let s = &mut shards[route(tenant, key)];
                match rng.gen_range(0..20u32) {
                    0..=14 => {
                        let want = model.get(&(tenant, key)).copied();
                        assert_eq!(s.get(tenant, &key).unwrap(), want, "step {step}");
                    }
                    15 | 16 => {
                        s.enqueue(tenant, step, key, Some(step));
                        model.insert((tenant, key), step);
                    }
                    17 | 18 => {
                        s.enqueue(tenant, step, key, None);
                        model.remove(&(tenant, key));
                    }
                    _ => s.flush_batch(|_, _| {}).map(drop).unwrap(),
                }
                if step == 750 || s.wants_compact() {
                    s.flush_batch(|_, _| {}).unwrap();
                    s.compact().unwrap();
                    kept += s.cached_records();
                    kept_in_slots += s.records.lock().unwrap().records.slots().1;
                }
                for s in &shards {
                    assert_one_memory(s);
                    let (slots, taken) = s.records.lock().unwrap().records.slots();
                    full_slots = full_slots.max(usize::from(slots == 3 * 31) * taken);
                }
                for (t, budget) in budgets.iter().enumerate() {
                    let charged: usize = shards
                        .iter()
                        .map(|s| s.records.lock().unwrap().records.charged_to(budget))
                        .sum();
                    assert_eq!(charged, budget.used(), "step {step}, tenant {t}");
                    assert!(charged <= CAP, "step {step}, tenant {t}");
                    full_budgets[t] |= charged == CAP;
                }
            }
            // Both memories filled, and records on both outlived
            // compactions.
            assert_eq!(
                (full_slots, full_budgets),
                (3 * 31, [true; 2]),
                "seed {seed}"
            );
            assert!(kept_in_slots > 0 && stats.cache_hits() > 0, "seed {seed}");
            assert!(kept > kept_in_slots, "seed {seed}");
            for tenant in 0..2u32 {
                let mut all: Vec<(u64, u64)> = Vec::new();
                for s in &shards {
                    all.extend(s.range(tenant, &0, &u64::MAX).unwrap());
                }
                all.sort_unstable();
                let want: Vec<(u64, u64)> = model
                    .range((tenant, 0)..=(tenant, u64::MAX))
                    .map(|(&(_, k), &v)| (k, v))
                    .collect();
                assert_eq!(all, want, "seed {seed}, tenant {tenant}");
            }
        }
    }

    #[test]
    fn a_recovered_shard_reads_the_tree_for_absent_keys_until_it_compacts() {
        use pdm::{Journal, RamDisk};
        let ram = RamDisk::new(512);
        let journal = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
        let headers = journal.header_blocks().unwrap();
        let mut s: Shard<u64, u64> = Shard::with_journal(journal, 16, 0, usize::MAX).unwrap();
        for k in 0..2_000u64 {
            s.enqueue(0, k, 2 * k, Some(k));
        }
        s.flush_batch(|_, _| {}).unwrap();
        s.compact().unwrap();
        let height = u64::from(s.tree_of(0).tree.height());
        let absent = || (0..500u64).map(|i| 2 * i * 4 + 1);
        let descents = |s: &Shard<u64, u64>| get_ledger(s, absent()).0 / height;
        let false_positives = passes(&s, absent()) as u64;
        assert_eq!(descents(&s), false_positives);
        std::mem::forget(s);
        let j = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
        let mut s = Shard::<u64, u64>::recover(j, 16, 0, usize::MAX).unwrap();
        // No filter yet: every absent key descends the tree, twice over.
        assert_eq!(descents(&s), 500);
        assert_eq!(descents(&s), 500);
        // The next compaction, of a single put, brings the filter back: at
        // 8 bits a key over 2 001 keys, 20 of the 500 pass it.
        s.enqueue(0, 0, 3, Some(3));
        s.flush_batch(|_, _| {}).unwrap();
        s.compact().unwrap();
        assert_eq!(passes(&s, absent()), 20);
        assert_eq!(descents(&s), 20);
        assert!(absent().all(|k| s.get(0, &k).unwrap().is_none()));
    }

    #[test]
    fn a_compaction_failed_by_the_device_keeps_the_old_filter() {
        use pdm::{BlockDevice, CrashSwitch, FaultDisk, FaultPlan, RamDisk};
        // Keys ≡ 0 mod 3 in the tree, then keys ≡ 1 mod 3 in the delta, and
        // a second compaction on a device that crashes after `kill`
        // transfers.  Returns the shard, that compaction's result and the
        // transfers before and after it.
        let run = |kill: u64| -> (Shard<u64, u64>, Result<()>, u64, u64) {
            let ram = RamDisk::new(512);
            let faulty = FaultDisk::wrap(
                Arc::clone(&ram) as SharedDevice,
                FaultPlan::new(0).with_crash(CrashSwitch::after(kill)),
            );
            let mut s: Shard<u64, u64> = Shard::new(faulty, 16, 0, usize::MAX).unwrap();
            for k in 0..3_000u64 {
                s.enqueue(0, k, 3 * k, Some(k));
            }
            s.flush_batch(|_, _| {}).unwrap();
            s.compact().unwrap();
            for k in 0..1_500u64 {
                s.enqueue(0, k, 3 * k + 1, Some(k));
            }
            s.flush_batch(|_, _| {}).unwrap();
            let before = ram.stats().snapshot().total();
            let compacted = s.compact();
            (s, compacted, before, ram.stats().snapshot().total())
        };
        let (_, compacted, before, after) = run(u64::MAX);
        compacted.unwrap();
        // Crash halfway through the rebuild.
        let (s, compacted, ..) = run((before + after) / 2);
        assert!(matches!(compacted, Err(PdmError::Io(_))), "{compacted:?}");
        // The old tree is on a dead device: a get may fail, but a key the
        // tree or the delta holds is never answered "absent".
        let held = (0..3_000u64).map(|k| (3 * k, k));
        let (mut found, mut failed) = (0, 0);
        for (key, v) in held.chain((0..1_500).map(|k| (3 * k + 1, k))) {
            match s.get(0, &key) {
                Ok(got) => {
                    assert_eq!(got, Some(v), "key {key}");
                    found += 1;
                }
                Err(_) => failed += 1,
            }
        }
        assert!(
            found >= 1_500 && failed > 0,
            "{found} found, {failed} failed"
        );
        assert!((0..3_000u64).all(|k| !matches!(s.get(0, &(3 * k + 2)), Ok(Some(_)))));
    }

    /// A `u64` key whose order flips while [`REVERSED`] is set, so a delta
    /// built in one order reaches `apply_sorted_batch` unsorted in the other.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Flip(u64);

    thread_local! {
        static REVERSED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    impl Ord for Flip {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            let ord = self.0.cmp(&other.0);
            if REVERSED.get() {
                ord.reverse()
            } else {
                ord
            }
        }
    }

    impl PartialOrd for Flip {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Record for Flip {
        const BYTES: usize = 8;
        fn write_to(&self, buf: &mut [u8]) {
            self.0.write_to(buf)
        }
        fn read_from(buf: &[u8]) -> Self {
            Flip(u64::read_from(buf))
        }
    }

    #[test]
    fn a_compaction_refused_for_an_unsorted_batch_keeps_the_old_filter() {
        let dev: SharedDevice = DiskArray::new_ram(1, 512, Placement::Independent);
        let mut s: Shard<Flip, u64> = Shard::new(dev, 16, 0, usize::MAX).unwrap();
        for k in 0..1_000u64 {
            s.enqueue(1, k, Flip(2 * k), Some(k));
        }
        s.flush_batch(|_, _| {}).unwrap();
        s.compact().unwrap();
        // Tenant 0's one put comes first in the delta, then tenant 1's run.
        s.enqueue(0, 0, Flip(7), Some(7));
        for k in 0..100u64 {
            s.enqueue(1, k, Flip(2 * k + 1), Some(k));
        }
        s.flush_batch(|_, _| {}).unwrap();
        // Reversed, tenant 1's second key is below its first: tenant 0 is
        // rebuilt, and tenant 1's rebuild has written one key when it
        // refuses the batch.
        REVERSED.set(true);
        let compacted = s.compact();
        REVERSED.set(false);
        assert!(
            matches!(compacted, Err(PdmError::InvalidRequest(_))),
            "{compacted:?}"
        );
        assert_eq!(s.tree_lens(), [(0, 1), (1, 1_000)]);
        assert!(s.tree_of(0).filter.is_some());
        assert_eq!(s.get(0, &Flip(7)).unwrap(), Some(7));
        for k in 0..1_000u64 {
            assert_eq!(
                s.get(1, &Flip(2 * k)).unwrap(),
                Some(k),
                "tree key {}",
                2 * k
            );
        }
        for k in 0..100u64 {
            assert_eq!(s.get(1, &Flip(2 * k + 1)).unwrap(), Some(k));
        }
        assert!((100..1_000u64).all(|k| s.get(1, &Flip(2 * k + 1)).unwrap().is_none()));
        // Tenant 1's tree is the old one, and the next compaction succeeds,
        // applying tenant 0's put a second time to the same effect.
        s.compact().unwrap();
        assert_eq!(s.tree_lens(), [(0, 1), (1, 1_100)]);
        s.check_invariants().unwrap();
    }
}
