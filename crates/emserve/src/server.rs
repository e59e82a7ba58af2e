//! The concurrent request batcher.
//!
//! One bounded MPSC ingest queue and one drain thread per shard.  Producers
//! route requests by deterministic hash ([`shard_of_key`]) and block when a
//! shard's queue is full (bounded memory, natural backpressure).  Each drain
//! thread coalesces puts/deletes into batches flushed on *size or
//! deadline* — so a saturated shard amortizes the flush's barrier over
//! `batch_max` ops, while a trickle still acks within `batch_deadline` —
//! and serves gets with
//! read-your-writes consistency by consulting the shard's delta overlay
//! (which includes the open batch) before the tree.
//!
//! A drain thread is a step function and a driver.  The step,
//! `ShardWorker::step(msg, now)`, handles one message, or with no message
//! the clock reaching a deadline, at logical time `now`.  It alone decides
//! when a batch is due: the write that opens a batch sets it due at `now +
//! batch_deadline` (never, if that overflows), and every flush or failure
//! clears it.  The shard keeps no clock.  The driver blocks on the queue
//! until the next message or the due time, steps the worker with the time
//! since it started, and flushes and exits once the queue is closed and
//! drained.  Tests step a worker at times they choose.
//!
//! Durability contract: a write is acknowledged through the
//! [`CompletionSink`] only after its batch's flush returned, past a device
//! barrier, so a failed write-behind fails the batch instead of being acked
//! around.  A `Server` shard has no journal, so an ack does not promise
//! the write survives a crash.  On a device error
//! the worker *fail-stops*: it records the first error, stops accepting
//! data operations (never acking anything it could not flush), but keeps
//! answering control messages so producers and `barrier()` callers cannot
//! deadlock.  The error surfaces from the next control call.
//!
//! Shards are pinned to distinct lanes of an independent-placement
//! [`DiskArray`] via [`LaneView`], so per-shard transfer counts fall out of
//! [`IoSnapshot::since`](pdm::IoSnapshot::since) per lane, and
//! one shard's compaction never queues behind a neighbour's reads.

use std::collections::BTreeMap;
use std::hash::Hash;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use em_core::{MemBudget, Record};
use pdm::{BufferPool, DiskArray, LaneView, PdmError, Result};

use crate::shard::{shard_of_key, Shard};
use crate::stats::ServeStats;

/// What a request asks of the dictionary.
#[derive(Debug, Clone)]
pub enum ReqKind<K, V> {
    /// Upsert `key -> value`.
    Put(K, V),
    /// Remove `key` if present.
    Delete(K),
    /// Point lookup.
    Get(K),
}

/// One client request, tagged with the tenant it belongs to and a caller
/// chosen `op_id` echoed back through the [`CompletionSink`].
#[derive(Debug, Clone)]
pub struct Request<K, V> {
    /// Tenant namespace (must be `< ServeConfig::tenants`).
    pub tenant: u32,
    /// Caller-chosen correlation id, echoed in completions.
    pub op_id: u64,
    /// The operation itself.
    pub kind: ReqKind<K, V>,
}

/// Where completions go.  Implementations must be cheap and non-blocking —
/// they run on shard drain threads.
pub trait CompletionSink<V>: Send + Sync + 'static {
    /// `op_id`'s write was flushed with its shard's batch.
    fn acked_write(&self, tenant: u32, op_id: u64);
    /// `op_id`'s get resolved to `value`.
    fn got(&self, tenant: u32, op_id: u64, value: Option<V>);
}

/// Serving-layer tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of shards (drain threads, lanes when the array is independent).
    pub shards: usize,
    /// Number of tenant namespaces.
    pub tenants: usize,
    /// Bound of each shard's ingest queue (requests).
    pub queue_depth: usize,
    /// Flush the open batch once it holds this many writes.
    pub batch_max: usize,
    /// Flush the open batch once its first op has waited this long.  A
    /// deadline no clock reaches (`Duration::MAX`) leaves flushes to size,
    /// barriers and shutdown.
    pub batch_deadline: Duration,
    /// Compact a shard once its delta holds this many distinct keys, or this
    /// many of the ops it flushed since its last compaction were superseded
    /// by a later op on the same key.
    pub compact_threshold: usize,
    /// Frames in each shard's buffer pool, shared by its trees' nodes and
    /// its record cache.
    pub pool_frames: usize,
    /// Records each tenant may hold in the shards' record caches beyond
    /// what their pool frames hold, summed over every shard.
    pub cache_records: usize,
}

impl ServeConfig {
    /// Defaults sized for tests and small benches.
    pub fn new(shards: usize, tenants: usize) -> Self {
        ServeConfig {
            shards,
            tenants,
            queue_depth: 1024,
            batch_max: 256,
            batch_deadline: Duration::from_millis(2),
            compact_threshold: 8192,
            pool_frames: 64,
            cache_records: 1024,
        }
    }
}

/// A control message's answer, or the error its worker fail-stopped on.
type Reply<T> = SyncSender<std::result::Result<T, String>>;

enum Msg<K, V> {
    Req(Request<K, V>),
    /// Flush the open batch, then reply.
    Barrier(Reply<()>),
    /// Flush and compact unconditionally, then reply.
    Compact(Reply<()>),
    /// Tenant-scoped range scan over this shard's keyspace slice.
    Range {
        tenant: u32,
        lo: K,
        hi: K,
        reply: Reply<Vec<(K, V)>>,
    },
}

/// The sharded, batched, multi-tenant serving front end.
pub struct Server<K: Record + Ord + Eq + Hash, V: Record> {
    cfg: ServeConfig,
    stats: Arc<ServeStats>,
    senders: Vec<SyncSender<Msg<K, V>>>,
    workers: Vec<JoinHandle<()>>,
    pools: Vec<Arc<BufferPool>>,
    /// The first error any worker hit.  Only ever assigned whole, so a lock
    /// poisoned by a panicking holder still guards a valid value, and every
    /// access takes it with `PoisonError::into_inner`.
    first_error: Arc<Mutex<Option<String>>>,
}

impl<K, V> Server<K, V>
where
    K: Record + Ord + Eq + Hash,
    V: Record,
{
    /// Spin up `cfg.shards` drain threads over `array`.
    ///
    /// When the array uses independent placement, shard `s` is pinned to
    /// lane `s % D` through [`LaneView`]; striped arrays pass through
    /// unchanged (every shard shares the stripe).
    ///
    /// # Errors
    ///
    /// [`PdmError::InvalidRequest`] if `cfg` asks for no shards or no
    /// tenants; otherwise whatever building a shard or its thread returns.
    pub fn new(
        array: Arc<DiskArray>,
        cfg: ServeConfig,
        sink: Arc<dyn CompletionSink<V>>,
    ) -> Result<Self> {
        if cfg.shards == 0 || cfg.tenants == 0 {
            return Err(PdmError::InvalidRequest(format!(
                "a server needs a shard and a tenant (shards = {}, tenants = {})",
                cfg.shards, cfg.tenants
            )));
        }
        let stats = Arc::new(ServeStats::default());
        let first_error = Arc::new(Mutex::new(None));
        let budgets: Vec<Arc<MemBudget>> = (0..cfg.tenants)
            .map(|_| MemBudget::new(cfg.cache_records))
            .collect();
        let mut senders = Vec::with_capacity(cfg.shards);
        let mut workers = Vec::with_capacity(cfg.shards);
        let mut pools = Vec::with_capacity(cfg.shards);
        for s in 0..cfg.shards {
            let device = LaneView::pin(array.clone(), s);
            let shard: Shard<K, V> = Shard::for_server(
                device,
                cfg.pool_frames,
                cfg.compact_threshold,
                budgets.clone(),
                stats.clone(),
            );
            pools.push(shard.pool().clone());
            let (tx, rx) = mpsc::sync_channel(cfg.queue_depth.max(1));
            senders.push(tx);
            let worker = ShardWorker {
                shard,
                sink: sink.clone(),
                stats: stats.clone(),
                cfg: cfg.clone(),
                first_error: first_error.clone(),
                failed: None,
                due: None,
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("emserve-shard-{s}"))
                    .spawn(move || worker.run(rx))?,
            );
        }
        Ok(Server {
            cfg,
            stats,
            senders,
            workers,
            pools,
            first_error,
        })
    }

    /// Enqueue a request, blocking while the target shard's queue is full.
    ///
    /// # Errors
    ///
    /// [`PdmError::InvalidRequest`] if `req.tenant` is not below
    /// `ServeConfig::tenants` (nothing is enqueued); otherwise an error once
    /// the shard's worker has gone.
    pub fn submit(&self, req: Request<K, V>) -> Result<()> {
        if req.tenant as usize >= self.cfg.tenants {
            return Err(PdmError::InvalidRequest(format!(
                "tenant {} out of range (tenants = {})",
                req.tenant, self.cfg.tenants
            )));
        }
        let key = match &req.kind {
            ReqKind::Put(k, _) | ReqKind::Delete(k) | ReqKind::Get(k) => k,
        };
        let s = shard_of_key(req.tenant, key, self.cfg.shards);
        self.senders[s]
            .send(Msg::Req(req))
            .map_err(|_| self.current_error("shard worker gone"))
    }

    /// Flush every shard's open batch and wait until all queued work
    /// submitted before this call has been processed.
    pub fn barrier(&self) -> Result<()> {
        self.ask(Msg::Barrier).map(drop)
    }

    /// Barrier, then force a log→tree compaction on every shard.
    pub fn compact_all(&self) -> Result<()> {
        self.ask(Msg::Compact).map(drop)
    }

    /// Tenant-scoped range scan `[lo, hi]`, merged across every shard
    /// (hash routing scatters a key range over all of them).  Consistent
    /// with all previously submitted writes: each shard answers from its
    /// queue, behind any queued puts/deletes.
    pub fn range(&self, tenant: u32, lo: K, hi: K) -> Result<Vec<(K, V)>> {
        let parts = self.ask(|reply| Msg::Range {
            tenant,
            lo: lo.clone(),
            hi: hi.clone(),
            reply,
        })?;
        let merged: BTreeMap<K, V> = parts.into_iter().flatten().collect();
        Ok(merged.into_iter().collect())
    }

    /// Queue the message `mk` builds around a reply channel on every shard,
    /// then wait for every answer: all of them in shard order, or the first
    /// error.
    fn ask<T>(&self, mk: impl Fn(Reply<T>) -> Msg<K, V>) -> Result<Vec<T>> {
        let mut replies = Vec::with_capacity(self.senders.len());
        for tx in &self.senders {
            let (rtx, rrx) = mpsc::sync_channel(1);
            tx.send(mk(rtx))
                .map_err(|_| self.current_error("shard worker gone"))?;
            replies.push(rrx);
        }
        let answers: Vec<Result<T>> = replies
            .into_iter()
            .map(|rrx| match rrx.recv() {
                Ok(answer) => answer.map_err(|e| PdmError::Io(std::io::Error::other(e))),
                Err(_) => Err(self.current_error("shard worker gone")),
            })
            .collect();
        answers.into_iter().collect()
    }

    /// Serving counters (shared with every worker).
    pub fn stats(&self) -> &Arc<ServeStats> {
        &self.stats
    }

    /// Aggregate (hits, misses) across every shard's read buffer pool.
    pub fn pool_hit_stats(&self) -> (u64, u64) {
        let mut h = 0;
        let mut m = 0;
        for p in &self.pools {
            h += p.stats().hits();
            m += p.stats().misses();
        }
        (h, m)
    }

    /// Drain queues, flush every open batch (acking), stop all workers, and
    /// surface the first device error any worker hit.
    pub fn shutdown(mut self) -> Result<()> {
        self.stop();
        match self
            .first_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            Some(e) => Err(PdmError::Io(std::io::Error::other(e))),
            None => Ok(()),
        }
    }

    fn current_error(&self, fallback: &str) -> PdmError {
        let msg = self
            .first_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
            .unwrap_or_else(|| fallback.to_string());
        PdmError::Io(std::io::Error::other(msg))
    }

    /// Close every queue and join its worker.  A receiver yields everything
    /// queued before it reports the senders gone, so each worker drains its
    /// queue and flushes its open batch first.
    fn stop(&mut self) {
        self.senders.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl<K: Record + Ord + Eq + Hash, V: Record> Drop for Server<K, V> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One shard's drain: a step function on a logical clock, and the thread
/// driver [`run`](Self::run) that feeds it the queue and the time.
struct ShardWorker<K: Record + Ord + Eq + Hash, V: Record> {
    shard: Shard<K, V>,
    sink: Arc<dyn CompletionSink<V>>,
    stats: Arc<ServeStats>,
    cfg: ServeConfig,
    first_error: Arc<Mutex<Option<String>>>,
    /// Once set, the worker fail-stops: no more data ops, no more acks.
    failed: Option<String>,
    /// The logical time the open batch flushes at; `None` while no batch is
    /// open, after a failure, and when the deadline overflows.
    due: Option<Duration>,
}

impl<K, V> ShardWorker<K, V>
where
    K: Record + Ord + Eq + Hash,
    V: Record,
{
    /// Step on each message of `rx` with the time since this call, and with
    /// none once the due time passes; flush and return once every sender is
    /// gone and the queue is drained.
    fn run(mut self, rx: Receiver<Msg<K, V>>) {
        let start = Instant::now();
        loop {
            let msg = match self.due {
                Some(due) => rx.recv_timeout(due.saturating_sub(start.elapsed())),
                None => rx.recv().map_err(RecvTimeoutError::from),
            };
            match msg {
                Err(RecvTimeoutError::Disconnected) => break,
                msg => self.step(msg.ok(), start.elapsed()),
            }
        }
        self.flush_open_batch();
    }

    /// Handle `msg` at logical time `now`; with no message, flush the open
    /// batch if it is due by `now`.
    fn step(&mut self, msg: Option<Msg<K, V>>, now: Duration) {
        match msg {
            None => {
                if self.due.is_some_and(|due| due <= now) {
                    self.flush_open_batch();
                }
            }
            Some(Msg::Req(req)) => self.handle_req(req, now),
            Some(Msg::Barrier(reply)) => {
                self.flush_open_batch();
                let _ = reply.send(self.status());
            }
            Some(Msg::Compact(reply)) => {
                self.flush_open_batch();
                if self.failed.is_none() {
                    match self.shard.compact() {
                        Ok(()) => self.stats.record_compaction(),
                        Err(e) => self.fail(e),
                    }
                }
                let _ = reply.send(self.status());
            }
            Some(Msg::Range {
                tenant,
                lo,
                hi,
                reply,
            }) => {
                let res = self.status().and_then(|()| {
                    self.shard
                        .range(tenant, &lo, &hi)
                        .map_err(|e| e.to_string())
                });
                if let Err(e) = &res {
                    self.fail(e);
                }
                let _ = reply.send(res);
            }
        }
    }

    /// `Err` with the first error once the worker has fail-stopped.
    fn status(&self) -> std::result::Result<(), String> {
        self.failed.clone().map_or(Ok(()), Err)
    }

    fn handle_req(&mut self, req: Request<K, V>, now: Duration) {
        if self.failed.is_some() {
            // Fail-stop: never ack what we cannot log.  Producers keep
            // their queue slots; the error surfaces via barrier/shutdown.
            return;
        }
        let Request {
            tenant,
            op_id,
            kind,
        } = req;
        match kind {
            ReqKind::Put(k, v) => {
                self.stats.record_put();
                self.write(tenant, op_id, k, Some(v), now);
            }
            ReqKind::Delete(k) => {
                self.stats.record_delete();
                self.write(tenant, op_id, k, None, now);
            }
            ReqKind::Get(k) => {
                self.stats.record_get();
                match self.shard.get(tenant, &k) {
                    Ok(found) => self.sink.got(tenant, op_id, found),
                    Err(e) => self.fail(e),
                }
            }
        }
    }

    fn write(&mut self, tenant: u32, op_id: u64, k: K, op: Option<V>, now: Duration) {
        if self.shard.batch_len() == 0 {
            self.due = now.checked_add(self.cfg.batch_deadline);
        }
        self.shard.enqueue(tenant, op_id, k, op);
        if self.shard.batch_len() >= self.cfg.batch_max {
            self.flush_open_batch();
        }
    }

    /// Flush the open batch (size, deadline, barrier, or shutdown trigger),
    /// acking each op, then compact if the delta crossed its threshold.
    fn flush_open_batch(&mut self) {
        self.due = None;
        if self.failed.is_some() || self.shard.batch_len() == 0 {
            return;
        }
        let sink = &self.sink;
        let stats = &self.stats;
        match self.shard.flush_batch(|tenant, op_id| {
            sink.acked_write(tenant, op_id);
            stats.record_acked_write();
            stats.record_batched_op();
        }) {
            Ok(n) => {
                if n > 0 {
                    self.stats.record_batch();
                }
            }
            Err(e) => {
                self.fail(e);
                return;
            }
        }
        match self.shard.maybe_compact() {
            Ok(true) => self.stats.record_compaction(),
            Ok(false) => {}
            Err(e) => self.fail(e),
        }
    }

    /// Fail-stop on `e`: keep the first error, here and server-wide, and
    /// drop the due time, since no flush can follow.
    fn fail(&mut self, e: impl ToString) {
        let msg = e.to_string();
        self.due = None;
        self.failed.get_or_insert_with(|| msg.clone());
        let mut slot = self
            .first_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        slot.get_or_insert(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::{BlockDevice, CrashSwitch, FaultPlan, IoMode, Placement, RetryPolicy};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A sink that drops every completion, for tests that only inspect
    /// final state.
    struct NullSink;

    impl<V> CompletionSink<V> for NullSink {
        fn acked_write(&self, _tenant: u32, _op_id: u64) {}
        fn got(&self, _tenant: u32, _op_id: u64, _value: Option<V>) {}
    }

    struct CountingSink {
        acks: AtomicU64,
        hits: AtomicU64,
        misses: AtomicU64,
    }

    impl CountingSink {
        fn new() -> Arc<Self> {
            Arc::new(CountingSink {
                acks: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            })
        }
    }

    impl CompletionSink<u64> for CountingSink {
        fn acked_write(&self, _tenant: u32, _op_id: u64) {
            self.acks.fetch_add(1, Ordering::Relaxed);
        }
        fn got(&self, _tenant: u32, _op_id: u64, value: Option<u64>) {
            match value {
                Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
                None => self.misses.fetch_add(1, Ordering::Relaxed),
            };
        }
    }

    fn ram_array(disks: usize) -> Arc<DiskArray> {
        DiskArray::new_ram(disks, 512, Placement::Independent)
    }

    #[test]
    fn batched_writes_ack_and_read_back() {
        let sink = CountingSink::new();
        let mut cfg = ServeConfig::new(4, 2);
        cfg.batch_max = 8;
        cfg.compact_threshold = 16;
        cfg.pool_frames = 16;
        let srv: Server<u64, u64> = Server::new(ram_array(4), cfg, sink.clone()).unwrap();
        for i in 0..200u64 {
            srv.submit(Request {
                tenant: (i % 2) as u32,
                op_id: i,
                kind: ReqKind::Put(i / 2, i * 10),
            })
            .unwrap();
        }
        srv.barrier().unwrap();
        assert_eq!(sink.acks.load(Ordering::Relaxed), 200);
        for i in 0..200u64 {
            srv.submit(Request {
                tenant: (i % 2) as u32,
                op_id: 1000 + i,
                kind: ReqKind::Get(i / 2),
            })
            .unwrap();
        }
        srv.barrier().unwrap();
        assert_eq!(sink.hits.load(Ordering::Relaxed), 200);
        assert_eq!(sink.misses.load(Ordering::Relaxed), 0);
        assert!(srv.stats().batches() > 0);
        assert!(srv.stats().compactions() > 0, "threshold crossed");
        srv.shutdown().unwrap();
    }

    /// A worker on `array`'s first lane, for a test to step by hand.
    fn worker(
        array: Arc<DiskArray>,
        cfg: ServeConfig,
        sink: Arc<dyn CompletionSink<u64>>,
    ) -> ShardWorker<u64, u64> {
        let stats = Arc::new(ServeStats::default());
        let budgets = vec![MemBudget::new(cfg.cache_records)];
        let device = LaneView::pin(array, 0);
        let shard = Shard::for_server(
            device,
            cfg.pool_frames,
            cfg.compact_threshold,
            budgets,
            stats.clone(),
        );
        ShardWorker {
            shard,
            sink,
            stats,
            cfg,
            first_error: Arc::default(),
            failed: None,
            due: None,
        }
    }

    /// A tenant-0 request, as the step that handles it takes it.
    fn req(op_id: u64, kind: ReqKind<u64, u64>) -> Option<Msg<u64, u64>> {
        let tenant = 0;
        Some(Msg::Req(Request {
            tenant,
            op_id,
            kind,
        }))
    }

    fn put(k: u64) -> Option<Msg<u64, u64>> {
        req(k, ReqKind::Put(k, k))
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Step a control message into `w`, returning its answer.
    fn control(
        w: &mut ShardWorker<u64, u64>,
        mk: fn(Reply<()>) -> Msg<u64, u64>,
    ) -> std::result::Result<(), String> {
        let (reply, answer) = mpsc::sync_channel(1);
        w.step(Some(mk(reply)), Duration::ZERO);
        answer.recv().unwrap()
    }

    #[test]
    fn a_batch_flushes_at_its_deadline_and_not_a_nanosecond_before() {
        let sink = CountingSink::new();
        let mut cfg = ServeConfig::new(1, 1);
        cfg.batch_max = usize::MAX; // size trigger unreachable
        cfg.batch_deadline = ms(5);
        let mut w = worker(ram_array(1), cfg, sink.clone());
        let acks = || sink.acks.load(Ordering::Relaxed);
        w.step(put(1), ms(100));
        // A later write joins the open batch and leaves its deadline alone.
        w.step(put(2), ms(104));
        assert_eq!(w.due, Some(ms(105)));
        w.step(None, ms(105) - Duration::from_nanos(1));
        assert_eq!(acks(), 0);
        w.step(None, ms(105));
        assert_eq!((acks(), w.due), (2, None));
        // The next write opens a batch with a deadline of its own.
        w.step(put(3), ms(300));
        assert_eq!(w.due, Some(ms(305)));
    }

    #[test]
    fn a_batch_flushes_at_batch_max_before_its_deadline() {
        let sink = CountingSink::new();
        let mut cfg = ServeConfig::new(1, 1);
        cfg.batch_max = 4;
        cfg.batch_deadline = Duration::from_secs(3600);
        let mut w = worker(ram_array(1), cfg, sink.clone());
        let acks = || sink.acks.load(Ordering::Relaxed);
        (0..3).for_each(|k| w.step(put(k), ms(k)));
        assert_eq!(acks(), 0);
        w.step(put(3), ms(3));
        assert_eq!((acks(), w.due, w.stats.batches()), (4, None, 1));
    }

    #[test]
    fn a_barrier_flushes_the_open_batch() {
        let sink = CountingSink::new();
        let mut cfg = ServeConfig::new(1, 1);
        cfg.batch_deadline = Duration::from_secs(3600);
        let mut w = worker(ram_array(1), cfg, sink.clone());
        w.step(put(1), Duration::ZERO);
        w.step(put(2), Duration::ZERO);
        assert_eq!(sink.acks.load(Ordering::Relaxed), 0);
        assert_eq!(control(&mut w, Msg::Barrier), Ok(()));
        assert_eq!(sink.acks.load(Ordering::Relaxed), 2);
        assert_eq!(w.due, None);
    }

    #[test]
    fn a_deadline_no_clock_reaches_leaves_the_flush_to_size() {
        let sink = CountingSink::new();
        let mut cfg = ServeConfig::new(1, 1);
        cfg.batch_max = 2;
        cfg.batch_deadline = Duration::MAX;
        let mut w = worker(ram_array(1), cfg, sink.clone());
        w.step(put(1), ms(1));
        assert_eq!(w.due, None);
        w.step(None, Duration::MAX);
        assert_eq!(sink.acks.load(Ordering::Relaxed), 0);
        w.step(put(2), Duration::MAX);
        assert_eq!(sink.acks.load(Ordering::Relaxed), 2);
    }

    /// Sends each completion's `op_id` down a channel.
    struct ChannelSink(mpsc::Sender<u64>);

    impl CompletionSink<u64> for ChannelSink {
        fn acked_write(&self, _tenant: u32, op_id: u64) {
            let _ = self.0.send(op_id);
        }
        fn got(&self, _tenant: u32, op_id: u64, _value: Option<u64>) {
            let _ = self.0.send(op_id);
        }
    }

    #[test]
    fn a_server_with_a_deadline_of_duration_max_flushes_on_a_barrier() {
        let (sink, done) = mpsc::channel();
        let mut cfg = ServeConfig::new(1, 1);
        cfg.batch_deadline = Duration::MAX;
        let srv: Server<u64, u64> =
            Server::new(ram_array(1), cfg, Arc::new(ChannelSink(sink))).unwrap();
        let send = |op_id, kind| {
            let tenant = 0;
            srv.submit(Request {
                tenant,
                op_id,
                kind,
            })
            .unwrap()
        };
        send(1, ReqKind::Put(7, 7));
        // Each get resolves from the open batch, whose write is not acked;
        // the worker then waits on an empty queue with the batch open.
        for op_id in 2..10 {
            send(op_id, ReqKind::Get(7));
            assert_eq!(done.recv(), Ok(op_id));
        }
        srv.barrier().unwrap();
        assert_eq!(done.try_recv(), Ok(1));
        srv.shutdown().unwrap();
    }

    #[test]
    fn range_merges_across_shards_and_modes_agree() {
        let mut cfg = ServeConfig::new(3, 1);
        cfg.batch_max = 4;
        let srv: Server<u64, u64> = Server::new(ram_array(3), cfg, Arc::new(NullSink)).unwrap();
        for k in 0..50u64 {
            srv.submit(Request {
                tenant: 0,
                op_id: k,
                kind: ReqKind::Put(k, k + 1),
            })
            .unwrap();
        }
        for k in (0..50u64).step_by(3) {
            srv.submit(Request {
                tenant: 0,
                op_id: 100 + k,
                kind: ReqKind::Delete(k),
            })
            .unwrap();
        }
        let got = srv.range(0, 10, 20).unwrap();
        let want: Vec<(u64, u64)> = (10..=20)
            .filter(|k| k % 3 != 0)
            .map(|k| (k, k + 1))
            .collect();
        assert_eq!(got, want);
        srv.compact_all().unwrap();
        assert_eq!(srv.range(0, 10, 20).unwrap(), want, "post-compact");
        srv.shutdown().unwrap();
    }

    #[test]
    fn cache_serves_repeated_hot_gets() {
        let sink = CountingSink::new();
        let mut cfg = ServeConfig::new(2, 1);
        cfg.cache_records = 64;
        let srv: Server<u64, u64> = Server::new(ram_array(2), cfg, sink.clone()).unwrap();
        for k in 0..8u64 {
            srv.submit(Request {
                tenant: 0,
                op_id: k,
                kind: ReqKind::Put(k, k),
            })
            .unwrap();
        }
        // Into the trees: the delta would answer every get.
        srv.compact_all().unwrap();
        for round in 0..20u64 {
            for k in 0..8u64 {
                srv.submit(Request {
                    tenant: 0,
                    op_id: 100 + round * 8 + k,
                    kind: ReqKind::Get(k),
                })
                .unwrap();
            }
        }
        srv.barrier().unwrap();
        // A shard's first lookup admits its whole leaf; every other get hits.
        let stats = srv.stats();
        assert_eq!((stats.cache_hits(), stats.cache_misses()), (158, 2));
        // A written key is answered by the delta, not by its cached copy.
        let hits_before = srv.stats().cache_hits();
        srv.submit(Request {
            tenant: 0,
            op_id: 900,
            kind: ReqKind::Put(3, 999),
        })
        .unwrap();
        srv.barrier().unwrap();
        srv.submit(Request {
            tenant: 0,
            op_id: 901,
            kind: ReqKind::Get(3),
        })
        .unwrap();
        srv.barrier().unwrap();
        assert_eq!(srv.stats().cache_hits(), hits_before, "stale entry gone");
        srv.shutdown().unwrap();
    }

    /// Every get's value, by `op_id`, and every acked write's `op_id`.
    #[derive(Default)]
    struct ValueSink {
        gots: Mutex<BTreeMap<u64, Option<u64>>>,
        acks: Mutex<Vec<u64>>,
    }

    impl CompletionSink<u64> for ValueSink {
        fn acked_write(&self, _tenant: u32, op_id: u64) {
            self.acks.lock().unwrap().push(op_id);
        }
        fn got(&self, _tenant: u32, op_id: u64, value: Option<u64>) {
            self.gots.lock().unwrap().insert(op_id, value);
        }
    }

    #[test]
    fn a_compaction_keeps_the_cached_records_its_delta_does_not_touch() {
        // One frame: the tree's one leaf takes it, so the shard has no slot
        // and every cached record is on the tenant's budget.
        let sink = Arc::new(ValueSink::default());
        let mut cfg = ServeConfig::new(1, 1);
        cfg.pool_frames = 1;
        cfg.cache_records = 64;
        let srv: Server<u64, u64> = Server::new(ram_array(1), cfg, sink.clone()).unwrap();
        let send = |op_id, kind| {
            let tenant = 0;
            srv.submit(Request {
                tenant,
                op_id,
                kind,
            })
            .unwrap()
        };
        (0..8).for_each(|k| send(k, ReqKind::Put(k, k)));
        srv.compact_all().unwrap();
        // Each key's first get reads the tree and admits it; the second hits.
        (0..16).for_each(|i| send(100 + i, ReqKind::Get(i % 8)));
        srv.barrier().unwrap();
        let stats = srv.stats();
        assert_eq!((stats.cache_hits(), stats.cache_misses()), (8, 8));
        // Overwrite 3 and delete 5, then compact them into the tree.
        send(200, ReqKind::Put(3, 300));
        send(201, ReqKind::Delete(5));
        srv.compact_all().unwrap();
        (0..8).for_each(|k| send(300 + k, ReqKind::Get(k)));
        srv.barrier().unwrap();
        // The six keys the delta did not touch still hit; 3 and 5 went to
        // the tree, which holds their new values.
        assert_eq!((stats.cache_hits(), stats.cache_misses()), (14, 10));
        let got = sink.gots.lock().unwrap().clone();
        let after: Vec<Option<u64>> = (300..308).map(|op_id| got[&op_id]).collect();
        let want = [0, 1, 2, 300, 4, 5, 6, 7].map(|v| (v != 5).then_some(v));
        assert_eq!(after, want);
        srv.shutdown().unwrap();
    }

    /// A RAM array of `lanes` disks whose last lane fails once `fuse`
    /// transfers have passed through it.
    fn failing_array(lanes: usize, fuse: u64) -> Arc<DiskArray> {
        let mut plans = vec![FaultPlan::new(0); lanes];
        plans[lanes - 1] = FaultPlan::new(0).with_crash(CrashSwitch::after(fuse));
        let (placement, mode) = (Placement::Independent, IoMode::Synchronous);
        DiskArray::new_ram_faulty(lanes, 512, placement, mode, &plans, RetryPolicy::none())
    }

    /// Transfers `preload` makes on the last lane of a `lanes`-disk array,
    /// which must be that lane's fuse for it to fail right after them.
    fn preload_transfers<T>(lanes: usize, preload: impl Fn(Arc<DiskArray>) -> T) -> u64 {
        let array = failing_array(lanes, u64::MAX);
        drop(preload(array.clone()));
        let io = array.stats().snapshot();
        io.reads_on(lanes - 1) + io.writes_on(lanes - 1)
    }

    #[test]
    fn a_worker_failed_with_its_batch_open_is_never_due() {
        let mut cfg = ServeConfig::new(1, 1);
        cfg.pool_frames = 4;
        let preload = |array| {
            let mut w = worker(array, cfg.clone(), Arc::new(NullSink));
            (0..500).for_each(|k| w.step(put(k), Duration::ZERO));
            assert_eq!(control(&mut w, Msg::Compact), Ok(()));
            w
        };
        let mut w = preload(failing_array(1, preload_transfers(1, preload)));
        w.step(put(1000), ms(1));
        assert_eq!(w.due, Some(ms(3)));
        // Gets until one misses the pool and finds the lane failed.
        (0..500).for_each(|k| w.step(req(k, ReqKind::Get(k)), ms(2)));
        assert!(w.failed.is_some());
        // The batch stays open and can never flush.  Were it still due,
        // the driver would wake at once, step, and wake again, forever.
        assert_eq!((w.shard.batch_len(), w.due), (1, None));
        w.step(None, ms(10));
        assert_eq!(w.due, None);
    }

    #[test]
    fn a_failed_shard_acks_nothing_more_and_every_control_call_reports_it() {
        const KEYS: u64 = 2000;
        let mut cfg = ServeConfig::new(2, 1);
        cfg.pool_frames = 4;
        let preload = |array| {
            let sink = Arc::new(ValueSink::default());
            let srv: Server<u64, u64> = Server::new(array, cfg.clone(), sink.clone()).unwrap();
            for k in 0..KEYS {
                let kind = ReqKind::Put(k, k);
                let tenant = 0;
                srv.submit(Request {
                    tenant,
                    op_id: k,
                    kind,
                })
                .unwrap();
            }
            srv.compact_all().unwrap();
            (srv, sink)
        };
        // Shard 1 runs on lane 1, which fails right after the preload.
        let (srv, sink) = preload(failing_array(2, preload_transfers(2, preload)));
        let send = |op_id, kind| {
            let tenant = 0;
            srv.submit(Request {
                tenant,
                op_id,
                kind,
            })
            .unwrap()
        };
        let healthy: Vec<u64> = (0..KEYS)
            .filter(|k| shard_of_key(0, k, cfg.shards) == 0)
            .collect();
        (0..KEYS).for_each(|k| send(KEYS + k, ReqKind::Get(k)));
        let err = srv.barrier().unwrap_err().to_string();
        let gots = sink.gots.lock().unwrap().clone();
        assert!(gots.len() < KEYS as usize, "shard 1 failed on a pool miss");
        assert!(healthy.iter().all(|&k| gots[&(KEYS + k)] == Some(k)));
        // Writes after the failure: only shard 0 acks them.
        let acked = sink.acks.lock().unwrap().len();
        (0..KEYS).for_each(|k| send(2 * KEYS + k, ReqKind::Put(k, k + 1)));
        assert_eq!(srv.barrier().unwrap_err().to_string(), err);
        let acks = sink.acks.lock().unwrap()[acked..].to_vec();
        assert_eq!(
            acks,
            healthy.iter().map(|k| 2 * KEYS + k).collect::<Vec<_>>()
        );
        assert_eq!(srv.range(0, 0, KEYS).unwrap_err().to_string(), err);
        assert_eq!(srv.compact_all().unwrap_err().to_string(), err);
        // Shard 0 compacted the new values and still answers.
        healthy
            .iter()
            .for_each(|&k| send(3 * KEYS + k, ReqKind::Get(k)));
        assert_eq!(srv.barrier().unwrap_err().to_string(), err);
        let gots = sink.gots.lock().unwrap().clone();
        assert!(healthy
            .iter()
            .all(|&k| gots[&(3 * KEYS + k)] == Some(k + 1)));
        // Two in the preload, and shard 0's since.
        assert_eq!(srv.stats().compactions(), 3);
        assert_eq!(srv.shutdown().unwrap_err().to_string(), err);
    }

    #[test]
    fn bad_configs_and_foreign_tenants_are_typed_errors() {
        let invalid = |r: Result<()>| matches!(r, Err(PdmError::InvalidRequest(_)));
        for (shards, tenants) in [(0, 1), (1, 0)] {
            let cfg = ServeConfig::new(shards, tenants);
            let srv = Server::<u64, u64>::new(ram_array(1), cfg, Arc::new(NullSink));
            assert!(
                invalid(srv.map(|_| ())),
                "{shards} shards, {tenants} tenants"
            );
        }
        let srv: Server<u64, u64> =
            Server::new(ram_array(1), ServeConfig::new(1, 2), Arc::new(NullSink)).unwrap();
        let put = |tenant| Request {
            tenant,
            op_id: 0,
            kind: ReqKind::Put(1, 1),
        };
        assert!(invalid(srv.submit(put(2))));
        // The server is unharmed and still serves the tenants it has.
        srv.submit(put(1)).unwrap();
        assert_eq!(srv.range(1, 0, 9).unwrap(), vec![(1, 1)]);
        srv.shutdown().unwrap();
    }
}
