//! Serving-layer counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotone nanosecond total and the number of intervals summed into it.
#[derive(Debug, Default)]
struct Timer {
    ns: AtomicU64,
    count: AtomicU64,
}

impl Timer {
    fn add(&self, d: Duration) {
        self.ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// `(nanoseconds, intervals)`.
    fn read(&self) -> (u64, u64) {
        (
            self.ns.load(Ordering::Relaxed),
            self.count.load(Ordering::Relaxed),
        )
    }
}

/// Shared serving counters, aggregated across every shard worker of a
/// [`Server`](crate::Server).
///
/// All counters are monotone; capture before/after values and subtract to
/// attribute activity to a measurement window (the same discipline as
/// [`pdm::IoSnapshot::since`]).
///
/// The three timers say where a closed loop's wall-clock went without a
/// trace: a worker is either *idle* (blocked on an empty queue), inside the
/// tree on a cache miss, or doing sub-microsecond bookkeeping; a request
/// either waits in its shard's queue or is being served.  A window's idle
/// share is `Σ idle_ns / (shards × window)`.
#[derive(Debug, Default)]
pub struct ServeStats {
    puts: AtomicU64,
    deletes: AtomicU64,
    gets: AtomicU64,
    /// Writes acknowledged to their [`CompletionSink`](crate::CompletionSink).
    acked_writes: AtomicU64,
    /// Write batches flushed (size- or deadline-trigger).
    batches: AtomicU64,
    /// Individual ops carried by those batches.
    batched_ops: AtomicU64,
    /// Absorber → B+-tree compactions.
    compactions: AtomicU64,
    /// Gets answered by a [`HotCache`](crate::HotCache).
    cache_hits: AtomicU64,
    /// Gets that had to consult the delta map or the tree.
    cache_misses: AtomicU64,
    /// Cache admissions denied because the tenant's budget was exhausted
    /// and the local shard held nothing evictable.
    cache_rejected: AtomicU64,
    /// Probation → protected moves inside the hot caches.
    cache_promotions: AtomicU64,
    /// Protected → probation moves inside the hot caches.
    cache_demotions: AtomicU64,
    /// `submit` → dequeue, per request.
    queue_wait: Timer,
    /// Dequeue → `Shard::get` returned, per get the cache missed (the failed
    /// cache probe is inside it, the admission that follows is not).
    tree: Timer,
    /// Per worker: blocked on an empty queue.
    idle: Vec<Timer>,
}

macro_rules! counter {
    ($(#[$doc:meta])* $record:ident, $get:ident) => {
        $(#[$doc])*
        #[inline]
        pub fn $record(&self) {
            self.$get.fetch_add(1, Ordering::Relaxed);
        }

        /// Current value of the counter of the same name.
        pub fn $get(&self) -> u64 {
            self.$get.load(Ordering::Relaxed)
        }
    };
}

impl ServeStats {
    /// Fresh zeroed counters for a server of `workers` shard workers.
    pub fn new(workers: usize) -> Self {
        ServeStats {
            idle: (0..workers).map(|_| Timer::default()).collect(),
            ..Self::default()
        }
    }

    counter!(
        /// Record one put accepted by a shard worker.
        record_put,
        puts
    );
    counter!(
        /// Record one delete accepted by a shard worker.
        record_delete,
        deletes
    );
    counter!(
        /// Record one get accepted by a shard worker.
        record_get,
        gets
    );
    counter!(
        /// Record one write acknowledgement.
        record_acked_write,
        acked_writes
    );
    counter!(
        /// Record one batch flush.
        record_batch,
        batches
    );
    counter!(
        /// Record one op absorbed as part of a batch.
        record_batched_op,
        batched_ops
    );
    counter!(
        /// Record one log→tree compaction.
        record_compaction,
        compactions
    );
    counter!(
        /// Record one hot-cache hit.
        record_cache_hit,
        cache_hits
    );
    counter!(
        /// Record one hot-cache miss.
        record_cache_miss,
        cache_misses
    );
    counter!(
        /// Record one denied cache admission.
        record_cache_rejected,
        cache_rejected
    );

    /// Add hot-cache segment moves: probation → protected, and back.
    /// Most cache operations move nothing, and then nothing is written.
    pub(crate) fn record_cache_moves(&self, promotions: u64, demotions: u64) {
        if promotions > 0 {
            self.cache_promotions
                .fetch_add(promotions, Ordering::Relaxed);
        }
        if demotions > 0 {
            self.cache_demotions.fetch_add(demotions, Ordering::Relaxed);
        }
    }

    /// Probation → protected moves inside the hot caches so far.
    pub fn cache_promotions(&self) -> u64 {
        self.cache_promotions.load(Ordering::Relaxed)
    }

    /// Protected → probation moves inside the hot caches so far.
    pub fn cache_demotions(&self) -> u64 {
        self.cache_demotions.load(Ordering::Relaxed)
    }

    /// Record one request's wait in its shard's queue.
    pub(crate) fn record_queue_wait(&self, d: Duration) {
        self.queue_wait.add(d);
    }

    /// Total nanoseconds requests spent queued, and how many requests.
    pub fn queue_wait_ns(&self) -> (u64, u64) {
        self.queue_wait.read()
    }

    /// Record one cache-missing get's time to the tree's answer.
    pub(crate) fn record_tree_time(&self, d: Duration) {
        self.tree.add(d);
    }

    /// Total nanoseconds cache-missing gets spent reaching the tree's
    /// answer, and how many gets.
    pub fn tree_ns(&self) -> (u64, u64) {
        self.tree.read()
    }

    /// Record one wait of `worker` on its empty queue.
    pub(crate) fn record_idle(&self, worker: usize, d: Duration) {
        self.idle[worker].add(d);
    }

    /// Total nanoseconds `worker` spent blocked on its empty queue, and how
    /// many times it blocked.
    pub fn idle_ns(&self, worker: usize) -> (u64, u64) {
        self.idle[worker].read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_derived_rates() {
        let s = ServeStats::new(2);
        s.record_put();
        s.record_put();
        s.record_delete();
        s.record_get();
        s.record_cache_hit();
        s.record_get();
        s.record_cache_miss();
        s.record_get();
        s.record_cache_miss();
        s.record_batch();
        s.record_batched_op();
        s.record_batched_op();
        s.record_batched_op();
        s.record_acked_write();
        s.record_compaction();
        s.record_cache_rejected();
        assert_eq!(s.puts(), 2);
        assert_eq!(s.deletes(), 1);
        assert_eq!(s.gets(), 3);
        assert_eq!(s.acked_writes(), 1);
        assert_eq!(s.compactions(), 1);
        assert_eq!(s.cache_rejected(), 1);
        assert_eq!((s.cache_hits(), s.cache_misses()), (1, 2));
        assert_eq!((s.batches(), s.batched_ops()), (1, 3));
        s.record_cache_moves(3, 1);
        s.record_queue_wait(Duration::from_nanos(40));
        s.record_queue_wait(Duration::from_nanos(2));
        s.record_tree_time(Duration::from_nanos(7));
        s.record_idle(1, Duration::from_nanos(9));
        assert_eq!((s.cache_promotions(), s.cache_demotions()), (3, 1));
        assert_eq!(s.queue_wait_ns(), (42, 2));
        assert_eq!(s.tree_ns(), (7, 1));
        assert_eq!((s.idle_ns(0), s.idle_ns(1)), ((0, 0), (9, 1)));
    }
}
