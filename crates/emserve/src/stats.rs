//! Serving-layer counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared serving counters, aggregated across every shard worker of a
/// [`Server`](crate::Server).
///
/// All counters are monotone; capture before/after values and subtract to
/// attribute activity to a measurement window (the same discipline as
/// [`pdm::IoSnapshot::since`]).
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
    /// Gets answered by a shard's record cache.
    cache_hits: AtomicU64,
    /// Records a tree lookup found that its shard's record cache could not
    /// admit: no free slot, the tenant's budget exhausted, and a victim
    /// whose charge could not pass to it.
    cache_rejected: AtomicU64,
    /// Probation → protected moves inside the record caches.
    cache_promotions: AtomicU64,
    /// Protected → probation moves inside the record caches.
    cache_demotions: AtomicU64,
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
        /// Record one record-cache hit.
        record_cache_hit,
        cache_hits
    );
    counter!(
        /// Record one denied cache admission.
        record_cache_rejected,
        cache_rejected
    );

    /// Gets that had to consult the delta map, the key filter or the tree:
    /// every get the record caches did not answer.
    pub fn cache_misses(&self) -> u64 {
        self.gets().saturating_sub(self.cache_hits())
    }

    /// Record one probation → protected move in a record cache.
    pub(crate) fn record_cache_promotion(&self) {
        self.cache_promotions.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one protected → probation move in a record cache.
    pub(crate) fn record_cache_demotion(&self) {
        self.cache_demotions.fetch_add(1, Ordering::Relaxed);
    }

    /// Probation → protected moves inside the record caches so far.
    pub fn cache_promotions(&self) -> u64 {
        self.cache_promotions.load(Ordering::Relaxed)
    }

    /// Protected → probation moves inside the record caches so far.
    pub fn cache_demotions(&self) -> u64 {
        self.cache_demotions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_derived_rates() {
        let s = ServeStats::default();
        s.record_put();
        s.record_put();
        s.record_delete();
        s.record_get();
        s.record_cache_hit();
        s.record_get();
        s.record_get();
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
        s.record_cache_promotion();
        s.record_cache_demotion();
        assert_eq!((s.cache_promotions(), s.cache_demotions()), (1, 1));
    }
}
