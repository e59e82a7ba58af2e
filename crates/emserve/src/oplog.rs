//! The shard's log records: every write flushed since the last compaction,
//! in arrival order, as the journal's `"log"` manifest.
//!
//! Nobody queries the log.  Reads go to the shard's delta overlay and the
//! B+-trees, compaction feeds the trees from the delta and resets the log
//! unread, and only [`Shard::recover`](crate::Shard::recover) replays it, to
//! rebuild a delta a crash lost.  A log read only at recovery has the
//! survey's `Scan(N)` floor, `⌈N·R/B⌉` block writes for `N` ops of `R` bytes.
//! This one has no blocks of its own: each flush appends its batch's records
//! with [`Journal::append_manifest`](pdm::Journal::append_manifest), and the
//! one header that commits the batch carries them, since a chained header
//! holds only the bytes appended since the header before it.  The journal
//! keeps the log in memory, `R` bytes an op since the last compaction.

use std::collections::BTreeMap;

use em_core::Record;
use pdm::{PdmError, Result};

/// Internal key: tenant id then user key, so tenant ranges are contiguous.
pub(crate) type Ik<K> = (u32, K);

/// The latest op per key (`None` = delete): what the shard's delta is
/// whenever its batch is empty.
pub(crate) type Latest<K, V> = BTreeMap<Ik<K>, Option<V>>;

/// Bytes of one record: internal key, value, tombstone flag.
pub(crate) const fn record_len<K: Record, V: Record>() -> usize {
    <Ik<K>>::BYTES + V::BYTES + 1
}

/// Append the record of one op (`None` = delete) to `out`.
pub(crate) fn encode<K: Record, V: Record>(key: &Ik<K>, op: &Option<V>, out: &mut Vec<u8>) {
    let at = out.len();
    out.resize(at + record_len::<K, V>(), 0);
    let (k, rest) = out[at..].split_at_mut(<Ik<K>>::BYTES);
    key.write_to(k);
    match op {
        Some(v) => v.write_to(&mut rest[..V::BYTES]),
        None => rest[V::BYTES] = 1,
    }
}

/// The latest op per key of `log`, replayed newest first so the first op
/// seen for a key is its latest.  A log that is not a whole number of
/// records is [`PdmError::Corrupt`].
pub(crate) fn replay<K: Record + Ord, V: Record>(log: &[u8]) -> Result<Latest<K, V>> {
    let len = record_len::<K, V>();
    if !log.len().is_multiple_of(len) {
        return Err(PdmError::Corrupt("malformed shard log".into()));
    }
    let mut latest = BTreeMap::new();
    for rec in log.chunks_exact(len).rev() {
        let (k, rest) = rec.split_at(<Ik<K>>::BYTES);
        let op = (rest[V::BYTES] == 0).then(|| V::read_from(&rest[..V::BYTES]));
        latest.entry(Ik::<K>::read_from(k)).or_insert(op);
    }
    Ok(latest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_keeps_the_newest_op_per_key_and_rejects_a_partial_record() {
        assert_eq!(record_len::<u64, u64>(), 21);
        let mut log = Vec::new();
        for i in 0..100u64 {
            encode(&(1, i % 7), &(i % 3 != 0).then_some(i), &mut log);
        }
        assert_eq!(log.len(), 100 * 21);
        let want: Latest<u64, u64> = (93..100u64)
            .map(|i| ((1, i % 7), (i % 3 != 0).then_some(i)))
            .collect();
        assert_eq!(replay::<u64, u64>(&log).unwrap(), want);
        assert_eq!(replay::<u64, u64>(&[]).unwrap(), Latest::new());
        let partial = replay::<u64, u64>(&log[..20]);
        assert!(matches!(partial, Err(PdmError::Corrupt(_))), "{partial:?}");
    }
}
