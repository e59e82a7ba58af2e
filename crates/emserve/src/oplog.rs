//! The shard's op log: every accepted write, in arrival order.
//!
//! Nobody queries it.  Reads go to the shard's delta overlay and the B+-tree,
//! compaction feeds the trees from the delta and frees the log unread, and
//! only [`Shard::recover`](crate::Shard::recover) reads it back, to rebuild a
//! delta a crash lost.  A log read only at recovery has the survey's
//! `Scan(N)` floor: `⌈N·R/B⌉` block writes for `N` ops of `R` bytes, holding
//! one block in memory.
//!
//! Layout: a chain of full blocks, each `[link to the previous block |
//! records]`, plus a partial *tail* that lives in memory.  A block is
//! allocated and written in one call, when the tail fills it, so on a
//! [`Journal`](pdm::Journal) it is born in the epoch that writes it and goes
//! straight home, with no shadow; it is never rewritten.  The tail instead
//! rides in the [manifest](OpLog::manifest_bytes) — newest block, block
//! count, tail bytes — which a checkpoint stores next to the trees', so a
//! flush of `n` ops into a tail of `t` records costs `⌊(t + n)/per_block⌋`
//! block writes and no reads.

use std::collections::BTreeMap;
use std::marker::PhantomData;

use em_core::Record;
use pdm::{BlockId, PdmError, Result, SharedDevice};

/// Internal key: tenant id then user key, so tenant ranges are contiguous.
pub(crate) type Ik<K> = (u32, K);

/// The latest op per key (`None` = delete): what the shard's delta is
/// whenever its batch is empty.
pub(crate) type Latest<K, V> = BTreeMap<Ik<K>, Option<V>>;

/// Null link: the oldest block has no predecessor, an empty log no head.
const NONE: BlockId = u64::MAX;
/// Bytes of a block's link to its predecessor.
const LINK: usize = 8;
/// Bytes of the manifest before the tail: newest block id, block count.
const MANIFEST_FIXED: usize = 16;

/// An append-only log of `(tenant, key, value, tombstone)` records.
pub(crate) struct OpLog<K, V> {
    device: SharedDevice,
    /// Full blocks, oldest first.
    blocks: Vec<BlockId>,
    /// Encoded records that do not fill a block yet.
    tail: Vec<u8>,
    /// Records a block holds.
    per_block: usize,
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K: Record + Ord, V: Record> OpLog<K, V> {
    /// Bytes of one record: internal key, value, tombstone flag.
    const RECORD: usize = <Ik<K>>::BYTES + V::BYTES + 1;

    /// An empty log on `device`; errs if a block cannot hold a link and one
    /// record.
    pub(crate) fn new(device: SharedDevice) -> Result<Self> {
        let block = device.block_size();
        let per_block = block.saturating_sub(LINK) / Self::RECORD;
        if per_block == 0 {
            return Err(PdmError::RecordTooLarge {
                record: LINK + Self::RECORD,
                block,
            });
        }
        Ok(OpLog {
            device,
            blocks: Vec::new(),
            tail: Vec::with_capacity(per_block * Self::RECORD),
            per_block,
            _marker: PhantomData,
        })
    }

    /// Records held, on the device and in the tail.
    pub(crate) fn len(&self) -> usize {
        self.blocks.len() * self.per_block + self.tail.len() / Self::RECORD
    }

    /// Append one op (`None` = delete).  Writes one block when the tail
    /// fills it; if that write fails, the op is not logged and the log is
    /// as it was.
    pub(crate) fn append(&mut self, key: &Ik<K>, op: &Option<V>) -> Result<()> {
        let at = self.tail.len();
        self.tail.resize(at + Self::RECORD, 0);
        let (k, rest) = self.tail[at..].split_at_mut(<Ik<K>>::BYTES);
        key.write_to(k);
        match op {
            Some(v) => v.write_to(&mut rest[..V::BYTES]),
            None => rest[V::BYTES] = 1,
        }
        if self.tail.len() < self.per_block * Self::RECORD {
            return Ok(());
        }
        self.write_tail().inspect_err(|_| self.tail.truncate(at))
    }

    /// Write the full tail as the newest block; a block whose write fails
    /// is freed again.
    fn write_tail(&mut self) -> Result<()> {
        let id = self.device.allocate()?;
        let mut buf = vec![0u8; self.device.block_size()];
        buf[..LINK].copy_from_slice(&self.head().to_le_bytes());
        buf[LINK..LINK + self.tail.len()].copy_from_slice(&self.tail);
        if let Err(e) = self.device.write_block(id, &buf) {
            let _ = self.device.free(id);
            return Err(e);
        }
        self.blocks.push(id);
        self.tail.clear();
        Ok(())
    }

    /// The newest full block, or `NONE`.
    fn head(&self) -> BlockId {
        self.blocks.last().copied().unwrap_or(NONE)
    }

    /// What a checkpoint must store to [`reattach`](Self::reattach) the log:
    /// newest block, block count, then the tail's records.  No I/O.
    pub(crate) fn manifest_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(MANIFEST_FIXED + self.tail.len());
        out.extend_from_slice(&self.head().to_le_bytes());
        out.extend_from_slice(&(self.blocks.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.tail);
        out
    }

    /// Reopen the log a [manifest](Self::manifest_bytes) describes, with
    /// its latest op per key.  One read per block, no write; a malformed
    /// manifest (shorter than its two words, or a tail that is not a whole
    /// number of records short of a block) or chain is
    /// [`PdmError::Corrupt`].
    pub(crate) fn reattach(device: SharedDevice, bytes: &[u8]) -> Result<(Self, Latest<K, V>)> {
        let corrupt = || PdmError::Corrupt("malformed op-log manifest".into());
        let mut log = Self::new(device)?;
        let (fixed, tail) = bytes.split_at_checked(MANIFEST_FIXED).ok_or_else(corrupt)?;
        if tail.len() % Self::RECORD != 0 || tail.len() / Self::RECORD >= log.per_block {
            return Err(corrupt());
        }
        let (head, count) = <(BlockId, u64)>::read_from(fixed);
        if count > log.device.allocated_blocks() {
            return Err(corrupt());
        }
        log.tail = tail.to_vec();
        let (blocks, latest) = log.walk(head, count as usize)?;
        log.blocks = blocks;
        Ok((log, latest))
    }

    /// The latest op per key, read back without changing the log.
    #[cfg(test)]
    pub(crate) fn latest_per_key(&self) -> Result<Latest<K, V>> {
        Ok(self.walk(self.head(), self.blocks.len())?.1)
    }

    /// Replay the tail, then `count` blocks back from `head`, newest op
    /// first, so the first op seen for a key is its latest.  Returns the
    /// blocks oldest first and the latest op per key.
    fn walk(&self, head: BlockId, count: usize) -> Result<(Vec<BlockId>, Latest<K, V>)> {
        let mut latest = BTreeMap::new();
        let mut replay = |records: &[u8]| {
            for rec in records.chunks_exact(Self::RECORD).rev() {
                let (k, rest) = rec.split_at(<Ik<K>>::BYTES);
                let op = (rest[V::BYTES] == 0).then(|| V::read_from(&rest[..V::BYTES]));
                latest.entry(Ik::<K>::read_from(k)).or_insert(op);
            }
        };
        replay(&self.tail);
        let mut blocks = Vec::with_capacity(count);
        let mut buf = vec![0u8; self.device.block_size()];
        let mut next = head;
        for _ in 0..count {
            if next == NONE {
                return Err(PdmError::Corrupt("op-log chain ends early".into()));
            }
            self.device.read_block(next, &mut buf)?;
            blocks.push(next);
            replay(&buf[LINK..][..self.per_block * Self::RECORD]);
            next = BlockId::read_from(&buf[..LINK]);
        }
        if next != NONE {
            return Err(PdmError::Corrupt("op-log chain runs past its count".into()));
        }
        blocks.reverse();
        Ok((blocks, latest))
    }

    /// Free every block unread and drop the tail.
    pub(crate) fn clear(&mut self) -> Result<()> {
        for id in self.blocks.drain(..) {
            self.device.free(id)?;
        }
        self.tail.clear();
        Ok(())
    }
}

impl<K, V> Drop for OpLog<K, V> {
    fn drop(&mut self) {
        for &id in &self.blocks {
            let _ = self.device.free(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::{BlockDevice, RamDisk};

    #[test]
    fn a_block_is_written_once_full_and_the_tail_rides_in_the_manifest() {
        let ram = RamDisk::new(1024);
        let mut log: OpLog<u64, u64> = OpLog::new(ram.clone() as SharedDevice).unwrap();
        assert_eq!((OpLog::<u64, u64>::RECORD, log.per_block), (21, 48));
        for i in 0..100u64 {
            let before = ram.stats().snapshot();
            log.append(&(1, i % 7), &(i % 3 != 0).then_some(i)).unwrap();
            let d = ram.stats().snapshot().since(&before);
            assert_eq!((d.reads(), d.writes()), (0, u64::from(i % 48 == 47)));
        }
        assert_eq!((log.len(), log.blocks.len()), (100, 2));
        let manifest = log.manifest_bytes();
        assert_eq!(manifest.len(), 16 + 4 * 21);
        let want: BTreeMap<Ik<u64>, Option<u64>> = (93..100u64)
            .map(|i| ((1, i % 7), (i % 3 != 0).then_some(i)))
            .collect();
        assert_eq!(log.latest_per_key().unwrap(), want);

        // The reattached log reads each block once and owns the same blocks.
        let before = ram.stats().snapshot();
        let (again, latest) =
            OpLog::<u64, u64>::reattach(ram.clone() as SharedDevice, &manifest).unwrap();
        let d = ram.stats().snapshot().since(&before);
        assert_eq!((d.reads(), d.writes()), (2, 0));
        assert_eq!(latest, want);
        assert_eq!(again.blocks, log.blocks);
        std::mem::forget(again);

        // Corruption is an error, not a panic.
        let dev = || ram.clone() as SharedDevice;
        assert!(OpLog::<u64, u64>::reattach(dev(), &manifest[..9]).is_err());
        assert!(OpLog::<u64, u64>::reattach(dev(), &manifest[..20]).is_err());
        let mut long = manifest.clone();
        long[8] = 3; // three blocks claimed, two linked
        assert!(OpLog::<u64, u64>::reattach(dev(), &long).is_err());

        log.clear().unwrap();
        assert_eq!((log.len(), ram.allocated_blocks()), (0, 0));
    }

    #[test]
    fn a_failed_block_write_leaves_the_log_as_it_was() {
        use pdm::{CrashSwitch, FaultDisk, FaultPlan};
        let dead = FaultDisk::wrap(
            RamDisk::new(1024) as SharedDevice,
            FaultPlan::new(0).with_crash(CrashSwitch::after(0)),
        );
        let mut log: OpLog<u64, u64> = OpLog::new(dead.clone() as SharedDevice).unwrap();
        for i in 0..47u64 {
            log.append(&(0, i), &Some(i)).unwrap();
        }
        // The 48th op needs a block the dead device cannot take, again and
        // again: each attempt fails cleanly instead of overfilling the tail,
        // and gives back the block it allocated.
        for i in 47..50u64 {
            assert!(log.append(&(0, i), &Some(i)).is_err());
            assert_eq!((log.len(), log.blocks.len()), (47, 0));
            assert_eq!(dead.allocated_blocks(), 0);
        }
    }
}
