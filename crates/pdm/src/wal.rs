//! Write-ahead journaling with checkpoint-and-rewind semantics.
//!
//! The fault substrate ([`FaultDisk`](crate::FaultDisk)) made device
//! misbehaviour *detectable*; this module makes it *survivable*.  A
//! [`Journal`] wraps any [`BlockDevice`] and turns the wrapped device into a
//! transactional store: between checkpoints every write to a block the last
//! checkpoint committed is redirected to a private *shadow block*, so the
//! committed "home" blocks are never touched mid-epoch.  A crash — power
//! loss, a torn write the caller could not repair, a dead machine — therefore
//! leaves the last checkpoint's state fully intact on the medium, and
//! recovery either *rewinds* to it (crash before commit) or *redoes* the
//! committed shadow set on top of it (crash after commit, before the apply
//! finished).  This is the trail/checkpoint discipline of Vitter's survey
//! adapted to blocks: checkpointing makes online structures restartable, and
//! the write-ahead rule (log the redo record before moving a home block)
//! makes the apply idempotent from any interruption point.
//!
//! ## Protocol
//!
//! During an **epoch** (the span between checkpoints) a block is either
//! *committed* — it existed at the last checkpoint — or *born this epoch*:
//! handed out by this journal's `allocate` since then.  Nothing the last
//! checkpoint committed can reference a born-this-epoch block (its id was
//! free at that checkpoint, and committed blocks freed since are only
//! released *after* the next commit, so the allocator cannot hand out an id
//! the committed state still uses).  That is the **born-this-epoch rule**:
//! such a block needs no shadow, because a rewind cannot see it.
//!
//! * `allocate` passes through and remembers the id as born this epoch
//!   (forgotten at the next checkpoint; nothing is born after `recover`
//!   until the reopened journal allocates).  Blocks allocated in an epoch
//!   that ends in a rewind are leaked (bounded by the epoch's footprint);
//!   the simulation's media are free-list allocators, so a leak costs
//!   capacity, never correctness.
//! * `write_block(id)` of a born-this-epoch block goes **straight home**: no
//!   shadow, no redo entry, nothing to apply.  A rewind leaves the bytes in a
//!   block no recovered structure points at — the allocation leak above,
//!   with a payload.  The checkpoint's `barrier()` orders every such write
//!   before the commit header, so a *committed* epoch never references a
//!   born block whose write was lost.
//! * `write_block(home)` of a committed block allocates (once per home) a
//!   shadow block, writes the payload there, and remembers
//!   `home → (shadow, checksum)` in memory.  Rewrites reuse the same shadow.
//!   One transfer either way — exactly what the bare device would have cost.
//! * `read_block(home)` of a pending block is redirected to its shadow; other
//!   reads pass through.  One transfer either way.
//! * `free(id)` of a born-this-epoch block releases it **at once** (its id
//!   may be born again in the same epoch).  `free(home)` of a committed
//!   block is **deferred** to the end of the next checkpoint: the block
//!   being freed is part of the state a rewind must restore.
//!
//! [`checkpoint`](Journal::checkpoint) then makes the epoch durable:
//!
//! 1. **Record**: the redo record — every `(home, shadow, payload checksum)`
//!    of a rewritten committed block, then the named
//!    [manifests](Journal::set_manifest) — is serialized.  Its first `B − 56`
//!    bytes ride *inline* in the header block written next; only the
//!    remainder goes into freshly allocated *overflow blocks*, written back
//!    to front so each block's link is final.
//! 2. **Commit**: one header block is written with the next sequence
//!    number.  This single block write is the commit point.  An epoch that
//!    rewrote no committed block has nothing to redo, so its header already
//!    says `CLEAN` and the checkpoint skips to step 5; otherwise it says
//!    `COMMITTED`.
//! 3. **Apply**: each shadow is copied onto its home block.
//! 4. **Clean**: a second header, `CLEAN` with the next sequence number.
//! 5. **Retire**: the applied shadows, all deferred frees and, after an
//!    anchor, the chain it replaced are released.
//!
//! ## Anchors and chained headers: one log
//!
//! The header block *is* the log.  An **anchor** goes to whichever of the
//! two fixed anchor slots does not hold the newest anchor and carries the
//! *full* record.  A **chained** header goes to the block the previous
//! header pre-allocated and names, and carries only what changed since it:
//! the redo entries, each manifest [set](Journal::set_manifest) to new
//! bytes, and of a manifest only [appended](Journal::append_manifest) to,
//! the new bytes; an unchanged manifest is omitted.  Every header
//! pre-allocates and names the block for the next chained header.
//!
//! The **anchor rule**: a checkpoint writes an anchor when its full record
//! fits the header block, so journals with small manifests (a tree's root)
//! write anchors only.
//! Otherwise it chains, unless the chain since the newest anchor (chained
//! headers, their overflow, and the `CLEAN` header an apply adds) would pass
//! `2a` blocks, `a` being an anchor of the full record; then it writes that
//! anchor.  This is the doubling rule: a forced anchor of `a` blocks follows
//! at least `2a` chained ones, so forced anchors add at most half the
//! chain's own writes, and recovery walks at most `2a` chained blocks.  A
//! log appended by more than half a block a checkpoint (a serving shard's)
//! never forces one.  An anchor retires the chain it replaces only when its
//! checkpoint has finished, so a torn anchor falls back to the older anchor,
//! whose chain is still allocated.
//!
//! A header is 56 fixed bytes — magic, sequence number, state, overflow
//! head, next block, inline length, checksum — and the inline bytes.  The
//! checksum covers both and is keyed to the two anchor slot ids, so a torn
//! header fails it, and so does another journal's header on the device.
//!
//! ## Recovery
//!
//! [`Journal::recover`] takes the newest valid anchor and walks forward,
//! accepting the block the current header names while it verifies (magic,
//! keyed checksum, sequence number one past the previous) and applying its
//! changes.  The first block that does not verify ends the walk: the
//! pre-allocated block nothing reached yet, a torn header, or a stale one of
//! a retired chain (older sequence number) or of another journal (other
//! key).  A `CLEAN` newest header rewinds the uncommitted epoch, since
//! nothing reads its shadows; a `COMMITTED` one is redone, every shadow
//! checksum-verified and copied home, then a `CLEAN` header written —
//! idempotent, so a crash *during recovery* is recovered by recovering
//! again.
//!
//! ## Cost accounting
//!
//! Mid-epoch operations cost exactly what the bare device costs, so an
//! algorithm's transfer counts are unchanged by journaling until it
//! checkpoints.  The checkpoint overhead — overflow writes, one header write
//! plus a second when something was applied, one read + one write per
//! pending block for the apply — is tracked exactly in [`WalOverhead`], so
//! benchmarks can assert `journaled = bare + overhead` to the transfer.  A
//! checkpoint whose header carries an `r`-byte record (the full record for an
//! anchor, the changes for a chained header) and which rewrote `p` committed
//! blocks costs `1 + ⌈(r − (B − 56))⁺ / (B − 16)⌉ + [p > 0] + 2p`
//! transfers: what the epoch allocated and filled costs nothing extra, and a
//! log kept in an appended manifest costs each checkpoint its new bytes, not
//! the log.  Recovery reads the two anchor slots, the newest anchor's
//! overflow, every chained header since it with its overflow — at most `2a`
//! blocks by the anchor rule — and one block more, the one that ends the
//! walk.
//!
//! Shadow and overflow blocks are allocated through the wrapped device's
//! normal allocator, so on a multi-disk array their *lane* follows the
//! allocation cursor, not the home block's lane; totals are preserved but
//! per-lane attribution of a journaled workload can differ from the bare
//! run.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::device::{BlockDevice, BlockId, SharedDevice};
use crate::error::{PdmError, Result};
// FNV-1a is the payload, record and header checksum of the journal.
use crate::hash::{fnv1a, fnv1a_words};
use crate::sched::IoTicket;
use crate::stats::IoStats;

/// Journal header magic ("external-memory WAL, format 3": anchors and
/// chained headers).
const MAGIC: u64 = 0x454D_5741_4C31_0003;
/// Null block pointer in overflow links.
const NONE: u64 = u64::MAX;
const STATE_CLEAN: u64 = 0;
const STATE_COMMITTED: u64 = 1;
/// Bytes of a header's fixed part: magic, seq, state, overflow head, next
/// block, inline length, checksum.  The record's first `B − HEADER_BYTES`
/// bytes follow it in the same block.  Also the smallest block a journal
/// accepts, which leaves an overflow block 40 bytes of payload.
const HEADER_BYTES: usize = 56;
/// Offset of the header checksum, the last fixed field.
const SUM_AT: usize = 48;
/// Per-overflow-block overhead: next pointer + chunk length.
const CHAIN_OVERHEAD: usize = 16;
/// A record's manifest changes: replace the value, or extend it.
const SET: u64 = 0;
const APPEND: u64 = 1;

/// One redo entry: home block, shadow block, payload checksum.
type Entry = (BlockId, BlockId, u64);

/// One manifest change in a record: kind ([`SET`] or [`APPEND`]), name,
/// bytes.
type Change<'a> = (u64, &'a str, &'a [u8]);

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The little-endian word at `*pos`, advancing past it; a word that runs
/// past the end of `bytes` is [`PdmError::Corrupt`].
fn get_u64(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let word = pos
        .checked_add(8)
        .and_then(|end| bytes.get(*pos..end))
        .ok_or_else(|| corrupt("truncated journal record"))?;
    let mut le = [0u8; 8];
    le.copy_from_slice(word);
    *pos += 8;
    Ok(u64::from_le_bytes(le))
}

/// The length-prefixed byte string at `*pos`, advancing past it.
fn get_bytes<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a [u8]> {
    let len = get_u64(bytes, pos)?;
    let out = usize::try_from(len)
        .ok()
        .and_then(|len| bytes.get(*pos..pos.checked_add(len)?))
        .ok_or_else(|| corrupt("manifest out of range"))?;
    *pos += out.len();
    Ok(out)
}

fn corrupt(what: &str) -> PdmError {
    PdmError::Corrupt(format!("journal: {what}"))
}

/// Exact transfer overhead a [`Journal`] has added on top of the wrapped
/// device, by category.  All counts are lifetime totals for the journal
/// instance; subtract snapshots to attribute one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalOverhead {
    /// Epoch writes redirected into shadow blocks.  These *replace* the
    /// writes the bare device would have executed (same count), so they are
    /// reported for visibility but are **not** part of [`total`](Self::total).
    pub shadow_writes: u64,
    /// Overflow block writes at checkpoints: the part of a record that does
    /// not fit its header block.
    pub chain_writes: u64,
    /// Overflow block reads during recovery.
    pub chain_reads: u64,
    /// Header block writes, anchor or chained: one at format, one per
    /// checkpoint, a second per checkpoint that applied redo entries, one
    /// per recovery that redid an apply.
    pub header_writes: u64,
    /// Header block reads during recovery: both anchor slots, every chained
    /// header accepted, and the block that ends the walk.
    pub header_reads: u64,
    /// Shadow reads while applying a checkpoint or redoing one at recovery.
    pub apply_reads: u64,
    /// Home writes while applying a checkpoint or redoing one at recovery.
    pub apply_writes: u64,
    /// Checkpoints completed.
    pub checkpoints: u64,
}

impl WalOverhead {
    /// Transfers the journal added beyond what the bare device would have
    /// executed for the same workload.
    pub fn total(&self) -> u64 {
        self.chain_writes
            + self.chain_reads
            + self.header_writes
            + self.header_reads
            + self.apply_reads
            + self.apply_writes
    }
}

/// One redirected home block: where its current payload lives and what that
/// payload hashes to.
struct PendingEntry {
    shadow: BlockId,
    checksum: u64,
}

/// A named manifest and how much of it the newest header already holds.
#[derive(Default)]
struct Manifest {
    bytes: Vec<u8>,
    /// `Some(n)`: the headers written so far hold `bytes[..n]`, so the next
    /// chained header carries `bytes[n..]`, or nothing when that is empty.
    /// `None`: set since, so the next header carries all of it.
    persisted: Option<usize>,
}

struct WalState {
    /// Homes written this epoch, ordered by id (deterministic record/apply
    /// order).
    pending: BTreeMap<BlockId, PendingEntry>,
    /// Blocks allocated through the journal this epoch.  No committed state
    /// can reference them, so their writes go straight home and their frees
    /// happen at once; cleared by every checkpoint, empty after recovery.
    fresh: BTreeSet<BlockId>,
    /// Frees deferred until the epoch commits; on rewind they never happen,
    /// which is what keeps the pre-epoch structures intact.
    deferred_frees: Vec<BlockId>,
    /// Named recovery manifests, persisted by the headers.
    manifests: BTreeMap<String, Manifest>,
    /// Sequence number of the newest header written.
    seq: u64,
    /// Anchor slot (0 or 1) holding the newest anchor; the next anchor goes
    /// to the other one.
    newest: usize,
    /// The block the newest header pre-allocated and names: where the next
    /// chained header goes.
    next: BlockId,
    /// What the next anchor retires: the newest anchor's overflow blocks,
    /// then every chained header since it, each followed by its overflow.
    chain: Vec<BlockId>,
    /// Blocks of `chain` that are chained headers or their overflow.
    chained: usize,
}

impl WalState {
    /// What changed since the newest header: each manifest set since, whole,
    /// and each one appended to, its new bytes.  Unchanged ones are omitted.
    fn changes(&self) -> Vec<Change<'_>> {
        self.manifests
            .iter()
            .filter_map(|(name, m)| match m.persisted {
                None => Some((SET, name.as_str(), m.bytes.as_slice())),
                Some(n) if n < m.bytes.len() => Some((APPEND, name.as_str(), &m.bytes[n..])),
                Some(_) => None,
            })
            .collect()
    }

    /// Every manifest, whole: an anchor's changes.
    fn everything(&self) -> Vec<Change<'_>> {
        self.manifests
            .iter()
            .map(|(name, m)| (SET, name.as_str(), m.bytes.as_slice()))
            .collect()
    }

    /// Bytes of the full record over `entries` redo entries, without
    /// building it.
    fn full_len(&self, entries: usize) -> usize {
        if entries == 0 && self.manifests.is_empty() {
            return 0;
        }
        let changes: usize = self
            .manifests
            .iter()
            .map(|(name, m)| 24 + name.len() + m.bytes.len())
            .sum();
        8 + 24 * entries + 8 + changes + 8
    }

    /// The newest header holds every manifest as it is now.
    fn mark_persisted(&mut self) {
        for m in self.manifests.values_mut() {
            m.persisted = Some(m.bytes.len());
        }
    }
}

/// One valid header, as [`Journal::recover`] reads it.
struct Header {
    seq: u64,
    state: u64,
    /// First overflow block of the record, or `NONE`.
    overflow: u64,
    /// The block this header pre-allocated for the next chained header.
    next: BlockId,
    /// The record's first bytes, carried in the header block itself.
    inline: Vec<u8>,
}

/// A write-ahead journal wrapping a [`BlockDevice`]; see the
/// `wal` module docs for the protocol.
///
/// The journal itself implements [`BlockDevice`], so buffer pools, trees and
/// stream writers run on top of it unchanged; the additional surface is the
/// control plane — [`checkpoint`](Self::checkpoint),
/// [`set_manifest`](Self::set_manifest),
/// [`append_manifest`](Self::append_manifest), [`recover`](Self::recover).
pub struct Journal {
    inner: SharedDevice,
    /// The two anchor slots; [`WalState::newest`] says which is current.
    headers: [BlockId; 2],
    state: Mutex<WalState>,
    shadow_writes: AtomicU64,
    chain_writes: AtomicU64,
    chain_reads: AtomicU64,
    header_writes: AtomicU64,
    header_reads: AtomicU64,
    apply_reads: AtomicU64,
    apply_writes: AtomicU64,
    checkpoints: AtomicU64,
}

impl Journal {
    fn empty_state() -> WalState {
        WalState {
            pending: BTreeMap::new(),
            fresh: BTreeSet::new(),
            deferred_frees: Vec::new(),
            manifests: BTreeMap::new(),
            seq: 0,
            // So that `format`'s anchor lands in slot 0.
            newest: 1,
            next: NONE,
            chain: Vec::new(),
            chained: 0,
        }
    }

    /// A journal over `inner` with nothing read or written yet; errs if a
    /// block cannot hold a header's fixed part.
    fn bare(inner: SharedDevice, headers: [BlockId; 2]) -> Result<Journal> {
        let block = inner.block_size();
        if block < HEADER_BYTES {
            return Err(PdmError::RecordTooLarge {
                record: HEADER_BYTES,
                block,
            });
        }
        Ok(Journal {
            inner,
            headers,
            state: Mutex::new(Self::empty_state()),
            shadow_writes: AtomicU64::new(0),
            chain_writes: AtomicU64::new(0),
            chain_reads: AtomicU64::new(0),
            header_writes: AtomicU64::new(0),
            header_reads: AtomicU64::new(0),
            apply_reads: AtomicU64::new(0),
            apply_writes: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
        })
    }

    /// Initialize a fresh journal on `inner`: allocates the two anchor
    /// slots and the block the first chained header will go to, and writes
    /// the initial `CLEAN` anchor.
    ///
    /// The anchor slot ids ([`header_blocks`](Self::header_blocks)) are the
    /// journal's only root of trust — a later [`recover`](Self::recover)
    /// needs exactly them.  On a fresh device they are the first two
    /// allocations, hence deterministic.
    ///
    /// # Errors
    ///
    /// [`PdmError::RecordTooLarge`] if a block of `inner` is smaller than a
    /// header's 56-byte fixed part; otherwise whatever the device returns.
    pub fn format(inner: SharedDevice) -> Result<Arc<Journal>> {
        let mut j = Self::bare(inner, [NONE; 2])?;
        j.headers = [j.inner.allocate()?, j.inner.allocate()?];
        let next = j.inner.allocate()?;
        let mut st = j.state.lock();
        j.put_anchor(&mut st, STATE_CLEAN, NONE, next, &[])?;
        st.next = next;
        drop(st);
        // Slot 1 stays zeroed (invalid) until the next anchor.
        Ok(Arc::new(j))
    }

    /// Reopen a journal after a crash, given the surviving medium and the
    /// anchor slot pair from [`header_blocks`](Self::header_blocks).
    ///
    /// Reads both anchor slots, walks forward from the newest valid anchor
    /// through its chain, and either rewinds (the newest header is `CLEAN`:
    /// nothing to do — the uncommitted epoch's shadows are simply never
    /// looked at) or redoes the committed apply (it is `COMMITTED`: every
    /// shadow is checksum-verified and copied onto its home, then a `CLEAN`
    /// header is written).  Running recovery twice is idempotent: the second
    /// run finds the `CLEAN` header the first one wrote.  Manifests stored
    /// at the recovered checkpoint are available through
    /// [`manifest`](Self::manifest).
    ///
    /// Cost: two anchor reads, the newest anchor's overflow, each chained
    /// header since it with its overflow, one read that ends the walk, and,
    /// after a crash between commit and clean, the apply and one header.
    pub fn recover(inner: SharedDevice, headers: [BlockId; 2]) -> Result<Arc<Journal>> {
        let j = Self::bare(inner, headers)?;
        let slots = [j.read_header(headers[0])?, j.read_header(headers[1])?];
        let Some((newest, anchor)) = slots
            .into_iter()
            .enumerate()
            .filter_map(|(slot, h)| Some((slot, h?)))
            .max_by_key(|(_, h)| h.seq)
        else {
            return Err(corrupt("no valid anchor — not a formatted journal"));
        };
        let mut st = j.state.lock();
        st.newest = newest;
        let (mut entries, overflow) = j.read_record(&anchor, &mut st.manifests)?;
        st.chain = overflow;
        let (mut last, mut anchored) = (anchor, true);
        while let Some(h) = j.read_header(last.next)?.filter(|h| h.seq == last.seq + 1) {
            let (e, overflow) = j.read_record(&h, &mut st.manifests)?;
            st.chained += 1 + overflow.len();
            st.chain.push(last.next);
            st.chain.extend(overflow);
            (entries, last, anchored) = (e, h, false);
        }
        (st.seq, st.next) = (last.seq, last.next);
        st.mark_persisted();
        if last.state == STATE_COMMITTED {
            // Redo the interrupted apply, verifying every shadow payload.
            let mut buf = vec![0u8; j.inner.block_size()];
            for &(home, shadow, checksum) in &entries {
                j.inner.read_block(shadow, &mut buf)?;
                j.apply_reads.fetch_add(1, Ordering::Relaxed);
                if fnv1a(&buf) != checksum {
                    return Err(corrupt("committed shadow block fails its checksum"));
                }
                j.inner.write_block(home, &buf)?;
                j.apply_writes.fetch_add(1, Ordering::Relaxed);
            }
            if anchored {
                j.put_anchor(&mut st, STATE_CLEAN, last.overflow, last.next, &last.inline)?;
            } else {
                j.write_chained(&mut st, STATE_CLEAN, &[])?;
            }
        }
        drop(st);
        Ok(Arc::new(j))
    }

    /// The two anchor slot ids — always `Some`; the `Option` dates from a
    /// journal that could be switched off.  Keep these: they are what
    /// [`recover`](Self::recover) needs after a crash.
    pub fn header_blocks(&self) -> Option<[BlockId; 2]> {
        Some(self.headers)
    }

    /// The wrapped device.
    pub fn inner(&self) -> &SharedDevice {
        &self.inner
    }

    /// Store a named recovery manifest — an opaque byte string (a tree's
    /// root and height, a writer's run directory, …) persisted with the
    /// *next* [`checkpoint`](Self::checkpoint) and returned by
    /// [`manifest`](Self::manifest) after recovery.  Setting the bytes it
    /// already holds changes nothing, and a chained header omits it.
    pub fn set_manifest(&self, name: &str, bytes: Vec<u8>) {
        let mut st = self.state.lock();
        let m = st.manifests.entry(name.to_string()).or_default();
        if m.bytes != bytes {
            m.bytes = bytes;
            m.persisted = None;
        }
    }

    /// Append `bytes` to a named manifest, creating it empty first.  A
    /// chained header persists only the bytes appended since the last
    /// checkpoint, so a log kept in a manifest costs a checkpoint its new
    /// records, not the whole log.
    pub fn append_manifest(&self, name: &str, bytes: &[u8]) {
        let mut st = self.state.lock();
        let m = st.manifests.entry(name.to_string()).or_default();
        m.bytes.extend_from_slice(bytes);
    }

    /// The current value of a named manifest (after recovery: the value at
    /// the recovered checkpoint).
    pub fn manifest(&self, name: &str) -> Option<Vec<u8>> {
        self.state
            .lock()
            .manifests
            .get(name)
            .map(|m| m.bytes.clone())
    }

    /// Exact journaling overhead so far; see [`WalOverhead`].
    pub fn overhead(&self) -> WalOverhead {
        WalOverhead {
            shadow_writes: self.shadow_writes.load(Ordering::Relaxed),
            chain_writes: self.chain_writes.load(Ordering::Relaxed),
            chain_reads: self.chain_reads.load(Ordering::Relaxed),
            header_writes: self.header_writes.load(Ordering::Relaxed),
            header_reads: self.header_reads.load(Ordering::Relaxed),
            apply_reads: self.apply_reads.load(Ordering::Relaxed),
            apply_writes: self.apply_writes.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
        }
    }

    /// Commit the current epoch; see the `wal` module docs for the five
    /// steps and the anchor rule.  After `Ok(())` every write since the
    /// previous checkpoint has reached its home block and the deferred frees
    /// have executed.
    ///
    /// The caller must have completed (waited on) its own submitted writes
    /// first — a buffer pool flush, a stream writer finish.  As a safety
    /// net, the wrapped device's [`barrier`](BlockDevice::barrier) runs
    /// first, so a lost write-behind fails the checkpoint instead of being
    /// committed around.
    pub fn checkpoint(&self) -> Result<()> {
        self.inner.barrier()?;
        let mut st = self.state.lock();
        let entries: Vec<Entry> = st
            .pending
            .iter()
            .map(|(&home, e)| (home, e.shadow, e.checksum))
            .collect();
        let state = if entries.is_empty() {
            STATE_CLEAN
        } else {
            STATE_COMMITTED
        };
        // The anchor rule (module docs).
        let full_len = st.full_len(entries.len());
        let delta = build_record(&entries, st.changes());
        let anchor = full_len <= self.inner.block_size() - HEADER_BYTES
            || st.chained + self.blocks(delta.len()) + usize::from(!entries.is_empty())
                > 2 * self.blocks(full_len);
        let (record, retired) = if anchor {
            let full = build_record(&entries, st.everything());
            let retired = self.write_anchor(&mut st, state, &full)?;
            (full, retired)
        } else {
            self.write_chained(&mut st, state, &delta)?;
            (delta, Vec::new())
        };
        st.mark_persisted();
        if !entries.is_empty() {
            // Apply shadows onto homes.
            let mut buf = vec![0u8; self.inner.block_size()];
            for &(home, shadow, _) in &entries {
                self.inner.read_block(shadow, &mut buf)?;
                self.apply_reads.fetch_add(1, Ordering::Relaxed);
                self.inner.write_block(home, &buf)?;
                self.apply_writes.fetch_add(1, Ordering::Relaxed);
            }
            if anchor {
                // The same record, clean, in the other slot.
                let (overflow, next) = (st.chain.first().copied().unwrap_or(NONE), st.next);
                self.put_anchor(&mut st, STATE_CLEAN, overflow, next, self.split(&record).0)?;
            } else {
                self.write_chained(&mut st, STATE_CLEAN, &[])?;
            }
        }
        // Retire: the epoch is durable, nothing can rewind past it anymore.
        let deferred = std::mem::take(&mut st.deferred_frees);
        let shadows = entries.iter().map(|&(_, shadow, _)| shadow);
        for id in retired.into_iter().chain(shadows).chain(deferred) {
            self.inner.free(id)?;
        }
        st.pending.clear();
        st.fresh.clear();
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Blocks a header carrying a `len`-byte record takes: itself and its
    /// overflow.
    fn blocks(&self, len: usize) -> usize {
        let bs = self.inner.block_size();
        1 + len
            .saturating_sub(bs - HEADER_BYTES)
            .div_ceil(bs - CHAIN_OVERHEAD)
    }

    /// Write `record` as the next anchor, pre-allocating the block the next
    /// chained header goes to.  Returns the chain it replaces, which the
    /// caller frees once the checkpoint is finished.
    fn write_anchor(&self, st: &mut WalState, state: u64, record: &[u8]) -> Result<Vec<BlockId>> {
        let (inline, rest) = self.split(record);
        let overflow = self.write_overflow(rest)?;
        let next = self.inner.allocate()?;
        let head = overflow.first().copied().unwrap_or(NONE);
        self.put_anchor(st, state, head, next, inline)?;
        let mut retired = std::mem::replace(&mut st.chain, overflow);
        retired.push(std::mem::replace(&mut st.next, next));
        st.chained = 0;
        Ok(retired)
    }

    /// Write `record` as a chained header into the block the newest header
    /// names, pre-allocating the one after it.
    fn write_chained(&self, st: &mut WalState, state: u64, record: &[u8]) -> Result<()> {
        let (inline, rest) = self.split(record);
        let overflow = self.write_overflow(rest)?;
        let next = self.inner.allocate()?;
        let (at, head) = (st.next, overflow.first().copied().unwrap_or(NONE));
        self.put_header(st, at, state, head, next, inline)?;
        st.chained += 1 + overflow.len();
        st.chain.push(at);
        st.chain.extend(overflow);
        st.next = next;
        Ok(())
    }

    /// A record's inline head and the rest, which overflows.
    fn split<'a>(&self, record: &'a [u8]) -> (&'a [u8], &'a [u8]) {
        record.split_at(record.len().min(self.inner.block_size() - HEADER_BYTES))
    }

    /// Write the next header into the anchor slot that does not hold the
    /// newest anchor, and make that slot the newest once it has landed.
    fn put_anchor(
        &self,
        st: &mut WalState,
        state: u64,
        overflow: u64,
        next: BlockId,
        inline: &[u8],
    ) -> Result<()> {
        let slot = 1 - st.newest;
        self.put_header(st, self.headers[slot], state, overflow, next, inline)?;
        st.newest = slot;
        Ok(())
    }

    /// Write the next header — sequence `st.seq + 1` — into block `at`, and
    /// make it the newest once it has landed.  `inline` is the record's head
    /// (at most `B − 56` bytes).
    fn put_header(
        &self,
        st: &mut WalState,
        at: BlockId,
        state: u64,
        overflow: u64,
        next: BlockId,
        inline: &[u8],
    ) -> Result<()> {
        let seq = st.seq + 1;
        let mut buf = vec![0u8; self.inner.block_size()];
        let fields = [MAGIC, seq, state, overflow, next, inline.len() as u64];
        for (word, v) in buf.chunks_exact_mut(8).zip(fields) {
            word.copy_from_slice(&v.to_le_bytes());
        }
        let end = HEADER_BYTES + inline.len();
        buf[HEADER_BYTES..end].copy_from_slice(inline);
        let sum = self.header_sum(&buf[..end]);
        buf[SUM_AT..HEADER_BYTES].copy_from_slice(&sum.to_le_bytes());
        self.inner.write_block(at, &buf)?;
        self.header_writes.fetch_add(1, Ordering::Relaxed);
        st.seq = seq;
        Ok(())
    }

    /// The checksum of a header with its checksum field zeroed, keyed to
    /// this journal's anchor slots: a header another journal wrote fails it.
    fn header_sum(&self, header: &[u8]) -> u64 {
        fnv1a_words(&[self.headers[0], self.headers[1], fnv1a(header)])
    }

    /// Read one header block; `None` if it does not verify as a header of
    /// this journal (zeroed, torn, damaged inline bytes, foreign bytes, or
    /// another journal's header).
    fn read_header(&self, id: BlockId) -> Result<Option<Header>> {
        let mut buf = vec![0u8; self.inner.block_size()];
        self.inner.read_block(id, &mut buf)?;
        self.header_reads.fetch_add(1, Ordering::Relaxed);
        let mut pos = 0usize;
        let magic = get_u64(&buf, &mut pos)?;
        let seq = get_u64(&buf, &mut pos)?;
        let state = get_u64(&buf, &mut pos)?;
        let overflow = get_u64(&buf, &mut pos)?;
        let next = get_u64(&buf, &mut pos)?;
        let inline_len = get_u64(&buf, &mut pos)?;
        let sum = get_u64(&buf, &mut pos)?;
        let Some(end) = usize::try_from(inline_len)
            .ok()
            .and_then(|n| n.checked_add(HEADER_BYTES))
            .filter(|&end| end <= buf.len())
        else {
            return Ok(None);
        };
        buf[SUM_AT..HEADER_BYTES].fill(0);
        if magic != MAGIC || self.header_sum(&buf[..end]) != sum {
            return Ok(None);
        }
        Ok(Some(Header {
            seq,
            state,
            overflow,
            next,
            inline: buf[HEADER_BYTES..end].to_vec(),
        }))
    }

    /// Write what of a record overflows its header into freshly allocated
    /// blocks, back-to-front so each block's `next` pointer is final.
    /// Returns the blocks head-first; no overflow writes no blocks.
    fn write_overflow(&self, overflow: &[u8]) -> Result<Vec<BlockId>> {
        let bs = self.inner.block_size();
        let chunks: Vec<&[u8]> = overflow.chunks(bs - CHAIN_OVERHEAD).collect();
        let ids: Vec<BlockId> = (0..chunks.len())
            .map(|_| self.inner.allocate())
            .collect::<Result<_>>()?;
        for (i, chunk) in chunks.iter().enumerate().rev() {
            let next = ids.get(i + 1).copied().unwrap_or(NONE);
            let mut buf = vec![0u8; bs];
            buf[..8].copy_from_slice(&next.to_le_bytes());
            buf[8..16].copy_from_slice(&(chunk.len() as u64).to_le_bytes());
            buf[16..16 + chunk.len()].copy_from_slice(chunk);
            self.inner.write_block(ids[i], &buf)?;
            self.chain_writes.fetch_add(1, Ordering::Relaxed);
        }
        Ok(ids)
    }

    /// Read the record header `h` carries — its inline head, then its
    /// overflow — and apply its manifest changes to `manifests`.  Returns
    /// its redo entries and its overflow block ids.
    fn read_record(
        &self,
        h: &Header,
        manifests: &mut BTreeMap<String, Manifest>,
    ) -> Result<(Vec<Entry>, Vec<BlockId>)> {
        let mut bytes = h.inline.clone();
        let mut ids = Vec::new();
        let mut buf = vec![0u8; self.inner.block_size()];
        let mut next = h.overflow;
        while next != NONE {
            if ids.len() > 1 << 24 {
                return Err(corrupt("overflow does not terminate"));
            }
            ids.push(next);
            self.inner.read_block(next, &mut buf)?;
            self.chain_reads.fetch_add(1, Ordering::Relaxed);
            let mut pos = 0;
            next = get_u64(&buf, &mut pos)?;
            let len = get_u64(&buf, &mut pos)?;
            let chunk = usize::try_from(len)
                .ok()
                .and_then(|len| buf.get(CHAIN_OVERHEAD..CHAIN_OVERHEAD.checked_add(len)?))
                .ok_or_else(|| corrupt("overflow chunk length out of range"))?;
            bytes.extend_from_slice(chunk);
        }
        Ok((parse_record(&bytes, manifests)?, ids))
    }
}

/// Serialize redo entries and manifest changes, with a trailing checksum;
/// nothing to say is the empty record.
fn build_record(entries: &[Entry], changes: Vec<Change<'_>>) -> Vec<u8> {
    if entries.is_empty() && changes.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    put_u64(&mut out, entries.len() as u64);
    for &(home, shadow, checksum) in entries {
        put_u64(&mut out, home);
        put_u64(&mut out, shadow);
        put_u64(&mut out, checksum);
    }
    put_u64(&mut out, changes.len() as u64);
    for (kind, name, data) in changes {
        put_u64(&mut out, kind);
        put_u64(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
        put_u64(&mut out, data.len() as u64);
        out.extend_from_slice(data);
    }
    let sum = fnv1a(&out);
    put_u64(&mut out, sum);
    out
}

/// Parse a record, apply its manifest changes to `manifests`, and return
/// its redo entries.  A record that fails its checksum or does not parse is
/// [`PdmError::Corrupt`].
fn parse_record(bytes: &[u8], manifests: &mut BTreeMap<String, Manifest>) -> Result<Vec<Entry>> {
    if bytes.is_empty() {
        return Ok(Vec::new());
    }
    let mut pos = bytes
        .len()
        .checked_sub(8)
        .ok_or_else(|| corrupt("record shorter than its checksum"))?;
    let body = &bytes[..pos];
    if fnv1a(body) != get_u64(bytes, &mut pos)? {
        return Err(corrupt("record fails its checksum"));
    }
    let mut pos = 0usize;
    let n_entries = get_u64(body, &mut pos)?;
    let mut entries = Vec::new();
    for _ in 0..n_entries {
        let home = get_u64(body, &mut pos)?;
        let shadow = get_u64(body, &mut pos)?;
        entries.push((home, shadow, get_u64(body, &mut pos)?));
    }
    for _ in 0..get_u64(body, &mut pos)? {
        let kind = get_u64(body, &mut pos)?;
        let name = String::from_utf8(get_bytes(body, &mut pos)?.to_vec())
            .map_err(|_| corrupt("manifest name is not UTF-8"))?;
        let data = get_bytes(body, &mut pos)?;
        let m = manifests.entry(name).or_default();
        match kind {
            SET => m.bytes = data.to_vec(),
            APPEND => m.bytes.extend_from_slice(data),
            _ => return Err(corrupt("unknown manifest change")),
        }
    }
    Ok(entries)
}

impl BlockDevice for Journal {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn allocated_blocks(&self) -> u64 {
        self.inner.allocated_blocks()
    }

    fn allocate(&self) -> Result<BlockId> {
        let id = self.inner.allocate()?;
        self.state.lock().fresh.insert(id);
        Ok(id)
    }

    fn free(&self, id: BlockId) -> Result<()> {
        let mut st = self.state.lock();
        if st.fresh.remove(&id) {
            // Born and freed inside one epoch: no checkpoint ever saw it.
            return self.inner.free(id);
        }
        if let Some(entry) = st.pending.remove(&id) {
            // The shadow was never committed; nobody can reach it anymore.
            self.inner.free(entry.shadow)?;
        }
        // The home block is part of the state a rewind restores: keep it
        // until the next checkpoint commits.
        st.deferred_frees.push(id);
        Ok(())
    }

    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<()> {
        self.inner.read_block(self.read_target(id), buf)
    }

    fn write_block(&self, id: BlockId, buf: &[u8]) -> Result<()> {
        let target = self.redirect_write(id, buf)?;
        self.inner.write_block(target, buf)
    }

    fn stats(&self) -> Arc<IoStats> {
        self.inner.stats()
    }

    fn lane_of(&self, id: BlockId) -> Option<usize> {
        // Reported for the *home* block; a pending block's transfers land on
        // its shadow's lane until the checkpoint applies it.
        self.inner.lane_of(id)
    }

    fn stream_lanes(&self) -> usize {
        self.inner.stream_lanes()
    }

    fn direct_next_stream(&self, stream: usize) {
        self.inner.direct_next_stream(stream)
    }

    fn submit_read(&self, id: BlockId, buf: Box<[u8]>) -> IoTicket {
        self.inner.submit_read(self.read_target(id), buf)
    }

    fn submit_write(&self, id: BlockId, buf: Box<[u8]>) -> IoTicket {
        match self.redirect_write(id, &buf) {
            Ok(target) => self.inner.submit_write(target, buf),
            Err(e) => IoTicket::ready(buf, Err(e)),
        }
    }

    fn barrier(&self) -> Result<()> {
        self.inner.barrier()
    }
}

impl Journal {
    /// Where `id`'s current contents live: its shadow while a write to it is
    /// pending, else the block itself.
    fn read_target(&self, id: BlockId) -> BlockId {
        self.state.lock().pending.get(&id).map_or(id, |e| e.shadow)
    }

    /// Where a write to `id` must land.  A block born this epoch is its own
    /// target; a committed home gets (or keeps) its shadow, whose payload
    /// checksum is updated.
    fn redirect_write(&self, id: BlockId, buf: &[u8]) -> Result<BlockId> {
        let mut st = self.state.lock();
        if st.fresh.contains(&id) {
            return Ok(id);
        }
        let shadow = match st.pending.get_mut(&id) {
            Some(entry) => {
                entry.checksum = fnv1a(buf);
                entry.shadow
            }
            None => {
                let shadow = self.inner.allocate()?;
                st.pending.insert(
                    id,
                    PendingEntry {
                        shadow,
                        checksum: fnv1a(buf),
                    },
                );
                shadow
            }
        };
        self.shadow_writes.fetch_add(1, Ordering::Relaxed);
        Ok(shadow)
    }
}

#[cfg(test)]
impl Journal {
    /// Number of home blocks with uncommitted redirected writes.
    fn pending_blocks(&self) -> usize {
        self.state.lock().pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{CrashSwitch, FaultDisk, FaultPlan};
    use crate::ram_disk::RamDisk;

    const BS: usize = 64;

    fn block(fill: u8) -> Vec<u8> {
        vec![fill; BS]
    }

    /// A journal with `n` zeroed blocks the last checkpoint committed.
    fn with_committed(n: usize) -> (Arc<RamDisk>, Arc<Journal>, Vec<BlockId>) {
        let ram = RamDisk::new(BS);
        let j = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
        let ids = (0..n).map(|_| j.allocate().unwrap()).collect();
        j.checkpoint().unwrap();
        (ram, j, ids)
    }

    #[test]
    fn epoch_writes_are_redirected_and_cost_one_transfer_each() {
        let (ram, j, ids) = with_committed(1);
        let id = ids[0];
        let before = j.stats().snapshot();
        j.write_block(id, &block(1)).unwrap();
        j.write_block(id, &block(2)).unwrap();
        let mut out = block(0);
        j.read_block(id, &mut out).unwrap();
        assert_eq!(out, block(2), "reads see the redirected payload");
        let delta = j.stats().snapshot().since(&before);
        assert_eq!(delta.writes(), 2, "same write count as a bare device");
        assert_eq!(delta.reads(), 1);
        // The home block itself still holds the pre-epoch bytes (zeroes).
        let mut home = block(0xFF);
        ram.read_block(id, &mut home).unwrap();
        assert_eq!(home, block(0), "home untouched before checkpoint");
        assert_eq!(j.pending_blocks(), 1);
        assert_eq!(j.overhead().shadow_writes, 2);
    }

    #[test]
    fn checkpoint_applies_with_exact_overhead() {
        let (ram, j, ids) = with_committed(2);
        let (a, b) = (ids[0], ids[1]);
        j.write_block(a, &block(0xAA)).unwrap();
        j.write_block(b, &block(0xBB)).unwrap();
        let before = j.overhead();
        j.checkpoint().unwrap();
        let d = j.overhead();
        assert_eq!(d.checkpoints - before.checkpoints, 1);
        assert_eq!(d.header_writes - before.header_writes, 2);
        assert_eq!(d.apply_reads - before.apply_reads, 2);
        assert_eq!(d.apply_writes - before.apply_writes, 2);
        // Record: 8 + 2*24 + 8 + 8 = 72 bytes, 8 inline and 64 over
        // 48-byte chunks = 2 blocks.
        assert_eq!(d.chain_writes - before.chain_writes, 2);
        // Homes now hold the payloads.
        let mut out = block(0);
        ram.read_block(a, &mut out).unwrap();
        assert_eq!(out, block(0xAA));
        ram.read_block(b, &mut out).unwrap();
        assert_eq!(out, block(0xBB));
        assert_eq!(j.pending_blocks(), 0);
    }

    #[test]
    fn born_this_epoch_blocks_skip_shadow_chain_and_apply() {
        let ram = RamDisk::new(BS);
        let j = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
        let before = j.overhead();
        let allocated = ram.allocated_blocks();
        let (a, b, c) = (
            j.allocate().unwrap(),
            j.allocate().unwrap(),
            j.allocate().unwrap(),
        );
        j.write_block(a, &block(0xAA)).unwrap();
        j.write_block(a, &block(0xAB)).unwrap();
        j.submit_write(b, block(0xBB).into_boxed_slice())
            .wait()
            .1
            .unwrap();
        j.write_block(c, &block(0xCC)).unwrap();
        // Straight home: the medium already holds the bytes, nothing pends.
        let mut out = block(0);
        ram.read_block(a, &mut out).unwrap();
        assert_eq!(out, block(0xAB));
        assert_eq!(j.pending_blocks(), 0);
        assert_eq!(ram.allocated_blocks(), allocated + 3, "no shadow blocks");
        // Freed at once, not at the checkpoint.
        j.free(c).unwrap();
        assert_eq!(ram.allocated_blocks(), allocated + 2);
        j.checkpoint().unwrap();
        let d = j.overhead();
        assert_eq!(d.shadow_writes, before.shadow_writes);
        assert_eq!(d.apply_reads + d.apply_writes, 0);
        assert_eq!(d.chain_writes, before.chain_writes, "empty redo record");
        assert_eq!(
            d.header_writes - before.header_writes,
            1,
            "nothing to clean"
        );
        // The checkpoint made them committed homes: the next write shadows.
        j.write_block(a, &block(0xA0)).unwrap();
        assert_eq!(j.pending_blocks(), 1);
        ram.read_block(a, &mut out).unwrap();
        assert_eq!(out, block(0xAB), "home untouched before checkpoint");
        j.read_block(b, &mut out).unwrap();
        assert_eq!(out, block(0xBB));
    }

    #[test]
    fn shadows_and_retired_chains_are_reclaimed() {
        let ram = RamDisk::new(BS);
        let j = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
        let id = j.allocate().unwrap();
        for round in 0..5u8 {
            j.write_block(id, &block(round)).unwrap();
            j.checkpoint().unwrap();
        }
        // 2 anchor slots + 1 home + the pre-allocated block + the current
        // chain; everything else was retired.
        let chain_now = j.state.lock().chain.len() as u64;
        assert_eq!(ram.allocated_blocks(), 4 + chain_now);
    }

    #[test]
    fn free_is_deferred_until_checkpoint() {
        let ram = RamDisk::new(BS);
        let j = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
        let id = j.allocate().unwrap();
        j.write_block(id, &block(9)).unwrap();
        j.checkpoint().unwrap();
        let allocated = ram.allocated_blocks();
        j.free(id).unwrap();
        assert_eq!(
            ram.allocated_blocks(),
            allocated,
            "freed home survives until commit"
        );
        j.checkpoint().unwrap();
        assert!(ram.allocated_blocks() < allocated);
    }

    #[test]
    fn manifest_round_trips_through_recovery() {
        let ram = RamDisk::new(BS);
        let j = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
        let headers = j.header_blocks().unwrap();
        j.set_manifest("tree", vec![1, 2, 3]);
        j.set_manifest("writer", b"runs=4".to_vec());
        j.checkpoint().unwrap();
        // Mutate the manifest after the checkpoint; a rewind must restore
        // the committed value.
        j.set_manifest("tree", vec![9, 9, 9]);
        drop(j);
        let r = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
        assert_eq!(r.manifest("tree").unwrap(), vec![1, 2, 3]);
        assert_eq!(r.manifest("writer").unwrap(), b"runs=4".to_vec());
        assert_eq!(r.manifest("absent"), None);
    }

    #[test]
    fn rewind_discards_uncommitted_epoch() {
        let ram = RamDisk::new(BS);
        let j = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
        let headers = j.header_blocks().unwrap();
        let id = j.allocate().unwrap();
        j.write_block(id, &block(1)).unwrap();
        j.checkpoint().unwrap();
        // Uncommitted epoch: a rewrite and a free.
        j.write_block(id, &block(2)).unwrap();
        j.free(id).unwrap();
        drop(j);
        let r = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
        let mut out = block(0);
        r.read_block(id, &mut out).unwrap();
        assert_eq!(out, block(1), "rewound to the committed payload");
    }

    /// Manifests that make the full record exactly `len` bytes next to
    /// `entries` redo entries (`len == 0`: no manifest at all).
    fn manifests_of_record(len: usize, entries: usize) -> BTreeMap<String, Vec<u8>> {
        let mut manifests = BTreeMap::new();
        if len > 0 {
            // Entry count, entries, change count, kind, name length, "m",
            // data length, checksum.
            let fixed = 8 + 24 * entries + 8 + 8 + 8 + 1 + 8 + 8;
            manifests.insert("m".to_string(), vec![0x5A; len - fixed]);
        }
        let dummy: Vec<_> = (0..entries as u64).map(|i| (i, i, i)).collect();
        let changes = manifests
            .iter()
            .map(|(name, data)| (SET, name.as_str(), data.as_slice()))
            .collect();
        assert_eq!(build_record(&dummy, changes).len(), len);
        manifests
    }

    #[test]
    fn record_fills_the_header_before_it_spills_into_the_chain() {
        const B: usize = 256;
        let (inline, chunk) = (B - HEADER_BYTES, B - CHAIN_OVERHEAD);
        for (len, chain_blocks) in [
            (0, 0),
            (inline, 0),
            (inline + 1, 1),
            (inline + chunk + 1, 2),
        ] {
            let ram = RamDisk::new(B);
            let j = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
            let headers = j.header_blocks().unwrap();
            let home = j.allocate().unwrap();
            // An entry-free checkpoint (`home` is born in it), then — where
            // the record has room for a redo entry — one that applies a
            // rewrite of `home`.
            let pendings: &[u64] = if len == 0 { &[0] } else { &[0, 1] };
            for &pending in pendings {
                let manifests = manifests_of_record(len, pending as usize);
                for (name, data) in &manifests {
                    j.set_manifest(name, data.clone());
                }
                assert_eq!(j.state.lock().full_len(pending as usize), len);
                j.write_block(home, &vec![pending as u8; B]).unwrap();
                let before = j.overhead();
                j.checkpoint().unwrap();
                let d = j.overhead();
                let what = format!("{len}-byte record, {pending} redo entries");
                assert_eq!(d.chain_writes - before.chain_writes, chain_blocks, "{what}");
                assert_eq!(
                    d.header_writes - before.header_writes,
                    1 + pending,
                    "{what}"
                );
                assert_eq!(d.apply_writes - before.apply_writes, pending, "{what}");
                let r = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
                assert_eq!(r.manifest("m"), manifests.get("m").cloned(), "{what}");
                assert_eq!(r.overhead().chain_reads, chain_blocks, "{what}");
                let mut out = vec![0u8; B];
                r.read_block(home, &mut out).unwrap();
                assert_eq!(out, vec![pending as u8; B], "{what}");
            }
        }
    }

    /// A medium where checkpoint 1 (manifest `m` = `old`: a chained header
    /// with two overflow blocks) completed and checkpoint 2 (`m` = `new`,
    /// one redo entry: an anchor, since the chain would pass twice one)
    /// crashed right after its `COMMITTED` anchor landed — before the apply,
    /// so checkpoint 1's chain is still allocated.  Returns the surviving
    /// medium, the anchor slots and the rewritten block.
    fn crashed_after_commit(old: &[u8], new: &[u8]) -> (Arc<RamDisk>, [BlockId; 2], BlockId) {
        let run = |crash_after: u64| {
            let ram = RamDisk::new(BS);
            let plan = FaultPlan::new(0).with_crash(CrashSwitch::after(crash_after));
            let dev = FaultDisk::wrap(Arc::clone(&ram) as SharedDevice, plan);
            let j = Journal::format(dev as SharedDevice).unwrap();
            let id = j.allocate().unwrap();
            let script = || -> Result<()> {
                j.write_block(id, &block(1))?;
                j.set_manifest("m", old.to_vec());
                j.checkpoint()?;
                j.write_block(id, &block(2))?;
                j.set_manifest("m", new.to_vec());
                j.checkpoint()
            };
            let crashed = script().is_err();
            (ram, j.header_blocks().unwrap(), id, crashed)
        };
        let (clean, ..) = run(u64::MAX);
        // Checkpoint 2 ends with apply read, apply write, clean header.
        let (ram, headers, id, crashed) = run(clean.stats().snapshot().total() - 3);
        assert!(crashed);
        (ram, headers, id)
    }

    #[test]
    fn a_header_with_a_damaged_tail_falls_back_to_the_previous_checkpoint() {
        let (old, new) = (b"old-root".to_vec(), b"new-root".to_vec());
        // Intact, the newest header is the commit, and recovery redoes it.
        let (ram, headers, id) = crashed_after_commit(&old, &new);
        let r = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
        assert_eq!(r.manifest("m"), Some(new.clone()));
        assert_eq!(r.overhead().apply_writes, 1);
        let mut out = block(0);
        r.read_block(id, &mut out).unwrap();
        assert_eq!(out, block(2));

        // Format's anchor is in slot 0, checkpoint 1 is chained, checkpoint
        // 2's commit is the anchor in slot 1.  Damage only its inline bytes;
        // the fixed 56 stay intact.
        let (ram, headers, id) = crashed_after_commit(&old, &new);
        let mut header = block(0);
        ram.read_block(headers[1], &mut header).unwrap();
        assert_eq!(header[16..24], STATE_COMMITTED.to_le_bytes(), "state field");
        header[HEADER_BYTES..].fill(0xEE);
        ram.write_block(headers[1], &header).unwrap();
        let r = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
        assert_eq!(r.manifest("m"), Some(old), "rewound to checkpoint 1");
        // Checkpoint 1's two overflow blocks read back, nothing redone.
        let wal = r.overhead();
        assert_eq!((wal.chain_reads, wal.apply_writes), (2, 0), "{wal:?}");
        r.read_block(id, &mut out).unwrap();
        assert_eq!(out, block(1));
    }

    #[test]
    fn format_rejects_a_block_smaller_than_the_header() {
        let ram = RamDisk::new(HEADER_BYTES - 1);
        let Err(err) = Journal::format(Arc::clone(&ram) as SharedDevice) else {
            panic!("a {}-byte block cannot hold a header", HEADER_BYTES - 1);
        };
        assert!(
            matches!(err, PdmError::RecordTooLarge { record: HEADER_BYTES, block } if block == HEADER_BYTES - 1),
            "{err}"
        );
        assert_eq!(ram.allocated_blocks(), 0, "nothing allocated");
        // The smallest block accepted: no inline room, the record overflows.
        let ram = RamDisk::new(HEADER_BYTES);
        let j = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
        let headers = j.header_blocks().unwrap();
        j.set_manifest("m", vec![7; 40]);
        j.checkpoint().unwrap();
        let r = Journal::recover(ram as SharedDevice, headers).unwrap();
        assert_eq!(r.manifest("m"), Some(vec![7; 40]));
    }

    /// Run a scripted workload through a journal on a crashing device,
    /// recover on the surviving RAM disk, and return the recovered payloads
    /// of the two data blocks.
    fn crash_at(k: u64) -> (Vec<u8>, Vec<u8>, bool) {
        let stats = IoStats::new(1, BS);
        let ram = Arc::new(RamDisk::with_stats(BS, Arc::clone(&stats), 0));
        // First boot happens on the pristine medium: format the journal and
        // allocate the two data blocks, then let the crashing device take
        // over.  The anchor slots land on ids 0 and 1, the pre-allocated
        // block on 2, the data blocks on 3 and 4.
        let j0 = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
        let headers = j0.header_blocks().unwrap();
        let ids = [j0.allocate().unwrap(), j0.allocate().unwrap()];
        drop(j0);
        let switch = CrashSwitch::after(k);
        let faulty = FaultDisk::wrap(
            Arc::clone(&ram) as SharedDevice,
            FaultPlan::new(0).with_crash(switch),
        );
        let script = |j: &Journal| -> Result<()> {
            j.write_block(ids[0], &block(1))?;
            j.write_block(ids[1], &block(2))?;
            j.checkpoint()?;
            j.write_block(ids[0], &block(3))?;
            j.write_block(ids[1], &block(4))?;
            j.checkpoint()?;
            Ok(())
        };
        let crashed = match Journal::recover(faulty as SharedDevice, headers) {
            Ok(j) => script(&j).is_err(),
            Err(_) => true, // crashed reading the headers at boot
        };
        let r = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
        let mut a_out = block(0);
        let mut b_out = block(0);
        r.read_block(ids[0], &mut a_out).unwrap();
        r.read_block(ids[1], &mut b_out).unwrap();
        // A second recovery must land in the identical state.
        drop(r);
        let r2 = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
        let mut a2 = block(0);
        r2.read_block(ids[0], &mut a2).unwrap();
        assert_eq!(a2, a_out, "second recovery is idempotent");
        (a_out, b_out, crashed)
    }

    #[test]
    fn every_crash_point_recovers_to_a_checkpoint() {
        // Establish the fault-free transfer count, then crash at every k.
        let (a, b, crashed) = crash_at(u64::MAX / 2);
        assert!(!crashed);
        assert_eq!((a, b), (block(3), block(4)));
        let mut seen_old = false;
        let mut seen_new = false;
        for k in 0..64 {
            let (a, b, crashed) = crash_at(k);
            let state = (a, b);
            if !crashed {
                assert_eq!(state, (block(3), block(4)));
                continue;
            }
            // Every crash lands on exactly one checkpoint: the initial
            // (zeroed) state, the first commit, or the second.
            let zeroed = (block(0), block(0));
            let first = (block(1), block(2));
            let second = (block(3), block(4));
            assert!(
                state == zeroed || state == first || state == second,
                "crash at {k} exposed a mixed state"
            );
            seen_old |= state == first;
            seen_new |= state == second;
        }
        assert!(seen_old, "some crash point rewound to checkpoint 1");
        assert!(seen_new, "some crash point redid checkpoint 2");
    }

    /// Block size of the chained-header tests: 200 inline bytes a header,
    /// 240 payload bytes an overflow block.
    const B: usize = 256;

    /// Recover `ram` with `j`'s anchor slots; returns the journal and its
    /// `(header reads, overflow reads)`.
    fn reboot(ram: &Arc<RamDisk>, j: &Journal) -> (Arc<Journal>, (u64, u64)) {
        let r =
            Journal::recover(Arc::clone(ram) as SharedDevice, j.header_blocks().unwrap()).unwrap();
        let wal = r.overhead();
        (r, (wal.header_reads, wal.chain_reads))
    }

    #[test]
    fn a_chained_header_costs_the_bytes_it_changes_not_the_full_record() {
        let (room, chunk) = (B - HEADER_BYTES, B - CHAIN_OVERHEAD);
        let mut pinned = Vec::new();
        for n in [149usize, 150, 389, 390, 630] {
            let ram = RamDisk::new(B);
            let j = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
            // A 2 000-byte manifest: an anchor of the full record would take
            // 9 blocks or more, so what follows chains.
            j.set_manifest("big", vec![1; 2_000]);
            j.set_manifest("log", Vec::new());
            j.checkpoint().unwrap();
            let first = j.overhead();
            assert_eq!((first.header_writes, first.chain_writes), (2, 8));
            j.append_manifest("log", &vec![2; n]);
            j.checkpoint().unwrap();
            let d = j.overhead();
            // δ: entry count, change count, kind, name length, "log", data
            // length, the appended bytes, checksum.  The 2 000 bytes that did
            // not change are not in it.
            let delta = 8 + 8 + 8 + 8 + 3 + 8 + n + 8;
            let overflow = delta.saturating_sub(room).div_ceil(chunk) as u64;
            assert_eq!(
                (
                    d.header_writes - first.header_writes,
                    d.chain_writes - first.chain_writes
                ),
                (1, overflow),
                "{n} bytes appended"
            );
            pinned.push(overflow);
            // Recovery reads both anchor slots, the two chained headers and
            // the block that ends the walk, and the overflow of both.
            let (r, reads) = reboot(&ram, &j);
            assert_eq!(reads, (2 + 2 + 1, 8 + overflow), "{n} bytes appended");
            assert_eq!(r.manifest("log"), Some(vec![2; n]));
            assert_eq!(r.manifest("big"), Some(vec![1; 2_000]));
        }
        assert_eq!(pinned, [0, 1, 1, 2, 3]);
    }

    #[test]
    fn a_manifest_replaced_every_checkpoint_forces_an_anchor_once_the_chain_reaches_twice_one() {
        let ram = RamDisk::new(B);
        let j = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
        // A 349-byte record: a header and one overflow block, anchor or
        // chained alike, so a chain of two headers is twice an anchor.
        for i in 1..=9u8 {
            j.set_manifest("m", vec![i; 300]);
            let before = j.overhead();
            j.checkpoint().unwrap();
            let d = j.overhead();
            assert_eq!(
                (
                    d.header_writes - before.header_writes,
                    d.chain_writes - before.chain_writes
                ),
                (1, 1),
                "checkpoint {i}"
            );
            // Chained, chained, anchor: recovery never walks past two.
            let chained = u64::from(i % 3);
            let anchor_overflow = u64::from(i >= 3);
            let (r, reads) = reboot(&ram, &j);
            assert_eq!(
                reads,
                (2 + chained + 1, anchor_overflow + chained),
                "checkpoint {i}"
            );
            assert_eq!(r.manifest("m"), Some(vec![i; 300]));
        }
        // Every retired chain was freed: the slots, the pre-allocated block
        // and the newest anchor's overflow block.
        assert_eq!(ram.allocated_blocks(), 4);
    }

    /// Epochs of [`appending_run`]: three cycles of six.
    const EPOCHS: u64 = 18;

    /// The appending journal's script on a device that dies after `kill`
    /// transfers: each epoch rewrites a committed home block, appends 40
    /// bytes to manifest `log` (reset to empty every sixth epoch, which is
    /// what a compaction does to a shard's log) and sets manifest `epoch`.
    /// Recovers the surviving medium twice, asserts both recoveries agree
    /// and land on exactly one checkpoint, and returns whether the run
    /// crashed, the last acked epoch and the chain's length in blocks after
    /// each epoch.
    fn appending_run(kill: u64) -> (bool, u64, Vec<usize>) {
        let ram = RamDisk::new(B);
        let j0 = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
        let headers = j0.header_blocks().unwrap();
        let home = j0.allocate().unwrap();
        j0.checkpoint().unwrap();
        drop(j0);
        let faulty = FaultDisk::wrap(
            Arc::clone(&ram) as SharedDevice,
            FaultPlan::new(0).with_crash(CrashSwitch::after(kill)),
        );
        let (mut acked, mut chained) = (0, Vec::new());
        let crashed = match Journal::recover(faulty as SharedDevice, headers) {
            Err(_) => true,
            Ok(j) => (|| -> Result<()> {
                for e in 1..=EPOCHS {
                    if (e - 1) % 6 == 0 {
                        j.set_manifest("log", Vec::new());
                    }
                    j.append_manifest("log", &[e as u8; 40]);
                    j.set_manifest("epoch", e.to_le_bytes().to_vec());
                    j.write_block(home, &[e as u8; B])?;
                    j.checkpoint()?;
                    acked = e;
                    chained.push(j.state.lock().chained);
                }
                Ok(())
            })()
            .is_err(),
        };
        let recovered = || {
            let r = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
            let mut out = vec![0u8; B];
            r.read_block(home, &mut out).unwrap();
            (r.manifest("epoch"), r.manifest("log"), out)
        };
        let state = recovered();
        assert_eq!(
            state,
            recovered(),
            "kill at {kill}: a second recovery moved"
        );
        let model = |e: u64| {
            let log = (e - (e.max(1) - 1) % 6..=e).flat_map(|x| [x as u8; 40]);
            (
                (e > 0).then(|| e.to_le_bytes().to_vec()),
                (e > 0).then(|| log.collect::<Vec<u8>>()),
                vec![e as u8; B],
            )
        };
        assert!(
            state == model(acked) || state == model(acked + 1),
            "kill at {kill}: recovered a state no checkpoint had (last acked {acked})"
        );
        (crashed, acked, chained)
    }

    #[test]
    fn every_kill_point_of_an_appending_journal_recovers_to_one_checkpoint() {
        let (crashed, acked, chained) = appending_run(u64::MAX);
        assert_eq!((crashed, acked), (false, EPOCHS));
        // Per cycle: two anchors while the full record fits, two chained
        // epochs (a header and a clean header each), an anchor forced when
        // the chain would pass twice the full record's two blocks, one more
        // chained epoch; then the reset anchors again.
        assert_eq!(chained, [0, 0, 2, 4, 0, 2].repeat(3));
        // Kill at every transfer until a run survives.
        let (mut kill, mut mid_run) = (0, 0);
        loop {
            let (crashed, acked, _) = appending_run(kill);
            if !crashed {
                break;
            }
            mid_run += u64::from(acked > 0);
            kill += 1;
        }
        assert!(
            kill >= 90 && mid_run >= 80,
            "{kill} kill points, {mid_run} mid-run"
        );
    }

    /// `m`'s value after `steps`: `(true, n)` sets it to `n` bytes, `(false,
    /// n)` appends `n`; step `i` writes byte `i`.
    fn model_of(steps: &[(bool, usize)]) -> Vec<u8> {
        let mut m = Vec::new();
        for (i, &(set, n)) in steps.iter().enumerate() {
            if set {
                m.clear();
            }
            m.extend(std::iter::repeat_n(i as u8, n));
        }
        m
    }

    /// Format a journal on a device that dies after `kill` transfers and
    /// checkpoint after each of `steps` (see [`model_of`]) on manifest `m`.
    /// Returns the medium, the journal and whether it crashed.
    fn scripted(kill: u64, steps: &[(bool, usize)]) -> (Arc<RamDisk>, Arc<Journal>, bool) {
        let ram = RamDisk::new(B);
        let dev = FaultDisk::wrap(
            Arc::clone(&ram) as SharedDevice,
            FaultPlan::new(0).with_crash(CrashSwitch::after(kill)),
        );
        let j = Journal::format(dev as SharedDevice).unwrap();
        let run = steps.iter().enumerate().try_for_each(|(i, &(set, n))| {
            match set {
                true => j.set_manifest("m", vec![i as u8; n]),
                false => j.append_manifest("m", &vec![i as u8; n]),
            }
            j.checkpoint()
        });
        (ram, j, run.is_err())
    }

    /// Three chained headers after format's anchor: a 349-byte record (a
    /// header and an overflow block), then two 59-byte appends (a header
    /// each), five transfers with format's.
    const CHAINED: [(bool, usize); 3] = [(true, 300), (false, 10), (false, 10)];

    #[test]
    fn a_torn_chained_header_ends_the_walk_at_the_one_before() {
        let (ram, ..) = scripted(u64::MAX, &CHAINED);
        assert_eq!(ram.stats().snapshot().total(), 5);
        // The last transfer, checkpoint 3's header, is torn.
        let (ram, j, crashed) = scripted(4, &CHAINED);
        assert!(crashed);
        let (r, reads) = reboot(&ram, &j);
        assert_eq!(r.manifest("m"), Some(model_of(&CHAINED[..2])));
        assert_eq!(reads, (2 + 2 + 1, 1));
        // The reopened journal writes its next header over the torn one.
        r.append_manifest("m", &[9; 10]);
        r.checkpoint().unwrap();
        let (r, reads) = reboot(&ram, &r);
        let mut want = model_of(&CHAINED[..2]);
        want.extend([9; 10]);
        assert_eq!(r.manifest("m"), Some(want));
        assert_eq!(reads, (2 + 3 + 1, 1));
    }

    #[test]
    fn an_older_header_of_the_same_journal_in_the_pre_allocated_block_ends_the_walk() {
        let (ram, j, _) = scripted(u64::MAX, &CHAINED);
        // Checkpoint 1's header, sequence number 2, copied into the block
        // checkpoint 4's header would go to.
        let (first, next) = {
            let st = j.state.lock();
            (st.chain[0], st.next)
        };
        let mut stale = vec![0u8; B];
        ram.read_block(first, &mut stale).unwrap();
        ram.write_block(next, &stale).unwrap();
        let valid = j.read_header(next).unwrap().expect("a valid header");
        assert_eq!(valid.seq, 2);
        let (r, reads) = reboot(&ram, &j);
        assert_eq!(r.manifest("m"), Some(model_of(&CHAINED)));
        assert_eq!(reads, (2 + 3 + 1, 1));
    }

    #[test]
    fn a_header_of_another_journal_on_the_same_device_ends_the_walk() {
        let ram = RamDisk::new(B);
        let dev = || Arc::clone(&ram) as SharedDevice;
        let (ours, theirs) = (
            Journal::format(dev()).unwrap(),
            Journal::format(dev()).unwrap(),
        );
        // Both commit checkpoint 1; theirs goes on to checkpoint 2, whose
        // header carries the sequence number ours expects next.
        for j in [&ours, &theirs] {
            j.set_manifest("m", vec![1; 300]);
            j.checkpoint().unwrap();
        }
        let at = theirs.state.lock().next;
        theirs.append_manifest("m", &[2; 10]);
        theirs.checkpoint().unwrap();
        let mut foreign = vec![0u8; B];
        ram.read_block(at, &mut foreign).unwrap();
        assert_eq!(theirs.read_header(at).unwrap().map(|h| h.seq), Some(3));
        let next = ours.state.lock().next;
        ram.write_block(next, &foreign).unwrap();
        assert!(
            ours.read_header(next).unwrap().is_none(),
            "keyed to our slots"
        );
        let (r, reads) = reboot(&ram, &ours);
        assert_eq!(r.manifest("m"), Some(vec![1; 300]));
        assert_eq!(reads, (2 + 1 + 1, 1));
    }

    #[test]
    fn a_torn_anchor_falls_back_to_the_older_anchor_and_its_chain() {
        // Checkpoint 4 sets `m` to 10 bytes: the full record fits, so it is
        // an anchor in slot 1, one transfer, the run's last.
        let steps = [CHAINED[0], CHAINED[1], CHAINED[2], (true, 10)];
        let (ram, ..) = scripted(u64::MAX, &steps);
        assert_eq!(ram.stats().snapshot().total(), 5 + 1);
        let (ram, j, crashed) = scripted(5, &steps);
        assert!(crashed);
        // Format's anchor in slot 0 and the three chained headers after it,
        // which the torn anchor has not retired.
        let (r, reads) = reboot(&ram, &j);
        assert_eq!(r.manifest("m"), Some(model_of(&CHAINED)));
        assert_eq!(reads, (2 + 3 + 1, 1));
        // The next anchor goes to the torn slot again, and retires the chain.
        r.set_manifest("m", vec![7; 10]);
        r.checkpoint().unwrap();
        let (r, reads) = reboot(&ram, &r);
        assert_eq!(r.manifest("m"), Some(vec![7; 10]));
        assert_eq!(reads, (2 + 1, 0));
        // Two slots, the next block, and the one the torn anchor
        // pre-allocated: leaked, like any block a crashed epoch allocated.
        assert_eq!(ram.allocated_blocks(), 4);
    }
}
