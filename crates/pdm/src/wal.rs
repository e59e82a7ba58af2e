//! Write-ahead journaling with checkpoint-and-rewind semantics.
//!
//! The fault substrate ([`FaultDisk`](crate::FaultDisk)) made device
//! misbehaviour *detectable*; this module makes it *survivable*.  A
//! [`Journal`] wraps any [`BlockDevice`] and turns the wrapped device into a
//! transactional store by enforcing copy-on-write: between checkpoints only
//! blocks born since the last checkpoint may be written, so the blocks it
//! committed are never touched mid-epoch.  A crash — power loss, a torn write
//! the caller could not repair, a dead machine — therefore leaves the last
//! checkpoint's state fully intact on the medium, and recovery *rewinds* to
//! it.  An epoch commits with one header write, so it is all-or-nothing.
//! This is the trail/checkpoint discipline of Vitter's survey adapted to
//! blocks: checkpointing makes online structures restartable.
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
//! a rewind cannot see such a block, so it may be written in place.
//!
//! * `allocate` passes through and remembers the id as born this epoch
//!   (forgotten at the next checkpoint; nothing is born after `recover`
//!   until the reopened journal allocates).  Blocks allocated in an epoch
//!   that ends in a rewind are leaked (bounded by the epoch's footprint);
//!   the simulation's media are free-list allocators, so a leak costs
//!   capacity, never correctness.
//! * `write_block(id)` or `submit_write(id)` of a born-this-epoch block goes
//!   **straight home**.  A rewind leaves the bytes in a block no recovered
//!   structure points at — the allocation leak above, with a payload.  The
//!   checkpoint's `barrier()` orders every such write before the commit
//!   header, so a *committed* epoch never references a born block whose
//!   write was lost.
//! * A write to any other block is [`PdmError::InvalidRequest`] and moves
//!   nothing: a committed block is part of the state a rewind restores.  A
//!   structure replaces it by a born block and frees it instead.
//! * Reads pass through.
//! * `free(id)` of a born-this-epoch block releases it **at once** (its id
//!   may be born again in the same epoch).  `free(id)` of a committed
//!   block is **deferred** to the end of the next checkpoint: the block
//!   being freed is part of the state a rewind must restore.
//!
//! [`checkpoint`](Journal::checkpoint) then makes the epoch durable:
//!
//! 1. **Record**: the named [manifests](Journal::set_manifest) are
//!    serialized.  The record's first `B − 48` bytes ride *inline* in the
//!    header block written next; only the remainder goes into freshly
//!    allocated *overflow blocks*, written back to front so each block's
//!    link is final.
//! 2. **Commit**: one header block is written with the next sequence
//!    number.  This single block write is the commit point.
//! 3. **Retire**: all deferred frees and, after an anchor, the chain it
//!    replaced are released.
//!
//! ## Anchors and chained headers: one log
//!
//! The header block *is* the log.  An **anchor** goes to whichever of the
//! two fixed anchor slots does not hold the newest anchor and carries the
//! *full* record.  A **chained** header goes to the block the previous
//! header pre-allocated and names, and carries only what changed since it:
//! each manifest [set](Journal::set_manifest) to new bytes, and of a
//! manifest only [appended](Journal::append_manifest) to, the new bytes; an
//! unchanged manifest is omitted.  Every header pre-allocates and names the
//! block for the next chained header.
//!
//! The **anchor rule**: a checkpoint writes an anchor when its full record
//! fits the header block, so journals with small manifests (a tree's root)
//! write anchors only.
//! Otherwise it chains, unless the chain since the newest anchor (chained
//! headers and their overflow) would pass `2a` blocks, `a` being an anchor
//! of the full record; then it writes that anchor.  This is the doubling
//! rule: a forced anchor of `a` blocks follows at least `2a` chained ones,
//! so forced anchors add at most half the chain's own writes, and recovery
//! walks at most `2a` chained blocks.  A log appended by more than half a
//! block a checkpoint (a serving shard's) never forces one.  An anchor
//! retires the chain it replaces only when its checkpoint has finished, so
//! a torn anchor falls back to the older anchor, whose chain is still
//! allocated.
//!
//! A header is 48 fixed bytes — magic, sequence number, overflow head, next
//! block, inline length, checksum — and the inline bytes.  The checksum
//! covers both and is keyed to the two anchor slot ids, so a torn header
//! fails it, and so does another journal's header on the device.
//!
//! ## Recovery
//!
//! [`Journal::recover`] takes the newest valid anchor and walks forward,
//! accepting the block the current header names while it verifies (magic,
//! keyed checksum, sequence number one past the previous) and applying its
//! manifest changes.  The first block that does not verify ends the walk:
//! the pre-allocated block nothing reached yet, a torn header, or a stale
//! one of a retired chain (older sequence number) or of another journal
//! (other key).  The last header accepted is the recovered checkpoint, and
//! the epoch after it is rewound: nothing it wrote is reachable from the
//! recovered manifests.  Recovery writes nothing, so a crash *during
//! recovery* is recovered by recovering again.
//!
//! ## Cost accounting
//!
//! Mid-epoch operations cost exactly what the bare device costs, so an
//! algorithm's transfer counts are unchanged by journaling until it
//! checkpoints.  The checkpoint overhead — one header write and the
//! record's overflow writes — is tracked exactly in [`WalOverhead`], so
//! benchmarks can assert `journaled = bare + overhead` to the transfer.  A
//! checkpoint whose header carries an `r`-byte record (the full record for an
//! anchor, the changes for a chained header) costs
//! `1 + ⌈(r − (B − 48))⁺ / (B − 16)⌉` transfers: what the epoch allocated
//! and filled costs nothing extra, and a log kept in an appended manifest
//! costs each checkpoint its new bytes, not the log.  Recovery reads the
//! two anchor slots, the newest anchor's overflow, every chained header
//! since it with its overflow — at most `2a` blocks by the anchor rule —
//! and one block more, the one that ends the walk.
//!
//! Header and overflow blocks are allocated through the wrapped device's
//! normal allocator, so on a multi-disk array they take turns in the
//! allocation cursor with the structure's own blocks; totals are preserved
//! but per-lane attribution of a journaled workload can differ from the bare
//! run.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::device::{BlockDevice, BlockId, SharedDevice};
use crate::error::{PdmError, Result};
use crate::lock;
// FNV-1a is the record and header checksum of the journal.
use crate::hash::{fnv1a, fnv1a_words};
use crate::sched::IoTicket;
use crate::stats::IoStats;

/// Journal header magic ("external-memory WAL, format 4": anchors and
/// chained headers, manifests only).
const MAGIC: u64 = 0x454D_5741_4C31_0004;
/// Null block pointer in overflow links.
const NONE: u64 = u64::MAX;
/// Bytes of a header's fixed part: magic, seq, overflow head, next block,
/// inline length, checksum.  The record's first `B − HEADER_BYTES` bytes
/// follow it in the same block.  Also the smallest block a journal accepts,
/// which leaves an overflow block 32 bytes of payload.
const HEADER_BYTES: usize = 48;
/// Offset of the header checksum, the last fixed field.
const SUM_AT: usize = 40;
/// Per-overflow-block overhead: next pointer + chunk length.
const CHAIN_OVERHEAD: usize = 16;
/// A record's manifest changes: replace the value, or extend it.
const SET: u64 = 0;
const APPEND: u64 = 1;

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
    /// Always 0: the journal refuses a write to a committed block instead
    /// of redirecting it to a shadow block.  Kept because the benchmark's
    /// `serve_write` still reports it.
    pub shadow_writes: u64,
    /// Overflow block writes at checkpoints: the part of a record that does
    /// not fit its header block.
    pub chain_writes: u64,
    /// Overflow block reads during recovery.
    pub chain_reads: u64,
    /// Header block writes, anchor or chained: one at format and one per
    /// checkpoint.
    pub header_writes: u64,
    /// Header block reads during recovery: both anchor slots, every chained
    /// header accepted, and the block that ends the walk.
    pub header_reads: u64,
    /// Always 0: a checkpoint copies no block.  Kept because the
    /// benchmark's `serve_write` still reports it.
    pub apply_reads: u64,
    /// Always 0, like [`apply_reads`](Self::apply_reads).
    pub apply_writes: u64,
    /// Checkpoints completed.
    pub checkpoints: u64,
}

impl WalOverhead {
    /// Transfers the journal added beyond what the bare device would have
    /// executed for the same workload.
    pub fn total(&self) -> u64 {
        self.chain_writes + self.chain_reads + self.header_writes + self.header_reads
    }
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
    /// Blocks allocated through the journal this epoch: the only ones it
    /// lets a caller write, and freed at once; cleared by every checkpoint,
    /// empty after recovery.
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

    /// Bytes of the full record, without building it.
    fn full_len(&self) -> usize {
        if self.manifests.is_empty() {
            return 0;
        }
        let changes: usize = self
            .manifests
            .iter()
            .map(|(name, m)| 24 + name.len() + m.bytes.len())
            .sum();
        8 + changes + 8
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
/// stream writers run on top of it unchanged, as long as they write only
/// blocks they allocated since the last checkpoint; the additional surface
/// is the control plane — [`checkpoint`](Self::checkpoint),
/// [`set_manifest`](Self::set_manifest),
/// [`append_manifest`](Self::append_manifest), [`recover`](Self::recover).
pub struct Journal {
    inner: SharedDevice,
    /// The two anchor slots; [`WalState::newest`] says which is current.
    headers: [BlockId; 2],
    state: Mutex<WalState>,
    chain_writes: AtomicU64,
    chain_reads: AtomicU64,
    header_writes: AtomicU64,
    header_reads: AtomicU64,
    checkpoints: AtomicU64,
}

impl Journal {
    fn empty_state() -> WalState {
        WalState {
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
            chain_writes: AtomicU64::new(0),
            chain_reads: AtomicU64::new(0),
            header_writes: AtomicU64::new(0),
            header_reads: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
        })
    }

    /// Initialize a fresh journal on `inner`: allocates the two anchor
    /// slots and the block the first chained header will go to, and writes
    /// the initial anchor.
    ///
    /// The anchor slot ids ([`header_blocks`](Self::header_blocks)) are the
    /// journal's only root of trust — a later [`recover`](Self::recover)
    /// needs exactly them.  On a fresh device they are the first two
    /// allocations, hence deterministic.
    ///
    /// # Errors
    ///
    /// [`PdmError::RecordTooLarge`] if a block of `inner` is smaller than a
    /// header's 48-byte fixed part; otherwise whatever the device returns.
    pub fn format(inner: SharedDevice) -> Result<Arc<Journal>> {
        let mut j = Self::bare(inner, [NONE; 2])?;
        j.headers = [j.inner.allocate()?, j.inner.allocate()?];
        let next = j.inner.allocate()?;
        let mut st = lock(&j.state);
        j.put_anchor(&mut st, NONE, next, &[])?;
        st.next = next;
        drop(st);
        // Slot 1 stays zeroed (invalid) until the next anchor.
        Ok(Arc::new(j))
    }

    /// Reopen a journal after a crash, given the surviving medium and the
    /// anchor slot pair from [`header_blocks`](Self::header_blocks).
    ///
    /// Reads both anchor slots and walks forward from the newest valid
    /// anchor through its chain; the epoch after the last header it accepts
    /// is rewound, since nothing it wrote is reachable from the manifests
    /// stored at that checkpoint, which [`manifest`](Self::manifest)
    /// returns.  Recovery writes nothing, so running it twice gives the same
    /// state.
    ///
    /// Cost: two anchor reads, the newest anchor's overflow, each chained
    /// header since it with its overflow, and one read that ends the walk.
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
        let mut st = lock(&j.state);
        st.newest = newest;
        st.chain = j.read_record(&anchor, &mut st.manifests)?;
        let mut last = anchor;
        while let Some(h) = j.read_header(last.next)?.filter(|h| h.seq == last.seq + 1) {
            let overflow = j.read_record(&h, &mut st.manifests)?;
            st.chained += 1 + overflow.len();
            st.chain.push(last.next);
            st.chain.extend(overflow);
            last = h;
        }
        (st.seq, st.next) = (last.seq, last.next);
        st.mark_persisted();
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
        let mut st = lock(&self.state);
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
        let mut st = lock(&self.state);
        let m = st.manifests.entry(name.to_string()).or_default();
        m.bytes.extend_from_slice(bytes);
    }

    /// The current value of a named manifest (after recovery: the value at
    /// the recovered checkpoint).
    pub fn manifest(&self, name: &str) -> Option<Vec<u8>> {
        lock(&self.state)
            .manifests
            .get(name)
            .map(|m| m.bytes.clone())
    }

    /// Exact journaling overhead so far; see [`WalOverhead`].
    pub fn overhead(&self) -> WalOverhead {
        WalOverhead {
            chain_writes: self.chain_writes.load(Ordering::Relaxed),
            chain_reads: self.chain_reads.load(Ordering::Relaxed),
            header_writes: self.header_writes.load(Ordering::Relaxed),
            header_reads: self.header_reads.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            ..WalOverhead::default()
        }
    }

    /// Commit the current epoch; see the `wal` module docs for the three
    /// steps and the anchor rule.  After `Ok(())` the epoch's manifests are
    /// durable, its blocks are committed, and the deferred frees have
    /// executed.
    ///
    /// The caller must have completed (waited on) its own submitted writes
    /// first — a buffer pool flush, a stream writer finish.  As a safety
    /// net, the wrapped device's [`barrier`](BlockDevice::barrier) runs
    /// first, so a lost write-behind fails the checkpoint instead of being
    /// committed around.
    pub fn checkpoint(&self) -> Result<()> {
        self.inner.barrier()?;
        let mut st = lock(&self.state);
        // The anchor rule (module docs).
        let full_len = st.full_len();
        let delta = build_record(st.changes());
        let anchor = full_len <= self.inner.block_size() - HEADER_BYTES
            || st.chained + self.blocks(delta.len()) > 2 * self.blocks(full_len);
        let retired = if anchor {
            let full = build_record(st.everything());
            self.write_anchor(&mut st, &full)?
        } else {
            self.write_chained(&mut st, &delta)?;
            Vec::new()
        };
        st.mark_persisted();
        // Retire: the epoch is durable, nothing can rewind past it anymore.
        let deferred = std::mem::take(&mut st.deferred_frees);
        for id in retired.into_iter().chain(deferred) {
            self.inner.free(id)?;
        }
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
    fn write_anchor(&self, st: &mut WalState, record: &[u8]) -> Result<Vec<BlockId>> {
        let (inline, rest) = self.split(record);
        let overflow = self.write_overflow(rest)?;
        let next = self.inner.allocate()?;
        let head = overflow.first().copied().unwrap_or(NONE);
        self.put_anchor(st, head, next, inline)?;
        let mut retired = std::mem::replace(&mut st.chain, overflow);
        retired.push(std::mem::replace(&mut st.next, next));
        st.chained = 0;
        Ok(retired)
    }

    /// Write `record` as a chained header into the block the newest header
    /// names, pre-allocating the one after it.
    fn write_chained(&self, st: &mut WalState, record: &[u8]) -> Result<()> {
        let (inline, rest) = self.split(record);
        let overflow = self.write_overflow(rest)?;
        let next = self.inner.allocate()?;
        let (at, head) = (st.next, overflow.first().copied().unwrap_or(NONE));
        self.put_header(st, at, head, next, inline)?;
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
        overflow: u64,
        next: BlockId,
        inline: &[u8],
    ) -> Result<()> {
        let slot = 1 - st.newest;
        self.put_header(st, self.headers[slot], overflow, next, inline)?;
        st.newest = slot;
        Ok(())
    }

    /// Write the next header — sequence `st.seq + 1` — into block `at`, and
    /// make it the newest once it has landed.  `inline` is the record's head
    /// (at most `B − 48` bytes).
    fn put_header(
        &self,
        st: &mut WalState,
        at: BlockId,
        overflow: u64,
        next: BlockId,
        inline: &[u8],
    ) -> Result<()> {
        let seq = st.seq + 1;
        let mut buf = vec![0u8; self.inner.block_size()];
        let fields = [MAGIC, seq, overflow, next, inline.len() as u64];
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
    /// its overflow block ids.
    fn read_record(
        &self,
        h: &Header,
        manifests: &mut BTreeMap<String, Manifest>,
    ) -> Result<Vec<BlockId>> {
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
        parse_record(&bytes, manifests)?;
        Ok(ids)
    }

    /// Whether `id` may be written: only a block born this epoch may, since
    /// a committed one is part of the state a rewind restores.
    fn check_born(&self, id: BlockId) -> Result<()> {
        if lock(&self.state).fresh.contains(&id) {
            return Ok(());
        }
        Err(PdmError::InvalidRequest(format!(
            "journal: block {id} was not allocated since the last checkpoint; \
             replace a committed block with a new one instead of rewriting it"
        )))
    }
}

/// Serialize manifest changes, with a trailing checksum; nothing to say is
/// the empty record.
fn build_record(changes: Vec<Change<'_>>) -> Vec<u8> {
    if changes.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
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

/// Parse a record and apply its manifest changes to `manifests`.  A record
/// that fails its checksum or does not parse is [`PdmError::Corrupt`].
fn parse_record(bytes: &[u8], manifests: &mut BTreeMap<String, Manifest>) -> Result<()> {
    if bytes.is_empty() {
        return Ok(());
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
    Ok(())
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
        lock(&self.state).fresh.insert(id);
        Ok(id)
    }

    fn free(&self, id: BlockId) -> Result<()> {
        let mut st = lock(&self.state);
        if st.fresh.remove(&id) {
            // Born and freed inside one epoch: no checkpoint ever saw it.
            return self.inner.free(id);
        }
        // The block is part of the state a rewind restores: keep it until
        // the next checkpoint commits.
        st.deferred_frees.push(id);
        Ok(())
    }

    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<()> {
        self.inner.read_block(id, buf)
    }

    fn write_block(&self, id: BlockId, buf: &[u8]) -> Result<()> {
        self.check_born(id)?;
        self.inner.write_block(id, buf)
    }

    fn stats(&self) -> Arc<IoStats> {
        self.inner.stats()
    }

    fn lane_of(&self, id: BlockId) -> Option<usize> {
        self.inner.lane_of(id)
    }

    fn stream_lanes(&self) -> usize {
        self.inner.stream_lanes()
    }

    fn direct_next_stream(&self, stream: usize) {
        self.inner.direct_next_stream(stream)
    }

    fn submit_read(&self, id: BlockId, buf: Box<[u8]>) -> IoTicket {
        self.inner.submit_read(id, buf)
    }

    fn submit_write(&self, id: BlockId, buf: Box<[u8]>) -> IoTicket {
        match self.check_born(id) {
            Ok(()) => self.inner.submit_write(id, buf),
            Err(e) => IoTicket::ready(buf, Err(e)),
        }
    }

    fn barrier(&self) -> Result<()> {
        self.inner.barrier()
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

    /// Block ids as manifest bytes, and back.
    fn ids_bytes(ids: &[BlockId]) -> Vec<u8> {
        ids.iter().flat_map(|id| id.to_le_bytes()).collect()
    }

    fn bytes_ids(bytes: &[u8]) -> Vec<BlockId> {
        bytes
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn a_write_to_a_committed_block_is_refused_and_moves_nothing() {
        let ram = RamDisk::new(BS);
        let j = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
        let headers = j.header_blocks().unwrap();
        let id = j.allocate().unwrap();
        j.write_block(id, &block(1)).unwrap();
        j.set_manifest("m", ids_bytes(&[id]));
        j.checkpoint().unwrap();
        let refused = |j: &Journal, id: BlockId, fill: u8| {
            let (io, wal) = (ram.stats().snapshot(), j.overhead());
            let err = j.write_block(id, &block(fill)).unwrap_err();
            assert!(matches!(err, PdmError::InvalidRequest(_)), "{err}");
            let (buf, res) = j.submit_write(id, block(fill).into_boxed_slice()).wait();
            assert!(matches!(res, Err(PdmError::InvalidRequest(_))), "{res:?}");
            assert_eq!(buf[..], block(fill)[..], "the buffer comes back");
            assert_eq!(ram.stats().snapshot().since(&io).total(), 0, "no transfer");
            assert_eq!(j.overhead(), wal);
        };
        refused(&j, id, 2);
        let mut out = block(0);
        ram.read_block(id, &mut out).unwrap();
        assert_eq!(out, block(1), "the committed payload is intact");
        // The epoch still checkpoints: the block is replaced, not rewritten.
        let next = j.allocate().unwrap();
        j.write_block(next, &block(2)).unwrap();
        j.free(id).unwrap();
        j.set_manifest("m", ids_bytes(&[next]));
        j.checkpoint().unwrap();
        // The next epoch is refused its rewrite too, and rewinds.
        refused(&j, next, 3);
        let scratch = j.allocate().unwrap();
        j.write_block(scratch, &block(3)).unwrap();
        j.set_manifest("m", ids_bytes(&[scratch]));
        drop(j);
        let r = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
        assert_eq!(r.manifest("m"), Some(ids_bytes(&[next])));
        r.read_block(next, &mut out).unwrap();
        assert_eq!(out, block(2), "rewound to the last checkpoint");
        // Nothing is born after a recovery until the journal allocates.
        refused(&r, next, 4);
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
        // Straight home: the medium already holds the bytes.
        let mut out = block(0);
        ram.read_block(a, &mut out).unwrap();
        assert_eq!(out, block(0xAB));
        assert_eq!(ram.allocated_blocks(), allocated + 3, "no extra blocks");
        // Freed at once, not at the checkpoint.
        j.free(c).unwrap();
        assert_eq!(ram.allocated_blocks(), allocated + 2);
        j.checkpoint().unwrap();
        let d = j.overhead();
        assert_eq!(d.shadow_writes, before.shadow_writes);
        assert_eq!(d.apply_reads + d.apply_writes, 0);
        assert_eq!(d.chain_writes, before.chain_writes, "empty record");
        assert_eq!(
            d.header_writes - before.header_writes,
            1,
            "one header a checkpoint"
        );
        // The checkpoint made them committed blocks: the next write is
        // refused.
        assert!(matches!(
            j.write_block(a, &block(0xA0)),
            Err(PdmError::InvalidRequest(_))
        ));
        ram.read_block(a, &mut out).unwrap();
        assert_eq!(out, block(0xAB), "home untouched");
        j.read_block(b, &mut out).unwrap();
        assert_eq!(out, block(0xBB));
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
        j.set_manifest("m", ids_bytes(&[id]));
        j.checkpoint().unwrap();
        // Uncommitted epoch: a replacement and a free.
        let next = j.allocate().unwrap();
        j.write_block(next, &block(2)).unwrap();
        j.free(id).unwrap();
        j.set_manifest("m", ids_bytes(&[next]));
        drop(j);
        let r = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
        assert_eq!(r.manifest("m"), Some(ids_bytes(&[id])));
        let mut out = block(0);
        r.read_block(id, &mut out).unwrap();
        assert_eq!(out, block(1), "rewound to the committed payload");
    }

    /// A manifest `m` of `fill` bytes that makes the full record exactly
    /// `len` bytes (`len == 0`: no manifest at all).
    fn manifests_of_record(len: usize, fill: u8) -> BTreeMap<String, Vec<u8>> {
        let mut manifests = BTreeMap::new();
        if len > 0 {
            // Change count, kind, name length, "m", data length, checksum.
            let fixed = 8 + 8 + 8 + 1 + 8 + 8;
            manifests.insert("m".to_string(), vec![fill; len - fixed]);
        }
        let changes = manifests
            .iter()
            .map(|(name, data)| (SET, name.as_str(), data.as_slice()))
            .collect();
        assert_eq!(build_record(changes).len(), len);
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
            let mut home = j.allocate().unwrap();
            // Two checkpoints: the first commits `home`, born in it; the
            // second replaces it by a block born in the second.
            for step in 0..2u8 {
                if step > 0 {
                    let next = j.allocate().unwrap();
                    j.free(home).unwrap();
                    home = next;
                }
                let manifests = manifests_of_record(len, step);
                for (name, data) in &manifests {
                    j.set_manifest(name, data.clone());
                }
                assert_eq!(lock(&j.state).full_len(), len);
                j.write_block(home, &vec![step; B]).unwrap();
                let before = j.overhead();
                j.checkpoint().unwrap();
                let d = j.overhead();
                let what = format!("{len}-byte record, checkpoint {step}");
                assert_eq!(d.chain_writes - before.chain_writes, chain_blocks, "{what}");
                assert_eq!(d.header_writes - before.header_writes, 1, "{what}");
                assert_eq!(d.apply_writes - before.apply_writes, 0, "{what}");
                let r = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
                assert_eq!(r.manifest("m"), manifests.get("m").cloned(), "{what}");
                // A record that overflows is chained both times, so
                // recovery reads the overflow of every checkpoint so far.
                let chain_reads = (u64::from(step) + 1) * chain_blocks;
                assert_eq!(r.overhead().chain_reads, chain_reads, "{what}");
                let mut out = vec![0u8; B];
                r.read_block(home, &mut out).unwrap();
                assert_eq!(out, vec![step; B], "{what}");
            }
        }
    }

    /// A medium where checkpoint 1 (manifest `m` = `old`, block `ids[0]`
    /// born and written) and checkpoint 2 (`m` = `new`, `ids[1]` born and
    /// written) completed, both chained headers.  Returns the medium, the
    /// anchor slots, the block checkpoint 2's header went to and the two
    /// data blocks.
    fn two_checkpoints(
        old: &[u8],
        new: &[u8],
    ) -> (Arc<RamDisk>, [BlockId; 2], BlockId, [BlockId; 2]) {
        let ram = RamDisk::new(BS);
        let j = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
        let mut ids = [0; 2];
        for (i, m) in [old, new].into_iter().enumerate() {
            ids[i] = j.allocate().unwrap();
            j.write_block(ids[i], &block(i as u8 + 1)).unwrap();
            j.set_manifest("m", m.to_vec());
            j.checkpoint().unwrap();
        }
        let at = lock(&j.state).chain[3];
        (ram, j.header_blocks().unwrap(), at, ids)
    }

    #[test]
    fn a_header_with_a_damaged_tail_falls_back_to_the_previous_checkpoint() {
        // 73-byte records: 16 bytes inline and two overflow blocks each.
        let (old, new) = (b"old-root".repeat(4), b"new-root".repeat(4));
        // Intact, the newest header is checkpoint 2's, and recovery lands
        // on it.
        let (ram, headers, _, ids) = two_checkpoints(&old, &new);
        let r = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
        assert_eq!(r.manifest("m"), Some(new.clone()));
        assert_eq!(r.overhead().chain_reads, 4);
        let mut out = block(0);
        r.read_block(ids[1], &mut out).unwrap();
        assert_eq!(out, block(2));

        // Format's anchor is in slot 0, checkpoints 1 and 2 are chained.
        // Damage only checkpoint 2's inline bytes; the fixed 48 stay intact.
        let (ram, headers, at, ids) = two_checkpoints(&old, &new);
        let mut header = block(0);
        ram.read_block(at, &mut header).unwrap();
        assert_eq!(header[8..16], 3u64.to_le_bytes(), "sequence field");
        header[HEADER_BYTES..].fill(0xEE);
        ram.write_block(at, &header).unwrap();
        let r = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
        assert_eq!(r.manifest("m"), Some(old), "rewound to checkpoint 1");
        // Checkpoint 1's two overflow blocks read back, nothing written.
        let wal = r.overhead();
        assert_eq!((wal.chain_reads, wal.header_writes), (2, 0), "{wal:?}");
        r.read_block(ids[0], &mut out).unwrap();
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
    /// of the two data blocks manifest `ids` names (zeroed when it names
    /// none).
    fn crash_at(k: u64) -> (Vec<u8>, Vec<u8>, bool) {
        let stats = IoStats::new(1, BS);
        let ram = Arc::new(RamDisk::with_stats(BS, Arc::clone(&stats), 0));
        // First boot happens on the pristine medium: format the journal,
        // then let the crashing device take over.  The anchor slots land on
        // ids 0 and 1, the pre-allocated block on 2.
        let headers = Journal::format(Arc::clone(&ram) as SharedDevice)
            .unwrap()
            .header_blocks()
            .unwrap();
        let switch = CrashSwitch::after(k);
        let faulty = FaultDisk::wrap(
            Arc::clone(&ram) as SharedDevice,
            FaultPlan::new(0).with_crash(switch),
        );
        // Each epoch replaces both data blocks by born ones; the third
        // never commits.
        let script = |j: &Journal| -> Result<()> {
            let mut ids: Vec<BlockId> = Vec::new();
            for (epoch, fills) in [(1, [1, 2]), (2, [3, 4]), (3, [5, 6])] {
                let born = [j.allocate()?, j.allocate()?];
                for (&id, fill) in born.iter().zip(fills) {
                    j.write_block(id, &block(fill))?;
                }
                for id in ids.drain(..) {
                    j.free(id)?;
                }
                ids.extend(born);
                j.set_manifest("ids", ids_bytes(&ids));
                if epoch < 3 {
                    j.checkpoint()?;
                }
            }
            Ok(())
        };
        let crashed = match Journal::recover(faulty as SharedDevice, headers) {
            Ok(j) => script(&j).is_err(),
            Err(_) => true, // crashed reading the headers at boot
        };
        let recovered = || {
            let r = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
            let ids = r.manifest("ids").map_or_else(Vec::new, |m| bytes_ids(&m));
            let mut out = [block(0), block(0)];
            for (&id, out) in ids.iter().zip(&mut out) {
                r.read_block(id, out).unwrap();
            }
            out
        };
        let [a_out, b_out] = recovered();
        // A second recovery must land in the identical state.
        let [a2, _] = recovered();
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
        assert!(
            seen_new,
            "some crash point in the uncommitted third epoch rewound to checkpoint 2"
        );
    }

    /// Block size of the chained-header tests: 208 inline bytes a header,
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
        for n in [165usize, 166, 405, 406, 646] {
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
            // δ: change count, kind, name length, "log", data length, the
            // appended bytes, checksum.  The 2 000 bytes that did not change
            // are not in it.
            let delta = 8 + 8 + 8 + 3 + 8 + n + 8;
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
        // A 341-byte record: a header and one overflow block, anchor or
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

    /// Epochs of [`appending_run`]'s cycle: the log is reset at its start.
    const CYCLE: u64 = 8;
    /// Epochs of [`appending_run`]: three cycles.
    const EPOCHS: u64 = 3 * CYCLE;

    /// The appending journal's script on a device that dies after `kill`
    /// transfers: each epoch replaces the home block by a born one, appends
    /// 40 bytes to manifest `log` (reset to empty every eighth epoch, which
    /// is what a compaction does to a shard's log) and sets manifest `epoch`
    /// to the epoch and its home.  Recovers the surviving medium twice,
    /// asserts both recoveries agree and land on exactly one checkpoint, and
    /// returns whether the run crashed, the last acked epoch and the chain's
    /// length in blocks after each epoch.
    fn appending_run(kill: u64) -> (bool, u64, Vec<usize>) {
        let ram = RamDisk::new(B);
        let j0 = Journal::format(Arc::clone(&ram) as SharedDevice).unwrap();
        let headers = j0.header_blocks().unwrap();
        let mut home = j0.allocate().unwrap();
        j0.set_manifest("epoch", ids_bytes(&[0, home]));
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
                    if (e - 1) % CYCLE == 0 {
                        j.set_manifest("log", Vec::new());
                    }
                    j.append_manifest("log", &[e as u8; 40]);
                    let next = j.allocate()?;
                    j.write_block(next, &[e as u8; B])?;
                    j.free(home)?;
                    home = next;
                    j.set_manifest("epoch", ids_bytes(&[e, home]));
                    j.checkpoint()?;
                    acked = e;
                    chained.push(lock(&j.state).chained);
                }
                Ok(())
            })()
            .is_err(),
        };
        let recovered = || {
            let r = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
            let [e, home] = bytes_ids(&r.manifest("epoch").unwrap())[..] else {
                panic!("kill at {kill}: manifest `epoch` is two words");
            };
            let mut out = vec![0u8; B];
            r.read_block(home, &mut out).unwrap();
            (e, r.manifest("log"), out)
        };
        let state = recovered();
        assert_eq!(
            state,
            recovered(),
            "kill at {kill}: a second recovery moved"
        );
        let model = |e: u64| {
            let log = (e - (e.max(1) - 1) % CYCLE..=e).flat_map(|x| [x as u8; 40]);
            (
                e,
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
        // Per cycle: three anchors while the full record fits, four chained
        // epochs of one header each, then an anchor forced when the chain
        // would pass twice the full record's two blocks; then the reset
        // anchors again.
        assert_eq!(chained, [0, 0, 0, 1, 2, 3, 4, 0].repeat(3));
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
            kill >= 54 && mid_run >= 49,
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

    /// Three chained headers after format's anchor: a 341-byte record (a
    /// header and an overflow block), then two 51-byte appends (a header
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
            let st = lock(&j.state);
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
        let at = lock(&theirs.state).next;
        theirs.append_manifest("m", &[2; 10]);
        theirs.checkpoint().unwrap();
        let mut foreign = vec![0u8; B];
        ram.read_block(at, &mut foreign).unwrap();
        assert_eq!(theirs.read_header(at).unwrap().map(|h| h.seq), Some(3));
        let next = lock(&ours.state).next;
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
