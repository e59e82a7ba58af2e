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
//! 1. **Chain**: the redo record — every `(home, shadow, payload checksum)`
//!    of a rewritten committed block, plus all named
//!    [manifests](Journal::set_manifest) — is serialized.  Its first
//!    `B − 48` bytes ride *inline* in the header block written next; only
//!    the remainder goes into freshly allocated, checksummed *chain blocks*,
//!    written back to front so each block's link is final.
//! 2. **Commit**: a header block is written with the next sequence number,
//!    the chain head and the inline bytes.  This single block write is the
//!    commit point.  An epoch that rewrote no committed block has nothing to
//!    redo, so its header already says `CLEAN` and the checkpoint skips to
//!    step 5; otherwise it says `COMMITTED`.
//! 3. **Apply**: each shadow is copied onto its home block.
//! 4. **Clean**: a second header, `CLEAN` with the next sequence number, is
//!    written with the same chain head and inline bytes (recovery reads the
//!    manifests from them).
//! 5. **Retire**: the previous checkpoint's chain, the applied shadows and
//!    all deferred frees are released.
//!
//! Every header write goes to whichever of the two header slots does *not*
//! hold the newest header, so a torn header write can only corrupt the
//! header being written, and recovery falls back to the one before it —
//! whose chain is still allocated, because a chain is retired only after the
//! next header has landed.  A header is 48 fixed bytes (magic, sequence
//! number, state, chain head, inline length, checksum) followed by the
//! inline bytes, and the checksum covers both: a header whose tail did not
//! land is rejected like one whose fields did not.  [`Journal::recover`]
//! reads both headers, picks the newest valid one, and either rewinds (state
//! `CLEAN`: in-memory pending set is simply gone, homes are consistent) or
//! redoes the apply (state `COMMITTED`: every shadow is verified against its
//! checksum and copied home again, then `CLEAN` goes to the other slot —
//! idempotent, so a crash *during recovery* is recovered by recovering
//! again).
//!
//! ## Cost accounting
//!
//! Mid-epoch operations cost exactly what the bare device costs, so an
//! algorithm's transfer counts are unchanged by journaling until it
//! checkpoints.  The checkpoint overhead — chain writes, one header write
//! plus a second when something was applied, one read + one write per
//! pending block for the apply — is tracked exactly in [`WalOverhead`], so
//! benchmarks can assert `journaled = bare + overhead` to the transfer.  For
//! a redo record of `r` bytes holding `p` pending blocks, a checkpoint costs
//! `1 + [p > 0] + ⌈(r − (B − 48))⁺ / (B − 16)⌉ + 2p` transfers: what the
//! epoch allocated and filled costs nothing extra, however much it was, and
//! an epoch that only allocated commits in one write once its manifests fit
//! the header block.
//!
//! Shadow and chain blocks are allocated through the wrapped device's normal
//! allocator, so on a multi-disk array their *lane* follows the allocation
//! cursor, not the home block's lane; totals are preserved but per-lane
//! attribution of a journaled workload can differ from the bare run.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::device::{BlockDevice, BlockId, SharedDevice};
use crate::error::{PdmError, Result};
// FNV-1a is the payload and record checksum of the journal.
use crate::hash::fnv1a;
use crate::sched::IoTicket;
use crate::stats::IoStats;

/// Journal header magic ("external-memory WAL, format 2": record inline).
const MAGIC: u64 = 0x454D_5741_4C31_0002;
/// Null block pointer in headers and chain links.
const NONE: u64 = u64::MAX;
const STATE_CLEAN: u64 = 0;
const STATE_COMMITTED: u64 = 1;
/// Bytes of a header's fixed part: magic, seq, state, chain head, inline
/// length, checksum.  The redo record's first `B − HEADER_BYTES` bytes
/// follow it in the same block.  Also the smallest block a journal accepts,
/// which leaves a chain block 32 bytes of payload.
const HEADER_BYTES: usize = 48;
/// Offset of the header checksum, the last fixed field.
const SUM_AT: usize = 40;
/// Per-chain-block overhead: next pointer + chunk length.
const CHAIN_OVERHEAD: usize = 16;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let end = pos
        .checked_add(8)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| corrupt("truncated journal record"))?;
    let v = u64::from_le_bytes(bytes[*pos..end].try_into().expect("8 bytes"));
    *pos = end;
    Ok(v)
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
    /// Chain (redo record) block writes at checkpoints.
    pub chain_writes: u64,
    /// Chain block reads during recovery.
    pub chain_reads: u64,
    /// Header block writes: one at format, one per checkpoint, a second per
    /// checkpoint that applied redo entries, one per recovery that redid
    /// an apply.
    pub header_writes: u64,
    /// Header block reads during recovery.
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

struct WalState {
    /// Homes written this epoch, ordered by id (deterministic chain/apply
    /// order).
    pending: BTreeMap<BlockId, PendingEntry>,
    /// Blocks allocated through the journal this epoch.  No committed state
    /// can reference them, so their writes go straight home and their frees
    /// happen at once; cleared by every checkpoint, empty after recovery.
    fresh: BTreeSet<BlockId>,
    /// Frees deferred until the epoch commits; on rewind they never happen,
    /// which is what keeps the pre-epoch structures intact.
    deferred_frees: Vec<BlockId>,
    /// Named recovery manifests, persisted in the chain at each checkpoint.
    manifests: BTreeMap<String, Vec<u8>>,
    /// Sequence number of the newest header written.
    seq: u64,
    /// Slot (0 or 1) holding the newest header; the next header write goes
    /// to the other one.
    newest: usize,
    /// Chain blocks of the last committed checkpoint; retired by the next.
    committed_chain: Vec<BlockId>,
}

/// One valid header slot, as [`Journal::recover`] reads it.
struct Header {
    seq: u64,
    state: u64,
    chain_head: u64,
    /// The redo record's first bytes, carried in the header block itself.
    inline: Vec<u8>,
}

/// A write-ahead journal wrapping a [`BlockDevice`]; see the
/// `wal` module docs for the protocol.
///
/// The journal itself implements [`BlockDevice`], so buffer pools, trees and
/// stream writers run on top of it unchanged; the additional surface is the
/// control plane — [`checkpoint`](Self::checkpoint),
/// [`set_manifest`](Self::set_manifest), [`recover`](Self::recover).
pub struct Journal {
    inner: SharedDevice,
    /// The two header slots; [`WalState::newest`] says which is current.
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
            // So that `format`'s header lands in slot 0.
            newest: 1,
            committed_chain: Vec::new(),
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

    /// Initialize a fresh journal on `inner`: allocates the two header
    /// blocks and writes the initial `CLEAN` header.
    ///
    /// The header block ids ([`header_blocks`](Self::header_blocks)) are the
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
        j.write_header(&mut j.state.lock(), STATE_CLEAN, NONE, &[])?;
        // Slot 1 stays zeroed (invalid) until the first commit.
        Ok(Arc::new(j))
    }

    /// Reopen a journal after a crash, given the surviving medium and the
    /// header block pair from [`header_blocks`](Self::header_blocks).
    ///
    /// Reads both headers, picks the newest valid one, and either rewinds
    /// (newest is `CLEAN`: nothing to do — the uncommitted epoch's shadows
    /// are simply never looked at) or redoes the committed apply (newest is
    /// `COMMITTED`: every shadow is checksum-verified and copied onto its
    /// home, then a `CLEAN` header is written to the other slot).  Running
    /// recovery twice is idempotent: the second run finds the `CLEAN` header
    /// the first one wrote.  Manifests stored at the recovered checkpoint
    /// are available through [`manifest`](Self::manifest).
    pub fn recover(inner: SharedDevice, headers: [BlockId; 2]) -> Result<Arc<Journal>> {
        let j = Self::bare(inner, headers)?;
        let slots = [j.read_header(headers[0])?, j.read_header(headers[1])?];
        let Some((newest, header)) = slots
            .into_iter()
            .enumerate()
            .filter_map(|(slot, h)| Some((slot, h?)))
            .max_by_key(|(_, h)| h.seq)
        else {
            return Err(corrupt("no valid header — not a formatted journal"));
        };
        let (entries, manifests, chain) = j.read_record(&header.inline, header.chain_head)?;
        let mut st = j.state.lock();
        st.seq = header.seq;
        st.newest = newest;
        if header.state == STATE_COMMITTED {
            // Redo the interrupted apply, verifying every shadow payload.
            let bs = j.inner.block_size();
            let mut buf = vec![0u8; bs];
            for &(home, shadow, checksum) in &entries {
                j.inner.read_block(shadow, &mut buf)?;
                j.apply_reads.fetch_add(1, Ordering::Relaxed);
                if fnv1a(&buf) != checksum {
                    return Err(corrupt("committed shadow block fails its checksum"));
                }
                j.inner.write_block(home, &buf)?;
                j.apply_writes.fetch_add(1, Ordering::Relaxed);
            }
            j.write_header(&mut st, STATE_CLEAN, header.chain_head, &header.inline)?;
        }
        st.manifests = manifests;
        st.committed_chain = chain;
        drop(st);
        Ok(Arc::new(j))
    }

    /// The two header block ids — always `Some`; the `Option` dates from a
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
    /// [`manifest`](Self::manifest) after recovery.
    pub fn set_manifest(&self, name: &str, bytes: Vec<u8>) {
        self.state.lock().manifests.insert(name.to_string(), bytes);
    }

    /// The current value of a named manifest (after recovery: the value at
    /// the recovered checkpoint).
    pub fn manifest(&self, name: &str) -> Option<Vec<u8>> {
        self.state.lock().manifests.get(name).cloned()
    }

    /// Number of home blocks with uncommitted redirected writes.
    pub fn pending_blocks(&self) -> usize {
        self.state.lock().pending.len()
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
    /// steps.  After `Ok(())` every write since the previous checkpoint has
    /// reached its home block and the deferred frees have executed.
    ///
    /// The caller must have completed (waited on) its own submitted writes
    /// first — a buffer pool flush, a stream writer finish.  As a safety
    /// net, the wrapped device's [`barrier`](BlockDevice::barrier) runs
    /// first, so a lost write-behind fails the checkpoint instead of being
    /// committed around.
    pub fn checkpoint(&self) -> Result<()> {
        self.inner.barrier()?;
        let mut st = self.state.lock();
        let entries: Vec<(BlockId, BlockId, u64)> = st
            .pending
            .iter()
            .map(|(&home, e)| (home, e.shadow, e.checksum))
            .collect();
        let record = build_record(&entries, &st.manifests);
        let bs = self.inner.block_size();
        let (inline, overflow) = record.split_at(record.len().min(bs - HEADER_BYTES));
        let chain = self.write_chain(overflow)?;
        let chain_head = chain.first().copied().unwrap_or(NONE);
        if entries.is_empty() {
            // Nothing to redo: the commit point is already clean.
            self.write_header(&mut st, STATE_CLEAN, chain_head, inline)?;
        } else {
            // The commit point: one header write.
            self.write_header(&mut st, STATE_COMMITTED, chain_head, inline)?;
            // Apply shadows onto homes.
            let mut buf = vec![0u8; bs];
            for &(home, shadow, _) in &entries {
                self.inner.read_block(shadow, &mut buf)?;
                self.apply_reads.fetch_add(1, Ordering::Relaxed);
                self.inner.write_block(home, &buf)?;
                self.apply_writes.fetch_add(1, Ordering::Relaxed);
            }
            self.write_header(&mut st, STATE_CLEAN, chain_head, inline)?;
        }
        // Retire: the epoch is durable, nothing can rewind past it anymore.
        for id in std::mem::take(&mut st.committed_chain) {
            self.inner.free(id)?;
        }
        for &(_, shadow, _) in &entries {
            self.inner.free(shadow)?;
        }
        for id in std::mem::take(&mut st.deferred_frees) {
            self.inner.free(id)?;
        }
        st.pending.clear();
        st.fresh.clear();
        st.committed_chain = chain;
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Write the next header — sequence `st.seq + 1`, into the slot that
    /// does not hold the newest header — and make it the newest once it has
    /// landed.  `inline` is the redo record's head (at most `B − 48` bytes).
    fn write_header(
        &self,
        st: &mut WalState,
        state: u64,
        chain_head: u64,
        inline: &[u8],
    ) -> Result<()> {
        let (slot, seq) = (1 - st.newest, st.seq + 1);
        let mut buf = vec![0u8; self.inner.block_size()];
        let fields = [MAGIC, seq, state, chain_head, inline.len() as u64];
        for (word, v) in buf.chunks_exact_mut(8).zip(fields) {
            word.copy_from_slice(&v.to_le_bytes());
        }
        let end = HEADER_BYTES + inline.len();
        buf[HEADER_BYTES..end].copy_from_slice(inline);
        // The checksum covers every other fixed field and the inline bytes.
        let sum = fnv1a(&buf[..end]);
        buf[SUM_AT..HEADER_BYTES].copy_from_slice(&sum.to_le_bytes());
        self.inner.write_block(self.headers[slot], &buf)?;
        self.header_writes.fetch_add(1, Ordering::Relaxed);
        (st.newest, st.seq) = (slot, seq);
        Ok(())
    }

    /// Read one header slot; `None` if it does not parse as a valid header
    /// (zeroed, torn, damaged inline bytes, or foreign bytes).
    fn read_header(&self, id: BlockId) -> Result<Option<Header>> {
        let mut buf = vec![0u8; self.inner.block_size()];
        self.inner.read_block(id, &mut buf)?;
        self.header_reads.fetch_add(1, Ordering::Relaxed);
        let mut pos = 0usize;
        let magic = get_u64(&buf, &mut pos)?;
        let seq = get_u64(&buf, &mut pos)?;
        let state = get_u64(&buf, &mut pos)?;
        let chain_head = get_u64(&buf, &mut pos)?;
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
        if magic != MAGIC || fnv1a(&buf[..end]) != sum {
            return Ok(None);
        }
        Ok(Some(Header {
            seq,
            state,
            chain_head,
            inline: buf[HEADER_BYTES..end].to_vec(),
        }))
    }

    /// Serialize what of the record overflows the header into freshly
    /// allocated chain blocks, written back-to-front so each block's `next`
    /// pointer is final.  Returns the blocks head-first; no overflow writes
    /// no blocks.
    fn write_chain(&self, overflow: &[u8]) -> Result<Vec<BlockId>> {
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

    /// Read and parse the record a header carries: its `inline` head, then
    /// the chain starting at `head` (`NONE` = no overflow).  Returns the redo
    /// entries, the manifests, and the chain block ids.
    #[allow(clippy::type_complexity)]
    fn read_record(
        &self,
        inline: &[u8],
        head: u64,
    ) -> Result<(
        Vec<(BlockId, BlockId, u64)>,
        BTreeMap<String, Vec<u8>>,
        Vec<BlockId>,
    )> {
        let mut bytes = inline.to_vec();
        let mut ids = Vec::new();
        let bs = self.inner.block_size();
        let mut next = head;
        let mut buf = vec![0u8; bs];
        while next != NONE {
            if ids.len() > 1 << 24 {
                return Err(corrupt("chain does not terminate"));
            }
            ids.push(next);
            self.inner.read_block(next, &mut buf)?;
            self.chain_reads.fetch_add(1, Ordering::Relaxed);
            next = u64::from_le_bytes(buf[..8].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")) as usize;
            if len > bs - CHAIN_OVERHEAD {
                return Err(corrupt("chain block chunk length out of range"));
            }
            bytes.extend_from_slice(&buf[16..16 + len]);
        }
        let (entries, manifests) = parse_record(&bytes)?;
        Ok((entries, manifests, ids))
    }
}

/// Serialize the redo entries and manifests, with a trailing checksum.
fn build_record(
    entries: &[(BlockId, BlockId, u64)],
    manifests: &BTreeMap<String, Vec<u8>>,
) -> Vec<u8> {
    if entries.is_empty() && manifests.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    put_u64(&mut out, entries.len() as u64);
    for &(home, shadow, checksum) in entries {
        put_u64(&mut out, home);
        put_u64(&mut out, shadow);
        put_u64(&mut out, checksum);
    }
    put_u64(&mut out, manifests.len() as u64);
    for (name, data) in manifests {
        put_u64(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
        put_u64(&mut out, data.len() as u64);
        out.extend_from_slice(data);
    }
    let sum = fnv1a(&out);
    put_u64(&mut out, sum);
    out
}

#[allow(clippy::type_complexity)]
fn parse_record(bytes: &[u8]) -> Result<(Vec<(BlockId, BlockId, u64)>, BTreeMap<String, Vec<u8>>)> {
    if bytes.is_empty() {
        return Ok((Vec::new(), BTreeMap::new()));
    }
    if bytes.len() < 8 {
        return Err(corrupt("record shorter than its checksum"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let sum = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv1a(body) != sum {
        return Err(corrupt("record fails its checksum"));
    }
    let mut pos = 0usize;
    let n_entries = get_u64(body, &mut pos)? as usize;
    let mut entries = Vec::with_capacity(n_entries.min(1 << 20));
    for _ in 0..n_entries {
        let home = get_u64(body, &mut pos)?;
        let shadow = get_u64(body, &mut pos)?;
        let checksum = get_u64(body, &mut pos)?;
        entries.push((home, shadow, checksum));
    }
    let n_manifests = get_u64(body, &mut pos)? as usize;
    let mut manifests = BTreeMap::new();
    for _ in 0..n_manifests {
        let name_len = get_u64(body, &mut pos)? as usize;
        let end = pos
            .checked_add(name_len)
            .filter(|&e| e <= body.len())
            .ok_or_else(|| corrupt("manifest name out of range"))?;
        let name = String::from_utf8(body[pos..end].to_vec())
            .map_err(|_| corrupt("manifest name is not UTF-8"))?;
        pos = end;
        let data_len = get_u64(body, &mut pos)? as usize;
        let end = pos
            .checked_add(data_len)
            .filter(|&e| e <= body.len())
            .ok_or_else(|| corrupt("manifest data out of range"))?;
        manifests.insert(name, body[pos..end].to_vec());
        pos = end;
    }
    Ok((entries, manifests))
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

    fn lanes(&self) -> usize {
        self.inner.lanes()
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
            Err(e) => IoTicket::ready(Err(e)),
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
        // Record: 8 + 2*24 + 8 + 8 = 72 bytes, 16 inline and 56 over
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
        // 2 headers + 1 home + current chain; everything else was retired.
        let chain_now = {
            let st = j.state.lock();
            st.committed_chain.len() as u64
        };
        assert_eq!(ram.allocated_blocks(), 3 + chain_now);
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

    /// Manifests that make the redo record exactly `len` bytes next to
    /// `entries` redo entries (`len == 0`: no manifest at all).
    fn manifests_of_record(len: usize, entries: usize) -> BTreeMap<String, Vec<u8>> {
        let mut manifests = BTreeMap::new();
        if len > 0 {
            // Entry count, entries, manifest count, name length, "m", data
            // length, checksum.
            let fixed = 8 + 24 * entries + 8 + 8 + 1 + 8 + 8;
            manifests.insert("m".to_string(), vec![0x5A; len - fixed]);
        }
        let dummy: Vec<_> = (0..entries as u64).map(|i| (i, i, i)).collect();
        assert_eq!(build_record(&dummy, &manifests).len(), len);
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

    /// A medium where checkpoint 1 (manifest `m` = `old`: 16 bytes inline,
    /// one chain block) completed and checkpoint 2 (`m` = `new`, one redo
    /// entry) crashed right after its `COMMITTED` header landed — before the
    /// apply, so checkpoint 1's chain is still allocated.  Returns the
    /// surviving medium, the header slots and the rewritten block.
    fn crashed_after_commit(old: &[u8], new: &[u8]) -> (Arc<RamDisk>, [BlockId; 2], BlockId) {
        let run = |crash_after: u64| {
            let ram = RamDisk::new(BS);
            let plan = FaultPlan::new(0).with_crash_after(crash_after);
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

        // Format wrote slot 0, checkpoint 1 slot 1, checkpoint 2's commit
        // slot 0.  Damage only its inline bytes; the fixed 48 stay intact.
        let (ram, headers, id) = crashed_after_commit(&old, &new);
        let mut header = block(0);
        ram.read_block(headers[0], &mut header).unwrap();
        assert_eq!(header[16..24], STATE_COMMITTED.to_le_bytes(), "state field");
        header[HEADER_BYTES..].fill(0xEE);
        ram.write_block(headers[0], &header).unwrap();
        let r = Journal::recover(Arc::clone(&ram) as SharedDevice, headers).unwrap();
        assert_eq!(r.manifest("m"), Some(old), "rewound to checkpoint 1");
        let wal = r.overhead();
        assert_eq!((wal.chain_reads, wal.apply_writes), (1, 0), "{wal:?}");
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
        // The smallest block accepted: no inline room, the record is chained.
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
        // over.  Headers land on ids 0 and 1, the data blocks on 2 and 3.
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
}
