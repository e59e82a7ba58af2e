//! Crash-recovery integration tests: structures journaled through
//! [`pdm::Journal`] driven to a crash at an arbitrary transfer index, then
//! rebooted on the surviving medium.
//!
//! The scenarios, one per journaled thing in the repo:
//!
//! 1. a [`BTree`] applying batches, its root in manifest `"btree"`;
//! 2. a [`Shard`] flushing and compacting, whose `"btree"` and `"log"`
//!    manifests are the only ones library code writes;
//! 3. the journal alone, scripted: every block lifetime in every epoch, and
//!    a log appended to a manifest across three anchor cycles;
//! 4. the journal's cost: one tape run unjournaled and journaled.
//!
//! The contract under test:
//!
//! * **Recovery lands on a checkpoint.**  The rebooted structure's contents
//!   equal the model at the last acknowledged checkpoint — or, in the narrow
//!   window where the journal's commit record became durable but the caller
//!   never saw `Ok`, the model one checkpoint later.  Never a mix, never a
//!   torn state.
//! * **Recovery is idempotent.**  Running recovery twice yields the same
//!   manifests and the same contents as running it once.
//! * **The sweep is exhaustive in spirit.**  Crash points are drawn across
//!   the whole run (proptest) and stepped densely (deterministic sweeps), so
//!   every phase — epoch writes, chain writes, the commit header — gets
//!   hit.
//! * **Durability costs exactly the journal's own transfers.**  The same
//!   write tape run unjournaled and journaled on identical media differs by
//!   [`Journal::overhead`] and by nothing else — counts, so they are pinned.

use std::collections::BTreeMap;
use std::sync::Arc;

use emserve::Shard;
use emtree::BTree;
use pdm::{
    BlockDevice, BlockId, BufferPool, CrashSwitch, DiskArray, EvictionPolicy, FaultDisk, FaultPlan,
    IoMode, IoStats, Journal, PdmError, Placement, RamDisk, Result, RetryPolicy, SharedDevice,
    WalOverhead,
};
use proptest::prelude::*;

const BS: usize = 256;

/// The physical medium: `d` RAM disks that survive crashes of the devices
/// wrapped around them, plus the placement used to reassemble the array.
struct Medium {
    rams: Vec<Arc<RamDisk>>,
    placement: Placement,
    stats: Arc<IoStats>,
}

impl Medium {
    fn new(d: usize, placement: Placement) -> Self {
        Self::with_block_bytes(d, placement, BS)
    }

    fn with_block_bytes(d: usize, placement: Placement, bs: usize) -> Self {
        let stats = IoStats::new(d, bs);
        let rams = (0..d)
            .map(|i| Arc::new(RamDisk::with_stats(bs, Arc::clone(&stats), i)))
            .collect();
        Medium {
            rams,
            placement,
            stats,
        }
    }

    /// Fault-free array over the surviving disks (formatting / reboot).
    fn bare(&self) -> SharedDevice {
        DiskArray::from_devices(
            self.rams
                .iter()
                .map(|r| Arc::clone(r) as Arc<dyn BlockDevice>)
                .collect(),
            self.placement,
            IoMode::Synchronous,
            RetryPolicy::none(),
        )
    }

    /// Array whose members all die after `k` transfers (one shared fuse).
    fn crashy(&self, k: u64) -> SharedDevice {
        let switch = CrashSwitch::after(k);
        let disks = self
            .rams
            .iter()
            .enumerate()
            .map(|(i, r)| {
                FaultDisk::wrap(
                    Arc::clone(r) as SharedDevice,
                    FaultPlan::new(i as u64).with_crash(switch.clone()),
                ) as Arc<dyn BlockDevice>
            })
            .collect();
        DiskArray::from_devices(
            disks,
            self.placement,
            IoMode::Synchronous,
            RetryPolicy::none(),
        )
    }

    /// First boot on the pristine medium: create the journal's header pair.
    fn format(&self) -> [BlockId; 2] {
        let j = Journal::format(self.bare()).expect("formatting a pristine medium cannot fail");
        j.header_blocks()
            .expect("freshly formatted journal has headers")
    }

    /// Reboot twice and assert both recoveries agree on `manifest_name`
    /// (idempotence); return the second journal for content checks.
    fn reboot_twice(&self, headers: [BlockId; 2], manifest_name: &str) -> Arc<Journal> {
        let j1 = Journal::recover(self.bare(), headers).expect("first recovery must succeed");
        let m1 = j1.manifest(manifest_name);
        drop(j1);
        let j2 = Journal::recover(self.bare(), headers).expect("second recovery must succeed");
        assert_eq!(
            m1,
            j2.manifest(manifest_name),
            "second recovery produced a different `{manifest_name}` manifest"
        );
        j2
    }

    fn total_transfers(&self) -> u64 {
        self.stats.snapshot().total()
    }
}

fn placement_from(tag: u8) -> Placement {
    match tag % 3 {
        0 => Placement::Independent,
        1 => Placement::Striped,
        _ => Placement::RandomizedCycling { seed: 7 },
    }
}

/// Flatten an op-model (`key -> last op`) into the live map it describes.
fn live(model: &BTreeMap<u64, Option<u64>>) -> BTreeMap<u64, u64> {
    model
        .iter()
        .filter_map(|(&k, v)| v.map(|v| (k, v)))
        .collect()
}

// ---------------------------------------------------------------------------
// Scenario 1: BTree batch apply
// ---------------------------------------------------------------------------

fn open_tree(j: &Arc<Journal>) -> Result<BTree<u64, u64>> {
    let pool = BufferPool::new(Arc::clone(j) as SharedDevice, 8, EvictionPolicy::Lru);
    match j.manifest("btree") {
        None => BTree::new(pool),
        Some(m) => {
            assert_eq!(
                m.len(),
                24,
                "btree manifest is a (root, height, len) triple"
            );
            let root = u64::from_le_bytes(m[0..8].try_into().unwrap());
            let height = u64::from_le_bytes(m[8..16].try_into().unwrap()) as u32;
            let len = u64::from_le_bytes(m[16..24].try_into().unwrap());
            Ok(BTree::reattach(pool, root, height, len))
        }
    }
}

fn checkpoint_tree(j: &Arc<Journal>, tree: &BTree<u64, u64>) -> Result<()> {
    tree.pool().flush()?;
    let mut bm = Vec::with_capacity(24);
    bm.extend_from_slice(&tree.root().to_le_bytes());
    bm.extend_from_slice(&u64::from(tree.height()).to_le_bytes());
    bm.extend_from_slice(&tree.len().to_le_bytes());
    j.set_manifest("btree", bm);
    j.checkpoint()
}

/// Apply `batches` to a journaled B-tree with a checkpoint per batch, crash
/// after `k` transfers, reboot, and check the recovered tree equals the model
/// at the last checkpoint (or the commit-but-unacked one after it).
fn btree_crash_run(m: &Medium, k: u64, batches: &[Vec<(u64, Option<u64>)>]) -> bool {
    let headers = m.format();
    let mut acked: BTreeMap<u64, Option<u64>> = BTreeMap::new();
    let mut pending: BTreeMap<u64, Option<u64>> = BTreeMap::new();
    let mut crashed = true;
    let script = |j: &Arc<Journal>,
                  acked: &mut BTreeMap<u64, Option<u64>>,
                  pending: &mut BTreeMap<u64, Option<u64>>|
     -> Result<()> {
        let mut tree = open_tree(j)?;
        for batch in batches {
            for (key, op) in batch {
                pending.insert(*key, *op);
            }
            tree.apply_sorted_batch(batch.iter().cloned(), |_| {})?;
            checkpoint_tree(j, &tree)?;
            *acked = pending.clone();
        }
        Ok(())
    };
    if let Ok(j) = Journal::recover(m.crashy(k), headers) {
        crashed = script(&j, &mut acked, &mut pending).is_err();
    }
    let j = m.reboot_twice(headers, "btree");
    let tree = open_tree(&j).expect("reattach after recovery");
    tree.check_invariants()
        .expect("recovered tree is well-formed");
    let got: BTreeMap<u64, u64> = tree
        .range(&0, &u64::MAX)
        .expect("full scan of recovered tree")
        .into_iter()
        .collect();
    assert!(
        got == live(&acked) || got == live(&pending),
        "crash at {k}: recovered B-tree matches neither the last acked \
         checkpoint nor the commit-but-unacked one ({} live keys recovered)",
        got.len()
    );
    crashed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn btree_batch_apply_recovers_to_a_checkpoint(
        k in 0u64..4000,
        d_is_4 in any::<bool>(),
        placement_tag in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let d = if d_is_4 { 4 } else { 1 };
        let m = Medium::new(d, placement_from(placement_tag));
        // 4 batches of strictly-increasing keyed ops, ~25% deletes.
        let batches: Vec<Vec<(u64, Option<u64>)>> = (0..4u64)
            .map(|b| {
                (0..24u64)
                    .map(|i| {
                        let key = i * 3 % 71;
                        let x = seed ^ (b * 131 + i);
                        (key, (!x.is_multiple_of(4)).then_some(x))
                    })
                    .collect::<BTreeMap<u64, Option<u64>>>()
                    .into_iter()
                    .collect()
            })
            .collect();
        btree_crash_run(&m, k, &batches);
    }
}

// ---------------------------------------------------------------------------
// Scenario 2: Shard compaction (op log + B-tree + delta overlay)
// ---------------------------------------------------------------------------

fn shard_crash_run(m: &Medium, k: u64, seed: u64) -> bool {
    const KEYS: u64 = 40;
    let headers = m.format();
    let mut acked: BTreeMap<u64, Option<u64>> = BTreeMap::new();
    let mut pending: BTreeMap<u64, Option<u64>> = BTreeMap::new();
    let mut crashed = true;
    if let Ok(j) = Journal::recover(m.crashy(k), headers) {
        if let Ok(mut s) = Shard::<u64, u64>::recover(j, 16, 256, 16) {
            let mut op_id = 0u64;
            let result: Result<()> = (|| {
                for round in 0..8u64 {
                    for i in 0..8u64 {
                        let x = seed.wrapping_add(round * 131 + i * 17);
                        let key = x % KEYS;
                        let op = (!x.is_multiple_of(5)).then_some(x);
                        s.enqueue(1, op_id, key, op);
                        pending.insert(key, op);
                        op_id += 1;
                    }
                    s.flush_batch(|_, _| {})?;
                    acked = pending.clone();
                    // Force the compaction path into the sweep.
                    s.maybe_compact()?;
                }
                Ok(())
            })();
            crashed = result.is_err();
            std::mem::forget(s);
        }
    }
    let j = m.reboot_twice(headers, "btree");
    let s = Shard::<u64, u64>::recover(j, 16, 256, 16).expect("shard recovery");
    s.check_invariants().expect("recovered shard is consistent");
    let got: BTreeMap<u64, u64> = (0..KEYS)
        .filter_map(|key| s.get(1, &key).expect("recovered get").map(|v| (key, v)))
        .collect();
    assert!(
        got == live(&acked) || got == live(&pending),
        "crash at {k}: recovered shard matches neither checkpoint model"
    );
    crashed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn shard_compaction_recovers_every_acked_write(
        k in 0u64..6000,
        d_is_4 in any::<bool>(),
        placement_tag in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let d = if d_is_4 { 4 } else { 1 };
        let m = Medium::new(d, placement_from(placement_tag));
        shard_crash_run(&m, k, seed);
    }
}

/// Deterministic dense sweep over the shard, D = 4, striped placement.
#[test]
fn shard_dense_crash_sweep_striped() {
    let clean = Medium::new(4, Placement::Striped);
    let crashed = shard_crash_run(&clean, u64::MAX, 0x5EED);
    assert!(!crashed, "fault-free run must complete");
    let total = clean.total_transfers();
    let step = (total / 30).max(1);
    let mut mid_run = 0;
    for k in (0..total).step_by(step as usize) {
        let m = Medium::new(4, Placement::Striped);
        if shard_crash_run(&m, k, 0x5EED) {
            mid_run += 1;
        }
    }
    assert!(
        mid_run > 5,
        "sweep of {total} transfers barely crashed — widen it"
    );
}

// ---------------------------------------------------------------------------
// Scenario 3: the raw journal — every block lifetime in every epoch
// ---------------------------------------------------------------------------

/// The structures above allocate what they write inside one epoch; this
/// script puts every block lifetime the journal knows under the same sweep.
/// Every epoch writes and frees a block born in the epoch (straight home,
/// freed at once), replaces a committed block by a born one (deferred
/// free), and tries to rewrite a committed home in place, which the journal
/// refuses without a transfer.  The manifest names the two live blocks and
/// the epoch: the side block must hold exactly that epoch's payload, and
/// the home block the payload it was committed with.
///
/// Returns whether the run crashed.
fn journal_lifetimes_crash_run(m: &Medium, k: u64) -> bool {
    const EPOCHS: u64 = 6;
    let bs = m.bare().block_size();
    let payload = |epoch: u64, tag: u8| -> Vec<u8> {
        let mut b = vec![tag; bs];
        b[..8].copy_from_slice(&epoch.to_le_bytes());
        b
    };
    let slots = |home: BlockId, side: BlockId, epoch: u64| -> Vec<u8> {
        [home, side, epoch]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect()
    };
    // First boot on the pristine medium commits epoch 0.
    let j0 = Journal::format(m.bare()).expect("formatting a pristine medium cannot fail");
    let headers = j0.header_blocks().expect("formatted journal has headers");
    let home = j0.allocate().expect("allocate home");
    let side0 = j0.allocate().expect("allocate side");
    j0.write_block(home, &payload(0, b'h')).expect("write home");
    j0.write_block(side0, &payload(0, b's'))
        .expect("write side");
    j0.set_manifest("slots", slots(home, side0, 0));
    j0.checkpoint().expect("first checkpoint");
    drop(j0);

    let mut acked = 0u64;
    let mut crashed = true;
    if let Ok(j) = Journal::recover(m.crashy(k), headers) {
        let result: Result<()> = (|| {
            let mut side = side0;
            for epoch in 1..=EPOCHS {
                let before = m.total_transfers();
                let refused = j.write_block(home, &payload(epoch, b'h'));
                assert!(
                    matches!(refused, Err(PdmError::InvalidRequest(_))),
                    "crash at {k}: an in-place rewrite of a committed block was not refused"
                );
                assert_eq!(m.total_transfers(), before, "a refused write moved a block");
                let scratch = j.allocate()?;
                j.write_block(scratch, &payload(epoch, b'x'))?;
                j.free(scratch)?;
                let next = j.allocate()?;
                j.write_block(next, &payload(epoch, b's'))?;
                j.free(side)?;
                side = next;
                j.set_manifest("slots", slots(home, side, epoch));
                j.checkpoint()?;
                acked = epoch;
            }
            Ok(())
        })();
        crashed = result.is_err();
    }

    let j = m.reboot_twice(headers, "slots");
    assert_eq!(
        j.overhead().header_writes,
        0,
        "crash at {k}: recovery wrote a header"
    );
    let s = j.manifest("slots").expect("slots manifest");
    let word = |i: usize| u64::from_le_bytes(s[i * 8..(i + 1) * 8].try_into().unwrap());
    let (r_home, r_side, epoch) = (word(0), word(1), word(2));
    assert_eq!(r_home, home);
    assert!(
        epoch == acked || epoch == acked + 1,
        "crash at {k}: recovered epoch {epoch}, last acked {acked}"
    );
    let mut buf = vec![0u8; bs];
    j.read_block(r_home, &mut buf).expect("read home");
    assert_eq!(buf, payload(0, b'h'), "crash at {k}: home was rewritten");
    j.read_block(r_side, &mut buf).expect("read side");
    assert_eq!(buf, payload(epoch, b's'), "crash at {k}: side is torn");
    crashed
}

/// Crash at *every* transfer of the scripted run.
#[test]
fn journal_block_lifetimes_dense_crash_sweep() {
    let clean = Medium::new(2, Placement::Independent);
    assert!(
        !journal_lifetimes_crash_run(&clean, u64::MAX),
        "fault-free run must complete"
    );
    let total = clean.total_transfers();
    let mut mid_run = 0;
    for k in 0..total {
        let m = Medium::new(2, Placement::Independent);
        mid_run += u64::from(journal_lifetimes_crash_run(&m, k));
    }
    assert!(mid_run > 20, "sweep of {total} transfers barely crashed");
}

/// The shard's use of the journal without the shard: each epoch appends a
/// 40-byte batch to manifest `log`, and every sixth first resets it and
/// sets manifest `root`, as a compaction does.  So the run crosses three
/// anchor cycles: anchors while the full record fits the header, then
/// chained headers that carry one batch each.  Returns whether the run
/// crashed and the last acked epoch.
fn appended_log_crash_run(m: &Medium, k: u64) -> (bool, u64) {
    const EPOCHS: u64 = 18;
    let log_at = |e: u64| -> Vec<u8> {
        (e - (e.max(1) - 1) % 6..=e)
            .filter(|&x| x > 0)
            .flat_map(|x| [x as u8; 40])
            .collect()
    };
    let headers = m.format();
    let (mut crashed, mut acked) = (true, 0);
    if let Ok(j) = Journal::recover(m.crashy(k), headers) {
        let result: Result<()> = (|| {
            for e in 1..=EPOCHS {
                if (e - 1) % 6 == 0 {
                    j.set_manifest("log", Vec::new());
                    j.set_manifest("root", e.to_le_bytes().to_vec());
                }
                j.append_manifest("log", &[e as u8; 40]);
                j.checkpoint()?;
                acked = e;
            }
            Ok(())
        })();
        crashed = result.is_err();
    }
    let j = m.reboot_twice(headers, "log");
    let log = j.manifest("log").unwrap_or_default();
    assert!(
        log == log_at(acked) || log == log_at(acked + 1),
        "crash at {k}: a {}-byte log is no checkpoint's (last acked epoch {acked})",
        log.len()
    );
    (crashed, acked)
}

/// Crash at *every* transfer of the appending run.
#[test]
fn appended_log_dense_crash_sweep() {
    let clean = Medium::new(2, Placement::Independent);
    assert_eq!(appended_log_crash_run(&clean, u64::MAX), (false, 18));
    let total = clean.total_transfers();
    let mut mid_run = 0;
    for k in 0..total {
        let m = Medium::new(2, Placement::Independent);
        let (crashed, acked) = appended_log_crash_run(&m, k);
        mid_run += u64::from(crashed && acked > 0);
    }
    assert!(mid_run >= 17, "sweep of {total} transfers barely crashed");
}

// ---------------------------------------------------------------------------
// Scenario 4: what the journal costs — one tape, unjournaled and journaled
// ---------------------------------------------------------------------------

/// The ledger tape on a fresh D = 1 medium of 1 KiB blocks: 64 rounds of 32
/// puts and deletes over 4 096 keys, one `flush_batch` and one
/// `maybe_compact` per round — batches the size a server flushes, and (at
/// `compact_threshold` 512) an overlay of hundreds of keys between
/// compactions, so a checkpoint that cost more than its epoch changed would
/// show.  The unjournaled twin flushes its pool wherever the journaled shard
/// checkpoints — after every batch and after every compaction — so the two
/// runs differ by the journal's own transfers and nothing else.  Returns the
/// medium's lifetime `(reads, writes)` and the journal's account of itself.
fn ledger_run(journaled: bool) -> ((u64, u64), WalOverhead) {
    let m = Medium::with_block_bytes(1, Placement::Independent, 1024);
    let journal = journaled.then(|| Journal::format(m.bare()).expect("format journal"));
    let mut s: Shard<u64, u64> = match &journal {
        Some(j) => Shard::with_journal(Arc::clone(j), 16, 2048, 512),
        None => Shard::new(m.bare(), 16, 2048, 512),
    }
    .expect("fresh shard");
    let mut op_id = 0u64;
    for round in 0..64u64 {
        for i in 0..32u64 {
            let x = 0x5EED_u64.wrapping_add(round * 131 + i * 17);
            s.enqueue(1, op_id, x % 4096, (!x.is_multiple_of(5)).then_some(x));
            op_id += 1;
        }
        s.flush_batch(|_, _| {}).expect("flush");
        if !journaled {
            s.pool().flush().expect("twin's batch checkpoint");
        }
        if s.maybe_compact().expect("compact") && !journaled {
            s.pool().flush().expect("twin's compaction checkpoint");
        }
    }
    let snap = m.stats.snapshot();
    let wal = journal.map_or_else(WalOverhead::default, |j| j.overhead());
    ((snap.reads(), snap.writes()), wal)
}

/// A checkpoint whose header carries an `r`-byte record costs
/// `1 + ⌈(r − (B − 48))⁺ / (B − 16)⌉` transfers (one header and the
/// overflow blocks the record spills into); `format` adds one header.  A
/// compaction's checkpoint is an anchor: its full record, the one tree's
/// 28-byte entry and an empty log, fits the header's 976 inline bytes, and
/// so does the next flush's, with 32 log records.  Every later flush's
/// header is chained and carries only its batch, 43 + 672 bytes.  So the
/// journal is exactly one header per checkpoint (EXPERIMENTS.md F21).
///
/// The pins: 6 reads, all of them compactions reading the old tree's nodes
/// that the 16-frame pool does not hold (nothing reads the log); 72
/// unjournaled writes, the new tree nodes, every one packed full of 16-byte
/// records (63 a leaf), and no log at all.  The tree is created by the
/// first compaction, so no empty root leaf is written.  Reads were 34 while
/// a rebuild evicted the old nodes it was about to read with its own
/// writes.  They were 34 r / 112 w while the log wrote a block of 48
/// records whenever they gathered, 44 r / 129 w while one tree held every
/// tenant under a 20-byte `(tenant, key)` entry, 62 r / 158 w while
/// bulk-built leaves were ¾ full and internal nodes half full, and 62 r /
/// 174 w and 62 r / 267 w while the shard's writes went through a buffer
/// tree, whose manifest overflowed into 24 chain blocks.
#[test]
fn journal_costs_exactly_its_own_transfers() {
    let ((ur, uw), _) = ledger_run(false);
    let ((jr, jw), wal) = ledger_run(true);
    // Counts, not a distribution.
    assert_eq!((ur, uw), ledger_run(false).0, "unjournaled run moved");
    assert_eq!(((jr, jw), wal), ledger_run(true), "journaled run moved");

    assert_eq!(
        (jr + jw) - (ur + uw),
        wal.total(),
        "journaled {jr} r / {jw} w - unjournaled {ur} r / {uw} w is not the journal's own {wal:?}"
    );
    assert!(
        wal.total() as f64 <= 2.0 * wal.checkpoints as f64,
        "more than its header write and the manifests' chain blocks per checkpoint: {wal:?}"
    );
    // Nothing is redirected and nothing is copied home.
    assert_eq!(
        (wal.shadow_writes, wal.apply_reads, wal.apply_writes),
        (0, 0, 0),
        "{wal:?}"
    );

    assert_eq!((ur, uw), (6, 72));
    assert_eq!((jr, jw), (6, 141));
    // 69 journal transfers: format's header and one per checkpoint.
    let pinned = WalOverhead {
        header_writes: 69,
        checkpoints: 68,
        ..WalOverhead::default()
    };
    assert_eq!(wal, pinned);
}
