//! Deterministic fault injection for block devices.
//!
//! Vitter's parallel-disk model earns its keep at *many* physical disks —
//! exactly the regime where transient device failure is routine.  This
//! module makes failure a first-class, reproducible input: a [`FaultDisk`]
//! wraps any [`BlockDevice`] and executes a seed-driven [`FaultPlan`], so a
//! test can drive a whole sort/tree/queue workload through a flaky disk and
//! assert the only two legal outcomes — byte-identical output (with retries
//! counted) or a clean `Err` — without ever seeing a panic, a deadlock, or
//! silent corruption.
//!
//! Every fault decision is a pure hash of `(seed, block id, operation)`, so
//! a plan is reproducible across runs and across retry attempts: a permanent
//! fault stays permanent no matter how often it is retried, while a
//! transient fault fails a fixed number of attempts and then succeeds.  The
//! fault kinds compose per block:
//!
//! * **Transient errors** — the first `k` attempts on an afflicted block
//!   return `PdmError::Io` *without touching the device*: no block moved, so
//!   nothing is counted.  A [`RetryPolicy`](crate::RetryPolicy) cures these;
//!   each cure costs exactly the retries recorded in
//!   [`IoStats::retries`](crate::IoStats).
//! * **Permanent block failures** — every attempt on an afflicted block
//!   fails.  Retries cannot cure these; with retries enabled they surface as
//!   [`PdmError::RetriesExhausted`](crate::PdmError::RetriesExhausted).
//! * **Torn writes** — the first write attempt on an afflicted block
//!   *persists a corrupted prefix* (the transfer happens and is counted) and
//!   returns an error; a retry overwrites the torn block with the correct
//!   bytes.  This is the classic partial-sector failure mode: the danger is
//!   a caller that ignores the error and later reads garbage.
//! * **Latency** — afflicted transfers sleep before executing.  No error is
//!   produced and no fault is counted.  Spikes shake out ordering
//!   assumptions in overlapped pipelines; at a rate of 1000 every transfer
//!   takes the delay, which is the slow device of the tests that time
//!   overlap.  This is the one place the substrate sleeps.
//!
//! A permanent rate of 1000 afflicts every block: the lane is dead,
//! modelling the loss of one member disk of a [`DiskArray`](crate::DiskArray).
//!
//! For whole-machine failure there is the [`CrashSwitch`]: a shared fuse that
//! burns down by one on every transfer through any plan carrying it, and when
//! it reaches zero the *crash point* fires — an in-flight write persists a
//! torn prefix and errors, and every later transfer on every disk sharing the
//! switch fails.  Because the fuse is deterministic in the transfer sequence,
//! a proptest can sweep k over every transfer of a workload and assert that
//! recovery (see [`Journal`](crate::Journal)) reaches a consistent state from
//! *any* crash point.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::device::{BlockDevice, BlockId};
use crate::error::{PdmError, Result};
use crate::lock;
use crate::stats::IoStats;

/// Per-mille denominator for fault rates: a rate of 1000 afflicts every
/// block, 0 afflicts none.
const SCALE: u64 = 1000;

// Hash salts, one per independent fault decision.
const SALT_TRANSIENT_READ: u64 = 0x5EED_0001;
const SALT_TRANSIENT_WRITE: u64 = 0x5EED_0002;
const SALT_PERMANENT: u64 = 0x5EED_0003;
const SALT_TORN: u64 = 0x5EED_0004;
const SALT_LATENCY: u64 = 0x5EED_0005;

// Attempt-counter namespaces (one counter per afflicted block and kind).
const CTR_TRANSIENT_READ: u8 = 0;
const CTR_TRANSIENT_WRITE: u8 = 1;
const CTR_TORN: u8 = 2;

fn splitmix64(x: u64) -> u64 {
    crate::hash::splitmix(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// The bytes a torn write leaves on the medium: first half bit-flipped,
/// tail never lands.
fn torn_copy(buf: &[u8]) -> Vec<u8> {
    let mut torn = buf.to_vec();
    let half = torn.len() / 2;
    for b in &mut torn[..half] {
        *b = !*b;
    }
    for b in &mut torn[half..] {
        *b = 0xEE;
    }
    torn
}

/// FNV-1a over a byte slice; fingerprints the intended payload of a torn
/// write so a later repair attempt can be checked against it.
fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A shared crash fuse: burns down by one on each transfer executed through
/// any [`FaultPlan`] carrying a clone of the switch, and fires when it hits
/// zero.
///
/// The transfer that finds the fuse already spent *is* the crash point: a
/// write persists a torn prefix (the transfer is counted — a sector was in
/// flight when the power died) and returns an error; a read fails without
/// touching the device.  From then on every transfer through the switch
/// fails, modelling a machine that is down until "reboot" (a new device
/// stack over the surviving media).  Allocation, freeing and statistics keep
/// working — they are in-memory bookkeeping of the simulation harness, not
/// the medium.
#[derive(Debug, Clone)]
pub struct CrashSwitch {
    inner: Arc<CrashInner>,
}

#[derive(Debug)]
struct CrashInner {
    /// Transfers remaining before the crash fires.
    fuse: AtomicU64,
    crashed: AtomicBool,
}

impl CrashSwitch {
    /// A switch that lets `k` transfers complete and crashes on transfer
    /// `k + 1`.  `k = 0` crashes on the very first transfer.
    pub fn after(k: u64) -> Self {
        CrashSwitch {
            inner: Arc::new(CrashInner {
                fuse: AtomicU64::new(k),
                crashed: AtomicBool::new(false),
            }),
        }
    }

    /// True once the crash point has fired.
    pub(crate) fn is_crashed(&self) -> bool {
        self.inner.crashed.load(Ordering::Acquire)
    }

    /// Burn one transfer off the fuse.  Returns `true` if this transfer is
    /// at or past the crash point.
    fn burn(&self) -> bool {
        if self.inner.crashed.load(Ordering::Acquire) {
            return true;
        }
        let spent = self
            .inner
            .fuse
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |f| f.checked_sub(1))
            .is_err();
        if spent {
            self.inner.crashed.store(true, Ordering::Release);
        }
        spent
    }
}

/// A deterministic, seed-driven description of which transfers fail and how.
///
/// Built with the `with_*` methods; the default plan injects nothing, so a
/// `FaultDisk` carrying it is a transparent wrapper.  Rates are per-mille
/// (out of 1000) over *blocks*: an afflicted block misbehaves on every run
/// with the same seed.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    transient_permille: u64,
    /// How many attempts fail before a transient block recovers.
    transient_attempts: u32,
    permanent_permille: u64,
    torn_permille: u64,
    latency_permille: u64,
    latency: Duration,
    /// Shared whole-machine crash fuse; see [`CrashSwitch`].
    crash: Option<CrashSwitch>,
    /// Verify that a repair of a torn block rewrites the originally
    /// submitted bytes; see [`with_torn_writes_verified`]
    /// (Self::with_torn_writes_verified).
    torn_verify: bool,
}

impl FaultPlan {
    /// A plan (initially injecting nothing) whose fault decisions derive
    /// from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// Afflict `permille`/1000 of blocks with transient errors: the first
    /// `attempts` transfers (per direction) on such a block fail without
    /// touching the device, then it recovers.
    pub fn with_transient(mut self, permille: u64, attempts: u32) -> Self {
        assert!(permille <= SCALE, "rate is per-mille");
        self.transient_permille = permille;
        self.transient_attempts = attempts;
        self
    }

    /// Afflict `permille`/1000 of blocks with permanent failure: every
    /// transfer on such a block fails, forever.
    pub fn with_permanent_blocks(mut self, permille: u64) -> Self {
        assert!(permille <= SCALE, "rate is per-mille");
        self.permanent_permille = permille;
        self
    }

    /// Afflict `permille`/1000 of blocks with a torn first write: corrupted
    /// bytes are persisted (and the transfer counted) before the error
    /// returns; a retry writes the block correctly.
    pub fn with_torn_writes(mut self, permille: u64) -> Self {
        assert!(permille <= SCALE, "rate is per-mille");
        self.torn_permille = permille;
        self
    }

    /// Delay `permille`/1000 of transfers by `latency` before executing
    /// them.  No error is produced.
    ///
    /// At `permille = 1000` this is tier-1's slow device: each lane of an
    /// overlapped [`DiskArray`](crate::DiskArray) sleeps on its own worker,
    /// so the lanes' delays overlap as busy disks' would.
    pub fn with_latency(mut self, permille: u64, latency: Duration) -> Self {
        assert!(permille <= SCALE, "rate is per-mille");
        self.latency_permille = permille;
        self.latency = latency;
        self
    }

    /// Like [`with_torn_writes`](Self::with_torn_writes), and additionally
    /// *verify the repair*: when the torn block is next written, the bytes
    /// must fingerprint-match the payload originally submitted.  A retry
    /// that rewrites different bytes — the classic symptom of a retry loop
    /// holding a moved-out or clobbered buffer instead of the submitted one
    /// — fails with a distinctive error instead of silently persisting the
    /// wrong data.
    pub fn with_torn_writes_verified(mut self, permille: u64) -> Self {
        assert!(permille <= SCALE, "rate is per-mille");
        self.torn_permille = permille;
        self.torn_verify = true;
        self
    }

    /// Arm this plan with a whole-machine crash fuse shared with every other
    /// plan holding a clone of `switch`; see [`CrashSwitch`].
    pub fn with_crash(mut self, switch: CrashSwitch) -> Self {
        self.crash = Some(switch);
        self
    }

    /// Deterministic per-block decision: does the fault kind under `salt`
    /// afflict `block` at `permille` rate?  Seed and salt are hashed before
    /// the block is mixed in, so two seeds (or two kinds) pick their blocks
    /// independently rather than as XOR-translates of one set.
    fn afflicts(&self, salt: u64, block: BlockId, permille: u64) -> bool {
        permille > 0
            && splitmix64(splitmix64(self.seed ^ salt.wrapping_mul(0x9E6C_63D0)) ^ block) % SCALE
                < permille
    }
}

/// A [`BlockDevice`] wrapper executing a [`FaultPlan`] against an inner
/// device.
///
/// Transfers that fault are reported through the inner device's
/// [`IoStats::faults_injected`](crate::IoStats) counter; transfers the plan
/// leaves alone pass straight through.  Allocation, freeing and statistics
/// are never faulted — the plan models the *medium* failing, not the
/// in-memory bookkeeping above it.
pub struct FaultDisk {
    inner: Arc<dyn BlockDevice>,
    plan: FaultPlan,
    stats: Arc<IoStats>,
    /// Attempt counters per (block, fault-kind); transient and torn faults
    /// clear after their budgeted number of failures.
    attempts: Mutex<HashMap<(BlockId, u8), u32>>,
    /// Fingerprints of the payload each torn block *should* have carried;
    /// consulted by repair attempts when the plan verifies torn repairs.
    torn_expected: Mutex<HashMap<BlockId, u64>>,
}

impl FaultDisk {
    /// Wrap `inner` so that its transfers execute `plan`.
    pub fn wrap(inner: Arc<dyn BlockDevice>, plan: FaultPlan) -> Arc<Self> {
        let stats = inner.stats();
        Arc::new(FaultDisk {
            inner,
            plan,
            stats,
            attempts: Mutex::new(HashMap::new()),
            torn_expected: Mutex::new(HashMap::new()),
        })
    }

    /// The plan this disk executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn injected(&self, what: &str, id: BlockId) -> PdmError {
        self.stats.record_fault_injected();
        PdmError::Io(std::io::Error::other(format!(
            "injected {what} fault on block {id}"
        )))
    }

    /// Faults common to both directions; returns an error if the transfer
    /// must fail before reaching the device.
    fn gate_common(&self, id: BlockId) -> Result<()> {
        if self
            .plan
            .afflicts(SALT_PERMANENT, id, self.plan.permanent_permille)
        {
            return Err(self.injected("permanent", id));
        }
        if self
            .plan
            .afflicts(SALT_LATENCY, id, self.plan.latency_permille)
            && !self.plan.latency.is_zero()
        {
            std::thread::sleep(self.plan.latency);
        }
        Ok(())
    }

    /// True while the transient-failure budget for `(id, ctr)` has not been
    /// spent; each call consumes one failing attempt.
    fn transient_fires(&self, id: BlockId, ctr: u8) -> bool {
        let mut attempts = lock(&self.attempts);
        let n = attempts.entry((id, ctr)).or_insert(0);
        if *n < self.plan.transient_attempts {
            *n += 1;
            true
        } else {
            false
        }
    }

    /// True exactly once per block: the first write tears, retries don't.
    fn torn_fires(&self, id: BlockId) -> bool {
        let mut attempts = lock(&self.attempts);
        let n = attempts.entry((id, CTR_TORN)).or_insert(0);
        if *n == 0 {
            *n = 1;
            true
        } else {
            false
        }
    }
}

impl BlockDevice for FaultDisk {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn allocated_blocks(&self) -> u64 {
        self.inner.allocated_blocks()
    }

    fn allocate(&self) -> Result<BlockId> {
        self.inner.allocate()
    }

    fn free(&self, id: BlockId) -> Result<()> {
        self.inner.free(id)
    }

    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<()> {
        if let Some(crash) = &self.plan.crash {
            if crash.burn() {
                // Down — at or past the crash point.  Reads move nothing.
                return Err(self.injected("crash", id));
            }
        }
        self.gate_common(id)?;
        if self
            .plan
            .afflicts(SALT_TRANSIENT_READ, id, self.plan.transient_permille)
            && self.transient_fires(id, CTR_TRANSIENT_READ)
        {
            return Err(self.injected("transient read", id));
        }
        self.inner.read_block(id, buf)
    }

    fn write_block(&self, id: BlockId, buf: &[u8]) -> Result<()> {
        if let Some(crash) = &self.plan.crash {
            let was_down = crash.is_crashed();
            if crash.burn() {
                if !was_down {
                    // The crash point itself: this write was in flight when
                    // the machine died, so a torn prefix lands on the medium
                    // (and the transfer is counted) before the error.
                    let _ = self.inner.write_block(id, &torn_copy(buf));
                }
                return Err(self.injected("crash", id));
            }
        }
        self.gate_common(id)?;
        if self.plan.torn_verify {
            let mut expected = lock(&self.torn_expected);
            if let Some(&fp) = expected.get(&id) {
                if fp != fingerprint(buf) {
                    // Not an injected fault: the *caller* is repairing the
                    // torn block with bytes other than the ones it originally
                    // submitted (a moved-out or clobbered retry buffer).
                    return Err(PdmError::Io(std::io::Error::other(format!(
                        "torn-write repair of block {id} rewrote different bytes \
                         than the original submission"
                    ))));
                }
                expected.remove(&id);
            }
        }
        if self.plan.afflicts(SALT_TORN, id, self.plan.torn_permille) && self.torn_fires(id) {
            // Persist a corrupted prefix: the first half of the block is
            // bit-flipped, the tail never lands.  The transfer really
            // happened (and is counted); only then does the error surface.
            if self.plan.torn_verify {
                lock(&self.torn_expected).insert(id, fingerprint(buf));
            }
            self.inner.write_block(id, &torn_copy(buf))?;
            return Err(self.injected("torn write", id));
        }
        if self
            .plan
            .afflicts(SALT_TRANSIENT_WRITE, id, self.plan.transient_permille)
            && self.transient_fires(id, CTR_TRANSIENT_WRITE)
        {
            return Err(self.injected("transient write", id));
        }
        self.inner.write_block(id, buf)
    }

    fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    fn lane_of(&self, id: BlockId) -> Option<usize> {
        self.inner.lane_of(id)
    }

    fn stream_lanes(&self) -> usize {
        self.inner.stream_lanes()
    }

    fn direct_next_stream(&self, lane: usize) {
        self.inner.direct_next_stream(lane)
    }

    fn barrier(&self) -> Result<()> {
        self.inner.barrier()
    }
}

#[cfg(test)]
impl FaultPlan {
    /// True if this plan can never inject anything.
    fn is_benign(&self) -> bool {
        self.crash.is_none()
            && self.transient_permille == 0
            && self.permanent_permille == 0
            && self.torn_permille == 0
            && self.latency_permille == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ram_disk::RamDisk;

    fn faulty(plan: FaultPlan) -> Arc<FaultDisk> {
        FaultDisk::wrap(RamDisk::new(16), plan)
    }

    #[test]
    fn benign_plan_is_transparent() {
        let disk = faulty(FaultPlan::new(1));
        assert!(disk.plan().is_benign());
        let id = disk.allocate().unwrap();
        disk.write_block(id, &[7u8; 16]).unwrap();
        let mut out = [0u8; 16];
        disk.read_block(id, &mut out).unwrap();
        assert_eq!(out, [7u8; 16]);
        let snap = disk.stats().snapshot();
        assert_eq!(snap.faults_injected(), 0);
        assert_eq!(snap.total(), 2);
    }

    #[test]
    fn transient_fails_first_k_attempts_without_counting_transfers() {
        // Rate 1000 afflicts every block.
        let disk = faulty(FaultPlan::new(42).with_transient(1000, 2));
        let id = disk.allocate().unwrap();
        let mut out = [0u8; 16];
        assert!(disk.read_block(id, &mut out).is_err());
        assert!(disk.read_block(id, &mut out).is_err());
        disk.read_block(id, &mut out).unwrap();
        let snap = disk.stats().snapshot();
        assert_eq!(snap.reads(), 1, "failed attempts move no block");
        assert_eq!(snap.faults_injected(), 2);
        // Recovered: further reads succeed.
        disk.read_block(id, &mut out).unwrap();
    }

    #[test]
    fn fault_decisions_are_deterministic_per_seed() {
        let plan = FaultPlan::new(7).with_permanent_blocks(500);
        let a = faulty(plan.clone());
        let b = faulty(plan);
        let mut out = [0u8; 16];
        for _ in 0..32 {
            let ia = a.allocate().unwrap();
            let ib = b.allocate().unwrap();
            assert_eq!(ia, ib);
            assert_eq!(
                a.read_block(ia, &mut out).is_err(),
                b.read_block(ib, &mut out).is_err(),
                "same seed, same verdict on block {ia}"
            );
        }
        // A 500-permille plan over 32 blocks afflicts some but not all.
        let faults = a.stats().snapshot().faults_injected();
        assert!(faults > 0 && faults < 32, "got {faults} faults");
    }

    #[test]
    fn permanent_faults_survive_retries() {
        let disk = faulty(FaultPlan::new(3).with_permanent_blocks(1000));
        let id = disk.allocate().unwrap();
        let mut out = [0u8; 16];
        for _ in 0..4 {
            assert!(disk.read_block(id, &mut out).is_err());
            assert!(disk.write_block(id, &[1u8; 16]).is_err());
        }
        assert_eq!(disk.stats().snapshot().total(), 0);
    }

    #[test]
    fn torn_write_persists_corruption_then_retry_repairs() {
        let disk = faulty(FaultPlan::new(9).with_torn_writes(1000));
        let id = disk.allocate().unwrap();
        let data = [0x11u8; 16];
        assert!(disk.write_block(id, &data).is_err(), "first write tears");
        let mut out = [0u8; 16];
        disk.read_block(id, &mut out).unwrap();
        assert_ne!(out, data, "torn bytes really landed");
        assert_ne!(out, [0u8; 16], "block is not untouched either");
        // The retry goes through and repairs the block.
        disk.write_block(id, &data).unwrap();
        disk.read_block(id, &mut out).unwrap();
        assert_eq!(out, data);
        let snap = disk.stats().snapshot();
        assert_eq!(snap.writes(), 2, "torn write still moved a block");
        assert_eq!(snap.faults_injected(), 1);
    }

    #[test]
    fn dead_lane_fails_everything_but_metadata() {
        let disk = faulty(FaultPlan::new(0).with_permanent_blocks(1000));
        let id = disk.allocate().unwrap();
        assert!(disk.write_block(id, &[0u8; 16]).is_err());
        let mut out = [0u8; 16];
        assert!(disk.read_block(id, &mut out).is_err());
        disk.free(id).unwrap();
        assert_eq!(disk.stats().snapshot().faults_injected(), 2);
    }

    #[test]
    fn crash_after_k_tears_the_in_flight_write_then_fails_everything() {
        let disk = faulty(FaultPlan::new(0).with_crash(CrashSwitch::after(2)));
        let a = disk.allocate().unwrap();
        let b = disk.allocate().unwrap();
        disk.write_block(a, &[0x11u8; 16]).unwrap();
        disk.write_block(b, &[0x22u8; 16]).unwrap();
        // Transfer 3 is the crash point: the write tears and errors.
        assert!(disk.write_block(a, &[0x33u8; 16]).is_err());
        // The machine is down: reads and writes fail, metadata still works.
        let mut out = [0u8; 16];
        assert!(disk.read_block(b, &mut out).is_err());
        assert!(disk.write_block(b, &[0x44u8; 16]).is_err());
        disk.free(b).unwrap();
        assert!(!disk.plan().is_benign());
        let snap = disk.stats().snapshot();
        assert_eq!(snap.writes(), 3, "the torn crash write was in flight");
        assert_eq!(snap.reads(), 0);
    }

    #[test]
    fn crash_switch_is_shared_across_disks() {
        let switch = CrashSwitch::after(1);
        let a = faulty(FaultPlan::new(0).with_crash(switch.clone()));
        let b = faulty(FaultPlan::new(1).with_crash(switch.clone()));
        let ia = a.allocate().unwrap();
        let ib = b.allocate().unwrap();
        a.write_block(ia, &[1u8; 16]).unwrap();
        assert!(!switch.is_crashed());
        // The fuse is shared: disk b's first transfer is global transfer 2.
        assert!(b.write_block(ib, &[2u8; 16]).is_err());
        assert!(switch.is_crashed());
        let mut out = [0u8; 16];
        assert!(a.read_block(ia, &mut out).is_err(), "a is down too");
    }

    #[test]
    fn crash_point_read_moves_no_block() {
        let disk = faulty(FaultPlan::new(0).with_crash(CrashSwitch::after(0)));
        let id = disk.allocate().unwrap();
        let mut out = [0u8; 16];
        assert!(disk.read_block(id, &mut out).is_err());
        assert_eq!(disk.stats().snapshot().total(), 0);
    }

    #[test]
    fn verified_torn_repair_accepts_the_original_bytes() {
        let disk = faulty(FaultPlan::new(9).with_torn_writes_verified(1000));
        let id = disk.allocate().unwrap();
        let data = [0x5Au8; 16];
        assert!(disk.write_block(id, &data).is_err(), "first write tears");
        disk.write_block(id, &data).unwrap();
        let mut out = [0u8; 16];
        disk.read_block(id, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn verified_torn_repair_rejects_different_bytes() {
        let disk = faulty(FaultPlan::new(9).with_torn_writes_verified(1000));
        let id = disk.allocate().unwrap();
        assert!(disk.write_block(id, &[0x5Au8; 16]).is_err());
        // A retry holding the wrong buffer must not silently "repair".
        let err = disk.write_block(id, &[0u8; 16]).unwrap_err();
        assert!(
            err.to_string().contains("rewrote different bytes"),
            "got: {err}"
        );
        let before = disk.stats().snapshot().faults_injected();
        // The correct bytes still go through afterwards.
        disk.write_block(id, &[0x5Au8; 16]).unwrap();
        assert_eq!(
            disk.stats().snapshot().faults_injected(),
            before,
            "a repair mismatch is a caller bug, not an injected fault"
        );
    }

    #[test]
    fn seeds_and_kinds_pick_their_blocks_independently() {
        // The blocks among 0..4096 that `salt` afflicts under `seed`.
        let picked = |seed: u64, salt: u64| -> Vec<BlockId> {
            let plan = FaultPlan::new(seed);
            (0..4096).filter(|&b| plan.afflicts(salt, b, 50)).collect()
        };
        // True if some `t` maps `a` onto `b` by `x ↦ x ^ t`; such a `t`
        // takes `a[0]` to some member of `b`.
        let translates = |a: &[BlockId], b: &[BlockId]| {
            b.iter().map(|y| a[0] ^ y).any(|t| {
                let mut moved: Vec<BlockId> = a.iter().map(|x| x ^ t).collect();
                moved.sort_unstable();
                moved == b
            })
        };
        for seed in 0..8 {
            let here = picked(seed, SALT_PERMANENT);
            assert!(!here.is_empty());
            assert!(
                !translates(&here, &picked(seed + 1, SALT_PERMANENT)),
                "seeds {seed} and {} pick one set, translated",
                seed + 1
            );
            assert!(
                !translates(&here, &picked(seed, SALT_TRANSIENT_WRITE)),
                "two kinds under seed {seed} pick one set, translated"
            );
        }
    }

    #[test]
    fn latency_spikes_produce_no_errors_or_fault_counts() {
        let disk = faulty(FaultPlan::new(5).with_latency(1000, Duration::from_micros(50)));
        let id = disk.allocate().unwrap();
        disk.write_block(id, &[9u8; 16]).unwrap();
        let mut out = [0u8; 16];
        disk.read_block(id, &mut out).unwrap();
        assert_eq!(out, [9u8; 16]);
        let snap = disk.stats().snapshot();
        assert_eq!(snap.faults_injected(), 0);
        assert_eq!(snap.total(), 2);
    }
}
