//! Fault-injection integration tests: external-memory algorithms driven on
//! top of deterministic [`FaultDisk`] arrays under randomized (but
//! seed-reproducible) fault plans.
//!
//! The contract under test, for every structure in the repo:
//!
//! * **Cured faults are invisible.**  With a transient-only plan and a
//!   [`RetryPolicy`] generous enough to outlast it, every operation succeeds,
//!   the output is byte-identical to a fault-free run, the block-transfer
//!   counts are identical (failed attempts never touch the device), and
//!   `retries == faults_injected`.
//! * **Uncured faults fail cleanly.**  With arbitrary plans (transient
//!   beyond the retry budget, torn writes, permanent block failures) an
//!   operation either completes correctly or returns `Err` — it never
//!   panics, deadlocks, or silently yields corrupted data.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use em_core::{ExtVec, ExtVecWriter};
use emsort::{merge_sort_by, OverlapConfig, SortConfig};
use emtree::{BTree, ExtQueue, ExtStack};
use pdm::{
    BlockDevice, BufferPool, DiskArray, EvictionPolicy, FaultDisk, FaultPlan, IoMode, Placement,
    RamDisk, RetryPolicy, SharedDevice,
};
use proptest::prelude::*;

/// One plan per disk, all derived from `seed` but decorrelated per member.
fn mk_plans(
    d: usize,
    seed: u64,
    transient_permille: u64,
    fail_attempts: u32,
    torn_permille: u64,
    permanent_permille: u64,
    latency_permille: u64,
) -> Vec<FaultPlan> {
    (0..d)
        .map(|i| {
            let mut p = FaultPlan::new(seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9));
            if transient_permille > 0 {
                p = p.with_transient(transient_permille, fail_attempts);
            }
            if torn_permille > 0 {
                p = p.with_torn_writes(torn_permille);
            }
            if permanent_permille > 0 {
                p = p.with_permanent_blocks(permanent_permille);
            }
            if latency_permille > 0 {
                p = p.with_latency(latency_permille, Duration::from_micros(5));
            }
            p
        })
        .collect()
}

/// Build the input, sort it, and read the result — every fallible step folded
/// into one `Result` so uncured faults surface as a clean `Err`.
fn try_sort(device: &SharedDevice, data: &[u64], cfg: &SortConfig) -> pdm::Result<Vec<u64>> {
    ExtVec::from_slice(device.clone(), data)
        .and_then(|input| merge_sort_by(&input, cfg, |a, b| a < b))
        .and_then(|out| out.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Transient-only plans fully cured by retry: the sort must finish with
    /// output and transfer counts identical to a fault-free run, and every
    /// injected fault must be matched by exactly one retry.
    #[test]
    fn sort_with_cured_transient_faults_matches_fault_free_run(
        data in prop::collection::vec(any::<u64>(), 0..1000),
        seed in any::<u64>(),
        permille in 1usize..=250,
        fail_attempts in 1usize..=2,
        latency_permille in 0usize..=100,
        overlapped in any::<bool>(),
    ) {
        let mode = if overlapped { IoMode::Overlapped } else { IoMode::Synchronous };
        let cfg = SortConfig::new(128).with_overlap(OverlapConfig::symmetric(1));

        let clean = DiskArray::new_ram_with(2, 64, Placement::Independent, mode) as SharedDevice;
        let expect = try_sort(&clean, &data, &cfg).unwrap();
        let clean_totals = clean.stats().snapshot();

        let plans = mk_plans(2, seed, permille as u64, fail_attempts as u32, 0, 0,
                             latency_permille as u64);
        let retry = RetryPolicy::new(fail_attempts as u32 + 1);
        let faulty = DiskArray::new_ram_faulty(2, 64, Placement::Independent, mode, &plans, retry)
            as SharedDevice;
        let got = try_sort(&faulty, &data, &cfg).unwrap();
        let totals = faulty.stats().snapshot();

        prop_assert_eq!(&got, &expect, "cured faults changed the output");
        prop_assert_eq!(totals.reads(), clean_totals.reads(),
                        "failed attempts must not count as transfers");
        prop_assert_eq!(totals.writes(), clean_totals.writes(),
                        "failed attempts must not count as transfers");
        prop_assert_eq!(totals.retries(), totals.faults_injected(),
                        "every transient fault needs exactly one retry");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary plans (possibly beyond the retry budget): the sort either
    /// completes with the correct output or returns a clean error.
    #[test]
    fn sort_with_arbitrary_faults_completes_or_errs_cleanly(
        data in prop::collection::vec(any::<u64>(), 0..700),
        seed in any::<u64>(),
        transient in 0usize..=120,
        torn in 0usize..=80,
        permanent in 0usize..=40,
        attempts in 0usize..=3,
    ) {
        let mut expect = data.clone();
        expect.sort_unstable();

        let plans = mk_plans(2, seed, transient as u64, 2, torn as u64, permanent as u64, 0);
        let retry = if attempts > 0 {
            RetryPolicy::new(attempts as u32)
        } else {
            RetryPolicy::none()
        };
        let device = DiskArray::new_ram_faulty(
            2, 64, Placement::Independent, IoMode::Synchronous, &plans, retry,
        ) as SharedDevice;
        let cfg = SortConfig::new(128);
        // A clean failure is acceptable under uncured faults; only an `Ok`
        // carries an obligation.
        if let Ok(got) = try_sort(&device, &data, &cfg) {
            prop_assert_eq!(got, expect, "a completed sort must be correct");
        }
    }

    /// ExtQueue and ExtStack against in-memory models.  Cured plans must
    /// agree with the model on every operation; uncured plans may error, but
    /// every `Ok` up to the first error must agree.
    #[test]
    fn queue_and_stack_mirror_models_under_faults(
        ops in prop::collection::vec(any::<u8>(), 0..500),
        seed in any::<u64>(),
        transient in 0usize..=200,
        torn in 0usize..=60,
        cured in any::<bool>(),
    ) {
        let torn = if cured { 0 } else { torn };
        let plans = mk_plans(1, seed, transient as u64, 1, torn as u64, 0, 0);
        let retry = if cured {
            RetryPolicy::new(2)
        } else {
            RetryPolicy::none()
        };
        let device = DiskArray::new_ram_faulty(
            1, 64, Placement::Independent, IoMode::Synchronous, &plans, retry,
        ) as SharedDevice;

        let mut queue = ExtQueue::<u64>::new(device.clone()).unwrap();
        let mut qmodel: VecDeque<u64> = VecDeque::new();
        let mut next = 0u64;
        let mut dead = false;
        for &op in &ops {
            if dead {
                break;
            }
            if op % 3 != 0 || qmodel.is_empty() {
                match queue.push(next) {
                    Ok(()) => {
                        qmodel.push_back(next);
                        next += 1;
                    }
                    Err(_) => {
                        prop_assert!(!cured, "cured queue push must not fail");
                        dead = true;
                    }
                }
            } else {
                match queue.pop() {
                    Ok(got) => prop_assert_eq!(got, qmodel.pop_front(), "queue pop diverged"),
                    Err(_) => {
                        prop_assert!(!cured, "cured queue pop must not fail");
                        dead = true;
                    }
                }
            }
        }

        let mut stack = ExtStack::<u64>::new(device.clone()).unwrap();
        let mut smodel: Vec<u64> = Vec::new();
        let mut dead = false;
        for &op in &ops {
            if dead {
                break;
            }
            if op % 3 != 0 || smodel.is_empty() {
                match stack.push(next) {
                    Ok(()) => {
                        smodel.push(next);
                        next += 1;
                    }
                    Err(_) => {
                        prop_assert!(!cured, "cured stack push must not fail");
                        dead = true;
                    }
                }
            } else {
                match stack.pop() {
                    Ok(got) => prop_assert_eq!(got, smodel.pop(), "stack pop diverged"),
                    Err(_) => {
                        prop_assert!(!cured, "cured stack pop must not fail");
                        dead = true;
                    }
                }
            }
        }
    }

    /// B-tree inserts and point lookups through a BufferPool on a faulty
    /// device: a cured run must behave exactly like a BTreeMap; an uncured
    /// run may error, after which we stop (state is unspecified but reaching
    /// it must not panic).
    #[test]
    fn btree_mirrors_model_under_faults(
        keys in prop::collection::vec(any::<u64>(), 1..300),
        seed in any::<u64>(),
        transient in 0usize..=150,
        cured in any::<bool>(),
    ) {
        let plans = mk_plans(1, seed, transient as u64, 1, 0, 0, 0);
        let retry = if cured {
            RetryPolicy::new(2)
        } else {
            RetryPolicy::none()
        };
        let device = DiskArray::new_ram_faulty(
            1, 128, Placement::Independent, IoMode::Synchronous, &plans, retry,
        ) as SharedDevice;
        let pool = BufferPool::new(device, 8, EvictionPolicy::Lru);

        match BTree::<u64, u64>::new(pool) {
            Err(_) => prop_assert!(!cured, "cured tree construction must not fail"),
            Ok(mut tree) => {
                let mut model: BTreeMap<u64, u64> = BTreeMap::new();
                let mut dead = false;
                for (i, &k) in keys.iter().enumerate() {
                    if dead {
                        break;
                    }
                    match tree.insert(k, i as u64) {
                        Ok(old) => {
                            prop_assert_eq!(old, model.insert(k, i as u64),
                                            "insert returned wrong previous value");
                        }
                        Err(_) => {
                            prop_assert!(!cured, "cured insert must not fail");
                            dead = true;
                        }
                    }
                }
                if !dead {
                    for (&k, &v) in &model {
                        match tree.get(&k) {
                            Ok(got) => prop_assert_eq!(got, Some(v), "lookup diverged"),
                            Err(_) => {
                                prop_assert!(!cured, "cured lookup must not fail");
                                break;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Torn writes persist a corrupted prefix and fail the attempt; a retry must
/// repair every block so the data read back is exactly what was written.
#[test]
fn torn_writes_are_repaired_by_retry() {
    let plans = vec![FaultPlan::new(0x70A2).with_torn_writes(1000)]; // every write torn once
    let device = DiskArray::new_ram_faulty(
        1,
        64,
        Placement::Independent,
        IoMode::Synchronous,
        &plans,
        RetryPolicy::new(2),
    ) as SharedDevice;
    let data: Vec<u64> = (0..500).map(|i| i * 3 + 1).collect();
    let vec = ExtVec::from_slice(device.clone(), &data).unwrap();
    assert_eq!(
        vec.to_vec().unwrap(),
        data,
        "retry left a torn block behind"
    );
    let snap = device.stats().snapshot();
    assert!(snap.faults_injected() > 0, "plan injected nothing");
    assert_eq!(
        snap.retries(),
        snap.faults_injected(),
        "each torn write needs exactly one repairing retry"
    );
}

/// A dead lane with retry enabled must give up after the configured number
/// of attempts and surface `RetriesExhausted` — never spin forever.
#[test]
fn dead_lane_surfaces_retries_exhausted_not_a_hang() {
    let plans = vec![FaultPlan::new(9).with_permanent_blocks(1000)];
    let device = DiskArray::new_ram_faulty(
        1,
        64,
        Placement::Independent,
        IoMode::Synchronous,
        &plans,
        RetryPolicy::new(3),
    ) as SharedDevice;
    match ExtVec::from_slice(device.clone(), &[1u64, 2, 3]) {
        Err(pdm::PdmError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 3),
        Err(other) => panic!("expected RetriesExhausted, got {other}"),
        Ok(_) => panic!("write to a dead lane cannot succeed"),
    }
}

/// One transient write failure in the middle of a bulk append, with no retry
/// layer underneath: `extend_from_slice` stops at the block that failed and
/// `len()` says how much it took; `finish` retries the flush in place, and
/// the array is the fault-free one, block for block.
#[test]
fn bulk_append_survives_one_transient_write_failure() {
    let data: Vec<u64> = (0..16).map(|i| i * 11 + 3).collect(); // two blocks of 8
    let clean = ExtVec::from_slice(RamDisk::new(64) as SharedDevice, &data).unwrap();

    let ram = RamDisk::new(64);
    // Seed 0 afflicts, of the two blocks written, only the second (and no
    // read): exactly one fault, asserted below.
    let device = FaultDisk::wrap(
        ram.clone() as SharedDevice,
        FaultPlan::new(0).with_transient(300, 1),
    );
    let mut w = ExtVecWriter::new(device.clone() as SharedDevice);
    w.push(data[0]).unwrap();
    assert!(w.extend_from_slice(&data[1..]).is_err());
    assert_eq!(
        w.len(),
        16,
        "every record was accepted before the flush failed"
    );
    let v = w.finish().unwrap();

    assert_eq!(v.to_vec().unwrap(), data);
    assert_eq!(v.num_blocks(), clean.num_blocks());
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for bi in 0..v.num_blocks() {
        v.read_block_into(bi, &mut got).unwrap();
        clean.read_block_into(bi, &mut want).unwrap();
        assert_eq!(got, want, "block {bi}");
    }
    assert_eq!(ram.allocated_blocks(), 2, "the retry reused its block");
    let snap = device.stats().snapshot();
    assert_eq!(snap.faults_injected(), 1);
    assert_eq!(
        snap.writes(),
        2,
        "a transient failure never touches the device"
    );
}
