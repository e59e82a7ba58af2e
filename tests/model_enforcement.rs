//! The model is enforced, not assumed: exceeding the declared internal
//! memory is a loud failure, and algorithms stay within their budgets.

use em_core::{EmConfig, ExtVec, MemBudget};
use emsort::{merge_sort, merge_sort_streaming, SortConfig, SortingWriter};
use pdm::{BufferPool, EvictionPolicy, PdmError};
use rand::prelude::*;

#[test]
#[should_panic(expected = "memory budget exceeded")]
fn overcharging_a_budget_panics() {
    let budget = MemBudget::new(100);
    let _a = budget.charge(80);
    let _b = budget.charge(30);
}

#[test]
fn sorts_respect_their_declared_budget() {
    // MemBudget panics internally on violation, so completing the sort *is*
    // the assertion; also check the recorded high-water mark.
    let cfg = EmConfig::new(256, 16);
    let device = cfg.ram_disk();
    let m = cfg.mem_records::<u64>();
    let mut rng = StdRng::seed_from_u64(2001);
    let data: Vec<u64> = (0..50_000).map(|_| rng.gen()).collect();
    let input = ExtVec::from_slice(device, &data).unwrap();
    let out = merge_sort(&input, &SortConfig::new(m)).unwrap();
    assert_eq!(out.len(), 50_000);
}

/// Two blocks form runs but cannot merge them: one merge charges `3B`.
/// Every sort of more than one load says so before it writes a block, and
/// one load still sorts in two blocks.
#[test]
fn two_blocks_of_memory_cannot_merge_and_say_so_before_writing() {
    let cfg = EmConfig::new(128, 16);
    let device = cfg.ram_disk();
    let b = cfg.block_records::<u64>();
    let sort_cfg = SortConfig::new(2 * b);
    let data: Vec<u64> = (0..5 * b as u64).rev().collect();
    let input = ExtVec::from_slice(device.clone(), &data).unwrap();
    let blocks = device.allocated_blocks();
    let before = device.stats().snapshot();
    let exceeded = |r: pdm::Result<()>| match r {
        Err(PdmError::MemoryExceeded { needed, available }) => {
            assert_eq!((needed, available), (3 * b, 2 * b));
        }
        other => panic!("expected MemoryExceeded, got {other:?}"),
    };
    exceeded(merge_sort(&input, &sort_cfg).map(|_| ()));
    exceeded(merge_sort_streaming(
        &input,
        &sort_cfg,
        |a, b| a < b,
        |_| Ok(()),
    ));
    let mut w = SortingWriter::new(device.clone(), &sort_cfg, |a: &u64, b: &u64| a < b);
    exceeded(data.iter().try_for_each(|&x| w.push(x)));
    assert_eq!(w.runs_spilled(), 0);
    drop(w);
    let d = device.stats().snapshot().since(&before);
    assert_eq!(d.writes(), 0, "nothing is written before the error");
    assert_eq!(device.allocated_blocks(), blocks);

    // One load never merges: two blocks are enough.
    let one = ExtVec::from_slice(device.clone(), &data[..2 * b]).unwrap();
    let mut expect = data[..2 * b].to_vec();
    expect.sort_unstable();
    assert_eq!(
        merge_sort(&one, &sort_cfg).unwrap().to_vec().unwrap(),
        expect
    );
    let mut w = SortingWriter::new(device, &sort_cfg, |a: &u64, b: &u64| a < b);
    for &x in &data[..2 * b] {
        w.push(x).unwrap();
    }
    assert_eq!(w.finish_sorted().unwrap().to_vec().unwrap(), expect);
}

#[test]
fn pool_refuses_to_exceed_frame_capacity() {
    let cfg = EmConfig::new(256, 4);
    let device = cfg.ram_disk();
    let ids: Vec<_> = (0..4).map(|_| device.allocate().unwrap()).collect();
    let pool = BufferPool::new(device, 2, EvictionPolicy::Lru);
    let _g0 = pool.read(ids[0]).unwrap();
    let _g1 = pool.read(ids[1]).unwrap();
    // Both frames pinned: a third access must fail rather than grow memory.
    match pool.read(ids[2]) {
        Err(PdmError::PoolExhausted) => {}
        Err(e) => panic!("expected PoolExhausted, got {e}"),
        Ok(_) => panic!("expected PoolExhausted, got a frame"),
    };
}

#[test]
fn budget_guard_scoping_releases_memory() {
    let budget = MemBudget::new(1000);
    {
        let _phase1 = budget.charge(900);
        assert_eq!(budget.available(), 100);
    }
    // Phase 1 memory released; phase 2 may use it all again.
    let _phase2 = budget.charge(1000);
    assert_eq!(budget.available(), 0);
    assert_eq!(budget.high_water(), 1000);
}

#[test]
fn device_io_accounting_is_exact_for_known_patterns() {
    // A full read-back of a V-block vector is exactly V reads; re-verified
    // here at the integration level because every experiment relies on it.
    let cfg = EmConfig::new(512, 8);
    let device = cfg.ram_disk();
    let v = ExtVec::from_slice(device.clone(), &(0u64..6400).collect::<Vec<_>>()).unwrap();
    let before = device.stats().snapshot();
    let _ = v.to_vec().unwrap();
    let d = device.stats().snapshot().since(&before);
    assert_eq!(d.reads(), v.num_blocks() as u64);
    assert_eq!(d.writes(), 0);
    assert_eq!(d.bytes(), v.num_blocks() as u64 * 512);
}
