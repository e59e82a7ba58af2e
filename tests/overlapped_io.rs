//! Cross-crate tests for the overlapped I/O scheduler: multi-threaded
//! stress through `DiskArray` in both placements, and end-to-end sorting
//! with the prefetching pipeline, verifying the tentpole invariant that
//! switching `IoMode` (and enabling read-ahead/write-behind) changes wall
//! clock only — contents and per-disk block-transfer counts are identical
//! to the synchronous path.

use std::sync::Arc;

use em_core::ExtVec;
use emsort::{merge_sort, OverlapConfig, SortConfig};
use pdm::{BlockDevice, DiskArray, IoMode, Placement, SharedDevice};
use proptest::prelude::*;

/// Deterministic per-(block, round) fill pattern.
fn pattern(block_size: usize, id: u64, round: u64) -> Vec<u8> {
    (0..block_size)
        .map(|i| (id as usize ^ round as usize ^ (i * 31)) as u8)
        .collect()
}

/// Hammer `array` from `threads` threads over disjoint block sets (allocated
/// up front — allocation itself is not a concurrent entry point), checking
/// every read returns the last pattern written to that block.
fn stress(array: &Arc<DiskArray>, threads: usize, blocks_per_thread: usize, rounds: u64) {
    let bs = array.block_size();
    let all_ids: Vec<u64> = (0..threads * blocks_per_thread)
        .map(|_| array.allocate().unwrap())
        .collect();
    let handles: Vec<_> = all_ids
        .chunks(blocks_per_thread)
        .map(|chunk| {
            let arr = Arc::clone(array);
            let ids = chunk.to_vec();
            std::thread::spawn(move || {
                for round in 0..rounds {
                    for &id in &ids {
                        arr.write_block(id, &pattern(bs, id, round)).unwrap();
                    }
                    for &id in &ids {
                        let mut out = vec![0u8; bs];
                        arr.read_block(id, &mut out).unwrap();
                        assert_eq!(out, pattern(bs, id, round), "torn read on block {id}");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    for id in all_ids {
        array.free(id).unwrap();
    }
}

#[test]
fn multithreaded_stress_matches_sync_counts_in_both_placements() {
    for placement in [Placement::Striped, Placement::Independent] {
        let sync = DiskArray::new_ram(3, 64, placement);
        let over = DiskArray::new_ram_with(3, 64, placement, IoMode::Overlapped);
        stress(&sync, 4, 8, 25);
        stress(&over, 4, 8, 25);
        let (s, o) = (sync.stats().snapshot(), over.stats().snapshot());
        // Threads interleave differently between runs, but the per-disk
        // totals are workload-determined and must agree exactly.
        for lane in 0..3 {
            assert_eq!(
                s.reads_on(lane),
                o.reads_on(lane),
                "{placement:?} lane {lane} reads"
            );
            assert_eq!(
                s.writes_on(lane),
                o.writes_on(lane),
                "{placement:?} lane {lane} writes"
            );
        }
        assert_eq!(s.parallel_time(), o.parallel_time(), "{placement:?}");
    }
}

#[test]
fn async_submission_from_many_threads_round_trips() {
    // Queue-depth > 1 per lane: every thread keeps several tickets in
    // flight on an independent array before waiting any of them.
    let arr = DiskArray::new_ram_with(2, 32, Placement::Independent, IoMode::Overlapped);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let arr = Arc::clone(&arr);
            std::thread::spawn(move || {
                let ids: Vec<u64> = (0..6).map(|_| arr.allocate().unwrap()).collect();
                let writes: Vec<_> = ids
                    .iter()
                    .map(|&id| {
                        let buf = pattern(32, id, 7).into_boxed_slice();
                        arr.submit_write(id, buf)
                    })
                    .collect();
                for t in writes {
                    t.wait().1.unwrap();
                }
                let reads: Vec<_> = ids
                    .iter()
                    .map(|&id| arr.submit_read(id, vec![0u8; 32].into_boxed_slice()))
                    .collect();
                for (&id, t) in ids.iter().zip(reads) {
                    let (buf, res) = t.wait();
                    res.unwrap();
                    assert_eq!(buf.as_ref(), &pattern(32, id, 7)[..]);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(arr.stats().snapshot().max_queue_depth() >= 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn overlapped_sort_equals_sorted_with_identical_counts(
        data in prop::collection::vec(any::<u64>(), 0..3000),
        d in 1usize..=4,
        depth in 1usize..=3,
        striped in any::<bool>(),
    ) {
        let placement = if striped { Placement::Striped } else { Placement::Independent };
        let sync_dev = DiskArray::new_ram(d, 64, placement) as SharedDevice;
        let over_dev = DiskArray::new_ram_with(d, 64, placement, IoMode::Overlapped) as SharedDevice;
        let m = 64 * d.max(2); // enough for ≥4 logical blocks even when striped
        let sync_cfg = SortConfig::new(m).with_overlap(OverlapConfig::off());
        let over_cfg = SortConfig::new(m).with_overlap(OverlapConfig::symmetric(depth));

        let sync_in = ExtVec::from_slice(sync_dev.clone(), &data).unwrap();
        let over_in = ExtVec::from_slice(over_dev.clone(), &data).unwrap();
        let before_s = sync_dev.stats().snapshot();
        let before_o = over_dev.stats().snapshot();
        let sync_out = merge_sort(&sync_in, &sync_cfg).unwrap().to_vec().unwrap();
        let over_out = merge_sort(&over_in, &over_cfg).unwrap().to_vec().unwrap();

        let mut expect = data;
        expect.sort_unstable();
        prop_assert_eq!(&sync_out, &expect);
        prop_assert_eq!(&over_out, &expect);

        let ds = sync_dev.stats().snapshot().since(&before_s);
        let dov = over_dev.stats().snapshot().since(&before_o);
        for lane in 0..d {
            prop_assert_eq!(ds.reads_on(lane), dov.reads_on(lane));
            prop_assert_eq!(ds.writes_on(lane), dov.writes_on(lane));
        }
        prop_assert_eq!(dov.prefetch_wasted(), 0);
    }
}
