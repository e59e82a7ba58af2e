//! Every pass reads a block once: per block lifetime (allocate → free), a
//! merge sort and a hash partitioning write each block once and read it at
//! most once, and no transfer reads a freed or never-written block.  The
//! trace wraps each member disk, so the arrays' counts are the untraced
//! ones.
//!
//! Distribution sort reads every bucket it partitions twice, a sample and
//! then the route; its twice-read lifetimes are pinned.  List ranking reads
//! some tables in two passes, so it is not here.

#[path = "support/lifetimes.rs"]
mod lifetimes;

use em_core::{key_hash, ExtVec};
use emhash::partition::partition_to_fit;
use emsort::{distribution_sort, merge_sort_by, OverlapConfig, SortConfig};
use lifetimes::{traced_array, Ledger, Lifetimes};
use pdm::IoMode;

const BLOCK: usize = 256;
/// 32 `u64` keys a block.
const B: usize = BLOCK / 8;

/// The two ends of the overlap axis: a synchronous single RAM disk, and two
/// overlapped independent lanes at depth 2.
const ARRAYS: [(usize, IoMode, usize); 2] =
    [(1, IoMode::Synchronous, 0), (2, IoMode::Overlapped, 2)];

fn keys(n: u64) -> Vec<u64> {
    (0..n)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7)
        .collect()
}

/// `run` on a traced array, with the input written first: the ledger of
/// every lifetime, checked against the array's own counters.
fn traced(d: usize, mode: IoMode, run: impl FnOnce(&ExtVec<u64>)) -> Ledger {
    let (device, members) = traced_array(d, BLOCK, mode);
    let data = keys(30_000);
    let input = ExtVec::from_slice(device.clone(), &data).unwrap();
    let before = device.stats().snapshot();
    run(&input);
    let moved = device.stats().snapshot().since(&before);
    let ledger = Lifetimes::ledger(&members);
    assert_eq!(
        (ledger.reads, ledger.writes),
        (moved.reads(), moved.writes() + input.num_blocks() as u64),
        "the trace saw every transfer"
    );
    ledger
}

/// Each lifetime written once and read at most once, and no bad transfer.
fn assert_each_block_once(what: &str, ledger: &Ledger) {
    assert!(ledger.bad.is_empty(), "{what}: {:?}", ledger.bad);
    assert_eq!(ledger.written_once, ledger.lifetimes, "{what}: {ledger:?}");
    assert_eq!(
        ledger.read_at_most_once, ledger.lifetimes,
        "{what}: {ledger:?}"
    );
}

#[test]
fn a_merge_sort_writes_each_block_once_and_reads_it_at_most_once() {
    // 938 input blocks at M = 64 blocks: 15 loads, one merge at the full
    // fan-in, or two merge passes at fan-in 4.
    let m = 64 * B;
    for (d, mode, depth) in ARRAYS {
        for fan_in in [None, Some(4)] {
            let mut cfg = SortConfig::new(m).with_overlap(OverlapConfig::symmetric(depth));
            cfg.fan_in = fan_in;
            let mut out_blocks = 0;
            let ledger = traced(d, mode, |input| {
                let sorted = merge_sort_by(input, &cfg, |a, b| a < b).unwrap();
                out_blocks = sorted.num_blocks() as u64;
                let got = sorted.to_vec().unwrap();
                assert!(got.windows(2).all(|w| w[0] <= w[1]));
            });
            let what = format!("D = {d} {mode:?}, fan-in {fan_in:?}");
            assert_each_block_once(&what, &ledger);
            assert!(
                ledger.lifetimes > 2 * out_blocks,
                "{what}: runs were written"
            );
        }
    }
}

#[test]
fn a_hash_partitioning_writes_each_block_once_and_reads_it_at_most_once() {
    for (d, mode, depth) in ARRAYS {
        let ledger = traced(d, mode, |input| {
            let parts =
                partition_to_fit(input, key_hash, 16 * B, 4, OverlapConfig::symmetric(depth))
                    .unwrap();
            let mut n = 0;
            for part in parts {
                n += part.records().to_vec().unwrap().len();
            }
            assert_eq!(n as u64, input.len());
        });
        assert_each_block_once(&format!("D = {d} {mode:?}"), &ledger);
    }
}

/// Distribution sort at `M` = 32 blocks recurses one level: 15 pivots
/// split the input into 16 buckets of about 1 900 keys, and each bucket
/// over `M` splits once more into buckets that fit.  Every lifetime is
/// written once; a bucket that partitions is read twice (the sample's
/// scan, then the route), every other lifetime at most once.  The twice
/// read are the input's 938 blocks and 864 of the first level's: a sample
/// that rode along the route would leave none.
#[test]
fn a_distribution_sort_reads_a_partitioned_bucket_twice_and_nothing_more() {
    for (d, mode, depth) in ARRAYS {
        let cfg = SortConfig::new(32 * B).with_overlap(OverlapConfig::symmetric(depth));
        let ledger = traced(d, mode, |input| {
            let sorted = distribution_sort(input, &cfg).unwrap();
            let got = sorted.to_vec().unwrap();
            assert!(got.len() as u64 == input.len() && got.windows(2).all(|w| w[0] <= w[1]));
        });
        let what = format!("D = {d} {mode:?}");
        assert!(ledger.bad.is_empty(), "{what}: {:?}", ledger.bad);
        assert_eq!(ledger.written_once, ledger.lifetimes, "{what}: {ledger:?}");
        assert_eq!(
            ledger.read_at_most_once + ledger.read_twice,
            ledger.lifetimes,
            "{what}: {ledger:?}"
        );
        assert_eq!(ledger.read_twice, 938 + 864, "{what}: {ledger:?}");
    }
}
