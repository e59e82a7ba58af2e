//! # `emrel` — batched relational operators and a query engine in the I/O model
//!
//! The survey's motivating application domain is database systems: every
//! engine's batch query operators are external-memory algorithms.  This
//! crate assembles the workspace's sorting machinery into the classic
//! operator set twice over:
//!
//! * **A Volcano-style pull engine** (`exec` module, re-exported here):
//!   composable [`QueryExec`] operators (Scan / Filter / Project / Sort via
//!   [`sort_scan`] / [`sort_pipe`] / SortMergeJoin / GroupBy / Distinct /
//!   TopK / Limit, and the hash side: [`HashGroupByExec`] /
//!   [`HashDistinctExec`] / [`HashJoinExec`]) carrying sort-order
//!   metadata, fused so no operator boundary materializes an intermediate
//!   that is consumed once.  [`HashJoinExec`] is the only in-memory join:
//!   while its build side stays resident, its output keeps the probe's
//!   order.
//! * **A PDM cost-based planner** (`plan` module): logical [`PlanExpr`]
//!   trees priced in exact predicted block transfers from
//!   [`em_core::bounds`], orderedness-aware (a Sort over already-sorted
//!   input costs zero), with [`choose`] picking join order / strategy /
//!   sort placement by minimum predicted transfers.
//! * **Free functions** — the original API, now thin wrappers over the
//!   operators (outputs byte-identical, transfer counts equal or better):
//!   - [`sort_by_key`] — order a relation by an extracted key.
//!   - [`sort_merge_join`] — equi-join two relations (duplicates on both
//!     sides supported; one key group of the *right* side is buffered in
//!     memory, the standard assumption for sort-merge join).
//!   - [`semi_join`] / [`anti_join`] — filtering joins.
//!   - [`group_aggregate`] — sort-based grouping with a streaming fold.
//!   - [`distinct`] — duplicate elimination.
//!   - [`filter_map_scan`] — one-pass selection/projection (`O(Scan(N))`).
//!   - [`top_k_by`] — the k smallest records in one scan.
//!   - [`concat()`] — bag union (`O(Scan)`).
//!
//! Keys are extracted by closures and compared in memory; outputs are new
//! external arrays on the input's device.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
mod hash_exec;
mod plan;

pub use exec::{
    collect, sort_pipe, sort_scan, DistinctExec, ExecConfig, FilterExec, FilterJoinKind,
    FilteringJoinExec, GroupByExec, KeyId, LimitExec, MergeJoinExec, Order, ProjectExec, QueryExec,
    ScanExec, SortStreamExec, TopKExec,
};
pub use hash_exec::{HashDistinctExec, HashGroupByExec, HashJoinExec};
pub use plan::{
    choose, predict, predict_with_sink, Choice, CostEnv, KeyStats, PlanExpr, Prediction,
};

use em_core::{ExtVec, ExtVecWriter, MemBudget, Record};
use emsort::{merge_sort_by, SortConfig};
use pdm::{PdmError, Result};

/// The sort key id the free functions tag their single sort with; callers
/// of the free API never observe it.
const FN_KEY: KeyId = 0;

/// The `k` smallest records by an extracted key, in key order — a selection
/// heap of `k` records over one scan: `O(Scan(N))` I/Os, `k ≤ M` memory.
pub fn top_k_by<R, K, KF>(
    input: &ExtVec<R>,
    k: usize,
    cfg: &SortConfig,
    key: KF,
) -> Result<ExtVec<R>>
where
    R: Record,
    K: Ord,
    KF: Fn(&R) -> K + Copy,
{
    let budget = MemBudget::new(cfg.mem_records);
    let _io = budget.charge(input.per_block());
    let scan = ScanExec::new(input);
    let mut top = TopKExec::with_budget(scan, k, key, &budget, Order::Key(FN_KEY));
    collect(&mut top, input.device())
}

/// Sort a relation by an extracted key (`O(Sort(N))`).
pub fn sort_by_key<R, K, KF>(input: &ExtVec<R>, cfg: &SortConfig, key: KF) -> Result<ExtVec<R>>
where
    R: Record,
    K: Ord,
    KF: Fn(&R) -> K + Copy + Send,
{
    merge_sort_by(input, cfg, move |a, b| key(a) < key(b))
}

/// One-pass selection + projection: apply `f` to every record, keeping the
/// `Some` results.  `O(Scan(N))` I/Os.
pub fn filter_map_scan<R, O, F>(input: &ExtVec<R>, f: F) -> Result<ExtVec<O>>
where
    R: Record,
    O: Record,
    F: FnMut(&R) -> Option<O>,
{
    let scan = ScanExec::new(input);
    let mut proj = ProjectExec::new(scan, f, Order::Unordered);
    collect(&mut proj, input.device())
}

/// Bag union: concatenate relations in order.  `O(Scan(ΣN))` I/Os.
/// [`PdmError::InvalidRequest`] when `inputs` is empty: there is no device
/// to put the result on.
pub fn concat<R: Record>(inputs: &[&ExtVec<R>]) -> Result<ExtVec<R>> {
    let Some(first) = inputs.first() else {
        return Err(PdmError::InvalidRequest("concat of nothing".into()));
    };
    let mut out: ExtVecWriter<R> = ExtVecWriter::new(first.device().clone());
    let b = out.per_block();
    let mut block = Vec::with_capacity(b);
    for v in inputs {
        let mut r = v.reader();
        while r.read_into(&mut block, b)? > 0 {
            out.extend_from_slice(&block)?;
            block.clear();
        }
    }
    out.finish()
}

/// Duplicate elimination by natural order (`O(Sort(N))`).  The sort's final
/// merge streams straight into the dedup scan, so the sorted intermediate
/// is never written out.
pub fn distinct<R: Record + Ord>(input: &ExtVec<R>, cfg: &SortConfig) -> Result<ExtVec<R>> {
    let ecfg = ExecConfig::from_sort(*cfg);
    sort_scan(
        input,
        Order::Unordered,
        &ecfg,
        FN_KEY,
        |a, b| a < b,
        |s| {
            let mut d = DistinctExec::new(s);
            collect(&mut d, input.device())
        },
    )
}

/// Sort-based group-by with a streaming fold: records are grouped by `key`;
/// each group is folded left-to-right (in key order) with `fold` starting
/// from `init`, and `finish` turns `(key, accumulator, group_size)` into an
/// output record.  `O(Sort(N))` I/Os; memory per group is one accumulator.
pub fn group_aggregate<R, K, O, KF, Acc, FoldF, FinF>(
    input: &ExtVec<R>,
    cfg: &SortConfig,
    key: KF,
    init: Acc,
    fold: FoldF,
    finish: FinF,
) -> Result<ExtVec<O>>
where
    R: Record,
    O: Record,
    K: Ord + Clone,
    KF: Fn(&R) -> K + Copy + Send,
    Acc: Clone,
    FoldF: FnMut(&mut Acc, &R),
    FinF: FnMut(K, Acc, u64) -> O,
{
    let ecfg = ExecConfig::from_sort(*cfg);
    // The sorted relation is consumed once by the fold, so the sort's final
    // merge streams straight into it.
    sort_scan(
        input,
        Order::Unordered,
        &ecfg,
        FN_KEY,
        move |a, b| key(a) < key(b),
        |s| {
            let mut g = GroupByExec::new(s, key, init, fold, finish, Order::Key(FN_KEY));
            collect(&mut g, input.device())
        },
    )
}

/// Sort-merge equi-join: emit `make(l, r)` for every pair with equal keys.
///
/// Duplicate keys are supported on both sides; the current *right* key
/// group is buffered in memory and charged against the memory budget (the
/// standard sort-merge-join assumption — a right group larger than `M`
/// panics via the budget).  Both sides stream off their sorts' final merge
/// passes — neither sorted side is ever materialized.
/// `O(Sort(L) + Sort(R) + Output)` I/Os.
pub fn sort_merge_join<L, R, K, O, KL, KR, MK>(
    left: &ExtVec<L>,
    right: &ExtVec<R>,
    cfg: &SortConfig,
    key_l: KL,
    key_r: KR,
    make: MK,
) -> Result<ExtVec<O>>
where
    L: Record,
    R: Record,
    O: Record,
    K: Ord + Clone,
    KL: Fn(&L) -> K + Copy + Send,
    KR: Fn(&R) -> K + Copy + Send,
    MK: FnMut(&L, &R) -> O,
{
    let ecfg = ExecConfig::from_sort(*cfg);
    sort_scan(
        left,
        Order::Unordered,
        &ecfg,
        FN_KEY,
        move |a, b| key_l(a) < key_l(b),
        |ls| {
            sort_scan(
                right,
                Order::Unordered,
                &ecfg,
                FN_KEY,
                move |a, b| key_r(a) < key_r(b),
                |rs| {
                    let mut j = MergeJoinExec::new(ls, rs, key_l, key_r, make, cfg.mem_records);
                    collect(&mut j, left.device())
                },
            )
        },
    )
}

/// Semi-join: keep the left records whose key appears in `right`
/// (`O(Sort)` both sides).
pub fn semi_join<L, K, KL, KR, R>(
    left: &ExtVec<L>,
    right: &ExtVec<R>,
    cfg: &SortConfig,
    key_l: KL,
    key_r: KR,
) -> Result<ExtVec<L>>
where
    L: Record,
    R: Record,
    K: Ord,
    KL: Fn(&L) -> K + Copy + Send,
    KR: Fn(&R) -> K + Copy + Send,
{
    filtering_join(left, right, cfg, key_l, key_r, FilterJoinKind::Semi)
}

/// Anti-join: keep the left records whose key does **not** appear in
/// `right` (`O(Sort)` both sides).
pub fn anti_join<L, K, KL, KR, R>(
    left: &ExtVec<L>,
    right: &ExtVec<R>,
    cfg: &SortConfig,
    key_l: KL,
    key_r: KR,
) -> Result<ExtVec<L>>
where
    L: Record,
    R: Record,
    K: Ord,
    KL: Fn(&L) -> K + Copy + Send,
    KR: Fn(&R) -> K + Copy + Send,
{
    filtering_join(left, right, cfg, key_l, key_r, FilterJoinKind::Anti)
}

fn filtering_join<L, K, KL, KR, R>(
    left: &ExtVec<L>,
    right: &ExtVec<R>,
    cfg: &SortConfig,
    key_l: KL,
    key_r: KR,
    kind: FilterJoinKind,
) -> Result<ExtVec<L>>
where
    L: Record,
    R: Record,
    K: Ord,
    KL: Fn(&L) -> K + Copy + Send,
    KR: Fn(&R) -> K + Copy + Send,
{
    let ecfg = ExecConfig::from_sort(*cfg);
    sort_scan(
        left,
        Order::Unordered,
        &ecfg,
        FN_KEY,
        move |a, b| key_l(a) < key_l(b),
        |ls| {
            sort_scan(
                right,
                Order::Unordered,
                &ecfg,
                FN_KEY,
                move |a, b| key_r(a) < key_r(b),
                |rs| {
                    let mut j = FilteringJoinExec::new(ls, rs, key_l, key_r, kind);
                    collect(&mut j, left.device())
                },
            )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::EmConfig;
    use pdm::SharedDevice;
    use rand::prelude::*;

    fn device() -> SharedDevice {
        EmConfig::new(256, 16).ram_disk()
    }

    fn cfg() -> SortConfig {
        SortConfig::new(256)
    }

    #[test]
    fn filter_map_projects() {
        let d = device();
        let rel = ExtVec::from_slice(d, &(0u64..100).collect::<Vec<_>>()).unwrap();
        let evens = filter_map_scan(&rel, |&x| x.is_multiple_of(2).then_some(x * 10)).unwrap();
        assert_eq!(
            evens.to_vec().unwrap(),
            (0..100).step_by(2).map(|x| x * 10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn concat_keeps_order() {
        let d = device();
        let a = ExtVec::from_slice(d.clone(), &[1u64, 2]).unwrap();
        let b = ExtVec::from_slice(d.clone(), &[3u64]).unwrap();
        let c = ExtVec::from_slice(d, &[4u64, 5]).unwrap();
        let all = concat(&[&a, &b, &c]).unwrap();
        assert_eq!(all.to_vec().unwrap(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn concat_of_nothing_is_a_typed_error() {
        let d = device();
        let allocated = d.allocated_blocks();
        let err = concat::<u64>(&[]).err();
        assert!(matches!(err, Some(PdmError::InvalidRequest(_))), "{err:?}");
        assert_eq!(d.allocated_blocks(), allocated);
    }

    #[test]
    fn distinct_removes_duplicates() {
        let d = device();
        let mut rng = StdRng::seed_from_u64(201);
        let data: Vec<u64> = (0..5000).map(|_| rng.gen_range(0..100)).collect();
        let rel = ExtVec::from_slice(d, &data).unwrap();
        let got = distinct(&rel, &cfg()).unwrap().to_vec().unwrap();
        let mut expect: Vec<u64> = data;
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(got, expect);
    }

    #[test]
    fn group_aggregate_sums() {
        let d = device();
        let mut rng = StdRng::seed_from_u64(202);
        let data: Vec<(u64, u64)> = (0..8000)
            .map(|_| (rng.gen_range(0..50), rng.gen_range(0..10)))
            .collect();
        let rel = ExtVec::from_slice(d, &data).unwrap();
        // (key, sum, count) per group.
        let got = group_aggregate(
            &rel,
            &cfg(),
            |r| r.0,
            0u64,
            |acc, r| *acc += r.1,
            |k, acc, count| (k, acc, count),
        )
        .unwrap()
        .to_vec()
        .unwrap();
        let mut expect: std::collections::BTreeMap<u64, (u64, u64)> = Default::default();
        for (k, v) in data {
            let e = expect.entry(k).or_insert((0, 0));
            e.0 += v;
            e.1 += 1;
        }
        let expect: Vec<(u64, u64, u64)> =
            expect.into_iter().map(|(k, (s, c))| (k, s, c)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn join_matches_nested_loop_reference() {
        let d = device();
        let mut rng = StdRng::seed_from_u64(203);
        let left: Vec<(u64, u64)> = (0..2000).map(|i| (rng.gen_range(0..300), i)).collect();
        let right: Vec<(u64, u64)> = (0..1500)
            .map(|i| (rng.gen_range(0..300), i + 10_000))
            .collect();
        let lv = ExtVec::from_slice(d.clone(), &left).unwrap();
        let rv = ExtVec::from_slice(d, &right).unwrap();
        let got = sort_merge_join(&lv, &rv, &cfg(), |l| l.0, |r| r.0, |l, r| (l.0, l.1, r.1))
            .unwrap()
            .to_vec()
            .unwrap();
        let mut expect = Vec::new();
        for l in &left {
            for r in &right {
                if l.0 == r.0 {
                    expect.push((l.0, l.1, r.1));
                }
            }
        }
        let mut got_s = got;
        got_s.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got_s, expect);
    }

    #[test]
    fn join_with_no_matches_is_empty() {
        let d = device();
        let lv = ExtVec::from_slice(d.clone(), &[(1u64, 1u64), (2, 2)]).unwrap();
        let rv = ExtVec::from_slice(d, &[(3u64, 3u64)]).unwrap();
        let got = sort_merge_join(&lv, &rv, &cfg(), |l| l.0, |r| r.0, |l, r| (l.1, r.1)).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn semi_and_anti_join_partition_left() {
        let d = device();
        let mut rng = StdRng::seed_from_u64(204);
        let left: Vec<(u64, u64)> = (0..3000).map(|i| (rng.gen_range(0..200), i)).collect();
        let right: Vec<u64> = (0..100).map(|_| rng.gen_range(0..200)).collect();
        let lv = ExtVec::from_slice(d.clone(), &left).unwrap();
        let rv = ExtVec::from_slice(d, &right).unwrap();
        let semi = semi_join(&lv, &rv, &cfg(), |l| l.0, |&r| r)
            .unwrap()
            .to_vec()
            .unwrap();
        let anti = anti_join(&lv, &rv, &cfg(), |l| l.0, |&r| r)
            .unwrap()
            .to_vec()
            .unwrap();
        let keys: std::collections::BTreeSet<u64> = right.into_iter().collect();
        assert!(semi.iter().all(|l| keys.contains(&l.0)));
        assert!(anti.iter().all(|l| !keys.contains(&l.0)));
        assert_eq!(semi.len() + anti.len(), left.len());
    }

    #[test]
    fn top_k_returns_smallest_in_order() {
        let d = device();
        let mut rng = StdRng::seed_from_u64(206);
        let data: Vec<(u64, u64)> = (0..5000u64)
            .map(|i| (rng.gen_range(0..100_000), i))
            .collect();
        let rel = ExtVec::from_slice(d, &data).unwrap();
        let got = top_k_by(&rel, 25, &cfg(), |r| r.0)
            .unwrap()
            .to_vec()
            .unwrap();
        let mut expect = data;
        expect.sort_by_key(|r| r.0);
        expect.truncate(25);
        assert_eq!(got, expect);
    }

    #[test]
    fn top_k_larger_than_input_returns_all_sorted() {
        let d = device();
        let rel = ExtVec::from_slice(d, &[(5u64, 0u64), (1, 1), (3, 2)]).unwrap();
        let got = top_k_by(&rel, 10, &cfg(), |r| r.0)
            .unwrap()
            .to_vec()
            .unwrap();
        assert_eq!(got, vec![(1, 1), (3, 2), (5, 0)]);
    }

    #[test]
    fn top_k_io_is_one_scan() {
        let d = EmConfig::new(4096, 16).ram_disk();
        let data: Vec<u64> = (0..100_000u64).rev().collect();
        let rel = ExtVec::from_slice(d.clone(), &data).unwrap();
        let before = d.stats().snapshot();
        top_k_by(&rel, 100, &SortConfig::new(8192), |&x| x).unwrap();
        let ios = d.stats().snapshot().since(&before).total();
        assert!(ios <= rel.num_blocks() as u64 + 2, "top-k used {ios} I/Os");
    }

    #[test]
    fn join_io_is_sort_bound_not_quadratic() {
        let d = EmConfig::new(4096, 16).ram_disk();
        let mut rng = StdRng::seed_from_u64(205);
        let n = 50_000u64;
        let left: Vec<(u64, u64)> = (0..n).map(|i| (rng.gen_range(0..n), i)).collect();
        let right: Vec<(u64, u64)> = (0..n).map(|i| (rng.gen_range(0..n), i)).collect();
        let lv = ExtVec::from_slice(d.clone(), &left).unwrap();
        let rv = ExtVec::from_slice(d.clone(), &right).unwrap();
        let before = d.stats().snapshot();
        let out = sort_merge_join(
            &lv,
            &rv,
            &SortConfig::new(8192),
            |l| l.0,
            |r| r.0,
            |l, r| (l.1, r.1),
        )
        .unwrap();
        let ios = d.stats().snapshot().since(&before).total();
        // Block-nested loops would cost (L/B)·(R/B) ≈ 38k I/Os; sort-merge
        // stays near a few sorts.
        assert!(
            ios < 8_000,
            "join used {ios} I/Os for {} outputs",
            out.len()
        );
    }
}
