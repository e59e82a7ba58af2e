//! # `emrel` — batched relational operators and a query engine in the I/O model
//!
//! The survey's motivating application domain is database systems: every
//! engine's batch query operators are external-memory algorithms.  This
//! crate assembles the workspace's sorting and hashing machinery into a
//! query engine whose every plan is priced in exact block transfers:
//!
//! * **A Volcano-style pull engine** (`exec` module, re-exported here):
//!   composable [`QueryExec`] operators — [`ScanExec`], [`FilterExec`],
//!   [`ProjectExec`], Sort via [`sort_scan`] / [`sort_pipe`],
//!   [`GroupByExec`], [`MergeJoinExec`], and the hash side:
//!   [`HashGroupByExec`] / [`HashJoinExec`] —
//!   carrying sort-order metadata, fused so no operator boundary
//!   materializes an intermediate that is consumed once; [`collect`] is the
//!   sink.  [`HashJoinExec`] is the only in-memory join: while its build
//!   side stays resident, its output keeps the probe's order.
//! * **A PDM cost-based planner** (`plan` module): logical [`PlanExpr`]
//!   trees priced in exact predicted block transfers from
//!   [`em_core::bounds`], orderedness-aware (a Sort over already-sorted
//!   input costs zero), with [`choose`] picking join order / strategy /
//!   sort placement by minimum predicted transfers.  Every operator above
//!   is a [`PlanExpr`] node, so [`predict`] prices any pipeline built from
//!   them.
//!
//! Keys are extracted by closures and compared in memory; outputs are new
//! external arrays on the input's device.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod exec;
mod hash_exec;
mod plan;

pub use exec::{
    collect, sort_pipe, sort_scan, ExecConfig, FilterExec, GroupByExec, KeyId, MergeJoinExec,
    Order, ProjectExec, QueryExec, ScanExec, SortStreamExec,
};
pub use hash_exec::{HashGroupByExec, HashJoinExec};
pub use plan::{
    choose, predict, predict_with_sink, Choice, CostEnv, KeyStats, PlanExpr, Prediction,
};

#[cfg(test)]
mod tests {
    //! The relational API end to end, through the crate root's re-exports:
    //! each query is a pipeline of the operators the planner prices.
    use super::*;
    use em_core::hash::Draws;
    use em_core::{EmConfig, ExtVec};
    use pdm::{Result, SharedDevice};

    fn device() -> SharedDevice {
        EmConfig::new(256, 16).ram_disk()
    }

    fn cfg() -> ExecConfig {
        ExecConfig::new(256)
    }

    /// `left ⋈ right` on the pairs' first fields, both sides sorted and
    /// streamed into a [`MergeJoinExec`], emitting `(key, left.1, right.1)`.
    fn merge_join(
        left: &ExtVec<(u64, u64)>,
        right: &ExtVec<(u64, u64)>,
        cfg: &ExecConfig,
    ) -> Result<ExtVec<(u64, u64, u64)>> {
        let by_key = |a: &(u64, u64), b: &(u64, u64)| a.0 < b.0;
        sort_scan(left, Order::Unordered, cfg, 1, by_key, |ls| {
            sort_scan(right, Order::Unordered, cfg, 1, by_key, |rs| {
                let mut j = MergeJoinExec::new(
                    ls,
                    rs,
                    |l: &(u64, u64)| l.0,
                    |r: &(u64, u64)| r.0,
                    |l: &(u64, u64), r: &(u64, u64)| (l.0, l.1, r.1),
                    cfg.sort.mem_records,
                );
                collect(&mut j, left.device())
            })
        })
    }

    #[test]
    fn filter_map_projects() {
        let d = device();
        let rel = ExtVec::from_slice(d.clone(), &(0u64..100).collect::<Vec<_>>()).unwrap();
        let mut evens = ProjectExec::new(
            ScanExec::new(&rel),
            |&x: &u64| x.is_multiple_of(2).then_some(x * 10),
            Order::Unordered,
        );
        assert_eq!(
            collect(&mut evens, &d).unwrap().to_vec().unwrap(),
            (0..100).step_by(2).map(|x| x * 10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn distinct_removes_duplicates() {
        let d = device();
        let mut rng = Draws::new(201);
        let data: Vec<u64> = (0..5000).map(|_| rng.below(100)).collect();
        let rel = ExtVec::from_slice(d.clone(), &data).unwrap();
        // Keyed on the whole record, a hash group-by is duplicate elimination.
        let mut scan = ScanExec::new(&rel);
        let mut dx = HashGroupByExec::build(
            &mut scan,
            &d,
            &cfg(),
            4,
            |r: &u64| *r,
            (),
            |_, _| {},
            |k, (), _| k,
        )
        .unwrap();
        let mut got = collect(&mut dx, &d).unwrap().to_vec().unwrap();
        got.sort_unstable();
        let mut expect: Vec<u64> = data;
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(got, expect);
    }

    #[test]
    fn group_aggregate_sums() {
        let d = device();
        let mut rng = Draws::new(202);
        let data: Vec<(u64, u64)> = (0..8000).map(|_| (rng.below(50), rng.below(10))).collect();
        let rel = ExtVec::from_slice(d.clone(), &data).unwrap();
        // (key, sum, count) per group, in key order.
        let got = sort_scan(
            &rel,
            Order::Unordered,
            &cfg(),
            1,
            |a: &(u64, u64), b: &(u64, u64)| a.0 < b.0,
            |s| {
                let mut g = GroupByExec::new(
                    s,
                    |r: &(u64, u64)| r.0,
                    0u64,
                    |acc, r| *acc += r.1,
                    |k, acc, count| (k, acc, count),
                    Order::Key(1),
                );
                collect(&mut g, &d)
            },
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
        let mut rng = Draws::new(203);
        let left: Vec<(u64, u64)> = (0..2000).map(|i| (rng.below(300), i)).collect();
        let right: Vec<(u64, u64)> = (0..1500).map(|i| (rng.below(300), i + 10_000)).collect();
        let lv = ExtVec::from_slice(d.clone(), &left).unwrap();
        let rv = ExtVec::from_slice(d, &right).unwrap();
        let mut got = merge_join(&lv, &rv, &cfg()).unwrap().to_vec().unwrap();
        let mut expect = Vec::new();
        for l in &left {
            for r in &right {
                if l.0 == r.0 {
                    expect.push((l.0, l.1, r.1));
                }
            }
        }
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn join_with_no_matches_is_empty() {
        let d = device();
        let lv = ExtVec::from_slice(d.clone(), &[(1u64, 1u64), (2, 2)]).unwrap();
        let rv = ExtVec::from_slice(d, &[(3u64, 3u64)]).unwrap();
        let got = merge_join(&lv, &rv, &cfg()).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn join_io_is_sort_bound_not_quadratic() {
        let d = EmConfig::new(4096, 16).ram_disk();
        let mut rng = Draws::new(205);
        let n = 50_000u64;
        let left: Vec<(u64, u64)> = (0..n).map(|i| (rng.below(n), i)).collect();
        let right: Vec<(u64, u64)> = (0..n).map(|i| (rng.below(n), i)).collect();
        let lv = ExtVec::from_slice(d.clone(), &left).unwrap();
        let rv = ExtVec::from_slice(d.clone(), &right).unwrap();
        let before = d.stats().snapshot();
        let out = merge_join(&lv, &rv, &ExecConfig::new(8192)).unwrap();
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
