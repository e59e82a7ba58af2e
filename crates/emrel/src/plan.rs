//! # Logical plans and the PDM cost-based planner
//!
//! A [`PlanExpr`] is a logical description of an operator tree over the
//! executors in [`exec`](crate::exec); [`predict`] prices it in *device
//! block transfers* using the survey's closed-form bounds
//! ([`em_core::bounds`]), and [`choose`] picks the cheapest of several
//! candidate trees — join order, join strategy, sort placement — by minimum
//! predicted transfers.
//!
//! The model is deliberately exact rather than asymptotic: sorts are priced
//! by replaying the engine's actual merge schedule
//! ([`em_core::bounds::merge_sort_streamed_ios`]), and
//! orderedness propagates through the tree so a [`Sort`](PlanExpr::Sort)
//! over input already ordered on its key prices at **zero extra transfers**
//! (and a merge join whose inputs are clustered on the join key skips both
//! its sorts).  Benchmarks assert predicted == measured per plan cell; the
//! only slack the model owns is cardinality estimates the caller supplies
//! (e.g. a filter's output count) — with exact cardinalities the
//! predictions are exact.
//!
//! ## What a prediction covers
//!
//! Costs are end-to-end for *producing the node's output as a stream*:
//! every base-table read, every sort pass and every hash-partition spill;
//! operator boundaries stream, so they cost nothing.  Draining the root
//! into an output relation adds one write pass over the result
//! ([`predict_with_sink`]).
//!
//! The cardinality fields (`out_records`) are the caller's estimates;
//! record widths (`rec_bytes`) must match the executed record types for
//! block arithmetic to be exact.

use crate::exec::{KeyId, Order};
use em_core::bounds;
use emsort::{check_fan_out, SortConfig};

/// Arrival-ordered level-0 key hashes of a stream — the statistic the hash
/// operators' exact cost replays consume (`hash_group_exact_ios` /
/// `hash_join_exact_ios`).  Unlike cardinality estimates these are exact:
/// the replay reproduces the executor's entire partition recursion from
/// them, because deeper levels remix the level-0 hash
/// ([`em_core::hash::level_bucket`]) instead of rehashing the key.  Shared
/// by `Arc` so a plan tree can be cloned into many candidates cheaply.
pub type KeyStats = std::sync::Arc<Vec<u64>>;

/// Cost-model environment: the device and memory geometry shared by every
/// node of a plan.
#[derive(Debug, Clone, Copy)]
pub struct CostEnv {
    /// Logical block size in bytes ([`BlockDevice::block_size`](pdm::BlockDevice::block_size)).
    pub block_bytes: usize,
    /// Internal memory budget `M`, in records (type-independent, as in
    /// [`SortConfig::mem_records`](emsort::SortConfig::mem_records)).
    pub mem_records: usize,
    /// Device transfers per logical block: 1 for a plain disk or an
    /// independent-placement array (whose stats count logical transfers),
    /// `D` for a striped array (whose stats count per-member transfers).
    pub stripe: u64,
}

impl CostEnv {
    /// An environment for a single-transfer-per-block device.
    pub fn new(block_bytes: usize, mem_records: usize) -> Self {
        CostEnv {
            block_bytes,
            mem_records,
            stripe: 1,
        }
    }

    /// Builder: set the per-logical-block transfer multiplier.
    pub fn with_stripe(mut self, stripe: u64) -> Self {
        self.stripe = stripe;
        self
    }

    /// Records of `rec_bytes` each that fit one logical block (≥ 1).
    pub fn per_block(&self, rec_bytes: usize) -> usize {
        (self.block_bytes / rec_bytes).max(1)
    }

    /// Device transfers to move `records` records once.
    pub fn blocks(&self, records: u64, rec_bytes: usize) -> u64 {
        records.div_ceil(self.per_block(rec_bytes) as u64) * self.stripe
    }

    /// The merge fan-in a sort of `rec_bytes`-byte records uses: the
    /// executor's own rule, [`SortConfig::effective_fan_in`], so the
    /// planner and the executor cannot drift apart.
    pub fn fan_in(&self, rec_bytes: usize) -> usize {
        SortConfig::new(self.mem_records).effective_fan_in(self.per_block(rec_bytes))
    }
}

/// A logical operator tree.  Cardinalities are caller-supplied estimates;
/// orderedness is tracked per node and consumed by [`predict`].
#[derive(Debug, Clone)]
pub enum PlanExpr {
    /// Scan a base relation of `records` records, `rec_bytes` bytes each,
    /// stored in `order`.
    Scan {
        /// Relation cardinality.
        records: u64,
        /// Record width in bytes.
        rec_bytes: usize,
        /// The order the relation is clustered in.
        order: Order,
    },
    /// Selection keeping an estimated `out_records` records.  Pure pipe.
    Filter {
        /// Input plan.
        input: Box<PlanExpr>,
        /// Estimated surviving records.
        out_records: u64,
    },
    /// Per-record projection to `rec_bytes`-byte records; `order` declares
    /// whether the projection preserves the input's sort key.  Pure pipe.
    Project {
        /// Input plan.
        input: Box<PlanExpr>,
        /// Output record width in bytes.
        rec_bytes: usize,
        /// Declared output order.
        order: Order,
    },
    /// Sort by `key` — priced at zero extra transfers when the input is
    /// already ordered on `key`.
    Sort {
        /// Input plan.
        input: Box<PlanExpr>,
        /// Sort key.
        key: KeyId,
    },
    /// Sort-merge equi-join; infeasible (infinite cost) unless both inputs
    /// are ordered on `key`.  Output follows the left input's order.
    MergeJoin {
        /// Left (streaming) input — the side whose order the output keeps.
        left: Box<PlanExpr>,
        /// Right input — the side whose key groups are buffered.
        right: Box<PlanExpr>,
        /// Join key.
        key: KeyId,
        /// Output record width in bytes.
        rec_bytes: usize,
        /// Estimated join cardinality.
        out_records: u64,
    },
    /// Streaming group-by; infeasible unless the input is ordered on `key`.
    GroupBy {
        /// Input plan.
        input: Box<PlanExpr>,
        /// Grouping key (an order the *input* must carry).
        key: KeyId,
        /// Output record width in bytes.
        rec_bytes: usize,
        /// Estimated group count.
        out_records: u64,
        /// Declared output order (the group key in output record space).
        order: Order,
    },
    /// Hybrid hash aggregation ([`HashGroupByExec`](crate::HashGroupByExec))
    /// — no input order required, output unordered.  Priced by replaying the
    /// executor's partition recursion over the supplied key hashes
    /// ([`em_core::bounds::hash_group_exact_ios`]); infeasible unless
    /// `(fan_out + 1)` blocks fit in memory.
    HashGroupBy {
        /// Input plan.
        input: Box<PlanExpr>,
        /// Arrival-ordered level-0 hashes of the input's grouping keys.
        hashes: KeyStats,
        /// Partition fan-out `F`.
        fan_out: usize,
        /// Output record width in bytes.
        rec_bytes: usize,
        /// Estimated group count.
        out_records: u64,
    },
    /// Hash equi-join ([`HashJoinExec`](crate::HashJoinExec)), the one
    /// in-memory join — neither side need be sorted.  While the build side
    /// fits the join's residency
    /// ([`em_core::bounds::hash_join_residency`]) it costs zero transfers of
    /// its own and the output keeps the probe's order; otherwise the output
    /// is unordered and priced at the exact cost of the filtered Grace join
    /// it falls into ([`em_core::bounds::hash_join_exact_ios`]).
    /// Infeasible unless `(fan_out + 1)` block pairs fit in memory.
    HashJoin {
        /// Build input, drained first: held if it fits, else partitioned.
        build: Box<PlanExpr>,
        /// Probe input, streamed against the build side or its partitions.
        probe: Box<PlanExpr>,
        /// Arrival-ordered level-0 hashes of the build side's join keys.
        build_hashes: KeyStats,
        /// Arrival-ordered level-0 hashes of the probe side's join keys.
        probe_hashes: KeyStats,
        /// Partition fan-out `F`.
        fan_out: usize,
        /// Output record width in bytes.
        rec_bytes: usize,
        /// Estimated join cardinality.
        out_records: u64,
    },
}

impl PlanExpr {
    /// A base-relation scan.
    pub fn scan(records: u64, rec_bytes: usize, order: Order) -> Self {
        PlanExpr::Scan {
            records,
            rec_bytes,
            order,
        }
    }

    /// Wrap in a selection with the given output-cardinality estimate.
    pub fn filter(self, out_records: u64) -> Self {
        PlanExpr::Filter {
            input: Box::new(self),
            out_records,
        }
    }

    /// Wrap in a projection to `rec_bytes`-byte records with declared order.
    pub fn project(self, rec_bytes: usize, order: Order) -> Self {
        PlanExpr::Project {
            input: Box::new(self),
            rec_bytes,
            order,
        }
    }

    /// Wrap in a sort by `key`.
    pub fn sort(self, key: KeyId) -> Self {
        PlanExpr::Sort {
            input: Box::new(self),
            key,
        }
    }

    /// Merge-join `self` (left / streaming side) with `right`.
    pub fn merge_join(
        self,
        right: PlanExpr,
        key: KeyId,
        rec_bytes: usize,
        out_records: u64,
    ) -> Self {
        PlanExpr::MergeJoin {
            left: Box::new(self),
            right: Box::new(right),
            key,
            rec_bytes,
            out_records,
        }
    }

    /// Wrap in a streaming group-by on `key`.
    pub fn group_by(self, key: KeyId, rec_bytes: usize, out_records: u64, order: Order) -> Self {
        PlanExpr::GroupBy {
            input: Box::new(self),
            key,
            rec_bytes,
            out_records,
            order,
        }
    }

    /// Wrap in a hybrid hash aggregation with the given key-hash statistics.
    pub fn hash_group_by(
        self,
        hashes: KeyStats,
        fan_out: usize,
        rec_bytes: usize,
        out_records: u64,
    ) -> Self {
        PlanExpr::HashGroupBy {
            input: Box::new(self),
            hashes,
            fan_out,
            rec_bytes,
            out_records,
        }
    }

    /// Hash join with `build` drained first (held, or partitioned once it
    /// stops fitting) and `self` as the streamed probe side, whose order
    /// the output keeps while the build side is held.  `_hybrid` is
    /// ignored: every join that spills is a Grace join.
    #[allow(clippy::too_many_arguments)]
    pub fn hash_join(
        self,
        build: PlanExpr,
        build_hashes: KeyStats,
        probe_hashes: KeyStats,
        fan_out: usize,
        _hybrid: bool,
        rec_bytes: usize,
        out_records: u64,
    ) -> Self {
        PlanExpr::HashJoin {
            build: Box::new(build),
            probe: Box::new(self),
            build_hashes,
            probe_hashes,
            fan_out,
            rec_bytes,
            out_records,
        }
    }
}

/// The priced output of [`predict`] for one plan node (costs are cumulative
/// over the whole subtree).
#[derive(Debug, Clone, Copy)]
pub struct Prediction {
    /// Predicted device transfers to stream this subtree's output once —
    /// [`f64::INFINITY`] when the plan is infeasible (order contract
    /// violated, hash buffers over budget).
    pub transfers: f64,
    /// Estimated output cardinality.
    pub out_records: u64,
    /// Output record width in bytes.
    pub rec_bytes: usize,
    /// Output stream order.
    pub order: Order,
}

impl Prediction {
    /// True when the plan violates no operator contract.
    pub fn feasible(&self) -> bool {
        self.transfers.is_finite()
    }

    fn infeasible(self) -> Prediction {
        Prediction {
            transfers: f64::INFINITY,
            ..self
        }
    }
}

/// Price a plan: predicted device transfers to stream its output once (see
/// the module docs for exactly what is and is not included).
pub fn predict(expr: &PlanExpr, env: &CostEnv) -> Prediction {
    match expr {
        PlanExpr::Scan {
            records,
            rec_bytes,
            order,
        } => Prediction {
            transfers: env.blocks(*records, *rec_bytes) as f64,
            out_records: *records,
            rec_bytes: *rec_bytes,
            order: *order,
        },
        PlanExpr::Filter { input, out_records } => {
            let p = predict(input, env);
            Prediction {
                out_records: (*out_records).min(p.out_records),
                ..p
            }
        }
        PlanExpr::Project {
            input,
            rec_bytes,
            order,
        } => {
            let p = predict(input, env);
            Prediction {
                rec_bytes: *rec_bytes,
                order: *order,
                ..p
            }
        }
        PlanExpr::Sort { input, key } => {
            let p = predict(input, env);
            let transfers = if p.order.matches(*key) {
                // Elided sort: the consumer receives the child itself.
                p.transfers
            } else {
                // Run formation + intermediate merges + a final read the
                // consumer drains.  A base input is sorted where it is
                // stored (`sort_scan`): its scan cost *is* the streamed
                // sort's input read.  A computed input is pushed into a
                // `SortingWriter` (`sort_pipe`), which reads nothing and
                // loads in arrival order.
                let n = p.out_records;
                let (m, per_block) = (env.mem_records, env.per_block(p.rec_bytes));
                let k = env.fan_in(p.rec_bytes);
                let sort = match **input {
                    PlanExpr::Scan { .. } => {
                        bounds::merge_sort_streamed_ios(n, m, per_block, k)
                            - n.div_ceil(per_block as u64)
                    }
                    _ => bounds::sorting_writer_streamed_ios(n, m, per_block, k),
                };
                p.transfers + (sort * env.stripe) as f64
            };
            Prediction {
                transfers,
                order: Order::Key(*key),
                ..p
            }
        }
        PlanExpr::MergeJoin {
            left,
            right,
            key,
            rec_bytes,
            out_records,
        } => {
            let l = predict(left, env);
            let r = predict(right, env);
            let out = Prediction {
                transfers: l.transfers + r.transfers,
                out_records: *out_records,
                rec_bytes: *rec_bytes,
                order: Order::Key(*key),
            };
            if l.order.matches(*key) && r.order.matches(*key) {
                out
            } else {
                out.infeasible()
            }
        }
        PlanExpr::GroupBy {
            input,
            key,
            rec_bytes,
            out_records,
            order,
        } => {
            let p = predict(input, env);
            let out = Prediction {
                transfers: p.transfers,
                out_records: *out_records,
                rec_bytes: *rec_bytes,
                order: *order,
            };
            if p.order.matches(*key) {
                out
            } else {
                out.infeasible()
            }
        }
        PlanExpr::HashGroupBy {
            input,
            hashes,
            fan_out,
            rec_bytes,
            out_records,
        } => {
            let p = predict(input, env);
            let per_block = env.per_block(p.rec_bytes);
            let own = bounds::hash_group_exact_ios(
                hashes,
                env.mem_records,
                per_block,
                *fan_out,
                env.fan_in(p.rec_bytes),
            ) as f64
                * env.stripe as f64;
            let out = Prediction {
                transfers: p.transfers + own,
                out_records: (*out_records).min(p.out_records),
                rec_bytes: *rec_bytes,
                order: Order::Unordered,
            };
            if check_fan_out(*fan_out, per_block, env.mem_records).is_ok() {
                out
            } else {
                out.infeasible()
            }
        }
        PlanExpr::HashJoin {
            build,
            probe,
            build_hashes,
            probe_hashes,
            fan_out,
            rec_bytes,
            out_records,
        } => {
            let b = predict(build, env);
            let p = predict(probe, env);
            let bpb = env.per_block(b.rec_bytes);
            let ppb = env.per_block(p.rec_bytes);
            let own = bounds::hash_join_exact_ios(
                build_hashes,
                probe_hashes,
                env.mem_records,
                bpb,
                ppb,
                b.rec_bytes,
                *fan_out,
            ) as f64
                * env.stripe as f64;
            // A held build side is matched in-stream: probe order survives.
            let held = build_hashes.len()
                <= bounds::hash_join_residency(env.mem_records, bpb, ppb, *fan_out);
            let out = Prediction {
                transfers: b.transfers + p.transfers + own,
                out_records: *out_records,
                rec_bytes: *rec_bytes,
                order: if held { p.order } else { Order::Unordered },
            };
            if check_fan_out(*fan_out, bpb + ppb, env.mem_records).is_ok() {
                out
            } else {
                out.infeasible()
            }
        }
    }
}

/// Price a plan *including* one write pass draining the root into an output
/// relation ([`collect`](crate::collect)) — the number a benchmark's
/// end-to-end transfer meter sees.
pub fn predict_with_sink(expr: &PlanExpr, env: &CostEnv) -> f64 {
    let p = predict(expr, env);
    p.transfers + env.blocks(p.out_records, p.rec_bytes) as f64
}

/// The planner's verdict over a set of candidate plans.
#[derive(Debug, Clone)]
pub struct Choice {
    /// Index of the cheapest feasible candidate, or `None` if every
    /// candidate is infeasible.
    pub best: Option<usize>,
    /// Sink-inclusive predicted transfers per candidate, aligned with the
    /// input slice ([`f64::INFINITY`] marks infeasible plans).
    pub predicted: Vec<f64>,
}

/// Pick the candidate with minimum predicted sink-inclusive transfers.
/// Ties break toward the earliest candidate, so enumeration order is a
/// deterministic preference order.
pub fn choose(candidates: &[PlanExpr], env: &CostEnv) -> Choice {
    let predicted: Vec<f64> = candidates
        .iter()
        .map(|c| predict_with_sink(c, env))
        .collect();
    let best = predicted
        .iter()
        .enumerate()
        .filter(|(_, t)| t.is_finite())
        .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i);
    Choice { best, predicted }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: usize = 64; // bytes per block
    const REC: usize = 8; // u64 records

    fn env() -> CostEnv {
        CostEnv::new(B, 64) // 8 records/block, M = 64 records
    }

    #[test]
    fn scan_prices_one_pass() {
        let p = predict(&PlanExpr::scan(100, REC, Order::Unordered), &env());
        assert_eq!(p.transfers, 13.0);
    }

    #[test]
    fn elided_sort_costs_zero_extra() {
        let sorted = PlanExpr::scan(1000, REC, Order::Key(1)).sort(1);
        let unsorted = PlanExpr::scan(1000, REC, Order::Unordered).sort(1);
        let e = env();
        assert_eq!(
            predict(&sorted, &e).transfers,
            predict(&PlanExpr::scan(1000, REC, Order::Key(1)), &e).transfers
        );
        assert!(predict(&unsorted, &e).transfers > predict(&sorted, &e).transfers);
        // The same over a computed stream: a projection that already
        // carries the key costs exactly its input.
        let computed = PlanExpr::scan(1000, REC, Order::Unordered).project(16, Order::Key(1));
        assert_eq!(
            predict(&computed.clone().sort(1), &e).transfers,
            predict(&computed, &e).transfers
        );
    }

    #[test]
    fn sort_saves_exactly_one_round_trip_of_the_output() {
        // A sort over a base relation is the streamed schedule, which skips
        // the final write and its re-read: `2·bl` less than the materialized
        // sort followed by a scan of its output.
        let e = env();
        let n = 10_000u64;
        let bl = e.blocks(n, REC) as f64;
        let k = e.fan_in(REC);
        let plan = PlanExpr::scan(n, REC, Order::Unordered).sort(1);
        let sort = predict(&plan, &e).transfers;
        assert_eq!(sort, bounds::merge_sort_streamed_ios(n, 64, 8, k) as f64);
        let sort_then_scan = bounds::merge_sort_exact_ios(n, 64, 8, k) as f64 + bl;
        assert_eq!(sort_then_scan - sort, 2.0 * bl);
    }

    #[test]
    fn merge_join_requires_both_sides_sorted() {
        let e = env();
        let l = PlanExpr::scan(500, REC, Order::Key(1));
        let r = PlanExpr::scan(500, REC, Order::Unordered);
        let bad = l.clone().merge_join(r.clone(), 1, 16, 500);
        assert!(!predict(&bad, &e).feasible());
        let good = l.merge_join(r.sort(1), 1, 16, 500);
        assert!(predict(&good, &e).feasible());
    }

    #[test]
    fn hash_join_keeps_the_probe_order_only_while_resident() {
        let e = env(); // M = 64 records, 8 per block
        let fan = 2; // (F+1)·(B_build + B_probe) = 48 ≤ M
        let r = bounds::hash_join_residency(64, 8, 8, fan) as u64;
        assert_eq!(r, 40);
        let ph = cycle_hashes(1000, 500);
        let join = |n: u64| {
            PlanExpr::scan(1000, REC, Order::Key(1)).hash_join(
                PlanExpr::scan(n, REC, Order::Unordered),
                cycle_hashes(n, n),
                ph.clone(),
                fan,
                false,
                16,
                1000,
            )
        };
        let scans = |n: u64| (e.blocks(1000, REC) + e.blocks(n, REC)) as f64;
        // Exactly R build records: held, so the probe's order survives and
        // the join costs its two scans.
        let held = predict(&join(r), &e);
        assert_eq!(held.order, Order::Key(1));
        assert_eq!(held.transfers, scans(r));
        // R + 1: spilled, unordered, priced at the exact Grace cost.
        let grace =
            bounds::hash_join_exact_ios(&cycle_hashes(r + 1, r + 1), &ph, 64, 8, 8, REC, fan)
                as f64;
        assert!(grace > 0.0);
        let spilled = predict(&join(r + 1), &e);
        assert_eq!(spilled.order, Order::Unordered);
        assert_eq!(spilled.transfers, scans(r + 1) + grace);
        // A sort by the probe's key above the join is elided only when held.
        assert_eq!(predict(&join(r).sort(1), &e).transfers, held.transfers);
        assert!(predict(&join(r + 1).sort(1), &e).transfers > spilled.transfers);
    }

    #[test]
    fn planner_prefers_skipping_sorts() {
        let e = env();
        // Both relations clustered on the join key: merge join with elided
        // sorts must beat re-sorting either side.
        let l = || PlanExpr::scan(5000, REC, Order::Key(1));
        let r = || PlanExpr::scan(5000, REC, Order::Key(1));
        let cands = vec![
            l().sort(1).merge_join(r().sort(1), 1, 16, 5000),
            PlanExpr::scan(5000, REC, Order::Unordered)
                .sort(1)
                .merge_join(r().sort(1), 1, 16, 5000),
        ];
        let choice = choose(&cands, &e);
        assert_eq!(choice.best, Some(0));
        assert!(choice.predicted[0] < choice.predicted[1]);
    }

    #[test]
    fn infeasible_everywhere_yields_no_choice() {
        let e = env();
        let cands =
            vec![PlanExpr::scan(10, REC, Order::Unordered).group_by(1, REC, 5, Order::Key(1))];
        assert_eq!(choose(&cands, &e).best, None);
    }

    /// Level-0 key hashes for `n` records cycling over `keys` distinct keys,
    /// hashed the way the executors hash `u64` keys.
    fn cycle_hashes(n: u64, keys: u64) -> KeyStats {
        std::sync::Arc::new((0..n).map(|i| em_core::key_hash(&(i % keys))).collect())
    }

    #[test]
    fn hash_group_beats_sort_group_on_unsorted_input() {
        let e = env(); // M = 64 records, 8 per block
        let n = 10_000u64;
        let keys = 1000; // too many groups for the resident table → both spill
        let hashes = cycle_hashes(n, keys);
        let scan = || PlanExpr::scan(n, REC, Order::Unordered);
        let cands = vec![
            scan().sort(1).group_by(1, REC, keys, Order::Key(1)),
            scan().hash_group_by(hashes, 4, REC, keys),
        ];
        let choice = choose(&cands, &e);
        assert_eq!(
            choice.best,
            Some(1),
            "hash should win: {:?}",
            choice.predicted
        );
    }

    #[test]
    fn sorted_input_elides_the_sort_and_beats_hash() {
        let e = env();
        let n = 10_000u64;
        let keys = 1000;
        let hashes = cycle_hashes(n, keys);
        let sorted = || PlanExpr::scan(n, REC, Order::Key(1));
        let cands = vec![
            sorted().sort(1).group_by(1, REC, keys, Order::Key(1)),
            sorted().hash_group_by(hashes, 4, REC, keys),
        ];
        let choice = choose(&cands, &e);
        assert_eq!(
            choice.best,
            Some(0),
            "elision should win: {:?}",
            choice.predicted
        );
        assert!(choice.predicted[0] < choice.predicted[1]);
    }

    #[test]
    fn hash_group_matches_replay_arithmetic() {
        let e = env();
        let n = 5_000u64;
        let hashes = cycle_hashes(n, 700);
        let plan =
            PlanExpr::scan(n, REC, Order::Unordered).hash_group_by(hashes.clone(), 4, REC, 700);
        let p = predict(&plan, &e);
        let own = bounds::hash_group_exact_ios(&hashes, 64, 8, 4, e.fan_in(REC)) as f64;
        assert_eq!(p.transfers, e.blocks(n, REC) as f64 + own);
        assert_eq!(p.order, Order::Unordered);
        // Striped device multiplies every transfer.
        let p4 = predict(&plan, &e.with_stripe(4));
        assert_eq!(p4.transfers, 4.0 * p.transfers);
    }

    #[test]
    fn hash_join_beats_merge_join_with_sorts_on_unsorted_inputs() {
        // M = 512 records: sorting the 40k-record probe needs an extra merge
        // pass (79 runs > fan-in 63), while grace partitions once — every
        // build bucket fits a block-nested chunk after one level.
        let e = CostEnv::new(B, 512);
        let bn = 2_000u64;
        let pn = 40_000u64;
        let bh = cycle_hashes(bn, 500);
        let ph = cycle_hashes(pn, 500);
        let build = || PlanExpr::scan(bn, REC, Order::Unordered);
        let probe = || PlanExpr::scan(pn, REC, Order::Unordered);
        let out = 24_000u64;
        let cands = vec![
            probe().sort(1).merge_join(build().sort(1), 1, 16, out),
            probe().hash_join(build(), bh, ph, 15, false, 16, out),
        ];
        let choice = choose(&cands, &e);
        assert_eq!(
            choice.best,
            Some(1),
            "grace should win: {:?}",
            choice.predicted
        );
    }

    #[test]
    fn clustered_inputs_make_merge_join_the_winner() {
        let e = env();
        let bn = 2_000u64;
        let pn = 6_000u64;
        let bh = cycle_hashes(bn, 500);
        let ph = cycle_hashes(pn, 500);
        let out = 24_000u64;
        let cands = vec![
            PlanExpr::scan(pn, REC, Order::Key(1)).sort(1).merge_join(
                PlanExpr::scan(bn, REC, Order::Key(1)).sort(1),
                1,
                16,
                out,
            ),
            PlanExpr::scan(pn, REC, Order::Key(1)).hash_join(
                PlanExpr::scan(bn, REC, Order::Key(1)),
                bh,
                ph,
                3,
                false,
                16,
                out,
            ),
        ];
        let choice = choose(&cands, &e);
        assert_eq!(
            choice.best,
            Some(0),
            "merge join should win: {:?}",
            choice.predicted
        );
        assert!(choice.predicted[0] < choice.predicted[1]);
    }

    #[test]
    fn hash_operators_need_fan_out_plus_one_blocks_of_memory() {
        let e = env(); // 8 blocks of memory
        let hashes = cycle_hashes(1_000, 100);
        let ok =
            PlanExpr::scan(1_000, REC, Order::Unordered).hash_group_by(hashes.clone(), 7, REC, 100);
        let over = PlanExpr::scan(1_000, REC, Order::Unordered).hash_group_by(hashes, 8, REC, 100);
        assert!(predict(&ok, &e).feasible());
        assert!(!predict(&over, &e).feasible());
    }

    #[test]
    fn group_by_costs_exactly_its_input() {
        let e = env();
        let join = PlanExpr::scan(1000, REC, Order::Key(1)).merge_join(
            PlanExpr::scan(64, REC, Order::Key(1)),
            1,
            REC,
            1000,
        );
        let grouped = join.clone().group_by(1, REC, 10, Order::Key(1));
        assert_eq!(
            predict(&grouped, &e).transfers,
            predict(&join, &e).transfers
        );
    }
}
