//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics.  `BENCHMARK.json` at the repo root
//! carries the same tables for the driver; a unit test keeps the two equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sort_io",
        why: "device-bound sort: pdm overlap and lane balance set the time, a faster merge kernel must not",
    },
    Workload {
        name: "sort_cpu",
        why: "CPU-bound sort on a RAM device: run formation and the merge loop set the time, scheduling must not",
    },
    Workload {
        name: "query_io",
        why: "planner-chosen Q1/Q3u plans on a 1 ms device: planner choice times operator overlap, as a query user waits",
    },
    Workload {
        name: "query_cpu",
        why: "same queries, 15x the rows, RAM device: per-row try_next and dyn dispatch cost, overlap fixes must leave it flat",
    },
    Workload {
        name: "serve_read",
        why: "Zipf gets on a working set far larger than hot cache and buffer pool: cache, delta, B-tree read path only",
    },
    Workload {
        name: "serve_write",
        why: "journaled shard under puts and deletes: absorber, WAL checkpoints and compaction, then crash and recover",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median an end-to-end metric may worsen by.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound,
    }
}

/// Reported by every workload's untraced run; lower is better for all.
/// README "End-to-end metrics" defines each per workload.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", 0.25),
    e2e("wall_s", "s", 0.10),
    e2e("floor_ratio", "ratio", 0.15),
    e2e("transfers", "count", 0.10),
    e2e("write_amp", "ratio", 0.10),
    e2e("space_amp", "ratio", 0.05),
    e2e("p50_ms", "ms", 0.15),
    e2e("p95_ms", "ms", 0.15),
    e2e("peak_rss_mb", "MiB", 0.20),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Reported by every workload's traced run (0 where a workload does not
/// exercise the layer).  README "Per-layer metrics" ties each to the
/// end-to-end metric and workload it should move.
pub const PER_LAYER: &[Metric] = &[
    layer("pdm.transfer_us", "us", "lower"),
    layer("pdm.reads", "count", "lower"),
    layer("pdm.writes", "count", "lower"),
    layer("pdm.parallel_ios", "count", "lower"),
    layer("pdm.device_floor_s", "s", "lower"),
    layer("pdm.max_lane_share", "ratio", "lower"),
    layer("pdm.queue_depth_hwm", "count", "higher"),
    layer("pdm.prefetch_hit_ratio", "ratio", "higher"),
    layer("pdm.prefetch_wasted", "count", "lower"),
    layer("pdm.retries", "count", "lower"),
    layer("pdm.pool_hit_ratio", "ratio", "higher"),
    layer("pdm.pool_evictions", "count", "lower"),
    layer("pdm.pool_writebacks", "count", "lower"),
    layer("pdm.wal_shadow_writes", "count", "lower"),
    layer("pdm.wal_chain_writes", "count", "lower"),
    layer("pdm.wal_header_writes", "count", "lower"),
    layer("pdm.wal_apply_transfers", "count", "lower"),
    layer("pdm.wal_checkpoints", "count", "lower"),
    layer("core.write_ns_per_record", "ns", "lower"),
    layer("core.read_ns_per_record", "ns", "lower"),
    layer("emsort.run_formation_s", "s", "lower"),
    layer("emsort.merge_s", "s", "lower"),
    layer("emsort.run_formation_cpu_s", "s", "lower"),
    layer("emsort.merge_cpu_s", "s", "lower"),
    layer("emsort.runs", "count", "lower"),
    layer("emsort.run_formation_ns_per_record", "ns", "lower"),
    layer("emsort.merge_ns_per_record", "ns", "lower"),
    layer("emsort.run_formation_floor_ratio", "ratio", "lower"),
    layer("emsort.merge_floor_ratio", "ratio", "lower"),
    layer("emhash.partition_s", "s", "lower"),
    layer("emhash.partition_ns_per_record", "ns", "lower"),
    layer("emhash.partition_floor_ratio", "ratio", "lower"),
    layer("emhash.partition_queue_depth_hwm", "count", "higher"),
    layer("emhash.partition_max_lane_share", "ratio", "lower"),
    layer("emrel.q1_hash_s", "s", "lower"),
    layer("emrel.q1_sort_s", "s", "lower"),
    layer("emrel.q3u_grace_s", "s", "lower"),
    layer("emrel.q3u_merge_s", "s", "lower"),
    layer("emrel.q1_hash_transfers", "count", "lower"),
    layer("emrel.q1_sort_transfers", "count", "lower"),
    layer("emrel.q3u_grace_transfers", "count", "lower"),
    layer("emrel.q3u_merge_transfers", "count", "lower"),
    layer("emrel.q1_hash_floor_ratio", "ratio", "lower"),
    layer("emrel.q1_sort_floor_ratio", "ratio", "lower"),
    layer("emrel.q3u_grace_floor_ratio", "ratio", "lower"),
    layer("emrel.q3u_merge_floor_ratio", "ratio", "lower"),
    layer("emrel.plan_us", "us", "lower"),
    layer("emrel.predicted_over_measured", "ratio", "lower"),
    layer("emrel.q1_plan_regret", "ratio", "lower"),
    layer("emrel.q3u_plan_regret", "ratio", "lower"),
    layer("emrel.rows_per_s", "1/s", "higher"),
    layer("emtree.reads_per_get", "ratio", "lower"),
    layer("emtree.absorber_transfers_per_op", "ratio", "lower"),
    layer("emtree.compact_ms_p50", "ms", "lower"),
    layer("emtree.compact_ms_max", "ms", "lower"),
    layer("emserve.cache_hit_ratio", "ratio", "higher"),
    layer("emserve.cache_rejected", "count", "lower"),
    layer("emserve.submit_us_p50", "us", "lower"),
    layer("emserve.flush_batch_ms_p50", "ms", "lower"),
    layer("emserve.flush_batch_ms_max", "ms", "lower"),
    layer("emserve.get_us_p50", "us", "lower"),
    layer("emserve.compactions", "count", "lower"),
    layer("emserve.checkpoints", "count", "lower"),
    layer("emserve.journal_transfer_ratio", "ratio", "lower"),
    layer("emserve.recover_ms", "ms", "lower"),
    layer("emserve.lost_acked_writes", "count", "lower"),
    layer("emserve.open_p50_ms", "ms", "lower"),
    layer("emserve.open_p99_ms", "ms", "lower"),
    layer("emserve.open_late_ms_max", "ms", "lower"),
    layer("bench.cpu_s", "s", "lower"),
    layer("bench.trace_overhead_ratio", "ratio", "lower"),
    layer("bench.calibration_drift", "ratio", "lower"),
];

/// `a / b`, or 0 when `b` is 0 (a layer that did nothing has no ratio, and
/// a result line cannot carry NaN).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What one run of one workload found.
#[derive(Default)]
pub struct Report {
    /// Operations checked against an oracle, and how many were wrong.
    pub attempted: u64,
    pub failed: u64,
    /// "Measures nothing" guards that tripped; any makes the run incorrect.
    pub guard_failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} = {value} is not a number");
        let known = END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name);
        assert!(known, "{name} is not a metric of this benchmark");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// One oracle verdict.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn guard(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.guard_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.guard_failures.is_empty()
    }

    /// The result line of the driver's contract: every end-to-end metric
    /// (untraced) or every per-layer metric (traced), in table order.
    pub fn result_line(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in table.iter().enumerate() {
            let value = match self.get(m.name) {
                Some(v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {} was not measured", m.name),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// binary reports and `compare` enforces.  They must not drift apart.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("parse BENCHMARK.json");
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).unwrap().items();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (j, m) in listed.iter().zip(table) {
                assert_eq!(field(j, "name"), m.name);
                assert_eq!(field(j, "unit"), m.unit, "{}", m.name);
                assert_eq!(field(j, "better"), m.better, "{}", m.name);
                let bound = j.get("bound").and_then(Json::as_f64);
                assert_eq!(
                    bound,
                    (key == "end_to_end").then_some(m.bound),
                    "{}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn result_line_round_trips() {
        let mut r = Report::default();
        for m in END_TO_END {
            r.set(m.name, 1.5);
        }
        r.check(true);
        let v = Json::parse(&r.result_line(false)).unwrap();
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("metrics").unwrap().members().len(), END_TO_END.len());
        r.check(false);
        r.set("pdm.reads", 3.0);
        let v = Json::parse(&r.result_line(true)).unwrap();
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("failed").and_then(Json::as_f64), Some(1.0));
        let m = v.get("metrics").unwrap();
        assert_eq!(m.members().len(), PER_LAYER.len());
        assert_eq!(
            m.get("pdm.reads")
                .unwrap()
                .get("value")
                .and_then(Json::as_f64),
            Some(3.0)
        );
        assert_eq!(
            m.get("pdm.writes")
                .unwrap()
                .get("value")
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }
}
