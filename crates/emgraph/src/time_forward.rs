//! Time-forward processing: evaluating a DAG with an external priority
//! queue.
//!
//! Given a DAG whose vertices are numbered in topological order, compute a
//! value at every vertex as a function of its label and the values of its
//! in-neighbours.  In internal memory this is a trivial sweep; externally,
//! fetching each predecessor's value on demand would cost one I/O per edge.
//! The survey's technique instead *sends values forward in time*: when
//! vertex `u` is evaluated, its value is inserted into an external priority
//! queue once per out-edge, keyed by the destination; when `v`'s turn
//! comes, its incoming values are exactly the queue's current minima.
//!
//! Total cost: `O(Sort(E))` I/Os (experiment F14).  This pattern powers
//! maximal-independent-set, expression-DAG evaluation, and more.

use em_core::{ExtVec, ExtVecWriter};
use emsort::{merge_sort_streaming, SortConfig};
use emtree::ExtPriorityQueue;
use pdm::{PdmError, Result};

fn malformed(what: &str) -> PdmError {
    PdmError::InvalidRequest(format!("malformed DAG: {what}"))
}

/// Evaluate a topologically-numbered DAG.
///
/// * `labels` — `(vertex, label)` for every vertex, sorted by vertex id.
/// * `edges` — `(src, dst)` with `src < dst` (any order; sorted internally).
/// * `f(vertex, label, incoming)` — the local update; `incoming` holds the
///   values of all in-neighbours, sorted by source vertex id.
///
/// Returns `(vertex, value)` sorted by vertex id.  An edge with
/// `dst ≤ src`, or whose source is not in `labels`, is
/// [`InvalidRequest`](PdmError::InvalidRequest).
pub fn time_forward<F>(
    labels: &ExtVec<(u64, u64)>,
    edges: &ExtVec<(u64, u64)>,
    cfg: &SortConfig,
    mut f: F,
) -> Result<ExtVec<(u64, u64)>>
where
    F: FnMut(u64, u64, &[u64]) -> u64,
{
    let device = labels.device().clone();

    // Messages travel through the EPQ as (dst, src, value).
    let mut pq: ExtPriorityQueue<(u64, u64, u64)> =
        ExtPriorityQueue::new(device.clone(), cfg.mem_records)?;

    let mut out: ExtVecWriter<(u64, u64)> = ExtVecWriter::new(device);
    // The sorted edge list is consumed in exactly one forward pass, so the
    // final merge is fused into the sweep instead of materializing it.
    merge_sort_streaming(
        edges,
        cfg,
        |a, b| a < b,
        |stream| {
            let mut pending_edge: Option<(u64, u64)> = stream.try_next()?;
            let mut incoming: Vec<u64> = Vec::new();

            let mut lr = labels.reader();
            while let Some((v, label)) = lr.try_next()? {
                // Collect incoming values (sorted by src because the EPQ orders
                // by (dst, src, value)).
                incoming.clear();
                while let Some((d, _, value)) = pq.peek()? {
                    if d != v {
                        break;
                    }
                    pq.pop()?;
                    incoming.push(value);
                }
                let value = f(v, label, &incoming);
                out.push((v, value))?;
                // Forward the value along out-edges.
                while let Some((s, d)) = pending_edge.filter(|&(s, _)| s == v) {
                    if d <= s {
                        return Err(malformed("edge does not respect topological numbering"));
                    }
                    pq.push((d, s, value))?;
                    pending_edge = stream.try_next()?;
                }
                // An edge from a vertex already passed names no label.
                if pending_edge.is_some_and(|(s, _)| s < v) {
                    return Err(malformed("edge source out of topological order"));
                }
            }
            if pending_edge.is_some() {
                return Err(malformed("edge references vertex beyond the label array"));
            }
            Ok(())
        },
    )?;
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_dag;
    use em_core::EmConfig;
    use pdm::SharedDevice;

    fn device() -> SharedDevice {
        EmConfig::new(128, 16).ram_disk()
    }

    fn vertex_labels(d: &SharedDevice, n: u64, f: impl Fn(u64) -> u64) -> ExtVec<(u64, u64)> {
        let v: Vec<(u64, u64)> = (0..n).map(|i| (i, f(i))).collect();
        ExtVec::from_slice(d.clone(), &v).unwrap()
    }

    #[test]
    fn longest_path_in_dag() {
        let d = device();
        let n = 2000u64;
        let dag = random_dag(d.clone(), n, 3, 101).unwrap();
        let labels = vertex_labels(&d, n, |_| 0);
        let cfg = SortConfig::new(256);
        // value(v) = longest path ending at v.
        let got = time_forward(&labels, &dag, &cfg, |_, _, incoming| {
            incoming.iter().copied().max().map_or(0, |m| m + 1)
        })
        .unwrap();
        // Reference.
        let edges = dag.to_vec().unwrap();
        let mut best = vec![0u64; n as usize];
        for (u, v) in edges {
            best[v as usize] = best[v as usize].max(best[u as usize] + 1);
        }
        let expect: Vec<(u64, u64)> = (0..n).map(|v| (v, best[v as usize])).collect();
        assert_eq!(got.to_vec().unwrap(), expect);
    }

    #[test]
    fn path_count_mod_prime() {
        let d = device();
        let n = 1000u64;
        let dag = random_dag(d.clone(), n, 2, 103).unwrap();
        // label = 1 for the unique source 0 (path of length 0), else 0.
        let labels = vertex_labels(&d, n, |v| u64::from(v == 0));
        let cfg = SortConfig::new(256);
        const P: u64 = 1_000_000_007;
        let got = time_forward(&labels, &dag, &cfg, |_, label, incoming| {
            (label + incoming.iter().sum::<u64>()) % P
        })
        .unwrap();
        let edges = dag.to_vec().unwrap();
        let mut cnt = vec![0u64; n as usize];
        cnt[0] = 1;
        for (u, v) in edges {
            cnt[v as usize] = (cnt[v as usize] + cnt[u as usize]) % P;
        }
        let expect: Vec<(u64, u64)> = (0..n).map(|v| (v, cnt[v as usize])).collect();
        assert_eq!(got.to_vec().unwrap(), expect);
    }

    #[test]
    fn incoming_values_are_sorted_by_source() {
        let d = device();
        // Diamond: 0→3, 1→3, 2→3 with distinct values.
        let labels = vertex_labels(&d, 4, |v| v * 10);
        let dag = ExtVec::from_slice(d, &[(0u64, 3u64), (1, 3), (2, 3)]).unwrap();
        let cfg = SortConfig::new(128);
        let got = time_forward(&labels, &dag, &cfg, |v, label, incoming| {
            if v == 3 {
                // Expect values from sources 0,1,2 in that order.
                assert_eq!(incoming, &[0, 10, 20]);
            }
            label
        })
        .unwrap();
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn isolated_vertices_evaluate_with_no_incoming() {
        let d = device();
        let labels = vertex_labels(&d, 5, |v| v + 100);
        let dag: ExtVec<(u64, u64)> = ExtVec::new(d);
        let cfg = SortConfig::new(128);
        let got = time_forward(&labels, &dag, &cfg, |_, label, incoming| {
            assert!(incoming.is_empty());
            label
        })
        .unwrap();
        assert_eq!(
            got.to_vec().unwrap(),
            (0..5u64).map(|v| (v, v + 100)).collect::<Vec<_>>()
        );
    }

    /// `time_forward` over `labels` and `edges` is `InvalidRequest`, and
    /// leaves the device with the blocks it found.
    fn assert_malformed(labels: &[(u64, u64)], edges: &[(u64, u64)], what: &str) {
        let d = device();
        let labels = ExtVec::from_slice(d.clone(), labels).unwrap();
        // Enough edges that the sort spills runs before the sweep meets
        // the bad one.
        let dag = ExtVec::from_slice(d.clone(), edges).unwrap();
        let allocated = d.allocated_blocks();
        let got = time_forward(&labels, &dag, &SortConfig::new(128), |_, l, _| l);
        match got {
            Err(PdmError::InvalidRequest(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!(
                "expected InvalidRequest({what}), got {:?}",
                other.map(|v| v.len())
            ),
        }
        assert_eq!(d.allocated_blocks(), allocated, "{what}: leaked");
    }

    #[test]
    fn backward_edge_rejected() {
        let chain: Vec<(u64, u64)> = (0..999).map(|v| (v, v + 1)).collect();
        let labels: Vec<(u64, u64)> = (0..1000).map(|v| (v, 0)).collect();
        for bad in [(700, 300), (500, 500)] {
            let edges: Vec<(u64, u64)> = chain.iter().copied().chain([bad]).collect();
            assert_malformed(&labels, &edges, "topological numbering");
        }
    }

    #[test]
    fn an_edge_from_an_unlabelled_vertex_is_rejected() {
        let chain: Vec<(u64, u64)> = (0..999).map(|v| (v, v + 1)).collect();
        // Vertex 600 has no label: its out-edge is met after the sweep
        // passed it.
        let gap: Vec<(u64, u64)> = (0..1000).filter(|&v| v != 600).map(|v| (v, 0)).collect();
        assert_malformed(&gap, &chain, "out of topological order");
        // Labels stop at 800: the edges from 800 on are never reached.
        let short: Vec<(u64, u64)> = (0..800).map(|v| (v, 0)).collect();
        assert_malformed(&short, &chain, "beyond the label array");
    }

    #[test]
    fn io_cost_scales_with_sort_not_edges() {
        // Realistic block size so Sort(E) ≪ E.
        let d = EmConfig::new(4096, 16).ram_disk();
        let n = 5000u64;
        let dag = random_dag(d.clone(), n, 4, 107).unwrap();
        let labels = vertex_labels(&d, n, |_| 0);
        let e = dag.len();
        let before = d.stats().snapshot();
        time_forward(&labels, &dag, &SortConfig::new(4096), |_, _, inc| {
            inc.len() as u64
        })
        .unwrap();
        let ios = d.stats().snapshot().since(&before).total();
        // Must be far below 1 I/O per edge.
        assert!(
            (ios as f64) < 0.5 * e as f64,
            "time-forward used {ios} I/Os for {e} edges"
        );
    }
}
