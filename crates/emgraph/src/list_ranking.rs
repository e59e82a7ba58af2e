//! External list ranking by randomized independent-set contraction.
//!
//! Given a linked list stored as an unordered `(node, successor)` array,
//! compute each node's *rank* — the prefix sum of node weights along the
//! list.  In internal memory one pointer walk suffices; in external memory
//! that walk costs `Θ(N)` I/Os because consecutive list nodes live in
//! unrelated blocks ([`list_rank_naive`], the baseline of experiment F9).
//!
//! The survey's solution contracts the list: flip a coin per node, remove
//! the independent set `{v : heads(v) ∧ tails(pred(v))}` (≈ N/4 nodes)
//! by splicing each removed node's weight into its predecessor, recurse on
//! the ~3N/4 survivors, and reintegrate the removed nodes afterwards.
//! Every round is a constant number of sorts and scans, so the total is
//!
//! ```text
//! T(N) = T(3N/4) + O(Sort(N)) = O(Sort(N)).
//! ```

use std::collections::HashMap;

use em_core::{ExtVec, ExtVecWriter};
use emsort::{merge_sort_by, merge_sort_streaming, SortConfig, SortingWriter};
use pdm::hash::splitmix;
use pdm::{PdmError, Result};

/// "No successor" sentinel for list tails.
pub const NIL: u64 = u64::MAX;

/// Rank the list `succ` (pairs `(node, successor)`, sorted by node id, tail
/// successor = `NIL`) from `head` with unit weights: the head gets rank 0,
/// its successor 1, and so on.  Returns `(node, rank)` sorted by node id.
///
/// Node ids that do not strictly increase are [`PdmError::InvalidRequest`],
/// found by the one scan that attaches the weights, before anything is
/// ranked; otherwise as [`list_rank_weighted`].
pub fn list_rank(
    succ: &ExtVec<(u64, u64)>,
    head: u64,
    cfg: &SortConfig,
) -> Result<ExtVec<(u64, u64)>> {
    // Attach unit weights.
    let mut w: ExtVecWriter<(u64, u64, i64)> = ExtVecWriter::new(succ.device().clone());
    let mut r = succ.reader();
    let mut prev = None;
    while let Some((id, s)) = r.try_next()? {
        check_sorted(&mut prev, id)?;
        w.push((id, s, 1))?;
    }
    let nodes = w.finish()?;
    let ranks = list_rank_weighted(&nodes, head, cfg)?;
    nodes.free()?;
    // Unit ranks are nonnegative; convert to u64.
    let mut out: ExtVecWriter<(u64, u64)> = ExtVecWriter::new(succ.device().clone());
    let mut r = ranks.reader();
    while let Some((id, rank)) = r.try_next()? {
        debug_assert!(rank >= 0);
        out.push((id, rank as u64))?;
    }
    drop(r);
    ranks.free()?;
    out.finish()
}

/// Weighted list ranking: input records `(node, successor, weight)` sorted
/// by node id; `rank(head) = 0` and `rank(succ(v)) = rank(v) + weight(v)`.
/// Returns `(node, rank)` sorted by node id.  `O(Sort(N))` I/Os.
///
/// Records that are not one list from `head` sorted by node id — node ids
/// that do not strictly increase, a successor or head that is not a node, a
/// cycle, or nodes no contraction can splice — are
/// [`PdmError::InvalidRequest`].  Unsorted ids are found by the first scan,
/// the one that lists each node's predecessor.
pub fn list_rank_weighted(
    nodes: &ExtVec<(u64, u64, i64)>,
    head: u64,
    cfg: &SortConfig,
) -> Result<ExtVec<(u64, i64)>> {
    rank_rec(nodes, head, cfg, 0)
}

fn rank_rec(
    nodes: &ExtVec<(u64, u64, i64)>,
    head: u64,
    cfg: &SortConfig,
    mut level: u64,
) -> Result<ExtVec<(u64, i64)>> {
    let device = nodes.device().clone();
    let n = nodes.len();

    // Base case: rank in memory.
    if n as usize <= cfg.mem_records {
        let all = nodes.to_vec()?;
        let mut map: HashMap<u64, (u64, i64)> = HashMap::with_capacity(all.len());
        let mut prev = None;
        for &(id, s, w) in &all {
            check_sorted(&mut prev, id)?;
            map.insert(id, (s, w));
        }
        let mut ranks: Vec<(u64, i64)> = Vec::with_capacity(all.len());
        let mut cur = head;
        let mut acc = 0i64;
        for _ in 0..all.len() {
            let Some(&(s, w)) = map.get(&cur) else {
                return Err(invalid("the chain from the head leaves the list"));
            };
            ranks.push((cur, acc));
            acc += w;
            cur = s;
        }
        if cur != NIL {
            return Err(invalid("the list does not end after N hops"));
        }
        ranks.sort_unstable_by_key(|&(id, _)| id);
        return ExtVec::from_slice(device, &ranks);
    }

    // Remove an independent set, retrying with fresh coins while the
    // coins remove nothing.
    let (splices, saved, survivors) = loop {
        if level >= 256 {
            return Err(invalid("list ranking failed to make progress"));
        }
        // Predecessor pairs (succ, node), sorted by target: produced by one scan
        // and consumed once by the removal scan, so both ends of the sort fuse.
        let preds = {
            let mut w = SortingWriter::new(device.clone(), cfg, |a: &(u64, u64), b| a.0 < b.0);
            let mut r = nodes.reader();
            let mut prev = None;
            while let Some((id, s, _)) = r.try_next()? {
                check_sorted(&mut prev, id)?;
                if s != NIL {
                    w.push((s, id))?;
                }
            }
            w
        };

        // Decide removals and emit splices / saves / survivors.
        let mut splices: ExtVecWriter<(u64, u64, i64)> = ExtVecWriter::new(device.clone()); // (pred, new_succ, w_removed)
        let mut saved: ExtVecWriter<(u64, u64)> = ExtVecWriter::new(device.clone()); // (pred, removed)
        let mut survivors: ExtVecWriter<(u64, u64, i64)> = ExtVecWriter::new(device.clone());
        let mut removed_count = 0u64;
        preds.finish_streaming(|rp| {
            let mut rn = nodes.reader();
            let mut cur_pred: Option<(u64, u64)> = rp.try_next()?;
            while let Some((id, s, w)) = rn.try_next()? {
                while cur_pred.is_some_and(|(t, _)| t < id) {
                    cur_pred = rp.try_next()?;
                }
                let pred = match cur_pred {
                    Some((t, p)) if t == id => Some(p),
                    _ => None,
                };
                let removable = id != head && coin(level, id);
                if let Some(p) = pred.filter(|&p| removable && !coin(level, p)) {
                    splices.push((p, s, w))?;
                    saved.push((p, id))?;
                    removed_count += 1;
                } else {
                    survivors.push((id, s, w))?;
                }
            }
            Ok(())
        })?;
        let splices = splices.finish()?;
        let saved = saved.finish()?;
        let survivors = survivors.finish()?;
        if removed_count > 0 {
            break (splices, saved, survivors);
        }
        splices.free()?;
        saved.free()?;
        survivors.free()?;
        level += 1;
    };

    // Apply splices to survivors, remembering each spliced predecessor's
    // *old* weight (needed to reintegrate its removed successor).  The
    // sorted splices are consumed once, so the final merge streams in.
    let mut contracted: ExtVecWriter<(u64, u64, i64)> = ExtVecWriter::new(device.clone());
    let mut old_weights: ExtVecWriter<(u64, i64)> = ExtVecWriter::new(device.clone()); // (pred, w_old)
    merge_sort_streaming(
        &splices,
        cfg,
        |a, b| a.0 < b.0,
        |rx| {
            let mut rs = survivors.reader();
            let mut cur: Option<(u64, u64, i64)> = rx.try_next()?;
            while let Some((id, s, w)) = rs.try_next()? {
                match cur {
                    Some((p, new_s, w_removed)) if p == id => {
                        old_weights.push((id, w))?;
                        contracted.push((id, new_s, w + w_removed))?;
                        cur = rx.try_next()?;
                    }
                    _ => contracted.push((id, s, w))?,
                }
            }
            debug_assert!(cur.is_none(), "splice targeted a non-survivor");
            Ok(())
        },
    )?;
    survivors.free()?;
    splices.free()?;
    // `old_weights` is sorted by pred (survivor order).
    let contracted = contracted.finish()?;
    let old_weights = old_weights.finish()?;

    // Recurse.
    let sub_ranks = rank_rec(&contracted, head, cfg, level + 1)?;
    contracted.free()?;

    // Reintegrate: rank(removed) = rank(pred) + old_weight(pred).  The
    // sorted saved pairs are consumed once, so the final merge streams in.
    let mut all_ranks: ExtVecWriter<(u64, i64)> = ExtVecWriter::new(device.clone());
    merge_sort_streaming(
        &saved,
        cfg,
        |a, b| a.0 < b.0,
        |rs| {
            let mut rr = sub_ranks.reader();
            let mut rw = old_weights.reader();
            let mut cur_saved: Option<(u64, u64)> = rs.try_next()?;
            let mut cur_w: Option<(u64, i64)> = rw.try_next()?;
            while let Some((id, rank)) = rr.try_next()? {
                all_ranks.push((id, rank))?;
                if let Some((_, removed)) = cur_saved.filter(|&(p, _)| p == id) {
                    // Every spliced predecessor recorded its old weight.
                    debug_assert_eq!(cur_w.map(|(p, _)| p), Some(id));
                    let w_old = cur_w.map_or(0, |(_, w)| w);
                    all_ranks.push((removed, rank + w_old))?;
                    cur_saved = rs.try_next()?;
                    cur_w = rw.try_next()?;
                }
            }
            Ok(())
        },
    )?;
    sub_ranks.free()?;
    saved.free()?;
    old_weights.free()?;
    let all_ranks = all_ranks.finish()?;
    let sorted = merge_sort_by(&all_ranks, cfg, |a, b| a.0 < b.0)?;
    all_ranks.free()?;
    Ok(sorted)
}

/// Baseline: chase the successor pointers one node at a time — `Θ(N)`
/// random I/Os.  Requires dense node ids `0..N` (the pairs array is indexed
/// directly).  Returns `(node, rank)` sorted by node id; a chain longer
/// than the list — a cycle — is [`PdmError::InvalidRequest`].
pub fn list_rank_naive(
    succ: &ExtVec<(u64, u64)>,
    head: u64,
    cfg: &SortConfig,
) -> Result<ExtVec<(u64, u64)>> {
    // The chase holds one block, so its visit order goes straight into the
    // sort by node id.
    let mut out = SortingWriter::new(succ.device().clone(), cfg, |a: &(u64, u64), b| a.0 < b.0);
    let mut cur = head;
    let mut rank = 0u64;
    while cur != NIL {
        let (id, s) = succ.get(cur)?; // one random I/O per hop
        debug_assert_eq!(id, cur, "dense id indexing violated");
        out.push((cur, rank))?;
        rank += 1;
        cur = s;
        if rank > succ.len() {
            return Err(invalid("cycle detected"));
        }
    }
    out.finish_sorted()
}

fn invalid(what: &str) -> PdmError {
    PdmError::InvalidRequest(format!("list ranking: {what}"))
}

/// [`PdmError::InvalidRequest`] unless node `id` follows `prev`, the node
/// before it, in increasing order; then `id` becomes `prev`.
fn check_sorted(prev: &mut Option<u64>, id: u64) -> Result<()> {
    if let Some(p) = prev.filter(|&p| id <= p) {
        return Err(PdmError::InvalidRequest(format!(
            "list node {id} follows node {p}: nodes must be sorted by id"
        )));
    }
    *prev = Some(id);
    Ok(())
}

/// Deterministic per-(level, id) coin flip.
fn coin(level: u64, id: u64) -> bool {
    splitmix(id ^ level.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_list;
    use em_core::{bounds, EmConfig};
    use pdm::SharedDevice;

    fn device() -> SharedDevice {
        EmConfig::new(128, 8).ram_disk() // 8 triples / 16 pairs per block
    }

    fn reference_ranks(pairs: &[(u64, u64)], head: u64) -> Vec<(u64, u64)> {
        let succ: std::collections::HashMap<u64, u64> = pairs.iter().copied().collect();
        let mut out = Vec::new();
        let mut cur = head;
        let mut rank = 0;
        while cur != NIL {
            out.push((cur, rank));
            rank += 1;
            cur = succ[&cur];
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn ranks_random_list() {
        let d = device();
        let (list, head) = random_list(d.clone(), 2000, 71).unwrap();
        let cfg = SortConfig::new(128);
        let ranks = list_rank(&list, head, &cfg).unwrap();
        assert_eq!(
            ranks.to_vec().unwrap(),
            reference_ranks(&list.to_vec().unwrap(), head)
        );
    }

    #[test]
    fn small_lists_hit_base_case() {
        let d = device();
        for n in [1u64, 2, 5, 64] {
            let (list, head) = random_list(d.clone(), n, n).unwrap();
            let ranks = list_rank(&list, head, &SortConfig::new(128)).unwrap();
            assert_eq!(
                ranks.to_vec().unwrap(),
                reference_ranks(&list.to_vec().unwrap(), head),
                "n={n}"
            );
        }
    }

    #[test]
    fn weighted_ranks_including_negative() {
        let d = device();
        // List 0 → 1 → 2 → 3 with weights +5, −2, +7, (tail weight unused).
        let nodes = ExtVec::from_slice(
            d,
            &[(0u64, 1u64, 5i64), (1, 2, -2), (2, 3, 7), (3, NIL, 100)],
        )
        .unwrap();
        let ranks = list_rank_weighted(&nodes, 0, &SortConfig::new(128)).unwrap();
        assert_eq!(
            ranks.to_vec().unwrap(),
            vec![(0, 0), (1, 5), (2, 3), (3, 10)]
        );
    }

    #[test]
    fn weighted_large_forced_contraction() {
        let d = device();
        let (list, head) = random_list(d.clone(), 3000, 73).unwrap();
        // Weight = id so the prefix sums are distinctive.
        let mut w: ExtVecWriter<(u64, u64, i64)> = ExtVecWriter::new(d.clone());
        let mut r = list.reader();
        while let Some((id, s)) = r.try_next().unwrap() {
            w.push((id, s, id as i64)).unwrap();
        }
        let nodes = w.finish().unwrap();
        let cfg = SortConfig::new(100); // << N: forces many contraction levels
        let ranks = list_rank_weighted(&nodes, head, &cfg)
            .unwrap()
            .to_vec()
            .unwrap();
        // Reference.
        let pairs = list.to_vec().unwrap();
        let succ: std::collections::HashMap<u64, u64> = pairs.iter().copied().collect();
        let mut expect = Vec::new();
        let mut cur = head;
        let mut acc = 0i64;
        while cur != NIL {
            expect.push((cur, acc));
            acc += cur as i64;
            cur = succ[&cur];
        }
        expect.sort_unstable();
        assert_eq!(ranks, expect);
    }

    #[test]
    fn naive_matches_contraction() {
        let d = device();
        let (list, head) = random_list(d.clone(), 800, 77).unwrap();
        let cfg = SortConfig::new(128);
        let a = list_rank(&list, head, &cfg).unwrap().to_vec().unwrap();
        let b = list_rank_naive(&list, head, &cfg)
            .unwrap()
            .to_vec()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn contraction_beats_naive_on_io() {
        // A realistic block size (B = 256 pairs) — with tiny blocks the
        // constant factors of sorting exceed N and pointer chasing wins,
        // which is exactly the crossover the survey describes.
        let d = EmConfig::new(4096, 16).ram_disk();
        let n = 65_536u64;
        let (list, head) = random_list(d.clone(), n, 79).unwrap();
        let cfg = SortConfig::new(8192);

        let before = d.stats().snapshot();
        list_rank_naive(&list, head, &cfg).unwrap();
        let naive = d.stats().snapshot().since(&before).total();

        let before = d.stats().snapshot();
        list_rank(&list, head, &cfg).unwrap();
        let smart = d.stats().snapshot().since(&before).total();

        assert!(
            naive as f64 >= n as f64,
            "naive must pay ~1 I/O per hop, got {naive}"
        );
        assert!(
            smart < naive,
            "contraction ({smart}) should beat pointer chasing ({naive})"
        );
        // And stay within a constant of Sort(N).  The constant is genuinely
        // large (~4 sorts per contraction level over ~4N total records, and
        // the triple records are 3× the size of the u64s the bound counts);
        // the survey itself notes list ranking's constants are substantial.
        let bound = bounds::sort(n, 8192, 256);
        assert!((smart as f64) < 80.0 * bound, "smart={smart} bound={bound}");
    }

    fn assert_invalid<T>(got: Result<T>, what: &str) {
        match got.map(|_| ()) {
            Err(PdmError::InvalidRequest(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("expected InvalidRequest({what}), got {other:?}"),
        }
    }

    #[test]
    fn nodes_no_contraction_can_splice_are_an_error_not_a_panic() {
        // 200 one-node lists: past M no node has a predecessor to splice
        // into, at any level.
        let d = device();
        let singletons: Vec<(u64, u64, i64)> = (0..200).map(|i| (i, NIL, 1)).collect();
        let nodes = ExtVec::from_slice(d, &singletons).unwrap();
        let got = list_rank_weighted(&nodes, 0, &SortConfig::new(128));
        assert_invalid(got, "failed to make progress");
    }

    #[test]
    fn a_chain_leaving_the_list_is_an_error_not_a_panic() {
        let d = device();
        let broken = ExtVec::from_slice(d.clone(), &[(0u64, 7u64), (1, NIL)]).unwrap();
        assert_invalid(
            list_rank(&broken, 0, &SortConfig::new(128)),
            "leaves the list",
        );
        let list = ExtVec::from_slice(d, &[(0u64, 1u64), (1, NIL)]).unwrap();
        assert_invalid(
            list_rank(&list, 5, &SortConfig::new(128)),
            "leaves the list",
        );
    }

    #[test]
    fn a_cycle_is_an_error_not_a_panic() {
        let d = device();
        let cycle = ExtVec::from_slice(d.clone(), &[(0u64, 1u64), (1, 2), (2, 0)]).unwrap();
        let cfg = SortConfig::new(128);
        assert_invalid(list_rank(&cycle, 0, &cfg), "does not end");
        let before = d.allocated_blocks();
        assert_invalid(list_rank_naive(&cycle, 0, &cfg), "cycle detected");
        assert_eq!(
            d.allocated_blocks(),
            before,
            "the chase's sort is discarded"
        );
    }

    /// Malformed lists of 300 nodes under `M = 128` that only the base case
    /// or a deeper level finds: each is an error that returns every block
    /// the outer levels allocated.
    #[test]
    fn a_malformed_list_found_below_the_top_level_frees_every_level() {
        let d = device();
        let cfg = SortConfig::new(128);
        let chain =
            |n: u64, last: u64| (0..n).map(move |i| (i, if i + 1 < n { i + 1 } else { last }));
        let cycle: Vec<(u64, u64)> = chain(300, 0).collect();
        let dangling: Vec<(u64, u64)> = chain(300, NIL)
            .map(|(v, s)| (v, if v == 150 { 1_000 } else { s }))
            .collect();
        // A 100-node list beside 200 one-node lists: the list contracts,
        // then no level can splice the 200.
        let stuck: Vec<(u64, u64)> = chain(100, NIL)
            .chain((100..300).map(|i| (i, NIL)))
            .collect();
        for (pairs, what) in [
            (cycle, "does not end"),
            (dangling, "leaves the list"),
            (stuck, "failed to make progress"),
        ] {
            let list = ExtVec::from_slice(d.clone(), &pairs).unwrap();
            let before = d.allocated_blocks();
            assert_invalid(list_rank(&list, 0, &cfg), what);
            assert_eq!(d.allocated_blocks(), before, "{what}");
            let weighted: Vec<(u64, u64, i64)> = pairs.iter().map(|&(v, s)| (v, s, 1)).collect();
            let nodes = ExtVec::from_slice(d.clone(), &weighted).unwrap();
            let before = d.allocated_blocks();
            assert_invalid(list_rank_weighted(&nodes, 0, &cfg), what);
            assert_eq!(d.allocated_blocks(), before, "{what}, weighted");
        }
    }

    /// A list whose node ids are not sorted — one swapped pair halfway —
    /// fails in the first scan of `list_rank` (the one that attaches unit
    /// weights) and of `list_rank_weighted` (the one that lists the
    /// predecessors), before any contraction round, and leaks no block.
    #[test]
    fn an_unsorted_list_fails_in_its_first_scan() {
        let d = EmConfig::new(512, 4).ram_disk();
        let n = 20_000u64;
        let (list, head) = random_list(d.clone(), n, 91).unwrap();
        let mut pairs = list.to_vec().unwrap();
        pairs.swap(n as usize / 2, n as usize / 2 + 1);
        let weighted: Vec<_> = pairs.iter().map(|&(id, s)| (id, s, 1i64)).collect();
        let list = ExtVec::from_slice(d.clone(), &pairs).unwrap();
        let nodes = ExtVec::from_slice(d.clone(), &weighted).unwrap();
        let cfg = SortConfig::new(2048);
        let unit = || list_rank(&list, head, &cfg).map(|_| ());
        let weighted = || list_rank_weighted(&nodes, head, &cfg).map(|_| ());
        let ranks: [(&dyn Fn() -> Result<()>, usize); 2] =
            [(&unit, list.num_blocks()), (&weighted, nodes.num_blocks())];
        for (rank, blocks) in ranks {
            let (held, before) = (d.allocated_blocks(), d.stats().snapshot());
            assert_invalid(rank(), "must be sorted by id");
            let spent = d.stats().snapshot().since(&before).total();
            assert!(spent <= 2 * blocks as u64, "{spent} transfers");
            assert_eq!(d.allocated_blocks(), held);
        }
    }

    #[test]
    fn temporaries_freed() {
        let d = device();
        let (list, head) = random_list(d.clone(), 2000, 81).unwrap();
        let before = d.allocated_blocks();
        let ranks = list_rank(&list, head, &SortConfig::new(100)).unwrap();
        assert_eq!(d.allocated_blocks(), before + ranks.num_blocks() as u64);
    }
}
