//! Closed-form I/O bounds from the survey.
//!
//! These are the formulas the experiment harness overlays on measured I/O
//! counts.  All take record-counted parameters (`N`, `M`, `B` in records) and
//! return the bound *without* its hidden constant, as an `f64` — experiments
//! report the measured/predicted ratio, which should be a small constant if
//! the implementation matches the theory.
//!
//! ```text
//! Scan(N)    = N/B                                      (one disk; /D for D disks)
//! Sort(N)    = (N/B) · log_{M/B}(N/B)
//! Search(N)  = log_B N
//! Output(Z)  = max(1, Z/B)
//! Permute(N) = min(N, Sort(N))
//! Transpose  = (N/B) · log_m min(M, p, q, N/M)          (p×q matrix, N = pq)
//! ```

use crate::PassThrough;
use pdm::hash::KeyFilter;

/// `Scan(N) = ⌈N/B⌉` — touch every record once.
pub fn scan(n: u64, b: usize) -> f64 {
    (n as f64 / b as f64).ceil()
}

/// `Sort(N) = (N/B) · log_{M/B}(N/B)` — the sorting bound (Θ-form, no
/// constant).  Returns at least `N/B` (one pass) for inputs that fit in one
/// memory load.
pub fn sort(n: u64, m: usize, b: usize) -> f64 {
    let nb = n as f64 / b as f64;
    let mb = (m as f64 / b as f64).max(2.0);
    nb * (nb.ln() / mb.ln()).max(1.0)
}

/// `Search(N) = ⌈log_B N⌉` — one root-to-leaf B-tree path.
pub fn search(n: u64, b: usize) -> f64 {
    if n <= 1 {
        return 1.0;
    }
    ((n as f64).ln() / (b as f64).ln()).ceil().max(1.0)
}

/// `Output(Z) = max(1, ⌈Z/B⌉)` — report `Z` answers.
pub fn output(z: u64, b: usize) -> f64 {
    (z as f64 / b as f64).ceil().max(1.0)
}

/// `Permute(N) = min(N, Sort(N))` — the permutation bound; for realistic
/// `B` sorting wins, for tiny `B` moving records one at a time wins.
pub fn permute(n: u64, m: usize, b: usize) -> f64 {
    (n as f64).min(sort(n, m, b))
}

/// Matrix transpose bound for a `p × q` matrix (`N = p·q`):
/// `(N/B) · log_m min(M, p, q, N/M)`, with the log clamped to ≥ 1
/// (at least one pass).
pub fn transpose(p: u64, q: u64, m: usize, b: usize) -> f64 {
    let n = p * q;
    let nb = n as f64 / b as f64;
    let mb = (m as f64 / b as f64).max(2.0);
    let inner = (m as f64)
        .min(p as f64)
        .min(q as f64)
        .min((n as f64 / m as f64).max(2.0));
    nb * (inner.ln() / mb.ln()).max(1.0)
}

/// Number of passes an `k`-way merge sort performs over the data:
/// `1 (run formation) + ⌈log_k(runs)⌉` where `runs = ⌈N/M⌉`.
/// Useful as an exact overlay for the merge-sort experiments.
pub fn merge_passes(n: u64, m: usize, fan_in: usize) -> u32 {
    let runs = (n as f64 / m as f64).ceil().max(1.0);
    if runs <= 1.0 {
        return 1;
    }
    1 + (runs.ln() / (fan_in as f64).ln()).ceil() as u32
}

/// Exact predicted I/O count for a `k`-way merge sort that reads and writes
/// every block once per pass: `2 · ⌈N/B⌉ · passes`.
pub fn merge_sort_ios(n: u64, m: usize, b: usize, fan_in: usize) -> f64 {
    2.0 * scan(n, b) * merge_passes(n, m, fan_in) as f64
}

/// The load–sort–store run queue, as record counts: `⌈N/M⌉ − 1` full runs
/// plus the remainder.
fn run_queue(n: u64, m: usize) -> std::collections::VecDeque<u64> {
    let m = m as u64;
    let mut q = std::collections::VecDeque::new();
    let mut left = n;
    while left > 0 {
        let take = left.min(m);
        q.push_back(take);
        left -= take;
    }
    q
}

fn blocks(records: u64, b: usize) -> u64 {
    records.div_ceil(b as u64)
}

/// How many records of a load–sort–store sort's last memory load stay in
/// memory for the final merge instead of being written as a run — the
/// *resident tail*.  `loads` memory loads form, the last of `last` records.
///
/// The final merge charges one block per disk run plus one output block,
/// so with `r` disk runs the tail may hold `M − (r+1)·B` records.  The last
/// load keeps all of itself if that fits beside the `loads − 1` runs before
/// it; otherwise its sorted prefix spills as one more run and the tail is
/// `M − (r+2)·B` counted over the earlier runs.  Zero — every load written,
/// the sort's schedule unchanged — when that leaves nothing, when the loads
/// would not fit one merge of `fan_in` (a multi-pass sort keeps its merge
/// groups, and with them its order of ties), and for a `materialized` sort
/// of one load, whose single run is its output without any merge.
///
/// The sort engine (`emsort`) and the replays below all read it here.
pub fn resident_tail(
    loads: u64,
    last: usize,
    m: usize,
    b: usize,
    fan_in: usize,
    materialized: bool,
) -> usize {
    if loads == 0 || loads > fan_in as u64 || (materialized && loads == 1) {
        return 0;
    }
    let room = |disk_runs: u64| m.saturating_sub((disk_runs as usize + 1) * b);
    if last <= room(loads - 1) {
        last
    } else {
        room(loads)
    }
}

/// The record counts of the runs a load–sort–store sort of `n` records
/// writes, in order, and the records of its last load it keeps resident
/// ([`resident_tail`]).  A sort of a stored input (`short_first`) takes its
/// short load first whenever a tail stays, so that the last load is a full
/// `M`; a `SortingWriter` loads in push order, short load last.
fn load_sort_runs(
    n: u64,
    m: usize,
    b: usize,
    fan_in: usize,
    materialized: bool,
    short_first: bool,
) -> (std::collections::VecDeque<u64>, u64) {
    let mut q = run_queue(n, m);
    let last = match q.back() {
        Some(_) if short_first => n.min(m as u64),
        Some(&last) => last,
        None => 0,
    };
    let tail = resident_tail(q.len() as u64, last as usize, m, b, fan_in, materialized) as u64;
    if tail > 0 {
        if short_first {
            q.rotate_right(1);
        }
        q.pop_back();
        if last > tail {
            q.push_back(last - tail);
        }
    }
    (q, tail)
}

/// A load–sort–store sort's transfers after its input is read: the runs
/// written, then either one merge of the `≤ k` disk runs and the resident
/// tail, or — with no tail — merges front-to-back in groups of `k` until
/// one run (`materialized`) or one final `≤ k`-way stream is left.  The
/// stream reads its runs once and writes nothing; a materialized merge
/// writes its output, and a single run is the output as it stands.
fn load_sort_ios(
    n: u64,
    m: usize,
    b: usize,
    fan_in: usize,
    materialized: bool,
    short_first: bool,
) -> u64 {
    let (mut q, tail) = load_sort_runs(n, m, b, fan_in, materialized, short_first);
    let run_blocks = |q: &std::collections::VecDeque<u64>| q.iter().map(|&r| blocks(r, b)).sum();
    let written: u64 = run_blocks(&q);
    let output = if materialized { blocks(n, b) } else { 0 };
    if tail > 0 {
        return written + run_blocks(&q) + output;
    }
    if materialized {
        return written + simulate_full_merge(&mut q, fan_in, b, |len| len > 1);
    }
    let merged = simulate_full_merge(&mut q, fan_in, b, |len| len > fan_in.max(2));
    written + merged + run_blocks(&q)
}

/// Exact transfer count of a *materialized* `k`-way external merge sort
/// (`merge_sort_by`): read the input, write the runs, merge them to one —
/// the final merge's output write included.  When the disk runs fit one
/// merge, the last load's resident tail ([`resident_tail`]) is never
/// written nor re-read; otherwise the runs merge front-to-back in groups of
/// `k`.  A single initial run is returned as the output directly (no
/// merge).  Exact for load–sort–store run formation, including partial
/// merge passes and per-run block rounding.
pub fn merge_sort_exact_ios(n: u64, m: usize, b: usize, fan_in: usize) -> u64 {
    scan(n, b) as u64 + load_sort_ios(n, m, b, fan_in, true, true)
}

/// Exact transfer count of a *fused* streaming merge sort
/// (`merge_sort_streaming`, input read included): read the input, write the
/// runs, merge front-to-back in groups of `k` while more than `k` runs
/// remain, then *read* the final `≤ k` runs once as the consumer drains the
/// fused last merge — no output write.  The resident tail of the last load
/// ([`resident_tail`]) is neither written nor read, so an input of at most
/// `M − B` records costs its read alone.
pub fn merge_sort_streamed_ios(n: u64, m: usize, b: usize, fan_in: usize) -> u64 {
    scan(n, b) as u64 + load_sort_ios(n, m, b, fan_in, false, true)
}

/// Exact transfer count of a `SortingWriter` fed `n` records and drained
/// through `finish_streaming`: the pushed records cost nothing, so this is
/// [`merge_sort_streamed_ios`] without the input read — except that the
/// writer loads in push order, its short load last, so that load is the
/// one whose tail may stay resident.
pub fn sorting_writer_streamed_ios(n: u64, m: usize, b: usize, fan_in: usize) -> u64 {
    load_sort_ios(n, m, b, fan_in, false, false)
}

/// Recursion-depth backstop shared by the hash partitioner
/// (`emhash::partition`) and the exact replays below.  A partition still
/// over `M` after this many levels falls back to the sort path.
pub const HASH_MAX_LEVELS: usize = 32;

/// Exact transfer count of `emhash::partition::partition_to_fit`: read the
/// input, spill every record to its level-0 bucket, and recurse — one read
/// plus one write per level a record passes through — until every leaf
/// fits in `M`, stops shrinking (equal-hash skew), or hits
/// [`HASH_MAX_LEVELS`].  Leaves are returned unread (their consumption is
/// the consumer's cost).  `hashes` are the records' level-0 key hashes
/// ([`key_hash`](crate::key_hash)) in arrival order; the replay
/// reproduces the recursion tree exactly because deeper levels *remix*
/// those hashes ([`level_bucket`](pdm::hash::level_bucket)) rather than
/// rehashing the keys.
pub fn hash_partition_exact_ios(hashes: &[u64], m: usize, b: usize, fan_out: usize) -> u64 {
    let n = hashes.len() as u64;
    if n == 0 {
        return 0;
    }
    if n as usize <= m {
        // Degenerate copy: the input already fits, but the caller is handed
        // an owned leaf — one read plus one write of the whole input.
        return 2 * blocks(n, b);
    }
    fn rec(hs: &[u64], level: usize, m: usize, b: usize, fan_out: usize) -> u64 {
        let fed = hs.len() as u64;
        let mut t = blocks(fed, b); // read the partition
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); fan_out];
        for &h in hs {
            buckets[pdm::hash::level_bucket(h, level, fan_out)].push(h);
        }
        for child in &buckets {
            let len = child.len() as u64;
            if len == 0 {
                continue;
            }
            t += blocks(len, b); // spill write
            if len as usize <= m || len == fed || level + 1 >= HASH_MAX_LEVELS {
                continue; // leaf: resident, skewed, or depth backstop
            }
            t += rec(child, level + 1, m, b, fan_out);
        }
        t
    }
    rec(hashes, 0, m, b, fan_out)
}

/// Exact transfer count of `emrel`'s hybrid hash aggregation
/// (`HashGroupByExec` / `HashDistinctExec`), *excluding* the child stream's
/// own cost and the sink's output write — the same boundary convention as
/// [`merge_sort_streamed_ios`]'s callers.
///
/// Replayed schedule, identical to the executor:
/// * an in-memory table absorbs the first `M − (F+1)·B` *distinct* keys in
///   arrival order (records with resident keys fold for free); every other
///   record spills to its level-0 bucket (one write per block);
/// * a partition of ≤ `M − B` records is read once and aggregated resident;
/// * a larger partition is re-passed at the next level (read + re-spill),
///   with a fresh table absorbing again;
/// * a partition that did not shrink (equal keys — the skew tape) or that
///   is still oversized at [`HASH_MAX_LEVELS`] is sorted instead:
///   [`merge_sort_exact_ios`] (its scan term *is* the partition read) plus
///   one read of the sorted result for the streaming group pass.
///
/// `hashes` must be the level-0 key hashes of the operator's input records
/// in arrival order (residency is first-come); `fan_in` is the sort
/// fallback's merge fan-in.
pub fn hash_group_exact_ios(
    hashes: &[u64],
    m: usize,
    b: usize,
    fan_out: usize,
    fan_in: usize,
) -> u64 {
    let n = hashes.len() as u64;
    if n == 0 {
        return 0;
    }
    let (t, buckets) = hash_group_pass(hashes, 0, m, b, fan_out);
    let mut t = t;
    for child in &buckets {
        if child.is_empty() {
            continue;
        }
        let skewed = child.len() as u64 == n;
        t += hash_group_rec(child, 1, skewed, m, b, fan_out, fan_in);
    }
    t
}

/// One hybrid absorb-and-spill pass: returns (spill-write transfers,
/// per-bucket spilled hashes).  `level` selects the bucket salt.
fn hash_group_pass(
    hashes: &[u64],
    level: usize,
    m: usize,
    b: usize,
    fan_out: usize,
) -> (u64, Vec<Vec<u64>>) {
    let cap = m.saturating_sub((fan_out + 1) * b);
    let mut table: std::collections::HashSet<u64, std::hash::BuildHasherDefault<PassThrough>> =
        Default::default();
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); fan_out];
    for &h in hashes {
        if table.contains(&h) {
            continue; // resident key: folds in memory
        }
        if table.len() < cap {
            table.insert(h);
        } else {
            buckets[pdm::hash::level_bucket(h, level, fan_out)].push(h);
        }
    }
    let t = buckets
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| blocks(c.len() as u64, b))
        .sum();
    (t, buckets)
}

/// Consume one spilled aggregation partition starting at `level`; `skewed`
/// records that the pass producing it made no progress (the no-shrink
/// test), which forces the sort fallback unless the partition is resident.
fn hash_group_rec(
    hs: &[u64],
    level: usize,
    skewed: bool,
    m: usize,
    b: usize,
    fan_out: usize,
    fan_in: usize,
) -> u64 {
    let len = hs.len() as u64;
    if len as usize <= m.saturating_sub(b) {
        return blocks(len, b); // read once, aggregate resident
    }
    if skewed || level >= HASH_MAX_LEVELS {
        return group_fallback(len, m, b, fan_in);
    }
    let mut t = blocks(len, b); // read for the re-pass
    let (spill, buckets) = hash_group_pass(hs, level, m, b, fan_out);
    t += spill;
    for child in &buckets {
        if child.is_empty() {
            continue;
        }
        let child_skewed = child.len() as u64 == len;
        t += hash_group_rec(child, level + 1, child_skewed, m, b, fan_out, fan_in);
    }
    t
}

/// Sort fallback for one aggregation partition: materialized merge sort
/// (the sort's scan term is the partition read) plus one read of the
/// sorted array for the streaming group pass.
fn group_fallback(len: u64, m: usize, b: usize, fan_in: usize) -> u64 {
    merge_sort_exact_ios(len, m, b, fan_in) + blocks(len, b)
}

/// The residency `R = M − (F+1)·max(B_build, B_probe)` of `emrel`'s hash
/// join: the build records it may hold across the build → probe boundary
/// (the two sides' partition buffers are never live together).  A build
/// side of at most `R` records is never spilled, and the join's output then
/// keeps the probe's order.  The executor, [`hash_join_exact_ios`] and the
/// planner's order rule all read it here.
pub fn hash_join_residency(m: usize, b_build: usize, b_probe: usize, fan_out: usize) -> usize {
    m.saturating_sub((fan_out + 1) * b_build.max(b_probe))
}

/// Exact transfer count of `emrel`'s hash join (`HashJoinExec`), excluding
/// the children's stream costs and the sink write.  `b_build` / `b_probe`
/// are records-per-block of the two inputs (their record sizes may differ)
/// and `build_rec_bytes` the build record's width, which sizes the
/// build-key filter.
///
/// Replayed schedule, identical to the executor:
/// * the join may hold [`hash_join_residency`] `R` records across the
///   build → probe boundary.  A build side of ≤ `R` records is never
///   spilled: the probe side is matched against it in-stream and the
///   join's own transfers are **zero**;
/// * a larger build side is partitioned `F` ways at level 0, all of it (the
///   records held so far are flushed in arrival order);
/// * every spilled build key is recorded in a [`KeyFilter`] over the
///   residency the held records gave up (`R` records' bytes);
/// * the probe side partitions with the same salts, and a probe record
///   whose build bucket is empty or whose key hash the filter rejects is
///   dropped unspilled — the filter's false positives are spilled, and
///   counted here, like any other record;
/// * a pair whose build partition is ≤ `M − B_build − B_probe` records is
///   consumed directly: read the build into a table, stream the probe;
/// * an oversized pair is re-partitioned pairwise at the next level; a
///   build partition that did not shrink (equal keys — no hash can split
///   it, and no sort-merge could buffer the over-`M` key group either), or
///   one still oversized at [`HASH_MAX_LEVELS`], falls back to a
///   block-nested-loop join of the pair: the build side is read once in
///   `M − B_build − B_probe`-record chunks, the probe side re-scanned once
///   per chunk.  With a single chunk this is exactly the resident-pair
///   cost, so the fallback is never priced better than the happy path.
#[allow(clippy::too_many_arguments)]
pub fn hash_join_exact_ios(
    build_hashes: &[u64],
    probe_hashes: &[u64],
    m: usize,
    b_build: usize,
    b_probe: usize,
    build_rec_bytes: usize,
    fan_out: usize,
) -> u64 {
    let residency = hash_join_residency(m, b_build, b_probe, fan_out);
    if build_hashes.len() <= residency {
        return 0;
    }
    let mut filter = KeyFilter::with_bytes(residency * build_rec_bytes);
    for &h in build_hashes {
        filter.insert(h);
    }
    let geometry = JoinGeometry {
        chunk: m.saturating_sub(b_build + b_probe) as u64,
        b_build,
        b_probe,
        fan_out,
    };
    geometry.pass(build_hashes, probe_hashes, 0, &filter)
}

/// What every level of a hash join's partition recursion shares.
struct JoinGeometry {
    /// Build records a pair loop holds at a time: `M − B_build − B_probe`.
    chunk: u64,
    b_build: usize,
    b_probe: usize,
    fan_out: usize,
}

impl JoinGeometry {
    /// Transfers of one pairwise partition pass at `level` — both sides'
    /// spill writes — and of consuming every pair it produced.  `filter` is
    /// the level-0 pass's build-key filter; deeper passes have none and get
    /// a zero-word one, which accepts every key.
    fn pass(&self, bh: &[u64], ph: &[u64], level: usize, filter: &KeyFilter) -> u64 {
        let fed = bh.len() as u64;
        let bucket = |h| pdm::hash::level_bucket(h, level, self.fan_out);
        let mut bkids: Vec<Vec<u64>> = vec![Vec::new(); self.fan_out];
        for &h in bh {
            bkids[bucket(h)].push(h);
        }
        // Only a pair that will be re-partitioned needs its probe hashes;
        // every other pair is priced from its probe count.
        let splits = |bn: u64| bn > self.chunk && bn != fed && level + 1 < HASH_MAX_LEVELS;
        let mut pcounts = vec![0u64; self.fan_out];
        let mut pkids: Vec<Vec<u64>> = vec![Vec::new(); self.fan_out];
        // Dropped unspilled, for it can match nothing: a key the filter
        // never saw, or an empty build bucket.  As in the executor, the
        // filter compacts the hashes first, with no branch on its verdict
        // (each is copied to the write slot, which advances by the verdict),
        // and only its survivors pay for a bucket.
        let mut kept = [0u64; 512];
        for chunk in ph.chunks(kept.len()) {
            let mut n = 0;
            for &h in chunk {
                kept[n] = h;
                n += filter.may_contain(h) as usize;
            }
            for &h in &kept[..n] {
                let i = bucket(h);
                if bkids[i].is_empty() {
                    continue;
                }
                pcounts[i] += 1;
                if splits(bkids[i].len() as u64) {
                    pkids[i].push(h);
                }
            }
        }
        let mut t = 0;
        for i in 0..self.fan_out {
            let (bn, pn) = (bkids[i].len() as u64, pcounts[i]);
            let (bblocks, pblocks) = (blocks(bn, self.b_build), blocks(pn, self.b_probe));
            t += bblocks + pblocks; // spill writes
            if bn == 0 || pn == 0 {
                continue; // no matches possible: both sides freed unread
            }
            t += bblocks; // the build side is read exactly once, whichever way
            t += if bn <= self.chunk {
                pblocks // build table + probe stream
            } else if splits(bn) {
                pblocks + self.pass(&bkids[i], &pkids[i], level + 1, &KeyFilter::with_bytes(0))
            } else {
                // Block-nested loop: one probe scan per build chunk.
                bn.div_ceil(self.chunk.max(1)) * pblocks
            };
        }
        t
    }
}

/// Merge `queue` front-to-back in groups of `min(k, len)` while
/// `more(len)`, counting one read per input block and one write per output
/// block.
fn simulate_full_merge(
    queue: &mut std::collections::VecDeque<u64>,
    fan_in: usize,
    b: usize,
    more: impl Fn(usize) -> bool,
) -> u64 {
    let k = fan_in.max(2);
    let mut transfers = 0u64;
    while more(queue.len()) {
        let take = k.min(queue.len());
        let inputs: Vec<u64> = queue.drain(..take).collect();
        transfers += inputs.iter().map(|&r| blocks(r, b)).sum::<u64>(); // reads
        let group: u64 = inputs.iter().sum();
        transfers += blocks(group, b); // output write
        queue.push_back(group);
    }
    transfers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_is_ceiling_division() {
        assert_eq!(scan(1000, 100), 10.0);
        assert_eq!(scan(1001, 100), 11.0);
        assert_eq!(scan(0, 100), 0.0);
    }

    #[test]
    fn sort_is_at_least_one_pass() {
        // N ≤ M: one memory load, bound degenerates to N/B.
        assert_eq!(sort(100, 1000, 10), 10.0);
    }

    #[test]
    fn sort_grows_linearithmically() {
        let m = 1 << 10;
        let b = 1 << 5;
        let s1 = sort(1 << 20, m, b);
        let s2 = sort(1 << 21, m, b);
        // doubling N slightly more than doubles Sort(N)
        assert!(s2 > 2.0 * s1);
        assert!(s2 < 2.5 * s1);
    }

    #[test]
    fn search_matches_logb() {
        assert_eq!(search(1, 100), 1.0);
        assert_eq!(search(100, 100), 1.0);
        assert_eq!(search(10_000, 100), 2.0);
        assert_eq!(search(10_001, 100), 3.0);
    }

    #[test]
    fn permute_crossover() {
        // Tiny B: naive (N I/Os) wins.
        assert_eq!(permute(1000, 8, 2), sort(1000, 8, 2).min(1000.0));
        // Realistic B: sorting wins by far.
        let p = permute(1 << 20, 1 << 14, 1 << 8);
        assert!(p < (1 << 20) as f64);
        assert_eq!(p, sort(1 << 20, 1 << 14, 1 << 8));
    }

    #[test]
    fn output_at_least_one() {
        assert_eq!(output(0, 100), 1.0);
        assert_eq!(output(250, 100), 3.0);
    }

    #[test]
    fn merge_passes_counts_run_formation() {
        // Fits in memory: a single pass.
        assert_eq!(merge_passes(100, 1000, 7), 1);
        // 10 runs, fan-in 10: run formation + 1 merge pass.
        assert_eq!(merge_passes(10_000, 1000, 10), 2);
        // 100 runs, fan-in 10: run formation + 2 merge passes.
        assert_eq!(merge_passes(100_000, 1000, 10), 3);
    }

    #[test]
    fn hash_group_one_pass_when_groups_fit() {
        // 100 distinct keys, table cap = 64 − (4+1)·4 = 44... make cap
        // large: m=512, b=8, F=4 → cap = 512 − 40 = 472 ≥ distinct keys →
        // everything absorbs, zero operator transfers.
        let hashes: Vec<u64> = (0..5000u64).map(|i| crate::key_hash(&(i % 100))).collect();
        assert_eq!(hash_group_exact_ios(&hashes, 512, 8, 4, 8), 0);
    }

    #[test]
    fn hash_group_skew_tape_costs_one_spill_plus_sort() {
        // cap = 0 (m = (F+1)·b): every record spills to one bucket, which
        // never shrinks → spill write + sort fallback.
        let (m, b, f, k) = (40usize, 8usize, 4usize, 4usize);
        let hashes = vec![crate::key_hash(&7u64); 1000];
        let spill = blocks(1000, b);
        let expect = spill + group_fallback(1000, m, b, k);
        assert_eq!(hash_group_exact_ios(&hashes, m, b, f, k), expect);
    }

    #[test]
    fn hash_join_empty_sides() {
        // Empty build: nothing to hold or spill, no probe record matches.
        assert_eq!(hash_join_exact_ios(&[], &[1, 2, 3], 64, 8, 8, 16, 4), 0);
        // The residency is 64 − (4+1)·8 = 24 records: a build side that
        // fits it is held and never spilled, whatever probes it.
        let h = |i: u64| crate::key_hash(&i);
        let build: Vec<u64> = (0..25).map(h).collect();
        let probe: Vec<u64> = (0..900).map(h).collect();
        assert_eq!(
            hash_join_exact_ios(&build[..24], &probe, 64, 8, 8, 16, 4),
            0
        );
        // One more and all 25 spill; with an empty probe side that is the
        // whole cost — the pairs are freed unread.
        let mut counts = [0u64; 4];
        for &h in &build {
            counts[pdm::hash::level_bucket(h, 0, 4)] += 1;
        }
        let spill: u64 = counts.iter().map(|&c| blocks(c, 8)).sum();
        assert_eq!(hash_join_exact_ios(&build, &[], 64, 8, 8, 16, 4), spill);
    }

    #[test]
    fn hash_join_filter_stops_unmatched_probes() {
        // 160 build keys overflow the 24-record residency, whose 384 bytes
        // make a 2 048-bit filter.  Of 10 000 probes of foreign keys only
        // the filter's false positives are written, and each pair reads
        // back what its bucket got.
        let h = |i: u64| crate::key_hash(&i);
        let build: Vec<u64> = (0..160).map(h).collect();
        let probe: Vec<u64> = (1000..11_000).map(h).collect();
        let mut filter = KeyFilter::with_bytes(24 * 16);
        assert_eq!(filter.bits(), 2048);
        build.iter().for_each(|&h| filter.insert(h));
        let (mut bcounts, mut passed) = ([0u64; 4], [0u64; 4]);
        for &h in &build {
            bcounts[pdm::hash::level_bucket(h, 0, 4)] += 1;
        }
        for &h in probe.iter().filter(|&&h| filter.may_contain(h)) {
            passed[pdm::hash::level_bucket(h, 0, 4)] += 1;
        }
        let lies: u64 = passed.iter().sum();
        assert!(lies > 0 && lies < 1000, "{lies} of 10 000 passed");
        // Every build bucket (≈ 40 records) is one chunk of 64 − 16.
        assert!(bcounts.iter().all(|&c| c > 0 && c <= 48));
        let expect: u64 = (0..4)
            .map(|i| 2 * (blocks(bcounts[i], 8) + blocks(passed[i], 8)))
            .sum();
        assert_eq!(hash_join_exact_ios(&build, &probe, 64, 8, 8, 16, 4), expect);
    }

    #[test]
    fn transpose_bounds_sane() {
        // Square matrix far bigger than memory.
        let t = transpose(1 << 10, 1 << 10, 1 << 12, 1 << 6);
        assert!(t >= scan(1 << 20, 1 << 6));
        assert!(t <= sort(1 << 20, 1 << 12, 1 << 6) * 2.0);
    }
}
