//! Loser (tournament) tree: the k-way merge kernel.
//!
//! A binary min-heap pays up to two sift passes per merged record (`pop`
//! then `push`), and each sift level costs *two* comparisons (left child,
//! right child).  A loser tree stores, at every internal node, the *loser*
//! of the match played there, with the overall winner cached at the root.
//! Replacing the winner's key is then a single leaf-to-root pass of exactly
//! `⌈log₂ k⌉` matches, each a **single** comparison — the classic kernel of
//! replacement-selection tape sorts (Knuth Vol. 3, §5.4.1) and of every
//! serious external merge implementation since.
//!
//! Three properties matter for the merge loop built on it
//! ([`crate::merge::SortedStream`]):
//!
//! * **One `less` call per match, ties to the lower run index.**  Leaves are
//!   identified with run indices, and a match between runs `i < j` is decided
//!   by the single call `less(key_j, key_i)` — `i` wins unless `j` is
//!   *strictly* smaller; with `i > j` it is `less(key_i, key_j)`.  Ties
//!   therefore resolve toward the lower run index without a second
//!   comparison, which is what makes the merge stable across runs.  "Single
//!   comparison" is a contract on the caller's comparator, which may be
//!   arbitrarily wide: no match ever calls it twice.
//! * **A replay with no data-dependent branch.**  On unsorted input the
//!   winner changes run on almost every record, so which of `i`, `j` is
//!   lower and who wins each match are coin flips.  `beats` therefore picks
//!   the operand order with [`select_unpredictable`] and XORs the outcome
//!   (`less(x, y) ^ (i < j)`), and the leaf-to-root replay keeps (winner,
//!   loser) with two selects instead of `if beats { swap }`: conditional
//!   moves where there were two mispredicted branches per level.  (Calling
//!   `less` both ways round and combining the results saves the operand
//!   select on integer keys, and breaks the contract above.)
//! * **A challenger bound, consulted only on a streak.**  Every run that
//!   could overtake the current winner lost to it somewhere on the winner's
//!   leaf-to-root path, so the best of that path's `⌈log₂ k⌉` stored losers
//!   is exactly the second-best run.  While the winner's refill still beats
//!   it, every match on the path would replay identically, so the refill can
//!   be dropped into the leaf with *one* comparison and no tree pass.  That
//!   pays on presorted or clustered runs and is a pure tax on random ones
//!   (finding the challenger costs nearly a replay), so
//!   [`advance`](LoserTree::advance) looks for it only once a run has won
//!   twice in a row: a winner that just changed run goes straight to the
//!   replay.

use std::hint::select_unpredictable;

/// Tournament tree of losers over `k` runs with an explicit comparator.
///
/// Exhausted runs are represented by `None` keys, which lose every match
/// (they compare as `+∞`), so the tree needs no separate removal operation:
/// feeding `None` into [`advance`](Self::advance) retires the run in the same
/// leaf-to-root pass.
pub(crate) struct LoserTree<R, F> {
    k: usize,
    /// Current key of each run; `None` = exhausted.
    keys: Vec<Option<R>>,
    /// `tree[1..k]` hold the losers of the internal matches (conceptual node
    /// `c` has children `2c` and `2c+1`, leaves live at `k..2k`); `tree[0]`
    /// caches the overall winner.  All entries are run indices.
    tree: Vec<usize>,
    drain: Drain,
    less: F,
}

/// How [`LoserTree::advance`] treats the winner's next refill.
#[derive(Clone, Copy)]
enum Drain {
    /// The winner just changed run (or nothing has been emitted yet):
    /// replay its path.
    Replay,
    /// The winner's run also produced the previous record.  `bound` is its
    /// challenger — fixed for the whole streak, since a streak never touches
    /// the tree or another run's key — or `None` for a sole surviving run.
    Streak { bound: Option<usize> },
}

impl<R, F: Fn(&R, &R) -> bool> LoserTree<R, F> {
    /// Build the tournament over the initial `keys` (one per run, `None`
    /// for an empty run).  Costs `k − 1` comparisons.
    pub fn new(keys: Vec<Option<R>>, less: F) -> Self {
        let k = keys.len();
        assert!(k >= 1, "loser tree needs at least one run");
        let mut lt = LoserTree {
            k,
            keys,
            tree: vec![0; k],
            drain: Drain::Replay,
            less,
        };
        lt.tree[0] = lt.build(1);
        lt
    }

    /// Play the subtournament rooted at conceptual node `c`, storing losers,
    /// and return its winner.
    fn build(&mut self, c: usize) -> usize {
        if self.k == 1 {
            return 0;
        }
        if c >= self.k {
            return c - self.k; // leaf: conceptual node k+j is run j
        }
        let a = self.build(2 * c);
        let b = self.build(2 * c + 1);
        let (winner, loser) = if self.beats(a, b) { (a, b) } else { (b, a) };
        self.tree[c] = loser;
        winner
    }

    /// Does run `i`'s current key win a match against run `j`'s?  `None`
    /// keys lose to everything (two exhausted runs tie toward the lower
    /// index); ties between live keys resolve toward the lower run index
    /// with a single `less` call, whose operand order is selected rather
    /// than branched on.
    fn beats(&self, i: usize, j: usize) -> bool {
        match (&self.keys[i], &self.keys[j]) {
            (Some(a), Some(b)) => {
                // i < j: i wins unless j is strictly smaller, !less(b, a);
                // i > j: i wins only if strictly smaller, less(a, b).
                let lower = i < j;
                let (x, y) = select_unpredictable(lower, (b, a), (a, b));
                (self.less)(x, y) ^ lower
            }
            (None, None) => i < j,
            (a, _) => a.is_some(),
        }
    }

    /// The run holding the smallest current key, or `None` if every run is
    /// exhausted.
    pub fn winner(&self) -> Option<usize> {
        let w = self.tree[0];
        self.keys[w].as_ref().map(|_| w)
    }

    /// The current winner's key (`None` once all runs are exhausted).
    #[cfg(test)]
    pub fn winner_key(&self) -> Option<&R> {
        self.keys[self.tree[0]].as_ref()
    }

    /// The second-best run: the best among the losers stored on the winner's
    /// leaf-to-root path.  `None` when no other live run remains (then the
    /// winner may drain unconditionally).  Costs at most `⌈log₂ k⌉ − 1`
    /// comparisons.
    fn challenger(&self) -> Option<usize> {
        let w = self.tree[0];
        let mut best: Option<usize> = None;
        let mut node = (self.k + w) / 2;
        while node >= 1 {
            let c = self.tree[node];
            if best.is_none_or(|b| self.beats(c, b)) {
                best = Some(c);
            }
            node /= 2;
        }
        best.filter(|&b| self.keys[b].is_some())
    }

    /// Replace the winner's key with `next` (`None` = run exhausted) and
    /// return the displaced key — one step of the merge.
    ///
    /// On a streak (the winner's run also produced the previous record) a
    /// refill that still beats the cached [`challenger`](Self::challenger)
    /// stays in the leaf for one comparison and no tree pass; anything else
    /// replays the winner's path (`⌈log₂ k⌉` comparisons).  A two-run tree
    /// never streaks: its replay is already a single match.
    ///
    /// # Panics
    /// If every run is already exhausted.
    pub fn advance(&mut self, next: Option<R>) -> R {
        let w = self.tree[0];
        let refilled = next.is_some();
        let old = std::mem::replace(&mut self.keys[w], next).expect("advance on exhausted tree");
        if let Drain::Streak { bound } = self.drain {
            if refilled && bound.is_none_or(|c| self.beats(w, c)) {
                return old;
            }
        }
        self.replay(w);
        self.drain = if refilled && self.k > 2 && self.tree[0] == w {
            Drain::Streak {
                bound: self.challenger(),
            }
        } else {
            Drain::Replay
        };
        old
    }

    /// [`advance`](Self::advance) without the streak gate — the reference
    /// the gated path is tested against.
    #[cfg(test)]
    pub fn replace_winner(&mut self, next: Option<R>) -> R {
        let w = self.tree[0];
        let old =
            std::mem::replace(&mut self.keys[w], next).expect("replace_winner on exhausted tree");
        self.replay(w);
        self.drain = Drain::Replay;
        old
    }

    /// Fix the tournament after run `w`'s key changed: one leaf-to-root
    /// pass, keeping each match's (winner, loser) with selects.
    fn replay(&mut self, w: usize) {
        let mut winner = w;
        let mut node = (self.k + w) / 2;
        while node >= 1 {
            let stored = self.tree[node];
            let upset = self.beats(stored, winner);
            self.tree[node] = select_unpredictable(upset, winner, stored);
            winner = select_unpredictable(upset, stored, winner);
            node /= 2;
        }
        self.tree[0] = winner;
    }
}

/// Pin the comparator count — calls to `less` per merged record — of a merge
/// loop built on [`LoserTree`].  `merge` merges sorted equal-length runs by
/// the comparator it is handed; it is driven over the three inputs that
/// matter and must return the sorted union within each one's ceiling.
#[cfg(test)]
pub(crate) fn assert_comparator_calls_per_record(
    merge: impl Fn(&[Vec<u64>], &dyn Fn(&u64, &u64) -> bool) -> Vec<u64>,
) {
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(16);
    let len = (64 << 10) / 31;
    let random = (0..31)
        .map(|_| {
            let mut run: Vec<u64> = (0..len).map(|_| rng.gen()).collect();
            run.sort_unstable();
            run
        })
        .collect();
    let disjoint = (0..31u64)
        .map(|i| (0..len as u64).map(|j| i * len as u64 + j).collect())
        .collect();
    let interleaved = (0..2u64)
        .map(|i| (0..32u64 << 10).map(|j| 2 * j + i).collect())
        .collect();
    let shapes: [(&str, Vec<Vec<u64>>, f64); 3] = [
        // Almost every record changes run: a replay (⌈log₂ 31⌉ = 5 matches)
        // and the odd wasted challenger lookup, never two tree passes.
        ("31 random runs", random, 6.0),
        // From a run's second record on, one comparison and no tree pass.
        ("31 disjoint presorted runs", disjoint, 1.1),
        // Every record changes run; the replay is a single match.
        ("2 interleaved runs", interleaved, 2.0),
    ];
    for (shape, runs, ceiling) in shapes {
        let mut expect = runs.concat();
        expect.sort_unstable();
        let calls = std::cell::Cell::new(0u64);
        let less = |a: &u64, b: &u64| {
            calls.set(calls.get() + 1);
            a < b
        };
        assert_eq!(merge(&runs, &less), expect, "{shape}");
        let per_record = calls.get() as f64 / expect.len() as f64;
        assert!(
            per_record <= ceiling,
            "{shape}: {per_record:.3} `less` calls per record, ceiling {ceiling}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain a tree built over `runs` by feeding each winner its run's next
    /// record, mimicking the merge loop: through the streak gate (`advance`)
    /// or with a replay per record (`replace_winner`).
    fn merge_with<R: Clone, F: Fn(&R, &R) -> bool>(
        runs: &[Vec<R>],
        less: F,
        gated: bool,
    ) -> Vec<R> {
        let mut cursors = vec![1usize; runs.len()];
        let keys: Vec<Option<R>> = runs.iter().map(|r| r.first().cloned()).collect();
        let mut lt = LoserTree::new(keys, less);
        let mut out = Vec::new();
        while let Some(w) = lt.winner() {
            let next = runs[w].get(cursors[w]).cloned();
            cursors[w] += 1;
            out.push(if gated {
                lt.advance(next)
            } else {
                lt.replace_winner(next)
            });
        }
        out
    }

    /// Both paths, which must agree.
    fn merge_all(runs: Vec<Vec<u32>>) -> Vec<u32> {
        let replayed = merge_with(&runs, |a, b| a < b, false);
        assert_eq!(merge_with(&runs, |a, b| a < b, true), replayed);
        replayed
    }

    #[test]
    fn k1_single_run_drains_in_order() {
        assert_eq!(merge_all(vec![vec![1, 2, 3]]), vec![1, 2, 3]);
    }

    #[test]
    fn k2_interleaves() {
        assert_eq!(
            merge_all(vec![vec![1, 4, 6], vec![2, 3, 5]]),
            vec![1, 2, 3, 4, 5, 6]
        );
    }

    #[test]
    fn empty_runs_are_skipped() {
        assert_eq!(
            merge_all(vec![vec![], vec![2, 4], vec![], vec![1, 3]]),
            vec![1, 2, 3, 4]
        );
        assert_eq!(merge_all(vec![vec![], vec![]]), Vec::<u32>::new());
    }

    #[test]
    fn beats_matches_the_branching_form() {
        // The match this module played before its operand order became a
        // select: the reference for every (liveness, index order, key order).
        fn reference(keys: &[Option<u32>; 2], i: usize, j: usize) -> bool {
            let less = |a: &u32, b: &u32| a < b;
            match (&keys[i], &keys[j]) {
                (None, None) => i < j,
                (None, Some(_)) => false,
                (Some(_), None) => true,
                (Some(a), Some(b)) => {
                    if i < j {
                        !less(b, a)
                    } else {
                        less(a, b)
                    }
                }
            }
        }
        let sides = [None, Some(1u32), Some(2)];
        for a in sides {
            for b in sides {
                let keys = [a, b];
                let calls = std::cell::Cell::new(0);
                let lt = LoserTree::new(keys.to_vec(), |x: &u32, y: &u32| {
                    calls.set(calls.get() + 1);
                    x < y
                });
                for (i, j) in [(0, 1), (1, 0)] {
                    calls.set(0);
                    assert_eq!(
                        lt.beats(i, j),
                        reference(&keys, i, j),
                        "{keys:?} {i} vs {j}"
                    );
                    let live = a.is_some() && b.is_some();
                    assert_eq!(calls.get(), u32::from(live), "one `less` per live match");
                }
            }
        }
    }

    #[test]
    fn duplicate_heavy_ties_resolve_by_run_index() {
        // All-equal keys: the stable-merge order is ALL of run 0's records,
        // then run 1's, then run 2's — a lower-index run keeps winning ties
        // until it is exhausted.  Three records per run, so the gated path
        // streaks (a run's third record is compared against the bound).
        for k in [1usize, 2, 3, 7, 31, 32, 33] {
            let runs: Vec<Vec<(u32, usize)>> = (0..k).map(|run| vec![(7, run); 3]).collect();
            let expect: Vec<usize> = (0..k).flat_map(|run| [run; 3]).collect();
            for gated in [false, true] {
                let tags: Vec<usize> = merge_with(&runs, |a, b| a.0 < b.0, gated)
                    .into_iter()
                    .map(|r| r.1)
                    .collect();
                assert_eq!(
                    tags, expect,
                    "k = {k}, gated = {gated}: equal keys drain run-by-run, lowest first"
                );
            }
        }
    }

    #[test]
    fn descending_comparator() {
        let runs = [vec![9u32, 5, 1], vec![8, 4, 2]];
        for gated in [false, true] {
            let out = merge_with(&runs, |a, b| a > b, gated);
            assert_eq!(out, vec![9, 8, 5, 4, 2, 1]);
        }
    }

    #[test]
    fn challenger_is_true_second_best() {
        // Construct the lopsided case where the root loser is NOT the
        // second-best: w=1 beats a=2 first, then b=10 at the root.
        let lt = LoserTree::new(vec![Some(1u32), Some(2), Some(10), Some(20)], |a, b| a < b);
        assert_eq!(lt.winner(), Some(0));
        assert_eq!(
            lt.challenger(),
            Some(1),
            "challenger must be the global runner-up"
        );
    }

    #[test]
    fn challenger_none_when_all_others_exhausted() {
        let mut lt = LoserTree::new(vec![Some(5u32), Some(1)], |a, b| a < b);
        assert_eq!(lt.advance(None), 1);
        assert_eq!(lt.winner(), Some(0));
        assert!(lt.challenger().is_none(), "no live second run");
        let single = LoserTree::new(vec![Some(3u32)], |a: &u32, b: &u32| a < b);
        assert!(single.challenger().is_none(), "k = 1 has no challenger");
    }

    #[test]
    fn a_streak_costs_one_comparison_and_no_tree_pass() {
        let calls = std::cell::Cell::new(0);
        let keys = vec![Some(1u32), Some(50), Some(60), Some(70)];
        let mut lt = LoserTree::new(keys, |a: &u32, b: &u32| {
            calls.set(calls.get() + 1);
            a < b
        });
        // Run 0's first refill replays its path (2 matches); winning again
        // starts the streak and looks the challenger up (1 more).
        calls.set(0);
        assert_eq!(lt.advance(Some(10)), 1);
        assert_eq!((lt.winner(), calls.get()), (Some(0), 3));
        // On the streak, 10 < 20 < 50: one comparison each, run 0 stays.
        calls.set(0);
        assert_eq!(lt.advance(Some(20)), 10);
        assert_eq!(lt.advance(Some(30)), 20);
        assert_eq!(
            (lt.winner(), lt.winner_key(), calls.get()),
            (Some(0), Some(&30), 2)
        );
        // 55 loses to the bound (1) and replays (2); run 1 takes over and is
        // not on a streak, so its refill goes straight to the replay (2).
        calls.set(0);
        assert_eq!(lt.advance(Some(55)), 30);
        assert_eq!((lt.winner(), calls.get()), (Some(1), 3));
        calls.set(0);
        assert_eq!(lt.advance(Some(65)), 50);
        assert_eq!((lt.winner(), calls.get()), (Some(0), 2));
    }

    #[test]
    fn random_runs_match_sorted_reference() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..50 {
            let k: usize = rng.gen_range(1..10);
            let runs: Vec<Vec<u32>> = (0..k)
                .map(|_| {
                    let len = rng.gen_range(0..40);
                    let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0..100)).collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            let mut expect: Vec<u32> = runs.iter().flatten().copied().collect();
            expect.sort_unstable();
            assert_eq!(merge_all(runs), expect, "trial {trial}");
        }
    }
}
