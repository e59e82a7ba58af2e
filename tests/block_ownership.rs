//! Block ownership: every block has one owner, and dropping the owner frees
//! it — an `ExtVec`, an unfinished `ExtVecWriter`, and whatever holds them.
//!
//! The sweep runs the workspace's multi-stage pipelines on two-disk arrays
//! whose blocks fail permanently at a seeded rate, with no retry, with
//! overlap off (synchronous I/O) and on (overlapped I/O, read-ahead and
//! write-behind).  Every call either returns its output or an error.  After
//! an error the device must hold exactly the blocks it held before the
//! call; after a success it must too, once the output is dropped.  No call
//! site frees anything by hand on its error paths: the owners do.  The
//! containers (stack, queue, append buffer, buffer tree, and the active
//! lists of the distribution sweeps) hold their spilled blocks as one-block
//! arrays, so they are swept the same way.

use std::collections::BTreeMap;

use em_core::hash::hash_bytes;
use em_core::{AppendBuffer, ExtVec};
use emgeom::{batched_range_reporting, segment_intersections, HSeg, Point, Rect, VSeg};
use emgraph::{euler_tour, list_rank, tree_depths};
use emhash::partition::partition_to_fit;
use emrel::{collect, ExecConfig, HashGroupByExec, HashJoinExec, QueryExec, ScanExec};
use emsort::{distribution_sort, merge_sort_by, merge_sort_streaming, OverlapConfig, SortConfig};
use emtree::{BufferTree, ExtQueue, ExtStack};
use pdm::{DiskArray, FaultPlan, IoMode, PdmError, Placement, Result, RetryPolicy, SharedDevice};

/// Records in each input of the sorts and the hash operators.
const N: u64 = 3_000;
/// Nodes of the ranked list, and vertices of the tree.
const LIST: u64 = 1_000;
const TREE: u64 = 500;
/// Records through each container: enough blocks that some seeds meet a
/// bad one and some do not.
const CONTAINED: u64 = 12_000;
/// Operations on the buffer tree, and the memory it gets, in events.
const TREE_OPS: u64 = 6_000;
const TREE_MEM: usize = 1_024;
/// Segments, points and rectangles of the sweeps, on a `SPAN`-square grid.
const SHAPES: u64 = 400;
const SPAN: u64 = 4_096;
/// Memory in records, for every record type.
const M: usize = 256;
/// Bytes per block on each disk: 32 `u64`s, 16 pairs.
const BLOCK: usize = 256;
/// Blocks that fail on every transfer, per mille.
const PERMANENT_PERMILLE: u64 = 2;
const SEEDS: u64 = 24;

type Pair = (u64, u64);

/// `(ok, err)` per operation, over every seed and mode.
#[derive(Default)]
struct Sweep(BTreeMap<&'static str, (u32, u32)>);

impl Sweep {
    /// Run `op` on `device` and check that it leaves exactly the blocks it
    /// found: at once if it failed, after its output is dropped if not.
    fn owned<T>(
        &mut self,
        device: &SharedDevice,
        what: &'static str,
        op: impl FnOnce() -> Result<T>,
    ) {
        let baseline = device.allocated_blocks();
        let tally = self.0.entry(what).or_default();
        match op() {
            Ok(out) => {
                tally.0 += 1;
                drop(out);
                assert_eq!(
                    device.allocated_blocks(),
                    baseline,
                    "{what}: a dropped output leaked"
                );
            }
            Err(e) => {
                tally.1 += 1;
                assert_eq!(device.allocated_blocks(), baseline, "{what}: `{e}` leaked");
            }
        }
    }

    /// An input for later calls, or `None` if its writes failed — which
    /// must leave what [`owned`](Self::owned) asks of an error.
    fn input<T>(&mut self, device: &SharedDevice, build: impl FnOnce() -> Result<T>) -> Option<T> {
        let baseline = device.allocated_blocks();
        let tally = self.0.entry("from_slice").or_default();
        match build() {
            Ok(input) => {
                tally.0 += 1;
                Some(input)
            }
            Err(e) => {
                tally.1 += 1;
                assert_eq!(
                    device.allocated_blocks(),
                    baseline,
                    "from_slice: `{e}` leaked"
                );
                None
            }
        }
    }

    /// Like [`owned`](Self::owned), for a call that must fail whatever the
    /// faults do.
    fn refused<T>(
        &mut self,
        device: &SharedDevice,
        what: &'static str,
        op: impl FnOnce() -> Result<T>,
    ) {
        let mut ok = false;
        self.owned(device, what, || {
            let out = op();
            ok = out.is_ok();
            out
        });
        assert!(!ok, "{what} succeeded");
    }
}

/// A two-disk array whose disks each fail `PERMANENT_PERMILLE` of their
/// blocks for good, with no retry.  Each disk's plan gets its own mixed
/// seed, distinct from the seed the inputs are drawn from.
fn faulty_array(seed: u64, mode: IoMode) -> SharedDevice {
    let plans: Vec<FaultPlan> = (0..2)
        .map(|d| FaultPlan::new(mix(seed * 2 + d)).with_permanent_blocks(PERMANENT_PERMILLE))
        .collect();
    DiskArray::new_ram_faulty(
        2,
        BLOCK,
        Placement::Independent,
        mode,
        &plans,
        RetryPolicy::none(),
    )
}

fn mix(x: u64) -> u64 {
    hash_bytes(&x.to_le_bytes())
}

/// The list `0..LIST` in a shuffled order, as `(node, successor)` sorted by
/// node, and its head.
fn shuffled_list(seed: u64) -> (Vec<Pair>, u64) {
    let mut order: Vec<u64> = (0..LIST).collect();
    order.sort_by_key(|&v| mix(v ^ seed));
    let mut succ = vec![(0, u64::MAX); LIST as usize];
    for (i, &v) in order.iter().enumerate() {
        succ[v as usize] = (v, order.get(i + 1).copied().unwrap_or(u64::MAX));
    }
    (succ, order[0])
}

/// A random tree on `0..n`, rooted at 0: vertex `v` hangs off a smaller one.
fn tree(n: u64, seed: u64) -> Vec<Pair> {
    (1..n).map(|v| (mix(v ^ seed) % v, v)).collect()
}

/// Segments and rectangles up to an eighth of the span long, so that some
/// cross several slabs and some stick into one, and points.
fn shapes(seed: u64) -> (Vec<HSeg>, Vec<VSeg>, Vec<Point>, Vec<Rect>) {
    let coord = |id: u64, k: u64| (mix(seed ^ (id * 8 + k)) % SPAN) as i64;
    let len = |id: u64, k: u64| coord(id, k) / 8;
    let hs = (0..SHAPES).map(|id| HSeg {
        id,
        y: coord(id, 0),
        x1: coord(id, 1),
        x2: coord(id, 1) + len(id, 2),
    });
    let vs = (0..SHAPES).map(|id| VSeg {
        id,
        x: coord(id, 3),
        y1: coord(id, 4),
        y2: coord(id, 4) + len(id, 5),
    });
    let pts = (0..SHAPES).map(|id| Point {
        id,
        x: coord(id, 6),
        y: coord(id, 7),
    });
    let rects = (0..SHAPES / 3).map(|id| Rect {
        id,
        x1: coord(id, 0),
        x2: coord(id, 0) + len(id, 1),
        y1: coord(id, 2),
        y2: coord(id, 2) + len(id, 3),
    });
    (hs.collect(), vs.collect(), pts.collect(), rects.collect())
}

#[test]
fn no_call_leaks_a_block_on_any_path() {
    let mut sweep = Sweep::default();
    for (mode, overlap) in [
        (IoMode::Synchronous, OverlapConfig::off()),
        (IoMode::Overlapped, OverlapConfig::symmetric(2)),
    ] {
        let cfg = SortConfig::new(M).with_overlap(overlap);
        let exec = ExecConfig { sort: cfg };
        for seed in 0..SEEDS {
            let keys: Vec<u64> = (0..N).map(|i| mix(i ^ seed) % 10_000).collect();
            let pairs: Vec<Pair> = keys.iter().map(|&k| (k % 700, k)).collect();
            let (succ, head) = shuffled_list(seed);
            let edges = tree(TREE, seed);

            // Each call runs on an array of its own, its input built right
            // before it: a call that met a bad block left it first on the
            // free list, where the next call's first write would meet it
            // again.  A failed build is itself a writer dropped unfinished.
            for call in 0..4 {
                let d = faulty_array(seed, mode);
                let Some(input) = sweep.input(&d, || ExtVec::from_slice(d.clone(), &keys)) else {
                    continue;
                };
                match call {
                    0 => sweep.owned(&d, "merge_sort_by", || {
                        merge_sort_by(&input, &cfg, |a, b| a < b)
                    }),
                    1 => sweep.refused(&d, "merge_sort_streaming", || {
                        merge_sort_streaming(
                            &input,
                            &cfg,
                            |a, b| a < b,
                            |sorted| {
                                for _ in 0..100 {
                                    sorted.try_next()?;
                                }
                                Err::<(), _>(PdmError::InvalidRequest("the consumer stops".into()))
                            },
                        )
                    }),
                    2 => sweep.owned(&d, "distribution_sort", || distribution_sort(&input, &cfg)),
                    _ => sweep.owned(&d, "partition_to_fit", || {
                        partition_to_fit(&input, |r| mix(*r), M, 4, overlap)
                    }),
                }
                drop(input);
                assert_eq!(d.allocated_blocks(), 0, "a dropped input leaked");
            }

            // A group-by and a join, each drained and each dropped after
            // its first row.
            for call in 0..4 {
                let d = faulty_array(seed, mode);
                let sides = sweep.input(&d, || {
                    let build = ExtVec::from_slice(d.clone(), &pairs)?;
                    Ok((
                        build,
                        ExtVec::from_slice(d.clone(), &pairs[..N as usize / 2])?,
                    ))
                });
                let Some((build, probe)) = sides else {
                    continue;
                };
                let undrained = call % 2 == 1;
                if call < 2 {
                    sweep.owned(&d, "HashGroupByExec", || {
                        let mut g = HashGroupByExec::build(
                            &mut ScanExec::new(&build),
                            &d,
                            &exec,
                            4,
                            |r: &Pair| r.0,
                            0u64,
                            |acc, r| *acc += r.1,
                            |k, acc, n| (k, acc, n),
                        )?;
                        if undrained {
                            g.try_next()?;
                            return Ok(None);
                        }
                        collect(&mut g, &d).map(Some)
                    });
                } else {
                    sweep.owned(&d, "HashJoinExec", || {
                        let mut j = HashJoinExec::build(
                            &mut ScanExec::new(&build),
                            ScanExec::new(&probe),
                            &d,
                            &exec,
                            3,
                            false,
                            |r: &Pair| r.0,
                            |r: &Pair| r.0,
                            |b: &Pair, p: &Pair| (b.0, b.1, p.1),
                        )?;
                        if undrained {
                            j.try_next()?;
                            return Ok(None);
                        }
                        collect(&mut j, &d).map(Some)
                    });
                }
                drop((build, probe));
                assert_eq!(d.allocated_blocks(), 0, "a dropped input leaked");
            }

            let d = faulty_array(seed, mode);
            if let Some(list) = sweep.input(&d, || ExtVec::from_slice(d.clone(), &succ)) {
                sweep.owned(&d, "list_rank", || list_rank(&list, head, &cfg));
            }
            assert_eq!(d.allocated_blocks(), 0, "a dropped input leaked");

            // Malformed trees: a root no edge touches, a second tree the
            // tour from the root never reaches, a self loop.
            let forest: Vec<Pair> = edges.iter().chain(&[(TREE, TREE + 1)]).copied().collect();
            let looped: Vec<Pair> = edges.iter().chain(&[(7, 7)]).copied().collect();
            for call in 0..4 {
                let d = faulty_array(seed, mode);
                let input = match call {
                    0 | 1 => &edges,
                    2 => &forest,
                    _ => &looped,
                };
                let Some(tree) = sweep.input(&d, || ExtVec::from_slice(d.clone(), input)) else {
                    continue;
                };
                match call {
                    0 => sweep.owned(&d, "euler_tour", || euler_tour(&tree, 0, &cfg)),
                    1 => sweep.refused(&d, "tree_depths (malformed)", || {
                        tree_depths(&tree, TREE, &cfg)
                    }),
                    _ => sweep.refused(&d, "tree_depths (malformed)", || {
                        tree_depths(&tree, 0, &cfg)
                    }),
                }
                drop(tree);
                assert_eq!(d.allocated_blocks(), 0, "a dropped input leaked");
            }

            // The sweeps' active lists and the containers, each on a fresh
            // array too.
            let (hs, vs, pts, rects) = shapes(seed);
            let d = faulty_array(seed, mode);
            let segments = sweep.input(&d, || {
                Ok((
                    ExtVec::from_slice(d.clone(), &hs)?,
                    ExtVec::from_slice(d.clone(), &vs)?,
                ))
            });
            if let Some((hs, vs)) = segments {
                sweep.owned(&d, "segment_intersections", || {
                    segment_intersections(&hs, &vs, &cfg)
                });
            }
            let d = faulty_array(seed, mode);
            let ranges = sweep.input(&d, || {
                Ok((
                    ExtVec::from_slice(d.clone(), &pts)?,
                    ExtVec::from_slice(d.clone(), &rects)?,
                ))
            });
            if let Some((pts, rects)) = ranges {
                sweep.owned(&d, "batched_range_reporting", || {
                    batched_range_reporting(&pts, &rects, &cfg)
                });
            }

            let d = faulty_array(seed, mode);
            sweep.owned(&d, "ExtStack", || {
                let mut stack = ExtStack::new(d.clone())?;
                for i in 0..CONTAINED {
                    stack.push(i)?;
                }
                while stack.pop()?.is_some() {}
                Ok(stack)
            });
            let d = faulty_array(seed, mode);
            sweep.owned(&d, "ExtQueue", || {
                let mut queue = ExtQueue::new(d.clone())?;
                for i in 0..CONTAINED {
                    queue.push(i)?;
                }
                while queue.pop()?.is_some() {}
                Ok(queue)
            });
            let d = faulty_array(seed, mode);
            sweep.owned(&d, "AppendBuffer", || {
                let mut buffer = AppendBuffer::new(d.clone());
                for i in 0..CONTAINED {
                    buffer.push(i)?;
                }
                buffer.retain(|&i| i % 2 == 0)?;
                buffer.retain(|&i| i % 3 == 0)?;
                Ok(buffer)
            });
            let d = faulty_array(seed, mode);
            sweep.owned(&d, "BufferTree", || {
                let mut tree = BufferTree::new(d.clone(), TREE_MEM);
                for i in 0..TREE_OPS {
                    let key = mix(i ^ seed) % (TREE_OPS / 2);
                    if i % 3 == 2 {
                        tree.delete(key)?;
                    } else {
                        tree.insert(key, i)?;
                    }
                }
                tree.flush_all()?;
                Ok(tree)
            });
        }
    }
    // The sweep reached both paths of every call that can succeed, and the
    // error path of every call.
    for (what, &(ok, err)) in &sweep.0 {
        eprintln!("{what}: {ok} ok, {err} err");
        assert!(err > 0, "{what} never failed");
        let always_fails = what.ends_with("(malformed)") || *what == "merge_sort_streaming";
        assert!(always_fails || ok > 0, "{what} never succeeded");
    }
}
