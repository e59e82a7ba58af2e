//! External B+-tree.
//!
//! The survey's canonical *online* search structure: a balanced tree with
//! `Θ(B)` fan-out whose every operation touches one root-to-leaf path —
//! `Θ(log_B N)` I/Os, matching the `Search(N)` lower bound for comparison-
//! based external dictionaries (experiment T2).
//!
//! Records live in leaves, which are chained for range scans; internal nodes
//! hold routing keys only.  All node accesses go through a bounded
//! [`BufferPool`], so the memory budget is enforced by the pool's frame
//! capacity and repeated accesses to hot nodes (the root, mostly) are served
//! without I/O.
//!
//! Deletion rebalances: an underfull node first borrows from a sibling and
//! merges only when both siblings are at minimum occupancy, keeping every
//! non-root node at least half full.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use em_core::Record;
use pdm::{BlockId, BufferPool, FrameGuardMut, PdmError, Result};

const NO_NEXT: u64 = u64::MAX;

/// The owner marks of the next tree ([`BufferPool::begin_walk`]); 0 marks
/// no owner.
static NEXT_OWNER: AtomicU64 = AtomicU64::new(1);

/// An internal node's children, numbered, as a walk visits them.
type Children = std::iter::Zip<std::ops::RangeFrom<u32>, std::vec::IntoIter<BlockId>>;

/// Result of a recursive insert: replaced value, plus split info
/// `(separator, new right sibling)` if the child split.
type InsertOutcome<K, V> = (Option<V>, Option<(K, pdm::BlockId)>);

/// Decoded form of one tree node.
enum Node<K, V> {
    Leaf {
        next: Option<BlockId>,
        entries: Vec<(K, V)>,
    },
    Internal {
        keys: Vec<K>,
        children: Vec<BlockId>,
    },
}

/// An external-memory B+-tree mapping fixed-size keys to fixed-size values.
///
/// ```
/// use em_core::EmConfig;
/// use emtree::BTree;
/// use pdm::{BufferPool, EvictionPolicy};
///
/// let pool = BufferPool::new(EmConfig::new(512, 8).ram_disk(), 8, EvictionPolicy::Lru);
/// let mut tree: BTree<u64, u64> = BTree::new(pool)?;
/// tree.insert(7, 70)?;
/// tree.insert(3, 30)?;
/// assert_eq!(tree.get(&7)?, Some(70));
/// assert_eq!(tree.range(&0, &10)?, vec![(3, 30), (7, 70)]);
/// assert_eq!(tree.remove(&3)?, Some(30));
/// # Ok::<(), pdm::PdmError>(())
/// ```
pub struct BTree<K: Record + Ord, V: Record> {
    pool: Arc<BufferPool>,
    root: BlockId,
    height: u32,
    len: u64,
    leaf_cap: usize,
    internal_cap: usize, // max keys in an internal node
    /// The mark this tree's frames carry in the pool.
    owner: u64,
    _marker: PhantomData<fn() -> (K, V)>,
}

/// Left-to-right walk of the tree a rebuild replaces.  It looks at every
/// node exactly once — internal nodes as it descends, leaves as the merge
/// drains them — and lists the ids in post-order for the free after the
/// rebuild.  A node's *place* is the path of child indices from the root,
/// so the walk visits places in lexicographic order.
struct OldNodes<K, V> {
    /// Internal nodes on the current root-to-leaf path, each with its place
    /// and the children not yet visited.
    path: Vec<(BlockId, Vec<u32>, Children)>,
    leaf: std::vec::IntoIter<(K, V)>,
    visited: Vec<BlockId>,
}

/// Left-to-right leaf construction shared by [`BTree::bulk_load`] and
/// [`BTree::apply_sorted_batch`].
///
/// Every leaf is packed to `leaf_cap` pairs: the serving shard changes its
/// tree only through rebuilds, so slack left for point inserts would be
/// paid for by every rebuild and never used.  The leaf completed last is
/// *held* — its entries in memory, its freshly allocated frame pinned —
/// until its successor's block id is known, so each leaf is encoded once,
/// with its final `next` pointer, and an underfull tail evens out with the
/// held entries instead of a node read back.  Two frames are pinned at
/// most: the held leaf's and, while the two are being linked, its
/// successor's.
struct LeafFill<'a, K, V> {
    current: Vec<(K, V)>,
    held: Option<(FrameGuardMut<'a>, Vec<(K, V)>)>,
    /// `(first key, block id)` of every completed leaf, the held one included.
    leaves: Vec<(K, BlockId)>,
    count: u64,
}

impl<'a, K: Record + Ord, V: Record> LeafFill<'a, K, V> {
    /// Pack the pairs `next` yields into a chain of new leaves and return
    /// the leaves with the pair count.  If `next` or the device fails, every
    /// block allocated so far is freed before the error is returned.
    fn build(
        tree: &'a BTree<K, V>,
        mut next: impl FnMut() -> Result<Option<(K, V)>>,
    ) -> Result<(Vec<(K, BlockId)>, u64)> {
        let mut fill = LeafFill {
            current: Vec::new(),
            held: None,
            leaves: Vec::new(),
            count: 0,
        };
        let filled = (|| {
            while let Some(pair) = next()? {
                fill.push(tree, pair)?;
            }
            Ok(())
        })();
        match filled {
            Ok(()) => fill.finish(tree),
            Err(e) => fill.abandon(tree).and(Err(e)),
        }
    }

    fn push(&mut self, tree: &'a BTree<K, V>, pair: (K, V)) -> Result<()> {
        self.current.push(pair);
        self.count += 1;
        if self.current.len() == tree.leaf_cap {
            let full = std::mem::take(&mut self.current);
            self.complete(tree, full)?;
        }
        Ok(())
    }

    /// Allocate the block of the non-empty leaf `entries`, write the held
    /// leaf out pointing at it, and hold `entries` in its place.
    fn complete(&mut self, tree: &'a BTree<K, V>, entries: Vec<(K, V)>) -> Result<()> {
        let (id, frame) = tree.pool.allocate()?;
        self.leaves.push((entries[0].0.clone(), id));
        if let Some((mut prev_frame, prev)) = self.held.replace((frame, entries)) {
            let prev = Node::Leaf {
                next: Some(id),
                entries: prev,
            };
            tree.encode(&prev, &mut prev_frame);
        }
        Ok(())
    }

    /// Close the chain and return the leaves with the pair count.  A final
    /// partial leaf that would be underfull evens out with the held one.
    ///
    /// The bound used here must match [`BTree::check_invariants`] and the
    /// `remove` rebalance threshold (`⌈cap/2⌉ − 1`): a looser bound leaves
    /// tail leaves that a subsequent remove would treat as already
    /// rebalanced while the checker rejects them.
    fn finish(mut self, tree: &'a BTree<K, V>) -> Result<(Vec<(K, BlockId)>, u64)> {
        let mut tail = std::mem::take(&mut self.current);
        let min_leaf = tree.leaf_cap.div_ceil(2).max(1) - 1;
        if !tail.is_empty() && tail.len() < min_leaf {
            if let Some((_, prev)) = &mut self.held {
                // The held leaf is full, so the two split evenly, both
                // halves at least ⌊(cap+1)/2⌋ ≥ min_leaf.
                prev.append(&mut tail);
                tail = prev.split_off(prev.len() / 2);
            }
        }
        if !tail.is_empty() {
            self.complete(tree, tail)?;
        }
        if let Some((mut frame, entries)) = self.held.take() {
            tree.encode(
                &Node::Leaf {
                    next: None,
                    entries,
                },
                &mut frame,
            );
        }
        Ok((self.leaves, self.count))
    }

    /// Free every leaf built so far, the held one's frame unpinned first.
    fn abandon(mut self, tree: &BTree<K, V>) -> Result<()> {
        self.held = None;
        for (_, id) in self.leaves {
            tree.free_node(id)?;
        }
        Ok(())
    }
}

/// Pull `(key, item)` pairs from `items`, failing with
/// [`PdmError::InvalidRequest`] at the first key that is not above its
/// predecessor; `what` names the caller in the message.
fn strictly_increasing<K: Ord + Clone, T>(
    what: &'static str,
    items: impl IntoIterator<Item = (K, T)>,
) -> impl FnMut() -> Result<Option<(K, T)>> {
    let mut items = items.into_iter();
    let mut last: Option<K> = None;
    move || {
        let Some((k, item)) = items.next() else {
            return Ok(None);
        };
        if last.as_ref().is_some_and(|prev| prev >= &k) {
            return Err(PdmError::InvalidRequest(format!(
                "{what} input must be strictly increasing by key"
            )));
        }
        last = Some(k.clone());
        Ok(Some((k, item)))
    }
}

/// What [`BTree::check_invariants`] returns for a broken `invariant` found
/// at node `id`, and a read of a node that does not decode.
fn corrupt(invariant: &str, id: BlockId) -> PdmError {
    PdmError::Corrupt(format!("B-tree node {id}: {invariant}"))
}

impl<K: Record + Ord, V: Record> BTree<K, V> {
    /// Create an empty tree whose nodes are cached by `pool`.
    pub fn new(pool: Arc<BufferPool>) -> Result<Self> {
        let mut tree = Self::reattach(pool, NO_NEXT, 1, 0);
        tree.root = tree.alloc_node(&Node::Leaf {
            next: None,
            entries: Vec::new(),
        })?;
        Ok(tree)
    }

    /// Reattach a tree persisted by an earlier process from its manifest
    /// triple `(root, height, len)` — the values reported by
    /// [`root`](Self::root), [`height`](Self::height) and [`len`](Self::len)
    /// at checkpoint time.  Costs no I/O; nodes load through `pool` on
    /// demand.  The caller is responsible for the triple describing a
    /// *consistent* on-device tree (e.g. one captured in a
    /// `pdm::Journal` checkpoint manifest).
    pub fn reattach(pool: Arc<BufferPool>, root: BlockId, height: u32, len: u64) -> Self {
        let bs = pool.device().block_size();
        let leaf_cap = (bs - 11) / (K::BYTES + V::BYTES);
        let internal_cap = (bs - 11) / (K::BYTES + 8);
        assert!(
            leaf_cap >= 4 && internal_cap >= 4,
            "block too small for this key/value size"
        );
        BTree {
            pool,
            root,
            height,
            len,
            leaf_cap,
            internal_cap,
            owner: NEXT_OWNER.fetch_add(1, Ordering::Relaxed),
            _marker: PhantomData,
        }
    }

    /// The block id of the root node; with [`height`](Self::height) and
    /// [`len`](Self::len) this is the manifest a checkpoint must record to
    /// [`reattach`](Self::reattach) the tree after a crash.
    pub fn root(&self) -> BlockId {
        self.root
    }

    /// Number of key-value pairs.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the tree holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height in levels (1 = the root is a leaf).  A lookup reads exactly
    /// `height` blocks (through the pool).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Maximum entries per leaf (the effective `B` of this tree).
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_cap
    }

    /// Maximum routing keys per internal node (its fan-out is one more).
    pub fn internal_capacity(&self) -> usize {
        self.internal_cap
    }

    /// Number of nodes (one block each); test and bench support.  Reads the
    /// internal nodes only: the leaf level is counted from its parents.
    pub fn node_count(&self) -> Result<u64> {
        let mut level = vec![self.root];
        let mut nodes = 1;
        for _ in 1..self.height {
            let mut below = Vec::new();
            for id in level {
                if let Node::Internal { children, .. } = self.read_node(id)? {
                    below.extend(children);
                }
            }
            nodes += below.len() as u64;
            level = below;
        }
        Ok(nodes)
    }

    /// The buffer pool backing this tree.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Look up `key`, returning its value if present.  Costs ≤ `height`
    /// I/Os (fewer when upper levels are cached).
    pub fn get(&self, key: &K) -> Result<Option<V>> {
        self.get_with_leaf(key, |found, _| found.cloned())
    }

    /// Look up `key` as [`get`](Self::get) does, and hand `f` the value
    /// found and every pair of the leaf the descent read: a caller that
    /// caches records can keep the rest of a leaf it already paid for.
    pub fn get_with_leaf<R>(
        &self,
        key: &K,
        f: impl FnOnce(Option<&V>, &[(K, V)]) -> R,
    ) -> Result<R> {
        let mut id = self.root;
        loop {
            match self.read_node(id)? {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k <= key);
                    id = children[idx];
                }
                Node::Leaf { entries, .. } => {
                    let found = entries.binary_search_by(|(k, _)| k.cmp(key)).ok();
                    return Ok(f(found.map(|i| &entries[i].1), &entries));
                }
            }
        }
    }

    /// True if `key` is present.
    pub fn contains(&self, key: &K) -> Result<bool> {
        Ok(self.get(key)?.is_some())
    }

    /// Insert or replace; returns the previous value if the key was present.
    pub fn insert(&mut self, key: K, value: V) -> Result<Option<V>> {
        let (old, split) = self.insert_rec(self.root, key, value)?;
        if let Some((sep, right)) = split {
            let new_root = Node::Internal {
                keys: vec![sep],
                children: vec![self.root, right],
            };
            self.root = self.alloc_node(&new_root)?;
            self.height += 1;
        }
        if old.is_none() {
            self.len += 1;
        }
        Ok(old)
    }

    fn insert_rec(&mut self, id: BlockId, key: K, value: V) -> Result<InsertOutcome<K, V>> {
        match self.read_node(id)? {
            Node::Leaf { next, mut entries } => {
                match entries.binary_search_by(|(k, _)| k.cmp(&key)) {
                    Ok(i) => {
                        let old = std::mem::replace(&mut entries[i].1, value);
                        self.write_node(id, &Node::Leaf { next, entries })?;
                        Ok((Some(old), None))
                    }
                    Err(i) => {
                        entries.insert(i, (key, value));
                        if entries.len() <= self.leaf_cap {
                            self.write_node(id, &Node::Leaf { next, entries })?;
                            return Ok((None, None));
                        }
                        // Split: right half moves to a fresh node.
                        let mid = entries.len() / 2;
                        let right_entries = entries.split_off(mid);
                        let sep = right_entries[0].0.clone();
                        let right = Node::Leaf {
                            next,
                            entries: right_entries,
                        };
                        let right_id = self.alloc_node(&right)?;
                        self.write_node(
                            id,
                            &Node::Leaf {
                                next: Some(right_id),
                                entries,
                            },
                        )?;
                        Ok((None, Some((sep, right_id))))
                    }
                }
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let idx = keys.partition_point(|k| k <= &key);
                let (old, split) = self.insert_rec(children[idx], key, value)?;
                if let Some((sep, right_id)) = split {
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right_id);
                    if keys.len() <= self.internal_cap {
                        self.write_node(id, &Node::Internal { keys, children })?;
                        return Ok((old, None));
                    }
                    let mid = keys.len() / 2;
                    let sep_up = keys[mid].clone();
                    let right_keys = keys.split_off(mid + 1);
                    keys.pop(); // drop the separator that moved up
                    let right_children = children.split_off(mid + 1);
                    let right_id = self.alloc_node(&Node::Internal {
                        keys: right_keys,
                        children: right_children,
                    })?;
                    self.write_node(id, &Node::Internal { keys, children })?;
                    return Ok((old, Some((sep_up, right_id))));
                }
                Ok((old, None))
            }
        }
    }

    /// Remove `key`, returning its value if it was present.  Rebalances so
    /// every non-root node stays at least half full.
    pub fn remove(&mut self, key: &K) -> Result<Option<V>> {
        let old = self.remove_rec(self.root, key)?;
        if old.is_some() {
            self.len -= 1;
        }
        // Collapse a root that lost all its keys.
        if let Node::Internal { keys, children } = self.read_node(self.root)? {
            if keys.is_empty() {
                let only = children[0];
                self.free_node(self.root)?;
                self.root = only;
                self.height -= 1;
            }
        }
        Ok(old)
    }

    fn remove_rec(&mut self, id: BlockId, key: &K) -> Result<Option<V>> {
        match self.read_node(id)? {
            Node::Leaf { next, mut entries } => match entries.binary_search_by(|(k, _)| k.cmp(key))
            {
                Ok(i) => {
                    let (_, v) = entries.remove(i);
                    self.write_node(id, &Node::Leaf { next, entries })?;
                    Ok(Some(v))
                }
                Err(_) => Ok(None),
            },
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let idx = keys.partition_point(|k| k <= key);
                let old = self.remove_rec(children[idx], key)?;
                if old.is_some() && self.is_underfull(children[idx])? {
                    self.fix_child(&mut keys, &mut children, idx)?;
                    self.write_node(id, &Node::Internal { keys, children })?;
                }
                Ok(old)
            }
        }
    }

    fn is_underfull(&self, id: BlockId) -> Result<bool> {
        Ok(match self.read_node(id)? {
            Node::Leaf { entries, .. } => entries.len() < self.leaf_cap.div_ceil(2).max(1),
            Node::Internal { keys, .. } => keys.len() < self.internal_cap / 2,
        })
    }

    /// Restore the invariant for `children[idx]` by borrowing from or
    /// merging with a sibling.  `keys`/`children` are the parent's decoded
    /// vectors, mutated in place (caller re-writes the parent).
    fn fix_child(
        &mut self,
        keys: &mut Vec<K>,
        children: &mut Vec<BlockId>,
        idx: usize,
    ) -> Result<()> {
        // Prefer the left sibling.
        if idx > 0 && self.try_borrow_or_merge(keys, children, idx - 1)? {
            return Ok(());
        }
        if idx + 1 < children.len() {
            self.try_borrow_or_merge(keys, children, idx)?;
        }
        Ok(())
    }

    /// Rebalance the pair `(children[i], children[i+1])` around parent key
    /// `keys[i]`.  Returns true if anything was done.
    fn try_borrow_or_merge(
        &mut self,
        keys: &mut Vec<K>,
        children: &mut Vec<BlockId>,
        i: usize,
    ) -> Result<bool> {
        let (lid, rid) = (children[i], children[i + 1]);
        match (self.read_node(lid)?, self.read_node(rid)?) {
            (
                Node::Leaf {
                    next: lnext,
                    entries: mut le,
                },
                Node::Leaf {
                    next: rnext,
                    entries: mut re,
                },
            ) => {
                let min = self.leaf_cap.div_ceil(2).max(1);
                if le.len() + re.len() <= self.leaf_cap {
                    // Merge right into left.
                    le.append(&mut re);
                    self.write_node(
                        lid,
                        &Node::Leaf {
                            next: rnext,
                            entries: le,
                        },
                    )?;
                    self.free_node(rid)?;
                    keys.remove(i);
                    children.remove(i + 1);
                } else if le.len() < min {
                    // Borrow from right.
                    le.push(re.remove(0));
                    keys[i] = re[0].0.clone();
                    self.write_node(
                        lid,
                        &Node::Leaf {
                            next: lnext,
                            entries: le,
                        },
                    )?;
                    self.write_node(
                        rid,
                        &Node::Leaf {
                            next: rnext,
                            entries: re,
                        },
                    )?;
                } else if re.len() < min {
                    // Borrow from left.  An empty left sibling here is
                    // impossible (the merge branch above would have taken
                    // it); degrade to "no rebalance" rather than panic.
                    let Some(moved) = le.pop() else {
                        return Ok(false);
                    };
                    re.insert(0, moved);
                    keys[i] = re[0].0.clone();
                    self.write_node(
                        lid,
                        &Node::Leaf {
                            next: lnext,
                            entries: le,
                        },
                    )?;
                    self.write_node(
                        rid,
                        &Node::Leaf {
                            next: rnext,
                            entries: re,
                        },
                    )?;
                } else {
                    return Ok(false);
                }
                Ok(true)
            }
            (
                Node::Internal {
                    keys: mut lk,
                    children: mut lc,
                },
                Node::Internal {
                    keys: mut rk,
                    children: mut rc,
                },
            ) => {
                let min = self.internal_cap / 2;
                if lk.len() + rk.len() < self.internal_cap {
                    // Merge: left + sep + right.
                    lk.push(keys[i].clone());
                    lk.append(&mut rk);
                    lc.append(&mut rc);
                    self.write_node(
                        lid,
                        &Node::Internal {
                            keys: lk,
                            children: lc,
                        },
                    )?;
                    self.free_node(rid)?;
                    keys.remove(i);
                    children.remove(i + 1);
                } else if lk.len() < min {
                    // Rotate left: sep comes down, right's first key goes up.
                    lk.push(keys[i].clone());
                    keys[i] = rk.remove(0);
                    lc.push(rc.remove(0));
                    self.write_node(
                        lid,
                        &Node::Internal {
                            keys: lk,
                            children: lc,
                        },
                    )?;
                    self.write_node(
                        rid,
                        &Node::Internal {
                            keys: rk,
                            children: rc,
                        },
                    )?;
                } else if rk.len() < min {
                    // Rotate right.  As above: an un-mergeable pair implies a
                    // nonempty left; degrade instead of panicking if not.
                    let (Some(key_up), Some(child_over)) = (lk.pop(), lc.pop()) else {
                        return Ok(false);
                    };
                    rk.insert(0, keys[i].clone());
                    keys[i] = key_up;
                    rc.insert(0, child_over);
                    self.write_node(
                        lid,
                        &Node::Internal {
                            keys: lk,
                            children: lc,
                        },
                    )?;
                    self.write_node(
                        rid,
                        &Node::Internal {
                            keys: rk,
                            children: rc,
                        },
                    )?;
                } else {
                    return Ok(false);
                }
                Ok(true)
            }
            // Siblings at different levels would mean a corrupt parent; skip
            // the rebalance (the tree stays searchable, merely underfull)
            // rather than panicking.
            _ => Ok(false),
        }
    }

    /// The smallest key and its value (`O(log_B N)` I/Os).
    pub fn first(&self) -> Result<Option<(K, V)>> {
        let mut id = self.root;
        loop {
            match self.read_node(id)? {
                Node::Internal { children, .. } => id = children[0],
                Node::Leaf { entries, .. } => return Ok(entries.first().cloned()),
            }
        }
    }

    /// The largest key and its value (`O(log_B N)` I/Os).
    pub fn last(&self) -> Result<Option<(K, V)>> {
        let mut id = self.root;
        loop {
            match self.read_node(id)? {
                Node::Internal { children, .. } => match children.last() {
                    Some(&c) => id = c,
                    // A childless internal node is impossible; treat it as an
                    // empty subtree instead of panicking.
                    None => return Ok(None),
                },
                Node::Leaf { entries, .. } => return Ok(entries.last().cloned()),
            }
        }
    }

    /// All pairs with `lo ≤ key ≤ hi`, in order: one root-to-leaf descent
    /// plus a walk along the leaf chain — `O(log_B N + Z/B)` I/Os.
    pub fn range(&self, lo: &K, hi: &K) -> Result<Vec<(K, V)>> {
        let mut out = Vec::new();
        if hi < lo {
            return Ok(out);
        }
        // Descend to the leaf that would contain `lo`.
        let mut id = self.root;
        while let Node::Internal { keys, children } = self.read_node(id)? {
            let idx = keys.partition_point(|k| k <= lo);
            id = children[idx];
        }
        // Walk the chain.
        loop {
            let Node::Leaf { next, entries } = self.read_node(id)? else {
                // Impossible-invariant degrade: end the scan with what was
                // collected so far instead of panicking.
                return Ok(out);
            };
            for (k, v) in entries {
                if &k > hi {
                    return Ok(out);
                }
                if &k >= lo {
                    out.push((k, v));
                }
            }
            match next {
                Some(n) => id = n,
                None => return Ok(out),
            }
        }
    }

    /// Build a tree from key-sorted pairs, writing each block exactly once
    /// and reading none: `⌈N/leaf_cap⌉` full leaves, then
    /// `⌈c/(internal_cap + 1)⌉` full internal nodes over each level of `c`
    /// children — far cheaper than `N` inserts, and the least height the
    /// capacities allow.
    ///
    /// # Errors
    /// [`PdmError::InvalidRequest`] if the input is not strictly increasing
    /// by key; the blocks built before the bad key are freed.
    pub fn bulk_load<I>(pool: Arc<BufferPool>, sorted: I) -> Result<Self>
    where
        I: IntoIterator<Item = (K, V)>,
    {
        let mut tree = Self::reattach(pool, NO_NEXT, 1, 0);
        let (leaves, count) = LeafFill::build(&tree, strictly_increasing("bulk_load", sorted))?;
        tree.install_built_leaves(leaves, count)?;
        Ok(tree)
    }

    /// Apply a key-sorted batch of upserts (`Some(value)`) and deletes
    /// (`None`) in one streaming rebuild: the old leaves are merged with the
    /// batch into freshly bulk-built leaves and internal levels, and the old
    /// nodes are freed — every old node not resident when the rebuild starts
    /// read once, every new node written once, `O((N + Δ)/B)` I/Os for a
    /// batch of Δ ops regardless of their key spread, versus `Θ(Δ·log_B N)`
    /// for per-key inserts.  This is the ingestion path a serving shard
    /// compacts into: its delta makes a batch cheap to *collect*, this makes
    /// it cheap to *apply*.
    ///
    /// The old nodes the pool holds are consumed in place, not evicted by
    /// the rebuild's own writes: the rebuild walks the old tree as a pool
    /// walk ([`BufferPool::begin_walk`]), so a frame of this tree resident
    /// at the start goes only when no other unpinned frame can, the one the
    /// walk reaches last first, and a consumed old node is the next victim.
    /// The count above is exact while those frames leave the pool two more:
    /// one for the leaf being built, one to read or build the next node.
    ///
    /// A delete of an absent key is a no-op.  Returns the number of live
    /// pairs after the merge (also the new [`len`](Self::len)).
    ///
    /// `kept` sees every key the new tree holds, once each, in key order, as
    /// it is written: a caller can summarize the rebuilt tree in memory
    /// without reading it back.  On an error it has seen a prefix of the
    /// keys of a tree that was never installed.
    ///
    /// # Errors
    /// [`PdmError::InvalidRequest`] if the batch is not strictly increasing
    /// by key, [`PdmError::Corrupt`] if an old node does not decode.  The
    /// new nodes built so far are freed and the tree is left as it was.
    pub fn apply_sorted_batch<I>(&mut self, ops: I, kept: impl FnMut(&K)) -> Result<u64>
    where
        I: IntoIterator<Item = (K, Option<V>)>,
    {
        self.pool.begin_walk(self.owner);
        let rebuilt = self.rebuild(ops, kept);
        self.pool.end_walk(self.owner);
        rebuilt
    }

    /// [`apply_sorted_batch`](Self::apply_sorted_batch) inside its pool walk.
    fn rebuild<I>(&mut self, ops: I, mut kept: impl FnMut(&K)) -> Result<u64>
    where
        I: IntoIterator<Item = (K, Option<V>)>,
    {
        let mut pull_op = strictly_increasing("apply_sorted_batch", ops);
        let mut old = OldNodes {
            path: Vec::new(),
            leaf: Vec::new().into_iter(),
            visited: Vec::new(),
        };
        self.place_old(self.root, &mut Vec::new())?;
        self.open_old_node(&mut old, self.root, Vec::new())?;
        let mut old_pending = self.next_old_pair(&mut old)?;
        let mut op_pending = pull_op()?;
        let merged = || loop {
            let emit = match (old_pending.take(), op_pending.take()) {
                (None, None) => return Ok(None),
                (Some(o), None) => {
                    old_pending = self.next_old_pair(&mut old)?;
                    Some(o)
                }
                (None, Some((k, mv))) => {
                    op_pending = pull_op()?;
                    mv.map(|v| (k, v))
                }
                (Some((ok, ov)), Some((pk, pv))) => match ok.cmp(&pk) {
                    std::cmp::Ordering::Less => {
                        op_pending = Some((pk, pv));
                        old_pending = self.next_old_pair(&mut old)?;
                        Some((ok, ov))
                    }
                    std::cmp::Ordering::Greater => {
                        old_pending = Some((ok, ov));
                        op_pending = pull_op()?;
                        pv.map(|v| (pk, v))
                    }
                    std::cmp::Ordering::Equal => {
                        // The op overrides (upsert) or erases (delete) the
                        // old pair.
                        old_pending = self.next_old_pair(&mut old)?;
                        op_pending = pull_op()?;
                        pv.map(|v| (pk, v))
                    }
                },
            };
            if let Some((k, _)) = &emit {
                kept(k);
                return Ok(emit);
            }
        };
        // On an error no old node has been freed yet: the tree is intact.
        let (leaves, count) = LeafFill::build(self, merged)?;
        // The walk has been drained, so it has listed the whole old tree.
        for id in old.visited {
            self.free_node(id)?;
        }
        self.install_built_leaves(leaves, count)?;
        Ok(count)
    }

    /// Tell the pool the walk reaches old node `id` at `place`, and, if its
    /// frame is resident with a place not yet known, every resident node
    /// below it too.  Decodes resident frames only: no I/O.
    fn place_old(&self, id: BlockId, place: &mut Vec<u32>) -> Result<()> {
        let Some(frame) = self.pool.place(id, place) else {
            return Ok(());
        };
        if let Node::Internal { children, .. } = Self::decode(id, &frame)? {
            drop(frame);
            self.place_children(&children, place)?;
        }
        Ok(())
    }

    /// [`place_old`](Self::place_old) each of `children` of the node at
    /// `place`.
    fn place_children(&self, children: &[BlockId], place: &mut Vec<u32>) -> Result<()> {
        for (i, &child) in (0..).zip(children) {
            place.push(i);
            self.place_old(child, place)?;
            place.pop();
        }
        Ok(())
    }

    /// Read old node `id`, at `place`, as the walk's next stop, and tell the
    /// pool it is consumed: an internal node joins the path, its children
    /// placed, and a leaf becomes the current source of pairs.
    fn open_old_node(
        &self,
        old: &mut OldNodes<K, V>,
        id: BlockId,
        mut place: Vec<u32>,
    ) -> Result<()> {
        let node = self.read_node(id)?;
        self.pool.spend(id);
        match node {
            Node::Internal { children, .. } => {
                self.place_children(&children, &mut place)?;
                old.path.push((id, place, (0..).zip(children)));
            }
            Node::Leaf { entries, .. } => {
                old.visited.push(id);
                old.leaf = entries.into_iter();
            }
        }
        Ok(())
    }

    /// Pull the next pair of the old tree, advancing across leaf boundaries.
    fn next_old_pair(&self, old: &mut OldNodes<K, V>) -> Result<Option<(K, V)>> {
        loop {
            if let Some(pair) = old.leaf.next() {
                return Ok(Some(pair));
            }
            let Some((id, place, unvisited)) = old.path.last_mut() else {
                return Ok(None);
            };
            match unvisited.next() {
                Some((i, child)) => {
                    let mut child_place = place.clone();
                    child_place.push(i);
                    self.open_old_node(old, child, child_place)?;
                }
                None => {
                    old.visited.push(*id);
                    old.path.pop();
                }
            }
        }
    }

    /// Build the internal levels above the chained `leaves` and install the
    /// result as this tree's contents.
    ///
    /// Each level is packed like the leaves: every node takes
    /// `internal_cap + 1` children, and a last node that would hold fewer
    /// than `remove`'s `internal_cap / 2` keys evens out with the one before
    /// it.  A level over `c` children is thus `⌈c/(internal_cap + 1)⌉`
    /// nodes.
    fn install_built_leaves(&mut self, leaves: Vec<(K, BlockId)>, count: u64) -> Result<()> {
        if leaves.is_empty() {
            self.root = self.alloc_node(&Node::Leaf {
                next: None,
                entries: Vec::new(),
            })?;
            self.height = 1;
            self.len = 0;
            return Ok(());
        }
        let mut level: Vec<(K, BlockId)> = leaves;
        let mut height = 1;
        let fan_out = self.internal_cap + 1;
        let min_children = self.internal_cap / 2 + 1;
        while level.len() > 1 {
            let mut sizes = vec![fan_out; level.len() / fan_out];
            match level.len() % fan_out {
                0 => {}
                // Both halves get at least ⌊(fan_out + 1)/2⌋ ≥ min_children.
                tail if tail < min_children && !sizes.is_empty() => {
                    let both = fan_out + tail;
                    sizes.pop();
                    sizes.extend([both / 2, both - both / 2]);
                }
                tail => sizes.push(tail),
            }
            let mut next_level = Vec::with_capacity(sizes.len());
            let mut rest = level.as_slice();
            for take in sizes {
                let (slice, after) = rest.split_at(take);
                rest = after;
                let keys: Vec<K> = slice[1..].iter().map(|(k, _)| k.clone()).collect();
                let children: Vec<BlockId> = slice.iter().map(|(_, id)| *id).collect();
                let id = self.alloc_node(&Node::Internal { keys, children })?;
                next_level.push((slice[0].0.clone(), id));
            }
            level = next_level;
            height += 1;
        }
        self.root = level[0].1;
        self.height = height;
        self.len = count;
        Ok(())
    }

    /// Verify structural invariants (sorted keys, occupancy, leaf chain,
    /// uniform depth); test support.  Costs a full tree scan.
    ///
    /// # Errors
    /// [`PdmError::Corrupt`] naming the first invariant found broken and
    /// the node it was found at; a device error as the read returns it.
    pub fn check_invariants(&self) -> Result<()> {
        let mut leaf_depths = Vec::new();
        self.check_rec(self.root, 1, None, None, &mut leaf_depths)?;
        if leaf_depths.windows(2).any(|w| w[0] != w[1]) {
            return Err(corrupt("leaves at differing depths", self.root));
        }
        if leaf_depths.first().is_some_and(|&d| d != self.height) {
            return Err(corrupt("height differs from the leaves' depth", self.root));
        }
        Ok(())
    }

    fn check_rec(
        &self,
        id: BlockId,
        depth: u32,
        lo: Option<&K>,
        hi: Option<&K>,
        leaf_depths: &mut Vec<u32>,
    ) -> Result<u64> {
        match self.read_node(id)? {
            Node::Leaf { entries, .. } => {
                if entries.windows(2).any(|w| w[0].0 >= w[1].0) {
                    return Err(corrupt("leaf keys unsorted", id));
                }
                let in_range = |k: &K| lo.is_none_or(|l| l <= k) && hi.is_none_or(|h| k < h);
                if !entries.iter().all(|(k, _)| in_range(k)) {
                    return Err(corrupt("leaf key outside its subtree's range", id));
                }
                let min_leaf = self.leaf_cap.div_ceil(2).max(1).saturating_sub(1);
                if id != self.root && entries.len() < min_leaf {
                    return Err(corrupt("underfull leaf", id));
                }
                leaf_depths.push(depth);
                Ok(entries.len() as u64)
            }
            Node::Internal { keys, children } => {
                // `internal_cap ≥ 4`, so an empty node is underfull too.
                if id != self.root && keys.len() < self.internal_cap / 2 {
                    return Err(corrupt("underfull internal node", id));
                }
                if children.len() != keys.len() + 1 {
                    return Err(corrupt("internal node's children are not keys + 1", id));
                }
                if keys.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(corrupt("internal keys unsorted", id));
                }
                let mut total = 0;
                for (i, child) in children.iter().enumerate() {
                    let clo = if i == 0 { lo } else { Some(&keys[i - 1]) };
                    let chi = if i == keys.len() { hi } else { Some(&keys[i]) };
                    total += self.check_rec(*child, depth + 1, clo, chi, leaf_depths)?;
                }
                Ok(total)
            }
        }
    }

    // ---- node (de)serialization ----------------------------------------

    // Every frame that holds an internal node is marked so: a pool whose
    // frame limit is lowered keeps it over the leaves.

    fn read_node(&self, id: BlockId) -> Result<Node<K, V>> {
        let frame = self.pool.read(id)?;
        frame.mark_owner(self.owner);
        let node = Self::decode(id, &frame)?;
        if matches!(node, Node::Internal { .. }) {
            frame.mark_internal();
        }
        Ok(node)
    }

    fn write_node(&self, id: BlockId, node: &Node<K, V>) -> Result<()> {
        let mut frame = self.pool.write(id)?;
        self.encode(node, &mut frame);
        Ok(())
    }

    fn alloc_node(&self, node: &Node<K, V>) -> Result<BlockId> {
        let (id, mut frame) = self.pool.allocate()?;
        self.encode(node, &mut frame);
        Ok(id)
    }

    fn free_node(&self, id: BlockId) -> Result<()> {
        self.pool.discard(id)?;
        self.pool.device().free(id)
    }

    /// Decode node `id` from `buf`.  A tag other than leaf (0) or internal
    /// (1), or a count past what the block holds, is [`PdmError::Corrupt`]:
    /// a torn or foreign block, or a manifest naming the wrong root.
    fn decode(id: BlockId, buf: &[u8]) -> Result<Node<K, V>> {
        let Some((header, body)) = buf.split_at_checked(11) else {
            return Err(corrupt("block shorter than a node header", id));
        };
        let (tag, count) = (
            header[0],
            u16::from_le_bytes([header[1], header[2]]) as usize,
        );
        match tag {
            0 if count <= body.len() / (K::BYTES + V::BYTES) => {
                let next = Some(u64::read_from(&header[3..])).filter(|&n| n != NO_NEXT);
                let entries = body
                    .chunks_exact(K::BYTES + V::BYTES)
                    .take(count)
                    .map(|pair| {
                        let (k, v) = pair.split_at(K::BYTES);
                        (K::read_from(k), V::read_from(v))
                    })
                    .collect();
                Ok(Node::Leaf { next, entries })
            }
            1 if count <= body.len() / (K::BYTES + 8) => {
                let (keys, children) = buf[3..].split_at(count * K::BYTES);
                Ok(Node::Internal {
                    keys: keys.chunks_exact(K::BYTES).map(K::read_from).collect(),
                    children: children
                        .chunks_exact(8)
                        .take(count + 1)
                        .map(u64::read_from)
                        .collect(),
                })
            }
            0 | 1 => Err(corrupt("count past the block's capacity", id)),
            _ => Err(corrupt("unknown tag", id)),
        }
    }

    fn encode(&self, node: &Node<K, V>, frame: &mut FrameGuardMut) {
        frame.mark_owner(self.owner);
        if matches!(node, Node::Internal { .. }) {
            frame.mark_internal();
        }
        let buf: &mut [u8] = frame;
        buf.fill(0);
        match node {
            Node::Leaf { next, entries } => {
                buf[0] = 0;
                buf[1..3].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                buf[3..11].copy_from_slice(&next.unwrap_or(NO_NEXT).to_le_bytes());
                let mut at = 11;
                for (k, v) in entries {
                    k.write_to(&mut buf[at..at + K::BYTES]);
                    at += K::BYTES;
                    v.write_to(&mut buf[at..at + V::BYTES]);
                    at += V::BYTES;
                }
            }
            Node::Internal { keys, children } => {
                debug_assert_eq!(children.len(), keys.len() + 1);
                buf[0] = 1;
                buf[1..3].copy_from_slice(&(keys.len() as u16).to_le_bytes());
                let mut at = 3;
                for k in keys {
                    k.write_to(&mut buf[at..at + K::BYTES]);
                    at += K::BYTES;
                }
                for c in children {
                    buf[at..at + 8].copy_from_slice(&c.to_le_bytes());
                    at += 8;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::EmConfig;
    use pdm::EvictionPolicy;
    use rand::prelude::*;
    use std::collections::BTreeMap;

    fn pool(block_bytes: usize, frames: usize) -> Arc<BufferPool> {
        let device = EmConfig::new(block_bytes, frames.max(4)).ram_disk();
        BufferPool::new(device, frames, EvictionPolicy::Lru)
    }

    #[test]
    fn insert_get_small() {
        let mut t: BTree<u64, u64> = BTree::new(pool(128, 8)).unwrap();
        assert_eq!(t.insert(5, 50).unwrap(), None);
        assert_eq!(t.insert(3, 30).unwrap(), None);
        assert_eq!(
            t.insert(5, 55).unwrap(),
            Some(50),
            "replace returns old value"
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&5).unwrap(), Some(55));
        assert_eq!(t.get(&3).unwrap(), Some(30));
        assert_eq!(t.get(&4).unwrap(), None);
    }

    #[test]
    fn many_inserts_match_model() {
        let mut t: BTree<u64, u64> = BTree::new(pool(128, 16)).unwrap();
        let mut model = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..3000 {
            let k = rng.gen_range(0..1000u64);
            let v = rng.gen();
            assert_eq!(t.insert(k, v).unwrap(), model.insert(k, v));
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len() as usize, model.len());
        for k in 0..1000u64 {
            assert_eq!(t.get(&k).unwrap(), model.get(&k).copied(), "key {k}");
        }
    }

    #[test]
    fn deletes_match_model_with_rebalancing() {
        let mut t: BTree<u64, u64> = BTree::new(pool(128, 16)).unwrap();
        let mut model = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..2000 {
            let k = rng.gen_range(0..500u64);
            let v = rng.gen();
            t.insert(k, v).unwrap();
            model.insert(k, v);
        }
        for _ in 0..3000 {
            let k = rng.gen_range(0..500u64);
            assert_eq!(t.remove(&k).unwrap(), model.remove(&k), "remove {k}");
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len() as usize, model.len());
        for k in 0..500u64 {
            assert_eq!(t.get(&k).unwrap(), model.get(&k).copied());
        }
    }

    #[test]
    fn delete_everything_collapses_to_leaf_root() {
        let mut t: BTree<u64, u64> = BTree::new(pool(128, 16)).unwrap();
        for k in 0..500u64 {
            t.insert(k, k).unwrap();
        }
        assert!(t.height() > 1);
        for k in 0..500u64 {
            assert_eq!(t.remove(&k).unwrap(), Some(k));
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        t.check_invariants().unwrap();
        // Tree remains usable.
        t.insert(7, 70).unwrap();
        assert_eq!(t.get(&7).unwrap(), Some(70));
    }

    #[test]
    fn range_scan_inclusive() {
        let mut t: BTree<u64, u64> = BTree::new(pool(128, 16)).unwrap();
        for k in (0..1000u64).step_by(2) {
            t.insert(k, k * 10).unwrap();
        }
        let got = t.range(&100, &120).unwrap();
        let expect: Vec<(u64, u64)> = (100..=120).step_by(2).map(|k| (k, k * 10)).collect();
        assert_eq!(got, expect);
        assert_eq!(t.range(&7, &7).unwrap(), vec![]);
        assert_eq!(t.range(&8, &8).unwrap(), vec![(8, 80)]);
        assert!(
            t.range(&10, &5).unwrap().is_empty(),
            "inverted range is empty"
        );
        // Full range covers everything.
        assert_eq!(t.range(&0, &u64::MAX).unwrap().len() as u64, t.len());
    }

    #[test]
    fn bulk_load_matches_inserts() {
        let pairs: Vec<(u64, u64)> = (0..2500u64).map(|k| (k * 3, k)).collect();
        let t = BTree::bulk_load(pool(128, 16), pairs.iter().cloned()).unwrap();
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 2500);
        for (k, v) in &pairs {
            assert_eq!(t.get(k).unwrap(), Some(*v));
        }
        assert_eq!(t.get(&1).unwrap(), None);
        assert_eq!(t.range(&0, &u64::MAX).unwrap(), pairs);
    }

    #[test]
    fn bulk_load_small_inputs() {
        for n in [0u64, 1, 2, 5, 7, 8] {
            let pairs: Vec<(u64, u64)> = (0..n).map(|k| (k, k)).collect();
            let t = BTree::bulk_load(pool(128, 8), pairs.iter().cloned()).unwrap();
            t.check_invariants().unwrap();
            assert_eq!(t.len(), n);
            assert_eq!(t.range(&0, &u64::MAX).unwrap(), pairs, "n={n}");
        }
    }

    #[test]
    fn bulk_load_of_unsorted_input_is_a_typed_error_that_frees_its_blocks() {
        let p = pool(128, 8);
        // Enough pairs before the bad key that leaves have been built.
        let pairs = (0..100u64).chain([50]).map(|k| (k, k));
        let err = BTree::<u64, u64>::bulk_load(p.clone(), pairs).err();
        assert!(matches!(err, Some(PdmError::InvalidRequest(_))), "{err:?}");
        assert_eq!(p.device().allocated_blocks(), 0);
    }

    #[test]
    fn apply_sorted_batch_matches_model() {
        let mut model: BTreeMap<u64, u64> = (0..2000u64).map(|k| (k * 2, k)).collect();
        let mut t = BTree::bulk_load(pool(128, 16), model.iter().map(|(&k, &v)| (k, v))).unwrap();
        // A batch mixing overwrites, fresh inserts, real deletes, and
        // deletes of absent keys.
        let mut rng = StdRng::seed_from_u64(77);
        let mut batch: BTreeMap<u64, Option<u64>> = BTreeMap::new();
        for _ in 0..800 {
            let k = rng.gen_range(0..5000u64);
            if rng.gen_bool(0.6) {
                batch.insert(k, Some(rng.gen()));
            } else {
                batch.insert(k, None);
            }
        }
        for (&k, v) in &batch {
            match v {
                Some(v) => {
                    model.insert(k, *v);
                }
                None => {
                    model.remove(&k);
                }
            }
        }
        let mut kept = Vec::new();
        let n = t
            .apply_sorted_batch(batch.iter().map(|(&k, &v)| (k, v)), |&k| kept.push(k))
            .unwrap();
        assert_eq!(n as usize, model.len());
        assert!(
            kept.into_iter().eq(model.keys().copied()),
            "each kept key once, in order"
        );
        assert_eq!(t.len() as usize, model.len());
        t.check_invariants().unwrap();
        let expect: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(t.range(&0, &u64::MAX).unwrap(), expect);
        // The tree stays fully usable for point ops afterwards.
        t.insert(1, 11).unwrap();
        assert_eq!(t.get(&1).unwrap(), Some(11));
    }

    #[test]
    fn apply_sorted_batch_edge_cases() {
        // Empty tree, empty batch.
        let mut t: BTree<u64, u64> = BTree::new(pool(128, 8)).unwrap();
        assert_eq!(t.apply_sorted_batch(std::iter::empty(), |_| {}).unwrap(), 0);
        assert!(t.is_empty());
        // Batch into an empty tree behaves like a bulk load.
        assert_eq!(
            t.apply_sorted_batch((0..100u64).map(|k| (k, Some(k))), |_| {})
                .unwrap(),
            100
        );
        t.check_invariants().unwrap();
        assert_eq!(t.get(&42).unwrap(), Some(42));
        // Deleting everything collapses back to an empty, usable tree.
        assert_eq!(
            t.apply_sorted_batch((0..100u64).map(|k| (k, None)), |_| {})
                .unwrap(),
            0
        );
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        t.insert(5, 50).unwrap();
        assert_eq!(t.get(&5).unwrap(), Some(50));
    }

    /// Regression: the bulk builder used to close the leaf chain with a tail
    /// leaf below the `⌈cap/2⌉ − 1` occupancy bound whenever a delete-heavy
    /// batch shrank the live set to whole leaves plus a small remainder, which
    /// `check_invariants` (and the remove rebalancer) reject.
    #[test]
    fn apply_sorted_batch_never_leaves_an_underfull_tail_leaf() {
        for live in 1..120u64 {
            let mut t: BTree<u64, u64> = BTree::new(pool(256, 8)).unwrap();
            // Load three leaves' worth, then delete down to `live` keys so
            // every possible tail-leaf remainder is exercised.
            t.apply_sorted_batch((0..120u64).map(|k| (k, Some(k))), |_| {})
                .unwrap();
            t.apply_sorted_batch((live..120u64).map(|k| (k, None)), |_| {})
                .unwrap();
            assert_eq!(t.len(), live);
            t.check_invariants()
                .unwrap_or_else(|e| panic!("live = {live}: {e}"));
            let mut model: BTreeMap<u64, u64> = (0..live).map(|k| (k, k)).collect();
            // The merged/stolen tail must still behave under point ops.
            assert_eq!(t.remove(&0).unwrap(), model.remove(&0));
            assert_eq!(t.insert(500, 5).unwrap(), model.insert(500, 5));
            for (k, v) in &model {
                assert_eq!(t.get(k).unwrap(), Some(*v), "live = {live}, key {k}");
            }
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn apply_sorted_batch_of_unsorted_input_is_a_typed_error_that_leaves_the_tree() {
        let pairs: Vec<(u64, u64)> = (0..300u64).map(|k| (k * 2, k)).collect();
        let mut t = BTree::bulk_load(pool(128, 8), pairs.iter().cloned()).unwrap();
        let allocated = t.pool().device().allocated_blocks();
        // Upserts and deletes interleaved with the old pairs, then a key
        // below its predecessor.
        let ops = (0..400u64)
            .map(|k| (k, (k % 3 != 0).then_some(k)))
            .chain([(7, None)]);
        let err = t.apply_sorted_batch(ops, |_| {}).err();
        assert!(matches!(err, Some(PdmError::InvalidRequest(_))), "{err:?}");
        assert_eq!(t.pool().device().allocated_blocks(), allocated);
        assert_eq!(t.len(), 300);
        t.check_invariants().unwrap();
        assert_eq!(t.range(&0, &u64::MAX).unwrap(), pairs);
        // Still a working tree.
        t.apply_sorted_batch([(1, Some(1))], |_| {}).unwrap();
        assert_eq!(t.get(&1).unwrap(), Some(1));
    }

    /// A packed tree over 500 pairs at 128 B blocks: four levels, so the
    /// root's first child is an internal node.
    fn four_levels() -> BTree<u64, u64> {
        let t = BTree::bulk_load(pool(128, 16), (0..500u64).map(|k| (k, k))).unwrap();
        assert_eq!(t.height(), 4);
        t
    }

    /// The first key of leaf `id` of `t`.
    fn leaf_first_key(t: &BTree<u64, u64>, id: BlockId) -> u64 {
        match t.read_node(id).unwrap() {
            Node::Leaf { entries, .. } => entries[0].0,
            Node::Internal { .. } => unreachable!("block {id} is a leaf"),
        }
    }

    /// `check_invariants` on a tree with one node overwritten: the error
    /// names the invariant and the node.
    fn corrupt_message(t: &BTree<u64, u64>, id: BlockId, node: Node<u64, u64>) -> String {
        t.check_invariants().unwrap();
        t.write_node(id, &node).unwrap();
        match t.check_invariants() {
            Err(PdmError::Corrupt(msg)) => {
                assert!(msg.contains(&format!("node {id}:")), "{msg}");
                msg
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn an_unsorted_leaf_is_reported_as_corrupt() {
        let t = four_levels();
        let mut id = t.root();
        while let Node::Internal { children, .. } = t.read_node(id).unwrap() {
            id = children[0];
        }
        let Node::Leaf { next, mut entries } = t.read_node(id).unwrap() else {
            unreachable!("the descent ends at a leaf")
        };
        entries.reverse();
        let msg = corrupt_message(&t, id, Node::Leaf { next, entries });
        assert!(msg.ends_with("leaf keys unsorted"), "{msg}");
    }

    #[test]
    fn an_underfull_internal_node_is_reported_as_corrupt() {
        let t = four_levels();
        let Node::Internal { children: top, .. } = t.read_node(t.root()).unwrap() else {
            unreachable!("a four-level root is internal")
        };
        let id = top[0];
        let Node::Internal { keys, children } = t.read_node(id).unwrap() else {
            unreachable!("the root's children are internal at four levels")
        };
        // One key of the seven packed there, below `remove`'s bound of 3.
        let node = Node::Internal {
            keys: keys[..1].to_vec(),
            children: children[..2].to_vec(),
        };
        let msg = corrupt_message(&t, id, node);
        assert!(msg.ends_with("underfull internal node"), "{msg}");
    }

    /// Nodes and height of a packed tree over `n` pairs: `⌈n/leaf_cap⌉`
    /// leaves, then `⌈c/(internal_cap + 1)⌉` nodes over each level of `c`.
    fn packed_shape(n: u64, leaf_cap: usize, internal_cap: usize) -> (u64, u32) {
        let mut level = n.div_ceil(leaf_cap as u64).max(1);
        let (mut nodes, mut height) = (level, 1);
        while level > 1 {
            level = level.div_ceil(internal_cap as u64 + 1);
            nodes += level;
            height += 1;
        }
        (nodes, height)
    }

    /// The least height at which `leaf_cap · (internal_cap + 1)^(h−1)`
    /// pairs fit.
    fn min_height(n: u64, leaf_cap: usize, internal_cap: usize) -> u32 {
        let (mut fits, mut height) = (leaf_cap as u64, 1);
        while fits < n {
            fits *= internal_cap as u64 + 1;
            height += 1;
        }
        height
    }

    /// Every level's tail remainder at a 128 B block (7 pairs a leaf,
    /// 8 children an internal node): the leaf tail cycles through 0..7 and
    /// the leaf count through 1..=72, so both internal levels see every
    /// last-node size.  Built both ways, then drained with the invariants
    /// checked after each removal.
    #[test]
    fn packed_builds_keep_every_node_above_removes_bound() {
        let mut rng = StdRng::seed_from_u64(27);
        for leaves in 1..=72u64 {
            let n = (leaves - 1) * 7 + 1 + leaves % 7;
            let bulk = BTree::bulk_load(pool(128, 16), (0..n).map(|k| (k * 2, k))).unwrap();
            let mut applied = BTree::bulk_load(pool(128, 16), (0..n).map(|k| (k * 2, k))).unwrap();
            // Erase every old pair and insert as many between them.
            applied
                .apply_sorted_batch(
                    (0..2 * n).map(|k| (k, (k % 2 == 1).then_some(k / 2))),
                    |_| {},
                )
                .unwrap();
            for mut t in [bulk, applied] {
                assert_eq!(t.len(), n);
                let shape = packed_shape(n, t.leaf_capacity(), t.internal_capacity());
                assert_eq!((t.node_count().unwrap(), t.height()), shape, "n = {n}");
                t.check_invariants()
                    .unwrap_or_else(|e| panic!("n = {n}: {e}"));
                let mut keys: Vec<u64> = t
                    .range(&0, &u64::MAX)
                    .unwrap()
                    .iter()
                    .map(|p| p.0)
                    .collect();
                keys.shuffle(&mut rng);
                for k in keys {
                    assert!(t.remove(&k).unwrap().is_some());
                    t.check_invariants().unwrap();
                }
                assert!(t.is_empty());
            }
        }
    }

    /// A rebuild's floor, met exactly: every old node read once, every new
    /// node written once — whatever the pool holds back.
    #[test]
    fn apply_sorted_batch_reads_each_old_node_once_and_writes_each_new_node_once() {
        for frames in [4, 8] {
            let n = 4000u64;
            let built = BTree::bulk_load(pool(128, frames), (0..n).map(|k| (k * 2, k))).unwrap();
            built.pool().flush().unwrap();
            let old_nodes = built.node_count().unwrap();
            // Reattach through a cold pool, so a resident old node cannot
            // stand in for a device read.
            let device = built.pool().device().clone();
            let cold = BufferPool::new(device.clone(), frames, EvictionPolicy::Lru);
            let mut t: BTree<u64, u64> =
                BTree::reattach(cold, built.root(), built.height(), built.len());
            let before = device.stats().snapshot();
            t.apply_sorted_batch((0..n).map(|k| (k * 2 + 1, Some(k))), |_| {})
                .unwrap();
            t.pool().flush().unwrap();
            let d = device.stats().snapshot().since(&before);
            assert_eq!(d.reads(), old_nodes, "{frames} frames");
            assert_eq!(d.writes(), t.node_count().unwrap(), "{frames} frames");
            assert_eq!(t.len(), 2 * n);
            t.check_invariants().unwrap();
        }
    }

    /// A tree of `n` pairs `(2k, k)` bulk-loaded through a `frames`-frame
    /// pool and flushed, then warmed by `gets` random lookups with the pool
    /// held to `warm_limit` frames, and the pool's full limit restored.
    /// Returns it with the old nodes the pool holds.
    fn warm_tree(n: u64, frames: usize, gets: u64, warm_limit: usize) -> (BTree<u64, u64>, u64) {
        let t = BTree::bulk_load(pool(128, frames), (0..n).map(|k| (2 * k, k))).unwrap();
        t.pool().flush().unwrap();
        t.pool().set_limit(warm_limit);
        let mut rng = StdRng::seed_from_u64(gets * 31 + frames as u64);
        for _ in 0..gets {
            let k = rng.gen_range(0..n);
            assert_eq!(t.get(&(2 * k)).unwrap(), Some(k));
        }
        t.pool().set_limit(frames);
        // Every frame the tree has marked is one of its nodes.
        let resident = t.pool().begin_walk(t.owner);
        t.pool().end_walk(t.owner);
        (t, resident as u64)
    }

    /// The warm sibling of the test above: a rebuild reads only the old
    /// nodes the pool does not hold when it starts, and writes each new
    /// node once.  While the resident old nodes leave two frames free,
    /// that is exact; beyond, at most the excess is evicted before the
    /// walk reaches it and read after all.
    #[test]
    fn apply_sorted_batch_over_a_warm_pool_reads_only_the_old_nodes_it_does_not_hold() {
        let n = 600u64;
        let (mut exact, mut tight) = (0, 0);
        for frames in [4, 6, 8, 12] {
            for (gets, warm_limit) in [(0, frames), (3, frames), (40, frames), (40, frames - 2)] {
                let (mut t, resident) = warm_tree(n, frames, gets, warm_limit);
                let (lc, ic) = (t.leaf_capacity(), t.internal_capacity());
                let old_nodes = packed_shape(n, lc, ic).0;
                let device = t.pool().device().clone();
                let before = device.stats().snapshot();
                // Odd keys between the old ones, and every third old key
                // deleted.
                let ops = (0..2 * n).map(|k| (k, (k % 6 != 0).then_some(k / 2)));
                let len = t.apply_sorted_batch(ops, |_| {}).unwrap();
                t.pool().flush().unwrap();
                let d = device.stats().snapshot().since(&before);
                let case = format!("{frames} frames, {gets} gets at {warm_limit}");
                assert_eq!(d.writes(), packed_shape(len, lc, ic).0, "{case}");
                let excess = (resident + 2).saturating_sub(frames as u64);
                let reread = d.reads() + resident - old_nodes;
                assert!(
                    reread <= excess,
                    "{case}: {reread} re-read, {resident} resident"
                );
                if excess == 0 {
                    exact += 1;
                } else {
                    tight += 1;
                }
                t.check_invariants().unwrap();
                assert_eq!(t.len(), 2 * n - n.div_ceil(3));
            }
        }
        assert!(exact >= 4 && tight >= 4, "{exact} exact, {tight} tight");
    }

    /// A warm rebuild killed after every transfer it makes: each run ends
    /// in success, or in an error that leaves the old tree, reattached over
    /// the surviving medium, equal to the model and valid.
    #[test]
    fn a_warm_rebuild_killed_at_any_transfer_leaves_the_old_tree() {
        use pdm::{BlockDevice, CrashSwitch, FaultDisk, FaultPlan, RamDisk, SharedDevice};
        let n = 300u64;
        let model: Vec<(u64, u64)> = (0..n).map(|k| (2 * k, k)).collect();
        // Builds and warms the tree on a device that dies after `kill`
        // transfers, then rebuilds; returns the medium, the tree, the
        // rebuild's result and the transfers before and after it.
        let run = |kill: u64| {
            let ram = RamDisk::new(128);
            let faulty = FaultDisk::wrap(
                Arc::clone(&ram) as SharedDevice,
                FaultPlan::new(0).with_crash(CrashSwitch::after(kill)),
            );
            let p = BufferPool::new(faulty, 8, EvictionPolicy::Lru);
            let mut t = BTree::bulk_load(p, model.iter().copied()).unwrap();
            t.pool().flush().unwrap();
            for k in (0..n).step_by(37) {
                t.get(&(2 * k)).unwrap();
            }
            let before = ram.stats().snapshot().total();
            let ops = (0..2 * n).map(|k| (k, (k % 6 != 0).then_some(k / 2)));
            let rebuilt = t.apply_sorted_batch(ops, |_| {});
            let after = ram.stats().snapshot().total();
            (ram, t, rebuilt, before, after)
        };
        let (_, t, rebuilt, before, after) = run(u64::MAX);
        assert_eq!(rebuilt.unwrap(), t.len());
        let (mut ok, mut failed) = (0, 0);
        for kill in before..=after {
            let (ram, t, rebuilt, ..) = run(kill);
            match rebuilt {
                Ok(len) => {
                    assert_eq!(len, 2 * n - n.div_ceil(3), "kill {kill}");
                    ok += 1;
                }
                Err(e) => {
                    assert!(matches!(e, PdmError::Io(_)), "kill {kill}: {e:?}");
                    let cold = BufferPool::new(ram as SharedDevice, 8, EvictionPolicy::Lru);
                    let old: BTree<u64, u64> = BTree::reattach(cold, t.root(), t.height(), t.len());
                    assert_eq!(old.range(&0, &u64::MAX).unwrap(), model, "kill {kill}");
                    old.check_invariants().unwrap();
                    failed += 1;
                }
            }
        }
        assert!(ok > 0 && failed > 0, "{ok} ok, {failed} failed");
    }

    #[test]
    fn a_node_with_a_count_past_its_block_is_corrupt_not_a_panic() {
        let t = four_levels();
        t.pool().flush().unwrap();
        let device = t.pool().device().clone();
        let (root, height, len) = (t.root(), t.height(), t.len());
        // A leaf, then the root: each with `count = u16::MAX`, the rest of
        // its bytes as they were.
        let mut leaf = root;
        while let Node::Internal { children, .. } = t.read_node(leaf).unwrap() {
            leaf = children[children.len() / 2];
        }
        for (id, key) in [(leaf, leaf_first_key(&t, leaf)), (root, 0)] {
            let mut buf = vec![0u8; device.block_size()];
            device.read_block(id, &mut buf).unwrap();
            buf[1..3].copy_from_slice(&u16::MAX.to_le_bytes());
            device.write_block(id, &buf).unwrap();
            // Through a cold pool, so the torn block is what is read.
            let cold = BufferPool::new(device.clone(), 16, EvictionPolicy::Lru);
            let mut torn: BTree<u64, u64> = BTree::reattach(cold, root, height, len);
            let is_corrupt = |r: Result<_>| matches!(r, Err(PdmError::Corrupt(m)) if m.contains(&format!("node {id}:")));
            assert!(is_corrupt(torn.get(&key).map(drop)), "block {id}");
            assert!(is_corrupt(
                torn.apply_sorted_batch([(1, Some(1))], |_| {}).map(drop)
            ));
            assert_eq!(torn.len(), len);
            // A tag no node has is corrupt too.
            buf[0] = 7;
            device.write_block(id, &buf).unwrap();
            let cold = BufferPool::new(device.clone(), 16, EvictionPolicy::Lru);
            let torn: BTree<u64, u64> = BTree::reattach(cold, root, height, len);
            assert!(is_corrupt(torn.get(&key).map(drop)), "block {id}");
        }
        drop(t);
    }

    #[test]
    fn bulk_load_writes_each_node_once_and_reads_nothing() {
        for frames in [4, 8] {
            let p = pool(128, frames);
            let device = p.device().clone();
            let before = device.stats().snapshot();
            let t = BTree::bulk_load(p, (0..4000u64).map(|k| (k, k))).unwrap();
            t.pool().flush().unwrap();
            let d = device.stats().snapshot().since(&before);
            assert_eq!(d.reads(), 0, "{frames} frames");
            assert_eq!(d.writes(), t.node_count().unwrap(), "{frames} frames");
            assert_eq!(device.allocated_blocks(), d.writes(), "no block but a node");
            // Caps of 7 pairs and 7 keys: 572 leaves, then 72 + 9 + 2 + 1
            // internal nodes, five levels where 7 · 8⁴ ≥ 4 000 > 7 · 8³.
            let (lc, ic) = (t.leaf_capacity(), t.internal_capacity());
            assert_eq!((lc, ic), (7, 7));
            assert_eq!((d.writes(), t.height()), packed_shape(4000, lc, ic));
            assert_eq!((d.writes(), t.height()), (656, 5));
            assert_eq!(t.height(), min_height(4000, lc, ic));
        }
    }

    #[test]
    fn lookup_io_matches_height() {
        let p = pool(128, 4); // tiny pool: only 4 frames
        let device = p.device().clone();
        let t = BTree::bulk_load(p, (0..50_000u64).map(|k| (k, k))).unwrap();
        let height = t.height();
        // 7 pairs a leaf, 8 children a node: 7 143 leaves under 5 levels.
        assert_eq!(height, 6);
        let mut rng = StdRng::seed_from_u64(44);
        let mut worst = 0;
        for _ in 0..50 {
            let k = rng.gen_range(0..50_000u64);
            let before = device.stats().snapshot();
            assert_eq!(t.get(&k).unwrap(), Some(k));
            let ios = device.stats().snapshot().since(&before).reads();
            worst = worst.max(ios);
        }
        assert!(
            worst <= height as u64,
            "lookup took {worst} I/Os, height {height}"
        );
    }

    #[test]
    fn hot_root_is_cached() {
        let p = pool(128, 16);
        let device = p.device().clone();
        let t = BTree::bulk_load(p, (0..1000u64).map(|k| (k, k))).unwrap();
        // Warm the pool.
        t.get(&500).unwrap();
        let before = device.stats().snapshot();
        t.get(&500).unwrap();
        let d = device.stats().snapshot().since(&before);
        assert_eq!(d.reads(), 0, "repeated lookup should be fully cached");
    }

    #[test]
    fn first_and_last() {
        let mut t: BTree<u64, u64> = BTree::new(pool(128, 16)).unwrap();
        assert_eq!(t.first().unwrap(), None);
        assert_eq!(t.last().unwrap(), None);
        for k in [50u64, 10, 90, 30, 70] {
            t.insert(k, k * 2).unwrap();
        }
        assert_eq!(t.first().unwrap(), Some((10, 20)));
        assert_eq!(t.last().unwrap(), Some((90, 180)));
        // Survives splits.
        for k in 100..1000u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.first().unwrap(), Some((10, 20)));
        assert_eq!(t.last().unwrap(), Some((999, 999)));
    }

    #[test]
    fn string_like_keys_via_fixed_tuples() {
        // Composite keys work as long as they implement Record + Ord.
        let mut t: BTree<(u32, u32), u64> = BTree::new(pool(128, 8)).unwrap();
        t.insert((1, 2), 12).unwrap();
        t.insert((1, 1), 11).unwrap();
        t.insert((0, 9), 9).unwrap();
        assert_eq!(
            t.range(&(0, 0), &(1, 1)).unwrap(),
            vec![((0, 9), 9), ((1, 1), 11)]
        );
    }
}
