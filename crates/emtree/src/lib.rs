//! # `emtree` — external data structures: B-trees, buffer trees, priority
//! queues, stacks and queues
//!
//! The survey's online and batched dictionary structures:
//!
//! * [`BTree`] — an external B+-tree over a bounded [`pdm::BufferPool`];
//!   lookups, inserts and deletes touch `Θ(log_B N)` blocks, matching the `Search(N)` bound
//!   (experiment T2).  Supports bulk loading from sorted input and range
//!   scans along the leaf chain.
//! * [`BufferTree`] — Arge's batched dictionary: every internal node carries
//!   an event buffer; inserts and deletes cost `O((1/B)·log_{M/B}(N/B))`
//!   amortized I/Os instead of the B-tree's `Ω(1)` (experiment F6).
//! * [`ExtPriorityQueue`] — a merge-based external priority queue (insertion
//!   buffer + sorted runs, STXXL-style): push and pop cost `Sort(N)/N`
//!   amortized I/Os (experiment F7).  It powers time-forward processing in
//!   `emgraph`.
//! * [`ExtStack`] / [`ExtQueue`] — the warm-up structures: `O(1/B)` amortized
//!   I/Os per operation with a two-block memory footprint (experiment F8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btree;
mod buffer_tree;
mod epq;
mod queue;
mod stack;

pub use btree::BTree;
pub use buffer_tree::BufferTree;
pub use epq::ExtPriorityQueue;
pub use queue::ExtQueue;
pub use stack::ExtStack;
