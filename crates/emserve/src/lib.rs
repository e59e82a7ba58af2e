//! # `emserve` — a sharded multi-tenant KV serving layer
//!
//! A B-tree pays `Θ(log_B N)` I/Os per point update; the survey's batched
//! structures pay a fraction of an I/O, but only if a serving layer actually
//! *batches* point operations.  This crate is that layer: it turns the
//! workspace's algorithmic structures into an online system.
//!
//! Three pieces:
//!
//! * [`Shard`] — one partition of the dictionary: an [`emtree::BTree`] per
//!   tenant (authoritative, point-read path through the shard's
//!   [`pdm::BufferPool`]; an entry is the user's record, with no tenant
//!   prefix) paired with an in-memory, key-ordered delta map holding the
//!   latest op per `(tenant, key)` since the last compaction and, on a
//!   [`pdm::Journal`], an append-only log of those ops.  Nothing queries
//!   the log, and it has no blocks of its own: it is a journal manifest
//!   that each flush appends its batch to, so the one header that commits
//!   a batch carries it.  A periodic compaction feeds each tenant's run of
//!   the delta — which, with the batch empty, *is* the log's
//!   latest-op-per-key view — to that tenant's
//!   [`BTree::apply_sorted_batch`](emtree::BTree::apply_sorted_batch), one
//!   streaming rebuild that reads each old node once and writes each new
//!   node once, leaves the trees of tenants the delta does not touch alone,
//!   and resets the log without reading it.  Only crash recovery replays
//!   the log.  Each rebuild also refreshes an in-memory key filter over its
//!   tree, so a get of a key neither the delta nor the tree holds reads no
//!   block except on a false positive.
//! * [`Server`] — the concurrent request batcher: one bounded MPSC ingest
//!   queue and drain thread per shard.  The drain thread is a step function
//!   on a logical clock, fed the queue and the time by a thin driver; it
//!   coalesces puts/deletes into batches flushed on *size or deadline*
//!   (throughput batching never unbounded-delays an ack), serves gets
//!   read-your-writes consistently by consulting the in-flight delta before
//!   the tree, and acks a write only after its batch's flush returned.
//!   Shards are pinned to distinct lanes of an independent-disk array via
//!   [`pdm::LaneView`], so one shard's flush never serializes a neighbour's
//!   reads, and per-shard transfers are attributable per lane by
//!   subtracting [`pdm::IoSnapshot`]s ([`pdm::IoSnapshot::since`]).
//! * The record cache — one per shard, asked after the key filter and
//!   before the tree: a two-segment LRU (a missed record is admitted on
//!   probation, a second reference protects it, eviction takes probation
//!   first — so one-off keys displace each other and not the hot set) whose
//!   records are each charged to a slot of the pool frames the trees gave
//!   up or, on a [`Server`], to a per-tenant [`em_core::MemBudget`] shared
//!   across shards, so no tenant holds more than its grant.  It keeps
//!   nothing about a key that is not resident.
//!
//! Determinism: shard routing is a seeded FNV-1a over the encoded
//! `(tenant, key)` record, every queue drain is FIFO per shard, and all
//! storage sits on the deterministic `pdm` substrate — a fixed request tape
//! produces a fixed final state (asserted by `tests/serve_consistency.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod cache;
mod oplog;
mod server;
mod shard;
mod stats;

pub use server::{CompletionSink, ReqKind, Request, ServeConfig, Server};
pub use shard::{shard_of_key, Shard};
pub use stats::ServeStats;
