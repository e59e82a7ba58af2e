//! # `em-core` — the I/O-model framework
//!
//! This crate is the survey's "Section 2" in code: the machine parameters of
//! the Parallel Disk Model, the closed-form I/O bounds that every later
//! experiment is checked against, and the typed data plumbing every
//! external-memory algorithm in the workspace shares.
//!
//! The PDM parameters (records, not bytes):
//!
//! ```text
//! N = problem size     M = internal memory capacity    B = records per block
//! D = number of disks  Z = answer size
//! n = N/B              m = M/B                          z = Z/B
//! ```
//!
//! * [`Record`] — fixed-size binary encoding; block layout in an EM library
//!   must be explicit, so records serialize themselves into byte slices.
//! * [`EmConfig`] — (block size, memory blocks) pair; converts between bytes
//!   and records and derives `M`, `B`, `m` for any record type.
//! * [`bounds`] — `Scan`, `Sort`, `Search`, `Permute`, `Transpose` formulas
//!   used by the experiment harness as overlays.
//! * [`ExtVec`] — a typed external array (sequence of device blocks) with
//!   block-granular access; the universal currency between algorithms.
//! * [`ExtVecReader`] / [`ExtVecWriter`] — buffered sequential streams over
//!   external arrays, each holding exactly one block of memory;
//!   [`ExtVecCursor`] is the same reader owning its array (rewindable, for
//!   operator state).
//! * [`MemBudget`] — explicit accounting of the `M` records an algorithm is
//!   allowed to hold; sorts charge their buffers against it so the model is
//!   enforced, not assumed.
//!
//! ```
//! use em_core::{EmConfig, ExtVec};
//!
//! // A machine with 4 KiB blocks and 8 blocks of memory.
//! let cfg = EmConfig::new(4096, 8);
//! let device = cfg.ram_disk();
//!
//! // An external array; every access is counted by the device.
//! let v = ExtVec::from_slice(device.clone(), &(0u64..10_000).collect::<Vec<_>>())?;
//! let before = device.stats().snapshot();
//! let sum: u64 = v.reader().sum();
//! let ios = device.stats().snapshot().since(&before).reads();
//! assert_eq!(sum, 10_000 * 9_999 / 2);
//! assert_eq!(ios, v.num_blocks() as u64); // exactly one read per block
//! # Ok::<(), pdm::PdmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod append_buffer;
pub mod bounds;
mod budget;
mod config;
mod ext_vec;
mod record;
mod stream;

pub use append_buffer::AppendBuffer;
pub use budget::{BudgetGuard, MemBudget};
pub use config::EmConfig;
pub use ext_vec::ExtVec;
pub use record::{key_hash, route_hash, PassThrough, Record};
pub use stream::{BlockReader, ExtVecCursor, ExtVecReader, ExtVecWriter};

// Re-export the substrate so dependents need only one import path.
pub use pdm;
/// The workspace's one hash family (FNV-1a, splitmix, seeded bucket
/// hashing) — canonical home is `pdm::hash`, surfaced here so algorithm
/// crates and benches need only `em_core`.
pub use pdm::hash;
