//! # `pdm` — an instrumented Parallel Disk Model substrate
//!
//! This crate implements the machine model that the external-memory
//! (I/O-model) literature analyses algorithms in: a computer with a small,
//! fast internal memory of capacity `M` records and one or more disks from
//! which data is transferred in blocks of `B` records.  The survey this
//! repository reproduces ("External Memory Algorithms", PODS 1998) states all
//! of its results as counts of such block transfers, so the substrate's job
//! is to make those counts *observable and exact*:
//!
//! * [`BlockDevice`] — the disk abstraction: fixed-size blocks addressed by
//!   [`BlockId`], with allocate/free/read/write.  Two implementations are
//!   provided: [`RamDisk`] (deterministic, used by tests and the experiment
//!   harness) and [`FileDisk`] (one backing file, as the `log_analytics`
//!   example keeps its data).
//! * [`IoStats`] — per-disk read/write counters shared by every device; the
//!   experiment harness reads these to regenerate the survey's tables.
//! * [`DiskArray`] — `D` devices exposed either *striped* (the classic
//!   disk-striping trick: one logical device with block size `D·B`) or
//!   *independent* (each logical block lives on one disk), so the survey's
//!   striping-versus-independent-disks comparison can be measured.
//! * [`BufferPool`] — a frame cache of at most `m = M/B` blocks with
//!   pluggable eviction ([`EvictionPolicy`]); online structures (B-trees,
//!   hash directories) run on top of it, and it *enforces* the memory budget
//!   instead of trusting the algorithm.
//! * [`FaultDisk`] / [`FaultPlan`] — deterministic fault injection: any
//!   device can be wrapped to fail transiently or permanently, tear writes,
//!   or spike latency on a seed-driven schedule, and a [`RetryPolicy`]
//!   (default off) recovers the transient cases with exact accounting in
//!   [`IoStats`] (`retries`, `faults_injected`, `dropped_write_errors`).
//! * [`Journal`] — crash recovery for any device: between checkpoints only
//!   blocks allocated since the last one may be written, one header write
//!   commits an epoch, and [`Journal::recover`] rewinds to the last commit.
//!
//! The crate is deliberately free of any algorithmic content; everything
//! above it (sorting, trees, graphs, geometry, hashing) lives in the other
//! workspace crates.
//!
//! ## Simulated vs. real parallelism
//!
//! Two different kinds of numbers come out of this substrate, and they must
//! not be conflated:
//!
//! * **Model counts** are exact block-transfer tallies kept by [`IoStats`].
//!   [`IoSnapshot::parallel_time`] is the PDM cost measure `max_d
//!   (transfers_d)` — it *assumes* the `D` disks work concurrently, and is
//!   identical whether transfers actually overlapped or not.  Every table the
//!   experiment harness regenerates from the survey is stated in these.
//! * **Wall-clock measurements** (`embench`) reflect what really
//!   happened on the hardware.  In the default [`IoMode::Synchronous`] mode
//!   every transfer runs inline on the calling thread, so a striped array's
//!   "parallel" transfer is, in real time, `D` sequential copies.  In
//!   [`IoMode::Overlapped`] mode an `IoScheduler` runs one worker thread
//!   per member disk: striped transfers really fan out across all `D` disks,
//!   and asynchronous [`BlockDevice::submit_read`] /
//!   [`BlockDevice::submit_write`] tickets let streaming layers keep several
//!   transfers in flight per disk (read-ahead / write-behind) while the CPU
//!   computes.
//!
//! Switching modes never changes the model counts — the overlapped path
//! issues exactly the transfers the synchronous path would — so
//! `parallel_time` stays a prediction and the wall clock tells you how close
//! the hardware got to it.  The achieved overlap is observable through
//! [`IoSnapshot::queue_depth_hwm`], [`IoSnapshot::prefetched`],
//! [`IoSnapshot::prefetch_hits`] and [`IoSnapshot::prefetch_wasted`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod device;
mod error;
mod fault;
mod file_disk;
pub mod hash;
mod lane;
mod pool;
mod ram_disk;
mod sched;
mod stats;
mod wal;

use std::sync::{Mutex, MutexGuard, PoisonError};

pub use array::{DiskArray, Placement};
pub use device::{BlockDevice, BlockId, SharedDevice};
pub use error::{PdmError, Result};
pub use fault::{CrashSwitch, FaultDisk, FaultPlan};
pub use file_disk::FileDisk;
pub use lane::LaneView;
pub use pool::{BufferPool, EvictionPolicy, FrameGuard, FrameGuardMut, PoolStats};
pub use ram_disk::RamDisk;
pub use sched::{IoMode, IoTicket, RetryPolicy};
pub use stats::{IoSnapshot, IoStats};
pub use wal::{Journal, WalOverhead};

/// Lock `m` even if a thread panicked holding it: that thread reports its
/// own panic, and the next holder sees the data as it was left instead of
/// panicking too.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
