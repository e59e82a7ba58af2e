//! # `emsort` — external sorting, permuting, and matrix transposition
//!
//! The algorithms behind the survey's central result, the sorting bound
//!
//! ```text
//! Sort(N) = Θ((N/B) · log_{M/B}(N/B))
//! ```
//!
//! and its relatives:
//!
//! * [`merge_sort`] / [`merge_sort_by`] — run formation followed by
//!   `Θ(M/B)`-way merging, each run read ahead on its own; run formation is either
//!   *load–sort–store* (runs of exactly `M` records) or *replacement
//!   selection* (runs averaging `2M` on random input) — an ablation the
//!   experiments measure, and the one engine choice that is kept because it
//!   changes run counts and transfers.  [`merge_sort_streaming`] and
//!   [`SortingWriter`] are the same engine with the final merge handed to
//!   the consumer, or the runs formed straight from a producer.
//! * [`distribution_sort`] / [`distribution_sort_by`] — the dual approach:
//!   sample pivots, partition into `Θ(M/B)` buckets, recurse.
//! * [`permute_naive`] / [`permute_by_sort`] — both sides of the permutation
//!   bound `Permute(N) = Θ(min(N, Sort(N)))`.
//! * [`bmmc_permute`] — the survey's structured-permutation class (bit
//!   reversal, perfect shuffles, …) with on-the-fly target computation.
//! * [`transpose_naive`] / [`transpose_blocked`] — matrix transposition; the
//!   blocked algorithm achieves `O(N/B)` I/Os whenever `M ≥ 4B²` (the
//!   "tall-memory" regime) and falls back to sort-based transposition
//!   (`O(Sort(N))`) below it.
//!
//!   Everything sort-based in these three bullets ([`invert_permutation`]
//!   too) is one scan feeding one private tag → sort → strip in `permute`:
//!   `(destination, record)` pairs go straight into a [`SortingWriter`] and
//!   the tags come off its final merge as the output is written.
//!
//! Every entry point takes a [`SortConfig`] carrying the memory budget `M`
//! (in records); buffers are charged against an [`em_core::MemBudget`] so
//! exceeding the declared memory is a panic, not a silent cheat.
//!
//! Multi-disk behaviour needs no extra code: running any of these on a
//! striped [`pdm::DiskArray`] models disk striping
//! (block size `D·B`, fan-in `M/(DB)`), while running them on an independent
//! array spreads each run's blocks round-robin so the parallel I/O time
//! approaches `total/D` — the comparison of experiment F5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bmmc;
mod distribution;
mod heap;
mod merge;
mod permute;
mod runs;
mod select;
mod transpose;

pub use bmmc::{bit_reversal, bmmc_permute, perfect_shuffle, BmmcMatrix};
pub use distribution::{distribution_sort, distribution_sort_by};
pub use merge::{
    merge_runs_streaming, merge_runs_with, merge_sort, merge_sort_by, merge_sort_streaming,
    SortedStream, SortingWriter,
};
pub use permute::{invert_permutation, permute_by_sort, permute_naive};
pub use runs::{form_runs, RunFormation};
pub use select::{median, select, select_by};
pub use transpose::{transpose_blocked, transpose_naive};

/// Read-ahead / write-behind depths for the sort's streaming I/O.
///
/// With nonzero depths, run formation and merging keep that many extra
/// blocks in flight per stream (issued via asynchronous device tickets), so
/// on an overlapped [`pdm::DiskArray`] the disks
/// work while the CPU merges.  The overlap buffers are charged against the
/// sort's [`em_core::MemBudget`] *in addition to* the `M` records of
/// [`SortConfig::mem_records`] — they are pipeline slack, not working
/// memory — and degrade to zero if even that slack is unavailable.  Overlap
/// never changes which block transfers happen, so I/O counts are identical
/// with it on or off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverlapConfig {
    /// Blocks of read-ahead per input stream (0 = demand reads).
    pub read_ahead: usize,
    /// Blocks of write-behind per output stream (0 = synchronous flush).
    pub write_behind: usize,
}

impl OverlapConfig {
    /// No overlap: every transfer is synchronous (the default).
    pub fn off() -> Self {
        OverlapConfig::default()
    }

    /// The same depth for read-ahead and write-behind.
    pub fn symmetric(depth: usize) -> Self {
        OverlapConfig {
            read_ahead: depth,
            write_behind: depth,
        }
    }

    /// Interpret the configured depths as **per-disk** and return the
    /// per-array depths for a device whose sequential block stream spreads
    /// over `lanes` independent disks
    /// ([`BlockDevice::stream_lanes`](pdm::BlockDevice::stream_lanes)).
    ///
    /// A sequential stream on an independent-placement array lands
    /// consecutive blocks on consecutive disks, so keeping `read_ahead`
    /// transfers outstanding *per disk* requires `read_ahead · D` outstanding
    /// per array — otherwise D−depth lanes idle and the striping penalty
    /// reappears as serialization.  On a single disk or a striped array
    /// (`lanes == 1`, every logical transfer occupies all D disks) this is
    /// the identity.  Depth is pure scheduling either way: it never changes
    /// which transfers happen.
    pub fn for_lanes(self, lanes: usize) -> OverlapConfig {
        let l = lanes.max(1);
        OverlapConfig {
            read_ahead: self.read_ahead * l,
            write_behind: self.write_behind * l,
        }
    }
}

/// Parameters of one external sort.
#[derive(Debug, Clone, Copy)]
pub struct SortConfig {
    /// Internal memory budget `M`, in records of the type being sorted.
    pub mem_records: usize,
    /// Merge fan-in / distribution bucket-count override.  `None` uses the
    /// maximum the memory budget allows (`M/B − 1`).
    pub fan_in: Option<usize>,
    /// How initial runs are formed.
    pub run_formation: RunFormation,
    /// Read-ahead / write-behind depths (off unless the caller sets them).
    pub overlap: OverlapConfig,
}

impl SortConfig {
    /// A configuration with the given memory budget, maximum fan-in,
    /// load–sort–store run formation, and no overlap.
    pub fn new(mem_records: usize) -> Self {
        SortConfig {
            mem_records,
            fan_in: None,
            run_formation: RunFormation::LoadSort,
            overlap: OverlapConfig::off(),
        }
    }

    /// Builder: override the merge fan-in.
    pub fn with_fan_in(mut self, fan_in: usize) -> Self {
        self.fan_in = Some(fan_in);
        self
    }

    /// Builder: select the run-formation strategy.
    pub fn with_run_formation(mut self, rf: RunFormation) -> Self {
        self.run_formation = rf;
        self
    }

    /// Builder: set the read-ahead / write-behind depths.
    pub fn with_overlap(mut self, overlap: OverlapConfig) -> Self {
        self.overlap = overlap;
        self
    }

    /// The fan-in actually used for a record type with `per_block` records
    /// per block: the override if given, else `M/B − 1` (one block per input
    /// run plus one output block), clamped to at least 2.
    pub fn effective_fan_in(&self, per_block: usize) -> usize {
        let max = (self.mem_records / per_block).saturating_sub(1).max(2);
        match self.fan_in {
            Some(k) => k.clamp(2, max),
            None => max,
        }
    }
}
