//! # `emgeom` — batched computational geometry via distribution sweeping
//!
//! The survey's flagship technique for batched geometric problems:
//! *distribution sweeping* marries distribution sort (partition the x-axis
//! into `Θ(M/B)` vertical slabs, recurse) with plane sweeping (process
//! events in y-order, keeping per-slab active lists).  Every object is
//! touched `O(1/B · log_{M/B}(N/B))` times plus once per reported answer:
//!
//! ```text
//! I/Os = O(Sort(N) + Z/B)          (Z = answers reported)
//! ```
//!
//! One driver owns the technique — event sort, in-memory base case, pivot
//! sampling, slabs, recursion — and three instances plug their events into
//! it (experiment F12):
//!
//! * [`segment_intersections`] — all intersections between axis-parallel
//!   (horizontal × vertical) line segments, the survey's canonical example.
//! * [`batched_range_reporting`] — all (rectangle, point) containment pairs
//!   for a batch of query rectangles over a point set.
//! * [`dominance_count`] — batched 2-D dominance *counting* (pure
//!   `O(Sort(N+Q))`: counting is output-insensitive).
//!
//! Each ships a quadratic-scan baseline (`*_naive`) used by the tests and
//! the experiment harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod dominance;
mod range_report;
mod segments;
mod sweep;

pub use dominance::{dominance_count, dominance_count_naive};
pub use range_report::{batched_range_reporting, batched_range_reporting_naive, Point, Rect};
pub use segments::{segment_intersections, segment_intersections_naive, HSeg, VSeg};
