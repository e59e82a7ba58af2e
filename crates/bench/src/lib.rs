//! # `bench` — the experiment harness
//!
//! Regenerates every table and figure of the survey's exposition as measured
//! numbers from the instrumented simulator.  I/O counts are deterministic,
//! so these are exact tables rather than noisy timings; wall-clock
//! measurements are `embench`'s (the `benchmark/` workspace).
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p bench --bin experiments -- all
//! ```
//!
//! or a single experiment by id (`t1`, `f1` … `f16`, `t2`).  The ids map to
//! the per-experiment index in DESIGN.md.

#![forbid(unsafe_code)]

pub mod experiments;

use pdm::{IoSnapshot, SharedDevice};

/// Measure the I/O delta of `f` on `device`.
pub fn measure<T>(device: &SharedDevice, f: impl FnOnce() -> T) -> (T, IoSnapshot) {
    let before = device.stats().snapshot();
    let out = f();
    let after = device.stats().snapshot();
    (out, after.since(&before))
}

/// Print a markdown table.
pub fn table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Format a float with sensible precision for table cells.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}
