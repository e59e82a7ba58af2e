//! Log analytics: the workload that motivates external sorting.
//!
//! A synthetic web-server access log (far bigger than memory) is analysed
//! on a *file-backed* device with three classic passes:
//!
//! 1. external sort by user id (sessionization order),
//! 2. one streaming pass computing per-user request counts and byte totals,
//! 3. top-10 users by traffic via an external priority queue.
//!
//! ```text
//! cargo run --release -p bench --example log_analytics
//! ```

use em_core::hash::Draws;
use em_core::{bounds, ExtVecWriter, Record};
use emsort::{merge_sort_by, SortConfig};
use emtree::ExtPriorityQueue;
use pdm::{FileDisk, SharedDevice};

/// One access-log record.
#[derive(Debug, Clone, Copy)]
struct LogRec {
    ts: u64,
    user: u64,
    bytes: u64,
}

impl Record for LogRec {
    const BYTES: usize = 24;
    fn write_to(&self, buf: &mut [u8]) {
        buf[0..8].copy_from_slice(&self.ts.to_le_bytes());
        buf[8..16].copy_from_slice(&self.user.to_le_bytes());
        buf[16..24].copy_from_slice(&self.bytes.to_le_bytes());
    }
    fn read_from(buf: &[u8]) -> Self {
        LogRec {
            ts: u64::from_le_bytes(buf[0..8].try_into().unwrap()),
            user: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
            bytes: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
        }
    }
}

fn main() {
    let n: u64 = 2_000_000;
    let users: u64 = 50_000;
    let block_bytes = 64 * 1024;
    let mem_blocks = 64; // M ≈ 4 MiB of 48 MiB of data
    let m_records = block_bytes * mem_blocks / LogRec::BYTES;
    let b_records = block_bytes / LogRec::BYTES;

    let path = std::env::temp_dir().join(format!("extmem-logs-{}.bin", std::process::id()));
    let device = FileDisk::create(&path, block_bytes).unwrap() as SharedDevice;
    println!(
        "generating {n} log records (~{} MiB) on {:?} …",
        n * 24 / (1 << 20),
        path
    );

    // Generate in timestamp order with a Zipf-ish user distribution.
    let mut rng = Draws::new(404);
    let mut w: ExtVecWriter<LogRec> = ExtVecWriter::new(device.clone());
    for ts in 0..n {
        // Squaring a uniform skews toward small ids — a crude Zipf.
        let u = rng.unit();
        let user = ((u * u) * users as f64) as u64;
        let bytes = 200 + rng.below(49_800);
        w.push(LogRec { ts, user, bytes }).unwrap();
    }
    let log = w.finish().unwrap();

    // Pass 1: sort by (user, ts).
    let t0 = std::time::Instant::now();
    let before = device.stats().snapshot();
    let by_user = merge_sort_by(&log, &SortConfig::new(m_records), |a, b| {
        (a.user, a.ts) < (b.user, b.ts)
    })
    .unwrap();
    let d = device.stats().snapshot().since(&before);
    println!(
        "sort by user  : {} I/Os in {:.2?}  (Θ Sort(N) = {:.0})",
        d.total(),
        t0.elapsed(),
        bounds::sort(n, m_records, b_records),
    );

    // Pass 2: streaming per-user aggregation.
    let before = device.stats().snapshot();
    let mut aggregates: ExtVecWriter<(u64, u64, u64)> = ExtVecWriter::new(device.clone()); // (user, requests, bytes)
    {
        let mut reader = by_user.reader();
        let mut cur: Option<(u64, u64, u64)> = None;
        while let Some(rec) = reader.try_next().unwrap() {
            match &mut cur {
                Some((user, reqs, total)) if *user == rec.user => {
                    *reqs += 1;
                    *total += rec.bytes;
                }
                _ => {
                    if let Some(done) = cur.take() {
                        aggregates.push(done).unwrap();
                    }
                    cur = Some((rec.user, 1, rec.bytes));
                }
            }
        }
        if let Some(done) = cur {
            aggregates.push(done).unwrap();
        }
    }
    let per_user = aggregates.finish().unwrap();
    let d = device.stats().snapshot().since(&before);
    println!(
        "aggregate     : {} I/Os, {} distinct users (one scan)",
        d.total(),
        per_user.len()
    );

    // Pass 3: top-10 by bytes with an external priority queue (max via
    // negated key).
    let before = device.stats().snapshot();
    let mut pq: ExtPriorityQueue<(u64, u64)> =
        ExtPriorityQueue::new(device.clone(), m_records.min(1 << 16)).unwrap();
    {
        let mut reader = per_user.reader();
        while let Some((user, _reqs, total)) = reader.try_next().unwrap() {
            pq.push((u64::MAX - total, user)).unwrap();
        }
    }
    println!("\ntop 10 users by traffic:");
    for rank in 1..=10 {
        if let Some((neg, user)) = pq.pop().unwrap() {
            println!(
                "  {rank:>2}. user {user:>6} — {} MiB",
                (u64::MAX - neg) / (1 << 20)
            );
        }
    }
    let d = device.stats().snapshot().since(&before);
    println!("top-k pass    : {} I/Os", d.total());

    drop(pq);
    drop(by_user);
    drop(per_user);
    drop(log);
    std::fs::remove_file(&path).ok();
    println!("\ndone; backing file removed.");
}
