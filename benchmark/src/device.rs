//! The devices every workload runs on, and the measured device floor.
//!
//! A timed device is a `pdm::DiskArray` (independent placement) assembled
//! through the public `DiskArray::from_devices` over the benchmark's own
//! member disks: a `pdm::RamDisk` behind a [`ServiceDisk`] that holds its
//! lane for [`SERVICE`] per transfer.
//!
//! Why not `DiskArray::new_file_with_service`, whose disks
//! `thread::sleep(service)`: on the sandbox that sleep overshoots by
//! 110–950 µs and the overshoot drifts within minutes (README, "Why the
//! device is the benchmark's own"), so a 1 ms disk costs 1.1–1.9 ms and no
//! time repeats.  A `ServiceDisk` sleeps too, but takes each overshoot off
//! the lane's next transfers, so a lane's busy time is its transfer count
//! × 1 ms to within one overshoot — and it records what every transfer
//! really took, so the floor is measured in place, never nominal.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use em_core::{ExtVec, ExtVecWriter, MemBudget, Record};

use crate::gen::SplitMix64;
use pdm::{
    BlockDevice, BlockId, DiskArray, IoMode, IoStats, Placement, RamDisk, RetryPolicy, SharedDevice,
};

/// Mean time a member disk is held per transfer.  Each transfer's own
/// service time is drawn uniformly from 0.5–1.5 × this, from a fixed
/// per-lane sequence: a device that takes exactly 1 ms every time makes
/// every queueing latency a whole number of milliseconds, and a percentile
/// of such a staircase jumps a full step when a seed moves it across an
/// edge (`serve_read`'s median read 1.1 or 1.9 ms, never between).
pub const SERVICE: Duration = Duration::from_millis(1);

/// One member disk: serial, [`SERVICE`] per transfer on average.
pub struct ServiceDisk {
    inner: RamDisk,
    lane: Mutex<Lane>,
}

struct Lane {
    /// The lane's fixed sequence of service times.
    service: SplitMix64,
    /// Nanoseconds this lane has been held beyond the sum of its service
    /// times (sleep overshoot not yet taken back); negative if held for less.
    owed_ns: i64,
    /// What each transfer took, in nanoseconds, in order.
    took_ns: Vec<u32>,
}

impl ServiceDisk {
    fn new(block_bytes: usize, stats: Arc<IoStats>, lane: usize) -> Self {
        ServiceDisk {
            inner: RamDisk::with_stats(block_bytes, stats, lane),
            lane: Mutex::new(Lane {
                service: SplitMix64::new(lane as u64),
                owed_ns: 0,
                took_ns: Vec::new(),
            }),
        }
    }

    /// Run one transfer while holding the lane, then keep holding it until
    /// the lane's total busy time is back on the sum of its service times.
    fn serve(&self, transfer: impl FnOnce() -> pdm::Result<()>) -> pdm::Result<()> {
        // A panic elsewhere cannot leave the lane's counters invalid.
        let mut lane = self.lane.lock().unwrap_or_else(|e| e.into_inner());
        let start = Instant::now();
        let result = transfer();
        let service_ns = (SERVICE.as_nanos() as f64 * (0.5 + lane.service.unit())) as i64;
        let target_ns = service_ns - lane.owed_ns;
        let spent_ns = start.elapsed().as_nanos() as i64;
        if target_ns > spent_ns {
            std::thread::sleep(Duration::from_nanos((target_ns - spent_ns) as u64));
        }
        let took_ns = start.elapsed().as_nanos() as i64;
        lane.owed_ns += took_ns - service_ns;
        lane.took_ns.push(took_ns.min(i64::from(u32::MAX)) as u32);
        result
    }
}

impl BlockDevice for ServiceDisk {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn allocated_blocks(&self) -> u64 {
        self.inner.allocated_blocks()
    }

    fn allocate(&self) -> pdm::Result<BlockId> {
        self.inner.allocate()
    }

    fn free(&self, id: BlockId) -> pdm::Result<()> {
        self.inner.free(id)
    }

    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> pdm::Result<()> {
        self.serve(|| self.inner.read_block(id, buf))
    }

    fn write_block(&self, id: BlockId, buf: &[u8]) -> pdm::Result<()> {
        self.serve(|| self.inner.write_block(id, buf))
    }

    fn stats(&self) -> Arc<IoStats> {
        self.inner.stats()
    }

    fn lane_of(&self, id: BlockId) -> Option<usize> {
        self.inner.lane_of(id)
    }
}

/// A timed array and the view of what its lanes really did.
pub struct TimedArray {
    pub array: Arc<DiskArray>,
    lanes: Vec<Arc<ServiceDisk>>,
}

/// `lanes` [`ServiceDisk`]s under independent placement.
pub fn timed_array(lanes: usize, block_bytes: usize, mode: IoMode) -> TimedArray {
    let stats = IoStats::new(lanes, block_bytes);
    let lanes: Vec<Arc<ServiceDisk>> = (0..lanes)
        .map(|lane| Arc::new(ServiceDisk::new(block_bytes, stats.clone(), lane)))
        .collect();
    let members = lanes
        .iter()
        .map(|d| d.clone() as Arc<dyn BlockDevice>)
        .collect();
    TimedArray {
        array: DiskArray::from_devices(members, Placement::Independent, mode, RetryPolicy::none()),
        lanes,
    }
}

/// A one-disk RAM array: no service time, synchronous.
pub fn ram_array(block_bytes: usize) -> Arc<DiskArray> {
    DiskArray::new_ram(1, block_bytes, Placement::Independent)
}

/// Blocks the benchmark's own loads and oracle reads keep in flight, so
/// that on an overlapped array they cost the lanes' time in parallel.
const OWN_IO_DEPTH: usize = 4;

/// Write `rows` to a new array on `device` (set-up, never timed).
pub fn load<R: Record>(device: &SharedDevice, rows: &[R]) -> ExtVec<R> {
    let budget = MemBudget::new(OWN_IO_DEPTH * ExtVec::<R>::per_block_on(device));
    let mut writer = ExtVecWriter::with_write_behind(device.clone(), OWN_IO_DEPTH, &budget);
    for r in rows {
        writer.push(r.clone()).expect("write a loaded record");
    }
    writer.finish().expect("finish loading")
}

/// Read all of `v` back for an oracle (never timed).
pub fn read_back<R: Record>(v: &ExtVec<R>) -> pdm::Result<Vec<R>> {
    let budget = MemBudget::new(OWN_IO_DEPTH * v.per_block());
    let mut reader = v.reader_prefetch(OWN_IO_DEPTH, &budget);
    let mut rows = Vec::with_capacity(v.len() as usize);
    while let Some(r) = reader.try_next()? {
        rows.push(r);
    }
    Ok(rows)
}

/// Where each lane's transfer log stood when a window opened.
pub struct LaneMark(Vec<usize>);

/// What the lanes did over a window.
pub struct DeviceTime {
    /// Busy seconds of the busiest lane: the device floor, measured.
    pub floor_s: f64,
    /// Mean microseconds a transfer held its lane (`pdm.transfer_us`).
    pub transfer_us: f64,
    /// Mean of the last third of the window's transfers over the mean of
    /// its first third (`bench.calibration_drift`).
    pub drift: f64,
}

impl TimedArray {
    pub fn device(&self) -> SharedDevice {
        self.array.clone() as SharedDevice
    }

    pub fn mark(&self) -> LaneMark {
        LaneMark(self.lanes.iter().map(|d| d.log_len()).collect())
    }

    pub fn since(&self, mark: &LaneMark) -> DeviceTime {
        let sum = |took: &[u32]| took.iter().map(|&t| u64::from(t)).sum::<u64>();
        let (mut floor_ns, mut busy_ns, mut served) = (0, 0, 0);
        // Busy time of each lane's first and last third of transfers; the
        // thirds have equal counts, so their ratio is a ratio of means.
        let (mut first_ns, mut last_ns) = (0, 0);
        for (disk, &from) in self.lanes.iter().zip(&mark.0) {
            let lane = disk.lane.lock().unwrap_or_else(|e| e.into_inner());
            let took = &lane.took_ns[from..];
            let third = took.len() / 3;
            floor_ns = floor_ns.max(sum(took));
            busy_ns += sum(took);
            served += took.len();
            first_ns += sum(&took[..third]);
            last_ns += sum(&took[took.len() - third..]);
        }
        DeviceTime {
            floor_s: floor_ns as f64 / 1e9,
            transfer_us: if served == 0 {
                0.0
            } else {
                busy_ns as f64 / served as f64 / 1e3
            },
            drift: if first_ns == 0 {
                1.0
            } else {
                last_ns as f64 / first_ns as f64
            },
        }
    }
}

impl ServiceDisk {
    fn log_len(&self) -> usize {
        self.lane
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .took_ns
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lane_is_held_one_service_time_per_transfer_on_average() {
        let timed = timed_array(1, 64, IoMode::Synchronous);
        let dev = timed.device();
        let id = dev.allocate().unwrap();
        let mark = timed.mark();
        let start = Instant::now();
        let n = 60;
        for i in 0..n {
            dev.write_block(id, &[i as u8; 64]).unwrap();
        }
        let wall = start.elapsed().as_secs_f64();
        let t = timed.since(&mark);
        let nominal = n as f64 * SERVICE.as_secs_f64();
        // 60 service times of 0.5–1.5 ms sum to 60 ± 5 ms at the very
        // outside; compensation adds at most the last transfer's overshoot,
        // which on any machine is far below 20 transfers' worth.
        assert!(
            t.floor_s > nominal * 0.9 && t.floor_s < nominal * 1.1 + 0.02,
            "{}",
            t.floor_s
        );
        assert!(wall >= t.floor_s);
        assert!((t.transfer_us - t.floor_s * 1e6 / n as f64).abs() < 1e-6);
        assert_eq!(dev.stats().snapshot().writes(), n);
    }

    #[test]
    fn lanes_are_timed_apart_and_counts_land_on_their_lane() {
        let timed = timed_array(2, 64, IoMode::Synchronous);
        let dev = timed.device();
        let ids: Vec<_> = (0..2).map(|_| dev.allocate().unwrap()).collect();
        assert_ne!(dev.lane_of(ids[0]), dev.lane_of(ids[1]));
        let mark = timed.mark();
        for _ in 0..6 {
            dev.write_block(ids[0], &[7u8; 64]).unwrap();
        }
        dev.write_block(ids[1], &[8u8; 64]).unwrap();
        let t = timed.since(&mark);
        let snap = dev.stats().snapshot();
        assert_eq!(snap.parallel_time(), 6);
        assert!(t.floor_s >= 6.0 * SERVICE.as_secs_f64() * 0.5);
        assert!(t.floor_s < 6.0 * SERVICE.as_secs_f64() * 1.5 + 0.02);
        let mut buf = [0u8; 64];
        dev.read_block(ids[1], &mut buf).unwrap();
        assert_eq!(buf, [8u8; 64]);
        // An empty window has no floor and no drift.
        let empty = timed.since(&timed.mark());
        assert_eq!(
            (empty.floor_s, empty.transfer_us, empty.drift),
            (0.0, 0.0, 1.0)
        );
    }
}
