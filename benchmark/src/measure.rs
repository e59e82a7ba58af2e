//! Measuring from outside: process CPU time and peak memory from `/proc`,
//! order statistics, and windows over the device counters.

use std::path::PathBuf;
use std::time::Instant;

use pdm::{IoSnapshot, SharedDevice};

use crate::device::{DeviceTime, LaneMark, TimedArray};

/// Kernel clock ticks per second in `/proc/self/stat`: `USER_HZ`, which
/// Linux fixes at 100 for every architecture it exposes to user space.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime` ticks (user-mode CPU) from the text of `/proc/<pid>/stat`.  The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the last `)`.
///
/// `stime` is left out on purpose: on the sandbox the kernel time of these
/// workloads is the cost of sleeping on the simulated device and of waking
/// threads, which swings fourfold with the host's load and says nothing
/// about the libraries.
pub fn parse_stat_utime_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime is field 14.
    after_comm.split_ascii_whitespace().nth(11)?.parse().ok()
}

/// `VmHWM` in KiB from the text of `/proc/<pid>/status`.
pub fn parse_status_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// User-mode CPU seconds (all threads, live and joined) this process has
/// used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_utime_ticks(&stat).expect("parse /proc/self/stat") as f64 / TICKS_PER_SECOND
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_vm_hwm_kib(&status).expect("parse VmHWM") as f64 / 1024.0
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, or `None` below forty samples (where only the median
/// is worth reporting).
pub fn tail_percentile(samples: usize) -> Option<f64> {
    // Per mille, so the "ten beyond" test is exact integer arithmetic.
    [999usize, 990, 950, 900, 750]
        .into_iter()
        .find(|p| samples * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// Process CPU time, wall time, device counters and (on a timed array) what
/// the lanes really did, over one window.
pub struct Window<'a> {
    start: Instant,
    cpu0: f64,
    io0: Option<(SharedDevice, IoSnapshot)>,
    lanes0: Option<(&'a TimedArray, LaneMark)>,
}

pub struct WindowEnd {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Device counter deltas; `None` if the window watched no device.
    pub io: Option<IoSnapshot>,
    /// Measured lane time; `None` unless the window timed an array's lanes.
    pub device: Option<DeviceTime>,
}

impl<'a> Window<'a> {
    pub fn open(device: Option<&SharedDevice>) -> Self {
        Window {
            io0: device.map(|d| (d.clone(), d.stats().snapshot())),
            lanes0: None,
            cpu0: cpu_seconds(),
            start: Instant::now(),
        }
    }

    /// Also time the lanes of `timed`, if the workload runs on a timed array.
    pub fn timing(mut self, timed: Option<&'a TimedArray>) -> Self {
        self.lanes0 = timed.map(|t| (t, t.mark()));
        self
    }

    pub fn close(self) -> WindowEnd {
        let wall_s = self.start.elapsed().as_secs_f64();
        WindowEnd {
            wall_s,
            cpu_s: cpu_seconds() - self.cpu0,
            io: self
                .io0
                .map(|(d, before)| d.stats().snapshot().since(&before)),
            device: self.lanes0.map(|(timed, mark)| timed.since(&mark)),
        }
    }
}

/// What the reference kernel takes on the sandbox's CPU in its usual
/// state; the unit in which `*_cpu` durations are reported.
pub const CPU_REFERENCE_S: f64 = 0.001;

/// The CPU's speed right now, against a fixed piece of the benchmark's own
/// work (generate and sort 64 Ki `u64`s, ≈ 1 ms).
///
/// The sandbox's CPU has speed states some 20 % apart that last from a
/// second to minutes, and every CPU-bound kernel follows them alike: over
/// 45 s a 1 ms sort and a 20 ms sort moved together from 1.02 / 20.6 ms to
/// 0.84 / 16.6 ms and back, their ratio staying within 1.5 %.  Timing the
/// yardstick next to each CPU-bound operation and reporting the operation
/// in yardstick units takes the states out (README, "Reference-CPU
/// seconds").
pub struct CpuYardstick {
    buf: Vec<u64>,
}

impl CpuYardstick {
    pub fn new() -> Self {
        CpuYardstick {
            buf: Vec::with_capacity(1 << 16),
        }
    }

    /// Reference-CPU seconds per measured second, as of now.
    pub fn factor(&mut self) -> f64 {
        let start = Instant::now();
        let mut s = crate::gen::SplitMix64::new(0x5EED);
        self.buf.clear();
        self.buf.extend((0..1 << 16).map(|_| s.next_u64()));
        self.buf.sort_unstable();
        std::hint::black_box(&self.buf);
        CPU_REFERENCE_S / start.elapsed().as_secs_f64()
    }
}

/// Busiest lane's transfers × D / total: 1.0 = perfectly spread, D = all
/// on one lane.
pub fn max_lane_share(io: &IoSnapshot, lanes: usize) -> f64 {
    if io.total() == 0 {
        return 0.0;
    }
    io.parallel_time() as f64 * lanes as f64 / io.total() as f64
}

/// `benchmark/out/`: traces and result files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::{DiskArray, Placement};

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let stat = "4242 (em) bench (x)) S 1 4242 4242 0 -1 4194560 \
                    1234 0 0 0 321 45 0 0 20 0 3 0 100 1000 200";
        assert_eq!(parse_stat_utime_ticks(stat), Some(321));
        assert_eq!(parse_stat_utime_ticks("no parens here"), None);
        assert_eq!(parse_stat_utime_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn stat_parser_reads_this_process() {
        let a = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - a < 0.03 {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
        }
        assert!(cpu_seconds() > a);
    }

    #[test]
    fn vm_hwm_parser() {
        let status = "Name:\tembench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_status_vm_hwm_kib("Name:\tx\n"), None);
        assert!(peak_rss_mib() > 0.5);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(8), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn yardstick_repeats_itself() {
        let mut y = CpuYardstick::new();
        let (a, b) = (y.factor(), y.factor());
        assert!(
            a.is_finite() && a > 0.0 && b.is_finite() && b > 0.0,
            "{a} {b}"
        );
        // Same work twice, moments apart: the same speed within a factor
        // no scheduler hiccup reaches (an unoptimised build is uniformly slow).
        assert!(a / b < 10.0 && b / a < 10.0, "{a} {b}");
    }

    #[test]
    fn lane_share_bounds() {
        let arr = DiskArray::new_ram(2, 64, Placement::Independent);
        let dev = arr.clone() as SharedDevice;
        let ids: Vec<_> = (0..4).map(|_| dev.allocate().unwrap()).collect();
        let before = dev.stats().snapshot();
        for id in &ids {
            dev.write_block(*id, &[0u8; 64]).unwrap();
        }
        let d = dev.stats().snapshot().since(&before);
        assert_eq!(max_lane_share(&d, 2), 1.0);
        assert_eq!(max_lane_share(&before.since(&before), 2), 0.0);
    }
}
