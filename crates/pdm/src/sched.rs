//! The overlapped I/O scheduler: one worker thread per member disk.
//!
//! The Parallel Disk Model *prices* an algorithm by `max_d(transfers_d)` —
//! the assumption being that the `D` disks really do work concurrently and
//! that the CPU keeps computing while transfers are in flight.  The rest of
//! the substrate counts transfers exactly but executes them synchronously on
//! the caller's thread; this module makes the parallelism real:
//!
//! * `IoScheduler` owns one worker thread per member disk ("lane"), fed by
//!   an unbounded MPSC channel.  Jobs on one lane execute strictly in FIFO
//!   order, which is what makes read-after-write to the same block safe when
//!   higher layers submit writes they do not immediately wait for.
//! * [`IoTicket`] is the completion handle: `submit_read`/`submit_write`
//!   return immediately and the ticket's [`wait`](IoTicket::wait) blocks
//!   until the transfer has finished, yielding the buffer back to the caller.
//! * A ticket can also hold a transfer already run on the caller's thread
//!   ([`IoTicket::ready`]); that is how a synchronous array and devices
//!   without a scheduler answer the same submit, so a synchronous transfer
//!   is a submitted ticket waited on at once.
//!
//! I/O **counts** are recorded by the member devices exactly as in the
//! synchronous path, so block-transfer totals are byte-for-byte identical in
//! both modes; the scheduler additionally records per-lane queue depth into
//! [`IoStats`] so experiments can report how much overlap they achieved.
//!
//! The scheduler is policy-free: lanes execute whatever order callers submit.
//! Higher layers choose that order — e.g. each run of an `emsort` merge
//! submits its own read-ahead in block order — which reaches this module as
//! nothing more than a FIFO sequence per lane, so the count invariants above
//! hold for any submission policy.

use std::sync::mpsc::{channel, Receiver, SendError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::device::{BlockDevice, BlockId};
use crate::error::{PdmError, Result};
use crate::stats::IoStats;

/// Bounded, immediate retry for transient device errors.
///
/// The default policy ([`none`](Self::none)) performs no retries, so every
/// model-count invariant of the substrate is untouched unless a caller
/// explicitly opts in.  When enabled, only errors for which
/// [`PdmError::is_transient`] holds are retried; contract violations
/// (`InvalidBlock`, `SizeMismatch`, …) fail immediately.  Each re-attempt is
/// recorded in [`IoStats::retries`](crate::IoStats); if every attempt fails
/// the last error is wrapped in [`PdmError::RetriesExhausted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts allowed, including the first; `1` disables retries.
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// No retries: every device error surfaces on the first attempt.
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1 }
    }

    /// Retry transient errors at once, up to `max_attempts` total attempts.
    pub fn new(max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "at least the first attempt");
        RetryPolicy { max_attempts }
    }

    /// True if this policy can ever re-attempt a transfer.
    pub(crate) fn is_enabled(&self) -> bool {
        self.max_attempts > 1
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// Run one transfer on `device` — a write of `buf` to block `id`, or a
/// read of it into `buf` — under `policy`, retrying transient errors at
/// once.
///
/// This is the one place a member transfer executes: inline on the caller's
/// thread for a synchronous array, on the lane's worker for an overlapped
/// one.  `lane`/`id` also label the [`PdmError::RetriesExhausted`] wrapper
/// produced when an enabled policy runs out of attempts; with retries
/// disabled the original error passes through untouched.  Inlined, so the
/// synchronous path costs what a direct device call does.
#[inline]
pub(crate) fn run_with_retry(
    policy: &RetryPolicy,
    stats: &IoStats,
    device: &dyn BlockDevice,
    lane: usize,
    write: bool,
    id: BlockId,
    buf: &mut [u8],
) -> Result<()> {
    let mut attempt = 1u32;
    loop {
        let res = if write {
            device.write_block(id, buf)
        } else {
            device.read_block(id, buf)
        };
        match res {
            Ok(()) => return Ok(()),
            Err(e) if e.is_transient() && attempt < policy.max_attempts => {
                stats.record_retry();
                attempt += 1;
            }
            Err(e) => {
                return Err(if e.is_transient() && policy.is_enabled() {
                    PdmError::RetriesExhausted {
                        disk: lane,
                        block: id,
                        attempts: attempt,
                        last: Box::new(e),
                    }
                } else {
                    e
                });
            }
        }
    }
}

/// Whether a device executes transfers inline or hands them to per-disk
/// worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoMode {
    /// Every transfer runs synchronously on the calling thread.  This is the
    /// deterministic default used by unit tests and the model-count
    /// experiments.
    #[default]
    Synchronous,
    /// Transfers are executed by one worker thread per member disk; the `D`
    /// lanes of a striped transfer proceed concurrently and submitted jobs
    /// overlap with the caller's computation.
    Overlapped,
}

/// What a finished transfer hands back: the buffer it was given (filled, for
/// a read) and how it ended.
type Done = (Box<[u8]>, Result<()>);

/// One queued lane job: either a transfer (direction, physical block, and
/// the buffer that supplies or receives the data) or a barrier sentinel that
/// simply reports when the lane has drained everything queued before it.
enum Job {
    Transfer {
        write: bool,
        id: BlockId,
        buf: Box<[u8]>,
        reply: Sender<Done>,
    },
    Barrier {
        reply: Sender<()>,
    },
}

fn worker_died() -> PdmError {
    PdmError::Io(std::io::Error::other("I/O worker thread terminated"))
}

enum TicketInner {
    /// Transfer already executed on the caller's thread (or refused before
    /// it was issued).
    Ready(Done),
    /// One in-flight transfer on one lane's worker.
    Pending(Receiver<Done>),
    /// A logical block split into member transfers: `parts[d]` moves the
    /// `d`-th physical block of `buf`, copied in on completion when `gather`
    /// (a read).  An inline striped transfer that failed holds only the
    /// parts up to the failed one.
    Split {
        parts: Vec<IoTicket>,
        buf: Box<[u8]>,
        gather: bool,
    },
}

/// Completion handle for a submitted transfer.
///
/// Dropping a ticket without calling [`wait`](Self::wait) does not cancel the
/// transfer — the worker still executes it (and the device still counts it);
/// only the completion notification is discarded.
pub struct IoTicket {
    inner: TicketInner,
}

impl IoTicket {
    /// Wrap a transfer that has already finished with `result` — how a
    /// device executing inline answers a submit.
    pub fn ready(buf: Box<[u8]>, result: Result<()>) -> Self {
        IoTicket {
            inner: TicketInner::Ready((buf, result)),
        }
    }

    /// Join member tickets into one logical ticket over `buf`: part `d`
    /// moves the `d`-th physical block of it, copied in on completion when
    /// `gather` (a read).
    pub(crate) fn split(parts: Vec<IoTicket>, buf: Box<[u8]>, gather: bool) -> Self {
        IoTicket {
            inner: TicketInner::Split { parts, buf, gather },
        }
    }

    /// True if the transfer has already finished and failed: an inline
    /// member transfer that must stop a striped one.
    pub(crate) fn failed(&self) -> bool {
        matches!(self.inner, TicketInner::Ready((_, Err(_))))
    }

    /// Block until the transfer completes and hand back its buffer — filled
    /// with the block's data for a read, unchanged for a write — together
    /// with how it ended.  The buffer comes back on failure too, so a failed
    /// write can be resubmitted from the same bytes; only a lane whose
    /// worker died keeps it (the buffer handed back is then empty).
    pub fn wait(self) -> (Box<[u8]>, Result<()>) {
        match self.inner {
            TicketInner::Ready(done) => done,
            TicketInner::Pending(rx) => rx
                .recv()
                .unwrap_or_else(|_| (Box::default(), Err(worker_died()))),
            TicketInner::Split {
                parts,
                mut buf,
                gather,
            } => {
                for (d, part) in parts.into_iter().enumerate() {
                    let (bytes, res) = part.wait();
                    if res.is_err() {
                        return (buf, res);
                    }
                    if gather {
                        let chunk = bytes.len();
                        buf[d * chunk..(d + 1) * chunk].copy_from_slice(&bytes);
                    }
                }
                (buf, Ok(()))
            }
        }
    }
}

/// Per-disk I/O worker threads.
///
/// The scheduler is created from the member devices of a
/// [`DiskArray`](crate::DiskArray); lane `d` executes transfers on member
/// disk `d`.  Jobs submitted to one lane complete in submission order.
pub(crate) struct IoScheduler {
    lanes: Vec<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<IoStats>,
    /// First error of a write whose ticket was already dropped — a failed
    /// write-behind flush nobody was waiting on.  Surfaced by
    /// [`take_dropped_error`](Self::take_dropped_error) or logged at drop.
    dropped_error: Arc<Mutex<Option<PdmError>>>,
}

impl IoScheduler {
    /// Spawn one worker thread per device in `devices`; lane indices follow
    /// the slice order.  Queue-depth changes are recorded into `stats`.
    /// Each worker runs its transfers under `retry`: transient device errors
    /// are re-attempted in-lane (FIFO order is preserved — the job simply
    /// executes again before the next one).
    pub(crate) fn with_retry(
        devices: &[Arc<dyn BlockDevice>],
        stats: Arc<IoStats>,
        retry: RetryPolicy,
    ) -> Self {
        let dropped_error: Arc<Mutex<Option<PdmError>>> = Arc::new(Mutex::new(None));
        let mut lanes = Vec::with_capacity(devices.len());
        let mut workers = Vec::with_capacity(devices.len());
        for (lane, device) in devices.iter().enumerate() {
            let (tx, rx) = channel::<Job>();
            let device = Arc::clone(device);
            let lane_stats = Arc::clone(&stats);
            let dropped = Arc::clone(&dropped_error);
            let handle = std::thread::Builder::new()
                .name(format!("pdm-io-{lane}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        let (write, id, mut buf, reply) = match job {
                            Job::Barrier { reply } => {
                                // FIFO lanes: everything queued before this
                                // sentinel has already executed.
                                let _ = reply.send(());
                                continue;
                            }
                            Job::Transfer {
                                write,
                                id,
                                buf,
                                reply,
                            } => (write, id, buf, reply),
                        };
                        let res = run_with_retry(
                            &retry,
                            &lane_stats,
                            &*device,
                            lane,
                            write,
                            id,
                            &mut buf,
                        );
                        lane_stats.record_complete(lane);
                        if let Err(SendError((_, Err(e)))) = reply.send((buf, res)) {
                            // The submitter dropped its ticket.  For a
                            // successful transfer that is fine (it still
                            // happened); a *failed* write would vanish
                            // silently, so record it and keep the first such
                            // error for shutdown reporting.
                            if write {
                                lane_stats.record_dropped_write_error();
                                let mut slot = dropped.lock();
                                if slot.is_none() {
                                    *slot = Some(e);
                                }
                            }
                        }
                    }
                })
                .expect("spawn I/O worker thread");
            lanes.push(tx);
            workers.push(handle);
        }
        IoScheduler {
            lanes,
            workers,
            stats,
            dropped_error,
        }
    }

    /// Take the first error (if any) of a write whose completion ticket had
    /// already been dropped; [`barrier`](Self::barrier) returns it.
    /// Anything left at drop time is logged to stderr.
    pub(crate) fn take_dropped_error(&self) -> Option<PdmError> {
        self.dropped_error.lock().take()
    }

    /// Drain every lane, then surface the first dropped-ticket write error
    /// (if any) as `Err` — the durability point behind
    /// [`BlockDevice::barrier`].
    ///
    /// Sends a sentinel down each lane and waits for all of them, so every
    /// transfer submitted before the call has executed by the time this
    /// returns; a failed write-behind whose ticket was dropped then fails
    /// the barrier instead of surviving only as an advisory counter.
    pub fn barrier(&self) -> Result<()> {
        let mut replies = Vec::with_capacity(self.lanes.len());
        for lane in &self.lanes {
            let (reply, rx) = channel();
            if lane.send(Job::Barrier { reply }).is_ok() {
                replies.push(rx);
            }
        }
        for rx in replies {
            rx.recv().map_err(|_| worker_died())?;
        }
        match self.take_dropped_error() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Queue a transfer of physical block `id` on `lane` — a write of `buf`,
    /// or a read into it; the buffer comes back through the ticket.
    pub(crate) fn submit(&self, lane: usize, write: bool, id: BlockId, buf: Box<[u8]>) -> IoTicket {
        self.stats.record_submit(lane);
        let (reply, rx) = channel();
        let sent = self.lanes[lane].send(Job::Transfer {
            write,
            id,
            buf,
            reply,
        });
        if sent.is_err() {
            // The worker is gone (it panicked or was torn down).  Dropping
            // the job closed its reply channel, so the caller's `wait` gets
            // a worker-died error instead of this thread panicking; undo the
            // submit so the lane's queue depth stays balanced.
            self.stats.record_complete(lane);
        }
        IoTicket {
            inner: TicketInner::Pending(rx),
        }
    }
}

impl Drop for IoScheduler {
    fn drop(&mut self) {
        // Closing the channels makes each worker's `recv` fail after it has
        // drained every queued job, so no submitted transfer is ever lost.
        self.lanes.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // A failed write-behind flush whose ticket was dropped must not
        // vanish: it is in `IoStats::dropped_write_errors`, and the first
        // one is reported here for anyone not watching the counter.
        if let Some(e) = self.dropped_error.lock().take() {
            eprintln!("pdm: IoScheduler dropped at least one failed write whose ticket was never awaited: {e}");
        }
    }
}

#[cfg(test)]
impl IoScheduler {
    /// A scheduler whose transfers are not retried.
    fn new(devices: &[Arc<dyn BlockDevice>], stats: Arc<IoStats>) -> Self {
        Self::with_retry(devices, stats, RetryPolicy::none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ram_disk::RamDisk;

    fn lanes(d: usize, block: usize) -> (Vec<Arc<dyn BlockDevice>>, Arc<IoStats>) {
        let stats = IoStats::new(d, block);
        let devices = (0..d)
            .map(|lane| {
                Arc::new(RamDisk::with_stats(block, Arc::clone(&stats), lane))
                    as Arc<dyn BlockDevice>
            })
            .collect();
        (devices, stats)
    }

    #[test]
    fn ready_ticket_round_trips() {
        let t = IoTicket::ready(vec![7u8; 4].into_boxed_slice(), Ok(()));
        let (buf, res) = t.wait();
        res.unwrap();
        assert_eq!(&*buf, &[7u8; 4]);
    }

    #[test]
    fn async_write_then_read_same_lane_is_ordered() {
        let (devices, stats) = lanes(2, 16);
        let sched = IoScheduler::new(&devices, Arc::clone(&stats));
        let id = devices[1].allocate().unwrap();
        // Never wait on the write; the read is queued behind it on the same
        // lane and must observe its data.
        let _w = sched.submit(1, true, id, vec![0xCD; 16].into_boxed_slice());
        let (out, res) = sched
            .submit(1, false, id, vec![0u8; 16].into_boxed_slice())
            .wait();
        res.unwrap();
        assert_eq!(&*out, &[0xCDu8; 16]);
        let snap = stats.snapshot();
        assert_eq!(snap.reads_on(1), 1);
        assert_eq!(snap.writes_on(1), 1);
        assert_eq!(snap.total(), 2, "scheduler adds no extra transfers");
    }

    #[test]
    fn errors_travel_through_tickets() {
        let (devices, stats) = lanes(1, 16);
        let sched = IoScheduler::new(&devices, stats);
        // Block 99 was never allocated.
        let res = sched
            .submit(0, false, 99, vec![0u8; 16].into_boxed_slice())
            .wait()
            .1;
        assert!(matches!(res, Err(PdmError::InvalidBlock(99))));
    }

    #[test]
    fn queue_depth_high_water_reflects_outstanding_jobs() {
        // A gated device blocks its worker until released, so submitted jobs
        // provably pile up and the high-water mark is deterministic.
        struct Gated {
            inner: Arc<RamDisk>,
            gate: std::sync::Mutex<Receiver<()>>,
        }
        impl BlockDevice for Gated {
            fn block_size(&self) -> usize {
                self.inner.block_size()
            }
            fn allocated_blocks(&self) -> u64 {
                self.inner.allocated_blocks()
            }
            fn allocate(&self) -> Result<BlockId> {
                self.inner.allocate()
            }
            fn free(&self, id: BlockId) -> Result<()> {
                self.inner.free(id)
            }
            fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<()> {
                self.gate.lock().unwrap().recv().expect("gate open");
                self.inner.read_block(id, buf)
            }
            fn write_block(&self, id: BlockId, buf: &[u8]) -> Result<()> {
                self.inner.write_block(id, buf)
            }
            fn stats(&self) -> Arc<IoStats> {
                self.inner.stats()
            }
        }

        let stats = IoStats::new(1, 8);
        let ram = Arc::new(RamDisk::with_stats(8, Arc::clone(&stats), 0));
        let id = ram.allocate().unwrap();
        let (open, gate) = channel();
        let gated = vec![Arc::new(Gated {
            inner: ram,
            gate: std::sync::Mutex::new(gate),
        }) as Arc<dyn BlockDevice>];
        let sched = IoScheduler::new(&gated, Arc::clone(&stats));

        let tickets: Vec<IoTicket> = (0..4)
            .map(|_| sched.submit(0, false, id, vec![0u8; 8].into_boxed_slice()))
            .collect();
        assert_eq!(stats.snapshot().queue_depth_hwm(0), 4);
        for _ in 0..4 {
            open.send(()).unwrap();
        }
        for t in tickets {
            t.wait().1.unwrap();
        }
        assert_eq!(stats.snapshot().reads_on(0), 4);
    }

    #[test]
    fn drop_drains_queued_writes() {
        let (devices, stats) = lanes(1, 8);
        let id = devices[0].allocate().unwrap();
        {
            let sched = IoScheduler::new(&devices, stats);
            let _ = sched.submit(0, true, id, vec![0x5A; 8].into_boxed_slice());
            // Scheduler dropped with the write possibly still queued.
        }
        let mut out = [0u8; 8];
        devices[0].read_block(id, &mut out).unwrap();
        assert_eq!(out, [0x5A; 8]);
    }

    #[test]
    fn retry_policy_cures_transient_faults_in_lane() {
        use crate::fault::{FaultDisk, FaultPlan};
        let stats = IoStats::new(1, 16);
        let ram = Arc::new(RamDisk::with_stats(16, Arc::clone(&stats), 0));
        let id = ram.allocate().unwrap();
        ram.write_block(id, &[0xABu8; 16]).unwrap();
        let faulty = FaultDisk::wrap(ram, FaultPlan::new(11).with_transient(1000, 2));
        let devices = vec![faulty as Arc<dyn BlockDevice>];
        let sched = IoScheduler::with_retry(&devices, Arc::clone(&stats), RetryPolicy::new(3));
        let (out, res) = sched
            .submit(0, false, id, vec![0u8; 16].into_boxed_slice())
            .wait();
        res.unwrap();
        assert_eq!(&*out, &[0xABu8; 16]);
        let snap = stats.snapshot();
        assert_eq!(snap.retries(), 2, "two failed attempts were retried");
        assert_eq!(snap.faults_injected(), 2);
        assert_eq!(snap.reads(), 1, "failed attempts count no transfers");
    }

    #[test]
    fn exhausted_retries_surface_as_wrapped_error() {
        use crate::fault::{FaultDisk, FaultPlan};
        let stats = IoStats::new(1, 16);
        let ram = Arc::new(RamDisk::with_stats(16, Arc::clone(&stats), 0));
        let id = ram.allocate().unwrap();
        let faulty = FaultDisk::wrap(ram, FaultPlan::new(13).with_transient(1000, 10));
        let devices = vec![faulty as Arc<dyn BlockDevice>];
        let sched = IoScheduler::with_retry(&devices, Arc::clone(&stats), RetryPolicy::new(2));
        let res = sched
            .submit(0, false, id, vec![0u8; 16].into_boxed_slice())
            .wait()
            .1;
        match res {
            Err(PdmError::RetriesExhausted {
                disk,
                block,
                attempts,
                last,
            }) => {
                assert_eq!(disk, 0);
                assert_eq!(block, id);
                assert_eq!(attempts, 2);
                assert!(last.is_transient());
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert_eq!(stats.snapshot().retries(), 1);
    }

    #[test]
    fn dropped_failed_write_is_recorded_and_reported() {
        // A device whose writes block on a gate and then fail, so the ticket
        // is provably dropped before the worker completes the job.
        struct FailWrites {
            inner: Arc<RamDisk>,
            gate: std::sync::Mutex<Receiver<()>>,
        }
        impl BlockDevice for FailWrites {
            fn block_size(&self) -> usize {
                self.inner.block_size()
            }
            fn allocated_blocks(&self) -> u64 {
                self.inner.allocated_blocks()
            }
            fn allocate(&self) -> Result<BlockId> {
                self.inner.allocate()
            }
            fn free(&self, id: BlockId) -> Result<()> {
                self.inner.free(id)
            }
            fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<()> {
                self.inner.read_block(id, buf)
            }
            fn write_block(&self, _id: BlockId, _buf: &[u8]) -> Result<()> {
                self.gate.lock().unwrap().recv().expect("gate open");
                Err(PdmError::Io(std::io::Error::other("flush failed")))
            }
            fn stats(&self) -> Arc<IoStats> {
                self.inner.stats()
            }
        }

        let stats = IoStats::new(1, 8);
        let ram = Arc::new(RamDisk::with_stats(8, Arc::clone(&stats), 0));
        let id = ram.allocate().unwrap();
        ram.write_block(id, &[3u8; 8]).unwrap();
        let (open, gate) = channel();
        let devices = vec![Arc::new(FailWrites {
            inner: ram,
            gate: std::sync::Mutex::new(gate),
        }) as Arc<dyn BlockDevice>];
        let sched = IoScheduler::new(&devices, Arc::clone(&stats));

        let ticket = sched.submit(0, true, id, vec![9u8; 8].into_boxed_slice());
        drop(ticket); // nobody will hear about the failure...
        open.send(()).unwrap();
        // A read queued behind the write proves the lane drained it.
        let (out, res) = sched
            .submit(0, false, id, vec![0u8; 8].into_boxed_slice())
            .wait();
        res.unwrap();
        assert_eq!(&*out, &[3u8; 8]);
        assert_eq!(stats.snapshot().dropped_write_errors(), 1);
        let e = sched.take_dropped_error().expect("error was kept");
        assert!(e.to_string().contains("flush failed"));
        assert!(sched.take_dropped_error().is_none(), "taken exactly once");
    }

    #[test]
    fn barrier_surfaces_dropped_write_failure_as_err() {
        // Writes block on a gate and then fail, so the ticket is provably
        // dropped before the worker completes the job.
        struct FailWrites {
            inner: Arc<RamDisk>,
            gate: std::sync::Mutex<Receiver<()>>,
        }
        impl BlockDevice for FailWrites {
            fn block_size(&self) -> usize {
                self.inner.block_size()
            }
            fn allocated_blocks(&self) -> u64 {
                self.inner.allocated_blocks()
            }
            fn allocate(&self) -> Result<BlockId> {
                self.inner.allocate()
            }
            fn free(&self, id: BlockId) -> Result<()> {
                self.inner.free(id)
            }
            fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<()> {
                self.inner.read_block(id, buf)
            }
            fn write_block(&self, _id: BlockId, _buf: &[u8]) -> Result<()> {
                self.gate.lock().unwrap().recv().expect("gate open");
                Err(PdmError::Io(std::io::Error::other("write-behind lost")))
            }
            fn stats(&self) -> Arc<IoStats> {
                self.inner.stats()
            }
        }

        let stats = IoStats::new(1, 8);
        let ram = Arc::new(RamDisk::with_stats(8, Arc::clone(&stats), 0));
        let id = ram.allocate().unwrap();
        let (open, gate) = channel();
        let devices = vec![Arc::new(FailWrites {
            inner: ram,
            gate: std::sync::Mutex::new(gate),
        }) as Arc<dyn BlockDevice>];
        let sched = IoScheduler::new(&devices, Arc::clone(&stats));

        drop(sched.submit(0, true, id, vec![9u8; 8].into_boxed_slice()));
        open.send(()).unwrap();
        let err = sched
            .barrier()
            .expect_err("barrier must not ack a lost write");
        assert!(err.to_string().contains("write-behind lost"), "got: {err}");
        // The error is surfaced exactly once; a clean lane passes.
        sched.barrier().unwrap();
    }

    #[test]
    fn dropped_successful_write_records_nothing() {
        let (devices, stats) = lanes(1, 8);
        let id = devices[0].allocate().unwrap();
        let sched = IoScheduler::new(&devices, Arc::clone(&stats));
        drop(sched.submit(0, true, id, vec![1u8; 8].into_boxed_slice()));
        drop(sched); // drains the lane
        assert_eq!(stats.snapshot().dropped_write_errors(), 0);
    }
}
