//! A block-lifetime trace.  [`Lifetimes`] wraps one member disk of a
//! `DiskArray`, moves no block and changes no count; it records, for every
//! lifetime of every block (allocate → free), how often the block was
//! written and read, and every transfer that touched a block outside a
//! lifetime or read one its lifetime never wrote.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use pdm::{
    BlockDevice, BlockId, DiskArray, IoMode, IoStats, Placement, RamDisk, Result, RetryPolicy,
    SharedDevice,
};

#[derive(Default)]
struct Trace {
    /// `(writes, reads)` of each live block.
    live: HashMap<BlockId, (u64, u64)>,
    /// `(writes, reads)` of each freed lifetime.
    ended: Vec<(u64, u64)>,
    /// Every transfer that read a freed, never-allocated or never-written
    /// block, or wrote a block outside a lifetime.
    bad: Vec<String>,
}

pub struct Lifetimes {
    inner: SharedDevice,
    trace: Mutex<Trace>,
}

/// What the lifetimes saw, over every lifetime ended or still live.
#[derive(Debug, PartialEq, Eq)]
pub struct Ledger {
    pub lifetimes: u64,
    /// Lifetimes written exactly once.
    pub written_once: u64,
    /// Lifetimes read at most once.
    pub read_at_most_once: u64,
    /// Lifetimes read exactly twice.
    pub read_twice: u64,
    pub reads: u64,
    pub writes: u64,
    pub bad: Vec<String>,
}

impl Lifetimes {
    fn trace(&self) -> MutexGuard<'_, Trace> {
        self.trace.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The ledger of every member of an array.
    pub fn ledger(members: &[Arc<Lifetimes>]) -> Ledger {
        let mut all = Vec::new();
        let mut bad = Vec::new();
        for (lane, member) in members.iter().enumerate() {
            let trace = member.trace();
            all.extend(trace.ended.iter().chain(trace.live.values()).copied());
            bad.extend(trace.bad.iter().map(|b| format!("lane {lane}: {b}")));
        }
        Ledger {
            lifetimes: all.len() as u64,
            written_once: all.iter().filter(|l| l.0 == 1).count() as u64,
            read_at_most_once: all.iter().filter(|l| l.1 <= 1).count() as u64,
            read_twice: all.iter().filter(|l| l.1 == 2).count() as u64,
            reads: all.iter().map(|l| l.1).sum(),
            writes: all.iter().map(|l| l.0).sum(),
            bad,
        }
    }
}

/// An independent-placement array of `d` traced RAM disks.
pub fn traced_array(
    d: usize,
    block_size: usize,
    mode: IoMode,
) -> (SharedDevice, Vec<Arc<Lifetimes>>) {
    let stats = IoStats::new(d, block_size);
    let members: Vec<Arc<Lifetimes>> = (0..d)
        .map(|lane| {
            Arc::new(Lifetimes {
                inner: Arc::new(RamDisk::with_stats(block_size, Arc::clone(&stats), lane)),
                trace: Mutex::new(Trace::default()),
            })
        })
        .collect();
    let disks = members
        .iter()
        .map(|m| Arc::clone(m) as SharedDevice)
        .collect();
    let array = DiskArray::from_devices(disks, Placement::Independent, mode, RetryPolicy::none());
    (array as SharedDevice, members)
}

impl BlockDevice for Lifetimes {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn allocated_blocks(&self) -> u64 {
        self.inner.allocated_blocks()
    }

    fn allocate(&self) -> Result<BlockId> {
        let id = self.inner.allocate()?;
        let mut trace = self.trace();
        if trace.live.insert(id, (0, 0)).is_some() {
            trace.bad.push(format!("block {id} allocated while live"));
        }
        Ok(id)
    }

    fn free(&self, id: BlockId) -> Result<()> {
        let mut trace = self.trace();
        match trace.live.remove(&id) {
            Some(lifetime) => trace.ended.push(lifetime),
            None => trace.bad.push(format!("block {id} freed while not live")),
        }
        drop(trace);
        self.inner.free(id)
    }

    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<()> {
        let mut trace = self.trace();
        let seen = match trace.live.get_mut(&id) {
            Some((0, _)) => Some(format!("block {id} read before its lifetime wrote it")),
            Some((_, reads)) => {
                *reads += 1;
                None
            }
            None => Some(format!("block {id} read while not live")),
        };
        trace.bad.extend(seen);
        drop(trace);
        self.inner.read_block(id, buf)
    }

    fn write_block(&self, id: BlockId, buf: &[u8]) -> Result<()> {
        let mut trace = self.trace();
        match trace.live.get_mut(&id) {
            Some((writes, _)) => *writes += 1,
            None => trace.bad.push(format!("block {id} written while not live")),
        }
        drop(trace);
        self.inner.write_block(id, buf)
    }

    fn stats(&self) -> Arc<IoStats> {
        self.inner.stats()
    }
}
