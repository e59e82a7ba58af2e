//! Error type shared by the PDM substrate.

use std::fmt;

/// Errors raised by block devices and the buffer pool.
#[derive(Debug)]
pub enum PdmError {
    /// A block id referred to a block that was never allocated or has been
    /// freed.
    InvalidBlock(super::BlockId),
    /// A read or write buffer did not match the device block size.
    SizeMismatch {
        /// Block size of the device, in bytes.
        expected: usize,
        /// Size of the buffer handed to the device, in bytes.
        actual: usize,
    },
    /// The device ran out of capacity (only possible for bounded devices).
    OutOfSpace,
    /// Every frame in the buffer pool is pinned, so nothing can be evicted.
    PoolExhausted,
    /// An underlying file operation failed (file-backed devices only), or a
    /// fault-injecting device reported a simulated device failure.
    Io(std::io::Error),
    /// A record type does not fit in one device block, so a block-granular
    /// structure cannot be built on this device.
    RecordTooLarge {
        /// Size of one record, in bytes.
        record: usize,
        /// Block size of the device, in bytes.
        block: usize,
    },
    /// A transient device error persisted through every attempt a
    /// [`RetryPolicy`](crate::RetryPolicy) allowed.
    RetriesExhausted {
        /// Lane (member-disk index) the failing transfer targeted.
        disk: usize,
        /// Physical block id of the failing transfer.
        block: super::BlockId,
        /// Attempts made, including the first (non-retry) one.
        attempts: u32,
        /// The error returned by the final attempt.
        last: Box<PdmError>,
    },
    /// An operator was asked to hold more records in internal memory than
    /// its budget `M` allows — a model violation by the caller's plan (the
    /// planner prices such plans at ∞), reported instead of silently
    /// exceeding `M`.
    MemoryExceeded {
        /// Records the operator would have had to keep resident.
        needed: usize,
        /// Records its memory budget had room for.
        available: usize,
    },
    /// Persisted bytes — a journal header, chain or redo record, or a
    /// structure's recovery manifest — do not parse or fail their checksum.
    /// Unlike [`Io`](Self::Io) this is a fact about what the medium holds,
    /// not about one transfer: reading it again returns the same bytes.
    Corrupt(String),
    /// The caller asked for something the API's contract rules out — a
    /// server with no shards, a tenant it does not host, a compaction over
    /// an open batch.  Nothing was changed; the request is the bug.
    InvalidRequest(String),
}

impl PdmError {
    /// True for errors that a bounded retry may cure: device-level I/O
    /// failures.  Contract violations (`InvalidBlock`, `SizeMismatch`, …)
    /// and corrupt persisted state are never transient — retrying them
    /// would only repeat the bug, or re-read the same bad bytes.
    pub fn is_transient(&self) -> bool {
        matches!(self, PdmError::Io(_))
    }
}

impl fmt::Display for PdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdmError::InvalidBlock(id) => write!(f, "invalid block id {id}"),
            PdmError::SizeMismatch { expected, actual } => {
                write!(
                    f,
                    "buffer size {actual} does not match block size {expected}"
                )
            }
            PdmError::OutOfSpace => write!(f, "device out of space"),
            PdmError::PoolExhausted => {
                write!(f, "buffer pool exhausted: all frames pinned")
            }
            PdmError::Io(e) => write!(f, "I/O error: {e}"),
            PdmError::RecordTooLarge { record, block } => {
                write!(f, "record size {record} exceeds device block size {block}")
            }
            PdmError::RetriesExhausted {
                disk,
                block,
                attempts,
                last,
            } => {
                write!(
                    f,
                    "disk {disk} block {block}: giving up after {attempts} attempts: {last}"
                )
            }
            PdmError::MemoryExceeded { needed, available } => {
                write!(
                    f,
                    "memory budget exceeded: {needed} records needed, {available} available"
                )
            }
            PdmError::Corrupt(what) => write!(f, "corrupt persisted state: {what}"),
            PdmError::InvalidRequest(what) => write!(f, "invalid request: {what}"),
        }
    }
}

impl std::error::Error for PdmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PdmError::Io(e) => Some(e),
            PdmError::RetriesExhausted { last, .. } => Some(last),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PdmError {
    fn from(e: std::io::Error) -> Self {
        PdmError::Io(e)
    }
}

/// Convenient result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, PdmError>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(PdmError, &str)> = vec![
            (PdmError::InvalidBlock(7), "invalid block id 7"),
            (
                PdmError::SizeMismatch {
                    expected: 64,
                    actual: 32,
                },
                "buffer size 32 does not match block size 64",
            ),
            (PdmError::OutOfSpace, "device out of space"),
            (
                PdmError::PoolExhausted,
                "buffer pool exhausted: all frames pinned",
            ),
            (
                PdmError::RecordTooLarge {
                    record: 128,
                    block: 64,
                },
                "record size 128 exceeds device block size 64",
            ),
            (
                PdmError::MemoryExceeded {
                    needed: 300,
                    available: 256,
                },
                "memory budget exceeded: 300 records needed, 256 available",
            ),
            (
                PdmError::Corrupt("journal: record fails its checksum".into()),
                "corrupt persisted state: journal: record fails its checksum",
            ),
            (
                PdmError::InvalidRequest("tenant 3 out of range".into()),
                "invalid request: tenant 3 out of range",
            ),
        ];
        for (err, expect) in cases {
            assert_eq!(err.to_string(), expect);
        }
        let io = PdmError::from(std::io::Error::other("boom"));
        assert_eq!(io.to_string(), "I/O error: boom");
    }

    #[test]
    fn retries_exhausted_displays_and_chains_source() {
        let last = PdmError::Io(std::io::Error::other("injected transient fault"));
        let err = PdmError::RetriesExhausted {
            disk: 2,
            block: 41,
            attempts: 3,
            last: Box::new(last),
        };
        assert_eq!(
            err.to_string(),
            "disk 2 block 41: giving up after 3 attempts: \
             I/O error: injected transient fault"
        );
        // The source chain reaches through the wrapper to the io::Error.
        let src = err.source().expect("wrapper has a source");
        assert!(src.to_string().contains("injected transient fault"));
        assert!(src.source().is_some(), "inner Io chains to the io::Error");
    }

    #[test]
    fn transience_is_io_only() {
        assert!(PdmError::Io(std::io::Error::other("x")).is_transient());
        assert!(!PdmError::InvalidBlock(0).is_transient());
        assert!(!PdmError::OutOfSpace.is_transient());
        assert!(!PdmError::RecordTooLarge {
            record: 9,
            block: 8
        }
        .is_transient());
        // Corruption is what the medium holds; a retry reads it again.
        assert!(!PdmError::Corrupt("torn manifest".into()).is_transient());
        assert!(!PdmError::InvalidRequest("no shards".into()).is_transient());
        // An exhausted retry is final: retrying the wrapper would be a bug.
        assert!(!PdmError::RetriesExhausted {
            disk: 0,
            block: 0,
            attempts: 2,
            last: Box::new(PdmError::Io(std::io::Error::other("x"))),
        }
        .is_transient());
    }
}
