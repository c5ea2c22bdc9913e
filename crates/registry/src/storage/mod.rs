//! Durable storage for the registry: a pluggable [`Store`] trait, the
//! write-ahead-log and snapshot formats, and two backends.
//!
//! ## Shape
//!
//! The registry's state is log-structured by nature: members are
//! append-only histories of content-hashed immutable versions, and the
//! merged view is a deterministic function (a least upper bound) of the
//! current member set. Durability therefore needs exactly two kinds of
//! object:
//!
//! * **the log** — one append-only stream of put/delete records
//!   (the `wal` module: length-prefixed, checksummed, fsync'd per
//!   commit, torn-tail tolerant), and
//! * **snapshots** — immutable, atomically-installed images of the
//!   durable state at a generation (the `snapshot` module: every member
//!   history, plus each current schema body once by content hash), after
//!   which the log can be truncated (compaction).
//!
//! [`Store`] is that surface and nothing more — append, read-all,
//! truncate on the log; write/read/list/remove on snapshot objects. It
//! is deliberately object-store-shaped (iox-style: immutable keyed
//! objects plus one append stream) so an S3-like backend can slot in
//! behind the same registry code; [`LocalStore`] implements it on a
//! local directory with real fsyncs, [`MemoryStore`] on byte buffers
//! for tests and ephemeral registries.
//!
//! ## Recovery contract
//!
//! `Registry::open` loads the newest decodable snapshot, replays the
//! log's valid prefix for records with a later generation, truncates any
//! torn tail, recomputes the merged view (deterministically — the merge
//! is the same LUB that produced it), and verifies the result against
//! the `view_hash` the last committed record carried. Crash anywhere:
//! every acknowledged commit was fsync'd before it was acknowledged, so
//! the recovered view equals the never-crashed reference fed the same
//! committed sequence.

use std::fmt;
use std::io;

pub(crate) mod codec;
pub mod fault;
mod local;
pub(crate) mod snapshot;
pub(crate) mod wal;

pub use fault::{Fault, FaultCounters, FaultSchedule, FaultStore, OpKind};
pub use local::LocalStore;

/// A storage failure: an I/O error from the backend, or durable bytes
/// that cannot be trusted.
#[derive(Debug)]
pub enum StorageError {
    /// The backend failed to perform `op`.
    Io {
        /// What the store was doing (`"append"`, `"write snapshot"`, …).
        op: &'static str,
        /// The underlying error.
        source: io::Error,
    },
    /// Durable bytes failed validation (checksum, framing, or semantic
    /// cross-checks like a version referencing a missing blob).
    Corrupt {
        /// What was wrong.
        detail: String,
    },
}

impl StorageError {
    pub(crate) fn io(op: &'static str, source: io::Error) -> Self {
        StorageError::Io { op, source }
    }

    pub(crate) fn corrupt(detail: String) -> Self {
        StorageError::Corrupt { detail }
    }

    /// Whether retrying the failed operation could plausibly succeed.
    ///
    /// Transient failures are I/O errors whose kind signals a momentary
    /// condition (interruption, timeout, a dropped connection to a
    /// remote backend); the registry's retry policy only spends budget
    /// on these. Corruption is never transient — the bytes will not get
    /// better — and neither is `NotFound`, which backends use for
    /// genuinely absent objects (e.g. a missing snapshot generation).
    pub fn is_transient(&self) -> bool {
        match self {
            StorageError::Io { source, .. } => matches!(
                source.kind(),
                io::ErrorKind::Interrupted
                    | io::ErrorKind::TimedOut
                    | io::ErrorKind::WouldBlock
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::BrokenPipe
            ),
            StorageError::Corrupt { .. } => false,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { op, source } => write!(f, "storage {op} failed: {source}"),
            StorageError::Corrupt { detail } => write!(f, "storage corrupt: {detail}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            StorageError::Corrupt { .. } => None,
        }
    }
}

/// The pluggable persistence surface: one append-only log plus immutable
/// snapshot objects keyed by generation.
///
/// Implementations must make [`Store::append`] and
/// [`Store::write_snapshot`] *durable before returning* (fsync or the
/// backend's equivalent) — the registry acknowledges a commit to its
/// caller only after `append` returns, and that ordering is the entire
/// crash-safety story. Snapshot writes must be atomic: a crashed write
/// must leave either the complete object or nothing (no snapshot object
/// may ever hold a torn image).
///
/// The registry serializes all calls (they happen under its commit
/// lock), so implementations need interior consistency, not interior
/// synchronization; `Send` is required because the registry itself is
/// shared across threads.
pub trait Store: Send {
    /// Appends one framed record to the log and makes it durable.
    fn append(&mut self, frame: &[u8]) -> Result<(), StorageError>;

    /// Reads the entire log image, header and all.
    fn read_log(&mut self) -> Result<Vec<u8>, StorageError>;

    /// Truncates the log to `len` bytes: the valid prefix after a torn
    /// tail, or `0` to discard it entirely after a snapshot (compaction).
    /// Truncating to zero re-initializes the log header.
    fn truncate_log(&mut self, len: u64) -> Result<(), StorageError>;

    /// Bytes currently in the log.
    fn log_bytes(&self) -> Result<u64, StorageError>;

    /// Durably writes the snapshot object for `generation` (atomic:
    /// complete or absent, never torn).
    fn write_snapshot(&mut self, generation: u64, image: &[u8]) -> Result<(), StorageError>;

    /// Reads the snapshot object for `generation`.
    fn read_snapshot(&mut self, generation: u64) -> Result<Vec<u8>, StorageError>;

    /// Lists stored snapshot generations in ascending order.
    fn list_snapshots(&mut self) -> Result<Vec<u64>, StorageError>;

    /// Removes the snapshot object for `generation` (old snapshots after
    /// a newer one is installed). Removing an absent object is not an
    /// error.
    fn remove_snapshot(&mut self, generation: u64) -> Result<(), StorageError>;

    /// Fault-injection counters, when this store injects faults.
    ///
    /// Real backends return `None` (the default); [`FaultStore`]
    /// overrides this so the registry can surface injected-fault
    /// telemetry without downcasting through `dyn Store`.
    fn fault_counters(&self) -> Option<FaultCounters> {
        None
    }
}

/// An in-memory [`Store`]: byte buffers with the exact semantics of
/// [`LocalStore`] minus the disk. For tests (crash points can be
/// simulated by truncating or flipping bytes in the log image) and for
/// ephemeral registries that want the WAL/snapshot machinery without a
/// filesystem.
#[derive(Debug, Default)]
pub struct MemoryStore {
    log: Vec<u8>,
    snapshots: std::collections::BTreeMap<u64, Vec<u8>>,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> Self {
        MemoryStore::default()
    }

    /// The raw log image — for tests that simulate torn or corrupt
    /// tails before handing the store to `Registry::builder().store(…)`.
    pub fn log_image(&self) -> &[u8] {
        &self.log
    }

    /// Replaces the raw log image — the other half of crash simulation.
    pub fn set_log_image(&mut self, image: Vec<u8>) {
        self.log = image;
    }
}

impl Store for MemoryStore {
    fn append(&mut self, frame: &[u8]) -> Result<(), StorageError> {
        if self.log.is_empty() {
            self.log.extend_from_slice(&wal::encode_header());
        }
        self.log.extend_from_slice(frame);
        Ok(())
    }

    fn read_log(&mut self) -> Result<Vec<u8>, StorageError> {
        Ok(self.log.clone())
    }

    fn truncate_log(&mut self, len: u64) -> Result<(), StorageError> {
        self.log.truncate(len as usize);
        Ok(())
    }

    fn log_bytes(&self) -> Result<u64, StorageError> {
        Ok(self.log.len() as u64)
    }

    fn write_snapshot(&mut self, generation: u64, image: &[u8]) -> Result<(), StorageError> {
        self.snapshots.insert(generation, image.to_vec());
        Ok(())
    }

    fn read_snapshot(&mut self, generation: u64) -> Result<Vec<u8>, StorageError> {
        self.snapshots.get(&generation).cloned().ok_or_else(|| {
            StorageError::io(
                "read snapshot",
                io::Error::new(io::ErrorKind::NotFound, format!("no snapshot {generation}")),
            )
        })
    }

    fn list_snapshots(&mut self) -> Result<Vec<u64>, StorageError> {
        Ok(self.snapshots.keys().copied().collect())
    }

    fn remove_snapshot(&mut self, generation: u64) -> Result<(), StorageError> {
        self.snapshots.remove(&generation);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_store_log_lifecycle() {
        let mut store = MemoryStore::new();
        assert_eq!(store.log_bytes().unwrap(), 0);
        store.append(b"abc").unwrap();
        store.append(b"def").unwrap();
        let expected = wal::WAL_HEADER_LEN as u64 + 6;
        assert_eq!(store.log_bytes().unwrap(), expected);
        let image = store.read_log().unwrap();
        assert!(image.ends_with(b"abcdef"));
        store.truncate_log(expected - 3).unwrap();
        assert!(store.read_log().unwrap().ends_with(b"abc"));
        store.truncate_log(0).unwrap();
        assert_eq!(store.log_bytes().unwrap(), 0);
    }

    #[test]
    fn memory_store_snapshot_lifecycle() {
        let mut store = MemoryStore::new();
        assert!(store.list_snapshots().unwrap().is_empty());
        store.write_snapshot(3, b"three").unwrap();
        store.write_snapshot(9, b"nine").unwrap();
        assert_eq!(store.list_snapshots().unwrap(), vec![3, 9]);
        assert_eq!(store.read_snapshot(9).unwrap(), b"nine");
        assert!(store.read_snapshot(4).is_err());
        store.remove_snapshot(3).unwrap();
        store.remove_snapshot(3).unwrap(); // absent: not an error
        assert_eq!(store.list_snapshots().unwrap(), vec![9]);
    }
}
