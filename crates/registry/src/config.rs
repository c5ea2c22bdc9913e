//! Registry configuration: the builder that opens in-memory or durable
//! registries, and the boot-time recovery it performs for the latter.
//!
//! ## Recovery
//!
//! [`RegistryBuilder::open`] rebuilds a durable registry from its store
//! in four steps:
//!
//! 1. **Snapshot.** Load and validate the *newest* snapshot object.
//!    Only the newest is usable — the log was truncated when it was
//!    installed, so an older snapshot plus the current log would be
//!    missing records; a corrupt newest snapshot is therefore a hard
//!    [`StorageError::Corrupt`], never a silent fall-back.
//! 2. **Log replay.** Scan the WAL's valid prefix, truncate any torn
//!    tail (un-acknowledged by construction), and apply every record
//!    with a generation past the snapshot's. Records at or before it are
//!    stale — a crash between snapshot install and log truncation leaves
//!    them behind — and are skipped, though the schema bodies they carry
//!    still feed the blob table. Each member keeps the body of its last
//!    version only; earlier versions are recovered as metadata.
//! 3. **Re-merge.** The merged view is a deterministic least upper
//!    bound of the current members, so it is *recomputed*, not stored:
//!    one cold [`JoinState::step`] over every member, exactly the
//!    engine's cold path. Its state becomes the registry's first held
//!    join, so the first publish of a new member after a reboot is
//!    already incremental.
//! 4. **Verify.** The recomputed view's content hash must equal the
//!    `view_hash` carried by the last applied record (or the snapshot,
//!    when the log is empty) — an end-to-end check that recovery
//!    reproduced the view the writer actually served.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use schema_merge_core::{CompletionReport, ProperSchema, WeakSchema};
use schema_merge_telemetry as telemetry;

use crate::cache::{JoinState, Part};
use crate::error::RegistryError;
use crate::registry::{
    hash_view, member_part, Durability, Metrics, Persistence, Registry, Resilience, Shared,
    ViewHash,
};
use crate::resilience::RetryPolicy;
use crate::storage::snapshot::SnapshotState;
use crate::storage::wal::{self, WalRecord};
use crate::storage::{snapshot, LocalStore, StorageError, Store};
use crate::version::{self, MemberRecord, SchemaVersion};

/// Records between auto-snapshots unless
/// [`RegistryBuilder::snapshot_every`] says otherwise.
const DEFAULT_SNAPSHOT_EVERY: u64 = 256;

/// Configures and opens a [`Registry`]. Obtained from
/// [`Registry::builder`].
///
/// ```
/// use schema_merge_registry::Registry;
///
/// // In-memory, snapshotting every 64 records once a store is set:
/// let registry = Registry::builder().snapshot_every(64).open().unwrap();
/// assert!(registry.is_empty());
/// ```
#[must_use = "a builder does nothing until `open` is called"]
pub struct RegistryBuilder {
    data_dir: Option<PathBuf>,
    snapshot_every: u64,
    store: Option<Box<dyn Store>>,
    retry_policy: Option<RetryPolicy>,
}

impl Default for RegistryBuilder {
    fn default() -> Self {
        RegistryBuilder::new()
    }
}

impl RegistryBuilder {
    /// A builder with defaults: in-memory, auto-snapshot every 256
    /// records once a store is configured.
    pub fn new() -> Self {
        RegistryBuilder {
            data_dir: None,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            store: None,
            retry_policy: None,
        }
    }

    /// Makes the registry durable on a local directory: a WAL plus
    /// snapshot objects under `dir` (created if absent), via
    /// [`LocalStore`]. Opening recovers whatever state the directory
    /// holds. Ignored when an explicit [`RegistryBuilder::store`] is
    /// also configured.
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Auto-snapshot (and compact the log) after this many WAL records;
    /// `0` disables the cadence, leaving compaction to explicit
    /// [`Registry::snapshot`] calls. Meaningless without a store.
    pub fn snapshot_every(mut self, records: u64) -> Self {
        self.snapshot_every = records;
        self
    }

    /// Makes the registry durable on a custom [`Store`] backend (an
    /// object-store adapter, or [`crate::storage::MemoryStore`] in
    /// tests). Takes precedence over [`RegistryBuilder::data_dir`].
    pub fn store(mut self, store: impl Store + 'static) -> Self {
        self.store = Some(Box::new(store));
        self
    }

    /// Opts the registry into commit-path resilience: transient storage
    /// failures are retried under `policy`'s bounded
    /// exponential-backoff budget (recovery reads retry too), and
    /// budget exhaustion flips the registry into degraded read-only
    /// mode instead of leaving it an error fountain — see
    /// [`crate::resilience`]. Without this call the registry is
    /// fail-fast, exactly as before.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry_policy = Some(policy);
        self
    }

    /// Opens the registry. With no store configured this is
    /// [`Registry::new`] plus the retry policy; with one, the durable
    /// state is recovered as described in the [module docs](self).
    ///
    /// # Errors
    ///
    /// [`RegistryError::Storage`] when the store cannot be opened or
    /// read, or when the durable state fails validation (corrupt
    /// snapshot, blob references that resolve nowhere, a recovered view
    /// that does not hash to what the log says was served).
    pub fn open(self) -> Result<Registry, RegistryError> {
        let store: Option<Box<dyn Store>> = match (self.store, self.data_dir) {
            (Some(store), _) => Some(store),
            (None, Some(dir)) => Some(Box::new(LocalStore::open(dir)?)),
            (None, None) => None,
        };
        let Some(mut store) = store else {
            let mut registry = Registry::new();
            registry.resilience = Resilience::new(self.retry_policy);
            return Ok(registry);
        };
        let recovery_started = Instant::now();
        let recovered = {
            let mut span = telemetry::span("recover");
            let recovered = recover(&mut store, self.retry_policy.as_ref())?;
            span.attr("generation", recovered.generation);
            span.attr("wal_records", recovered.wal_records);
            recovered
        };
        let persistence = Persistence {
            store,
            snapshot_every: self.snapshot_every,
            wal_records: recovered.wal_records,
            records_since_snapshot: recovered.wal_records,
            snapshot_generation: recovered.snapshot_generation,
            snapshot_bytes: recovered.snapshot_bytes,
            snapshots_written: 0,
            on_disk: recovered.on_disk,
            torn_at: None,
        };
        let registry = Registry {
            shared: RwLock::new(Shared {
                generation: recovered.generation,
                members: recovered.members,
                proper: recovered.proper,
                report: recovered.report,
                hash: recovered.hash,
                joins: recovered.joins,
            }),
            durability: Some(Durability::new(&persistence)),
            lane: Mutex::new(Some(persistence)),
            metrics: Metrics::default(),
            resilience: Resilience::new(self.retry_policy),
        };
        registry
            .metrics
            .recovery_latency
            .record(recovery_started.elapsed());
        Ok(registry)
    }
}

/// Everything [`recover`] rebuilds from the store.
struct Recovered {
    generation: u64,
    members: BTreeMap<String, MemberRecord>,
    proper: Arc<ProperSchema>,
    report: Arc<CompletionReport>,
    /// The view's hash, when recovery verified it against the store.
    hash: ViewHash,
    joins: Arc<JoinState>,
    snapshot_generation: u64,
    snapshot_bytes: u64,
    wal_records: u64,
    on_disk: HashSet<u64>,
}

/// Runs `op`, retrying transient storage failures under `policy` (when
/// one is configured) with the same jittered backoff the commit path
/// uses. Recovery is read-mostly, so a flaky boot-time read should not
/// abort the open when the registry opted into resilience.
fn retrying<T>(
    policy: Option<&RetryPolicy>,
    salt: u64,
    mut op: impl FnMut() -> Result<T, StorageError>,
) -> Result<T, StorageError> {
    let mut attempt: u32 = 0;
    loop {
        match op() {
            Ok(value) => return Ok(value),
            Err(err) if err.is_transient() => {
                let Some(policy) = policy else {
                    return Err(err);
                };
                if attempt >= policy.max_retries() {
                    return Err(err);
                }
                attempt += 1;
                std::thread::sleep(policy.backoff(attempt, salt));
            }
            Err(err) => return Err(err),
        }
    }
}

fn recover(
    store: &mut Box<dyn Store>,
    policy: Option<&RetryPolicy>,
) -> Result<Recovered, StorageError> {
    // 1. The newest snapshot, if any.
    let snapshots = retrying(policy, 1, || store.list_snapshots())?;
    let mut state = SnapshotState::default();
    let mut snapshot_bytes = 0u64;
    let mut last_view_hash = None;
    if let Some(&latest) = snapshots.last() {
        let image = retrying(policy, 2, || store.read_snapshot(latest))?;
        snapshot_bytes = image.len() as u64;
        state = snapshot::decode(&image)?;
        last_view_hash = Some(state.view_hash);
    }

    // 2. The log's valid prefix; a torn tail was never acknowledged and
    // is truncated away so appends resume on a frame boundary.
    let image = retrying(policy, 3, || store.read_log())?;
    let scan = wal::read_frames(&image)?;
    if scan.valid_len < image.len() as u64 {
        retrying(policy, 4, || store.truncate_log(scan.valid_len))?;
    }

    // Blob table: snapshot bodies plus every body carried in the log
    // (stale records — generation at or before the snapshot's, left by a
    // crash between snapshot install and log truncation — still
    // contribute theirs; a later by-reference record may need them).
    let mut blobs: HashMap<u64, Arc<WeakSchema>> = state
        .blobs
        .iter()
        .map(|(hash, schema)| (*hash, Arc::clone(schema)))
        .collect();
    for record in &scan.records {
        if let WalRecord::Put {
            hash,
            schema: Some(schema),
            ..
        } = record
        {
            blobs.insert(*hash, Arc::clone(schema));
        }
    }

    // Member histories: the snapshot's, then the post-snapshot records.
    // Only current versions get a body; a version-1 snapshot's superseded
    // bodies stay in `blobs` alone, for by-reference records to resolve.
    let mut members: BTreeMap<String, MemberRecord> = BTreeMap::new();
    for (name, history) in std::mem::take(&mut state.members) {
        // `snapshot::decode` guarantees a non-empty history and a blob
        // for its last version; checked again rather than unwrapped.
        let current = history.last().copied().and_then(|meta| {
            blobs.get(&meta.hash).map(|schema| SchemaVersion {
                hash: meta.hash,
                sequence: meta.sequence,
                generation: meta.generation,
                schema: Arc::clone(schema),
            })
        });
        let current = current.ok_or_else(|| {
            StorageError::corrupt(format!(
                "snapshot member `{name}` has no current schema body"
            ))
        })?;
        members.insert(name, MemberRecord { history, current });
    }
    let mut generation = state.generation;
    let mut wal_records = 0u64;
    for record in &scan.records {
        wal_records += 1;
        if record.generation() <= state.generation {
            continue; // stale: the snapshot already captured it
        }
        if record.generation() != generation + 1 {
            return Err(StorageError::corrupt(format!(
                "log jumps from generation {generation} to {}",
                record.generation()
            )));
        }
        match record {
            WalRecord::Put {
                generation: g,
                member,
                hash,
                sequence,
                ..
            } => {
                let schema = blobs.get(hash).cloned().ok_or_else(|| {
                    StorageError::corrupt(format!(
                        "put of `{member}` references blob {hash:#018x} \
                         carried by no snapshot or earlier record"
                    ))
                })?;
                version::publish(
                    &mut members,
                    member,
                    SchemaVersion {
                        hash: *hash,
                        sequence: *sequence,
                        generation: *g,
                        schema,
                    },
                );
            }
            WalRecord::Delete { member, .. } => {
                if members.remove(member.as_str()).is_none() {
                    return Err(StorageError::corrupt(format!(
                        "delete of `{member}`, which does not exist at that point"
                    )));
                }
            }
        }
        generation = record.generation();
        last_view_hash = Some(record.view_hash());
    }

    // 3. Recompute the merged view — it is a deterministic LUB of the
    // recovered members, so it is derived, never trusted from disk.
    let parts: Vec<Part> = members
        .iter()
        .map(|(name, record)| member_part(name, &record.current.schema))
        .collect();
    let step = JoinState::default()
        .step(&parts, None, None)
        .map_err(|cause| {
            StorageError::corrupt(format!("recovered member set does not merge: {cause}"))
        })?;
    let proper = Arc::new(step.report.proper);
    let report = Arc::new(step.report.implicit);

    // 4. End-to-end verification against the last committed view hash.
    let hash = ViewHash::default();
    if let Some(expected) = last_view_hash {
        let actual = *hash.get_or_init(|| hash_view(&proper));
        if actual != expected {
            return Err(StorageError::corrupt(format!(
                "recovered view hashes to {actual:#018x}, but the last committed \
                 record served {expected:#018x}"
            )));
        }
    }

    Ok(Recovered {
        generation,
        members,
        proper,
        report,
        hash,
        joins: Arc::new(step.state),
        snapshot_generation: snapshots.last().copied().unwrap_or(0),
        snapshot_bytes,
        wal_records,
        on_disk: blobs.keys().copied().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemoryStore;

    fn schema(src: &str, label: &str, tgt: &str) -> WeakSchema {
        WeakSchema::builder()
            .arrow(src, label, tgt)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_without_store_is_in_memory() {
        let registry = Registry::builder().open().unwrap();
        assert!(!registry.stats().persistent);
        assert!(matches!(
            registry.snapshot(),
            Err(RegistryError::NotPersistent)
        ));
    }

    #[test]
    fn fresh_store_opens_empty() {
        let registry = Registry::builder()
            .store(MemoryStore::new())
            .open()
            .unwrap();
        assert!(registry.is_empty());
        let stats = registry.stats();
        assert!(stats.persistent);
        assert_eq!(stats.wal_records, 0);
        assert_eq!(stats.generation, 0);
    }

    #[test]
    fn durable_opens_record_fsync_and_recovery_latency() {
        let registry = Registry::builder()
            .store(MemoryStore::new())
            .open()
            .unwrap();
        assert_eq!(
            registry.stats().recovery_latency.count,
            1,
            "every durable open is one recovery sample"
        );
        registry.put("a", schema("Part", "price", "money")).unwrap();
        registry.put("b", schema("Order", "item", "Part")).unwrap();
        let stats = registry.stats();
        assert_eq!(
            stats.fsync_latency.count, 2,
            "one durability wait per commit"
        );
        assert_eq!(stats.commit_latency.count, 2);
    }

    #[test]
    fn commits_are_logged_and_deduped_by_content() {
        let registry = Registry::builder()
            .store(MemoryStore::new())
            .snapshot_every(0)
            .open()
            .unwrap();
        let g = schema("Part", "price", "money");
        registry.put("a", g.clone()).unwrap();
        let after_first = registry.stats().wal_bytes;
        // Same content under another member: a by-reference record, so
        // the log grows by far less than the first (body-carrying) one.
        registry.put("b", g).unwrap();
        let stats = registry.stats();
        assert_eq!(stats.wal_records, 2);
        let second_growth = stats.wal_bytes - after_first;
        assert!(
            second_growth < after_first / 2,
            "by-reference record grew the log by {second_growth} B \
             (first record: {after_first} B)"
        );
    }

    /// A version-1 snapshot — every version's body in its blob table —
    /// still recovers: histories, bodies and view come back, and a
    /// by-reference record naming a superseded body that only the old
    /// snapshot carries (the old dedup set held every blob) resolves.
    #[test]
    fn version_1_snapshot_with_old_bodies_recovers() {
        let (a, b, c) = (
            schema("Part", "price", "money"),
            schema("Part", "weight", "kg"),
            schema("Order", "item", "Part"),
        );
        let reference = Registry::new();
        reference.put("inv", a.clone()).unwrap();
        reference.put("inv", b.clone()).unwrap();
        reference.put("orders", c.clone()).unwrap();
        let mut state = SnapshotState {
            generation: 3,
            view_hash: reference.merged().hash(),
            ..SnapshotState::default()
        };
        for g in [&a, &b, &c] {
            state.blobs.insert(g.content_hash(), Arc::new(g.clone()));
        }
        for name in ["inv", "orders"] {
            state
                .members
                .insert(name.to_string(), reference.history(name).unwrap());
        }
        let mut store = MemoryStore::new();
        let image = snapshot::restamp(&snapshot::encode(&state), 1);
        store.write_snapshot(3, &image).unwrap();

        // Republish `a` by reference after the snapshot.
        let again = reference.put("inv", a.clone()).unwrap();
        let record = WalRecord::Put {
            generation: again.generation,
            member: "inv".to_string(),
            hash: again.hash,
            sequence: again.sequence,
            view_hash: reference.merged().hash(),
            schema: None,
        };
        store.append(&wal::encode_frame(&record)).unwrap();

        let recovered = Registry::builder().store(store).open().unwrap();
        assert_eq!(recovered.merged().generation, 4);
        assert_eq!(recovered.merged().proper, reference.merged().proper);
        assert_eq!(recovered.list(), reference.list());
        for name in ["inv", "orders"] {
            assert_eq!(recovered.history(name), reference.history(name));
            assert_eq!(
                recovered.get(name).unwrap().schema,
                reference.get(name).unwrap().schema
            );
        }
        assert_eq!(recovered.history("inv").unwrap().len(), 3);
    }
}
