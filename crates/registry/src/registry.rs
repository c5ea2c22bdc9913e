//! The registry: concurrent versioned members and the incremental merge
//! engine.
//!
//! ## Concurrency
//!
//! The mutable state (members, generation, merged view and the held
//! joins) lives behind one `RwLock`. Reads — [`Registry::merged`],
//! [`Registry::get`], [`Registry::stats`], [`Registry::query`] — take
//! the read lock just long enough to clone an `Arc`. Writes — `put`,
//! `delete`, `snapshot` and the heal probe — run one at a time in the
//! *lane*, a `Mutex` held for the whole write that also owns the store;
//! the write lock is taken only to install a commit, never across a
//! merge, an fsync or a snapshot. The merge is a least upper bound, so
//! the lane's serial order never changes the view. Releasing the lane
//! publishes the durability fields `stats` reports into atomics, so no
//! read ever waits on a writer or on storage. Lock order: lane, then
//! shared state; a supergraph takes its lane before a registry's read
//! lock, and a commit never touches one.
//!
//! ## Incrementality
//!
//! `put` and `delete` share one commit path, and its merge step is
//! [`JoinState::step`] (see [`crate::cache`]) on the state the last
//! commit installed. The other members' join is a join that state holds
//! — the rest-join when the same member changed last, the total when the
//! member is new — or is joined cold; the changed member is joined onto
//! it and the result completed. The commit installs the step's next
//! state with the new generation, so the held joins always describe the
//! current members. Either way the committed view is **equal** to the
//! one-shot merge of the current members — associativity is not an
//! optimization that changes answers.
//!
//! ## Durability
//!
//! A registry opened with a store ([`crate::RegistryBuilder::data_dir`]
//! or [`crate::RegistryBuilder::store`]) writes every commit to an
//! append-only WAL *before* it becomes visible: inside the lane, after
//! the merge step and before the shared state mutates, the put/delete
//! record is framed, appended and fsync'd ([`crate::storage`]). A commit
//! that cannot be made durable is returned as [`RegistryError::Storage`]
//! with the registry untouched, so the in-memory state never runs ahead
//! of the log — crash anywhere and recovery replays exactly the
//! acknowledged sequence. Every `snapshot_every` records the registry
//! compacts: it snapshots every member's version history and current
//! schema body and truncates the log.
//!
//! ## Memory
//!
//! The merge is the least upper bound of the *current* members, so a
//! superseded version keeps only its [`VersionMeta`] (hash, sequence,
//! generation); the registry holds one schema body per member however
//! many versions it has published.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::mem;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Instant;

use schema_merge_core::{
    Class, CompiledSchema, CompletionReport, MergeError, ProperSchema, WeakSchema,
};
use schema_merge_instance::PathQuery;
use schema_merge_telemetry::{self as telemetry, Histogram};

use crate::cache::{Body, JoinState, Part};
use crate::config::RegistryBuilder;
use crate::error::RegistryError;
use crate::resilience::RetryPolicy;
use crate::stats::RegistryStats;
use crate::storage::snapshot::{SnapshotState, VersionMeta};
use crate::storage::wal::WalRecord;
use crate::storage::{snapshot, wal, FaultCounters, StorageError, Store};
use crate::version::{self, MemberInfo, MemberRecord, SchemaVersion};

/// How a commit's merged view was computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStrategy {
    /// The content hash matched the current version: nothing recomputed.
    Noop,
    /// A held join of the unchanged members was reused; only the final
    /// two-way join and the completion ran.
    Incremental,
    /// No held join applied; every unchanged member was re-joined.
    Full,
}

impl MergeStrategy {
    /// The lower-case wire/report name.
    pub fn as_str(self) -> &'static str {
        match self {
            MergeStrategy::Noop => "noop",
            MergeStrategy::Incremental => "incremental",
            MergeStrategy::Full => "full",
        }
    }
}

/// The result of a successful [`Registry::put`].
#[derive(Debug, Clone)]
pub struct PutOutcome {
    /// Content hash of the published schema.
    pub hash: u64,
    /// The version's sequence number within the member (unchanged for a
    /// no-op republish).
    pub sequence: u32,
    /// Registry generation after the operation (unchanged for a no-op).
    pub generation: u64,
    /// Which engine path produced the new merged view.
    pub strategy: MergeStrategy,
}

/// The result of a successful [`Registry::delete`].
#[derive(Debug, Clone)]
pub struct DeleteOutcome {
    /// Registry generation after the delete.
    pub generation: u64,
    /// Members remaining.
    pub remaining: usize,
    /// Which engine path produced the new merged view.
    pub strategy: MergeStrategy,
}

/// A generation-stamped handle on the merged view. Everything is
/// `Arc`-shared — taking a view never copies a schema, and the registry
/// moving on to later generations never invalidates it.
///
/// The pre-completion weak join is not materialized symbolically — it
/// is held compiled in the registry's [`JoinState`], where the next
/// incremental publish reuses it; the canonical merged schema (and its
/// weak form, via [`ProperSchema::as_weak`]) is what clients consume.
#[derive(Debug, Clone)]
pub struct MergedView {
    /// The generation whose commit produced this view.
    pub generation: u64,
    /// The completed merge — the canonical merged schema served to
    /// clients.
    pub proper: Arc<ProperSchema>,
    /// Implicit-class provenance from the completion.
    pub report: Arc<CompletionReport>,
    /// The view's content hash, shared with the registry's installed
    /// view, so it is computed once per generation.
    hash: ViewHash,
}

impl MergedView {
    /// A view of `proper`, with implicit-class table `report`, produced
    /// at `generation`; its hash is computed when first asked.
    pub fn new(generation: u64, proper: Arc<ProperSchema>, report: Arc<CompletionReport>) -> Self {
        MergedView {
            generation,
            proper,
            report,
            hash: ViewHash::default(),
        }
    }

    /// Canonical content hash of the merged proper schema, computed at
    /// most once per generation: a durable commit stores the hash its
    /// WAL record carries, and otherwise the first caller fills it in.
    pub fn hash(&self) -> u64 {
        *self.hash.get_or_init(|| hash_view(&self.proper))
    }
}

/// An installed view's content hash, filled at most once and shared by
/// every [`MergedView`] of that generation.
pub(crate) type ViewHash = Arc<OnceLock<u64>>;

/// The content hash of a merged view. Every hash the registry takes of a
/// view goes through here, so tests can count them.
pub(crate) fn hash_view(proper: &ProperSchema) -> u64 {
    #[cfg(test)]
    tests::VIEW_HASHES.with(|count| count.set(count.get() + 1));
    proper.content_hash()
}

/// A coherent snapshot of the registry's pre-completion compiled join and
/// the committed view completed from it — what
/// [`Registry::compiled_join`] hands to the federation layer. The
/// generation, member list, join and view all describe the *same* member
/// set (captured under one lock acquisition), so a supergraph compose can
/// detect a change by generation, attribute provenance by member, and
/// serve the view of a lone registry, without racing concurrent
/// publishes.
#[derive(Clone)]
pub struct RegistryJoin {
    /// The registry generation the join reflects; every commit bumps it.
    pub generation: u64,
    /// Every member's current version at the snapshot, sorted by name.
    pub members: Vec<(String, SchemaVersion)>,
    /// The compiled weak join of all member schemas (no implicit
    /// classes — completion has not run).
    pub join: Arc<CompiledSchema>,
    /// The committed view of the same generation: `join` completed. It
    /// shares the installed view's hash cell, so the view is hashed at
    /// most once whoever asks.
    pub view: MergedView,
}

pub(crate) struct Shared {
    pub(crate) generation: u64,
    pub(crate) members: BTreeMap<String, MemberRecord>,
    pub(crate) proper: Arc<ProperSchema>,
    pub(crate) report: Arc<CompletionReport>,
    /// `proper`'s content hash, once something has asked for it.
    pub(crate) hash: ViewHash,
    /// The joins the last commit left for the next one to build on.
    pub(crate) joins: Arc<JoinState>,
}

impl Shared {
    /// A handle on the installed view.
    fn view(&self) -> MergedView {
        MergedView {
            generation: self.generation,
            proper: Arc::clone(&self.proper),
            report: Arc::clone(&self.report),
            hash: Arc::clone(&self.hash),
        }
    }
}

/// The registry's persistence arm: the pluggable store plus the
/// bookkeeping that makes WAL dedup and compaction cadence work. It
/// lives in the lane, so only the writer holding the lane touches the
/// store.
pub(crate) struct Persistence {
    pub(crate) store: Box<dyn Store>,
    /// Auto-snapshot after this many WAL records (0 = manual only).
    pub(crate) snapshot_every: u64,
    /// Records in the log since the last compaction.
    pub(crate) wal_records: u64,
    pub(crate) records_since_snapshot: u64,
    /// Generation of the newest snapshot object (0 = none).
    pub(crate) snapshot_generation: u64,
    pub(crate) snapshot_bytes: u64,
    pub(crate) snapshots_written: u64,
    /// Content hashes whose schema bodies are currently recoverable from
    /// the store (snapshot blob table ∪ bodies carried in the live log).
    /// A put whose hash is present appends a by-reference record — the
    /// WAL-level content-hash dedup.
    pub(crate) on_disk: HashSet<u64>,
    /// Pre-append log length of a failed append that may have left a
    /// torn partial frame behind (`None` = log tail is clean). The next
    /// append must truncate back here first: recovery stops at the first
    /// bad frame, so a record appended after the garbage would be lost.
    pub(crate) torn_at: Option<u64>,
}

impl Persistence {
    /// Frames, appends and fsyncs one record. On success the record is
    /// durable; only then may the caller make the commit visible. The
    /// store call — write plus fsync, per the [`Store::append`]
    /// contract — is timed into `fsync`, the registry's durability-wait
    /// histogram.
    fn append(&mut self, record: &WalRecord, fsync: &Histogram) -> Result<(), StorageError> {
        let frame = wal::encode_frame(record);
        let base = self.store.log_bytes().ok();
        let mut span = telemetry::span("wal-append");
        span.attr_usize("bytes", frame.len());
        let started = Instant::now();
        if let Err(err) = self.store.append(&frame) {
            self.torn_at = base;
            return Err(err);
        }
        fsync.record(started.elapsed());
        drop(span);
        self.wal_records += 1;
        self.records_since_snapshot += 1;
        Ok(())
    }

    /// Truncates away the partial frame a failed append may have left,
    /// restoring the log to its last-known-good length.
    fn repair_torn(&mut self) -> Result<(), StorageError> {
        if let Some(base) = self.torn_at {
            self.store.truncate_log(base)?;
            self.torn_at = None;
        }
        Ok(())
    }

    /// Writes a snapshot of `members` at `generation` — every history,
    /// and the current versions' bodies — truncates the log, and drops
    /// superseded snapshot objects. The caller must hold the lane, so no
    /// commit can append between the state capture and the log
    /// truncation.
    fn write_snapshot(
        &mut self,
        members: &BTreeMap<String, MemberRecord>,
        generation: u64,
        view_hash: u64,
    ) -> Result<u64, StorageError> {
        let mut span = telemetry::span("snapshot");
        span.attr("generation", generation);
        let mut state = SnapshotState {
            generation,
            view_hash,
            ..SnapshotState::default()
        };
        for (name, record) in members {
            let current = &record.current;
            state
                .blobs
                .entry(current.hash)
                .or_insert_with(|| Arc::clone(&current.schema));
            state.members.insert(name.clone(), record.history.clone());
        }
        let image = snapshot::encode(&state);
        span.attr_usize("bytes", image.len());
        // Narrow the dedup set to the new image's bodies before installing
        // it. Once it is installed, recovery starts from it, and any step
        // after that can fail: the log truncation, the cleanup, or the
        // install's own report. A body superseded before this snapshot is
        // then on disk only in objects recovery may not read, so it must
        // be logged in full again. Shrinking the set is always safe; at
        // worst a body is written twice.
        self.on_disk = state.blobs.keys().copied().collect();
        self.store.write_snapshot(generation, &image)?;
        // The snapshot holds everything: the log is now redundant, and
        // older snapshot objects are superseded.
        self.store.truncate_log(0)?;
        for old in self.store.list_snapshots()? {
            if old != generation {
                self.store.remove_snapshot(old)?;
            }
        }
        self.snapshot_generation = generation;
        self.snapshot_bytes = image.len() as u64;
        self.snapshots_written += 1;
        self.wal_records = 0;
        self.records_since_snapshot = 0;
        Ok(generation)
    }
}

/// The durability fields [`Registry::stats`] reports, as the lane holder
/// last published them ([`Lane`] does so whenever it is released). Each
/// field is an atomic, so a status read never waits for a writer that is
/// appending, backing off or snapshotting.
#[derive(Default)]
pub(crate) struct Durability {
    wal_records: AtomicU64,
    wal_bytes: AtomicU64,
    snapshot_generation: AtomicU64,
    snapshot_bytes: AtomicU64,
    snapshots_written: AtomicU64,
    /// The store's [`FaultCounters`] in field order; `None` for a store
    /// that injects no faults.
    faults: Option<[AtomicU64; 4]>,
}

impl Durability {
    pub(crate) fn new(p: &Persistence) -> Self {
        let durability = Durability {
            faults: p.store.fault_counters().map(|_| Default::default()),
            ..Durability::default()
        };
        durability.publish(p);
        durability
    }

    /// Copies `p`'s figures out. A log whose length cannot be read keeps
    /// the last length that could.
    fn publish(&self, p: &Persistence) {
        if let Ok(bytes) = p.store.log_bytes() {
            self.wal_bytes.store(bytes, Ordering::Relaxed);
        }
        self.wal_records.store(p.wal_records, Ordering::Relaxed);
        self.snapshot_generation
            .store(p.snapshot_generation, Ordering::Relaxed);
        self.snapshot_bytes
            .store(p.snapshot_bytes, Ordering::Relaxed);
        self.snapshots_written
            .store(p.snapshots_written, Ordering::Relaxed);
        if let (Some(fields), Some(c)) = (&self.faults, p.store.fault_counters()) {
            for (field, value) in fields
                .iter()
                .zip([c.ops, c.injected, c.torn_appends, c.delayed])
            {
                field.store(value, Ordering::Relaxed);
            }
        }
    }

    fn report(&self, stats: &mut RegistryStats) {
        stats.persistent = true;
        stats.wal_records = self.wal_records.load(Ordering::Relaxed);
        stats.wal_bytes = self.wal_bytes.load(Ordering::Relaxed);
        stats.snapshot_generation = self.snapshot_generation.load(Ordering::Relaxed);
        stats.snapshot_bytes = self.snapshot_bytes.load(Ordering::Relaxed);
        stats.snapshots_written = self.snapshots_written.load(Ordering::Relaxed);
        stats.fault_counters =
            self.faults
                .as_ref()
                .map(|[ops, injected, torn, delayed]| FaultCounters {
                    ops: ops.load(Ordering::Relaxed),
                    injected: injected.load(Ordering::Relaxed),
                    torn_appends: torn.load(Ordering::Relaxed),
                    delayed: delayed.load(Ordering::Relaxed),
                });
    }
}

/// The held writer lane: the persistence arm, borrowed for one write.
/// Releasing it publishes the durability fields, however the write
/// ended.
struct Lane<'a> {
    persistence: MutexGuard<'a, Option<Persistence>>,
    durability: Option<&'a Durability>,
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        if let (Some(p), Some(durability)) = (self.persistence.as_ref(), self.durability) {
            durability.publish(p);
        }
    }
}

/// The registry's resilience state: the opt-in retry policy plus the
/// degraded-mode flag and its counters. With no policy configured
/// (`policy: None`, the default) the registry is fail-fast and never
/// degrades — exactly the pre-resilience behavior.
pub(crate) struct Resilience {
    pub(crate) policy: Option<RetryPolicy>,
    degraded: AtomicBool,
    last_error: Mutex<Option<String>>,
    storage_retries: AtomicU64,
    degrade_events: AtomicU64,
    heal_events: AtomicU64,
}

impl Resilience {
    pub(crate) fn new(policy: Option<RetryPolicy>) -> Self {
        Resilience {
            policy,
            degraded: AtomicBool::new(false),
            last_error: Mutex::new(None),
            storage_retries: AtomicU64::new(0),
            degrade_events: AtomicU64::new(0),
            heal_events: AtomicU64::new(0),
        }
    }

    fn note_error(&self, err: &StorageError) {
        *self.last_error.lock().expect("resilience lock") = Some(err.to_string());
    }
}

impl Default for Resilience {
    fn default() -> Self {
        Resilience::new(None)
    }
}

/// The registry's always-on telemetry: monotone event counters and
/// lock-free log₂ latency histograms ([`Histogram`]), recorded on every
/// commit regardless of span enablement — cheap enough to never gate —
/// plus the instance epoch that anchors uptime. [`Registry::stats`]
/// samples all of it.
pub(crate) struct Metrics {
    /// When this registry instance was opened (new or recovered).
    started_at: Instant,
    incremental: AtomicU64,
    full: AtomicU64,
    /// Merge steps, committed or not, that built on a held join…
    held_steps: AtomicU64,
    /// …and that joined the unchanged members cold.
    cold_steps: AtomicU64,
    noop: AtomicU64,
    rejected: AtomicU64,
    requests: AtomicU64,
    /// End-to-end latency of successful generation-spending commits
    /// (put/delete, noops excluded), lane wait included.
    commit_latency: Histogram,
    /// Durability wait per commit: the WAL append + fsync store call.
    fsync_latency: Histogram,
    /// Boot-time recovery (snapshot load + log replay + re-merge +
    /// verify); one sample per durable open.
    pub(crate) recovery_latency: Histogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started_at: Instant::now(),
            incremental: AtomicU64::new(0),
            full: AtomicU64::new(0),
            held_steps: AtomicU64::new(0),
            cold_steps: AtomicU64::new(0),
            noop: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            commit_latency: Histogram::new(),
            fsync_latency: Histogram::new(),
            recovery_latency: Histogram::new(),
        }
    }
}

/// The concurrent schema registry. See the [module docs](self) for the
/// locking, incrementality and durability story.
pub struct Registry {
    pub(crate) shared: RwLock<Shared>,
    /// The writer lane, held for a whole put, delete, snapshot or heal
    /// probe. It owns the durability arm: `None` for a purely in-memory
    /// registry.
    pub(crate) lane: Mutex<Option<Persistence>>,
    /// Event counters, latency histograms and the uptime epoch.
    pub(crate) metrics: Metrics,
    /// What the lane holder last published for `stats`; `None` for a
    /// purely in-memory registry.
    pub(crate) durability: Option<Durability>,
    /// Retry policy and degraded-mode state.
    pub(crate) resilience: Resilience,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// What the commit path produced.
struct Committed {
    generation: u64,
    /// The member's version sequence number (puts only).
    sequence: u32,
    /// Members after the commit.
    remaining: usize,
    strategy: MergeStrategy,
}

impl Registry {
    /// An empty registry: generation 0, the merge of nothing (the empty
    /// proper schema) as its view.
    pub fn new() -> Self {
        let empty = ProperSchema::try_new(WeakSchema::empty()).expect("the empty schema is proper");
        Registry {
            shared: RwLock::new(Shared {
                generation: 0,
                members: BTreeMap::new(),
                proper: Arc::new(empty),
                report: Arc::new(CompletionReport::default()),
                hash: ViewHash::default(),
                joins: Arc::new(JoinState::default()),
            }),
            lane: Mutex::new(None),
            metrics: Metrics::default(),
            durability: None,
            resilience: Resilience::default(),
        }
    }

    /// Starts configuring a registry: data directory (or custom
    /// [`Store`]), snapshot cadence and retry policy, ending in
    /// [`RegistryBuilder::open`]. `Registry::builder().open()` is
    /// equivalent to [`Registry::new`].
    pub fn builder() -> RegistryBuilder {
        RegistryBuilder::new()
    }

    /// Publishes `schema` as the next version of member `name`.
    ///
    /// Content-addressed: if the canonical content hash equals the
    /// member's current version, nothing is recomputed and no generation
    /// is spent ([`MergeStrategy::Noop`]). Otherwise the merged view is
    /// recomputed — incrementally when a held join of the unchanged
    /// members applies — and committed together with the new immutable
    /// version.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Rejected`] when the published schema is
    /// incompatible with the other members (specialization cycle across
    /// the member set). The registry is left exactly as it was.
    pub fn put(
        &self,
        name: impl Into<String>,
        schema: WeakSchema,
    ) -> Result<PutOutcome, RegistryError> {
        let name = name.into();
        let hash = schema.content_hash();
        let committed = self.commit(&name, Some((hash, Arc::new(schema))))?;
        Ok(PutOutcome {
            hash,
            sequence: committed.sequence,
            generation: committed.generation,
            strategy: committed.strategy,
        })
    }

    /// Removes member `name` and re-merges the remainder (incrementally
    /// when the remainder's join is held — it is whenever `name` was the
    /// member the last commit changed).
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownMember`] when no such member exists.
    pub fn delete(&self, name: &str) -> Result<DeleteOutcome, RegistryError> {
        let committed = self.commit(name, None)?;
        Ok(DeleteOutcome {
            generation: committed.generation,
            remaining: committed.remaining,
            strategy: committed.strategy,
        })
    }

    /// The one commit path of [`put`](Registry::put) (`changed` is the
    /// new version's content hash and schema) and
    /// [`delete`](Registry::delete) (`changed` is `None`). It runs in the
    /// lane: it steps from the held joins the last commit installed,
    /// makes the record durable (WAL before visible), takes the write
    /// lock only to swap in the new version, view and held joins, and
    /// writes a due snapshot after releasing it.
    fn commit(
        &self,
        name: &str,
        changed: Option<(u64, Arc<WeakSchema>)>,
    ) -> Result<Committed, RegistryError> {
        let commit_started = Instant::now();
        let mut commit_span = telemetry::span("commit");
        if let Some((hash, _)) = &changed {
            commit_span.attr("content_hash", *hash);
        }
        let mut lane = self.lane();
        self.check_writable()?;
        let (generation, sequence, rest, joins) = {
            let shared = self.shared.read().expect("registry lock");
            let record = shared.members.get(name);
            match (record, &changed) {
                (Some(record), Some((hash, _))) if record.current.hash == *hash => {
                    self.metrics.noop.fetch_add(1, Ordering::Relaxed);
                    return Ok(Committed {
                        generation: shared.generation,
                        sequence: record.current.sequence,
                        remaining: shared.members.len(),
                        strategy: MergeStrategy::Noop,
                    });
                }
                (None, None) => return Err(RegistryError::UnknownMember(name.to_string())),
                _ => {}
            }
            let rest: Vec<Part> = shared
                .members
                .iter()
                .filter(|(n, _)| n.as_str() != name)
                .map(|(n, r)| member_part(n, &r.current.schema))
                .collect();
            (
                shared.generation + 1,
                record.map_or(0, |r| r.history.len() as u32) + 1,
                rest,
                Arc::clone(&shared.joins),
            )
        };

        let part = changed
            .as_ref()
            .map(|(_, schema)| member_part(name, schema));
        let step = joins
            .step(&rest, Some(name), part.as_ref())
            .map_err(|cause| self.reject(name, cause))?;
        let steps = match step.strategy {
            MergeStrategy::Full => &self.metrics.cold_steps,
            _ => &self.metrics.held_steps,
        };
        steps.fetch_add(1, Ordering::Relaxed);

        // Durability point: the record is fsync'd before any shared state
        // mutates, so a storage failure rejects the commit with the
        // registry untouched, and a crash after this line replays to
        // exactly this state. The view hash the record carries is
        // installed with the view; an in-memory commit leaves it to the
        // first reader.
        let view_hash_cell = OnceLock::new();
        if let Some(p) = lane.persistence.as_mut() {
            let view_hash = *view_hash_cell.get_or_init(|| hash_view(&step.report.proper));
            let record = match &changed {
                Some((hash, schema)) => WalRecord::Put {
                    generation,
                    member: name.to_string(),
                    hash: *hash,
                    sequence,
                    view_hash,
                    schema: (!p.on_disk.contains(hash)).then(|| Arc::clone(schema)),
                },
                None => WalRecord::Delete {
                    generation,
                    member: name.to_string(),
                    view_hash,
                },
            };
            self.durable_append(p, &record)?;
            if let Some((hash, _)) = &changed {
                p.on_disk.insert(*hash);
            }
        }
        let (remaining, superseded) = {
            let mut shared = self.shared.write().expect("registry lock");
            shared.generation = generation;
            match &changed {
                Some((hash, schema)) => version::publish(
                    &mut shared.members,
                    name,
                    SchemaVersion {
                        hash: *hash,
                        sequence,
                        generation,
                        schema: Arc::clone(schema),
                    },
                ),
                None => {
                    shared.members.remove(name);
                }
            }
            shared.hash = Arc::new(view_hash_cell);
            let superseded = (
                mem::replace(&mut shared.proper, Arc::new(step.report.proper)),
                mem::replace(&mut shared.report, Arc::new(step.report.implicit)),
                mem::replace(&mut shared.joins, Arc::new(step.state)),
            );
            (shared.members.len(), superseded)
        };
        self.auto_snapshot(lane.persistence.as_mut());

        self.count_commit(step.strategy);
        commit_span.attr("generation", generation);
        self.metrics.commit_latency.record(commit_started.elapsed());
        // The view and joins this commit superseded are freed only once
        // the next writer may start. Freeing them is thousands of
        // deallocations, most into the allocator arena of the thread that
        // built them: under the lane, the next writer waited for them, and
        // reads that allocated from that arena meanwhile slept on its lock.
        drop(lane);
        drop((superseded, joins, rest, part));
        Ok(Committed {
            generation,
            sequence,
            remaining,
            strategy: step.strategy,
        })
    }

    /// The current merged view (three `Arc` clones; never blocks writers
    /// for longer than that).
    pub fn merged(&self) -> MergedView {
        self.shared.read().expect("registry lock").view()
    }

    /// The current generation: the number of commits so far.
    pub fn generation(&self) -> u64 {
        self.shared.read().expect("registry lock").generation
    }

    /// The compiled pre-completion join of every current member version —
    /// the registry's contribution to a federated supergraph compose
    /// (`crates/supergraph`) — with the committed view of the same
    /// generation. Every commit installs this join as the total of its
    /// held joins, so a call is a few `Arc` clones plus the member list.
    ///
    /// The join is not the merged view: completion has not run, no
    /// implicit classes are present — exactly the representation the
    /// composition law `⊔ᵢⱼGᵢⱼ = ⊔ᵢ(⊔ⱼGᵢⱼ)` needs to make a supergraph
    /// compose equal to the one-shot merge of every member everywhere.
    /// Completion is a function of the join, so a supergraph of this
    /// registry alone serves the view as it is.
    pub fn compiled_join(&self) -> RegistryJoin {
        let shared = self.shared.read().expect("registry lock");
        RegistryJoin {
            generation: shared.generation,
            members: shared
                .members
                .iter()
                .map(|(n, r)| (n.clone(), r.current.clone()))
                .collect(),
            join: Arc::clone(shared.joins.total()),
            view: shared.view(),
        }
    }

    /// The current version of member `name`.
    pub fn get(&self, name: &str) -> Option<SchemaVersion> {
        let shared = self.shared.read().expect("registry lock");
        shared.members.get(name).map(|r| r.current.clone())
    }

    /// The identities of every version member `name` has published,
    /// oldest first. Only the current version's body is kept; it is
    /// [`get`](Registry::get).
    pub fn history(&self, name: &str) -> Option<Vec<VersionMeta>> {
        let shared = self.shared.read().expect("registry lock");
        shared.members.get(name).map(|r| r.history.clone())
    }

    /// All members with their current-version identity, sorted by name.
    pub fn list(&self) -> Vec<MemberInfo> {
        let shared = self.shared.read().expect("registry lock");
        shared
            .members
            .iter()
            .map(|(name, record)| {
                let current = &record.current;
                MemberInfo {
                    name: name.clone(),
                    hash: current.hash,
                    sequence: current.sequence,
                    versions: record.history.len(),
                    num_classes: current.schema.num_classes(),
                    num_arrows: current.schema.num_arrows(),
                }
            })
            .collect()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.shared.read().expect("registry lock").members.len()
    }

    /// Whether the registry has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evaluates a schema-space path query against the merged view:
    /// which classes does the path reach in the canonical merged schema
    /// ([`PathQuery::eval_classes`]).
    pub fn query(&self, query: &PathQuery) -> BTreeSet<Class> {
        let view = self.merged();
        query.eval_classes(view.proper.as_weak())
    }

    /// Forces a snapshot and log compaction now, regardless of cadence:
    /// every member's version history and current schema body are
    /// written as one atomically-installed image, the WAL is
    /// truncated, and superseded snapshot objects are removed. Returns
    /// the generation the snapshot captured. It runs in the lane, so it
    /// never truncates a record a concurrent commit has appended.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NotPersistent`] for a registry opened without a
    /// data dir or store; [`RegistryError::Storage`] when the store
    /// fails — the previous snapshot and the log are still intact then
    /// (the new image is installed before anything is discarded), so
    /// nothing committed is ever lost.
    pub fn snapshot(&self) -> Result<u64, RegistryError> {
        let mut lane = self.lane();
        self.check_writable()?;
        let p = lane
            .persistence
            .as_mut()
            .ok_or(RegistryError::NotPersistent)?;
        Ok(self.write_snapshot(p)?)
    }

    /// Takes the writer lane.
    fn lane(&self) -> Lane<'_> {
        Lane {
            persistence: self.lane.lock().expect("registry lane"),
            durability: self.durability.as_ref(),
        }
    }

    /// The registry's status snapshot — state sizes, merged-view shape,
    /// held joins, engine counters, durability, resilience and latency
    /// histograms in one [`RegistryStats`]. State sizes and merged-view
    /// shape are coherent (read under one lock acquisition); the
    /// durability and fault fields are what the last writer published on
    /// releasing the lane, and the counters and histograms are monotone.
    /// All of those are atomics, so this never waits on a writer.
    pub fn stats(&self) -> RegistryStats {
        let (generation, members, total_versions, view, joins_held) = {
            let shared = self.shared.read().expect("registry lock");
            (
                shared.generation,
                shared.members.len(),
                shared.members.values().map(|r| r.history.len()).sum(),
                shared.view(),
                shared.joins.held(),
            )
        };
        let weak = view.proper.as_weak();
        let metrics = &self.metrics;
        let resilience = &self.resilience;
        let mut stats = RegistryStats {
            generation,
            members,
            total_versions,
            merged_classes: weak.num_classes(),
            merged_arrows: weak.num_arrows(),
            merged_specializations: weak.num_specializations(),
            implicit_classes: view.report.num_implicit(),
            merged_hash: view.hash(),
            incremental_merges: metrics.incremental.load(Ordering::Relaxed),
            full_merges: metrics.full.load(Ordering::Relaxed),
            noop_puts: metrics.noop.load(Ordering::Relaxed),
            rejected_puts: metrics.rejected.load(Ordering::Relaxed),
            joins_held,
            held_join_steps: metrics.held_steps.load(Ordering::Relaxed),
            cold_join_steps: metrics.cold_steps.load(Ordering::Relaxed),
            uptime_secs: metrics.started_at.elapsed().as_secs(),
            requests_served: metrics.requests.load(Ordering::Relaxed),
            degraded: resilience.degraded.load(Ordering::SeqCst),
            storage_retries: resilience.storage_retries.load(Ordering::Relaxed),
            degrade_events: resilience.degrade_events.load(Ordering::Relaxed),
            heal_events: resilience.heal_events.load(Ordering::Relaxed),
            last_storage_error: resilience
                .last_error
                .lock()
                .expect("resilience lock")
                .clone(),
            commit_latency: metrics.commit_latency.snapshot(),
            fsync_latency: metrics.fsync_latency.snapshot(),
            recovery_latency: metrics.recovery_latency.snapshot(),
            ..RegistryStats::default()
        };
        if let Some(durability) = &self.durability {
            durability.report(&mut stats);
        }
        stats
    }

    // ---- resilience ------------------------------------------------------

    /// Whether the registry is in degraded read-only mode.
    pub fn is_degraded(&self) -> bool {
        self.resilience.degraded.load(Ordering::SeqCst)
    }

    /// Probes the store and heals a degraded registry back to writable.
    /// Returns `true` when the registry is writable after the call.
    ///
    /// The probe repairs any torn log tail left by the failed append
    /// and asks the store for its log length; if both succeed the
    /// degraded flag clears. Nothing is replayed: the commit whose
    /// failure triggered degradation was never acknowledged, so the
    /// in-memory view and the WAL never diverged. The `smerge serve`
    /// daemon calls this from a background thread; embedders can call
    /// it on whatever cadence suits them.
    pub fn probe_now(&self) -> bool {
        if !self.resilience.degraded.load(Ordering::SeqCst) {
            return true;
        }
        let mut lane = self.lane();
        let Some(p) = lane.persistence.as_mut() else {
            // Degradation without a store cannot arise, but heal anyway.
            self.heal();
            return true;
        };
        let probe = p
            .repair_torn()
            .and_then(|()| p.store.log_bytes().map(|_| ()));
        match probe {
            Ok(()) => {
                self.heal();
                true
            }
            Err(err) => {
                self.resilience.note_error(&err);
                false
            }
        }
    }

    /// Rejects writes while degraded, with the stable `E-DEGRADED` code.
    fn check_writable(&self) -> Result<(), RegistryError> {
        if self.resilience.degraded.load(Ordering::SeqCst) {
            let detail = self
                .resilience
                .last_error
                .lock()
                .expect("resilience lock")
                .clone()
                .unwrap_or_else(|| "storage unavailable".to_string());
            return Err(RegistryError::Degraded { detail });
        }
        Ok(())
    }

    /// Appends one commit record, repairing any torn partial frame a
    /// failed append left first, and retrying transient storage failures
    /// under the configured policy. With no policy the append is
    /// fail-fast and never degrades. Exhausting the budget — or a
    /// permanent failure — flips the registry into degraded read-only
    /// mode; the exhausting error itself surfaces as
    /// [`RegistryError::Storage`] since this commit was never
    /// acknowledged.
    fn durable_append(&self, p: &mut Persistence, record: &WalRecord) -> Result<(), RegistryError> {
        let fsync = &self.metrics.fsync_latency;
        let Some(policy) = &self.resilience.policy else {
            return Ok(p.repair_torn().and_then(|()| p.append(record, fsync))?);
        };
        let mut attempt: u32 = 0;
        loop {
            match p.repair_torn().and_then(|()| p.append(record, fsync)) {
                Ok(()) => return Ok(()),
                Err(err) => {
                    self.resilience.note_error(&err);
                    if err.is_transient() && attempt < policy.max_retries() {
                        attempt += 1;
                        self.resilience
                            .storage_retries
                            .fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(policy.backoff(attempt, record.generation()));
                        continue;
                    }
                    self.enter_degraded();
                    return Err(RegistryError::Storage(err));
                }
            }
        }
    }

    fn enter_degraded(&self) {
        if !self.resilience.degraded.swap(true, Ordering::SeqCst) {
            self.resilience
                .degrade_events
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    fn heal(&self) {
        if self.resilience.degraded.swap(false, Ordering::SeqCst) {
            self.resilience.heal_events.fetch_add(1, Ordering::Relaxed);
        }
    }

    // ---- telemetry -------------------------------------------------------

    /// Notes one served request. The registry never counts for itself —
    /// its front end (the `smerge serve` transport loop) calls this once
    /// per protocol request, making [`RegistryStats::requests_served`]
    /// a service-level counter rather than an engine one.
    pub fn note_request(&self) {
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
    }

    // ---- engine internals ------------------------------------------------

    fn count_commit(&self, strategy: MergeStrategy) {
        let counter = match strategy {
            MergeStrategy::Incremental => &self.metrics.incremental,
            MergeStrategy::Full => &self.metrics.full,
            MergeStrategy::Noop => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn reject(&self, member: &str, cause: MergeError) -> RegistryError {
        self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        RegistryError::Rejected {
            member: member.to_string(),
            cause,
        }
    }

    /// Compacts if the auto-snapshot cadence is due. Called in the lane,
    /// after a commit installed its state and released the write lock.
    /// Errors are swallowed: the commit is already durable in the log,
    /// and the snapshot will simply be retried at the next commit.
    fn auto_snapshot(&self, persistence: Option<&mut Persistence>) {
        let Some(p) = persistence else {
            return;
        };
        if p.snapshot_every > 0 && p.records_since_snapshot >= p.snapshot_every {
            let _ = self.write_snapshot(p);
        }
    }

    /// Snapshots the installed state. The caller holds the lane, so the
    /// state cannot move while the read lock is held; readers share that
    /// lock, so none waits on the write.
    fn write_snapshot(&self, p: &mut Persistence) -> Result<u64, StorageError> {
        let shared = self.shared.read().expect("registry lock");
        let view_hash = *shared.hash.get_or_init(|| hash_view(&shared.proper));
        p.write_snapshot(&shared.members, shared.generation, view_hash)
    }
}

/// Member `name`'s schema as a part of the registry's join.
pub(crate) fn member_part(name: &str, schema: &Arc<WeakSchema>) -> Part {
    Part {
        key: name.to_string(),
        body: Body::Schema(Arc::clone(schema)),
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Registry")
            .field("generation", &stats.generation)
            .field("members", &stats.members)
            .field("merged_classes", &stats.merged_classes)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{FaultSchedule, FaultStore, MemoryStore, OpKind};
    use schema_merge_core::Merger;
    use std::cell::Cell;
    use std::time::Duration;

    thread_local! {
        /// View hashes [`hash_view`] computed on this thread.
        pub(super) static VIEW_HASHES: Cell<u64> = const { Cell::new(0) };
    }

    fn view_hashes() -> u64 {
        VIEW_HASHES.with(Cell::get)
    }

    fn schema(src: &str, label: &str, tgt: &str) -> WeakSchema {
        WeakSchema::builder()
            .arrow(src, label, tgt)
            .build()
            .unwrap()
    }

    /// The key invariant: the registry's view equals the one-shot merge
    /// of its current members.
    fn assert_view_matches_oneshot(registry: &Registry) {
        let members = registry.list();
        let schemas: Vec<Arc<WeakSchema>> = members
            .iter()
            .map(|m| registry.get(&m.name).unwrap().schema)
            .collect();
        let oneshot = Merger::new()
            .schemas(schemas.iter().map(|s| s.as_ref()))
            .execute()
            .unwrap();
        let view = registry.merged();
        assert_eq!(view.proper.as_ref(), &oneshot.proper);
        assert_eq!(view.report.as_ref(), &oneshot.implicit);
    }

    #[test]
    fn empty_registry_serves_the_empty_merge() {
        let registry = Registry::new();
        let view = registry.merged();
        assert_eq!(view.generation, 0);
        assert_eq!(view.proper.num_classes(), 0);
        assert!(registry.is_empty());
        assert_view_matches_oneshot(&registry);
    }

    #[test]
    fn puts_accumulate_and_version() {
        let registry = Registry::new();
        let first = registry
            .put("inv", schema("Part", "price", "money"))
            .unwrap();
        assert_eq!((first.sequence, first.generation), (1, 1));
        let second = registry
            .put("orders", schema("Order", "item", "Part"))
            .unwrap();
        assert_eq!((second.sequence, second.generation), (1, 2));
        let third = registry.put("inv", schema("Part", "weight", "kg")).unwrap();
        assert_eq!((third.sequence, third.generation), (2, 3));

        assert_eq!(registry.len(), 2);
        assert_eq!(registry.history("inv").unwrap().len(), 2);
        let current = registry.get("inv").unwrap();
        assert_eq!(current.sequence, 2);
        assert!(current.schema.contains_class(&Class::named("kg")));
        assert_view_matches_oneshot(&registry);
    }

    #[test]
    fn republish_same_content_is_a_noop() {
        let registry = Registry::new();
        let g = schema("Part", "price", "money");
        let first = registry.put("inv", g.clone()).unwrap();
        let again = registry.put("inv", g).unwrap();
        assert_eq!(again.strategy, MergeStrategy::Noop);
        assert_eq!(again.generation, first.generation, "no generation spent");
        assert_eq!(again.sequence, first.sequence);
        assert_eq!(registry.history("inv").unwrap().len(), 1);
        assert_eq!(registry.stats().noop_puts, 1);
    }

    #[test]
    fn growth_is_incremental_and_churn_warms_up() {
        let registry = Registry::new();
        // Sequential growth: every put after the first finds the previous
        // total join in the cache.
        registry.put("a", schema("A", "x", "T")).unwrap();
        let b = registry.put("b", schema("B", "x", "T")).unwrap();
        let c = registry.put("c", schema("C", "x", "T")).unwrap();
        assert_eq!(b.strategy, MergeStrategy::Incremental);
        assert_eq!(c.strategy, MergeStrategy::Incremental);

        // First republish of `a` misses ({b,c} was never joined alone)…
        let cold = registry.put("a", schema("A", "y", "U")).unwrap();
        assert_eq!(cold.strategy, MergeStrategy::Full);
        // …and seeds the cache, so churning `a` is incremental from then on.
        let warm = registry.put("a", schema("A", "z", "V")).unwrap();
        assert_eq!(warm.strategy, MergeStrategy::Incremental);
        let stats = registry.stats();
        assert!(stats.incremental_merges >= 3);
        assert_view_matches_oneshot(&registry);
    }

    #[test]
    fn incompatible_publish_is_rejected_without_damage() {
        let registry = Registry::new();
        registry
            .put(
                "up",
                WeakSchema::builder().specialize("A", "B").build().unwrap(),
            )
            .unwrap();
        let before = registry.merged();
        let err = registry
            .put(
                "down",
                WeakSchema::builder().specialize("B", "A").build().unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, RegistryError::Rejected { ref member, .. } if member == "down"));
        let after = registry.merged();
        assert_eq!(after.generation, before.generation);
        assert_eq!(after.proper, before.proper);
        assert!(registry.get("down").is_none());
        assert_eq!(registry.stats().rejected_puts, 1);
        assert_view_matches_oneshot(&registry);
    }

    #[test]
    fn delete_removes_contribution() {
        let registry = Registry::new();
        registry.put("a", schema("A", "x", "T")).unwrap();
        registry.put("b", schema("B", "y", "U")).unwrap();
        let outcome = registry.delete("a").unwrap();
        assert_eq!(outcome.remaining, 1);
        let view = registry.merged();
        assert!(!view.proper.contains_class(&Class::named("A")));
        assert!(view.proper.contains_class(&Class::named("B")));
        assert_view_matches_oneshot(&registry);

        assert!(matches!(
            registry.delete("a"),
            Err(RegistryError::UnknownMember(_))
        ));
    }

    #[test]
    fn delete_after_publish_hits_the_cache() {
        let registry = Registry::new();
        registry.put("a", schema("A", "x", "T")).unwrap();
        registry.put("b", schema("B", "y", "U")).unwrap();
        // Publishing `b` cached the rest-join {a}; deleting `b` needs
        // exactly that set.
        let outcome = registry.delete("b").unwrap();
        assert_eq!(outcome.strategy, MergeStrategy::Incremental);
        assert_view_matches_oneshot(&registry);
    }

    #[test]
    fn implicit_classes_flow_through_the_view() {
        let registry = Registry::new();
        registry.put("one", schema("C", "a", "B1")).unwrap();
        registry.put("two", schema("C", "a", "B2")).unwrap();
        let view = registry.merged();
        assert_eq!(view.report.num_implicit(), 1);
        let implicit = Class::implicit([Class::named("B1"), Class::named("B2")]);
        assert!(view.proper.contains_class(&implicit));
        let stats = registry.stats();
        assert_eq!(stats.implicit_classes, 1);
        assert_eq!(stats.merged_hash, view.hash());
    }

    /// A durable commit hashes its view once, for the WAL record, and
    /// every later reader of that generation reads the stored hash; an
    /// in-memory commit hashes nothing until the first reader asks.
    #[test]
    fn each_view_is_hashed_once() {
        let durable = Registry::builder()
            .store(MemoryStore::new())
            .snapshot_every(2)
            .open()
            .unwrap();
        for (i, member) in ["a", "b", "c"].into_iter().enumerate() {
            let before = view_hashes();
            durable.put(member, schema(member, "x", "T")).unwrap();
            // The second commit's auto-snapshot reuses the stored hash.
            assert_eq!(view_hashes() - before, 1, "commit {i}");
            let before = view_hashes();
            let stats = durable.stats();
            let view = durable.merged();
            assert_eq!(stats.merged_hash, view.hash());
            assert_eq!(view_hashes(), before, "reads after commit {i}");
            assert_eq!(view.hash(), view.proper.content_hash());
        }
        assert_eq!(durable.stats().snapshots_written, 1);
        durable.delete("a").unwrap();
        let before = view_hashes();
        durable.snapshot().unwrap();
        assert_eq!(durable.merged().hash(), durable.stats().merged_hash);
        assert_eq!(view_hashes(), before);

        let memory = Registry::new();
        let before = view_hashes();
        memory.put("a", schema("A", "x", "T")).unwrap();
        memory.put("b", schema("B", "y", "U")).unwrap();
        assert_eq!(view_hashes(), before, "in-memory commits hash nothing");
        let hash = memory.merged().hash();
        assert_eq!(memory.stats().merged_hash, hash);
        assert_eq!(memory.merged().hash(), hash);
        assert_eq!(view_hashes() - before, 1, "the first reader hashes once");
    }

    /// The view handed out with the join shares the installed view's
    /// hash cell: whichever handle asks first, the view is hashed once.
    #[test]
    fn the_view_taken_with_the_join_shares_its_hash() {
        let registry = Registry::new();
        registry.put("a", schema("A", "x", "T")).unwrap();
        let joined = registry.compiled_join();
        assert_eq!(joined.view.generation, joined.generation);
        assert!(Arc::ptr_eq(&joined.view.proper, &registry.merged().proper));
        let before = view_hashes();
        let hash = joined.view.hash();
        assert_eq!(registry.merged().hash(), hash);
        assert_eq!(registry.stats().merged_hash, hash);
        assert_eq!(registry.compiled_join().view.hash(), hash);
        assert_eq!(view_hashes() - before, 1);
    }

    #[test]
    fn schema_space_queries_answer_from_the_merged_view() {
        let registry = Registry::new();
        registry
            .put("dogs", schema("Dog", "owner", "Person"))
            .unwrap();
        registry
            .put(
                "kinds",
                WeakSchema::builder()
                    .specialize("Guide-dog", "Dog")
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let owners = registry.query(&PathQuery::extent("Dog").follow("owner"));
        assert_eq!(owners, [Class::named("Person")].into());
        let dogs = registry.query(&PathQuery::extent("Dog"));
        assert!(dogs.contains(&Class::named("Guide-dog")));
    }

    #[test]
    fn concurrent_writers_converge_to_the_oneshot_merge() {
        let registry = Arc::new(Registry::new());
        let threads = 8;
        let rounds = 6;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    for round in 0..rounds {
                        let name = format!("member-{t}");
                        let g = WeakSchema::builder()
                            .arrow(
                                format!("Shared{}", (t + round) % 3),
                                format!("attr-{t}-{round}"),
                                "T",
                            )
                            .build()
                            .unwrap();
                        registry.put(name, g).unwrap();
                        // Interleave reads to exercise the read path.
                        let _ = registry.merged();
                        let _ = registry.stats();
                    }
                });
            }
        });
        let stats = registry.stats();
        assert_eq!(registry.len(), threads);
        assert_eq!(
            stats.generation,
            stats.incremental_merges + stats.full_merges,
            "every commit spent exactly one generation"
        );
        assert_eq!(stats.generation as usize, threads * rounds);
        assert_eq!(
            stats.held_join_steps + stats.cold_join_steps,
            stats.generation,
            "every merge step was committed"
        );
        assert_view_matches_oneshot(&registry);
    }

    /// Runs `write` on another thread and, once it is inside a delayed
    /// storage call, times each named read on this one: none may wait
    /// for the storage call.
    fn assert_reads_skip_the_storage_wait(
        schedule: &FaultSchedule,
        reads: &[(&str, &dyn Fn())],
        write: impl FnOnce() + Send,
    ) {
        let delayed = schedule.counters().delayed;
        std::thread::scope(|scope| {
            let writer = scope.spawn(write);
            while schedule.counters().delayed == delayed {
                std::thread::yield_now();
            }
            let waits: Vec<(&str, Duration)> = reads
                .iter()
                .map(|(name, read)| {
                    let started = Instant::now();
                    read();
                    (*name, started.elapsed())
                })
                .collect();
            let during = !writer.is_finished();
            writer.join().unwrap();
            for (name, wait) in waits {
                assert!(
                    wait < Duration::from_millis(20),
                    "{name} waited {wait:?} for storage"
                );
            }
            assert!(during, "the reads ran after the storage call");
        });
    }

    fn faulty_registry(snapshot_every: u64) -> (Registry, FaultSchedule) {
        let schedule = FaultSchedule::new(1);
        let registry = Registry::builder()
            .store(FaultStore::new(MemoryStore::new(), schedule.clone()))
            .snapshot_every(snapshot_every)
            .open()
            .unwrap();
        registry.put("a", schema("A", "x", "T")).unwrap();
        (registry, schedule)
    }

    #[test]
    fn readers_never_wait_for_a_wal_append() {
        let (registry, schedule) = faulty_registry(0);
        let schedule = schedule.latency(OpKind::Append, Duration::from_millis(200));
        let get = || assert!(registry.get("a").is_some());
        let merged = || drop(registry.merged());
        assert_reads_skip_the_storage_wait(
            &schedule,
            &[("GET", &get), ("MERGED", &merged)],
            || {
                registry.put("b", schema("B", "y", "U")).unwrap();
            },
        );
        assert_view_matches_oneshot(&registry);
    }

    #[test]
    fn readers_never_wait_for_an_auto_snapshot() {
        let (registry, schedule) = faulty_registry(1);
        let schedule = schedule.latency(OpKind::WriteSnapshot, Duration::from_millis(200));
        let get = || assert!(registry.get("a").is_some());
        let merged = || drop(registry.merged());
        assert_reads_skip_the_storage_wait(
            &schedule,
            &[("GET", &get), ("MERGED", &merged)],
            || {
                registry.put("b", schema("B", "y", "U")).unwrap();
            },
        );
        assert_eq!(registry.stats().snapshot_generation, 2);
    }

    /// STATS (and so HEALTH and METRICS) reads the durability fields the
    /// lane holder published, never the store behind the lane: it does
    /// not wait for a commit's append, and it sees that commit's record
    /// once the lane is released.
    #[test]
    fn stats_never_waits_for_a_wal_append() {
        let (registry, schedule) = faulty_registry(0);
        let schedule = schedule.latency(OpKind::Append, Duration::from_millis(200));
        let before = registry.stats();
        assert_eq!(
            (before.wal_records, before.fault_counters.unwrap().delayed),
            (1, 0)
        );
        let stats = || drop(registry.stats());
        assert_reads_skip_the_storage_wait(&schedule, &[("STATS", &stats)], || {
            registry.put("b", schema("B", "y", "U")).unwrap();
        });
        let after = registry.stats();
        assert_eq!(
            (after.wal_records, after.fault_counters.unwrap().delayed),
            (2, 1)
        );
        assert!(after.wal_bytes > before.wal_bytes);
    }

    #[test]
    fn latency_histograms_and_request_counter_track_the_service() {
        let registry = Registry::new();
        registry.put("a", schema("A", "x", "T")).unwrap();
        registry.put("b", schema("B", "y", "U")).unwrap();
        // A noop republish spends no generation and records no commit.
        registry.put("a", schema("A", "x", "T")).unwrap();
        let stats = registry.stats();
        assert_eq!(
            stats.commit_latency.count, 2,
            "one sample per generation-spending commit"
        );
        assert!(stats.commit_latency.sum_ns > 0);
        assert_eq!(
            stats.fsync_latency.count, 0,
            "an in-memory registry never waits on a WAL"
        );
        assert_eq!(stats.recovery_latency.count, 0);
        assert_eq!(stats.requests_served, 0);

        registry.note_request();
        registry.note_request();
        assert_eq!(registry.stats().requests_served, 2);
    }

    #[test]
    fn concurrent_same_member_races_serialize() {
        let registry = Arc::new(Registry::new());
        std::thread::scope(|scope| {
            for round in 0..8 {
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    let g = schema("X", &format!("v{round}"), "T");
                    registry.put("contended", g).unwrap();
                });
            }
        });
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.history("contended").unwrap().len(), 8);
        assert_view_matches_oneshot(&registry);
    }
}
