//! Durability tests: WAL replay, torn tails, corrupt frames and
//! snapshots, compaction, and a differential property test that reopens
//! a durable registry after random workloads and compares it against a
//! never-persisted reference fed the same commits.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use proptest::collection::vec;
use proptest::prelude::*;

use schema_merge_core::WeakSchema;
use schema_merge_registry::storage::{
    Fault, FaultSchedule, FaultStore, MemoryStore, OpKind, StorageError, Store,
};
use schema_merge_registry::{Registry, RegistryError};
use schema_merge_workload::{schema_family, SchemaParams};

fn schema(src: &str, label: &str, tgt: &str) -> WeakSchema {
    WeakSchema::builder()
        .arrow(src, label, tgt)
        .build()
        .unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smerge-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Asserts two registries are observably identical: generation, merged
/// view (schema and completion report), member histories and current
/// bodies.
fn assert_same_registry(recovered: &Registry, reference: &Registry) {
    let (a, b) = (recovered.merged(), reference.merged());
    assert_eq!(a.generation, b.generation);
    assert_eq!(a.proper.as_ref(), b.proper.as_ref());
    assert_eq!(a.report.as_ref(), b.report.as_ref());
    let (la, lb) = (recovered.list(), reference.list());
    assert_eq!(la, lb);
    for m in &la {
        assert_eq!(
            recovered.history(&m.name),
            reference.history(&m.name),
            "member {}",
            m.name
        );
        let (ga, gb) = (
            recovered.get(&m.name).unwrap(),
            reference.get(&m.name).unwrap(),
        );
        assert_eq!(ga.schema.as_ref(), gb.schema.as_ref(), "member {}", m.name);
    }
}

#[test]
fn reopen_recovers_state_and_continues_the_lineage() {
    let dir = temp_dir("reopen");
    let reference = Registry::new();
    {
        let registry = Registry::builder().data_dir(&dir).open().unwrap();
        for r in [&registry, &reference] {
            r.put("inv", schema("Part", "price", "money")).unwrap();
            r.put("orders", schema("Order", "item", "Part")).unwrap();
            r.put("inv", schema("Part", "weight", "kg")).unwrap();
            r.delete("orders").unwrap();
            r.put("orders", schema("Order", "qty", "int")).unwrap();
        }
    }

    let recovered = Registry::builder().data_dir(&dir).open().unwrap();
    assert_same_registry(&recovered, &reference);
    let stats = recovered.stats();
    assert!(stats.persistent);
    assert_eq!(stats.wal_records, 5);

    // Commits continue the generation lineage, durably.
    recovered
        .put("inv", schema("Part", "color", "str"))
        .unwrap();
    reference
        .put("inv", schema("Part", "color", "str"))
        .unwrap();
    drop(recovered);
    let again = Registry::builder().data_dir(&dir).open().unwrap();
    assert_same_registry(&again, &reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_drops_only_the_unacknowledged_commit() {
    let dir = temp_dir("torn");
    {
        let registry = Registry::builder()
            .data_dir(&dir)
            .snapshot_every(0)
            .open()
            .unwrap();
        registry.put("a", schema("A", "x", "T")).unwrap();
        registry.put("b", schema("B", "y", "U")).unwrap();
        registry.put("c", schema("C", "z", "V")).unwrap();
    }
    // Tear bytes off the log tail — as if the machine died mid-append of
    // the third record.
    let wal = dir.join("wal.log");
    let image = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &image[..image.len() - 10]).unwrap();

    let recovered = Registry::builder().data_dir(&dir).open().unwrap();
    let reference = Registry::new();
    reference.put("a", schema("A", "x", "T")).unwrap();
    reference.put("b", schema("B", "y", "U")).unwrap();
    assert_same_registry(&recovered, &reference);

    // The torn tail was truncated away: appends resume cleanly and a
    // further reopen sees the new commit.
    recovered.put("c", schema("C", "z", "V")).unwrap();
    reference.put("c", schema("C", "z", "V")).unwrap();
    drop(recovered);
    let again = Registry::builder().data_dir(&dir).open().unwrap();
    assert_same_registry(&again, &reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_wal_frame_stops_replay_at_the_last_good_commit() {
    let dir = temp_dir("corrupt-frame");
    {
        let registry = Registry::builder()
            .data_dir(&dir)
            .snapshot_every(0)
            .open()
            .unwrap();
        registry.put("a", schema("A", "x", "T")).unwrap();
        registry.put("b", schema("B", "y", "U")).unwrap();
    }
    // Flip a byte inside the last frame's payload: its checksum fails,
    // so replay keeps only the first commit.
    let wal = dir.join("wal.log");
    let mut image = std::fs::read(&wal).unwrap();
    let last = image.len() - 3;
    image[last] ^= 0xff;
    std::fs::write(&wal, &image).unwrap();

    let recovered = Registry::builder().data_dir(&dir).open().unwrap();
    let reference = Registry::new();
    reference.put("a", schema("A", "x", "T")).unwrap();
    assert_same_registry(&recovered, &reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_is_a_hard_error_not_a_fallback() {
    let dir = temp_dir("corrupt-snap");
    {
        let registry = Registry::builder().data_dir(&dir).open().unwrap();
        registry.put("a", schema("A", "x", "T")).unwrap();
        registry.snapshot().unwrap();
    }
    // Only the latest snapshot is usable (the log was truncated when it
    // was installed), so damage to it must refuse to open — falling back
    // to nothing would silently lose committed data.
    let snap = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|ext| ext == "snap"))
        .expect("snapshot object exists");
    let mut image = std::fs::read(&snap).unwrap();
    let mid = image.len() / 2;
    image[mid] ^= 0x01;
    std::fs::write(&snap, &image).unwrap();

    let err = Registry::builder().data_dir(&dir).open().unwrap_err();
    assert!(
        matches!(err, RegistryError::Storage(StorageError::Corrupt { .. })),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_and_replay_after_it_yield_identical_views() {
    let dir = temp_dir("compaction");
    let reference = Registry::new();
    {
        let registry = Registry::builder()
            .data_dir(&dir)
            .snapshot_every(0)
            .open()
            .unwrap();
        for r in [&registry, &reference] {
            r.put("a", schema("A", "x", "T")).unwrap();
            r.put("b", schema("B", "y", "U")).unwrap();
            r.put("a", schema("A", "z", "V")).unwrap();
        }
        let generation = registry.snapshot().unwrap();
        assert_eq!(generation, 3);
        let stats = registry.stats();
        assert_eq!(stats.wal_records, 0, "compaction truncated the log");
        assert_eq!(stats.snapshot_generation, 3);
        assert_eq!(stats.snapshots_written, 1);

        // Post-snapshot commits land in the fresh log.
        registry.put("c", schema("C", "w", "W")).unwrap();
        reference.put("c", schema("C", "w", "W")).unwrap();
    }

    // Recovery = snapshot + WAL suffix.
    let recovered = Registry::builder().data_dir(&dir).open().unwrap();
    assert_same_registry(&recovered, &reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn auto_snapshot_cadence_compacts_during_commits() {
    let dir = temp_dir("cadence");
    let reference = Registry::new();
    {
        let registry = Registry::builder()
            .data_dir(&dir)
            .snapshot_every(4)
            .open()
            .unwrap();
        for i in 0..10 {
            let g = schema(&format!("C{i}"), "f", "T");
            registry.put(format!("m{i}"), g.clone()).unwrap();
            reference.put(format!("m{i}"), g).unwrap();
        }
        let stats = registry.stats();
        assert!(stats.snapshots_written >= 2, "{stats:?}");
        assert!(stats.wal_records < 10, "{stats:?}");
    }
    let recovered = Registry::builder().data_dir(&dir).open().unwrap();
    assert_same_registry(&recovered, &reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn content_hash_dedup_bounds_log_growth_under_flapping() {
    let registry = Registry::builder()
        .store(MemoryStore::new())
        .snapshot_every(0)
        .open()
        .unwrap();
    let v1 = schema("Part", "price", "money");
    let v2 = schema("Part", "weight", "kg");
    registry.put("flappy", v1.clone()).unwrap();
    registry.put("flappy", v2.clone()).unwrap();
    let after_bodies = registry.stats().wal_bytes;
    // Every further flap appends a by-reference record: a few dozen
    // bytes of framing and metadata, never another schema body.
    for _ in 0..10 {
        registry.put("flappy", v1.clone()).unwrap();
        registry.put("flappy", v2.clone()).unwrap();
    }
    let growth = registry.stats().wal_bytes - after_bodies;
    assert!(
        growth < 20 * 100,
        "20 by-reference flaps grew the log by {growth} B"
    );
}

/// A schema of `arrows` arrows out of `class` — big enough that a record
/// carrying its body dwarfs a by-reference one.
fn wide(class: &str, arrows: usize) -> WeakSchema {
    let mut builder = WeakSchema::builder();
    for i in 0..arrows {
        builder = builder.arrow(class, format!("attr{i}"), format!("Type{i}"));
    }
    builder.build().unwrap()
}

/// The registry keeps only each member's current body: once v2 is
/// published nothing it owns still holds v1's schema, in memory or
/// durable, while every count of versions stays what it was.
#[test]
fn superseded_bodies_are_released_but_versions_still_counted() {
    let dir = temp_dir("release");
    let durable = Registry::builder().data_dir(&dir).open().unwrap();
    for registry in [&Registry::new(), &durable] {
        registry
            .put("inv", schema("Part", "price", "money"))
            .unwrap();
        let v1 = Arc::downgrade(&registry.get("inv").unwrap().schema);
        assert!(v1.upgrade().is_some(), "the current body is kept");
        registry.put("inv", schema("Part", "weight", "kg")).unwrap();
        assert!(v1.upgrade().is_none(), "the superseded body is released");

        let history = registry.history("inv").unwrap();
        assert_eq!(
            history.iter().map(|v| v.sequence).collect::<Vec<_>>(),
            [1, 2]
        );
        assert_eq!(registry.list()[0].versions, 2);
        assert_eq!(registry.stats().total_versions, 2);
        let current = registry.get("inv").unwrap();
        assert_eq!(history[1], current.meta());
    }

    // A snapshot carries the histories without the old body, and a
    // reopen counts the same versions.
    durable.snapshot().unwrap();
    drop(durable);
    let recovered = Registry::builder().data_dir(&dir).open().unwrap();
    assert_eq!(recovered.history("inv").unwrap().len(), 2);
    assert_eq!(recovered.list()[0].versions, 2);
    assert_eq!(recovered.stats().total_versions, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot holds only current bodies, so compaction resets the WAL's
/// dedup set to them: republishing a body that was superseded before
/// the snapshot must log it in full again, or recovery could not
/// resolve it.
#[test]
fn republishing_a_body_superseded_before_a_snapshot_logs_it_in_full() {
    let dir = temp_dir("republish");
    let (a, b) = (wide("Part", 24), wide("Order", 24));
    let reference = Registry::new();
    {
        let registry = Registry::builder()
            .data_dir(&dir)
            .snapshot_every(0)
            .open()
            .unwrap();
        let empty = registry.stats().wal_bytes;
        registry.put("m", a.clone()).unwrap();
        let first_a = registry.stats().wal_bytes - empty;
        registry.put("m", b.clone()).unwrap();
        registry.snapshot().unwrap();
        let compacted = registry.stats().wal_bytes;
        registry.put("m", a.clone()).unwrap();
        let again_a = registry.stats().wal_bytes - compacted;
        assert_eq!(again_a, first_a, "A's body was logged in full again");
        for g in [&a, &b, &a] {
            reference.put("m", g.clone()).unwrap();
        }
        assert_same_registry(&registry, &reference);
    }

    let recovered = Registry::builder().data_dir(&dir).open().unwrap();
    assert_same_registry(&recovered, &reference);
    let (got, want) = (recovered.get("m").unwrap(), reference.get("m").unwrap());
    assert_eq!((got.hash, got.sequence), (a.content_hash(), 3));
    assert_eq!((got.hash, got.sequence), (want.hash, want.sequence));
    assert_eq!(recovered.merged().hash(), reference.merged().hash());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A [`MemoryStore`] behind a shared handle, so a test can keep access
/// to the stored bytes after the registry takes ownership — the
/// in-process analogue of a machine crash: drop the registry (losing
/// all in-memory state), keep the "disk", reopen on it.
#[derive(Clone, Default)]
struct SharedStore(Arc<Mutex<MemoryStore>>);

impl Store for SharedStore {
    fn append(&mut self, frame: &[u8]) -> Result<(), StorageError> {
        self.0.lock().unwrap().append(frame)
    }
    fn read_log(&mut self) -> Result<Vec<u8>, StorageError> {
        self.0.lock().unwrap().read_log()
    }
    fn truncate_log(&mut self, len: u64) -> Result<(), StorageError> {
        self.0.lock().unwrap().truncate_log(len)
    }
    fn log_bytes(&self) -> Result<u64, StorageError> {
        self.0.lock().unwrap().log_bytes()
    }
    fn write_snapshot(&mut self, generation: u64, image: &[u8]) -> Result<(), StorageError> {
        self.0.lock().unwrap().write_snapshot(generation, image)
    }
    fn read_snapshot(&mut self, generation: u64) -> Result<Vec<u8>, StorageError> {
        self.0.lock().unwrap().read_snapshot(generation)
    }
    fn list_snapshots(&mut self) -> Result<Vec<u64>, StorageError> {
        self.0.lock().unwrap().list_snapshots()
    }
    fn remove_snapshot(&mut self, generation: u64) -> Result<(), StorageError> {
        self.0.lock().unwrap().remove_snapshot(generation)
    }
}

/// A snapshot that installs but then fails to truncate the log or to
/// remove the older snapshot leaves recovery reading the new image,
/// which lacks bodies superseded before it. Republishing such a body
/// must still log it in full, or the acknowledged commit could not be
/// recovered.
#[test]
fn republish_after_a_snapshot_that_failed_past_its_install_recovers() {
    for op in [OpKind::TruncateLog, OpKind::RemoveSnapshot] {
        let (x, y) = (wide("Part", 8), wide("Order", 8));
        let disk = SharedStore::default();
        let schedule = FaultSchedule::new(3);
        let registry = Registry::builder()
            .store(FaultStore::new(disk.clone(), schedule.clone()))
            .snapshot_every(0)
            .open()
            .unwrap();
        let reference = Registry::new();

        registry.put("m", x.clone()).unwrap();
        registry.snapshot().unwrap();
        registry.put("m", y.clone()).unwrap();
        // Count calls from here: the next `op` is the second snapshot's.
        schedule.clear();
        let _armed = schedule.clone().fail_nth(op, 1, Fault::Permanent);
        assert!(registry.snapshot().is_err(), "{op:?} fault fired");
        registry.put("m", x.clone()).unwrap();
        for g in [&x, &y, &x] {
            reference.put("m", g.clone()).unwrap();
        }

        drop(registry);
        let recovered = Registry::builder()
            .store(disk)
            .open()
            .unwrap_or_else(|err| panic!("{op:?}: reopen failed: {err}"));
        assert_same_registry(&recovered, &reference);
        assert_eq!(recovered.merged().hash(), reference.merged().hash());
    }
}

const MEMBERS: usize = 4;
const VARIANTS: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    Put(usize, usize),
    Delete(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0usize..MEMBERS, 0usize..VARIANTS).prop_map(|(m, v)| Op::Put(m, v)),
        (0usize..MEMBERS).prop_map(Op::Delete),
    ];
    vec(op, 1..24)
}

fn pool(seed: u64) -> Vec<WeakSchema> {
    let params = SchemaParams {
        vocabulary: 14,
        classes: 6,
        labels: 4,
        arrows: 5,
        specializations: 2,
        seed,
    };
    schema_family(&params, MEMBERS * VARIANTS)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The acceptance property, in-process: after any workload — with a
    /// small snapshot cadence so compaction happens mid-sequence — a
    /// registry reopened from its surviving bytes is observably
    /// identical to a never-persisted reference fed the same commits.
    #[test]
    fn reopened_registry_equals_in_memory_reference(
        ops in ops(),
        seed in 0u64..32,
        snapshot_every in 0u64..5,
    ) {
        let schemas = pool(seed);
        let disk = SharedStore::default();
        let durable = Registry::builder()
            .store(disk.clone())
            .snapshot_every(snapshot_every)
            .open()
            .unwrap();
        let reference = Registry::new();

        for op in &ops {
            match op {
                Op::Put(m, v) => {
                    let name = format!("member-{m}");
                    let schema = schemas[m * VARIANTS + v].clone();
                    durable.put(&name, schema.clone()).expect("family members are compatible");
                    reference.put(&name, schema).expect("family members are compatible");
                }
                Op::Delete(m) => {
                    let name = format!("member-{m}");
                    prop_assert_eq!(
                        durable.delete(&name).is_ok(),
                        reference.delete(&name).is_ok()
                    );
                }
            }
        }

        // "Crash": all in-memory state is dropped; only the store's
        // bytes survive.
        drop(durable);
        let recovered = Registry::builder().store(disk).open().unwrap();
        assert_same_registry(&recovered, &reference);
    }
}
