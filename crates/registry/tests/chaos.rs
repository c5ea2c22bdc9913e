//! Chaos differential suite: seeded fault schedules against a
//! never-faulted reference registry.
//!
//! Every scenario drives a faulty durable registry and an in-memory
//! reference with the same op stream, applying each commit to the
//! reference only when the faulty registry acknowledged it. The
//! invariants, checked after every op and again after a simulated
//! crash-and-reopen:
//!
//! * **No acked commit is lost** — the recovered registry equals the
//!   reference fed exactly the acked commits.
//! * **Storage failure degrades, never panics** — a registry that
//!   exhausts its retry budget turns read-only (`E-DEGRADED`) and keeps
//!   serving reads.
//! * **Healing restores service** — once the schedule is cleared, the
//!   probe brings the registry back and the post-heal merged view
//!   equals the reference.
//! * **`stats()` reflects the transitions** — degrade/heal events and
//!   injected-fault counters are visible.
//!
//! Seeds are pinned (override with `SMERGE_CHAOS_SEEDS=1,2,3`), and
//! every assertion message carries the seed so CI failures are
//! replayable.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use schema_merge_core::WeakSchema;
use schema_merge_registry::storage::{
    Fault, FaultSchedule, FaultStore, MemoryStore, OpKind, StorageError, Store,
};
use schema_merge_registry::{Registry, RegistryError, RetryPolicy};
use schema_merge_workload::{schema_family, SchemaParams};

/// The default seed set the CI chaos job runs. Failures print the seed;
/// reproduce locally with `SMERGE_CHAOS_SEEDS=<seed> cargo test -p
/// schema-merge-registry --test chaos`.
const PINNED_SEEDS: [u64; 6] = [1, 7, 42, 1992, 0xC0FFEE, 0x5EED_5EED];

fn seeds() -> Vec<u64> {
    match std::env::var("SMERGE_CHAOS_SEEDS") {
        Ok(csv) => csv
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad seed in SMERGE_CHAOS_SEEDS: `{s}`"))
            })
            .collect(),
        Err(_) => PINNED_SEEDS.to_vec(),
    }
}

/// splitmix64 — the workload dice, independent of the schedule's PRNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A [`MemoryStore`] behind a shared handle: drop the registry (the
/// "crash"), keep the bytes (the "disk"), reopen on them.
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

const MEMBERS: usize = 4;
const VARIANTS: usize = 3;

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

/// A fast retry policy: real backoff discipline, test-friendly waits.
fn test_policy(retries: u32) -> RetryPolicy {
    RetryPolicy::new(retries)
        .initial_backoff(Duration::from_millis(1))
        .max_backoff(Duration::from_millis(4))
}

/// Asserts the two registries expose the same observable state.
fn assert_same_view(seed: u64, faulty: &Registry, reference: &Registry) {
    let (a, b) = (faulty.merged(), reference.merged());
    assert_eq!(
        a.proper.as_ref(),
        b.proper.as_ref(),
        "seed {seed}: merged views diverged"
    );
    assert_eq!(
        a.generation, b.generation,
        "seed {seed}: generations diverged"
    );
    assert_eq!(faulty.list(), reference.list(), "seed {seed}: member lists");
}

/// One chaos run: a flaky-disk workload under retries, a permanent
/// outage that must degrade (not panic), a heal, and a crash-reopen.
fn run_chaos(seed: u64) {
    let schemas = pool(seed);
    let disk = SharedStore::default();
    let schedule = FaultSchedule::new(seed)
        .intermittent(OpKind::Append, 200, Fault::Transient)
        .intermittent(OpKind::Append, 100, Fault::Torn);
    let faulty = Registry::builder()
        .store(FaultStore::new(disk.clone(), schedule.clone()))
        .retry_policy(test_policy(6))
        .snapshot_every(0)
        .open()
        .unwrap_or_else(|err| panic!("seed {seed}: open failed: {err}"));
    let reference = Registry::new();

    // Phase A — flaky disk: transient and torn append faults under a
    // retry budget. Commits may still fail (a deterministic unlucky
    // streak); a failed commit is simply unacked and must be absent
    // from BOTH registries.
    let mut dice = seed ^ 0xD1CE;
    for step in 0..40u64 {
        let roll = splitmix64(&mut dice);
        let member = format!("member-{}", roll as usize % MEMBERS);
        let result = if roll % 5 == 4 {
            faulty.delete(&member).map(|_| ())
        } else {
            let variant = (roll >> 8) as usize % VARIANTS;
            let schema = schemas[(roll as usize % MEMBERS) * VARIANTS + variant].clone();
            match faulty.put(&member, schema.clone()) {
                Ok(_) => {
                    reference
                        .put(&member, schema)
                        .unwrap_or_else(|err| panic!("seed {seed} step {step}: {err}"));
                    assert_same_view(seed, &faulty, &reference);
                    continue;
                }
                Err(err) => Err(err),
            }
        };
        match result {
            Ok(()) => {
                reference
                    .delete(&member)
                    .unwrap_or_else(|err| panic!("seed {seed} step {step}: {err}"));
            }
            Err(RegistryError::Storage(_)) | Err(RegistryError::Degraded { .. }) => {
                // Unacked (or rejected while degraded): applies to
                // neither registry. Give the registry a chance to heal
                // for the next step — the disk is only *flaky*, so the
                // probe should succeed.
                faulty.probe_now();
            }
            Err(err) => {
                // Member-level errors (e.g. deleting an absent member)
                // must reproduce identically on the reference.
                let mirror = reference.delete(&member);
                assert_eq!(
                    mirror.unwrap_err().to_string(),
                    err.to_string(),
                    "seed {seed} step {step}: divergent non-storage error"
                );
            }
        }
        assert_same_view(seed, &faulty, &reference);
    }

    // Ensure at least one acked commit exists before the outage.
    schedule.clear();
    assert!(faulty.probe_now(), "seed {seed}: clean disk must heal");
    faulty.put("anchor", schemas[0].clone()).unwrap();
    reference.put("anchor", schemas[0].clone()).unwrap();
    let retries_before_outage = faulty.stats().storage_retries;

    // Phase B — the disk goes away and stays away: degrade, don't
    // panic. LogBytes is faulted too so the heal probe keeps failing.
    let _ = schedule
        .clone()
        .always_after(OpKind::Append, 0, Fault::Permanent)
        .always_after(OpKind::LogBytes, 0, Fault::Permanent);
    let err = faulty
        .put("outage", schemas[1].clone())
        .expect_err("seed {seed}: append on a dead disk must fail");
    assert!(
        matches!(err, RegistryError::Storage(_)),
        "seed {seed}: expected a storage error, got {err}"
    );
    assert!(faulty.is_degraded(), "seed {seed}: must degrade");
    assert!(
        !faulty.probe_now(),
        "seed {seed}: probe must fail while dead"
    );

    // Reads keep serving; writes are rejected with the stable code.
    assert_same_view(seed, &faulty, &reference);
    let rejected = faulty.put("outage", schemas[1].clone()).unwrap_err();
    assert_eq!(rejected.code(), Some("E-DEGRADED"), "seed {seed}");
    assert!(
        rejected.to_string().contains("E-DEGRADED"),
        "seed {seed}: {rejected}"
    );
    assert!(
        matches!(rejected, RegistryError::Degraded { .. }),
        "seed {seed}"
    );

    let health = faulty.stats();
    assert!(health.degraded, "seed {seed}");
    assert!(health.degrade_events >= 1, "seed {seed}: {health:?}");
    assert!(health.last_storage_error.is_some(), "seed {seed}");
    let counters = health
        .fault_counters
        .unwrap_or_else(|| panic!("seed {seed}: fault store must expose counters"));
    assert!(counters.injected >= 1, "seed {seed}: {counters:?}");

    // Phase C — fix the disk: the probe heals, writes land again, and
    // the view converges with the reference.
    schedule.clear();
    assert!(faulty.probe_now(), "seed {seed}: probe must heal");
    assert!(!faulty.is_degraded(), "seed {seed}");
    faulty.put("outage", schemas[1].clone()).unwrap();
    reference.put("outage", schemas[1].clone()).unwrap();
    assert_same_view(seed, &faulty, &reference);

    let healed = faulty.stats();
    assert!(!healed.degraded, "seed {seed}");
    assert!(healed.heal_events >= 1, "seed {seed}: {healed:?}");
    assert!(
        healed.storage_retries >= retries_before_outage,
        "seed {seed}"
    );

    // Crash: drop all in-memory state; only the disk bytes survive.
    // Recovery must reproduce exactly the acked commits.
    drop(faulty);
    let recovered = Registry::builder()
        .store(disk)
        .open()
        .unwrap_or_else(|err| panic!("seed {seed}: recovery failed: {err}"));
    assert_same_view(seed, &recovered, &reference);
}

#[test]
fn chaos_differential_under_seeded_fault_schedules() {
    for seed in seeds() {
        run_chaos(seed);
    }
}

/// Faults *during recovery* retry under the same policy: a flaky (but
/// not dead) disk at boot still recovers every acked commit.
#[test]
fn recovery_retries_transient_read_faults() {
    for seed in seeds() {
        let disk = SharedStore::default();
        let reference = Registry::new();
        {
            let registry = Registry::builder()
                .store(disk.clone())
                .snapshot_every(2)
                .open()
                .unwrap();
            for (i, schema) in pool(seed).into_iter().take(6).enumerate() {
                registry.put(format!("m{i}"), schema.clone()).unwrap();
                reference.put(format!("m{i}"), schema).unwrap();
            }
        }

        // Every recovery-path read faults transiently a few times.
        let schedule = FaultSchedule::new(seed)
            .fail_nth(OpKind::ListSnapshots, 1, Fault::Transient)
            .fail_nth(OpKind::ReadSnapshot, 1, Fault::Transient)
            .fail_nth(OpKind::ReadLog, 1, Fault::Transient)
            .fail_nth(OpKind::ReadLog, 2, Fault::Transient);
        let recovered = Registry::builder()
            .store(FaultStore::new(disk.clone(), schedule.clone()))
            .retry_policy(test_policy(4))
            .open()
            .unwrap_or_else(|err| panic!("seed {seed}: faulty recovery failed: {err}"));
        assert_same_view(seed, &recovered, &reference);
        assert!(
            schedule.counters().injected >= 3,
            "seed {seed}: recovery reads were not exercised"
        );

        // Without a retry policy the same schedule is fatal — the
        // legacy fail-fast contract is untouched.
        let schedule = FaultSchedule::new(seed).fail_nth(OpKind::ReadLog, 1, Fault::Transient);
        let err = Registry::builder()
            .store(FaultStore::new(disk, schedule))
            .open()
            .unwrap_err();
        assert!(
            matches!(err, RegistryError::Storage(_)),
            "seed {seed}: {err}"
        );
    }
}

/// A torn append left by a retry-exhausted commit must not poison the
/// log: after healing, recovery sees only whole acked frames.
#[test]
fn torn_partial_append_is_repaired_before_the_next_commit() {
    let disk = SharedStore::default();
    let schedule = FaultSchedule::new(99)
        // Exhaust the budget with torn faults: every attempt tears.
        .always_after(OpKind::Append, 1, Fault::Torn);
    let faulty = Registry::builder()
        .store(FaultStore::new(disk.clone(), schedule.clone()))
        .retry_policy(test_policy(2))
        .snapshot_every(0)
        .open()
        .unwrap();
    let reference = Registry::new();

    let schemas = pool(99);
    faulty.put("good", schemas[0].clone()).unwrap();
    reference.put("good", schemas[0].clone()).unwrap();

    // This commit tears on every attempt and the registry degrades with
    // partial garbage at the log tail.
    let err = faulty.put("torn", schemas[1].clone()).unwrap_err();
    assert!(matches!(err, RegistryError::Storage(_)), "{err}");
    assert!(faulty.is_degraded());
    assert!(schedule.counters().torn_appends >= 1);

    // Heal: the probe truncates the torn tail, and the next commit
    // appends onto a clean log.
    schedule.clear();
    assert!(faulty.probe_now());
    faulty.put("after", schemas[2].clone()).unwrap();
    reference.put("after", schemas[2].clone()).unwrap();
    assert_same_view(99, &faulty, &reference);

    // The surviving bytes replay to exactly the acked commits.
    drop(faulty);
    let recovered = Registry::builder().store(disk).open().unwrap();
    assert_same_view(99, &recovered, &reference);
}

/// Without a retry policy a torn append fails its commit fail-fast and
/// never degrades, so the next commit must still truncate the garbage
/// before it appends: recovery stops at the first bad frame, and an
/// acked commit written after the tear would be lost.
#[test]
fn torn_append_without_a_policy_is_repaired_before_the_next_commit() {
    let disk = SharedStore::default();
    let schedule = FaultSchedule::new(99).fail_nth(OpKind::Append, 2, Fault::Torn);
    let faulty = Registry::builder()
        .store(FaultStore::new(disk.clone(), schedule.clone()))
        .snapshot_every(0)
        .open()
        .unwrap();
    let reference = Registry::new();

    let schemas = pool(99);
    faulty.put("good", schemas[0].clone()).unwrap();
    reference.put("good", schemas[0].clone()).unwrap();

    let err = faulty.put("torn", schemas[1].clone()).unwrap_err();
    assert!(matches!(err, RegistryError::Storage(_)), "{err}");
    assert!(
        !faulty.is_degraded(),
        "no policy: fail-fast, never degraded"
    );
    assert_eq!(schedule.counters().torn_appends, 1);

    let after = faulty.put("after", schemas[2].clone()).unwrap();
    assert_eq!(after.generation, 2);
    reference.put("after", schemas[2].clone()).unwrap();
    assert_same_view(99, &faulty, &reference);

    drop(faulty);
    let recovered = Registry::builder().store(disk).open().unwrap();
    assert_same_view(99, &recovered, &reference);
}
