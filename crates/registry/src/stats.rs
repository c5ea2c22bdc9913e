//! Registry observability: one snapshot of state, counters, resilience
//! and latency, which every status surface renders from.

use std::fmt;

use schema_merge_telemetry::HistogramSnapshot;

use crate::storage::FaultCounters;

/// A point-in-time snapshot of the registry — the one status surface
/// [`crate::Registry::stats`] returns and the daemon's `STATS`, `HEALTH`
/// and `METRICS` verbs all render. The sizes and the merged view's shape
/// are read coherently (one read-lock acquisition, so they describe the
/// same generation); the durability and fault fields are what the last
/// writer published on releasing the registry's writer lane; the engine
/// counters, resilience counters and latency histograms are monotone
/// relaxed atomics sampled alongside — under concurrent writers they may
/// run slightly ahead of or behind the locked fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Monotone commit counter; bumped by every successful `put`/`delete`.
    pub generation: u64,
    /// Current member count.
    pub members: usize,
    /// Total immutable versions across all members.
    pub total_versions: usize,
    /// Classes in the merged proper schema.
    pub merged_classes: usize,
    /// Arrows (closed) in the merged proper schema.
    pub merged_arrows: usize,
    /// Strict specialization pairs in the merged proper schema.
    pub merged_specializations: usize,
    /// Implicit classes completion introduced in the merged view.
    pub implicit_classes: usize,
    /// Canonical content hash of the merged proper schema.
    pub merged_hash: u64,
    /// Commits that reused a held join (the incremental path).
    pub incremental_merges: u64,
    /// Commits that re-joined every member from scratch.
    pub full_merges: u64,
    /// Publishes dropped because the content hash was unchanged.
    pub noop_puts: u64,
    /// Publishes rejected as incompatible/inconsistent.
    pub rejected_puts: u64,
    /// Joins the last commit left for the next to build on (0–2: the
    /// members' total, and the join of all but the member it changed).
    pub joins_held: usize,
    /// Merge steps, committed or not, that built on a held join.
    pub held_join_steps: u64,
    /// Merge steps, committed or not, that joined the unchanged members
    /// cold.
    pub cold_join_steps: u64,
    /// Whole seconds since this registry instance was opened.
    pub uptime_secs: u64,
    /// Requests this registry has served, as noted by its front end
    /// ([`crate::Registry::note_request`]); monotone, zero when nothing
    /// calls it (e.g. embedded library use).
    pub requests_served: u64,
    /// Whether the registry has a persistence layer (a WAL + snapshot
    /// store). Every field below except `commit_latency` is zero, `None`
    /// or empty when it does not.
    pub persistent: bool,
    /// Records currently in the write-ahead log (since the last
    /// compaction).
    pub wal_records: u64,
    /// Bytes currently in the write-ahead log.
    pub wal_bytes: u64,
    /// Generation captured by the newest snapshot (0 = none yet).
    pub snapshot_generation: u64,
    /// Bytes of the newest snapshot object.
    pub snapshot_bytes: u64,
    /// Snapshots written by this process (the session counter, like the
    /// merge counters; it restarts at zero on reopen).
    pub snapshots_written: u64,
    /// Whether the registry is in degraded read-only mode (storage
    /// failures exhausted the retry budget; writes rejected with
    /// `E-DEGRADED` until a probe heals the store).
    pub degraded: bool,
    /// Commit-path storage retries performed under the retry policy.
    pub storage_retries: u64,
    /// Times the registry entered degraded mode.
    pub degrade_events: u64,
    /// Times the registry healed back to writable.
    pub heal_events: u64,
    /// The most recent commit-path storage error, if any.
    pub last_storage_error: Option<String>,
    /// Fault-injection counters, when the store injects faults.
    pub fault_counters: Option<FaultCounters>,
    /// End-to-end latency of successful generation-spending commits
    /// (put/delete, noops excluded), snapshot-to-visible.
    pub commit_latency: HistogramSnapshot,
    /// Durability wait per commit: the WAL append + fsync store call.
    /// Empty for an in-memory registry.
    pub fsync_latency: HistogramSnapshot,
    /// Boot-time recovery (snapshot load + log replay + re-merge +
    /// verify); one sample per durable open, empty for an in-memory
    /// registry.
    pub recovery_latency: HistogramSnapshot,
}

impl fmt::Display for RegistryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "generation {} | members {} | versions {}",
            self.generation, self.members, self.total_versions
        )?;
        writeln!(
            f,
            "merged: {} classes, {} arrows, {} specializations, {} implicit, hash {:016x}",
            self.merged_classes,
            self.merged_arrows,
            self.merged_specializations,
            self.implicit_classes,
            self.merged_hash,
        )?;
        writeln!(
            f,
            "merges: {} incremental, {} full, {} no-op, {} rejected",
            self.incremental_merges, self.full_merges, self.noop_puts, self.rejected_puts,
        )?;
        writeln!(
            f,
            "join cache: {} entries, {} hits, {} misses",
            self.joins_held, self.held_join_steps, self.cold_join_steps,
        )?;
        write!(
            f,
            "service: up {} s, {} requests served",
            self.uptime_secs, self.requests_served,
        )?;
        if self.persistent {
            write!(
                f,
                "\ndurability: wal {} records ({} B), snapshot gen {} ({} B), {} written this run",
                self.wal_records,
                self.wal_bytes,
                self.snapshot_generation,
                self.snapshot_bytes,
                self.snapshots_written,
            )?;
            write!(
                f,
                "\nhealth: {}, {} storage retries",
                if self.degraded {
                    "degraded (read-only)"
                } else {
                    "ok"
                },
                self.storage_retries,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_gates_durability_and_reports_service_line() {
        let mut stats = RegistryStats {
            uptime_secs: 42,
            requests_served: 100,
            ..RegistryStats::default()
        };
        let text = stats.to_string();
        assert!(text.contains("service: up 42 s, 100 requests served"));
        assert!(!text.contains("durability:"));
        stats.persistent = true;
        assert!(stats.to_string().contains("durability:"));
    }
}
