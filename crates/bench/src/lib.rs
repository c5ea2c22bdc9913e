//! # schema-merge-bench
//!
//! The experiment harness: programmatic reconstructions of every figure
//! in the paper ([`figures`]) plus the scaling experiments its §7 leaves
//! open ([`experiments`]). The `reproduce` binary prints the paper's
//! verification table and the `bench` binary ([`perf`]) the
//! `BENCH_<n>.json` perf trajectory that CI guards per PR; see the README
//! section "Benchmarks and the perf trajectory".

// `deny`, not `forbid`: the counting global allocator in `perf` needs a
// (trivially auditable) `unsafe impl GlobalAlloc` and carries a scoped
// `allow`; everything else stays denied.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod figures;
pub mod perf;

pub use figures::{all_rows, Row, Verdict};
pub use perf::{run_suite, to_json, to_table, BenchRecord, BenchReport, Speedup};

use schema_merge_core::{MergeError, MergeOutcome, MergeReport, Merger, WeakSchema};

/// The paper's merge through the production `Merger` façade — the single
/// wrapper every experiment and figure check in this crate measures,
/// so façade overhead (planning, provenance, diagnostics) is part of
/// every measurement.
pub fn facade_merge<'a>(
    schemas: impl IntoIterator<Item = &'a WeakSchema>,
) -> Result<MergeReport, MergeError> {
    Merger::new().schemas(schemas).execute()
}

/// Serializes this crate's tests. The counting allocator's live-byte and
/// peak gauges are process-wide, so a test that frees memory while
/// another measures a peak can hold that peak at zero. Every test in the
/// crate holds this lock.
#[cfg(test)]
pub(crate) fn peak_lock() -> std::sync::MutexGuard<'static, ()> {
    static PEAK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    PEAK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`facade_merge`] shaped as the historical outcome triple.
pub fn facade_outcome<'a>(
    schemas: impl IntoIterator<Item = &'a WeakSchema>,
) -> Result<MergeOutcome, MergeError> {
    facade_merge(schemas).map(MergeReport::into_outcome)
}

/// The weak least upper bound through the façade.
pub fn facade_join<'a>(
    schemas: impl IntoIterator<Item = &'a WeakSchema>,
) -> Result<WeakSchema, MergeError> {
    Merger::new()
        .schemas(schemas)
        .join()
        .map(schema_merge_core::Joined::into_weak)
}
