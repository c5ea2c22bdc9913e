//! Differential test of the adaptive row representation at merge scale:
//! the same merges run with sparse rows disabled (all-dense baseline)
//! and enabled must produce identical results — proper schemas,
//! implicit-class reports, and the decompiled joins.
//!
//! The sparse policy only engages on rows at least `SPARSE_MIN_WORDS`
//! (64) words wide — merges of 4096+ classes — so these tests run
//! taxonomy workloads *above* that threshold; anything smaller is
//! all-dense under either setting (the row-level policy and op
//! equivalences are property-tested in `core/src/row.rs`).
//!
//! The sparse toggle is per thread and a merge runs entirely on its
//! calling thread, so each test's dense baseline stays dense while the
//! other tests run concurrently; each test also checks the footprint of
//! its dense join to prove it.

use schema_merge_core::row::set_sparse_enabled;
use schema_merge_core::{CompiledSchema, MergeReport, Merger, WeakSchema};
use schema_merge_workload::{taxonomy, taxonomy_family, TaxonomyParams};

/// Restores the (default-on) sparse policy even if an assertion panics.
struct SparseGuard;
impl Drop for SparseGuard {
    fn drop(&mut self) {
        set_sparse_enabled(true);
    }
}

fn run(schemas: &[&WeakSchema]) -> MergeReport {
    Merger::new()
        .schemas(schemas.iter().copied())
        .execute()
        .expect("merge succeeds")
}

fn join_bytes(report: &MergeReport) -> usize {
    report
        .compiled
        .as_ref()
        .map_or(0, CompiledSchema::heap_bytes)
}

/// Dense and sparse rows: both merges must agree exactly.
fn assert_dense_equals_sparse(schemas: &[&WeakSchema]) {
    let _guard = SparseGuard;
    set_sparse_enabled(false);
    let dense = run(schemas);
    set_sparse_enabled(true);
    let sparse = run(schemas);
    assert_eq!(sparse.proper, dense.proper, "proper schemas");
    assert_eq!(sparse.implicit, dense.implicit, "reports");
    assert_eq!(
        sparse.compiled.as_ref().map(|c| c.decompile()),
        dense.compiled.as_ref().map(|c| c.decompile()),
        "compiled joins are logically identical"
    );
    // All-dense, the join's two closure matrices hold one full-width row
    // per class each; the sparse join must come in under that floor.
    let classes = dense
        .compiled
        .as_ref()
        .map_or(0, CompiledSchema::num_classes);
    let all_dense_floor = 2 * classes * classes.div_ceil(64) * 8;
    assert!(
        join_bytes(&dense) >= all_dense_floor,
        "the dense side ran dense: {} < {all_dense_floor} bytes",
        join_bytes(&dense)
    );
    assert!(
        join_bytes(&sparse) < all_dense_floor,
        "the sparse side ran sparse: {} >= {all_dense_floor} bytes",
        join_bytes(&sparse)
    );
}

#[test]
fn deep_taxonomy_family_is_representation_independent() {
    // 4800 classes = 75 words per row: past the sparse floor, with the
    // ~12-ancestor closed rows of a binary tree — the shape where the
    // sparse representation actually carries the merge.
    let params = TaxonomyParams {
        dag_extra_parents: 150,
        ..TaxonomyParams::deep(4_800, 3, 17)
    };
    let family = taxonomy_family(&params, 2);
    let refs: Vec<&WeakSchema> = family.iter().collect();
    assert_dense_equals_sparse(&refs);
}

#[test]
fn bushy_dag_taxonomy_is_representation_independent() {
    // High fan-out with multiple inheritance, merged with one of its
    // partial views: wider closed rows (shared ancestors), still sparse
    // relative to 5000 classes.
    let params = TaxonomyParams::dag(5_000, 2, 29);
    let full = taxonomy(&params);
    let view = taxonomy_family(&params, 1).pop().unwrap();
    assert_dense_equals_sparse(&[&full, &view]);
}
