//! Merging large class taxonomies: the compiled engine's sparse rows and
//! the target-driven (preferred-hierarchy) reporting mode.
//!
//! Two federated curators each know part of a multi-forest taxonomy.
//! Above 4096 classes the compiled engine stores each closure row
//! adaptively — a handful of ancestor ids instead of a classes-wide
//! bitset — so the working set grows with the specialization pairs, not
//! with the square of the vocabulary.
//!
//! Run with `cargo run --release --example taxonomy_merge`.

use schema_merge_core::row::set_sparse_enabled;
use schema_merge_core::{Merger, PlannedEngine, WeakSchema};
use schema_merge_workload::{taxonomy, taxonomy_family, TaxonomyParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── 1. A multi-forest taxonomy, refined by a partial curator ────
    // 5000 classes in 3 forests (branching-8 trees with a few extra DAG
    // parents): the published taxonomy, merged with one curator's
    // partial view of it (~70% of the edges).
    let params = TaxonomyParams::dag(5_000, 3, 7);
    let published = taxonomy(&params);
    let curator = taxonomy_family(&params, 1).remove(0);

    let inputs = [&published, &curator];
    let merger = Merger::new().schemas(inputs);
    let plan = merger.plan();
    println!("{plan}");
    assert_eq!(plan.engine, PlannedEngine::Compiled);

    let report = merger.execute()?;
    let sparse_bytes = report.compiled.as_ref().map_or(0, |c| c.heap_bytes());
    println!(
        "merged {} classes, {} specializations",
        report.proper.as_weak().num_classes(),
        report.proper.as_weak().num_specializations(),
    );

    // The same merge with sparse rows switched off: every closure row
    // is a dense bitset over all classes.
    set_sparse_enabled(false);
    let dense = Merger::new().schemas(inputs).execute();
    set_sparse_enabled(true);
    let dense = dense?;
    let dense_bytes = dense.compiled.as_ref().map_or(0, |c| c.heap_bytes());
    println!(
        "closure + arrow footprint of the join: {:.1} MiB sparse vs {:.1} MiB dense",
        sparse_bytes as f64 / (1024.0 * 1024.0),
        dense_bytes as f64 / (1024.0 * 1024.0),
    );
    // The representation is invisible in the result: both runs compute
    // the paper's least upper bound.
    assert_eq!(report.proper, dense.proper);
    assert!(sparse_bytes < dense_bytes);

    // ── 2. Target-driven merging: prefer one hierarchy ──────────────
    // ATOM-style taxonomy merging treats one input as the *target*
    // whose shape should survive. Preference can never change the LUB
    // (that associativity is the paper's point) — instead the report
    // itemizes everything the other inputs forced onto the target.
    let curated = WeakSchema::builder()
        .specialize("Sighthound", "Dog")
        .specialize("Whippet", "Sighthound")
        .arrow("Dog", "registry", "string")
        .build()?;
    let field_observations = WeakSchema::builder()
        .specialize("Whippet", "Racer")
        .specialize("Racer", "Dog")
        .arrow("Sighthound", "gait", "string")
        .build()?;

    let report = Merger::new()
        .schema_named("curated", &curated)
        .schema_named("field", &field_observations)
        .prefer_hierarchy("curated")
        .execute()?;
    println!("\ntarget-driven report for `curated`:");
    for diagnostic in &report.diagnostics {
        if diagnostic.code().starts_with("I-TARGET") {
            println!("  [{}] {}", diagnostic.code(), diagnostic.message);
        }
    }
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code() == "I-TARGET-ARROW"));

    Ok(())
}
