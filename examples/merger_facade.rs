//! A tour of the `Merger` façade — the one entry point every merge in
//! this workspace goes through (CLI, daemon, registry, benches).
//!
//! Build a merger, inspect its *plan* (engine choice, passes, work
//! estimate), execute it into a *report* (merged schema, implicit-class
//! table, keys, provenance, diagnostics), then see the incremental
//! (onto-base) and lower (federated GLB) configurations.
//!
//! Run with `cargo run --example merger_facade`.

use schema_merge_core::{
    AnnotatedSchema, Class, ConsistencyRelation, KeySet, Label, MergeError, Merger, SuperkeyFamily,
    WeakSchema,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── 1. Plan, then execute ────────────────────────────────────────
    let municipal = WeakSchema::builder()
        .arrow("Dog", "license", "int")
        .arrow("Dog", "owner", "Person")
        .build()?;
    let veterinary = WeakSchema::builder()
        .arrow("Dog", "name", "string")
        .arrow("Dog", "age", "int")
        .build()?;

    let merger = Merger::new()
        .schema_named("municipal", &municipal)
        .schema_named("veterinary", &veterinary)
        .assert_specialization("Guide-dog", "Dog")
        .with_keys("Dog", SuperkeyFamily::single(KeySet::new(["license"])));

    // The plan is inspectable before anything runs.
    println!("{}\n", merger.plan());

    let report = merger.execute()?;
    println!("merged:\n{}", report.proper.as_weak());

    // Provenance: what each input contributed. Content hashes are
    // recorded for named inputs — naming opts into traceability.
    for input in &report.provenance {
        println!(
            "input #{} {:?}: {} classes, {} arrows, hash {}",
            input.index,
            input.name.as_deref().unwrap_or("<unnamed>"),
            input.classes,
            input.arrows,
            input
                .content_hash
                .map_or("<anonymous>".into(), |h| format!("{h:016x}")),
        );
    }

    // The §5 key pass propagated the license key down the asserted isa.
    assert!(report
        .keys
        .family(&Class::named("Guide-dog"))
        .is_superkey(&KeySet::new(["license"])));
    println!("Guide-dog inherited the license key.\n");

    // ── 2. The incremental (onto-base) configuration ─────────────────
    // Keep the compiled join; merge later arrivals onto it without
    // re-interning the base — the registry's publish path.
    let base = Merger::new()
        .schema(&municipal)
        .schema(&veterinary)
        .join()?;
    let chip_db = WeakSchema::builder().arrow("Dog", "chip", "Chip").build()?;
    let incremental = Merger::new().onto_base(&base).schema(&chip_db).execute()?;
    println!(
        "incremental plan reused a {}-class base: {}",
        incremental.plan.base_classes, incremental.plan.engine
    );
    assert!(incremental.proper.has_arrow(
        &Class::named("Dog"),
        &Label::new("chip"),
        &Class::named("Chip")
    ));

    // Same answer as the batch merge — associativity, mechanically.
    let batch = Merger::new()
        .schemas([&municipal, &veterinary, &chip_db])
        .execute()?;
    assert_eq!(incremental.proper, batch.proper);
    println!("incremental == batch ✓\n");

    // ── 3. Constraint passes: consistency vetoes ─────────────────────
    let one = WeakSchema::builder().arrow("Thing", "ref", "Dog").build()?;
    let two = WeakSchema::builder()
        .arrow("Thing", "ref", "Invoice")
        .build()?;
    let mut relation = ConsistencyRelation::assume_consistent();
    relation.declare_inconsistent("Dog", "Invoice");
    match Merger::new()
        .schema(&one)
        .schema(&two)
        .with_consistency(&relation)
        .execute()
    {
        Err(MergeError::Inconsistent { left, right }) => {
            println!("consistency veto [{left} vs {right}] — as the paper demands (§4.2)");
        }
        other => panic!("expected an inconsistency veto, got {other:?}"),
    }

    // ── 4. Lower mode: the federated GLB with union classes ──────────
    let site_a = AnnotatedSchema::builder()
        .arrow("Pet", "home", "House")
        .build()?;
    let site_b = AnnotatedSchema::builder()
        .arrow("Pet", "home", "Kennel")
        .build()?;
    let lower = Merger::new()
        .with_participation(&site_a)
        .with_participation(&site_b)
        .lower()
        .execute()?;
    let unions = lower.lower.expect("lower mode reports union classes");
    println!(
        "\nlower merge introduced {} union class(es): {}",
        unions.unions.len(),
        unions
            .unions
            .iter()
            .map(|u| u.class.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    );

    // ── 5. Diagnostics: structured, stable codes ─────────────────────
    let empty = WeakSchema::empty();
    let diag_report = Merger::new()
        .schema(&municipal)
        .schema_named("void", &empty)
        .execute()?;
    for diag in &diag_report.diagnostics {
        println!("{diag}");
    }
    assert!(diag_report
        .diagnostics
        .iter()
        .any(|d| d.code() == "W-EMPTY-INPUT"));
    Ok(())
}
