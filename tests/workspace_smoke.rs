//! Workspace wiring smoke test: one end-to-end path per front-end, so a
//! broken manifest, dependency edge or re-export fails fast and obviously
//! rather than deep inside a property test.

use schema_merge::prelude::*;
use schema_merge_core::Label;
use schema_merge_er::preserves_strata;
use schema_merge_relational::{to_sql, TypeMap};
use schema_merge_text::print_document;

#[test]
fn weak_merge_through_the_facade_prelude() {
    // The exact path the crate-level doctest advertises.
    let g1 = WeakSchema::builder()
        .arrow("Dog", "owner", "Person")
        .build()
        .unwrap();
    let g2 = WeakSchema::builder()
        .arrow("Dog", "age", "int")
        .build()
        .unwrap();
    let merged = Merger::new().schema(&g1).schema(&g2).execute().unwrap();
    assert_eq!(merged.proper.labels_of(&Class::named("Dog")).len(), 2);
    assert!(merged
        .weak()
        .unwrap()
        .is_subschema_of(merged.proper.as_weak()));
}

#[test]
fn er_translate_and_merge() {
    let g1 = ErSchema::builder()
        .entity("Dog")
        .entity("Person")
        .attribute("Dog", "age", "int")
        .relationship("Owns", [("owner", "Person"), ("dog", "Dog")])
        .build()
        .unwrap();
    let g2 = ErSchema::builder()
        .entity("Dog")
        .attribute("Dog", "name", "text")
        .build()
        .unwrap();
    let outcome = merge_er([&g1, &g2]).unwrap();
    assert!(preserves_strata(&outcome));

    let attrs = outcome
        .er
        .attributes_of(&schema_merge_core::Name::new("Dog"));
    assert!(attrs.contains_key(&Label::new("age")));
    assert!(attrs.contains_key(&Label::new("name")));

    // Translate + read back round-trips the merged ER schema.
    let (core, strata) = schema_merge_er::to_core(&outcome.er);
    let back = schema_merge_er::from_core(&core, &strata).unwrap();
    assert_eq!(back, outcome.er);
}

#[test]
fn relational_merge_and_ddl_round_trip() {
    let r1 = RelSchema::builder()
        .column("Person", "ssn", "int")
        .column("Person", "name", "text")
        .key("Person", schema_merge_core::KeySet::new(["ssn"]))
        .build()
        .unwrap();
    let r2 = RelSchema::builder()
        .column("Person", "age", "int")
        .build()
        .unwrap();
    let outcome = merge_relational([&r1, &r2]).unwrap();

    // Translate + read back round-trips the merged relational schema.
    // Keys ride in the merge outcome's key assignment, not in the graph
    // (§5), so reattach them the same way `merge_relational` does.
    let (core, strata) = schema_merge_relational::to_core(&outcome.schema);
    let back = schema_merge_relational::from_core(&core, &strata).unwrap();
    let back = back.with_key_assignment(&outcome.keys);
    assert_eq!(back, outcome.schema);

    // And the DDL renderer sees all three columns.
    let sql = to_sql(&outcome.schema, &TypeMap::default());
    assert!(sql.contains("CREATE TABLE"), "{sql}");
    for column in ["ssn", "name", "age"] {
        assert!(sql.contains(&format!("\"{column}\"")), "{sql}");
    }
}

#[test]
fn dsl_parse_print_round_trip() {
    let source =
        "schema Dogs {\n    Guide-dog => Dog;\n    Dog --age--> int;\n    key Dog {age};\n}";
    let docs = parse_document(source).unwrap();
    let printed = print_document(&docs);
    let reparsed = parse_document(&printed).unwrap();
    assert_eq!(docs, reparsed, "print → parse is the identity");
}
