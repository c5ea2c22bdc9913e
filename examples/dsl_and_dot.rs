//! The schema DSL and renderers (the prototype's interface, §1/§7):
//! parse two schema files, merge, pretty-print and export Graphviz DOT.
//!
//! Run with `cargo run --example dsl_and_dot`.

use schema_merge_core::KeyAssignment;
use schema_merge_core::Merger;
use schema_merge_text::{
    parse_document, print_schema, render_ascii, to_dot, DotOptions, NamedSchema,
};

const SOURCE: &str = r#"
// The kennel agency's view.
schema Kennels {
    Guide-dog => Dog;
    Police-dog => Dog;
    Dog --age--> int;
    Dog --kind--> breed;
    Police-dog --id-num--> int;
    Lives --occ--> Dog;
    Lives --home--> Kennel;
    Kennel --addr--> place;
    key Kennel {addr};
}

// The city registry's view; chip numbers are optional.
schema Registry {
    Dog --license--> int;
    Dog --chip?--> int;
    Lives --occ--> Dog;
    Lives --owner--> person;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let docs = parse_document(SOURCE)?;
    println!("parsed {} schemas:", docs.len());
    for doc in &docs {
        println!("{}", render_ascii(doc));
    }

    // Merge the two views (upper merge on the annotated schemas).
    let mut merger = Merger::new();
    for doc in &docs {
        merger = merger.with_participation_named(doc.name.clone(), &doc.schema);
    }
    let merged = merger.execute()?;
    let mut keys = KeyAssignment::new();
    for doc in &docs {
        for class in doc.keys.keyed_classes() {
            keys.set(class.clone(), doc.keys.family(class));
        }
    }

    let implicit = merged.implicit.num_implicit();
    let merged = NamedSchema {
        name: "CityView".into(),
        schema: merged
            .annotated
            .expect("annotated inputs produce an annotated result"),
        keys,
    };
    println!("merged schema in canonical DSL:\n{}", print_schema(&merged));
    println!("implicit classes introduced: {implicit}");

    // Round-trip guarantee: the printed form parses back identically.
    let reparsed = schema_merge_text::parse_schema(&print_schema(&merged))?;
    assert_eq!(reparsed, merged);
    println!("print → parse round-trip ✓\n");

    // Graphviz export for the paper-style diagram.
    let dot = to_dot(&merged, &DotOptions::default());
    println!("Graphviz DOT ({} bytes):\n{}", dot.len(), dot);
    Ok(())
}
