//! `parse_payload` decodes a `PUT` payload in one pass — every block's
//! declarations closed once — and must publish exactly what the
//! per-document path does: `parse_document`, then the weak join of its
//! blocks. The two agree on the schema, its content hash, which
//! payloads fail and the text of each failure.

use proptest::prelude::*;

use schema_merge_core::{Merger, WeakSchema};
use schema_merge_text::{parse_document, parse_payload};

/// The per-document path, with the daemon's reply text for its errors.
fn per_document(source: &str) -> Result<WeakSchema, String> {
    let documents = parse_document(source).map_err(|err| format!("parse failed: {err}"))?;
    if documents.is_empty() {
        return Err("payload contains no schemas".into());
    }
    Merger::new()
        .schemas(documents.iter().map(|d| d.schema.schema()))
        .join()
        .map(|joined| joined.into_weak())
        .map_err(|err| format!("payload does not merge [{}]: {err}", err.code()))
}

fn assert_same(source: &str) {
    let one_pass = parse_payload(source).map_err(|err| err.to_string());
    let expected = per_document(source);
    if let (Ok(one_pass), Ok(expected)) = (&one_pass, &expected) {
        assert_eq!(one_pass.content_hash(), expected.content_hash(), "{source}");
    }
    assert_eq!(one_pass, expected, "{source}");
}

/// Class references: named classes and implicit meet and union literals.
const CLASSES: [&str; 8] = ["A", "B", "C", "D", "E", "{A,B}", "{B,C}", "{A|C}"];
const LABELS: [&str; 3] = ["a", "b", "c"];

/// One schema item, by weight out of 64. Specializations draw from four
/// classes only, so that cycles — inside a block and across blocks —
/// are common but most payloads still close; one kind in 32 does not
/// parse.
fn item((kind, x, y, label): (u8, usize, usize, usize)) -> String {
    let (sub, sup) = (CLASSES[x % 4 + 2], CLASSES[y % 4 + 2]);
    let (x, y, label) = (CLASSES[x], CLASSES[y], LABELS[label]);
    match kind {
        0..=3 => format!("class {x};"),
        4..=11 => format!("{sub} => {sup};"),
        12..=39 => format!("{x} --{label}--> {y};"),
        40..=54 => format!("{x} --{label}?--> {y};"),
        55..=58 => format!("key {x} {{{label}}};"),
        59..=61 => format!("key {x} {{{label}, b}};"),
        62 => format!("{x} => ;"),
        _ => "class {A,A};".into(),
    }
}

fn document(blocks: Vec<Vec<(u8, usize, usize, usize)>>) -> String {
    let mut source = String::new();
    for (index, items) in blocks.into_iter().enumerate() {
        source.push_str(&format!("schema s{index} {{\n"));
        for entry in items {
            source.push_str("    ");
            source.push_str(&item(entry));
            source.push('\n');
        }
        source.push_str("}\n");
    }
    source
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn one_pass_decode_equals_the_per_document_join(
        blocks in proptest::collection::vec(
            proptest::collection::vec((0u8..64, 0usize..8, 0usize..8, 0usize..3), 0..10),
            0..5,
        )
    ) {
        assert_same(&document(blocks));
    }
}

/// Each error path, pinned: the generated payloads above hit them only
/// by chance.
#[test]
fn every_failure_reads_as_the_per_document_path() {
    let cases = [
        // A cycle inside one block is that block's parse error.
        (
            "schema ok { A => B; }\nschema loop { X => Y; Y => X; }\n",
            "parse failed: schema loop is invalid:",
        ),
        // A cycle only across blocks is their join's failure.
        (
            "schema one { A => B; B => C; }\nschema two { C => A; }\n",
            "payload does not merge [E-MERGE-INCOMPATIBLE]:",
        ),
        // An invalid block before a syntax error is reported first.
        (
            "schema loop { X => Y; Y => X; }\nschema broken { A => ; }\n",
            "parse failed: schema loop is invalid:",
        ),
        ("schema broken {{{\n", "parse failed: line 1:"),
        ("  // nothing here\n", "payload contains no schemas"),
        ("schema s { A => B; }\n@", "parse failed:"),
    ];
    for (source, prefix) in cases {
        let err = parse_payload(source).unwrap_err().to_string();
        assert!(err.starts_with(prefix), "{source:?}: {err}");
        assert_same(source);
    }
}

/// Keys are dropped and optional arrows join as plain ones, so a
/// payload with both publishes the same schema as one with neither.
#[test]
fn keys_and_optional_arrows_publish_plain_arrows() {
    let annotated = parse_payload(
        "schema s { Dog --chip?--> int; key Dog {chip}; }\nschema t { Dog => Animal; }\n",
    )
    .unwrap();
    let plain =
        parse_payload("schema s { Dog --chip--> int; }\nschema t { Dog => Animal; }\n").unwrap();
    assert_eq!(annotated, plain);
}
