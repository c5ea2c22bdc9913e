//! Canonical pretty-printing (round-trips through the parser) and an
//! ASCII rendering for terminals.

use std::fmt::Write as _;

use schema_merge_core::{Class, Label, Participation, WeakSchema};

use crate::parse::NamedSchema;

/// Appends `class` in the DSL's syntax: a named class is its name, and
/// `Class`'s `Display` already writes implicit classes as `{A,B}` /
/// `{A|B}`.
fn push_class(out: &mut String, class: &Class) {
    match class {
        Class::Named(name) => out.push_str(name.as_str()),
        implicit => {
            let _ = write!(out, "{implicit}");
        }
    }
}

/// Writes the head and the body of the canonical document for `schema`
/// named `name` — every line up to its keys — marking with `?` each
/// arrow that `optional` holds for. The caller writes the keys and the
/// closing brace.
fn write_body(
    out: &mut String,
    name: &str,
    schema: &WeakSchema,
    optional: impl Fn(&Class, &Label, &Class) -> bool,
) {
    out.push_str("schema ");
    out.push_str(name);
    out.push_str(" {\n");
    for class in schema.classes() {
        out.push_str("    class ");
        push_class(out, class);
        out.push_str(";\n");
    }
    for (sub, sup) in schema.specialization_pairs() {
        out.push_str("    ");
        push_class(out, sub);
        out.push_str(" => ");
        push_class(out, sup);
        out.push_str(";\n");
    }
    for (src, label, tgt) in schema.arrow_triples() {
        out.push_str("    ");
        push_class(out, src);
        out.push_str(" --");
        out.push_str(label.as_str());
        if optional(src, label, tgt) {
            out.push('?');
        }
        out.push_str("--> ");
        push_class(out, tgt);
        out.push_str(";\n");
    }
}

/// Prints one schema in canonical DSL form. The output parses back to an
/// equal [`NamedSchema`].
pub fn print_schema(doc: &NamedSchema) -> String {
    let mut out = String::new();
    let annotated = &doc.schema;
    // Without optional edges every arrow is required: skip the lookup.
    let any_optional = annotated.optional_edges().next().is_some();
    write_body(
        &mut out,
        &doc.name,
        annotated.schema(),
        |src, label, tgt| {
            any_optional && annotated.participation(src, label, tgt) != Participation::One
        },
    );
    for class in doc.keys.keyed_classes() {
        for key in doc.keys.family(class).minimal_keys() {
            let labels: Vec<&str> = key.labels().map(Label::as_str).collect();
            out.push_str("    key ");
            push_class(&mut out, class);
            let _ = writeln!(out, " {{{}}};", labels.join(", "));
        }
    }
    out.push_str("}\n");
    out
}

/// Prints a plain schema — every arrow required, no keys — in canonical
/// DSL form under `name`. Byte for byte the [`print_schema`] of the
/// schema annotated all-required, without copying it into one.
pub fn print_weak(name: &str, schema: &WeakSchema) -> String {
    let mut out = String::new();
    write_weak(&mut out, name, schema);
    out
}

/// Appends the [`print_weak`] text of `schema` to `out`, for a caller
/// that prints into a buffer it already holds.
pub fn write_weak(out: &mut String, name: &str, schema: &WeakSchema) {
    write_body(out, name, schema, |_, _, _| false);
    out.push_str("}\n");
}

/// Prints a document of several schemas.
pub fn print_document(docs: &[NamedSchema]) -> String {
    docs.iter().map(print_schema).collect::<Vec<_>>().join("\n")
}

/// A compact ASCII rendering: one block per class with its
/// generalizations and attributes — the terminal stand-in for the
/// prototype's graphical schema display.
pub fn render_ascii(doc: &NamedSchema) -> String {
    let schema = doc.schema.schema();
    let mut out = String::new();
    let _ = writeln!(out, "== schema {} ==", doc.name);
    for class in schema.classes() {
        let _ = write!(out, "{class}");
        let supers = schema.strict_supers(class);
        if !supers.is_empty() {
            let names: Vec<String> = supers.iter().map(|c| c.to_string()).collect();
            let _ = write!(out, " => {}", names.join(", "));
        }
        let _ = writeln!(out);
        for label in schema.labels_of(class) {
            let targets = schema.arrow_targets(class, &label);
            let minimal = schema.min_s(&targets);
            for target in minimal {
                let marker = match doc.schema.participation(class, &label, &target) {
                    Participation::One => "",
                    _ => "?",
                };
                let _ = writeln!(out, "  .{label}{marker} : {target}");
            }
        }
        let family = doc.keys.family(class);
        if !family.is_none() {
            let _ = writeln!(out, "  keys {family}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_document, parse_schema};
    use schema_merge_core::{AnnotatedSchema, KeyAssignment};

    const DOGS: &str = "schema Dogs {\n\
        Guide-dog => Dog;\n\
        Dog --age--> int;\n\
        Lives --occ?--> Dog;\n\
        key Dog {age};\n\
        }";

    #[test]
    fn print_parse_round_trip() {
        let doc = parse_schema(DOGS).unwrap();
        let printed = print_schema(&doc);
        let reparsed = parse_schema(&printed).unwrap();
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn round_trip_with_implicit_classes() {
        let doc = parse_schema(
            "schema S { {B1,B2} => B1; {B1,B2} => B2; C --a--> {B1,B2}; class {X|Y}; }",
        )
        .unwrap();
        let printed = print_schema(&doc);
        assert!(printed.contains("{B1,B2}"));
        assert!(printed.contains("{X|Y}"));
        assert_eq!(parse_schema(&printed).unwrap(), doc);
    }

    #[test]
    fn document_round_trip() {
        let docs = parse_document("schema A { class X; }\nschema B { Y --f--> Z; }").unwrap();
        let printed = print_document(&docs);
        assert_eq!(parse_document(&printed).unwrap(), docs);
    }

    #[test]
    fn ascii_rendering_mentions_structure() {
        let doc = parse_schema(DOGS).unwrap();
        let text = render_ascii(&doc);
        assert!(text.contains("== schema Dogs =="));
        assert!(text.contains("Guide-dog => Dog"));
        assert!(text.contains(".age : int"));
        assert!(text.contains(".occ? : Dog"));
        assert!(text.contains("keys {{age}}"));
    }

    /// Documents over named, meet and union classes, with optional
    /// arrows and keys, drawn from a fixed seed.
    fn generated_documents() -> Vec<String> {
        const CLASSES: [&str; 7] = ["A", "B", "C", "D", "{A,B}", "{C|D}", "{A,B,C}"];
        const LABELS: [&str; 3] = ["f", "g", "h"];
        let mut seed: u64 = 0x5eed;
        let mut next = |bound: usize| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 33) as usize % bound
        };
        (0..64)
            .map(|i| {
                let mut doc = format!("schema S{i} {{\n");
                for _ in 0..next(10) {
                    let (a, b) = (next(CLASSES.len()), next(CLASSES.len()));
                    let label = LABELS[next(LABELS.len())];
                    match next(4) {
                        // Specializations run down the list, so none cycle.
                        0 if a != b => {
                            doc += &format!("{} => {};\n", CLASSES[a.min(b)], CLASSES[a.max(b)]);
                        }
                        1 => doc += &format!("{} --{label}?--> {};\n", CLASSES[a], CLASSES[b]),
                        2 => {
                            doc += &format!("{} --{label}--> {};\n", CLASSES[a], CLASSES[b]);
                            doc += &format!("key {} {{{label}}};\n", CLASSES[a]);
                        }
                        _ => doc += &format!("{} --{label}--> {};\n", CLASSES[a], CLASSES[b]),
                    }
                }
                doc + "}\n"
            })
            .collect()
    }

    #[test]
    fn generated_documents_round_trip() {
        let mut optional = 0;
        let mut keyed = 0;
        for source in generated_documents() {
            let doc = parse_schema(&source).unwrap_or_else(|err| panic!("{source}: {err}"));
            optional += usize::from(doc.schema.optional_edges().next().is_some());
            keyed += usize::from(doc.keys.keyed_classes().next().is_some());
            let printed = print_schema(&doc);
            assert_eq!(parse_schema(&printed).unwrap(), doc, "{source}");
        }
        assert!(
            optional > 10 && keyed > 10,
            "{optional} optional, {keyed} keyed"
        );
    }

    #[test]
    fn print_weak_is_print_schema_all_required() {
        let mut sources = generated_documents();
        sources.push(DOGS.to_string());
        for source in sources {
            let doc = parse_schema(&source).unwrap();
            let weak = doc.schema.schema();
            let all_required = NamedSchema {
                name: doc.name.clone(),
                schema: AnnotatedSchema::all_required(weak.clone()),
                keys: KeyAssignment::new(),
            };
            assert_eq!(print_weak(&doc.name, weak), print_schema(&all_required));
        }
    }

    #[test]
    fn printing_is_deterministic() {
        let doc = parse_schema(DOGS).unwrap();
        assert_eq!(print_schema(&doc), print_schema(&doc));
    }
}
