//! Hand-rolled JSON rendering for `--format json` output (std-only, no
//! serde): `smerge merge`, `stats` and `check` emit the façade's
//! [`MergeReport`]/[`Diagnostic`] structures with **stable field order**
//! so the daemon and CI can consume machine-readable output without
//! depending on incidental formatting.
//!
//! Only what the CLI needs is implemented: objects and arrays are
//! emitted in source order, strings are escaped per RFC 8259 (including
//! control characters), numbers are integers or the `%.2f` floats the
//! reports carry, and hashes are rendered as fixed-width hex strings
//! (JSON numbers cannot carry 64-bit hashes losslessly).

use schema_merge_core::{
    AnnotatedSchema, Diagnostic, KeyAssignment, MergeReport, Participation, WeakSchema,
};
use schema_merge_supergraph::ComposedView;
use schema_merge_text::NamedSchema;

/// Escapes a string for a JSON string literal (without the quotes).
pub(crate) fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn quoted(text: &str) -> String {
    format!("\"{}\"", escape(text))
}

fn string_array<I: IntoIterator<Item = String>>(items: I) -> String {
    let rendered: Vec<String> = items.into_iter().map(|s| quoted(&s)).collect();
    format!("[{}]", rendered.join(", "))
}

/// One diagnostic as a JSON object.
fn diagnostic(diag: &Diagnostic) -> String {
    let mut out = format!(
        "{{\"severity\": {}, \"code\": {}, \"message\": {}",
        quoted(diag.severity.as_str()),
        quoted(diag.code),
        quoted(&diag.message),
    );
    if !diag.origin.is_empty() {
        out.push_str(", \"origin\": {");
        let mut fields: Vec<String> = Vec::new();
        if let Some(index) = diag.origin.input {
            fields.push(format!("\"input\": {index}"));
        }
        if let Some(name) = &diag.origin.input_name {
            fields.push(format!("\"input_name\": {}", quoted(name)));
        }
        if !diag.origin.classes.is_empty() {
            fields.push(format!(
                "\"classes\": {}",
                string_array(diag.origin.classes.iter().map(|c| c.to_string()))
            ));
        }
        if !diag.origin.labels.is_empty() {
            fields.push(format!(
                "\"labels\": {}",
                string_array(diag.origin.labels.iter().map(|l| l.to_string()))
            ));
        }
        out.push_str(&fields.join(", "));
        out.push('}');
    }
    out.push('}');
    out
}

pub(crate) fn diagnostics_array(diags: &[Diagnostic]) -> String {
    let rendered: Vec<String> = diags.iter().map(diagnostic).collect();
    format!("[{}]", rendered.join(", "))
}

/// The merged schema's structure: classes, specializations, arrows with
/// participation, keys, content hash.
fn schema_object(
    weak: &WeakSchema,
    keys: &KeyAssignment,
    annotated: Option<&AnnotatedSchema>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "      \"classes\": {},\n",
        string_array(weak.classes().map(|c| c.to_string()))
    ));
    let specs: Vec<String> = weak
        .specialization_pairs()
        .map(|(sub, sup)| {
            format!(
                "[{}, {}]",
                quoted(&sub.to_string()),
                quoted(&sup.to_string())
            )
        })
        .collect();
    out.push_str(&format!(
        "      \"specializations\": [{}],\n",
        specs.join(", ")
    ));
    let arrows: Vec<String> = weak
        .arrow_triples()
        .map(|(src, label, tgt)| {
            let optional = annotated
                .is_some_and(|a| a.participation(src, label, tgt) == Participation::ZeroOrOne);
            format!(
                "[{}, {}, {}, {}]",
                quoted(&src.to_string()),
                quoted(label.as_ref()),
                quoted(&tgt.to_string()),
                quoted(if optional { "optional" } else { "required" }),
            )
        })
        .collect();
    out.push_str(&format!("      \"arrows\": [{}],\n", arrows.join(", ")));
    let key_objs: Vec<String> = keys
        .keyed_classes()
        .map(|class| {
            let families: Vec<String> = keys
                .family(class)
                .minimal_keys()
                .map(|key| string_array(key.labels().map(|l| l.to_string())))
                .collect();
            format!(
                "{{\"class\": {}, \"keys\": [{}]}}",
                quoted(&class.to_string()),
                families.join(", ")
            )
        })
        .collect();
    out.push_str(&format!("      \"keys\": [{}],\n", key_objs.join(", ")));
    out.push_str(&format!(
        "      \"content_hash\": \"{:016x}\"\n    }}",
        weak.content_hash()
    ));
    out
}

/// The full `smerge merge --format json` document.
pub(crate) fn merge_report(report: &MergeReport) -> String {
    let mut out = String::from("{\n  \"command\": \"merge\",\n");

    // Plan.
    let passes: Vec<String> = report.plan.passes.iter().map(|p| p.to_string()).collect();
    out.push_str(&format!(
        "  \"plan\": {{\"mode\": {}, \"engine\": {}, \"passes\": {}, \
         \"inputs\": {}, \"assertions\": {}, \"reuses_base\": {}, \"estimated_classes\": {}, \
         \"estimated_arrows\": {}, \"estimated_spec_pairs\": {}, \"work_units\": {}}},\n",
        quoted(report.plan.mode.as_str()),
        quoted(report.plan.engine.as_str()),
        string_array(passes),
        report.plan.num_inputs,
        report.plan.num_assertions,
        report.plan.reuses_base,
        report.plan.estimated_classes,
        report.plan.estimated_arrows,
        report.plan.estimated_spec_pairs,
        report.plan.work_units(),
    ));

    // Result schema (with participation marks when the merge carried
    // annotations).
    let weak = report.proper.as_weak();
    out.push_str(&format!(
        "  \"result\": {},\n",
        schema_object(weak, &report.keys, report.annotated.as_ref())
    ));

    // Implicit classes.
    let implicit: Vec<String> = report
        .implicit
        .implicit
        .iter()
        .map(|info| {
            format!(
                "{{\"class\": {}, \"members\": {}, \"witness\": {}}}",
                quoted(&info.class.to_string()),
                string_array(info.members.iter().map(|m| m.to_string())),
                quoted(&info.witness.to_string()),
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"implicit_classes\": [{}],\n",
        implicit.join(", ")
    ));

    // Union classes (lower mode).
    if let Some(lower) = &report.lower {
        let unions: Vec<String> = lower
            .unions
            .iter()
            .map(|info| {
                format!(
                    "{{\"class\": {}, \"members\": {}, \"demanded_by\": [{}, {}]}}",
                    quoted(&info.class.to_string()),
                    string_array(info.members.iter().map(|m| m.to_string())),
                    quoted(&info.demanded_by.0.to_string()),
                    quoted(info.demanded_by.1.as_ref()),
                )
            })
            .collect();
        out.push_str(&format!("  \"union_classes\": [{}],\n", unions.join(", ")));
    }

    // Provenance.
    let provenance: Vec<String> = report
        .provenance
        .iter()
        .map(|p| {
            format!(
                "{{\"index\": {}, \"name\": {}, \"classes\": {}, \"arrows\": {}, \
                 \"specializations\": {}, \"optional_arrows\": {}, \"content_hash\": {}}}",
                p.index,
                p.name.as_deref().map_or("null".to_string(), quoted),
                p.classes,
                p.arrows,
                p.specializations,
                p.optional_arrows,
                p.content_hash
                    .map_or("null".to_string(), |h| format!("\"{h:016x}\"")),
            )
        })
        .collect();
    out.push_str(&format!("  \"provenance\": [{}],\n", provenance.join(", ")));

    // Phase-level spans (only when the merge ran with `--trace`).
    if let Some(trace) = &report.trace {
        let spans: Vec<String> = trace
            .spans
            .iter()
            .map(|span| {
                let attrs: Vec<String> = span
                    .attrs
                    .iter()
                    .map(|(key, value)| format!("\"{key}\": {value}"))
                    .collect();
                format!(
                    "{{\"name\": {}, \"id\": {}, \"parent\": {}, \"start_ns\": {}, \
                     \"duration_ns\": {}, \"attrs\": {{{}}}}}",
                    quoted(span.name),
                    span.id,
                    span.parent.map_or("null".to_string(), |p| p.to_string()),
                    span.start_ns,
                    span.duration_ns,
                    attrs.join(", "),
                )
            })
            .collect();
        out.push_str(&format!("  \"trace\": [{}],\n", spans.join(", ")));
    }

    out.push_str(&format!(
        "  \"diagnostics\": {}\n}}\n",
        diagnostics_array(&report.diagnostics)
    ));
    out
}

/// The `smerge stats --format json` document.
/// The `smerge compose --format json` document: the composed supergraph
/// view with per-registry contributions, cross-registry provenance and
/// the full diagnostics list (merger diagnostics plus `H-COMPOSE-*`
/// hints).
pub(crate) fn compose(view: &ComposedView) -> String {
    let weak = view.proper().as_weak();
    let mut out = String::from("{\n  \"command\": \"compose\",\n");
    out.push_str(&format!("  \"generation\": {},\n", view.generation));
    out.push_str(&format!(
        "  \"strategy\": {},\n",
        quoted(view.strategy.as_str())
    ));
    let registries: Vec<String> = view
        .members
        .iter()
        .map(|m| {
            format!(
                "{{\"registry\": {}, \"generation\": {}, \"members\": {}}}",
                quoted(&m.registry),
                m.generation,
                m.members
            )
        })
        .collect();
    out.push_str(&format!("  \"registries\": [{}],\n", registries.join(", ")));
    out.push_str(&format!(
        "  \"schema\": {},\n",
        schema_object(weak, &KeyAssignment::new(), None)
    ));

    let origins = view.origins();
    let classes: Vec<String> = origins
        .classes
        .iter()
        .map(|(class, labels)| {
            format!(
                "{{\"class\": {}, \"origins\": {}}}",
                quoted(&class.to_string()),
                string_array(labels.iter().cloned())
            )
        })
        .collect();
    let arrows: Vec<String> = origins
        .arrows
        .iter()
        .map(|((src, label, tgt), labels)| {
            format!(
                "{{\"arrow\": [{}, {}, {}], \"origins\": {}}}",
                quoted(&src.to_string()),
                quoted(label.as_ref()),
                quoted(&tgt.to_string()),
                string_array(labels.iter().cloned())
            )
        })
        .collect();
    let implicit: Vec<String> = origins
        .implicit
        .iter()
        .map(|(class, labels)| {
            format!(
                "{{\"class\": {}, \"origins\": {}}}",
                quoted(&class.to_string()),
                string_array(labels.iter().cloned())
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"origins\": {{\n    \"classes\": [{}],\n    \"arrows\": [{}],\n    \
         \"implicit\": [{}]\n  }},\n",
        classes.join(", "),
        arrows.join(", "),
        implicit.join(", ")
    ));
    out.push_str(&format!(
        "  \"diagnostics\": {}\n}}",
        diagnostics_array(view.diagnostics())
    ));
    out
}

pub(crate) fn stats(docs: &[NamedSchema]) -> String {
    let rows: Vec<String> = docs
        .iter()
        .map(|doc| {
            let weak = doc.schema.schema();
            format!(
                "    {{\"name\": {}, \"classes\": {}, \"specializations\": {}, \"arrows\": {}, \
                 \"optional_arrows\": {}, \"keyed_classes\": {}, \"labels\": {}, \
                 \"content_hash\": \"{:016x}\"}}",
                quoted(&doc.name),
                weak.num_classes(),
                weak.num_specializations(),
                weak.num_arrows(),
                doc.schema.num_optional(),
                doc.keys.num_keyed_classes(),
                weak.all_labels().len(),
                weak.content_hash(),
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": \"stats\",\n  \"schemas\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// One `smerge check --format json` row.
pub(crate) struct CheckRow {
    pub name: String,
    pub classes: usize,
    pub arrows: usize,
    pub specializations: usize,
    pub proper: bool,
    pub diagnostics: Vec<Diagnostic>,
}

/// The `smerge check --format json` document.
pub(crate) fn check(rows: &[&CheckRow]) -> String {
    let rendered: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                "    {{\"name\": {}, \"classes\": {}, \"arrows\": {}, \"specializations\": {}, \
                 \"proper\": {}, \"diagnostics\": {}}}",
                quoted(&row.name),
                row.classes,
                row.arrows,
                row.specializations,
                row.proper,
                diagnostics_array(&row.diagnostics),
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": \"check\",\n  \"schemas\": [\n{}\n  ]\n}}\n",
        rendered.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn diagnostics_render_origin_fields() {
        let diag = schema_merge_core::Diagnostic::warning("W-X", "msg").with_input(1, Some("a"));
        let json = diagnostics_array(&[diag]);
        assert!(json.contains("\"severity\": \"warning\""));
        assert!(json.contains("\"code\": \"W-X\""));
        assert!(json.contains("\"origin\": {\"input\": 1, \"input_name\": \"a\"}"));
    }
}
