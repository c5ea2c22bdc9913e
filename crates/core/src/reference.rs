//! Reference (symbolic) implementations of the merge pipeline.
//!
//! The public entry points in [`mod@crate::merge`] and
//! [`mod@crate::complete`] run on the compiled engine of
//! [`crate::compile`] — dense ids, bitset closures, CSR arrows. This module
//! keeps the original pure-symbolic algorithms (`BTreeMap`/`BTreeSet` over
//! [`Class`]/[`crate::Label`] keys) callable for two purposes:
//!
//! * **differential testing** — property tests assert that both engines
//!   produce identical schemas and reports on every workload family;
//! * **the benchmark trajectory** — the `bench --json` runner (see
//!   `crates/bench`) measures both paths and records the speedup in
//!   `BENCH_*.json`, so perf claims are reproducible per-PR rather than
//!   anecdotal.
//!
//! Results are *equal* (not just isomorphic) to the compiled path's: both
//! compute the same canonical closed forms, the same `Imp` fixpoint states
//! and the same first-discovery witnesses.

use crate::class::Class;
use crate::complete::{complete_impl, CompletionReport, Engine};
use crate::error::{MergeError, SchemaError};
use crate::lower::AnnotatedSchema;
use crate::merge::MergeOutcome;
use crate::name::Label;
use crate::proper::ProperSchema;
use crate::weak::WeakSchema;
use std::collections::{BTreeMap, BTreeSet};

/// The least upper bound of a collection of weak schemas, computed with
/// the symbolic closure. Equal to the façade's compiled join.
pub fn weak_join_all<'a>(
    schemas: impl IntoIterator<Item = &'a WeakSchema>,
) -> Result<WeakSchema, MergeError> {
    let mut classes: BTreeSet<Class> = BTreeSet::new();
    let mut spec: BTreeMap<Class, BTreeSet<Class>> = BTreeMap::new();
    let mut arrows: Vec<(Class, Label, Class)> = Vec::new();
    for schema in schemas {
        classes.extend(schema.classes().cloned());
        for (sub, sup) in schema.specialization_pairs() {
            spec.entry(sub.clone()).or_default().insert(sup.clone());
        }
        arrows.extend(
            schema
                .arrow_triples()
                .map(|(p, a, q)| (p.clone(), a.clone(), q.clone())),
        );
    }
    WeakSchema::close_symbolic(classes, spec, arrows).map_err(MergeError::from_join)
}

/// The least upper bound of annotated schemas — the *upper* merge of §4
/// extended pointwise to participation constraints — built symbolically
/// through [`AnnotatedSchema::builder`]. The oracle of the façade's
/// upper merge of annotated inputs, which computes the same marks in id
/// space.
///
/// Classes, specializations and arrows join as in Prop. 4.1; each arrow's
/// constraint is the participation *join*, with absence contributing no
/// information (an undrawn arrow does not mean `0` in the upper reading —
/// only the lower merge adopts that convention, §6). The join of `0/1`
/// and `1` is `1`; required-versus-forbidden conflicts cannot arise
/// because absent arrows are silent.
///
/// # Errors
///
/// [`MergeError::Incompatible`] on specialization cycles, as for the
/// plain weak join.
pub fn annotated_join<'a>(
    schemas: impl IntoIterator<Item = &'a AnnotatedSchema>,
) -> Result<AnnotatedSchema, MergeError> {
    let mut builder = AnnotatedSchema::builder();
    for input in schemas {
        let schema = input.schema();
        builder = builder.classes(schema.classes().cloned());
        for (sub, sup) in schema.specialization_pairs() {
            builder = builder.specialize(sub.clone(), sup.clone());
        }
        for (src, label, tgt) in schema.arrow_triples() {
            builder = builder.arrow_with(
                src.clone(),
                label.clone(),
                tgt.clone(),
                input.participation(src, label, tgt),
            );
        }
    }
    builder.build().map_err(MergeError::from_join)
}

/// Completion with the symbolic `Imp` fixpoint and closure. Equal to
/// [`crate::complete_with_report`].
pub fn complete_with_report(
    weak: &WeakSchema,
) -> Result<(ProperSchema, CompletionReport), SchemaError> {
    complete_impl(weak, None, Engine::Symbolic)
}

/// [`complete_with_report`] without the report.
pub fn complete(weak: &WeakSchema) -> Result<ProperSchema, SchemaError> {
    complete_with_report(weak).map(|(schema, _)| schema)
}

/// The paper's merge on the symbolic engine end to end: symbolic weak
/// join, then symbolic completion. Equal to a compiled-engine
/// [`crate::Merger::execute`] over the same inputs.
pub fn merge<'a>(
    schemas: impl IntoIterator<Item = &'a WeakSchema>,
) -> Result<MergeOutcome, MergeError> {
    let weak = weak_join_all(schemas)?;
    let (proper, report) = complete_with_report(&weak)?;
    Ok(MergeOutcome {
        weak,
        proper,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merger::Merger;
    use crate::participation::Participation;

    fn c(s: &str) -> Class {
        Class::named(s)
    }

    fn l(s: &str) -> Label {
        Label::new(s)
    }

    /// The façade's compiled-engine join, for differential comparison.
    fn facade_join(schemas: &[&WeakSchema]) -> Result<WeakSchema, MergeError> {
        Merger::new()
            .schemas(schemas.iter().copied())
            .join()
            .map(|joined| joined.decompile())
    }

    /// The façade's compiled-engine merge, as the historical triple.
    fn facade_merge(schemas: &[&WeakSchema]) -> Result<MergeOutcome, MergeError> {
        Merger::new()
            .schemas(schemas.iter().copied())
            .execute()
            .map(crate::merger::MergeReport::into_outcome)
    }

    fn sample_pair() -> (WeakSchema, WeakSchema) {
        let g1 = WeakSchema::builder()
            .specialize("C", "A1")
            .specialize("C", "A2")
            .arrow("C", "home", "Kennel")
            .build()
            .unwrap();
        let g2 = WeakSchema::builder()
            .arrow("A1", "a", "B1")
            .arrow("A2", "a", "B2")
            .build()
            .unwrap();
        (g1, g2)
    }

    #[test]
    fn symbolic_join_equals_compiled_join() {
        let (g1, g2) = sample_pair();
        assert_eq!(
            weak_join_all([&g1, &g2]).unwrap(),
            facade_join(&[&g1, &g2]).unwrap()
        );
    }

    #[test]
    fn symbolic_completion_equals_compiled_completion() {
        let (g1, g2) = sample_pair();
        let joined = facade_join(&[&g1, &g2]).unwrap();
        let (sym, sym_report) = complete_with_report(&joined).unwrap();
        let (compiled, compiled_report) = crate::complete::complete_with_report(&joined).unwrap();
        assert_eq!(sym, compiled);
        assert_eq!(sym_report, compiled_report, "witnesses agree too");
    }

    #[test]
    fn symbolic_merge_equals_public_merge() {
        let (g1, g2) = sample_pair();
        let sym = merge([&g1, &g2]).unwrap();
        assert_eq!(sym, facade_merge(&[&g1, &g2]).unwrap());
    }

    #[test]
    fn symbolic_join_rejects_cycles_with_witness() {
        let g1 = WeakSchema::builder().specialize("A", "B").build().unwrap();
        let g2 = WeakSchema::builder().specialize("B", "A").build().unwrap();
        match weak_join_all([&g1, &g2]).unwrap_err() {
            MergeError::Incompatible(witness) => {
                assert_eq!(witness.path.first(), witness.path.last());
            }
            other => panic!("expected incompatibility, got {other}"),
        }
    }

    #[test]
    fn annotated_join_takes_strongest_participation() {
        let g1 = AnnotatedSchema::builder()
            .optional_arrow("Dog", "age", "int")
            .build()
            .unwrap();
        let g2 = AnnotatedSchema::builder()
            .arrow("Dog", "age", "int")
            .arrow("Dog", "name", "text")
            .build()
            .unwrap();
        let joined = annotated_join([&g1, &g2]).unwrap();
        assert_eq!(
            joined.participation(&c("Dog"), &l("age"), &c("int")),
            Participation::One,
            "required wins over optional"
        );
        assert_eq!(
            joined.participation(&c("Dog"), &l("name"), &c("text")),
            Participation::One,
            "absence is silent in the upper reading"
        );
    }

    #[test]
    fn annotated_join_laws() {
        let g1 = AnnotatedSchema::builder()
            .arrow("Dog", "name", "string")
            .arrow("Dog", "age", "int")
            .build()
            .unwrap();
        let g2 = AnnotatedSchema::builder()
            .arrow("Dog", "name", "string")
            .arrow("Dog", "breed", "Breed")
            .build()
            .unwrap();
        let ab = annotated_join([&g1, &g2]).unwrap();
        let ba = annotated_join([&g2, &g1]).unwrap();
        assert_eq!(ab, ba);
        assert_eq!(annotated_join([&g1, &g1]).unwrap(), g1);
    }

    #[test]
    fn annotated_join_detects_cycles() {
        let g1 = AnnotatedSchema::builder()
            .specialize("A", "B")
            .build()
            .unwrap();
        let g2 = AnnotatedSchema::builder()
            .specialize("B", "A")
            .build()
            .unwrap();
        assert!(matches!(
            annotated_join([&g1, &g2]),
            Err(MergeError::Incompatible(_))
        ));
    }
}
