//! Cross-registry composition provenance.
//!
//! When many registries' schemas are composed into one supergraph view
//! (the federation shape: each team owns a registry, a gateway owns the
//! composed view), the composed result should not flatten away *where*
//! each symbol came from. [`ComposeProvenance`] records, for every
//! class, contributed arrow and implicit class of a composed merge, the
//! namespaced `registry/member@vN` origin labels that contributed it.
//!
//! The table is computed from the member inputs and the merged result
//! alone, so it is **path-independent**: an incremental onto-base
//! recompose and a one-shot batch merge yield byte-identical
//! provenance. The composition layer computes it on demand, for the
//! callers that read it; it is not part of the merge report.

use std::collections::BTreeMap;

use crate::class::Class;
use crate::name::Label;
use crate::proper::ProperSchema;
use crate::weak::WeakSchema;

/// An arrow as contributed by an input: source class, label, target
/// class — the pre-closure triple, which is what a member actually
/// declared (the completed schema may canonicalize the target further).
pub type ArrowKey = (Class, Label, Class);

/// Cross-registry provenance of a composed merge: for each symbol of
/// the composed result, the sorted, deduplicated origin labels
/// (conventionally `registry/member@vN`) that contributed it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ComposeProvenance {
    /// Class → origin labels that declared it.
    pub classes: BTreeMap<Class, Vec<String>>,
    /// Contributed arrow triple → origin labels that declared it.
    pub arrows: BTreeMap<ArrowKey, Vec<String>>,
    /// Implicit class of the composed result → origin labels of the
    /// named classes it meets (the registries it spans).
    pub implicit: BTreeMap<Class, Vec<String>>,
}

impl ComposeProvenance {
    /// Computes the provenance table for a composed merge: `inputs` are
    /// the member schemas with their namespaced origin labels, `proper`
    /// the composed result (whose implicit classes are attributed to
    /// the origins of their constituent named classes).
    pub fn compute<'a, I, S>(inputs: I, proper: &ProperSchema) -> ComposeProvenance
    where
        I: IntoIterator<Item = (S, &'a WeakSchema)>,
        S: Into<String>,
    {
        let mut provenance = ComposeProvenance::default();
        for (label, schema) in inputs {
            let label: String = label.into();
            for class in schema.classes() {
                push_label(provenance.classes.entry(class.clone()).or_default(), &label);
            }
            for (src, arrow, tgt) in schema.arrow_triples() {
                let key = (src.clone(), arrow.clone(), tgt.clone());
                push_label(provenance.arrows.entry(key).or_default(), &label);
            }
        }
        for class in proper.as_weak().classes() {
            let Some(origin) = class.origin() else {
                continue;
            };
            let mut labels: Vec<String> = Vec::new();
            for name in origin.iter() {
                let named = Class::named(name.clone());
                if let Some(sources) = provenance.classes.get(&named) {
                    for source in sources {
                        push_label(&mut labels, source);
                    }
                }
            }
            provenance.implicit.insert(class.clone(), labels);
        }
        provenance
    }

    /// Origin labels of `class`, named or implicit (empty when the
    /// class is unknown to the table).
    pub fn origins_of(&self, class: &Class) -> &[String] {
        self.classes
            .get(class)
            .or_else(|| self.implicit.get(class))
            .map_or(&[], Vec::as_slice)
    }
}

fn push_label(labels: &mut Vec<String>, label: &str) {
    if let Err(at) = labels.binary_search_by(|probe| probe.as_str().cmp(label)) {
        labels.insert(at, label.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merger::Merger;

    fn c(s: &str) -> Class {
        Class::named(s)
    }

    #[test]
    fn classes_and_arrows_carry_their_origin_labels() {
        let g1 = WeakSchema::builder()
            .arrow("Dog", "owner", "Person")
            .build()
            .unwrap();
        let g2 = WeakSchema::builder()
            .arrow("Dog", "license", "int")
            .build()
            .unwrap();
        let report = Merger::new().schema(&g1).schema(&g2).execute().unwrap();
        let prov = ComposeProvenance::compute(
            [("pets/base@v1", &g1), ("city/licensing@v2", &g2)],
            &report.proper,
        );
        assert_eq!(
            prov.origins_of(&c("Dog")),
            ["city/licensing@v2", "pets/base@v1"]
        );
        assert_eq!(prov.origins_of(&c("Person")), ["pets/base@v1"]);
        let key = (c("Dog"), Label::new("license"), c("int"));
        assert_eq!(prov.arrows[&key], ["city/licensing@v2"]);
    }

    #[test]
    fn implicit_classes_inherit_constituent_origins() {
        let g1 = WeakSchema::builder().arrow("C", "a", "B1").build().unwrap();
        let g2 = WeakSchema::builder().arrow("C", "a", "B2").build().unwrap();
        let report = Merger::new().schema(&g1).schema(&g2).execute().unwrap();
        let prov = ComposeProvenance::compute(
            [("left/one@v1", &g1), ("right/two@v1", &g2)],
            &report.proper,
        );
        let meet = Class::implicit([c("B1"), c("B2")]);
        assert_eq!(prov.origins_of(&meet), ["left/one@v1", "right/two@v1"]);
    }

    #[test]
    fn duplicate_contributions_deduplicate() {
        let g = WeakSchema::builder().arrow("A", "x", "T").build().unwrap();
        let report = Merger::new().schema(&g).schema(&g).execute().unwrap();
        let prov = ComposeProvenance::compute([("r/m@v1", &g), ("r/m@v1", &g)], &report.proper);
        assert_eq!(prov.origins_of(&c("A")), ["r/m@v1"]);
    }
}
