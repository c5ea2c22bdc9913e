//! Proper schemas: weak schemas with canonical arrow targets (§2).
//!
//! A *proper* schema additionally satisfies condition 1: whenever `p` has
//! an `a`-arrow there is a least class `s` (the **canonical class** of the
//! `a`-arrow of `p`) with `p --a--> s`. Writing `p ·a⇀ q` for "q is the
//! canonical class of p's a-arrow" recovers the functional-data-model
//! presentation: the paper's conditions
//!
//! * **D1** — `p ·a⇀ q₁` and `p ·a⇀ q₂` imply `q₁ = q₂`, and
//! * **D2** — `q ·a⇀ s` and `p ⇒ q` imply some `r ⇒ s` with `p ·a⇀ r`
//!
//! hold, and conversely the closed arrow relation is recovered from `⇀` by
//! `p --a--> q  iff  ∃s ⇒ q . p ·a⇀ s`. [`ProperSchema`] exposes both
//! views.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Deref;

use crate::class::Class;
use crate::error::SchemaError;
use crate::name::Label;
use crate::order;
use crate::weak::WeakSchema;

/// A weak schema verified to satisfy condition 1 of §2.
///
/// Dereferences to [`WeakSchema`], so every weak-schema query is available;
/// the extra API is the canonical (functional) view.
#[derive(Clone, PartialEq, Eq)]
pub struct ProperSchema {
    schema: WeakSchema,
    /// `p ↦ a ↦ s` where `s` is the canonical class of the `a`-arrow of `p`.
    canonical: BTreeMap<Class, BTreeMap<Label, Class>>,
}

impl ProperSchema {
    /// Validates condition 1 and constructs the canonical view.
    pub fn try_new(schema: WeakSchema) -> Result<Self, SchemaError> {
        let mut canonical: BTreeMap<Class, BTreeMap<Label, Class>> = BTreeMap::new();
        for (src, by_label) in &schema.arrows {
            for (label, targets) in by_label {
                // Singleton target sets (the overwhelmingly common case)
                // are trivially canonical; the order machinery is only
                // consulted for genuine multi-target arrows.
                let least = if targets.len() == 1 {
                    targets.iter().next()
                } else {
                    order::least_element(&schema.supers, targets)
                };
                match least {
                    Some(least) => {
                        canonical
                            .entry(src.clone())
                            .or_default()
                            .insert(label.clone(), least.clone());
                    }
                    None => {
                        let minimal = schema.min_s(targets).into_iter().collect();
                        return Err(SchemaError::NoCanonicalClass {
                            class: src.clone(),
                            label: label.clone(),
                            minimal_targets: minimal,
                        });
                    }
                }
            }
        }
        Ok(ProperSchema { schema, canonical })
    }

    /// [`ProperSchema::try_new`] with the canonical view built from the
    /// schema's compiled twin — id-space bit tests instead of symbolic
    /// order walks. `compiled` must be the compiled form of `schema`; the
    /// result (including the failure witness) is identical to
    /// [`ProperSchema::try_new`] on `schema` alone.
    pub(crate) fn from_compiled(
        schema: WeakSchema,
        compiled: &crate::compile::CompiledSchema,
    ) -> Result<Self, SchemaError> {
        let canonical = crate::compile::canonical_map(compiled)?;
        Ok(ProperSchema { schema, canonical })
    }

    /// The underlying weak schema.
    pub fn as_weak(&self) -> &WeakSchema {
        &self.schema
    }

    /// Consumes the wrapper, returning the weak schema.
    pub fn into_weak(self) -> WeakSchema {
        self.schema
    }

    /// The canonical content hash — identical to
    /// [`WeakSchema::content_hash`] of the underlying weak schema, since
    /// the canonical view is derived data. Stable across class ordering;
    /// see the weak-schema method for the framing.
    pub fn content_hash(&self) -> u64 {
        self.schema.content_hash()
    }

    /// The canonical class of the `a`-arrow of `p` — the least target, `p
    /// ·a⇀ q` (§2).
    pub fn canonical_target(&self, class: &Class, label: &Label) -> Option<&Class> {
        self.canonical.get(class).and_then(|m| m.get(label))
    }

    /// All canonical arrows `(p, a, q)` with `p ·a⇀ q`.
    pub fn canonical_arrows(&self) -> impl Iterator<Item = (&Class, &Label, &Class)> {
        self.canonical.iter().flat_map(|(src, by_label)| {
            by_label
                .iter()
                .map(move |(label, target)| (src, label, target))
        })
    }

    /// Number of canonical arrows (one per `(class, label)` pair with any
    /// arrows at all).
    pub fn num_canonical_arrows(&self) -> usize {
        self.canonical.values().map(BTreeMap::len).sum()
    }

    /// Checks D1 for this schema's canonical relation. D1 holds by
    /// construction (the canonical map is keyed on `(class, label)`);
    /// exposed as a verifiable property for tests.
    pub fn check_d1(&self) -> bool {
        // The BTreeMap representation cannot express a violation; verify
        // instead that each canonical target is genuinely least.
        self.canonical.iter().all(|(src, by_label)| {
            by_label.iter().all(|(label, target)| {
                let targets = self.schema.arrow_targets(src, label);
                targets.contains(target)
                    && targets.iter().all(|t| self.schema.specializes(target, t))
            })
        })
    }

    /// Checks D2: if `q ·a⇀ s` and `p ⇒ q` then `p ·a⇀ r` for some
    /// `r ⇒ s`.
    pub fn check_d2(&self) -> bool {
        for (q, by_label) in &self.canonical {
            for (label, s) in by_label {
                for p in self.schema.classes() {
                    if p == q || !self.schema.specializes(p, q) {
                        continue;
                    }
                    match self.canonical_target(p, label) {
                        Some(r) if self.schema.specializes(r, s) => {}
                        _ => return false,
                    }
                }
            }
        }
        true
    }

    /// Reconstructs the closed arrow relation from the canonical one:
    /// `p --a--> q  iff  ∃s . s ⇒ q and p ·a⇀ s`. Equality with the stored
    /// relation is the §2 equivalence of the two presentations; exposed for
    /// tests.
    pub fn arrows_from_canonical(&self) -> BTreeSet<(Class, Label, Class)> {
        let mut out = BTreeSet::new();
        for (p, by_label) in &self.canonical {
            for (label, s) in by_label {
                out.insert((p.clone(), label.clone(), s.clone()));
                for q in self.schema.strict_supers(s) {
                    out.insert((p.clone(), label.clone(), q.clone()));
                }
            }
        }
        out
    }
}

impl Deref for ProperSchema {
    type Target = WeakSchema;

    fn deref(&self) -> &WeakSchema {
        &self.schema
    }
}

impl TryFrom<WeakSchema> for ProperSchema {
    type Error = SchemaError;

    fn try_from(schema: WeakSchema) -> Result<Self, SchemaError> {
        ProperSchema::try_new(schema)
    }
}

impl fmt::Debug for ProperSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProperSchema({})", self.schema)
    }
}

impl fmt::Display for ProperSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.schema.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(s: &str) -> Class {
        Class::named(s)
    }

    fn l(s: &str) -> Label {
        Label::new(s)
    }

    #[test]
    fn single_target_is_canonical() {
        let p = ProperSchema::try_new(
            WeakSchema::builder()
                .arrow("Dog", "age", "int")
                .build()
                .unwrap(),
        )
        .unwrap();
        assert_eq!(p.canonical_target(&c("Dog"), &l("age")), Some(&c("int")));
    }

    #[test]
    fn chain_of_targets_has_least() {
        // A --a--> B1, B1 ⇒ B2: targets {B1, B2}, canonical B1.
        let p = ProperSchema::try_new(
            WeakSchema::builder()
                .specialize("B1", "B2")
                .arrow("A", "a", "B1")
                .build()
                .unwrap(),
        )
        .unwrap();
        assert_eq!(p.canonical_target(&c("A"), &l("a")), Some(&c("B1")));
        assert_eq!(p.num_canonical_arrows(), 1);
    }

    #[test]
    fn incomparable_targets_fail_condition_1() {
        // C --a--> B1 and C --a--> B2 with B1, B2 incomparable: the Fig. 3
        // situation before completion.
        let weak = WeakSchema::builder()
            .arrow("C", "a", "B1")
            .arrow("C", "a", "B2")
            .build()
            .unwrap();
        let err = ProperSchema::try_new(weak).unwrap_err();
        match err {
            SchemaError::NoCanonicalClass {
                class,
                label,
                minimal_targets,
            } => {
                assert_eq!(class, c("C"));
                assert_eq!(label, l("a"));
                assert_eq!(minimal_targets, vec![c("B1"), c("B2")]);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn d1_and_d2_hold_for_valid_proper_schemas() {
        let p = ProperSchema::try_new(
            WeakSchema::builder()
                .specialize("Police-dog", "Dog")
                .arrow("Dog", "age", "int")
                .arrow("Police-dog", "id", "int")
                .build()
                .unwrap(),
        )
        .unwrap();
        assert!(p.check_d1());
        assert!(p.check_d2());
    }

    #[test]
    fn d2_with_refined_targets() {
        // Guide-dog ⇒ Dog; Dog --home--> Kennel; Guide-dog --home--> K2
        // with K2 ⇒ Kennel: the guide dog's canonical home is refined.
        let p = ProperSchema::try_new(
            WeakSchema::builder()
                .specialize("Guide-dog", "Dog")
                .specialize("K2", "Kennel")
                .arrow("Dog", "home", "Kennel")
                .arrow("Guide-dog", "home", "K2")
                .build()
                .unwrap(),
        )
        .unwrap();
        assert_eq!(
            p.canonical_target(&c("Dog"), &l("home")),
            Some(&c("Kennel"))
        );
        assert_eq!(
            p.canonical_target(&c("Guide-dog"), &l("home")),
            Some(&c("K2"))
        );
        assert!(p.check_d2());
    }

    #[test]
    fn arrows_from_canonical_recovers_closed_relation() {
        let weak = WeakSchema::builder()
            .specialize("B1", "B2")
            .specialize("Sub", "A")
            .arrow("A", "a", "B1")
            .build()
            .unwrap();
        let p = ProperSchema::try_new(weak.clone()).unwrap();
        let rebuilt = p.arrows_from_canonical();
        let stored: BTreeSet<(Class, Label, Class)> = weak
            .arrow_triples()
            .map(|(a, b, x)| (a.clone(), b.clone(), x.clone()))
            .collect();
        assert_eq!(rebuilt, stored);
    }

    #[test]
    fn deref_exposes_weak_queries() {
        let p = ProperSchema::try_new(WeakSchema::builder().arrow("A", "a", "B").build().unwrap())
            .unwrap();
        assert!(p.contains_class(&c("A")));
        assert_eq!(p.num_arrows(), 1);
    }

    #[test]
    fn empty_schema_is_proper() {
        let p = ProperSchema::try_new(WeakSchema::empty()).unwrap();
        assert_eq!(p.num_canonical_arrows(), 0);
        assert!(p.check_d1() && p.check_d2());
    }

    #[test]
    fn implicit_class_can_be_canonical() {
        // After completion the canonical target of C's a-arrow is {B1,B2}.
        let x = Class::implicit([c("B1"), c("B2")]);
        let p = ProperSchema::try_new(
            WeakSchema::builder()
                .specialize(x.clone(), "B1")
                .specialize(x.clone(), "B2")
                .arrow("C", "a", x.clone())
                .build()
                .unwrap(),
        )
        .unwrap();
        assert_eq!(p.canonical_target(&c("C"), &l("a")), Some(&x));
    }
}
