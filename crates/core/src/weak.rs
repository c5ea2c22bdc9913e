//! Weak schemas: the carrier of the merge (§4.1).
//!
//! A weak schema over `N, L` is a triple `(C, E, S)` where `S` is a partial
//! order on `C` and `E ⊆ C × L × C` satisfies
//!
//! * **W1** — if `p ⇒ q` and `q --a--> r` then `p --a--> r` (arrows are
//!   inherited by specializations), and
//! * **W2** — if `p --a--> s` and `s ⇒ r` then `p --a--> r` (arrow targets
//!   are upward closed).
//!
//! [`WeakSchema`] stores the *closed* form: `S` transitively closed (strict,
//! reflexivity implicit) and `E` closed under W1/W2. Two schemas are then
//! equal iff they present the same information, and the paper's information
//! ordering `⊑` (§4.1) is component-wise containment, checked by
//! [`WeakSchema::is_subschema_of`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::class::Class;
use crate::error::{CycleWitness, SchemaError};
use crate::name::Label;
use crate::order::{self, UpSet};

/// The closed arrow relation: source ↦ label ↦ targets.
pub(crate) type ArrowMap = BTreeMap<Class, BTreeMap<Label, BTreeSet<Class>>>;

/// Raw schema parts: (classes, strict specialization map, arrow triples).
pub(crate) type RawParts = (
    BTreeSet<Class>,
    BTreeMap<Class, BTreeSet<Class>>,
    Vec<(Class, Label, Class)>,
);

/// A weak schema in canonical closed form. See the module docs.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct WeakSchema {
    pub(crate) classes: BTreeSet<Class>,
    /// Strict "above" sets: `p ↦ { q ≠ p | p ⇒ q }`, transitively closed.
    pub(crate) supers: UpSet<Class>,
    /// Arrows closed under W1/W2. No empty inner maps or sets are stored.
    pub(crate) arrows: ArrowMap,
}

impl WeakSchema {
    /// The schema with no classes at all — the bottom of the information
    /// ordering and the unit of the merge.
    pub fn empty() -> Self {
        WeakSchema::default()
    }

    /// Starts building a schema.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder::default()
    }

    /// The classes of the schema, in sorted order.
    pub fn classes(&self) -> impl Iterator<Item = &Class> {
        self.classes.iter()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Whether `class` belongs to the schema.
    pub fn contains_class(&self, class: &Class) -> bool {
        self.classes.contains(class)
    }

    /// Whether `sub ⇒ sup` holds (reflexively: every class specializes
    /// itself, as `S` is reflexive in §2).
    pub fn specializes(&self, sub: &Class, sup: &Class) -> bool {
        order::le(&self.supers, sub, sup)
    }

    /// The classes strictly above `class` (its proper generalizations).
    pub fn strict_supers(&self, class: &Class) -> BTreeSet<Class> {
        self.supers.get(class).cloned().unwrap_or_default()
    }

    /// The classes strictly below `class` (its proper specializations).
    pub fn strict_subs(&self, class: &Class) -> BTreeSet<Class> {
        self.supers
            .iter()
            .filter(|(_, sups)| sups.contains(class))
            .map(|(sub, _)| sub.clone())
            .collect()
    }

    /// All strict specialization pairs `(sub, sup)` of the closed relation.
    pub fn specialization_pairs(&self) -> impl Iterator<Item = (&Class, &Class)> {
        self.supers
            .iter()
            .flat_map(|(sub, sups)| sups.iter().map(move |sup| (sub, sup)))
    }

    /// Number of strict specialization pairs in the closed relation.
    pub fn num_specializations(&self) -> usize {
        self.supers.values().map(BTreeSet::len).sum()
    }

    /// `R(p, a)`: the classes reachable from `p` via an `a`-arrow (§4.2).
    pub fn arrow_targets(&self, class: &Class, label: &Label) -> BTreeSet<Class> {
        self.arrows
            .get(class)
            .and_then(|by_label| by_label.get(label))
            .cloned()
            .unwrap_or_default()
    }

    /// Whether the closed schema contains the arrow `p --a--> q`.
    pub fn has_arrow(&self, class: &Class, label: &Label, target: &Class) -> bool {
        self.arrows
            .get(class)
            .and_then(|by_label| by_label.get(label))
            .is_some_and(|targets| targets.contains(target))
    }

    /// The labels of arrows leaving `class`.
    pub fn labels_of(&self, class: &Class) -> BTreeSet<Label> {
        self.arrows
            .get(class)
            .map(|by_label| by_label.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Every label used anywhere in the schema.
    pub fn all_labels(&self) -> BTreeSet<Label> {
        self.arrows
            .values()
            .flat_map(|by_label| by_label.keys().cloned())
            .collect()
    }

    /// All arrows `(source, label, target)` of the closed relation.
    pub fn arrow_triples(&self) -> impl Iterator<Item = (&Class, &Label, &Class)> {
        self.arrows.iter().flat_map(|(src, by_label)| {
            by_label
                .iter()
                .flat_map(move |(label, targets)| targets.iter().map(move |t| (src, label, t)))
        })
    }

    /// Number of arrows in the closed relation.
    pub fn num_arrows(&self) -> usize {
        self.arrows
            .values()
            .flat_map(|by_label| by_label.values())
            .map(BTreeSet::len)
            .sum()
    }

    /// Number of distinct `(class, label)` arrow pairs. The excess of
    /// [`num_arrows`](WeakSchema::num_arrows) over this count is the
    /// schema's NFA branching — each multi-target pair feeds the `Imp`
    /// fixpoint of completion — which is why merge planning weighs it.
    pub fn num_arrow_pairs(&self) -> usize {
        self.arrows.values().map(BTreeMap::len).sum()
    }

    /// `R(X, a)` for a set `X` of classes (§4.2): the union of `R(p, a)`
    /// over `p ∈ X`.
    pub fn arrow_targets_of_set<'a>(
        &self,
        set: impl IntoIterator<Item = &'a Class>,
        label: &Label,
    ) -> BTreeSet<Class> {
        let mut out = BTreeSet::new();
        for class in set {
            out.extend(self.arrow_targets(class, label));
        }
        out
    }

    /// The information ordering `⊑` of §4.1: every class, specialization
    /// pair and arrow of `self` appears in `other`.
    pub fn is_subschema_of(&self, other: &WeakSchema) -> bool {
        if !self.classes.is_subset(&other.classes) {
            return false;
        }
        for (sub, sups) in &self.supers {
            let other_sups = match other.supers.get(sub) {
                Some(s) => s,
                None => return false,
            };
            if !sups.is_subset(other_sups) {
                return false;
            }
        }
        for (src, by_label) in &self.arrows {
            for (label, targets) in by_label {
                let other_targets = match other.arrows.get(src).and_then(|m| m.get(label)) {
                    Some(t) => t,
                    None => return false,
                };
                if !targets.is_subset(other_targets) {
                    return false;
                }
            }
        }
        true
    }

    /// The minimal elements of `set` under this schema's specialization
    /// order — the paper's `MinS(X)` (§4.2).
    pub fn min_s<'a>(&self, set: impl IntoIterator<Item = &'a Class>) -> BTreeSet<Class> {
        order::minimal_elements(&self.supers, set)
            .into_iter()
            .cloned()
            .collect()
    }

    /// The maximal elements of `set` — `MaxS(X)`, the dual used by lower
    /// merges (§6).
    pub fn max_s<'a>(&self, set: impl IntoIterator<Item = &'a Class>) -> BTreeSet<Class> {
        order::maximal_elements(&self.supers, set)
            .into_iter()
            .cloned()
            .collect()
    }

    /// Removes every implicit class (and all edges touching one).
    ///
    /// Implicit classes carry no information beyond their origin (§4.2), so
    /// stripping before a subsequent merge loses nothing:
    /// `strip(complete(G)) == G` (tested in `complete`). This is how the
    /// "readily identified" extra classes of §1 are handled when a merge
    /// result feeds into another merge.
    pub fn strip_implicit(&self) -> WeakSchema {
        if !self.classes.iter().any(Class::is_implicit) {
            return self.clone();
        }
        let keep = |c: &Class| !c.is_implicit();
        let classes: BTreeSet<Class> = self.classes.iter().filter(|c| keep(c)).cloned().collect();
        let mut supers: UpSet<Class> = BTreeMap::new();
        for (sub, sups) in &self.supers {
            if !keep(sub) {
                continue;
            }
            let kept: BTreeSet<Class> = sups.iter().filter(|c| keep(c)).cloned().collect();
            if !kept.is_empty() {
                supers.insert(sub.clone(), kept);
            }
        }
        let mut arrows: ArrowMap = BTreeMap::new();
        for (src, by_label) in &self.arrows {
            if !keep(src) {
                continue;
            }
            let mut kept_labels = BTreeMap::new();
            for (label, targets) in by_label {
                let kept: BTreeSet<Class> = targets.iter().filter(|c| keep(c)).cloned().collect();
                if !kept.is_empty() {
                    kept_labels.insert(label.clone(), kept);
                }
            }
            if !kept_labels.is_empty() {
                arrows.insert(src.clone(), kept_labels);
            }
        }
        WeakSchema {
            classes,
            supers,
            arrows,
        }
    }

    /// A canonical FNV-1a content hash of the closed schema.
    ///
    /// The hash runs over the canonical (sorted) iteration order of the
    /// closed form — classes, then specialization pairs, then arrow
    /// triples, each length-framed — so it is independent of how the
    /// schema was built: schemas that compare equal hash equal no matter
    /// the declaration or merge order of their parts. Two different
    /// schemas collide only with ordinary 64-bit-hash probability.
    ///
    /// This is the identity of an immutable schema *version* in the
    /// registry (`crates/registry`) and is surfaced by `smerge stats`.
    pub fn content_hash(&self) -> u64 {
        use std::fmt::Write as _;
        use std::hash::Hasher as _;
        let mut fnv = crate::compile::Fnv::default();
        let item = |fnv: &mut crate::compile::Fnv, text: &str| {
            fnv.write(&(text.len() as u64).to_le_bytes());
            fnv.write(text.as_bytes());
        };
        // Each class is framed as its `Display` text. A named class's text
        // is its name; an implicit class's is rendered into one reused
        // buffer, so hashing allocates nothing per occurrence.
        let mut rendered = String::new();
        let mut class_item = |fnv: &mut crate::compile::Fnv, class: &Class| match class {
            Class::Named(name) => item(fnv, name.as_str()),
            implicit => {
                rendered.clear();
                let _ = write!(rendered, "{implicit}");
                item(fnv, &rendered);
            }
        };
        fnv.write(b"C");
        for class in &self.classes {
            class_item(&mut fnv, class);
        }
        fnv.write(b"S");
        for (sub, sups) in &self.supers {
            for sup in sups {
                class_item(&mut fnv, sub);
                class_item(&mut fnv, sup);
            }
        }
        fnv.write(b"E");
        for (src, label, tgt) in self.arrow_triples() {
            class_item(&mut fnv, src);
            item(&mut fnv, label.as_str());
            class_item(&mut fnv, tgt);
        }
        fnv.finish()
    }

    /// Checks the closed-form invariants: endpoints are classes, `S` is a
    /// strict transitively closed order, and `E` is closed under W1/W2.
    /// Always `Ok` for schemas produced by this crate; exposed so tests and
    /// downstream tools can verify hand-assembled data.
    pub fn validate(&self) -> Result<(), SchemaError> {
        for (sub, sups) in &self.supers {
            if !self.classes.contains(sub) {
                return Err(SchemaError::UnknownClass(sub.clone()));
            }
            for sup in sups {
                if !self.classes.contains(sup) {
                    return Err(SchemaError::UnknownClass(sup.clone()));
                }
            }
        }
        if !order::is_strictly_closed(&self.supers) {
            // A closed relation that is not strictly closed must contain a
            // self-loop introduced by a cycle.
            return Err(SchemaError::SpecializationCycle(CycleWitness {
                path: vec![],
            }));
        }
        for (src, by_label) in &self.arrows {
            if !self.classes.contains(src) {
                return Err(SchemaError::UnknownClass(src.clone()));
            }
            for targets in by_label.values() {
                for target in targets {
                    if !self.classes.contains(target) {
                        return Err(SchemaError::UnknownClass(target.clone()));
                    }
                }
            }
        }
        // W1: subs inherit arrows.
        for (sub, sups) in &self.supers {
            for sup in sups {
                if let Some(by_label) = self.arrows.get(sup) {
                    for (label, targets) in by_label {
                        let sub_targets = self.arrow_targets(sub, label);
                        for t in targets {
                            if !sub_targets.contains(t) {
                                return Err(SchemaError::UnknownClass(t.clone()));
                            }
                        }
                    }
                }
            }
        }
        // W2: targets upward closed.
        for by_label in self.arrows.values() {
            for targets in by_label.values() {
                for target in targets {
                    for above in self.strict_supers(target) {
                        if !targets.contains(&above) {
                            return Err(SchemaError::UnknownClass(above.clone()));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Builds a closed schema from raw parts, applying the closure. Shared
    /// by the builder and the merge/completion internals.
    ///
    /// Routed through the compiled engine ([`crate::compile`]): the parts
    /// are interned to dense ids, closed on bitsets and decompiled. The
    /// original symbolic closure is retained as
    /// [`WeakSchema::close_symbolic`] for the [`crate::reference`] path.
    pub(crate) fn close(
        classes: BTreeSet<Class>,
        spec_edges: BTreeMap<Class, BTreeSet<Class>>,
        raw_arrows: Vec<(Class, Label, Class)>,
    ) -> Result<WeakSchema, SchemaError> {
        crate::compile::close_ids(classes, spec_edges, raw_arrows)
    }

    /// The symbolic (pre-compilation) closure: `BTreeMap`/`BTreeSet`
    /// algorithms over symbol keys. Kept verbatim as the reference
    /// implementation; produces exactly the same schemas as
    /// [`WeakSchema::close`].
    pub(crate) fn close_symbolic(
        mut classes: BTreeSet<Class>,
        spec_edges: BTreeMap<Class, BTreeSet<Class>>,
        raw_arrows: Vec<(Class, Label, Class)>,
    ) -> Result<WeakSchema, SchemaError> {
        // Classes are whatever was declared plus every edge endpoint.
        for (sub, sups) in &spec_edges {
            classes.insert(sub.clone());
            classes.extend(sups.iter().cloned());
        }
        for (src, _, tgt) in &raw_arrows {
            classes.insert(src.clone());
            classes.insert(tgt.clone());
        }

        let supers = order::transitive_closure(&spec_edges)
            .map_err(|path| SchemaError::SpecializationCycle(CycleWitness { path }))?;

        // Group the raw arrows by source.
        let mut raw: ArrowMap = BTreeMap::new();
        for (src, label, tgt) in raw_arrows {
            raw.entry(src)
                .or_default()
                .entry(label)
                .or_default()
                .insert(tgt);
        }

        // W1 then W2. One pass of each suffices: a class's inherited arrow
        // set already contains everything its subclasses would re-derive
        // from it, and upward target closure commutes with inheritance.
        let mut arrows: ArrowMap = BTreeMap::new();
        for class in &classes {
            // W1: own raw arrows plus raw arrows of every strict super.
            let mut by_label: BTreeMap<Label, BTreeSet<Class>> = BTreeMap::new();
            let mut sources: Vec<&Class> = vec![class];
            if let Some(sups) = supers.get(class) {
                sources.extend(sups.iter());
            }
            for source in sources {
                if let Some(src_labels) = raw.get(source) {
                    for (label, targets) in src_labels {
                        by_label
                            .entry(label.clone())
                            .or_default()
                            .extend(targets.iter().cloned());
                    }
                }
            }
            // W2: close each target set upward.
            for targets in by_label.values_mut() {
                let mut expanded = BTreeSet::new();
                for target in targets.iter() {
                    if let Some(sups) = supers.get(target) {
                        expanded.extend(sups.iter().cloned());
                    }
                }
                targets.extend(expanded);
            }
            if !by_label.is_empty() {
                arrows.insert(class.clone(), by_label);
            }
        }

        // NOTE: `validate()` is deliberately *not* asserted here — closure
        // correctness is covered by the unit and property tests, and
        // completion calls `close` on schemas large enough that an O(C·E)
        // check per call dominates debug-build runtimes.
        Ok(WeakSchema {
            classes,
            supers,
            arrows,
        })
    }

    /// Decomposes the schema into (classes, strict specialization pairs,
    /// arrow triples) — convenient for re-closing after edits.
    pub(crate) fn to_raw_parts(&self) -> RawParts {
        let arrows = self
            .arrow_triples()
            .map(|(p, a, q)| (p.clone(), a.clone(), q.clone()))
            .collect();
        (self.classes.clone(), self.supers.clone(), arrows)
    }
}

impl fmt::Debug for WeakSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WeakSchema({self})")
    }
}

impl fmt::Display for WeakSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schema {{")?;
        for class in &self.classes {
            writeln!(f, "  class {class};")?;
        }
        for (sub, sups) in &self.supers {
            for sup in sups {
                writeln!(f, "  {sub} => {sup};")?;
            }
        }
        for (src, by_label) in &self.arrows {
            for (label, targets) in by_label {
                for target in targets {
                    writeln!(f, "  {src} --{label}--> {target};")?;
                }
            }
        }
        write!(f, "}}")
    }
}

/// Builder for [`WeakSchema`]. Endpoints of edges are added as classes
/// automatically; `build` computes the W1/W2 closure and rejects cyclic
/// specialization declarations.
#[derive(Default, Clone, Debug)]
pub struct SchemaBuilder {
    classes: BTreeSet<Class>,
    spec_edges: BTreeMap<Class, BTreeSet<Class>>,
    arrows: Vec<(Class, Label, Class)>,
}

impl SchemaBuilder {
    /// Declares a class.
    pub fn class(mut self, class: impl Into<Class>) -> Self {
        self.classes.insert(class.into());
        self
    }

    /// Declares several classes.
    pub fn classes<I>(mut self, classes: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<Class>,
    {
        self.classes.extend(classes.into_iter().map(Into::into));
        self
    }

    /// Declares `sub ⇒ sup` (`sub` is a specialization of `sup`).
    pub fn specialize(mut self, sub: impl Into<Class>, sup: impl Into<Class>) -> Self {
        self.spec_edges
            .entry(sub.into())
            .or_default()
            .insert(sup.into());
        self
    }

    /// Declares the arrow `src --label--> tgt`.
    pub fn arrow(
        mut self,
        src: impl Into<Class>,
        label: impl Into<Label>,
        tgt: impl Into<Class>,
    ) -> Self {
        self.arrows.push((src.into(), label.into(), tgt.into()));
        self
    }

    /// Closes and validates the schema.
    pub fn build(self) -> Result<WeakSchema, SchemaError> {
        WeakSchema::close(self.classes, self.spec_edges, self.arrows)
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
    fn empty_schema() {
        let g = WeakSchema::empty();
        assert_eq!(g.num_classes(), 0);
        assert_eq!(g.num_arrows(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn content_hash_is_order_independent() {
        // Same information declared in opposite orders: equal schemas,
        // equal hashes.
        let g1 = WeakSchema::builder()
            .arrow("Dog", "age", "int")
            .arrow("Dog", "owner", "Person")
            .specialize("Guide-dog", "Dog")
            .build()
            .unwrap();
        let g2 = WeakSchema::builder()
            .specialize("Guide-dog", "Dog")
            .arrow("Dog", "owner", "Person")
            .arrow("Dog", "age", "int")
            .build()
            .unwrap();
        assert_eq!(g1, g2);
        assert_eq!(g1.content_hash(), g2.content_hash());
    }

    #[test]
    fn content_hash_distinguishes_components() {
        let base = WeakSchema::builder()
            .arrow("Dog", "age", "int")
            .build()
            .unwrap();
        let extra_class = WeakSchema::builder()
            .arrow("Dog", "age", "int")
            .class("Cat")
            .build()
            .unwrap();
        let extra_spec = WeakSchema::builder()
            .arrow("Dog", "age", "int")
            .specialize("int", "Dog")
            .build()
            .unwrap();
        assert_ne!(base.content_hash(), extra_class.content_hash());
        assert_ne!(base.content_hash(), extra_spec.content_hash());
        assert_ne!(extra_class.content_hash(), extra_spec.content_hash());
        assert_ne!(base.content_hash(), WeakSchema::empty().content_hash());
    }

    #[test]
    fn builder_auto_adds_endpoints() {
        let g = WeakSchema::builder()
            .arrow("Dog", "age", "int")
            .build()
            .unwrap();
        assert!(g.contains_class(&c("Dog")));
        assert!(g.contains_class(&c("int")));
        assert!(g.has_arrow(&c("Dog"), &l("age"), &c("int")));
    }

    #[test]
    fn w1_closure_inherits_arrows() {
        // Police-dog ⇒ Dog, Dog --age--> int  ⟹  Police-dog --age--> int.
        let g = WeakSchema::builder()
            .specialize("Police-dog", "Dog")
            .arrow("Dog", "age", "int")
            .build()
            .unwrap();
        assert!(g.has_arrow(&c("Police-dog"), &l("age"), &c("int")));
    }

    #[test]
    fn w2_closure_lifts_targets() {
        // Lives --occ--> Police-dog, Police-dog ⇒ Dog ⟹ Lives --occ--> Dog.
        let g = WeakSchema::builder()
            .specialize("Police-dog", "Dog")
            .arrow("Lives", "occ", "Police-dog")
            .build()
            .unwrap();
        assert!(g.has_arrow(&c("Lives"), &l("occ"), &c("Dog")));
    }

    #[test]
    fn w1_and_w2_compose() {
        // p' ⇒ p, p --a--> q, q ⇒ q' ⟹ p' --a--> q'.
        let g = WeakSchema::builder()
            .specialize("p'", "p")
            .specialize("q", "q'")
            .arrow("p", "a", "q")
            .build()
            .unwrap();
        assert!(g.has_arrow(&c("p'"), &l("a"), &c("q'")));
        assert_eq!(g.arrow_targets(&c("p'"), &l("a")).len(), 2);
    }

    #[test]
    fn closure_through_chains() {
        let g = WeakSchema::builder()
            .specialize("c", "b")
            .specialize("b", "a")
            .arrow("a", "f", "t1")
            .specialize("t1", "t2")
            .specialize("t2", "t3")
            .build()
            .unwrap();
        // c inherits a's arrow, and the target set is {t1,t2,t3}.
        assert_eq!(
            g.arrow_targets(&c("c"), &l("f")),
            [c("t1"), c("t2"), c("t3")].into_iter().collect()
        );
        assert!(g.specializes(&c("c"), &c("a")), "transitive");
    }

    #[test]
    fn specialization_is_reflexive_in_queries() {
        let g = WeakSchema::builder().class("A").build().unwrap();
        assert!(g.specializes(&c("A"), &c("A")));
    }

    #[test]
    fn cyclic_specialization_is_rejected() {
        let err = WeakSchema::builder()
            .specialize("A", "B")
            .specialize("B", "A")
            .build()
            .unwrap_err();
        match err {
            SchemaError::SpecializationCycle(w) => {
                assert_eq!(w.path.first(), w.path.last());
            }
            other => panic!("expected cycle, got {other}"),
        }
    }

    #[test]
    fn self_specialization_is_harmless() {
        // S is reflexive in the paper; declaring p ⇒ p is a no-op.
        let g = WeakSchema::builder().specialize("A", "A").build().unwrap();
        assert!(g.specializes(&c("A"), &c("A")));
        assert_eq!(g.num_specializations(), 0, "strict relation stays empty");
    }

    #[test]
    fn figure_2_dog_schema_closure() {
        // The schema of Fig. 2 (drawn with implied edges omitted): after
        // closure, Guide-dog and Police-dog carry all of Dog's arrows.
        let g = WeakSchema::builder()
            .specialize("Guide-dog", "Dog")
            .specialize("Police-dog", "Dog")
            .arrow("Dog", "age", "int")
            .arrow("Dog", "kind", "Breed")
            .arrow("Police-dog", "id-num", "int")
            .arrow("Lives", "occ", "Dog")
            .arrow("Lives", "home", "Kennel")
            .arrow("Kennel", "addr", "Place")
            .arrow("Lives", "owner", "Person")
            .build()
            .unwrap();
        for dog in ["Guide-dog", "Police-dog"] {
            assert!(
                g.has_arrow(&c(dog), &l("age"), &c("int")),
                "{dog} inherits age"
            );
            assert!(
                g.has_arrow(&c(dog), &l("kind"), &c("Breed")),
                "{dog} inherits kind"
            );
        }
        assert!(
            !g.has_arrow(&c("Guide-dog"), &l("id-num"), &c("int")),
            "id-num is specific to Police-dog"
        );
        assert_eq!(g.labels_of(&c("Police-dog")).len(), 3);
    }

    #[test]
    fn subschema_ordering_laws() {
        let small = WeakSchema::builder().arrow("A", "a", "B").build().unwrap();
        let big = WeakSchema::builder()
            .arrow("A", "a", "B")
            .specialize("C", "A")
            .build()
            .unwrap();
        assert!(small.is_subschema_of(&small), "reflexive");
        assert!(small.is_subschema_of(&big));
        assert!(!big.is_subschema_of(&small), "antisymmetric direction");
        assert!(
            WeakSchema::empty().is_subschema_of(&small),
            "empty is bottom"
        );
    }

    #[test]
    fn subschema_requires_edges_not_just_classes() {
        let with_edge = WeakSchema::builder().specialize("A", "B").build().unwrap();
        let just_classes = WeakSchema::builder().classes(["A", "B"]).build().unwrap();
        assert!(just_classes.is_subschema_of(&with_edge));
        assert!(!with_edge.is_subschema_of(&just_classes));
    }

    #[test]
    fn equality_is_information_equality() {
        // Declaring the closure explicitly or letting `build` derive it
        // yields the same canonical schema.
        let derived = WeakSchema::builder()
            .specialize("P", "Q")
            .arrow("Q", "a", "R")
            .build()
            .unwrap();
        let explicit = WeakSchema::builder()
            .specialize("P", "Q")
            .arrow("Q", "a", "R")
            .arrow("P", "a", "R")
            .build()
            .unwrap();
        assert_eq!(derived, explicit);
    }

    #[test]
    fn min_s_and_max_s() {
        let g = WeakSchema::builder()
            .specialize("C", "A")
            .specialize("C", "B")
            .build()
            .unwrap();
        let all = [c("A"), c("B"), c("C")];
        assert_eq!(g.min_s(&all), [c("C")].into_iter().collect());
        assert_eq!(g.max_s(&all), [c("A"), c("B")].into_iter().collect());
    }

    #[test]
    fn arrow_targets_of_set_unions() {
        let g = WeakSchema::builder()
            .arrow("A1", "a", "B1")
            .arrow("A2", "a", "B2")
            .build()
            .unwrap();
        let set = [c("A1"), c("A2")];
        assert_eq!(
            g.arrow_targets_of_set(&set, &l("a")),
            [c("B1"), c("B2")].into_iter().collect()
        );
    }

    #[test]
    fn strip_implicit_removes_classes_and_edges() {
        let x = Class::implicit([c("B1"), c("B2")]);
        let g = WeakSchema::builder()
            .specialize(x.clone(), "B1")
            .specialize(x.clone(), "B2")
            .arrow("C", "a", x.clone())
            .arrow("C", "a", "B1")
            .build()
            .unwrap();
        let stripped = g.strip_implicit();
        assert!(!stripped.contains_class(&x));
        assert!(stripped.has_arrow(&c("C"), &l("a"), &c("B1")));
        assert!(stripped.validate().is_ok());
        // Stripping an implicit-free schema is identity.
        assert_eq!(stripped.strip_implicit(), stripped);
    }

    #[test]
    fn display_round_trips_visually() {
        let g = WeakSchema::builder()
            .specialize("B", "A")
            .arrow("A", "f", "T")
            .build()
            .unwrap();
        let text = g.to_string();
        assert!(text.contains("B => A"));
        assert!(text.contains("A --f--> T"));
        assert!(text.contains("B --f--> T"), "closure is visible: {text}");
    }

    #[test]
    fn duplicate_arrow_declarations_collapse() {
        let g = WeakSchema::builder()
            .arrow("A", "a", "B")
            .arrow("A", "a", "B")
            .build()
            .unwrap();
        assert_eq!(g.num_arrows(), 1);
    }

    #[test]
    fn validate_accepts_all_built_schemas() {
        let g = WeakSchema::builder()
            .specialize("C", "B")
            .specialize("B", "A")
            .arrow("A", "x", "D")
            .arrow("C", "y", "E")
            .specialize("E", "F")
            .build()
            .unwrap();
        assert!(g.validate().is_ok());
    }
}
