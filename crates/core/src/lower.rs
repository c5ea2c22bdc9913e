//! Lower merges: greatest lower bounds of annotated schemas (§6).
//!
//! Upper merges present *all* information of their inputs; dually, a lower
//! merge presents the information *common* to the inputs, so that any
//! instance of any input — and unions of such instances — is an instance
//! of the merge. This is the federated-database flavour of merging.
//!
//! Plain weak schemas lose too much under greatest lower bounds (the §6
//! `Dog` example), so arrows carry [`Participation`] constraints, with the
//! convention that an arrow a schema does not have is equivalent to one
//! with constraint `0`. The **annotated information ordering** is then
//!
//! ```text
//! G₁ ⊑ G₂  iff  C₁ ⊆ C₂,  S₁ ⊆ S₂,  and  K₁(e) ≤ K₂(e) for every arrow e
//! ```
//!
//! with `≤` the Fig. 11 order (`0/1` at the bottom) and absent arrows read
//! as `0`. After padding every input with the classes of all the others,
//! the greatest lower bound exists and is computed component-wise:
//! `S = ⋂ Sᵢ` and `K(e) = ⋀ Kᵢ(e)` ([`lower_merge`]). Unlike upper merges,
//! this can never fail — there is always a common weakening.
//!
//! [`lower_complete`] then restores condition 1 by introducing implicit
//! **union classes** *above* sets of incomparable arrow targets (the dual
//! of §4.2, sketched at the end of §6; the paper defers the details to its
//! reference \[5\], so the fixpoint used here — documented on the function —
//! is this crate's reconstruction).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::class::Class;
use crate::error::SchemaError;
use crate::name::Label;
use crate::order;
use crate::participation::Participation;
use crate::proper::ProperSchema;
use crate::weak::WeakSchema;

/// An arrow key: source, label, target.
pub type Edge = (Class, Label, Class);

/// A weak schema whose arrows carry participation constraints.
///
/// Arrows of the underlying schema default to `1` (the plain reading of
/// §2: "any instance of the class p must have an a-attribute"); the
/// `optional` set lists the arrows weakened to `0/1`. Absent arrows are
/// `0` by the §6 convention.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct AnnotatedSchema {
    schema: WeakSchema,
    optional: BTreeSet<Edge>,
}

impl AnnotatedSchema {
    /// Annotates a plain schema with every arrow required (`1`).
    pub fn all_required(schema: WeakSchema) -> Self {
        AnnotatedSchema {
            schema,
            optional: BTreeSet::new(),
        }
    }

    /// Starts building an annotated schema.
    pub fn builder() -> AnnotatedSchemaBuilder {
        AnnotatedSchemaBuilder::default()
    }

    pub(crate) fn from_parts(schema: WeakSchema, optional: BTreeSet<Edge>) -> Self {
        // Validation is exercised by tests, not asserted per construction:
        // lower completion rebuilds schemas every fixpoint round.
        AnnotatedSchema { schema, optional }
    }

    /// Transfers this schema's participation annotations onto a larger
    /// schema — typically its completion, which works on the bare weak
    /// schema and would otherwise forget which arrows were optional.
    /// Edges of `schema` that this schema marks optional stay `0/1`;
    /// everything else (including completion-introduced edges) is
    /// required.
    pub fn transfer_to(&self, schema: &WeakSchema) -> AnnotatedSchema {
        let optional = self
            .optional
            .iter()
            .filter(|(src, label, tgt)| schema.has_arrow(src, label, tgt))
            .cloned()
            .collect();
        AnnotatedSchema::from_parts(schema.clone(), optional)
    }

    /// The underlying weak schema.
    pub fn schema(&self) -> &WeakSchema {
        &self.schema
    }

    /// The participation constraint of an arrow (`0` when absent).
    pub fn participation(&self, src: &Class, label: &Label, tgt: &Class) -> Participation {
        if !self.schema.has_arrow(src, label, tgt) {
            Participation::Zero
        } else if self
            .optional
            .contains(&(src.clone(), label.clone(), tgt.clone()))
        {
            Participation::ZeroOrOne
        } else {
            Participation::One
        }
    }

    /// The `0/1` arrows.
    pub fn optional_edges(&self) -> impl Iterator<Item = &Edge> {
        self.optional.iter()
    }

    /// Number of `0/1` arrows.
    pub fn num_optional(&self) -> usize {
        self.optional.len()
    }

    /// Adds bare classes (no edges), the §6 padding step.
    pub fn pad_with_classes<I>(&self, classes: I) -> AnnotatedSchema
    where
        I: IntoIterator,
        I::Item: Into<Class>,
    {
        let (mut cs, spec, arrows) = self.schema.to_raw_parts();
        cs.extend(classes.into_iter().map(Into::into));
        let schema = WeakSchema::close(cs, spec, arrows)
            .expect("padding with bare classes cannot create cycles");
        AnnotatedSchema {
            schema,
            optional: self.optional.clone(),
        }
    }

    /// The annotated information ordering (module docs): `self ⊑ other`.
    pub fn is_sub_annotated(&self, other: &AnnotatedSchema) -> bool {
        if !self
            .schema
            .classes()
            .all(|c| other.schema.contains_class(c))
        {
            return false;
        }
        for (sub, sup) in self.schema.specialization_pairs() {
            if !(other.schema.specializes(sub, sup) && sub != sup) {
                return false;
            }
        }
        // K₁(e) ≤ K₂(e) pointwise over the union of the edge sets. Edges
        // absent from both are 0 ≤ 0 and can be skipped.
        let mut edges: BTreeSet<Edge> = self
            .schema
            .arrow_triples()
            .map(|(p, a, q)| (p.clone(), a.clone(), q.clone()))
            .collect();
        edges.extend(
            other
                .schema
                .arrow_triples()
                .map(|(p, a, q)| (p.clone(), a.clone(), q.clone())),
        );
        edges
            .iter()
            .all(|(p, a, q)| self.participation(p, a, q).le(other.participation(p, a, q)))
    }

    /// Validates the annotation:
    ///
    /// * every optional edge exists in the schema, and
    /// * participation is closure-coherent — a derived arrow is at least as
    ///   strong as the arrows it derives from (if `p ⇒ q` and `q`'s arrow
    ///   is required then `p`'s is too, and likewise along W2).
    pub fn validate(&self) -> Result<(), SchemaError> {
        for (src, label, tgt) in &self.optional {
            if !self.schema.has_arrow(src, label, tgt) {
                return Err(SchemaError::AnnotationOnMissingArrow {
                    class: src.clone(),
                    label: label.clone(),
                    target: tgt.clone(),
                });
            }
        }
        for (q, label, r) in self.schema.arrow_triples() {
            if self.participation(q, label, r) != Participation::One {
                continue;
            }
            // W1 coherence: subclasses must also require the arrow.
            for p in self.schema.strict_subs(q) {
                if self.participation(&p, label, r) != Participation::One {
                    return Err(SchemaError::AnnotationOnMissingArrow {
                        class: p.clone(),
                        label: label.clone(),
                        target: r.clone(),
                    });
                }
            }
            // W2 coherence: supertargets must also be required.
            for r2 in self.schema.strict_supers(r) {
                if self.participation(q, label, &r2) != Participation::One {
                    return Err(SchemaError::AnnotationOnMissingArrow {
                        class: q.clone(),
                        label: label.clone(),
                        target: r2.clone(),
                    });
                }
            }
        }
        Ok(())
    }
}

impl From<WeakSchema> for AnnotatedSchema {
    fn from(schema: WeakSchema) -> Self {
        AnnotatedSchema::all_required(schema)
    }
}

impl fmt::Debug for AnnotatedSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AnnotatedSchema({self})")
    }
}

impl fmt::Display for AnnotatedSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schema {{")?;
        for class in self.schema.classes() {
            writeln!(f, "  class {class};")?;
        }
        for (sub, sup) in self.schema.specialization_pairs() {
            writeln!(f, "  {sub} => {sup};")?;
        }
        for (src, label, tgt) in self.schema.arrow_triples() {
            let k = self.participation(src, label, tgt);
            match k {
                Participation::One => writeln!(f, "  {src} --{label}--> {tgt};")?,
                _ => writeln!(f, "  {src} --{label}?--> {tgt};")?,
            }
        }
        write!(f, "}}")
    }
}

/// Builder for [`AnnotatedSchema`]. Raw arrows carry a participation
/// constraint; the closure derives each implied arrow with the join
/// (strongest) of the constraints of the raw arrows deriving it, so a
/// required arrow stays required through inheritance.
#[derive(Default, Clone, Debug)]
pub struct AnnotatedSchemaBuilder {
    classes: BTreeSet<Class>,
    spec: BTreeMap<Class, BTreeSet<Class>>,
    raw: Vec<(Class, Label, Class, Participation)>,
}

impl AnnotatedSchemaBuilder {
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

    /// Declares `sub ⇒ sup`.
    pub fn specialize(mut self, sub: impl Into<Class>, sup: impl Into<Class>) -> Self {
        self.spec.entry(sub.into()).or_default().insert(sup.into());
        self
    }

    /// Declares a required (`1`) arrow.
    pub fn arrow(
        self,
        src: impl Into<Class>,
        label: impl Into<Label>,
        tgt: impl Into<Class>,
    ) -> Self {
        self.arrow_with(src, label, tgt, Participation::One)
    }

    /// Declares an optional (`0/1`) arrow.
    pub fn optional_arrow(
        self,
        src: impl Into<Class>,
        label: impl Into<Label>,
        tgt: impl Into<Class>,
    ) -> Self {
        self.arrow_with(src, label, tgt, Participation::ZeroOrOne)
    }

    /// Declares an arrow with an explicit constraint. `0`-arrows are
    /// dropped (the paper's "not drawn" convention).
    pub fn arrow_with(
        mut self,
        src: impl Into<Class>,
        label: impl Into<Label>,
        tgt: impl Into<Class>,
        participation: Participation,
    ) -> Self {
        if participation.is_present() {
            self.raw
                .push((src.into(), label.into(), tgt.into(), participation));
        }
        self
    }

    /// Closes and validates the schema.
    pub fn build(self) -> Result<AnnotatedSchema, SchemaError> {
        let arrows: Vec<Edge> = self
            .raw
            .iter()
            .map(|(p, a, q, _)| (p.clone(), a.clone(), q.clone()))
            .collect();
        let schema = WeakSchema::close(self.classes, self.spec, arrows)?;
        // Only a `0/1` arrow can derive an optional closed arrow: with
        // none declared, every closed arrow is required.
        if self.raw.iter().all(|(.., k)| *k == Participation::One) {
            return Ok(AnnotatedSchema::all_required(schema));
        }

        // Closed participation: join over the raw arrows deriving each
        // closed arrow. `join` of `1` and `0/1` is `1`; it cannot fail.
        let mut strength: BTreeMap<Edge, Participation> = BTreeMap::new();
        for (q, label, r0, k) in &self.raw {
            let mut sources: Vec<Class> = vec![q.clone()];
            sources.extend(schema.strict_subs(q));
            let mut targets: Vec<Class> = vec![r0.clone()];
            targets.extend(schema.strict_supers(r0).iter().cloned());
            for p in &sources {
                for r in &targets {
                    let key = (p.clone(), label.clone(), r.clone());
                    let entry = strength.entry(key).or_insert(Participation::ZeroOrOne);
                    *entry = entry.join(*k).expect("1 and 0/1 always join");
                }
            }
        }
        let optional: BTreeSet<Edge> = strength
            .into_iter()
            .filter(|(_, k)| *k == Participation::ZeroOrOne)
            .map(|(edge, _)| edge)
            .collect();
        Ok(AnnotatedSchema::from_parts(schema, optional))
    }
}

/// The least upper bound of annotated schemas — the *upper* merge of §4
/// extended pointwise to participation constraints.
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
/// [`crate::error::MergeError::Incompatible`] on specialization cycles,
/// as for the plain weak join.
pub fn annotated_join<'a>(
    schemas: impl IntoIterator<Item = &'a AnnotatedSchema>,
) -> Result<AnnotatedSchema, crate::error::MergeError> {
    let inputs: Vec<&AnnotatedSchema> = schemas.into_iter().collect();
    let mut builder = AnnotatedSchema::builder();
    for input in &inputs {
        for class in input.schema.classes() {
            builder = builder.class(class.clone());
        }
        for (sub, sup) in input.schema.specialization_pairs() {
            builder = builder.specialize(sub.clone(), sup.clone());
        }
        for (src, label, tgt) in input.schema.arrow_triples() {
            builder = builder.arrow_with(
                src.clone(),
                label.clone(),
                tgt.clone(),
                input.participation(src, label, tgt),
            );
        }
    }
    builder.build().map_err(|err| match err {
        SchemaError::SpecializationCycle(witness) => {
            crate::error::MergeError::Incompatible(witness)
        }
        other => crate::error::MergeError::Schema(other),
    })
}

/// The greatest lower bound of a collection of annotated schemas under the
/// annotated information ordering, after padding each input with the
/// classes of all the others (§6).
///
/// Cannot fail: there is always a common weakening. The GLB of an empty
/// collection is the empty schema.
pub fn lower_merge<'a>(schemas: impl IntoIterator<Item = &'a AnnotatedSchema>) -> AnnotatedSchema {
    let inputs: Vec<&AnnotatedSchema> = schemas.into_iter().collect();
    if inputs.is_empty() {
        return AnnotatedSchema::default();
    }

    // Classes: the union (= the padded intersection).
    let mut classes: BTreeSet<Class> = BTreeSet::new();
    for input in &inputs {
        classes.extend(input.schema.classes().cloned());
    }

    // Specialization: pairs present in every input.
    let mut spec: BTreeMap<Class, BTreeSet<Class>> = BTreeMap::new();
    for (sub, sup) in inputs[0].schema.specialization_pairs() {
        if inputs[1..]
            .iter()
            .all(|g| g.schema.specializes(sub, sup) && sub != sup)
        {
            spec.entry(sub.clone()).or_default().insert(sup.clone());
        }
    }

    // Arrows: per-edge meets. An edge present anywhere survives, weakened
    // to 0/1 unless every input agrees on 1.
    let mut edge_keys: BTreeSet<Edge> = BTreeSet::new();
    for input in &inputs {
        edge_keys.extend(
            input
                .schema
                .arrow_triples()
                .map(|(p, a, q)| (p.clone(), a.clone(), q.clone())),
        );
    }
    let mut arrows: Vec<Edge> = Vec::new();
    let mut optional: BTreeSet<Edge> = BTreeSet::new();
    for edge in edge_keys {
        let (p, a, q) = &edge;
        let met = inputs
            .iter()
            .map(|g| g.participation(p, a, q))
            .reduce(Participation::meet)
            .expect("at least one input");
        if met.is_present() {
            arrows.push(edge.clone());
            if met == Participation::ZeroOrOne {
                optional.insert(edge);
            }
        }
    }

    let schema = WeakSchema::close(classes, spec, arrows)
        .expect("the intersection of partial orders is a partial order");
    AnnotatedSchema::from_parts(schema, optional)
}

/// One union class introduced by lower completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnionClassInfo {
    /// The introduced class.
    pub class: Class,
    /// The incomparable arrow targets it was introduced above.
    pub members: BTreeSet<Class>,
    /// An arrow `(source, label)` that required it.
    pub demanded_by: (Class, Label),
}

/// Everything lower completion did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LowerCompletionReport {
    /// The union classes introduced, in introduction order.
    pub unions: Vec<UnionClassInfo>,
    /// Meet-style implicit classes introduced by the conjunctive fallback
    /// (multiple-inheritance target sets that no union class can resolve).
    pub meet_classes: Vec<Class>,
    /// Rounds the fixpoint took.
    pub rounds: usize,
}

/// Builds a proper schema from a weak lower merge by introducing implicit
/// classes *above* incomparable arrow-target sets (§6).
///
/// The paper sketches this step and defers the construction to its
/// reference \[5\]; the fixpoint here is our reconstruction:
///
/// 1. For every `(class, label)` whose target set `T` has no least element,
///    introduce the union class `U = {m₁|…|mₖ}` over `MinS(T)` (flattening
///    existing implicit members), *replace* that class's raw `a`-arrows by
///    a single arrow to `U`, and keep the strongest former participation —
///    the value is in *some* origin's extent, so the replacement only
///    weakens claims, as a lower bound must.
/// 2. Add only sound specializations: each member sits below its union;
///    a union sits below every common generalization of its origins; a
///    union with fewer origins sits below one with more.
/// 3. Re-close and repeat: W1 re-derives inherited arrows (`p ⇒ q` forces
///    `p`'s arrow to `q`'s union class), whose interaction with `p`'s own
///    union is resolved in the next round by origin-set flattening, which
///    only grows origins — guaranteeing termination.
///
/// # Errors
///
/// Returns an error if the fixpoint fails to produce a proper schema
/// within an internal round limit (not observed on any workload; kept as a
/// guard rather than an `unwrap`).
pub fn lower_complete(
    merged: &AnnotatedSchema,
) -> Result<(AnnotatedSchema, ProperSchema, LowerCompletionReport), SchemaError> {
    const MAX_ROUNDS: usize = 100;

    let mut classes: BTreeSet<Class> = merged.schema.classes().cloned().collect();
    let mut spec: BTreeMap<Class, BTreeSet<Class>> = BTreeMap::new();
    for (sub, sup) in merged.schema.specialization_pairs() {
        spec.entry(sub.clone()).or_default().insert(sup.clone());
    }
    // Raw arrows with their participation.
    let mut raw: BTreeMap<(Class, Label), BTreeMap<Class, Participation>> = BTreeMap::new();
    for (p, a, q) in merged.schema.arrow_triples() {
        raw.entry((p.clone(), a.clone()))
            .or_default()
            .insert(q.clone(), merged.participation(p, a, q));
    }

    let mut report = LowerCompletionReport::default();

    for round in 1..=MAX_ROUNDS {
        report.rounds = round;
        let arrows: Vec<Edge> = raw
            .iter()
            .flat_map(|((p, a), targets)| {
                targets
                    .keys()
                    .map(move |q| (p.clone(), a.clone(), q.clone()))
            })
            .collect();
        let schema = WeakSchema::close(classes.clone(), spec.clone(), arrows)?;

        // Find (class, label) pairs without a least target.
        let mut offenders: Vec<(Class, Label, BTreeSet<Class>)> = Vec::new();
        for p in schema.classes() {
            for label in schema.labels_of(p) {
                let targets = schema.arrow_targets(p, &label);
                if order::least_element(&schema.supers, &targets).is_none() {
                    offenders.push((p.clone(), label.clone(), targets));
                }
            }
        }
        if offenders.is_empty() {
            return finish(schema, &raw, report);
        }

        let mut changed = false;
        for (p, label, targets) in offenders {
            let minimal = schema.min_s(&targets);
            let union = Class::implicit_union(minimal.iter().cloned());
            if classes.insert(union.clone()) {
                changed = true;
                report.unions.push(UnionClassInfo {
                    class: union.clone(),
                    members: minimal.clone(),
                    demanded_by: (p.clone(), label.clone()),
                });
            }

            // Members sit below their union.
            for member in &minimal {
                changed |= spec
                    .entry(member.clone())
                    .or_default()
                    .insert(union.clone());
            }
            // The union sits below every common generalization of its
            // members (sound: the value is in some member's extent, hence
            // in every common superclass's extent).
            let mut commons: Option<BTreeSet<Class>> = None;
            for member in &minimal {
                let ups = schema.strict_supers(member);
                commons = Some(match commons {
                    None => ups,
                    Some(acc) => acc.intersection(&ups).cloned().collect(),
                });
            }
            for common in commons.unwrap_or_default() {
                if !common.is_implicit_union() {
                    changed |= spec.entry(union.clone()).or_default().insert(common);
                }
            }

            // Replace the raw `label`-arrows the union COVERS (targets
            // at or below a member) with the single union arrow; their
            // strongest participation transfers soundly, since a value
            // in a member's extent is in the union's. Targets the union
            // does not cover — e.g. a class above ONE member but not the
            // others — keep their own arrows and participations: folding
            // a required arrow to such a target into the union would
            // claim every value lies in the union, which member
            // instances need not satisfy. A later round unifies the
            // leftovers into a wider union.
            let former = raw.remove(&(p.clone(), label.clone())).unwrap_or_default();
            let mut replacement = BTreeMap::new();
            let mut union_participation = Participation::ZeroOrOne;
            for (q, k) in former.iter() {
                let covered = minimal.iter().any(|member| schema.specializes(q, member));
                if covered {
                    union_participation = union_participation.join(*k).expect("1 and 0/1 join");
                } else {
                    replacement.insert(q.clone(), *k);
                }
            }
            replacement.insert(union.clone(), union_participation);
            changed |= replacement != former;
            raw.insert((p, label), replacement);
        }

        // Union-over-fewer-origins ⇒ union-over-more-origins: a subset
        // union covers a subset of the extent.
        let union_classes: Vec<Class> = classes
            .iter()
            .filter(|c| c.is_implicit_union())
            .cloned()
            .collect();
        for u1 in &union_classes {
            for u2 in &union_classes {
                if u1 == u2 {
                    continue;
                }
                let (o1, o2) = (
                    u1.origin().expect("union has origin"),
                    u2.origin().expect("union has origin"),
                );
                if o1.is_subset(o2) {
                    changed |= spec.entry(u1.clone()).or_default().insert(u2.clone());
                }
            }
        }

        if !changed {
            // Stall: the remaining offenders are *conjunctive* — a class
            // inherits incomparable targets through several superclasses
            // (multiple inheritance), so no union class above can be least.
            //
            // Two cases. If a conjunction involves UNION targets (e.g.
            // `{A|D}` and `{C|E}`), the least class below them would be a
            // meet of unions, which the flat origin-set representation
            // cannot express — flattening it to `{A,C,D,E}` would wrongly
            // claim the four-way intersection. The GLB direction licenses
            // losing precision instead: weaken the contributing arrows to
            // the single covering union and iterate.
            let arrows: Vec<Edge> = raw
                .iter()
                .flat_map(|((p, a), targets)| {
                    targets
                        .keys()
                        .map(move |q| (p.clone(), a.clone(), q.clone()))
                })
                .collect();
            let schema = WeakSchema::close(classes.clone(), spec.clone(), arrows)?;
            let mut coarsened = false;
            let mut stalled: Vec<(Class, Label, BTreeSet<Class>)> = Vec::new();
            for p in schema.classes() {
                for label in schema.labels_of(p) {
                    let targets = schema.arrow_targets(p, &label);
                    if order::least_element(&schema.supers, &targets).is_none() {
                        stalled.push((p.clone(), label.clone(), targets));
                    }
                }
            }
            for (p, label, targets) in &stalled {
                let minimal = schema.min_s(targets.iter());
                if !minimal.iter().any(Class::is_implicit_union) {
                    continue;
                }
                let union = Class::implicit_union(minimal.iter().cloned());
                if classes.insert(union.clone()) {
                    report.unions.push(UnionClassInfo {
                        class: union.clone(),
                        members: minimal.clone(),
                        demanded_by: (p.clone(), label.clone()),
                    });
                }
                for member in &minimal {
                    spec.entry(member.clone())
                        .or_default()
                        .insert(union.clone());
                }
                // Every raw arrow the offender inherits under this label
                // is weakened to the covering union.
                let contributing: Vec<(Class, Label)> = raw
                    .keys()
                    .filter(|(q, a)| a == label && schema.specializes(p, q))
                    .cloned()
                    .collect();
                for key in contributing {
                    let former = raw.remove(&key).unwrap_or_default();
                    let strongest = former
                        .values()
                        .copied()
                        .fold(Participation::ZeroOrOne, |acc, k| {
                            acc.join(k).expect("1 and 0/1 join")
                        });
                    let mut replacement = BTreeMap::new();
                    replacement.insert(union.clone(), strongest);
                    if replacement != former {
                        coarsened = true;
                    }
                    raw.insert(key, replacement);
                }
            }
            if coarsened {
                continue;
            }

            // Otherwise the conjunction is over NAMED classes only, and
            // the §4.2 meet completion (whose flat meets of names are
            // exactly intersections) is total, proper and sound.
            let (proper, meet_report) = crate::complete::complete_with_report(&schema)?;
            report.meet_classes = meet_report
                .implicit
                .iter()
                .map(|i| i.class.clone())
                .collect();
            return finish(proper.into_weak(), &raw, report);
        }
    }

    Err(SchemaError::NoCanonicalClass {
        class: Class::named("<lower-completion-diverged>"),
        label: Label::new("<internal>"),
        minimal_targets: vec![],
    })
}

/// Wraps up a proper lower completion: recomputes participation for the
/// final closed arrows (strongest constraint among the raw arrows deriving
/// each; arrows only derivable through introduced classes stay optional)
/// and packages the result.
fn finish(
    schema: WeakSchema,
    raw: &BTreeMap<(Class, Label), BTreeMap<Class, Participation>>,
    report: LowerCompletionReport,
) -> Result<(AnnotatedSchema, ProperSchema, LowerCompletionReport), SchemaError> {
    let proper = ProperSchema::try_new(schema.clone())?;
    let mut optional: BTreeSet<Edge> = BTreeSet::new();
    for (p, a, q) in schema.arrow_triples() {
        let mut strongest = Participation::ZeroOrOne;
        for ((rp, ra), targets) in raw {
            if ra != a || !schema.specializes(p, rp) {
                continue;
            }
            for (rq, k) in targets {
                if schema.specializes(rq, q) {
                    strongest = strongest.join(*k).expect("1 and 0/1 join");
                }
            }
        }
        if strongest == Participation::ZeroOrOne {
            optional.insert((p.clone(), a.clone(), q.clone()));
        }
    }
    let annotated = AnnotatedSchema::from_parts(schema, optional);
    Ok((annotated, proper, report))
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

    fn dog_name_age() -> AnnotatedSchema {
        AnnotatedSchema::builder()
            .arrow("Dog", "name", "string")
            .arrow("Dog", "age", "int")
            .build()
            .unwrap()
    }

    fn dog_name_breed() -> AnnotatedSchema {
        AnnotatedSchema::builder()
            .arrow("Dog", "name", "string")
            .arrow("Dog", "breed", "Breed")
            .build()
            .unwrap()
    }

    #[test]
    fn builder_defaults_to_required() {
        let g = dog_name_age();
        assert_eq!(
            g.participation(&c("Dog"), &l("name"), &c("string")),
            Participation::One
        );
        assert_eq!(
            g.participation(&c("Dog"), &l("breed"), &c("Breed")),
            Participation::Zero,
            "absent arrows read as 0"
        );
    }

    #[test]
    fn builder_optional_arrows() {
        let g = AnnotatedSchema::builder()
            .optional_arrow("Dog", "license", "int")
            .build()
            .unwrap();
        assert_eq!(
            g.participation(&c("Dog"), &l("license"), &c("int")),
            Participation::ZeroOrOne
        );
        assert_eq!(g.num_optional(), 1);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn closure_keeps_required_strength() {
        // Puppy ⇒ Dog with a required Dog arrow: the derived Puppy arrow
        // is also required. An optional raw arrow stays optional.
        let g = AnnotatedSchema::builder()
            .specialize("Puppy", "Dog")
            .arrow("Dog", "age", "int")
            .optional_arrow("Dog", "chip", "int")
            .build()
            .unwrap();
        assert_eq!(
            g.participation(&c("Puppy"), &l("age"), &c("int")),
            Participation::One
        );
        assert_eq!(
            g.participation(&c("Puppy"), &l("chip"), &c("int")),
            Participation::ZeroOrOne
        );
    }

    #[test]
    fn required_raw_dominates_optional_raw() {
        let g = AnnotatedSchema::builder()
            .optional_arrow("A", "f", "B")
            .arrow("A", "f", "B")
            .build()
            .unwrap();
        assert_eq!(
            g.participation(&c("A"), &l("f"), &c("B")),
            Participation::One
        );
    }

    #[test]
    fn section_6_dog_example() {
        // One schema has Dog{name, age}, the other Dog{name, breed}. The
        // lower merge keeps name required and weakens age/breed to 0/1 —
        // instead of losing them as a plain GLB would.
        let merged = lower_merge([&dog_name_age(), &dog_name_breed()]);
        assert_eq!(
            merged.participation(&c("Dog"), &l("name"), &c("string")),
            Participation::One
        );
        assert_eq!(
            merged.participation(&c("Dog"), &l("age"), &c("int")),
            Participation::ZeroOrOne
        );
        assert_eq!(
            merged.participation(&c("Dog"), &l("breed"), &c("Breed")),
            Participation::ZeroOrOne
        );
        // Classes from both sides survive (the padding step).
        assert!(merged.schema().contains_class(&c("Breed")));
        assert!(merged.schema().contains_class(&c("int")));
    }

    #[test]
    fn missing_class_is_padded_in() {
        // §6: "if one schema has the class Guide-Dog and another does not".
        let g1 = AnnotatedSchema::builder()
            .specialize("Guide-dog", "Dog")
            .build()
            .unwrap();
        let g2 = AnnotatedSchema::builder().class("Dog").build().unwrap();
        let merged = lower_merge([&g1, &g2]);
        assert!(merged.schema().contains_class(&c("Guide-dog")));
        // But the isa edge is only in one input, so it is dropped.
        assert!(!merged.schema().specializes(&c("Guide-dog"), &c("Dog")));
    }

    #[test]
    fn specialization_survives_when_shared() {
        let g1 = AnnotatedSchema::builder()
            .specialize("Guide-dog", "Dog")
            .arrow("Dog", "age", "int")
            .build()
            .unwrap();
        let g2 = AnnotatedSchema::builder()
            .specialize("Guide-dog", "Dog")
            .build()
            .unwrap();
        let merged = lower_merge([&g1, &g2]);
        assert!(merged.schema().specializes(&c("Guide-dog"), &c("Dog")));
        assert_eq!(
            merged.participation(&c("Guide-dog"), &l("age"), &c("int")),
            Participation::ZeroOrOne
        );
    }

    #[test]
    fn lower_merge_is_glb() {
        let g1 = dog_name_age();
        let g2 = dog_name_breed();
        let merged = lower_merge([&g1, &g2]);

        // Lower bound of the padded inputs.
        let classes: Vec<Class> = merged.schema().classes().cloned().collect();
        let p1 = g1.pad_with_classes(classes.clone());
        let p2 = g2.pad_with_classes(classes.clone());
        assert!(merged.is_sub_annotated(&p1));
        assert!(merged.is_sub_annotated(&p2));

        // Greatest: another lower bound is below the merge.
        let other = AnnotatedSchema::builder()
            .classes(classes.iter().cloned())
            .optional_arrow("Dog", "name", "string")
            .optional_arrow("Dog", "age", "int")
            .optional_arrow("Dog", "breed", "Breed")
            .build()
            .unwrap();
        assert!(other.is_sub_annotated(&p1) && other.is_sub_annotated(&p2));
        assert!(other.is_sub_annotated(&merged));
    }

    #[test]
    fn lower_merge_laws() {
        let g1 = dog_name_age();
        let g2 = dog_name_breed();
        let g3 = AnnotatedSchema::builder()
            .optional_arrow("Dog", "name", "string")
            .build()
            .unwrap();
        // Commutative / associative / idempotent (up to padding).
        assert_eq!(lower_merge([&g1, &g2]), lower_merge([&g2, &g1]));
        let left = lower_merge([&lower_merge([&g1, &g2]), &g3]);
        let right = lower_merge([&g1, &lower_merge([&g2, &g3])]);
        assert_eq!(left, right);
        assert_eq!(lower_merge([&left]), left, "n=1 is identity");
        assert_eq!(lower_merge([&g1, &g1]), g1);
        // Empty collection.
        assert_eq!(
            lower_merge(std::iter::empty::<&AnnotatedSchema>()),
            AnnotatedSchema::default()
        );
    }

    #[test]
    fn annotated_order_is_partial_order() {
        let g1 = dog_name_age();
        let g2 = dog_name_breed();
        let merged = lower_merge([&g1, &g2]);
        for g in [&g1, &g2, &merged] {
            assert!(g.is_sub_annotated(g), "reflexive");
        }
        // Antisymmetry on this sample: mutual containment implies equality.
        let padded = g1.pad_with_classes(merged.schema().classes().cloned());
        if merged.is_sub_annotated(&padded) && padded.is_sub_annotated(&merged) {
            assert_eq!(merged, padded);
        }
    }

    #[test]
    fn lower_complete_introduces_union_class() {
        // G1: Pet --home--> House; G2: Pet --home--> Kennel. The lower
        // merge has two incomparable optional targets; completion points
        // home at {House|Kennel}.
        let g1 = AnnotatedSchema::builder()
            .arrow("Pet", "home", "House")
            .build()
            .unwrap();
        let g2 = AnnotatedSchema::builder()
            .arrow("Pet", "home", "Kennel")
            .build()
            .unwrap();
        let merged = lower_merge([&g1, &g2]);
        let (annotated, proper, report) = lower_complete(&merged).unwrap();

        let u = Class::implicit_union([c("House"), c("Kennel")]);
        assert_eq!(report.unions.len(), 1);
        assert_eq!(report.unions[0].class, u);
        assert_eq!(proper.canonical_target(&c("Pet"), &l("home")), Some(&u));
        // Members sit below the union.
        assert!(proper.specializes(&c("House"), &u));
        assert!(proper.specializes(&c("Kennel"), &u));
        // Per-arrow meets (the §6 rule) weaken each branch to 0/1 — each
        // input lacks the other's arrow — so the union arrow is optional.
        // Label-level requiredness ("every input demands *some* home") is
        // not expressible per-arrow; the paper's construction shares this.
        assert_eq!(
            annotated.participation(&c("Pet"), &l("home"), &u),
            Participation::ZeroOrOne
        );
    }

    #[test]
    fn lower_complete_weakens_participation_when_one_side_lacks_arrow() {
        let g1 = AnnotatedSchema::builder()
            .arrow("Pet", "home", "House")
            .build()
            .unwrap();
        let g2 = AnnotatedSchema::builder()
            .class("Pet")
            .arrow("Pet", "vet", "Vet")
            .build()
            .unwrap();
        let merged = lower_merge([&g1, &g2]);
        // Only one target each: no union class needed, just weakening.
        let (annotated, proper, report) = lower_complete(&merged).unwrap();
        assert_eq!(report.unions.len(), 0);
        assert_eq!(
            annotated.participation(&c("Pet"), &l("home"), &c("House")),
            Participation::ZeroOrOne
        );
        assert!(proper.check_d1());
    }

    #[test]
    fn lower_complete_already_proper_is_identity_shape() {
        let g = dog_name_age();
        let (annotated, proper, report) = lower_complete(&g).unwrap();
        assert_eq!(report.unions.len(), 0);
        assert_eq!(annotated, g);
        assert_eq!(proper.as_weak(), g.schema());
    }

    #[test]
    fn lower_complete_with_inheritance_interaction() {
        // Both inputs share Student ⇒ Person, but disagree on the `phone`
        // target at both levels. The fixpoint must terminate with a proper
        // schema where canonical targets respect D2.
        let g1 = AnnotatedSchema::builder()
            .specialize("Student", "Person")
            .arrow("Person", "phone", "Home")
            .build()
            .unwrap();
        let g2 = AnnotatedSchema::builder()
            .specialize("Student", "Person")
            .arrow("Person", "phone", "Mobile")
            .arrow("Student", "phone", "CampusMobile")
            .build()
            .unwrap();
        let merged = lower_merge([&g1, &g2]);
        let (_, proper, report) = lower_complete(&merged).unwrap();
        assert!(report.rounds >= 1);
        assert!(proper.check_d1());
        assert!(proper.check_d2());
        // Person's phone target is a union over Home and Mobile.
        let person_target = proper.canonical_target(&c("Person"), &l("phone")).unwrap();
        assert!(person_target.is_implicit_union());
    }

    #[test]
    fn union_subset_ordering() {
        // With three-way disagreement the nested unions relate by origin
        // inclusion.
        let gs: Vec<AnnotatedSchema> = ["A", "B", "C"]
            .iter()
            .map(|t| {
                AnnotatedSchema::builder()
                    .arrow("P", "f", *t)
                    .build()
                    .unwrap()
            })
            .collect();
        let merged = lower_merge(gs.iter());
        let (_, proper, _) = lower_complete(&merged).unwrap();
        let abc = Class::implicit_union([c("A"), c("B"), c("C")]);
        assert_eq!(proper.canonical_target(&c("P"), &l("f")), Some(&abc));
    }

    #[test]
    fn annotated_display_marks_optional() {
        let g = AnnotatedSchema::builder()
            .arrow("A", "f", "B")
            .optional_arrow("A", "g", "C")
            .build()
            .unwrap();
        let text = g.to_string();
        assert!(text.contains("A --f--> B"));
        assert!(text.contains("A --g?--> C"));
    }

    #[test]
    fn transfer_to_keeps_annotations_through_completion() {
        let annotated = AnnotatedSchema::builder()
            .arrow("C", "a", "B1")
            .arrow("C", "a", "B2")
            .optional_arrow("C", "g", "D")
            .build()
            .unwrap();
        let proper = crate::complete(annotated.schema()).unwrap();
        let transferred = annotated.transfer_to(proper.as_weak());
        assert!(transferred.validate().is_ok());
        // The optional arrow stays 0/1; completion's implicit-class
        // arrow is required.
        assert_eq!(
            transferred.participation(&c("C"), &l("g"), &c("D")),
            Participation::ZeroOrOne
        );
        let implicit = Class::implicit([c("B1"), c("B2")]);
        assert_eq!(
            transferred.participation(&c("C"), &l("a"), &implicit),
            Participation::One
        );
        // Annotations on arrows absent from the target are dropped, so
        // the result always validates.
        let unrelated = WeakSchema::builder().arrow("X", "y", "Z").build().unwrap();
        let pruned = annotated.transfer_to(&unrelated);
        assert!(pruned.validate().is_ok());
        assert_eq!(pruned.num_optional(), 0);
    }

    #[test]
    fn validate_rejects_phantom_annotation() {
        let schema = WeakSchema::builder().arrow("A", "f", "B").build().unwrap();
        let mut optional = BTreeSet::new();
        optional.insert((c("A"), l("nope"), c("B")));
        let bogus = AnnotatedSchema { schema, optional };
        assert!(matches!(
            bogus.validate(),
            Err(SchemaError::AnnotationOnMissingArrow { .. })
        ));
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
        let g1 = dog_name_age();
        let g2 = dog_name_breed();
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
            Err(crate::error::MergeError::Incompatible(_))
        ));
    }
}
