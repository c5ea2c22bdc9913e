//! Completion: building a proper schema from a weak one (§4.2).
//!
//! The weak merge of proper schemas need not be proper — a class may have
//! incomparable `a`-arrow targets (Fig. 3). Completion introduces one
//! *implicit class* per set in
//!
//! ```text
//! I₀  = { {p} | p ∈ C }
//! Iₙ₊₁ = { R(X, a) | X ∈ Iₙ, a ∈ L }
//! I∞  = ⋃ₙ≥₁ Iₙ
//! Imp = { MinS(X) | X ∈ I∞, |MinS(X)| > 1 }
//! ```
//!
//! and then extends classes, arrows and specializations by the paper's
//! `C̄`, `Ē`, `S̄` rules. The result is the least proper schema above the
//! input (up to the naming of implicit classes).
//!
//! Two implementation notes:
//!
//! * `R(X, a) = R(MinS(X), a)` — W1 makes arrows of minimal elements
//!   dominate — so the fixpoint canonicalizes every state by its minimal
//!   elements. This keeps the search polynomial on realistic schemas while
//!   computing exactly the paper's `Imp`.
//! * Implicit classes are identified by *flattened* origin sets
//!   ([`Class::implicit`]), so re-completing after further merges
//!   rediscovers — rather than duplicates — existing implicit classes.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::class::Class;
use crate::compile::{self, CompiledSchema};
use crate::consistency::ConsistencyRelation;
use crate::error::{MergeError, SchemaError};
use crate::name::Label;
use crate::proper::ProperSchema;
use crate::weak::WeakSchema;

/// A `WeakSchema::close`-shaped closure function, letting the completion
/// pipeline run on either the compiled or the symbolic reference engine.
pub(crate) type CloseFn = fn(
    BTreeSet<Class>,
    BTreeMap<Class, BTreeSet<Class>>,
    Vec<(Class, Label, Class)>,
) -> Result<WeakSchema, SchemaError>;

/// How an implicit class was discovered: follow `labels` starting from
/// `start`, taking minimal reachable target sets at each step, and you
/// arrive at the origin set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplicitWitness {
    /// The class whose arrows start the derivation.
    pub start: Class,
    /// The labels followed, in order (length ≥ 1).
    pub labels: Vec<Label>,
}

impl std::fmt::Display for ImplicitWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.start)?;
        for label in &self.labels {
            write!(f, " --{label}-->")?;
        }
        Ok(())
    }
}

/// One implicit class introduced by completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplicitClassInfo {
    /// The introduced class (its identity is the flattened origin set).
    pub class: Class,
    /// The `Imp` member it was introduced for: a MinS-antichain of classes
    /// of the input schema.
    pub members: BTreeSet<Class>,
    /// A derivation showing why the class is required.
    pub witness: ImplicitWitness,
}

/// Everything completion did, for diagnostics and interactive tools.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompletionReport {
    /// The implicit classes introduced, sorted by class identity.
    pub implicit: Vec<ImplicitClassInfo>,
}

impl CompletionReport {
    /// Number of implicit classes introduced.
    pub fn num_implicit(&self) -> usize {
        self.implicit.len()
    }
}

/// Completes `weak` into a proper schema. See the module docs.
///
/// # Errors
///
/// Completion of a weak schema is total in the paper. The only failure mode
/// here is pre-existing *user-constructed* implicit classes whose
/// specialization edges contradict the origin-set semantics (e.g. an
/// `{A,B}` class declared *above* `A`), which can make the extended
/// relation cyclic; such inputs are rejected rather than silently patched.
pub fn complete(weak: &WeakSchema) -> Result<ProperSchema, SchemaError> {
    complete_with_report(weak).map(|(schema, _)| schema)
}

/// [`complete`], additionally returning provenance for every implicit
/// class.
pub fn complete_with_report(
    weak: &WeakSchema,
) -> Result<(ProperSchema, CompletionReport), SchemaError> {
    complete_impl(weak, None, Engine::Compiled)
}

/// Runs only the `I∞` fixpoint of §4.2 on a compiled schema and returns
/// the number of reachable MinS-canonical states — the engine-side cost
/// driver of completion (each multi-member state demands an implicit
/// class; singleton states are the search frontier between them).
///
/// Exposed for diagnostics and for the benchmark suite, which uses it to
/// measure the fixpoint in isolation (time and allocations) without the
/// symbolic materialization that dominates a full [`complete`].
pub fn imp_state_count(compiled: &CompiledSchema) -> usize {
    compile::discover_states_ids(compiled).len()
}

/// Completes a schema directly from its compiled form — the end-to-end
/// id-space pipeline behind the registry's incremental re-merge: the
/// symbolic schema is materialized exactly once, for the completed
/// result, instead of once for the join and again for the completion.
/// The engine behind the completion pass of both compiled plans
/// (fresh and onto a cached base).
pub(crate) fn complete_from_compiled_impl(
    compiled: &CompiledSchema,
) -> Result<(ProperSchema, CompletionReport), SchemaError> {
    if compiled.has_origin_classes() {
        let weak = compiled.decompile();
        return complete_impl(&weak, Some(compiled), Engine::Compiled);
    }
    complete_ids(None, compiled)
}

/// The compiled completion of `compiled`: the `Imp` fixpoint on bitset
/// states, the naming of every multi-member state, and the assembly in
/// id space. `weak` is the symbolic twin of `compiled` when the caller
/// holds one; it is needed only to name states of a schema that carries
/// origin classes (see [`name_states`]), and is decompiled when the
/// completion adds nothing.
fn complete_ids(
    weak: Option<&WeakSchema>,
    compiled: &CompiledSchema,
) -> Result<(ProperSchema, CompletionReport), SchemaError> {
    let mut states: BTreeMap<BTreeSet<Class>, (Vec<u64>, ImplicitWitness)> = BTreeMap::new();
    let discovered = compile::discover_states_ids(compiled);
    for index in 0..discovered.len() as u32 {
        let bits = discovered.bits(index);
        if bits.iter().map(|w| w.count_ones()).sum::<u32>() < 2 {
            continue;
        }
        let witness = discovered.witness(index);
        let witness = ImplicitWitness {
            start: compiled.class(witness.start).clone(),
            labels: witness
                .labels
                .iter()
                .map(|&l| compiled.label(l).clone())
                .collect(),
        };
        states.insert(
            compile::state_classes(compiled, bits),
            (bits.to_vec(), witness),
        );
    }
    let (id_entries, report) = name_states(weak, states);
    // No multi-element states means every C̄/Ē/S̄ rule quantifies over an
    // empty `Imp`: the completion IS the input, so the assembly (a
    // rebuild + re-close + decompile that would reproduce the input
    // exactly) is skipped. This is the common case for schemas without
    // label collisions — notably every registry re-merge of members that
    // already completed cleanly.
    if id_entries.is_empty() {
        let weak = weak.map_or_else(|| compiled.decompile(), WeakSchema::clone);
        let proper = ProperSchema::from_compiled(weak, compiled)?;
        return Ok((proper, report));
    }
    let (completed, completed_compiled) = compile::assemble_ids(compiled, &id_entries)?;
    let proper = ProperSchema::from_compiled(completed, &completed_compiled)?;
    Ok((proper, report))
}

/// Which implementation the completion pipeline runs on: the compiled
/// id-space engine (the default) or the retained symbolic one (the
/// [`crate::reference`] path).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Engine {
    /// Dense ids, bitset closures, CSR arrows ([`crate::compile`]).
    Compiled,
    /// The original `BTreeMap`/`BTreeSet` algorithms.
    Symbolic,
}

impl Engine {
    fn close_fn(self) -> CloseFn {
        match self {
            Engine::Compiled => WeakSchema::close,
            Engine::Symbolic => WeakSchema::close_symbolic,
        }
    }
}

pub(crate) fn complete_impl(
    weak: &WeakSchema,
    precompiled: Option<&CompiledSchema>,
    engine: Engine,
) -> Result<(ProperSchema, CompletionReport), SchemaError> {
    let close = engine.close_fn();
    // Pre-existing implicit classes (earlier merge results fed back in)
    // may carry origin sets that later-arriving specializations have made
    // non-canonical: with E01 ⇒ E04 and E01 ⇒ E07 in scope, {E00,E01,E04}
    // and {E00,E01,E07} both denote meet{E00,E01}. Left as distinct
    // classes, the S̄ rules below would order them mutually and reject the
    // merge as cyclic; canonicalizing origin sets by MinS/MaxS first
    // identifies them instead (the paper's "up to the naming of implicit
    // classes").
    let canonical = canonicalize_implicit(weak, close)?;
    let weak = canonical.as_ref().unwrap_or(weak);

    match engine {
        Engine::Symbolic => {
            let imp = discover_states(weak)
                .into_iter()
                .filter(|(state, _)| state.len() >= 2)
                .map(|(state, witness)| (state.clone(), (state, witness)))
                .collect();
            let (entries, report) = name_states(Some(weak), imp);
            let completed = assemble(weak, &entries, close)?;
            Ok((ProperSchema::try_new(completed)?, report))
        }
        Engine::Compiled => {
            // Compile once (or reuse the caller's compiled join).
            match (&canonical, precompiled) {
                (None, Some(compiled)) => complete_ids(Some(weak), compiled),
                _ => complete_ids(Some(weak), &CompiledSchema::compile(weak)),
            }
        }
    }
}

/// Names every `Imp` state (the reachable states of cardinality > 1) and
/// builds the completion report. Each state maps to the engine's own form
/// of it (the symbolic engine's class set, the compiled engine's id
/// bitset) and its first witness; the entries pair that form with the
/// state's class. `states` is sorted by state, so the first-witness
/// choice is deterministic.
///
/// With `weak`, a state is named by its canonical meet, which may be a
/// class the schema already has (an earlier merge's implicit class), and
/// distinct states may flatten to the same class; contributions are
/// unioned by the assembly. `None` stands for a schema without origin
/// classes: every state is then a MinS antichain of named classes, so
/// its canonical meet is the implicit class of its own members, which
/// the schema cannot already hold.
fn name_states<T>(
    weak: Option<&WeakSchema>,
    states: BTreeMap<BTreeSet<Class>, (T, ImplicitWitness)>,
) -> (Vec<(T, Class)>, CompletionReport) {
    let mut entries: Vec<(T, Class)> = Vec::with_capacity(states.len());
    let mut report = CompletionReport::default();
    for (state, (form, witness)) in states {
        let class = match weak {
            Some(weak) => canonical_meet_class(weak, &state),
            None => Class::implicit(state.clone()),
        };
        // Not already present from an earlier merge: genuinely new.
        if !weak.is_some_and(|weak| weak.contains_class(&class)) {
            report.implicit.push(ImplicitClassInfo {
                class: class.clone(),
                members: state,
                witness,
            });
        }
        entries.push((form, class));
    }
    // A stable sort keeps, among states flattening to one class, the
    // first in state order — the one whose witness the report shows.
    report.implicit.sort_by(|a, b| a.class.cmp(&b.class));
    report
        .implicit
        .dedup_by(|later, first| later.class == first.class);
    (entries, report)
}

/// [`complete`] with the §4.2 consistency check: every pair of origins of
/// every implicit class must be declared consistent, otherwise the merge is
/// *inconsistent* and must not proceed.
pub fn complete_checked(
    weak: &WeakSchema,
    consistency: &ConsistencyRelation,
) -> Result<(ProperSchema, CompletionReport), MergeError> {
    let (proper, report) = complete_with_report(weak)?;
    check_consistency(&report, consistency)?;
    Ok((proper, report))
}

/// The §4.2 consistency pass, applied to the report of *any* completion
/// engine: every pair of origins of every implicit class must be
/// declared consistent. This is the single implementation behind
/// [`complete_checked`], [`crate::merger::Merger::with_consistency`] and
/// (through the merger) the [`crate::MergeSession`] path.
pub(crate) fn check_consistency(
    report: &CompletionReport,
    consistency: &ConsistencyRelation,
) -> Result<(), MergeError> {
    for info in &report.implicit {
        let members: Vec<&Class> = info.members.iter().collect();
        for (i, left) in members.iter().enumerate() {
            for right in &members[i + 1..] {
                if !consistency.consistent(left, right) {
                    return Err(MergeError::Inconsistent {
                        left: (*left).clone(),
                        right: (*right).clone(),
                    });
                }
            }
        }
    }
    Ok(())
}

/// The class standing for the meet of `state`, named canonically: the
/// flattened origin names are reduced to their MinS antichain, so the
/// identity never mentions an origin already implied by another.
fn canonical_meet_class(weak: &WeakSchema, state: &BTreeSet<Class>) -> Class {
    let flat: BTreeSet<Class> = state
        .iter()
        .flat_map(Class::flattened_names)
        .map(Class::Named)
        .collect();
    let mut canonical = weak.min_s(&flat);
    if canonical.len() == 1 {
        canonical.pop_first().expect("non-empty")
    } else {
        Class::implicit(canonical)
    }
}

/// Renames every pre-existing implicit class whose origin set is not
/// canonical under this schema's specialization order (MinS for meets,
/// MaxS for unions), merging classes that canonicalize to the same name.
/// Returns `None` when nothing needed renaming.
fn canonicalize_implicit(
    weak: &WeakSchema,
    close: CloseFn,
) -> Result<Option<WeakSchema>, SchemaError> {
    let mut rename: BTreeMap<Class, Class> = BTreeMap::new();
    for class in weak.classes() {
        let Some(origin) = class.origin() else {
            continue;
        };
        let members: BTreeSet<Class> = origin.iter().map(Class::from).collect();
        let mut canonical = match class {
            Class::Implicit(_) => weak.min_s(&members),
            _ => weak.max_s(&members),
        };
        if canonical.len() == members.len() {
            continue; // already an antichain: canonical as-is
        }
        let target = if canonical.len() == 1 {
            canonical.pop_first().expect("non-empty")
        } else if class.is_implicit_meet() {
            Class::implicit(canonical)
        } else {
            Class::implicit_union(canonical)
        };
        rename.insert(class.clone(), target);
    }
    if rename.is_empty() {
        return Ok(None);
    }
    let map = |class: &Class| rename.get(class).cloned().unwrap_or_else(|| class.clone());
    let (classes, spec, arrows) = weak.to_raw_parts();
    let classes = classes.iter().map(map).collect();
    let mut spec_edges: BTreeMap<Class, BTreeSet<Class>> = BTreeMap::new();
    for (sub, sups) in &spec {
        let sub = map(sub);
        for sup in sups {
            let sup = map(sup);
            if sub != sup {
                spec_edges.entry(sub.clone()).or_default().insert(sup);
            }
        }
    }
    let arrows = arrows
        .into_iter()
        .map(|(p, a, q)| (map(&p), a, map(&q)))
        .collect();
    close(classes, spec_edges, arrows).map(Some)
}

/// Runs the `I∞` fixpoint, returning every reachable MinS-canonical state
/// with a discovery witness. States of cardinality 1 are tracked (they seed
/// longer derivations) but produce no implicit class.
///
/// This is the symbolic reference implementation;
/// `compile::discover_states_ids` is the id-space twin the public path
/// uses.
pub(crate) fn discover_states(weak: &WeakSchema) -> BTreeMap<BTreeSet<Class>, ImplicitWitness> {
    let mut states: BTreeMap<BTreeSet<Class>, ImplicitWitness> = BTreeMap::new();
    let mut queue: VecDeque<BTreeSet<Class>> = VecDeque::new();

    // I₁: R(p, a) for every class and label, canonicalized by MinS.
    for class in weak.classes() {
        for label in weak.labels_of(class) {
            let reached = weak.arrow_targets(class, &label);
            if reached.is_empty() {
                continue;
            }
            let state = weak.min_s(&reached);
            states.entry(state.clone()).or_insert_with(|| {
                queue.push_back(state.clone());
                ImplicitWitness {
                    start: class.clone(),
                    labels: vec![label.clone()],
                }
            });
        }
    }

    // Iₙ₊₁ = R(X, a): step from each state through every label any member
    // carries. R(X, a) = R(MinS(X), a) by W1, so stepping from the
    // canonical state is exact.
    while let Some(state) = queue.pop_front() {
        let witness = states
            .get(&state)
            .expect("queued states are recorded")
            .clone();
        let mut labels: BTreeSet<Label> = BTreeSet::new();
        for member in &state {
            labels.extend(weak.labels_of(member));
        }
        for label in labels {
            let reached = weak.arrow_targets_of_set(&state, &label);
            if reached.is_empty() {
                continue;
            }
            let next = weak.min_s(&reached);
            if !states.contains_key(&next) {
                let mut next_witness = witness.clone();
                next_witness.labels.push(label.clone());
                states.insert(next.clone(), next_witness);
                queue.push_back(next);
            }
        }
    }

    states
}

/// Builds `(C̄, Ē, S̄)` from the input schema and the implicit classes.
fn assemble(
    weak: &WeakSchema,
    class_of_state: &[(BTreeSet<Class>, Class)],
    close: CloseFn,
) -> Result<WeakSchema, SchemaError> {
    let (mut classes, mut spec, mut arrows) = weak.to_raw_parts();
    classes.extend(class_of_state.iter().map(|(_, class)| class.clone()));

    // S̄, rule by rule. `le` below is the reflexive specialization of the
    // *input* schema, as in the paper ("q ⇒ p ∈ S").
    //
    // Implicit-class identity flattens origins (`{{A|D},{C|E}}` becomes
    // `{A,C,D,E}`), and the class's extent semantics follows the
    // flattened name: the INTERSECTION of the named origins' extents.
    // Rules that put something BELOW an implicit class must therefore
    // quantify over the flattened names — a state member like `{A|D}`
    // witnesses only membership in A ∪ D, which does not reach the
    // smaller A ∩ D ∩ … extent. Rules that put the implicit class below
    // something may use the raw state members (the class's extent is
    // inside every origin, named or union).
    let le = |sub: &Class, sup: &Class| weak.specializes(sub, sup);
    let flattened = |state: &BTreeSet<Class>| -> BTreeSet<Class> {
        state
            .iter()
            .flat_map(Class::flattened_names)
            .map(Class::Named)
            .collect()
    };

    for (x_state, x_class) in class_of_state {
        let x_flat = flattened(x_state);
        // X ⇒ p where p has a specialization in X.
        for p in weak.classes() {
            if x_state.iter().any(|q| le(q, p)) {
                spec.entry(x_class.clone()).or_default().insert(p.clone());
            }
            // p ⇒ X where p specializes every (flattened) member of X.
            if x_flat.iter().all(|q| le(p, q)) {
                spec.entry(p.clone()).or_default().insert(x_class.clone());
            }
        }
        // X ⇒ Y where every (flattened) member of Y has a specialization
        // in X.
        for (y_state, y_class) in class_of_state {
            if x_class == y_class {
                continue;
            }
            if flattened(y_state)
                .iter()
                .all(|p| x_state.iter().any(|q| le(q, p)))
            {
                spec.entry(x_class.clone())
                    .or_default()
                    .insert(y_class.clone());
            }
        }
    }

    // Ē. Arrows of input classes to implicit targets: x --a--> Y whenever
    // Y ⊆ R(x, a).
    let mut label_universe: BTreeSet<Label> = weak.all_labels();
    for x in weak.classes() {
        for label in weak.labels_of(x) {
            let reached = weak.arrow_targets(x, &label);
            for (y_state, y_class) in class_of_state {
                if y_state.is_subset(&reached) {
                    arrows.push((x.clone(), label.clone(), y_class.clone()));
                }
            }
        }
    }
    // Arrows out of implicit classes: R̄(X, a) = R(X, a), plus implicit
    // targets contained in it.
    for (x_state, x_class) in class_of_state {
        let mut labels: BTreeSet<Label> = BTreeSet::new();
        for member in x_state {
            labels.extend(weak.labels_of(member));
        }
        label_universe.extend(labels.iter().cloned());
        for label in labels {
            let reached = weak.arrow_targets_of_set(x_state, &label);
            for q in &reached {
                arrows.push((x_class.clone(), label.clone(), q.clone()));
            }
            for (y_state, y_class) in class_of_state {
                if y_state.is_subset(&reached) {
                    arrows.push((x_class.clone(), label.clone(), y_class.clone()));
                }
            }
        }
    }
    let _ = label_universe; // retained for symmetry with the paper's L

    close(classes, spec, arrows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::weak_join;

    fn c(s: &str) -> Class {
        Class::named(s)
    }

    fn l(s: &str) -> Label {
        Label::new(s)
    }

    #[test]
    fn already_proper_schema_gains_nothing() {
        let weak = WeakSchema::builder()
            .specialize("Police-dog", "Dog")
            .arrow("Dog", "age", "int")
            .build()
            .unwrap();
        let (proper, report) = complete_with_report(&weak).unwrap();
        assert_eq!(report.num_implicit(), 0);
        assert_eq!(proper.as_weak(), &weak);
    }

    #[test]
    fn figure_3_introduces_one_implicit_class() {
        // Schema 1: C ⇒ A1, C ⇒ A2. Schema 2: A1 --a--> B1, A2 --a--> B2.
        let g1 = WeakSchema::builder()
            .specialize("C", "A1")
            .specialize("C", "A2")
            .build()
            .unwrap();
        let g2 = WeakSchema::builder()
            .arrow("A1", "a", "B1")
            .arrow("A2", "a", "B2")
            .build()
            .unwrap();
        let merged = weak_join(&g1, &g2).unwrap();
        let (proper, report) = complete_with_report(&merged).unwrap();

        let x = Class::implicit([c("B1"), c("B2")]);
        assert_eq!(report.num_implicit(), 1);
        assert_eq!(report.implicit[0].class, x);
        // C's a-arrow exists (inherited from both A1 and A2) and its
        // canonical class is the implicit one.
        assert_eq!(proper.canonical_target(&c("C"), &l("a")), Some(&x));
        assert!(proper.specializes(&x, &c("B1")));
        assert!(proper.specializes(&x, &c("B2")));
        // The witness explains the derivation from C.
        assert_eq!(report.implicit[0].witness.start, c("C"));
        assert_eq!(report.implicit[0].witness.labels, vec![l("a")]);
    }

    #[test]
    fn figure_7_merge_prefers_weaker_candidate_g3() {
        // Fig. 6: G1 has F --a--> C, F --a--> D (via A, B arrows? — drawn
        // directly); G2 relates E below C and D. The merge must NOT
        // identify the a-target with E (candidate G4), but introduce {C,D}
        // (candidate G3): E may carry additional constraints.
        let g1 = WeakSchema::builder()
            .arrow("F", "a", "C")
            .arrow("F", "a", "D")
            .classes(["A", "B"])
            .specialize("C", "A")
            .specialize("D", "B")
            .build()
            .unwrap();
        let g2 = WeakSchema::builder()
            .specialize("E", "C")
            .specialize("E", "D")
            .classes(["A", "B"])
            .specialize("C", "A")
            .specialize("D", "B")
            .build()
            .unwrap();
        let merged = weak_join(&g1, &g2).unwrap();
        let (proper, report) = complete_with_report(&merged).unwrap();

        let cd = Class::implicit([c("C"), c("D")]);
        assert_eq!(report.num_implicit(), 1);
        assert_eq!(proper.canonical_target(&c("F"), &l("a")), Some(&cd));
        // E sits below the implicit class (p ⇒ X rule), preserving its
        // potential extra constraints without conflating it with the
        // arrow target.
        assert!(proper.specializes(&c("E"), &cd));
        assert_ne!(proper.canonical_target(&c("F"), &l("a")), Some(&c("E")));
    }

    #[test]
    fn chained_implicit_classes() {
        // C's a-targets {B1,B2}; B1/B2's b-targets {T1,T2}: completing
        // must introduce {B1,B2} *and* {T1,T2}, with an arrow between them.
        let weak = WeakSchema::builder()
            .arrow("C", "a", "B1")
            .arrow("C", "a", "B2")
            .arrow("B1", "b", "T1")
            .arrow("B2", "b", "T2")
            .build()
            .unwrap();
        let (proper, report) = complete_with_report(&weak).unwrap();
        let b12 = Class::implicit([c("B1"), c("B2")]);
        let t12 = Class::implicit([c("T1"), c("T2")]);
        assert_eq!(report.num_implicit(), 2);
        assert_eq!(proper.canonical_target(&c("C"), &l("a")), Some(&b12));
        assert_eq!(proper.canonical_target(&b12, &l("b")), Some(&t12));
        // Witness for {T1,T2} starts at C and follows a then b.
        let t_info = report.implicit.iter().find(|i| i.class == t12).unwrap();
        assert_eq!(t_info.witness.labels, vec![l("a"), l("b")]);
    }

    #[test]
    fn strip_of_complete_is_identity() {
        let weak = WeakSchema::builder()
            .arrow("C", "a", "B1")
            .arrow("C", "a", "B2")
            .arrow("B1", "b", "T1")
            .arrow("B2", "b", "T2")
            .specialize("C", "Top")
            .build()
            .unwrap();
        let proper = complete(&weak).unwrap();
        assert_eq!(proper.as_weak().strip_implicit(), weak);
    }

    #[test]
    fn completion_is_idempotent() {
        let weak = WeakSchema::builder()
            .arrow("C", "a", "B1")
            .arrow("C", "a", "B2")
            .build()
            .unwrap();
        let once = complete(&weak).unwrap();
        let (twice, report) = complete_with_report(once.as_weak()).unwrap();
        assert_eq!(report.num_implicit(), 0, "no new classes on re-completion");
        assert_eq!(once, twice);
    }

    #[test]
    fn existing_implicit_class_is_rediscovered_not_duplicated() {
        // A schema that already contains {B1,B2} (e.g. a previous merge
        // result) completes without introducing anything.
        let x = Class::implicit([c("B1"), c("B2")]);
        let weak = WeakSchema::builder()
            .specialize(x.clone(), "B1")
            .specialize(x.clone(), "B2")
            .arrow("C", "a", "B1")
            .arrow("C", "a", "B2")
            .arrow("C", "a", x.clone())
            .build()
            .unwrap();
        let (proper, report) = complete_with_report(&weak).unwrap();
        assert_eq!(report.num_implicit(), 0);
        assert_eq!(proper.canonical_target(&c("C"), &l("a")), Some(&x));
    }

    #[test]
    fn min_s_canonicalization_respects_order() {
        // C --a--> B1, C --a--> B2 with B1 ⇒ B2: targets {B1,B2} but
        // MinS = {B1}: no implicit class needed.
        let weak = WeakSchema::builder()
            .specialize("B1", "B2")
            .arrow("C", "a", "B1")
            .arrow("C", "a", "B2")
            .build()
            .unwrap();
        let (proper, report) = complete_with_report(&weak).unwrap();
        assert_eq!(report.num_implicit(), 0);
        assert_eq!(proper.canonical_target(&c("C"), &l("a")), Some(&c("B1")));
    }

    #[test]
    fn implicit_class_inherits_member_arrows() {
        // {B1,B2} ⇒ B1 and B1 --f--> T: the implicit class has an f-arrow
        // to T by W1.
        let weak = WeakSchema::builder()
            .arrow("C", "a", "B1")
            .arrow("C", "a", "B2")
            .arrow("B1", "f", "T")
            .build()
            .unwrap();
        let proper = complete(&weak).unwrap();
        let x = Class::implicit([c("B1"), c("B2")]);
        assert!(proper.has_arrow(&x, &l("f"), &c("T")));
    }

    #[test]
    fn nested_origin_flattening_merges_with_plain_origin() {
        // An input carrying {D,E} merged with arrows reaching {D,E} and F
        // produces {D,E,F}, not {{D,E},F} — the Fig. 4/5 resolution.
        let de = Class::implicit([c("D"), c("E")]);
        let g_prior = WeakSchema::builder()
            .specialize(de.clone(), "D")
            .specialize(de.clone(), "E")
            .arrow("C", "a", de.clone())
            .arrow("C", "a", "D")
            .arrow("C", "a", "E")
            .build()
            .unwrap();
        let g_new = WeakSchema::builder().arrow("C", "a", "F").build().unwrap();
        let merged = weak_join(&g_prior, &g_new).unwrap();
        let (proper, report) = complete_with_report(&merged).unwrap();

        let def = Class::implicit([c("D"), c("E"), c("F")]);
        assert_eq!(report.num_implicit(), 1);
        assert_eq!(report.implicit[0].class, def);
        assert_eq!(proper.canonical_target(&c("C"), &l("a")), Some(&def));
        // And the flattened class sits below the older implicit class.
        assert!(proper.specializes(&def, &de));
    }

    #[test]
    fn consistency_check_blocks_inconsistent_merge() {
        let weak = WeakSchema::builder()
            .arrow("C", "a", "B1")
            .arrow("C", "a", "B2")
            .build()
            .unwrap();
        let mut rel = ConsistencyRelation::assume_consistent();
        rel.declare_inconsistent(c("B1"), c("B2"));
        let err = complete_checked(&weak, &rel).unwrap_err();
        match err {
            MergeError::Inconsistent { left, right } => {
                assert_eq!((left, right), (c("B1"), c("B2")));
            }
            other => panic!("expected inconsistency, got {other}"),
        }
    }

    #[test]
    fn consistency_check_passes_when_declared() {
        let weak = WeakSchema::builder()
            .arrow("C", "a", "B1")
            .arrow("C", "a", "B2")
            .build()
            .unwrap();
        let rel = ConsistencyRelation::assume_consistent();
        let (proper, report) = complete_checked(&weak, &rel).unwrap();
        assert_eq!(report.num_implicit(), 1);
        assert!(proper.check_d1() && proper.check_d2());
    }

    #[test]
    fn empty_schema_completes_to_empty() {
        let (proper, report) = complete_with_report(&WeakSchema::empty()).unwrap();
        assert_eq!(proper.num_classes(), 0);
        assert_eq!(report.num_implicit(), 0);
    }

    #[test]
    fn witness_display() {
        let w = ImplicitWitness {
            start: c("C"),
            labels: vec![l("a"), l("b")],
        };
        assert_eq!(w.to_string(), "C --a--> --b-->");
    }
}
