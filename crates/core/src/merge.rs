//! The merge: least upper bounds of weak schemas (§4.1) and the full
//! upper merge (weak join + completion, §4.2).
//!
//! Proposition 4.1: for compatible weak schemas the least upper bound under
//! `⊑` exists and is computed component-wise —
//!
//! ```text
//! C = C₁ ∪ C₂      S = (S₁ ∪ S₂)*      E = W1/W2-closure of (E₁ ∪ E₂)
//! ```
//!
//! Being a least upper bound, the operation is **associative, commutative
//! and idempotent**; merging any number of schemas in any order yields the
//! same result. A collection is *compatible* iff `(S₁ ∪ … ∪ Sₙ)*` is
//! antisymmetric; incompatibility is reported with a cycle witness.
//!
//! **The entry point is the [`crate::merger::Merger`] façade** — one
//! builder over the symbolic, compiled and incremental (onto-base)
//! engines and every constraint pass. The historical pre-façade free
//! functions (`merge`, `merge_compiled`, `merge_consistent`,
//! `weak_join_all`, `weak_join_all_compiled`, `weak_join_onto_compiled`)
//! lived here as deprecated shims for several releases and have been
//! removed; only the binary [`weak_join`] convenience and
//! [`are_compatible`] remain as free functions, both routed through the
//! merger.
//!
//! [`MergeSession`] packages the interactive workflow of §3: user
//! assertions (`a₁ ⇒ a₂`, shared arrows) are themselves elementary schemas
//! merged with the same operation, so the session's result is independent
//! of the order in which schemas and assertions arrive. It is an
//! incremental [`Merger`] in disguise: the session holds its running
//! least upper bound *compiled*, and every addition joins one new schema
//! onto that cached base.

use crate::class::Class;
use crate::compile::CompiledSchema;
use crate::complete::CompletionReport;
use crate::consistency::ConsistencyRelation;
use crate::error::MergeError;
use crate::merger::Merger;
use crate::name::Label;
use crate::proper::ProperSchema;
use crate::weak::WeakSchema;

/// The least upper bound `G₁ ⊔ G₂` of two weak schemas (Prop. 4.1).
///
/// # Errors
///
/// [`MergeError::Incompatible`] when the union of the specialization
/// relations is cyclic — no upper bound exists.
pub fn weak_join(left: &WeakSchema, right: &WeakSchema) -> Result<WeakSchema, MergeError> {
    Merger::new()
        .schema(left)
        .schema(right)
        .join()
        .map(|joined| joined.decompile())
}

/// Whether a collection of schemas is compatible (§4.1): the transitive
/// closure of the union of their specialization relations is antisymmetric.
pub fn are_compatible<'a>(schemas: impl IntoIterator<Item = &'a WeakSchema>) -> bool {
    Merger::new().schemas(schemas).join().is_ok()
}

/// The result of a full upper merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeOutcome {
    /// The weak least upper bound of the inputs.
    pub weak: WeakSchema,
    /// The completed proper schema (the paper's merge, `Ḡ`).
    pub proper: ProperSchema,
    /// Provenance of the implicit classes completion introduced.
    pub report: CompletionReport,
}

/// An interactive merging session (§3).
///
/// Schemas and user assertions accumulate into a single weak schema — the
/// running least upper bound. Because `⊔` is associative and commutative,
/// the session state never depends on insertion order, and a completed
/// view can be produced at any point without disturbing the session.
///
/// Failed additions leave the session unchanged, so an interactive tool
/// can report the conflict and continue.
///
/// Internally the session is an incremental [`Merger`]: the running join
/// is held **compiled**, every [`add_schema`](MergeSession::add_schema)
/// joins the new schema onto that cached base (interning only the
/// addition), and [`merged`](MergeSession::merged) completes straight off
/// the compiled form with the session's consistency relation as a merger
/// pass. The symbolic view is materialized lazily, on the first
/// [`current`](MergeSession::current) after a change — sessions that only
/// add and complete never decompile at all.
#[derive(Debug, Clone)]
pub struct MergeSession {
    base: CompiledSchema,
    /// Lazily decompiled view of `base`; cleared on every mutation.
    current: std::sync::OnceLock<WeakSchema>,
    consistency: ConsistencyRelation,
}

impl Default for MergeSession {
    fn default() -> Self {
        MergeSession {
            base: CompiledSchema::compile(&WeakSchema::empty()),
            current: std::sync::OnceLock::new(),
            consistency: ConsistencyRelation::default(),
        }
    }
}

impl MergeSession {
    /// An empty session with the permissive consistency relation.
    pub fn new() -> Self {
        MergeSession::default()
    }

    /// An empty session with the given consistency relation.
    pub fn with_consistency(consistency: ConsistencyRelation) -> Self {
        MergeSession {
            consistency,
            ..MergeSession::default()
        }
    }

    /// The accumulated weak schema (decompiled from the session's
    /// compiled join on first access after a change).
    pub fn current(&self) -> &WeakSchema {
        self.current.get_or_init(|| self.base.decompile())
    }

    /// Mutable access to the consistency relation (assertions about
    /// real-world class compatibility).
    pub fn consistency_mut(&mut self) -> &mut ConsistencyRelation {
        &mut self.consistency
    }

    /// Merges a weak schema into the session: one incremental join onto
    /// the session's compiled base.
    pub fn add_schema(&mut self, schema: &WeakSchema) -> Result<(), MergeError> {
        self.base = Merger::new().onto_base(&self.base).schema(schema).join()?;
        self.current = std::sync::OnceLock::new();
        Ok(())
    }

    /// Merges a previously *completed* schema into the session, stripping
    /// its implicit classes first: they carry no information beyond their
    /// origin (§4.2) and will be rediscovered by the next completion.
    pub fn add_merged(&mut self, schema: &ProperSchema) -> Result<(), MergeError> {
        let stripped = schema.as_weak().strip_implicit();
        self.add_schema(&stripped)
    }

    /// Asserts `sub ⇒ sup` — an elementary two-class schema (§3).
    pub fn assert_specialization(
        &mut self,
        sub: impl Into<Class>,
        sup: impl Into<Class>,
    ) -> Result<(), MergeError> {
        let atom = WeakSchema::builder()
            .specialize(sub, sup)
            .build()
            .map_err(MergeError::Schema)?;
        self.add_schema(&atom)
    }

    /// Asserts the arrow `src --label--> tgt` as an elementary schema.
    pub fn assert_arrow(
        &mut self,
        src: impl Into<Class>,
        label: impl Into<Label>,
        tgt: impl Into<Class>,
    ) -> Result<(), MergeError> {
        let atom = WeakSchema::builder()
            .arrow(src, label, tgt)
            .build()
            .map_err(MergeError::Schema)?;
        self.add_schema(&atom)
    }

    /// Completes the session's weak schema into the merged proper schema,
    /// applying the consistency check — a [`Merger`] execution over the
    /// session's compiled base.
    pub fn merged(&self) -> Result<MergeOutcome, MergeError> {
        let report = Merger::new()
            .onto_base(&self.base)
            .with_consistency(&self.consistency)
            .execute()?;
        Ok(MergeOutcome {
            weak: self.current().clone(),
            proper: report.proper,
            report: report.implicit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::Label;

    fn c(s: &str) -> Class {
        Class::named(s)
    }

    fn l(s: &str) -> Label {
        Label::new(s)
    }

    /// The n-ary weak join through the façade.
    fn join_all<'a>(
        schemas: impl IntoIterator<Item = &'a WeakSchema>,
    ) -> Result<WeakSchema, MergeError> {
        Merger::new()
            .schemas(schemas)
            .join()
            .map(|joined| joined.decompile())
    }

    /// The n-ary join on the compiled engine, both
    /// representations (the symbolic one decompiled).
    fn join_all_compiled<'a>(
        schemas: impl IntoIterator<Item = &'a WeakSchema>,
    ) -> Result<(WeakSchema, CompiledSchema), MergeError> {
        let compiled = Merger::new().schemas(schemas).join()?;
        Ok((compiled.decompile(), compiled))
    }

    /// The paper's full merge through the façade, on the compiled engine.
    fn merge_all<'a>(
        schemas: impl IntoIterator<Item = &'a WeakSchema>,
    ) -> Result<MergeOutcome, MergeError> {
        Merger::new()
            .schemas(schemas)
            .execute()
            .map(crate::merger::MergeReport::into_outcome)
    }

    fn dog_schema_one() -> WeakSchema {
        // §3's example: Dog with License#, Owner, Breed.
        WeakSchema::builder()
            .arrow("Dog", "License#", "int")
            .arrow("Dog", "Owner", "Person")
            .arrow("Dog", "Breed", "breed")
            .build()
            .unwrap()
    }

    fn dog_schema_two() -> WeakSchema {
        // §3's example: Dog with Name, Age, Breed.
        WeakSchema::builder()
            .arrow("Dog", "Name", "string")
            .arrow("Dog", "Age", "int")
            .arrow("Dog", "Breed", "breed")
            .build()
            .unwrap()
    }

    #[test]
    fn same_name_classes_collapse() {
        // The §3 example: the two Dog classes merge into one carrying all
        // five arrows.
        let merged = weak_join(&dog_schema_one(), &dog_schema_two()).unwrap();
        assert_eq!(merged.labels_of(&c("Dog")).len(), 5);
        assert!(merged.has_arrow(&c("Dog"), &l("Breed"), &c("breed")));
    }

    #[test]
    fn join_is_upper_bound() {
        let g1 = dog_schema_one();
        let g2 = dog_schema_two();
        let joined = weak_join(&g1, &g2).unwrap();
        assert!(g1.is_subschema_of(&joined));
        assert!(g2.is_subschema_of(&joined));
    }

    #[test]
    fn join_is_least() {
        // Any other upper bound contains the join.
        let g1 = dog_schema_one();
        let g2 = dog_schema_two();
        let joined = weak_join(&g1, &g2).unwrap();
        let bigger = WeakSchema::builder()
            .arrow("Dog", "License#", "int")
            .arrow("Dog", "Owner", "Person")
            .arrow("Dog", "Breed", "breed")
            .arrow("Dog", "Name", "string")
            .arrow("Dog", "Age", "int")
            .arrow("Dog", "Extra", "thing")
            .specialize("Puppy", "Dog")
            .build()
            .unwrap();
        assert!(g1.is_subschema_of(&bigger) && g2.is_subschema_of(&bigger));
        assert!(joined.is_subschema_of(&bigger));
    }

    #[test]
    fn join_laws() {
        let g1 = dog_schema_one();
        let g2 = dog_schema_two();
        let g3 = WeakSchema::builder()
            .specialize("Guide-dog", "Dog")
            .build()
            .unwrap();

        // Commutativity.
        assert_eq!(weak_join(&g1, &g2).unwrap(), weak_join(&g2, &g1).unwrap());
        // Associativity.
        let left = weak_join(&weak_join(&g1, &g2).unwrap(), &g3).unwrap();
        let right = weak_join(&g1, &weak_join(&g2, &g3).unwrap()).unwrap();
        assert_eq!(left, right);
        // n-ary agrees with folds.
        assert_eq!(join_all([&g1, &g2, &g3]).unwrap(), left);
        // Idempotence and unit.
        assert_eq!(weak_join(&g1, &g1).unwrap(), g1);
        assert_eq!(weak_join(&g1, &WeakSchema::empty()).unwrap(), g1);
    }

    #[test]
    fn incompatible_schemas_are_rejected_with_witness() {
        let g1 = WeakSchema::builder().specialize("A", "B").build().unwrap();
        let g2 = WeakSchema::builder().specialize("B", "A").build().unwrap();
        // Each is fine alone; together the specialization order collapses.
        match weak_join(&g1, &g2).unwrap_err() {
            MergeError::Incompatible(witness) => {
                assert_eq!(witness.path.first(), witness.path.last());
                assert!(witness.path.contains(&c("A")));
                assert!(witness.path.contains(&c("B")));
            }
            other => panic!("expected incompatibility, got {other}"),
        }
        assert!(!are_compatible([&g1, &g2]));
        assert!(are_compatible([&g1, &g1]));
    }

    #[test]
    fn three_way_incompatibility() {
        // Pairwise compatible, jointly incompatible: A⇒B, B⇒C, C⇒A.
        let g1 = WeakSchema::builder().specialize("A", "B").build().unwrap();
        let g2 = WeakSchema::builder().specialize("B", "C").build().unwrap();
        let g3 = WeakSchema::builder().specialize("C", "A").build().unwrap();
        assert!(are_compatible([&g1, &g2]));
        assert!(are_compatible([&g2, &g3]));
        assert!(are_compatible([&g1, &g3]));
        assert!(!are_compatible([&g1, &g2, &g3]));
    }

    #[test]
    fn merge_produces_proper_schema() {
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
        let outcome = merge_all([&g1, &g2]).unwrap();
        assert!(outcome.proper.check_d1());
        assert!(outcome.proper.check_d2());
        assert_eq!(outcome.report.num_implicit(), 1);
        assert!(outcome.weak.is_subschema_of(outcome.proper.as_weak()));
    }

    #[test]
    fn merge_order_independence_including_completion() {
        // Figure 4's G1, G2, G3 (reconstructed): all six merge orders of
        // the *paper's* merge agree, because completion happens once over
        // the weak join. Stepwise protocols go through MergeSession.
        let g1 = WeakSchema::builder()
            .arrow("A", "a", "D")
            .classes(["B", "C", "H"])
            .specialize("B", "A")
            .build()
            .unwrap();
        let g2 = WeakSchema::builder().arrow("B", "a", "E").build().unwrap();
        let g3 = WeakSchema::builder().arrow("B", "a", "F").build().unwrap();

        let orders: Vec<Vec<&WeakSchema>> = vec![
            vec![&g1, &g2, &g3],
            vec![&g1, &g3, &g2],
            vec![&g2, &g1, &g3],
            vec![&g2, &g3, &g1],
            vec![&g3, &g1, &g2],
            vec![&g3, &g2, &g1],
        ];
        let results: Vec<ProperSchema> = orders
            .into_iter()
            .map(|order| merge_all(order).unwrap().proper)
            .collect();
        for pair in results.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
        // And the single implicit class is {D,E,F} as §3 demands.
        let def = Class::implicit([c("D"), c("E"), c("F")]);
        assert!(results[0].contains_class(&def));
        assert!(!results[0].contains_class(&Class::implicit([c("D"), c("E")])));
    }

    #[test]
    fn session_accumulates_schemas_and_assertions() {
        let mut session = MergeSession::new();
        session.add_schema(&dog_schema_one()).unwrap();
        session.add_schema(&dog_schema_two()).unwrap();
        session.assert_specialization("Guide-dog", "Dog").unwrap();
        let outcome = session.merged().unwrap();
        assert!(outcome.proper.specializes(&c("Guide-dog"), &c("Dog")));
        assert!(outcome
            .proper
            .has_arrow(&c("Guide-dog"), &l("Age"), &c("int")));
    }

    #[test]
    fn session_assertion_order_is_irrelevant() {
        let g1 = WeakSchema::builder()
            .arrow("A1", "a", "B1")
            .build()
            .unwrap();
        let g2 = WeakSchema::builder()
            .arrow("A2", "a", "B2")
            .build()
            .unwrap();

        let mut s1 = MergeSession::new();
        s1.assert_specialization("C", "A1").unwrap();
        s1.add_schema(&g1).unwrap();
        s1.add_schema(&g2).unwrap();
        s1.assert_specialization("C", "A2").unwrap();

        let mut s2 = MergeSession::new();
        s2.add_schema(&g2).unwrap();
        s2.assert_specialization("C", "A2").unwrap();
        s2.assert_specialization("C", "A1").unwrap();
        s2.add_schema(&g1).unwrap();

        assert_eq!(s1.current(), s2.current());
        assert_eq!(s1.merged().unwrap().proper, s2.merged().unwrap().proper);
    }

    #[test]
    fn session_failed_addition_leaves_state_intact() {
        let mut session = MergeSession::new();
        session.assert_specialization("A", "B").unwrap();
        let before = session.current().clone();
        let err = session.assert_specialization("B", "A").unwrap_err();
        assert!(matches!(err, MergeError::Incompatible(_)));
        assert_eq!(session.current(), &before);
    }

    #[test]
    fn session_add_merged_strips_implicit() {
        // First merge introduces {B1,B2}; feeding the completed result into
        // a new session plus extra information must behave as if the
        // original weak schemas had been merged directly.
        let g1 = WeakSchema::builder()
            .arrow("C", "a", "B1")
            .arrow("C", "a", "B2")
            .build()
            .unwrap();
        let first = merge_all([&g1]).unwrap();

        let g2 = WeakSchema::builder().arrow("C", "a", "B3").build().unwrap();

        let mut stepwise = MergeSession::new();
        stepwise.add_merged(&first.proper).unwrap();
        stepwise.add_schema(&g2).unwrap();
        let stepwise_result = stepwise.merged().unwrap().proper;

        let batch = merge_all([&g1, &g2]).unwrap().proper;
        assert_eq!(stepwise_result, batch);
        let b123 = Class::implicit([c("B1"), c("B2"), c("B3")]);
        assert!(batch.contains_class(&b123));
    }

    #[test]
    fn session_consistency_veto() {
        let mut session = MergeSession::new();
        session
            .consistency_mut()
            .declare_inconsistent(c("B1"), c("B2"));
        session.assert_arrow("C", "a", "B1").unwrap();
        session.assert_arrow("C", "a", "B2").unwrap();
        let err = session.merged().unwrap_err();
        assert!(matches!(err, MergeError::Inconsistent { .. }));
    }

    #[test]
    fn consistency_veto_through_the_facade() {
        let g = WeakSchema::builder()
            .arrow("C", "a", "B1")
            .arrow("C", "a", "B2")
            .build()
            .unwrap();
        let ok = Merger::new()
            .schema(&g)
            .with_consistency(&ConsistencyRelation::assume_consistent())
            .execute();
        assert!(ok.is_ok());
        let mut rel = ConsistencyRelation::assume_consistent();
        rel.declare_inconsistent(c("B1"), c("B2"));
        assert!(matches!(
            Merger::new().schema(&g).with_consistency(&rel).execute(),
            Err(MergeError::Inconsistent { .. })
        ));
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        let outcome = merge_all(std::iter::empty::<&WeakSchema>()).unwrap();
        assert_eq!(outcome.proper.num_classes(), 0);
        assert_eq!(outcome.weak, WeakSchema::empty());
    }

    #[test]
    fn compiled_engine_agrees_with_symbolic() {
        let g1 = dog_schema_one();
        let g2 = dog_schema_two();
        let g3 = WeakSchema::builder()
            .specialize("C", "Dog")
            .specialize("C", "Person")
            .arrow("Dog", "Owner", "Company")
            .build()
            .unwrap();
        let batch = merge_all([&g1, &g2, &g3]).unwrap();
        let symbolic = crate::reference::merge([&g1, &g2, &g3]).unwrap();
        assert_eq!(batch, symbolic);
    }

    #[test]
    fn compiled_engine_reports_incompatibility() {
        let g1 = WeakSchema::builder().specialize("A", "B").build().unwrap();
        let g2 = WeakSchema::builder().specialize("B", "A").build().unwrap();
        match merge_all([&g1, &g2]).unwrap_err() {
            MergeError::Incompatible(witness) => {
                assert_eq!(witness.path.first(), witness.path.last());
                assert!(witness.path.contains(&c("A")));
            }
            other => panic!("expected incompatibility, got {other}"),
        }
    }

    #[test]
    fn partial_join_entry_points_reproduce_merge_compiled() {
        // The registry's incremental shape: join N-1 schemas, cache the
        // weak result, join it with the last schema and complete onto the
        // compiled form — all three stages must agree with the batch.
        let g1 = dog_schema_one();
        let g2 = dog_schema_two();
        let g3 = WeakSchema::builder()
            .specialize("Guide-dog", "Dog")
            .arrow("Dog", "Owner", "Company")
            .build()
            .unwrap();
        let (rest, _) = join_all_compiled([&g1, &g2]).unwrap();
        let (weak, compiled) = join_all_compiled([&rest, &g3]).unwrap();
        let completed = Merger::new().onto_base(&compiled).execute().unwrap();
        let batch = merge_all([&g1, &g2, &g3]).unwrap();
        assert_eq!(weak, batch.weak);
        assert_eq!(completed.proper, batch.proper);
        assert_eq!(completed.implicit, batch.report);
    }

    #[test]
    fn join_onto_compiled_equals_symbolic_join() {
        let g1 = dog_schema_one();
        let g2 = dog_schema_two();
        // Extras whose symbols all exist (id-stable), sort before existing
        // ones (remap path), and add fresh labels.
        for extra in [
            WeakSchema::builder().arrow("Dog", "Owner", "Dog").build(),
            WeakSchema::builder()
                .specialize("Aardvark-dog", "Dog")
                .arrow("Aardvark-dog", "AAA-first", "Dog")
                .build(),
        ] {
            let extra = extra.unwrap();
            let (_, base) = join_all_compiled([&g1, &g2]).unwrap();
            let compiled = Merger::new()
                .onto_base(&base)
                .schema(&extra)
                .join()
                .unwrap();
            let direct = join_all([&g1, &g2, &extra]).unwrap();
            assert_eq!(compiled.decompile(), direct);
            // The compiled join chains straight into completion: a
            // base-only execution completes the cached join as-is.
            let completed = Merger::new().onto_base(&compiled).execute().unwrap();
            let batch = merge_all([&g1, &g2, &extra]).unwrap();
            assert_eq!(completed.proper, batch.proper);
            assert_eq!(completed.implicit, batch.report);
        }
    }

    #[test]
    fn join_onto_compiled_reports_incompatibility() {
        let up = WeakSchema::builder().specialize("A", "B").build().unwrap();
        let (_, base) = join_all_compiled([&up]).unwrap();
        let down = WeakSchema::builder().specialize("B", "A").build().unwrap();
        assert!(matches!(
            Merger::new().onto_base(&base).schema(&down).join(),
            Err(MergeError::Incompatible(_))
        ));
    }

    #[test]
    fn partial_join_reports_incompatibility() {
        let g1 = WeakSchema::builder().specialize("A", "B").build().unwrap();
        let g2 = WeakSchema::builder().specialize("B", "A").build().unwrap();
        assert!(matches!(
            join_all_compiled([&g1, &g2]),
            Err(MergeError::Incompatible(_))
        ));
    }

    #[test]
    fn compiled_engine_handles_preexisting_implicit_classes() {
        // A completed result fed back in (with its implicit class) must
        // take the canonicalization path and still agree with the
        // symbolic engine.
        let g1 = WeakSchema::builder()
            .arrow("C", "a", "B1")
            .arrow("C", "a", "B2")
            .build()
            .unwrap();
        let first = merge_all([&g1]).unwrap();
        let g2 = WeakSchema::builder()
            .specialize("B1", "B2")
            .arrow("C", "a", "B3")
            .build()
            .unwrap();
        let batch = merge_all([first.proper.as_weak(), &g2]).unwrap();
        let symbolic = crate::reference::merge([first.proper.as_weak(), &g2]).unwrap();
        assert_eq!(batch, symbolic);
    }
}
