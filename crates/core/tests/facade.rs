//! The `Merger` façade's contract, property-tested:
//!
//! * every **plan configuration** — compiled, and compiled onto a cached base
//!   (with every split of the inputs into base and extras) — produces
//!   schemas *equal* to the retained symbolic `reference::merge`, and
//!   alpha-isomorphic modulo implicit-class naming;
//! * the paper's **§3–4 laws** hold on the compiled engine: the merge is
//!   commutative, associative and idempotent, and independent of input
//!   and assertion order;
//! * the **consistency pass** is one implementation: the deprecated
//!   `merge_consistent` and `MergeSession::with_consistency` paths are
//!   differential-tested against `Merger::with_consistency` (accepting
//!   and rejecting identically, with identical witnesses);
//! * **participation** joins pointwise: with annotated inputs mixed
//!   among plain ones, assertions and a compiled base, the upper merge
//!   equals the symbolic `reference::annotated_join` oracle;
//! * `MergeReport` renders **deterministically** (snapshot tests).
//!
//! Workload-scale differential coverage (random/pathological/ER
//! generator families) lives in
//! `crates/bench/tests/compiled_vs_symbolic.rs`, which drives the same
//! configurations through the `workload` generators.

use proptest::collection::vec;
use proptest::prelude::*;

use schema_merge_core::iso::alpha_isomorphic;
use schema_merge_core::{
    reference, AnnotatedSchema, Class, CompiledSchema, ConsistencyRelation, MergeError,
    MergeReport, MergeSession, Merger, PlannedEngine, WeakSchema,
};

const NAMES: [&str; 8] = ["c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"];
const LABELS: [&str; 3] = ["a", "b", "f"];

#[derive(Debug, Clone)]
enum RawEdge {
    Spec(usize, usize),
    Arrow(usize, usize, usize),
}

fn raw_edges() -> impl Strategy<Value = Vec<RawEdge>> {
    let edge = prop_oneof![
        (0usize..NAMES.len(), 0usize..NAMES.len())
            .prop_map(|(i, j)| RawEdge::Spec(i.min(j), i.max(j))),
        (
            0usize..NAMES.len(),
            0usize..LABELS.len(),
            0usize..NAMES.len()
        )
            .prop_map(|(s, l, t)| RawEdge::Arrow(s, l, t)),
    ];
    vec(edge, 0..14)
}

fn build(edges: &[RawEdge]) -> WeakSchema {
    let mut builder = WeakSchema::builder();
    for edge in edges {
        builder = match edge {
            RawEdge::Spec(sub, sup) if sub != sup => builder.specialize(NAMES[*sub], NAMES[*sup]),
            RawEdge::Spec(..) => builder,
            RawEdge::Arrow(s, l, t) => builder.arrow(NAMES[*s], LABELS[*l], NAMES[*t]),
        };
    }
    builder.build().expect("order-directed schemas are acyclic")
}

fn family() -> impl Strategy<Value = Vec<WeakSchema>> {
    vec(raw_edges().prop_map(|edges| build(&edges)), 1..5)
}

/// A deterministic Fisher–Yates shuffle driven by `seed` (xorshift).
fn permute<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        items.swap(i, (seed % (i as u64 + 1)) as usize);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every plan configuration equals `reference::merge`: the engine is
    /// a cost choice, never a semantics choice.
    #[test]
    fn every_plan_configuration_equals_reference_merge(family in family(), split in 0usize..5) {
        let refs: Vec<&WeakSchema> = family.iter().collect();
        let expected = reference::merge(refs.iter().copied()).expect("compatible");

        // The default (Auto) plan: the compiled engine, report-identical
        // to the reference.
        let auto = Merger::new().schemas(refs.iter().copied()).execute().expect("auto");
        prop_assert_eq!(auto.plan.engine, PlannedEngine::Compiled);
        prop_assert_eq!(&auto.proper, &expected.proper);
        prop_assert_eq!(&auto.implicit, &expected.report);
        prop_assert!(auto.weak().as_deref() == Some(&expected.weak));

        // Compiled onto a cached base, at every split point of the
        // inputs into (base, extras) — including the all-in-base and
        // all-in-extras degenerate splits.
        let k = split % (refs.len() + 1);
        let base = Merger::new()
            .schemas(refs[..k].iter().copied())
            .join()
            .expect("base joins");
        let onto = Merger::new()
            .onto_base(&base)
            .schemas(refs[k..].iter().copied())
            .execute()
            .expect("onto-base");
        prop_assert!(onto.plan.reuses_base);
        prop_assert_eq!(&onto.proper, &expected.proper);
        prop_assert_eq!(&onto.implicit, &expected.report);

        // And the weaker public contract: alpha-isomorphism modulo
        // implicit-class naming.
        prop_assert!(alpha_isomorphic(
            auto.proper.as_weak(),
            expected.proper.as_weak(),
            Class::is_implicit,
        ));
    }

    /// The paper's §3–4 guarantees on the compiled engine: the merge is
    /// the least upper bound, so it is
    /// commutative, associative and idempotent, and neither the order of
    /// the inputs nor the order of the user assertions can change it.
    /// Every result is checked against `reference::merge` — equal, and
    /// alpha-isomorphic modulo implicit-class naming.
    #[test]
    fn merge_laws_hold(
        family in family(),
        assertions in raw_edges(),
        shuffle in any::<u64>(),
    ) {
        let atoms: Vec<WeakSchema> = assertions.iter().map(|edge| build(std::slice::from_ref(edge))).collect();
        let all: Vec<&WeakSchema> = family.iter().chain(atoms.iter()).collect();
        let expected = reference::merge(all.iter().copied()).expect("compatible");
        let agrees = |report: &MergeReport| {
            report.proper == expected.proper
                && report.implicit == expected.report
                && alpha_isomorphic(
                    report.proper.as_weak(),
                    expected.proper.as_weak(),
                    Class::is_implicit,
                )
        };

        let merge = |inputs: &[&WeakSchema], asserted: &[RawEdge]| {
            asserted
                .iter()
                .fold(Merger::new().schemas(inputs.iter().copied()), |merger, edge| {
                    match *edge {
                        RawEdge::Spec(sub, sup) if sub != sup => {
                            merger.assert_specialization(NAMES[sub], NAMES[sup])
                        }
                        RawEdge::Spec(..) => merger,
                        RawEdge::Arrow(s, l, t) => merger.assert_arrow(NAMES[s], LABELS[l], NAMES[t]),
                    }
                })
                .execute()
                .expect("compatible")
        };
        let join = |inputs: &[&WeakSchema]| {
            Merger::new()
                .schemas(inputs.iter().copied())
                .join()
                .expect("compatible")
                .into_weak()
        };
        let refs: Vec<&WeakSchema> = family.iter().collect();
        let base = merge(&refs, &assertions);
        prop_assert!(agrees(&base), "merge differs from reference");

        // Independence from input order and from assertion order.
        let mut shuffled_refs = refs.clone();
        let mut shuffled_assertions = assertions.clone();
        permute(&mut shuffled_refs, shuffle);
        permute(&mut shuffled_assertions, shuffle.rotate_left(17));
        prop_assert!(agrees(&merge(&shuffled_refs, &assertions)), "input order");
        prop_assert!(agrees(&merge(&refs, &shuffled_assertions)), "assertion order");
        // Assertions are elementary schemas (§3): asserting them
        // equals merging them as inputs.
        prop_assert!(agrees(&merge(&all, &[])), "assertions as inputs");

        // Commutativity and idempotence.
        let reversed: Vec<&WeakSchema> = all.iter().rev().copied().collect();
        prop_assert!(agrees(&merge(&reversed, &[])), "commutativity");
        let doubled: Vec<&WeakSchema> = all.iter().chain(all.iter()).copied().collect();
        prop_assert!(agrees(&merge(&doubled, &[])), "idempotence");

        // Associativity: any bracketing of the join, completed, is
        // the same merge.
        let mid = all.len() / 2;
        let (left, right) = (join(&all[..mid]), join(&all[mid..]));
        prop_assert!(agrees(&merge(&[&left, &right], &[])), "associativity");
        let inner = join(&[&left, all[mid]]);
        let rest: Vec<&WeakSchema> =
            std::iter::once(&inner).chain(all[mid + 1..].iter().copied()).collect();
        prop_assert!(agrees(&merge(&rest, &[])), "associativity, other bracketing");
    }

    /// The consistency check is ONE merger pass: the incremental path
    /// (`MergeSession::with_consistency`) accepts and rejects exactly as
    /// the batch façade does, with identical witnesses and identical
    /// results.
    #[test]
    fn consistency_paths_agree(family in family(), veto in (0usize..NAMES.len(), 0usize..NAMES.len())) {
        let refs: Vec<&WeakSchema> = family.iter().collect();
        let mut relation = ConsistencyRelation::assume_consistent();
        relation.declare_inconsistent(NAMES[veto.0], NAMES[veto.1]);

        let facade = Merger::new()
            .schemas(refs.iter().copied())
            .with_consistency(&relation)
            .execute();

        // The incremental path: a session seeded with the relation.
        let mut session = MergeSession::with_consistency(relation.clone());
        for schema in &refs {
            session.add_schema(schema).expect("family is compatible");
        }
        let session_result = session.merged();

        match (&facade, &session_result) {
            (Ok(a), Ok(c)) => {
                prop_assert_eq!(&a.proper, &c.proper);
                prop_assert_eq!(&a.implicit, &c.report);
            }
            (Err(a), Err(c)) => {
                prop_assert_eq!(a, c);
                let inconsistent = matches!(a, MergeError::Inconsistent { .. });
                prop_assert!(inconsistent);
            }
            other => prop_assert!(
                false,
                "consistency paths disagree on accept/reject: {other:?}"
            ),
        }
    }

    /// `join()` agrees with the reference weak join, with and without a
    /// cached base.
    #[test]
    fn join_configurations_agree(family in family(), split in 0usize..5) {
        let refs: Vec<&WeakSchema> = family.iter().collect();
        let expected = reference::weak_join_all(refs.iter().copied()).expect("compatible");

        let compiled = Merger::new().schemas(refs.iter().copied()).join().expect("joins");
        prop_assert_eq!(&compiled.into_weak(), &expected);

        let k = split % (refs.len() + 1);
        let base = Merger::new()
            .schemas(refs[..k].iter().copied())
            .join()
            .expect("base joins");
        let onto = Merger::new()
            .onto_base(&base)
            .schemas(refs[k..].iter().copied())
            .join()
            .expect("joins");
        prop_assert_eq!(&onto.into_weak(), &expected);
    }
}

/// An annotated input: a generated schema with a random subset of its raw
/// arrows optional — the `annotated()` generator of `properties.rs`.
fn annotated() -> impl Strategy<Value = AnnotatedSchema> {
    (raw_edges(), any::<u64>()).prop_map(|(edges, mask)| {
        let mut builder = AnnotatedSchema::builder();
        for (i, edge) in edges.iter().enumerate() {
            builder = match edge {
                RawEdge::Spec(sub, sup) if sub != sup => {
                    builder.specialize(NAMES[*sub], NAMES[*sup])
                }
                RawEdge::Spec(..) => builder,
                RawEdge::Arrow(s, l, t) if mask >> (i % 64) & 1 == 1 => {
                    builder.optional_arrow(NAMES[*s], LABELS[*l], NAMES[*t])
                }
                RawEdge::Arrow(s, l, t) => builder.arrow(NAMES[*s], LABELS[*l], NAMES[*t]),
            };
        }
        builder.build().expect("order-directed schemas are acyclic")
    })
}

/// User assertions whose specializations may point against the name
/// order, so a merge with assertions can be incompatible. Self-loops are
/// dropped.
fn free_assertions() -> impl Strategy<Value = Vec<RawEdge>> {
    let edge = prop_oneof![
        (0usize..NAMES.len(), 0usize..NAMES.len()).prop_map(|(i, j)| RawEdge::Spec(i, j)),
        (
            0usize..NAMES.len(),
            0usize..LABELS.len(),
            0usize..NAMES.len()
        )
            .prop_map(|(s, l, t)| RawEdge::Arrow(s, l, t)),
    ];
    vec(edge, 0..3).prop_map(|edges| {
        edges
            .into_iter()
            .filter(|edge| !matches!(edge, RawEdge::Spec(i, j) if i == j))
            .collect()
    })
}

/// One façade input of the participation differential.
#[derive(Debug, Clone, Copy)]
enum Input<'a> {
    Annotated(&'a AnnotatedSchema),
    Plain(&'a WeakSchema),
}

impl Input<'_> {
    fn weak(&self) -> &WeakSchema {
        match self {
            Input::Annotated(annotated) => annotated.schema(),
            Input::Plain(weak) => weak,
        }
    }

    fn annotated(&self) -> AnnotatedSchema {
        match self {
            Input::Annotated(annotated) => (*annotated).clone(),
            Input::Plain(weak) => AnnotatedSchema::all_required((*weak).clone()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Participation joins pointwise in the upper merge (§4 extended to
    /// §6's `0/1` arrows). Annotated inputs mixed among plain ones,
    /// assertions and a compiled base, in any order: `execute()` equals
    /// the symbolic oracle — `reference::annotated_join`, reference
    /// completion, then `transfer_to` — in the proper schema, the
    /// implicit-class table and the participation marks, and `join()`
    /// equals the reference weak join of the underlying schemas. Both
    /// sides reject the same inputs.
    #[test]
    fn participation_merges_equal_the_annotated_join_oracle(
        annotated_inputs in vec(annotated(), 0..4),
        plain in vec(raw_edges().prop_map(|edges| build(&edges)), 0..3),
        base in raw_edges().prop_map(|edges| build(&edges)),
        assertions in free_assertions(),
        shuffle in any::<u64>(),
    ) {
        let compiled = CompiledSchema::compile(&base);
        let mut inputs: Vec<Input<'_>> = annotated_inputs
            .iter()
            .map(Input::Annotated)
            .chain(plain.iter().map(Input::Plain))
            .collect();
        permute(&mut inputs, shuffle);
        let merger = inputs
            .iter()
            .fold(Merger::new().onto_base(&compiled), |merger, input| match *input {
                Input::Annotated(annotated) => merger.with_participation(annotated),
                Input::Plain(weak) => merger.schema(weak),
            });
        let merger = assertions.iter().fold(merger, |merger, edge| match *edge {
            RawEdge::Spec(sub, sup) => merger.assert_specialization(NAMES[sub], NAMES[sup]),
            RawEdge::Arrow(s, l, t) => merger.assert_arrow(NAMES[s], LABELS[l], NAMES[t]),
        });
        let atoms: Vec<WeakSchema> = assertions
            .iter()
            .map(|edge| match *edge {
                RawEdge::Spec(sub, sup) => WeakSchema::builder().specialize(NAMES[sub], NAMES[sup]),
                RawEdge::Arrow(s, l, t) => WeakSchema::builder().arrow(NAMES[s], LABELS[l], NAMES[t]),
            }.build().expect("an assertion is a valid elementary schema"))
            .collect();

        // The oracle: every input annotated (plain ones all-required),
        // joined, completed and transferred symbolically.
        let oracle_inputs: Vec<AnnotatedSchema> = std::iter::once(AnnotatedSchema::all_required(base.clone()))
            .chain(inputs.iter().map(Input::annotated))
            .chain(atoms.iter().cloned().map(AnnotatedSchema::all_required))
            .collect();
        let expected = reference::annotated_join(oracle_inputs.iter()).map(|joined| {
            let (proper, implicit) = reference::complete_with_report(joined.schema())
                .expect("upper completion always succeeds");
            let transferred = joined.transfer_to(proper.as_weak());
            (proper, implicit, transferred)
        });
        match (merger.execute(), expected) {
            (Ok(report), Ok((proper, implicit, transferred))) => {
                prop_assert_eq!(&report.proper, &proper);
                prop_assert_eq!(&report.implicit, &implicit);
                let expected_annotated = (!annotated_inputs.is_empty()).then_some(transferred);
                prop_assert_eq!(report.annotated, expected_annotated);
            }
            (Err(actual), Err(oracle)) => {
                prop_assert!(matches!(actual, MergeError::Incompatible(_)), "{actual}");
                prop_assert!(matches!(oracle, MergeError::Incompatible(_)), "{oracle}");
            }
            (actual, oracle) => prop_assert!(
                false,
                "the merge and the oracle disagree on accept/reject: {:?} vs {:?}",
                actual.map(|report| report.proper),
                oracle.map(|(proper, ..)| proper)
            ),
        }

        let underlying: Vec<&WeakSchema> = std::iter::once(&base)
            .chain(inputs.iter().map(Input::weak))
            .chain(atoms.iter())
            .collect();
        let joined = merger.join().map(|joined| joined.into_weak());
        match (joined, reference::weak_join_all(underlying)) {
            (Ok(actual), Ok(oracle)) => prop_assert_eq!(actual, oracle),
            (Err(actual), Err(oracle)) => {
                prop_assert!(matches!(actual, MergeError::Incompatible(_)), "{actual}");
                prop_assert!(matches!(oracle, MergeError::Incompatible(_)), "{oracle}");
            }
            (actual, oracle) => prop_assert!(
                false,
                "join and the reference join disagree on accept/reject: {:?} vs {:?}",
                actual,
                oracle
            ),
        }
    }
}

// ---- MergeReport snapshots -----------------------------------------------

#[test]
fn merge_report_snapshot_plain() {
    let g1 = WeakSchema::builder()
        .arrow("Dog", "license", "int")
        .build()
        .unwrap();
    let g2 = WeakSchema::builder()
        .arrow("Dog", "owner", "Person")
        .specialize("Guide-dog", "Dog")
        .build()
        .unwrap();
    let report = Merger::new()
        .schema_named("municipal", &g1)
        .schema_named("club", &g2)
        .execute()
        .unwrap();
    assert_eq!(
        report.summary(),
        "plan: upper merge, engine=compiled, inputs=2\n\
         passes: join -> completion\n\
         estimated work: <= 5 classes, <= 3 arrows, <= 1 spec pairs (9 work units)\n\
         result: 4 classes, 4 arrows, 1 specializations, 0 implicit\n"
    );
    let names: Vec<Option<&str>> = report
        .provenance
        .iter()
        .map(|p| p.name.as_deref())
        .collect();
    assert_eq!(names, vec![Some("municipal"), Some("club")]);
}

#[test]
fn merge_report_snapshot_with_implicit_and_assertions() {
    let g1 = WeakSchema::builder().arrow("C", "a", "B1").build().unwrap();
    let g2 = WeakSchema::builder().arrow("C", "a", "B2").build().unwrap();
    let report = Merger::new()
        .schema(&g1)
        .schema(&g2)
        .assert_specialization("Sub", "C")
        .execute()
        .unwrap();
    assert_eq!(
        report.summary(),
        "plan: upper merge, engine=compiled, inputs=2 (+1 assertions)\n\
         passes: join -> completion\n\
         estimated work: <= 6 classes, <= 2 arrows, <= 1 spec pairs (9 work units)\n\
         result: 5 classes, 6 arrows, 3 specializations, 1 implicit\n\
         implicit: {B1,B2} demanded by C --a-->\n\
         info[I-IMPLICIT-CLASSES]: completion introduced 1 implicit class(es) (classes: {B1,B2})\n"
    );
}

#[test]
fn merge_plan_is_side_effect_free_and_stable() {
    let g = WeakSchema::builder().arrow("A", "x", "B").build().unwrap();
    let merger = Merger::new().schema(&g);
    let first = merger.plan();
    let second = merger.plan();
    assert_eq!(first, second);
    // Planning did not consume anything: execution still works and
    // reports the same plan.
    let report = merger.execute().unwrap();
    assert_eq!(report.plan, first);
}
