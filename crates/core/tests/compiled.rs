//! Differential property tests: the compiled engine vs the symbolic
//! reference engine.
//!
//! The compiled schema core (`compile`) must be a pure change of
//! representation: `decompile(compile(g)) == g`, and every routed hot
//! path — weak join, completion, the compiled-engine merge — must
//! produce results *equal* to the retained
//! symbolic implementations in `reference` (alpha-isomorphism is implied
//! by equality; it is asserted separately to pin the weaker public
//! contract too). All compiled paths are driven through the [`Merger`]
//! façade, the same entry point every production caller uses, with
//! inputs split between compiled joins and symbolic schemas.

use proptest::collection::vec;
use proptest::prelude::*;

use schema_merge_core::iso::alpha_isomorphic;
use schema_merge_core::merge::MergeOutcome;
use schema_merge_core::merger::MergeReport;
use schema_merge_core::{reference, Class, CompiledSchema, MergeError, Merger, WeakSchema};

/// N-ary join on the compiled engine, through the façade.
fn weak_join_all<'a>(
    schemas: impl IntoIterator<Item = &'a WeakSchema>,
) -> Result<WeakSchema, MergeError> {
    Merger::new()
        .schemas(schemas)
        .join()
        .map(|joined| joined.decompile())
}

/// Merge on the compiled engine, through the façade.
fn merge<'a>(
    schemas: impl IntoIterator<Item = &'a WeakSchema>,
) -> Result<MergeOutcome, MergeError> {
    Merger::new()
        .schemas(schemas)
        .execute()
        .map(MergeReport::into_outcome)
}

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
            RawEdge::Spec(sub, sup) => {
                if sub == sup {
                    builder
                } else {
                    builder.specialize(NAMES[*sub], NAMES[*sup])
                }
            }
            RawEdge::Arrow(s, l, t) => builder.arrow(NAMES[*s], LABELS[*l], NAMES[*t]),
        };
    }
    builder.build().expect("order-directed schemas are acyclic")
}

fn schema() -> impl Strategy<Value = WeakSchema> {
    raw_edges().prop_map(|edges| build(&edges))
}

/// The classes [`literal_schema`] draws from, in a fixed order that
/// directs every specialization edge (so any family is compatible):
/// two named classes, two implicit-class literals — classes with origin
/// sets, the shape of an earlier merge result fed back in — and the
/// literals' origins. Only the first [`LITERAL_SUBS`] classes specialize
/// anything, so the origins stay pairwise incomparable, as they are in
/// the merge result a literal comes from.
fn literal_classes() -> Vec<Class> {
    let named = |i: usize| Class::named(NAMES[i]);
    vec![
        named(4),
        named(5),
        Class::implicit([named(0), named(1)]),
        Class::implicit([named(2), named(3)]),
        named(0),
        named(1),
        named(2),
        named(3),
    ]
}

/// How many leading [`literal_classes`] may be a specialization's sub.
const LITERAL_SUBS: usize = 4;

/// A schema over [`literal_classes`].
fn literal_schema() -> impl Strategy<Value = WeakSchema> {
    let n = literal_classes().len();
    let edge = prop_oneof![
        (0usize..n, 0usize..n).prop_map(|(i, j)| RawEdge::Spec(i.min(j), i.max(j))),
        (0usize..n, 0usize..LABELS.len(), 0usize..n).prop_map(|(s, l, t)| RawEdge::Arrow(s, l, t)),
    ];
    vec(edge, 0..10).prop_map(|edges| {
        let classes = literal_classes();
        let mut builder = WeakSchema::builder();
        for edge in edges {
            builder = match edge {
                RawEdge::Spec(sub, sup) if sub != sup && sub < LITERAL_SUBS => {
                    builder.specialize(classes[sub].clone(), classes[sup].clone())
                }
                RawEdge::Spec(sub, _) => builder.class(classes[sub].clone()),
                RawEdge::Arrow(s, l, t) => {
                    builder.arrow(classes[s].clone(), LABELS[l], classes[t].clone())
                }
            };
        }
        builder.build().expect("order-directed schemas are acyclic")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn decompile_of_compile_is_identity(g in schema()) {
        let compiled = CompiledSchema::compile(&g);
        prop_assert_eq!(compiled.decompile(), g);
    }

    #[test]
    fn compiled_stats_agree_with_symbolic(g in schema()) {
        let compiled = CompiledSchema::compile(&g);
        prop_assert_eq!(compiled.num_classes(), g.num_classes());
        prop_assert_eq!(compiled.num_arrows(), g.num_arrows());
        prop_assert_eq!(compiled.num_specializations(), g.num_specializations());
    }

    #[test]
    fn compiled_min_max_agree_with_symbolic(g in schema()) {
        let compiled = CompiledSchema::compile(&g);
        let all_ids: Vec<u32> = (0..compiled.num_classes() as u32).collect();
        let all_classes: Vec<Class> = g.classes().cloned().collect();

        let compiled_min: Vec<Class> = compiled
            .min_s(&all_ids)
            .iter()
            .map(|&id| compiled.class(id).clone())
            .collect();
        let symbolic_min: Vec<Class> = g.min_s(&all_classes).into_iter().collect();
        prop_assert_eq!(compiled_min, symbolic_min);

        let compiled_max: Vec<Class> = compiled
            .max_s(&all_ids)
            .iter()
            .map(|&id| compiled.class(id).clone())
            .collect();
        let symbolic_max: Vec<Class> = g.max_s(&all_classes).into_iter().collect();
        prop_assert_eq!(compiled_max, symbolic_max);
    }

    #[test]
    fn compiled_join_equals_reference_join(g1 in schema(), g2 in schema(), g3 in schema()) {
        let symbolic = reference::weak_join_all([&g1, &g2, &g3]).unwrap();
        let compiled = weak_join_all([&g1, &g2, &g3]).unwrap();
        prop_assert_eq!(&compiled, &symbolic);
    }

    #[test]
    fn compiled_completion_equals_reference_completion(g in schema()) {
        let (compiled, compiled_report) =
            schema_merge_core::complete_with_report(&g).unwrap();
        let (symbolic, symbolic_report) = reference::complete_with_report(&g).unwrap();
        prop_assert_eq!(&compiled, &symbolic);
        prop_assert_eq!(compiled_report, symbolic_report, "states and witnesses agree");
    }

    #[test]
    fn merge_compiled_equals_reference_merge(g1 in schema(), g2 in schema(), g3 in schema()) {
        let symbolic = reference::merge([&g1, &g2, &g3]).unwrap();
        let compiled = merge([&g1, &g2, &g3]).unwrap();
        prop_assert_eq!(&compiled.weak, &symbolic.weak);
        prop_assert_eq!(&compiled.proper, &symbolic.proper);
        prop_assert_eq!(&compiled.report, &symbolic.report);
        // The public contract is alpha-isomorphism modulo implicit
        // naming; equality implies it, but assert it through the
        // public predicate as well.
        prop_assert!(alpha_isomorphic(
            compiled.proper.as_weak(),
            symbolic.proper.as_weak(),
            Class::is_implicit,
        ));
    }

    #[test]
    fn merge_compiled_equals_public_merge(g1 in schema(), g2 in schema()) {
        // The façade completes its compiled join without decompiling it;
        // the public free functions complete the decompiled join.
        let compiled = merge([&g1, &g2]).unwrap();
        let weak = schema_merge_core::weak_join(&g1, &g2).unwrap();
        let (proper, report) = schema_merge_core::complete_with_report(&weak).unwrap();
        prop_assert_eq!(&compiled.weak, &weak);
        prop_assert_eq!(&compiled.proper, &proper);
        prop_assert_eq!(&compiled.report, &report);
    }

    #[test]
    fn engines_agree_on_incompatibility(
        pairs in vec((0usize..NAMES.len(), 0usize..NAMES.len()), 0..10),
    ) {
        // Free-direction specialization edges: collections may be cyclic.
        // Both engines must agree on Ok/Err, and on Err both witnesses
        // must be genuine cycles over declared edges.
        let mut builder = WeakSchema::builder();
        for &(sub, sup) in &pairs {
            if sub != sup {
                builder = builder.specialize(NAMES[sub], NAMES[sup]);
            }
        }
        let g1 = match builder.build() {
            Ok(g) => g,
            Err(_) => return Ok(()),
        };
        let g2 = WeakSchema::builder()
            .specialize(NAMES[1], NAMES[0])
            .specialize(NAMES[3], NAMES[2])
            .build()
            .unwrap();

        let compiled = weak_join_all([&g1, &g2]);
        let symbolic = reference::weak_join_all([&g1, &g2]);
        match (compiled, symbolic) {
            (Ok(c), Ok(s)) => prop_assert_eq!(c, s),
            (Err(c), Err(s)) => {
                for witness in [&c, &s] {
                    let schema_merge_core::MergeError::Incompatible(w) = witness else {
                        return Err(TestCaseError::fail(format!("unexpected error: {witness}")));
                    };
                    prop_assert!(w.path.len() >= 3);
                    prop_assert_eq!(w.path.first(), w.path.last());
                    for pair in w.path.windows(2) {
                        prop_assert!(
                            g1.specializes(&pair[0], &pair[1])
                                || g2.specializes(&pair[0], &pair[1]),
                            "witness uses declared edges"
                        );
                    }
                }
            }
            (c, s) => {
                return Err(TestCaseError::fail(format!(
                    "engines disagree on compatibility: compiled {c:?} vs symbolic {s:?}"
                )));
            }
        }
    }

    /// The id-space join takes any mix of compiled and symbolic inputs
    /// in any order: each member of a random family enters either as a
    /// compiled join ([`Merger::onto_base`]) or as a schema, shuffled.
    /// The join equals the all-symbolic join of the family in its
    /// original order, and the merge equals `reference::merge` (82 of
    /// the 96 cases complete; in the rest both reject the family).
    #[test]
    fn split_join_equals_all_symbolic_join(
        family in vec((literal_schema(), any::<bool>(), any::<u32>()), 1..6),
    ) {
        let symbolic: Vec<&WeakSchema> = family.iter().map(|(g, _, _)| g).collect();
        let expected_join = Merger::new()
            .schemas(symbolic.iter().copied())
            .join()
            .expect("compatible");
        let expected = reference::merge(symbolic.iter().copied());

        let mut shuffled: Vec<&(WeakSchema, bool, u32)> = family.iter().collect();
        shuffled.sort_by_key(|(_, _, key)| *key);
        let compiled: Vec<Option<CompiledSchema>> = shuffled
            .iter()
            .map(|(g, as_compiled, _)| as_compiled.then(|| CompiledSchema::compile(g)))
            .collect();
        let split = shuffled
            .iter()
            .zip(&compiled)
            .fold(Merger::new(), |merger, ((g, _, _), cs)| match cs {
                Some(cs) => merger.onto_base(cs),
                None => merger.schema(g),
            });

        let joined = split.join().expect("compatible");
        prop_assert_eq!(&joined, &expected_join);
        // Literals whose origins the family makes comparable, or whose
        // flattened origin sets collide, can leave no proper completion;
        // then both engines must reject the family.
        match (split.execute(), expected) {
            (Ok(report), Ok(expected)) => {
                prop_assert_eq!(report.plan.reuses_base, compiled.iter().any(Option::is_some));
                prop_assert_eq!(&report.proper, &expected.proper);
                prop_assert_eq!(&report.implicit, &expected.report);
            }
            (Err(_), Err(_)) => {}
            (report, expected) => {
                return Err(TestCaseError::fail(format!(
                    "engines disagree: split {:?} vs reference {:?}",
                    report.map(|r| r.proper),
                    expected.map(|e| e.proper)
                )));
            }
        }
    }

    #[test]
    fn compile_after_merge_round_trips(g1 in schema(), g2 in schema()) {
        // The completed proper schema (with implicit classes) also
        // survives the compile/decompile round trip.
        let outcome = merge([&g1, &g2]).unwrap();
        let compiled = CompiledSchema::compile(outcome.proper.as_weak());
        prop_assert_eq!(&compiled.decompile(), outcome.proper.as_weak());
    }
}
