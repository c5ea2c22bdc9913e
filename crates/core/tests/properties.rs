//! Property-based tests of the core algebraic laws.
//!
//! The laws are asserted through the [`Merger`] façade (plus the binary
//! [`weak_join`] convenience), the same entry points every production
//! caller uses. Façade-plan coverage lives in `tests/facade.rs` and the
//! workload-scale differential tests in
//! `crates/bench/tests/compiled_vs_symbolic.rs`.
//!
//! Schemas are generated over a small vocabulary with specialization edges
//! directed along a fixed total order on names (`c0 ⇒ c1 ⇒ …` only goes
//! up-index), so any collection of generated schemas is *compatible* —
//! which lets the LUB laws be tested without conditioning on cycle-freedom.
//! Incompatible inputs are exercised by dedicated generators below.

use proptest::collection::vec;
use proptest::prelude::*;

use schema_merge_core::complete::complete_with_report;
use schema_merge_core::lower::{lower_complete, lower_merge, AnnotatedSchema};
use schema_merge_core::merge::{weak_join, MergeOutcome, MergeSession};
use schema_merge_core::merger::{Joined, MergeReport};
use schema_merge_core::{
    Class, KeyAssignment, KeySet, Label, MergeError, Merger, ProperSchema, SuperkeyFamily,
    WeakSchema,
};

/// N-ary join through the façade.
fn weak_join_all<'a>(
    schemas: impl IntoIterator<Item = &'a WeakSchema>,
) -> Result<WeakSchema, MergeError> {
    Merger::new().schemas(schemas).join().map(Joined::into_weak)
}

/// Full merge (join + completion) through the façade, as the historical
/// triple.
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

/// A raw edge description: spec edges respect the name order.
#[derive(Debug, Clone)]
enum RawEdge {
    Spec(usize, usize),
    Arrow(usize, usize, usize),
}

fn raw_edges() -> impl Strategy<Value = Vec<RawEdge>> {
    let edge = prop_oneof![
        (0usize..NAMES.len(), 0usize..NAMES.len()).prop_map(|(i, j)| {
            // Direct the edge along the order: lower index specializes
            // higher index. Equal indices become a (dropped) self-loop.
            RawEdge::Spec(i.min(j), i.max(j))
        }),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn closure_is_idempotent(g in schema()) {
        prop_assert!(g.validate().is_ok());
        // Re-declaring everything the closed schema contains reproduces it.
        let mut builder = WeakSchema::builder().classes(g.classes().cloned());
        for (sub, sup) in g.specialization_pairs() {
            builder = builder.specialize(sub.clone(), sup.clone());
        }
        for (p, a, q) in g.arrow_triples() {
            builder = builder.arrow(p.clone(), a.clone(), q.clone());
        }
        let rebuilt = builder.build().unwrap();
        prop_assert_eq!(rebuilt, g);
    }

    #[test]
    fn subschema_is_reflexive_and_join_is_upper_bound(
        g1 in schema(),
        g2 in schema(),
    ) {
        prop_assert!(g1.is_subschema_of(&g1));
        let joined = weak_join(&g1, &g2).expect("order-directed schemas are compatible");
        prop_assert!(g1.is_subschema_of(&joined));
        prop_assert!(g2.is_subschema_of(&joined));
    }

    #[test]
    fn join_laws(g1 in schema(), g2 in schema(), g3 in schema()) {
        let ab = weak_join(&g1, &g2).unwrap();
        let ba = weak_join(&g2, &g1).unwrap();
        prop_assert_eq!(&ab, &ba, "commutative");

        let ab_c = weak_join(&ab, &g3).unwrap();
        let bc = weak_join(&g2, &g3).unwrap();
        let a_bc = weak_join(&g1, &bc).unwrap();
        prop_assert_eq!(&ab_c, &a_bc, "associative");

        let nary = weak_join_all([&g1, &g2, &g3]).unwrap();
        prop_assert_eq!(&nary, &ab_c, "n-ary agrees with folds");

        prop_assert_eq!(weak_join(&g1, &g1).unwrap(), g1.clone(), "idempotent");
        prop_assert_eq!(
            weak_join(&g1, &WeakSchema::empty()).unwrap(),
            g1,
            "empty is the unit"
        );
    }

    #[test]
    fn join_is_least_upper_bound(g1 in schema(), g2 in schema(), g3 in schema()) {
        // Any upper bound of g1, g2 that is also ⊑-comparable from the
        // join side must contain the join; the canonical such bound is the
        // triple join.
        let join12 = weak_join(&g1, &g2).unwrap();
        let upper = weak_join_all([&g1, &g2, &g3]).unwrap();
        prop_assert!(join12.is_subschema_of(&upper));
    }

    #[test]
    fn subschema_antisymmetry(g1 in schema(), g2 in schema()) {
        if g1.is_subschema_of(&g2) && g2.is_subschema_of(&g1) {
            prop_assert_eq!(g1, g2);
        }
    }

    #[test]
    fn completion_produces_least_proper_schema(g in schema()) {
        let (proper, report) = complete_with_report(&g).unwrap();
        prop_assert!(proper.check_d1());
        prop_assert!(proper.check_d2());
        prop_assert!(g.is_subschema_of(proper.as_weak()), "G ⊑ Ḡ");
        prop_assert!(proper.as_weak().validate().is_ok());
        // Every introduced class is implicit with ≥ 2 origins.
        for info in &report.implicit {
            prop_assert!(info.class.is_implicit_meet());
            prop_assert!(info.members.len() >= 2);
        }
    }

    #[test]
    fn strip_of_complete_is_identity(g in schema()) {
        let proper = schema_merge_core::complete(&g).unwrap();
        prop_assert_eq!(proper.as_weak().strip_implicit(), g);
    }

    #[test]
    fn completion_is_idempotent(g in schema()) {
        let once = schema_merge_core::complete(&g).unwrap();
        let (twice, report) = complete_with_report(once.as_weak()).unwrap();
        prop_assert_eq!(report.num_implicit(), 0);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn merge_is_order_independent(
        g1 in schema(),
        g2 in schema(),
        g3 in schema(),
    ) {
        let orders: [[&WeakSchema; 3]; 3] =
            [[&g1, &g2, &g3], [&g3, &g1, &g2], [&g2, &g3, &g1]];
        let mut results: Vec<ProperSchema> = Vec::new();
        for order in orders {
            results.push(merge(order).unwrap().proper);
        }
        prop_assert_eq!(&results[0], &results[1]);
        prop_assert_eq!(&results[1], &results[2]);
    }

    #[test]
    fn stepwise_equals_batch(g1 in schema(), g2 in schema(), g3 in schema()) {
        // complete(strip ⊔ strip) protocol via MergeSession.
        let first = merge([&g1, &g2]).unwrap();
        let mut session = MergeSession::new();
        session.add_merged(&first.proper).unwrap();
        session.add_schema(&g3).unwrap();
        let stepwise = session.merged().unwrap().proper;
        let batch = merge([&g1, &g2, &g3]).unwrap().proper;
        prop_assert_eq!(stepwise, batch);
    }

    #[test]
    fn minimal_key_assignment_is_satisfactory_and_minimal(
        g in schema(),
        key_picks in vec((0usize..NAMES.len(), vec(0usize..LABELS.len(), 0..3)), 0..6),
    ) {
        // Contributions: random label sets on random classes, filtered to
        // labels the class actually carries (so validation can pass).
        let mut contributions: Vec<(Class, SuperkeyFamily)> = Vec::new();
        for (class_idx, label_idxs) in &key_picks {
            let class = Class::named(NAMES[*class_idx]);
            if !g.contains_class(&class) {
                continue;
            }
            let available = g.labels_of(&class);
            let labels: Vec<Label> = label_idxs
                .iter()
                .map(|i| Label::new(LABELS[*i]))
                .filter(|l| available.contains(l))
                .collect();
            contributions.push((class, SuperkeyFamily::single(KeySet::new(labels))));
        }
        let refs: Vec<(&Class, &SuperkeyFamily)> =
            contributions.iter().map(|(c, f)| (c, f)).collect();

        let minimal = KeyAssignment::minimal_satisfactory(&g, refs.iter().copied());
        prop_assert!(minimal.is_satisfactory(&g, refs.iter().copied()));

        // Adding any extra key keeps it satisfactory and above minimal.
        let mut bigger = minimal.clone();
        if let Some(class) = g.classes().next() {
            bigger.add_key(class.clone(), KeySet::empty());
            prop_assert!(bigger.is_satisfactory(&g, refs.iter().copied()));
            let meet = bigger.intersection(&minimal);
            prop_assert!(meet.is_satisfactory(&g, refs.iter().copied()));
            for class in g.classes() {
                prop_assert!(
                    bigger.family(class).contains_family(&minimal.family(class))
                );
                prop_assert_eq!(meet.family(class), minimal.family(class));
            }
        }
    }
}

/// Annotated-schema generation: a schema plus a random subset of its raw
/// arrows marked optional.
fn annotated() -> impl Strategy<Value = AnnotatedSchema> {
    (raw_edges(), any::<u64>()).prop_map(|(edges, mask)| {
        let mut builder = AnnotatedSchema::builder();
        for (i, edge) in edges.iter().enumerate() {
            builder = match edge {
                RawEdge::Spec(sub, sup) => {
                    if sub == sup {
                        builder
                    } else {
                        builder.specialize(NAMES[*sub], NAMES[*sup])
                    }
                }
                RawEdge::Arrow(s, l, t) => {
                    if mask >> (i % 64) & 1 == 1 {
                        builder.optional_arrow(NAMES[*s], LABELS[*l], NAMES[*t])
                    } else {
                        builder.arrow(NAMES[*s], LABELS[*l], NAMES[*t])
                    }
                }
            };
        }
        builder.build().expect("order-directed schemas are acyclic")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn annotated_schemas_validate(g in annotated()) {
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn lower_merge_is_glb(g1 in annotated(), g2 in annotated()) {
        let merged = lower_merge([&g1, &g2]);
        let classes: Vec<Class> = merged.schema().classes().cloned().collect();
        let p1 = g1.pad_with_classes(classes.clone());
        let p2 = g2.pad_with_classes(classes);
        prop_assert!(merged.is_sub_annotated(&p1), "lower bound of {p1}");
        prop_assert!(merged.is_sub_annotated(&p2), "lower bound of {p2}");
    }

    #[test]
    fn lower_merge_laws(g1 in annotated(), g2 in annotated(), g3 in annotated()) {
        prop_assert_eq!(lower_merge([&g1, &g2]), lower_merge([&g2, &g1]));
        let left = lower_merge([&lower_merge([&g1, &g2]), &g3]);
        let right = lower_merge([&g1, &lower_merge([&g2, &g3])]);
        prop_assert_eq!(left, right);
        prop_assert_eq!(lower_merge([&g1, &g1]), g1);
    }

    #[test]
    fn lower_complete_terminates_and_is_proper(g1 in annotated(), g2 in annotated()) {
        let merged = lower_merge([&g1, &g2]);
        let (annotated, proper, _report) = lower_complete(&merged).unwrap();
        prop_assert!(proper.check_d1());
        prop_assert!(annotated.validate().is_ok());
    }
}

/// Free-direction specialization edges: collections may be incompatible.
fn free_schema() -> impl Strategy<Value = Result<WeakSchema, ()>> {
    vec((0usize..NAMES.len(), 0usize..NAMES.len()), 0..10).prop_map(|pairs| {
        let mut builder = WeakSchema::builder();
        for (sub, sup) in pairs {
            if sub != sup {
                builder = builder.specialize(NAMES[sub], NAMES[sup]);
            }
        }
        builder.build().map_err(|_| ())
    })
}

/// An injective renaming prefixing every vocabulary name.
fn prefixing_renaming() -> schema_merge_core::Renaming {
    let mut renaming = schema_merge_core::Renaming::new();
    for name in NAMES {
        renaming = renaming.class(name, format!("x-{name}"));
    }
    for label in LABELS {
        renaming = renaming.label(label, format!("x-{label}"));
    }
    renaming
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn identity_renaming_fixes_every_schema(g in schema()) {
        let (renamed, report) = schema_merge_core::Renaming::new().apply(&g).unwrap();
        prop_assert_eq!(renamed, g);
        prop_assert!(report.is_noop());
    }

    #[test]
    fn injective_renaming_is_an_information_order_isomorphism(
        g1 in schema(),
        g2 in schema(),
    ) {
        let renaming = prefixing_renaming();
        let (r1, _) = renaming.apply(&g1).unwrap();
        let (r2, _) = renaming.apply(&g2).unwrap();
        // Order-reflecting and order-preserving.
        prop_assert_eq!(g1.is_subschema_of(&g2), r1.is_subschema_of(&r2));
        // Structure-preserving.
        prop_assert_eq!(g1.num_classes(), r1.num_classes());
        prop_assert_eq!(g1.num_arrows(), r1.num_arrows());
        prop_assert_eq!(g1.num_specializations(), r1.num_specializations());
        // Distributes over the join.
        let joined = weak_join(&g1, &g2).unwrap();
        let (renamed_join, _) = renaming.apply(&joined).unwrap();
        let join_renamed = weak_join(&r1, &r2).unwrap();
        prop_assert_eq!(renamed_join, join_renamed);
    }

    #[test]
    fn renaming_composition_agrees_with_sequencing(g in schema()) {
        let first = prefixing_renaming();
        // A second renaming touching the images of the first.
        let second = schema_merge_core::Renaming::new()
            .class("x-c0", "y-c0")
            .class("x-c1", "x-c2") // deliberately non-injective on images
            .label("x-a", "y-a");
        let (step1, _) = first.apply(&g).unwrap();
        match second.apply(&step1) {
            Ok((sequential, _)) => {
                let (at_once, _) = first.then(&second).apply(&g).unwrap();
                prop_assert_eq!(sequential, at_once);
            }
            Err(_) => {
                // The unification created a cycle; the composition must
                // fail identically.
                prop_assert!(first.then(&second).apply(&g).is_err());
            }
        }
    }

    #[test]
    fn renaming_commutes_with_completion_on_injective_maps(g in schema()) {
        let renaming = prefixing_renaming();
        let completed_then_renamed = {
            let proper = schema_merge_core::complete(&g).unwrap();
            renaming.apply(proper.as_weak()).unwrap().0
        };
        let renamed_then_completed = {
            let (renamed, _) = renaming.apply(&g).unwrap();
            schema_merge_core::complete(&renamed).unwrap().as_weak().clone()
        };
        prop_assert_eq!(completed_then_renamed, renamed_then_completed);
    }

    #[test]
    fn reify_then_flatten_round_trips(g in schema(), pick in 0usize..64) {
        use schema_merge_core::restructure::{flatten_class, reify_arrow};

        // Applicable sites: an arrow with a unique canonical target
        // (flatten needs it) that is not inherited from a superclass
        // (W1 makes those irremovable).
        let candidates: Vec<(Class, Label)> = g
            .classes()
            .flat_map(|src| {
                g.labels_of(src).into_iter().map(move |label| (src.clone(), label))
            })
            .filter(|(src, label)| {
                g.min_s(g.arrow_targets(src, label).iter()).len() == 1
                    && g.strict_supers(src)
                        .iter()
                        .all(|sup| g.arrow_targets(sup, label).is_empty())
            })
            .collect();
        if candidates.is_empty() {
            return Ok(());
        }
        let (src, label) = candidates[pick % candidates.len()].clone();

        let node = Class::named("fresh-node");
        let reified = reify_arrow(&g, &src, &label, node.clone(), "role-src", "role-tgt")
            .expect("fresh node, arrow exists");
        prop_assert!(reified.contains_class(&node));
        prop_assert!(reified.arrow_targets(&src, &label).is_empty());

        let back = flatten_class(
            &reified,
            &node,
            &Label::new("role-src"),
            &Label::new("role-tgt"),
            label.clone(),
        )
        .expect("the fresh node is bare");
        prop_assert_eq!(back, g);
    }

    #[test]
    fn reify_preserves_everything_but_the_arrow(g in schema(), pick in 0usize..64) {
        use schema_merge_core::restructure::reify_arrow;

        let candidates: Vec<(Class, Label)> = g
            .classes()
            .flat_map(|src| {
                g.labels_of(src).into_iter().map(move |label| (src.clone(), label))
            })
            .filter(|(src, label)| {
                g.strict_supers(src)
                    .iter()
                    .all(|sup| g.arrow_targets(sup, label).is_empty())
            })
            .collect();
        if candidates.is_empty() {
            return Ok(());
        }
        let (src, label) = candidates[pick % candidates.len()].clone();

        let node = Class::named("fresh-node");
        let reified = reify_arrow(&g, &src, &label, node.clone(), "role-src", "role-tgt")
            .expect("applies");
        // All original classes survive, plus the node.
        prop_assert_eq!(reified.num_classes(), g.num_classes() + 1);
        // Specializations are untouched.
        prop_assert_eq!(reified.num_specializations(), g.num_specializations());
        // Arrows under other labels are untouched.
        for (p, a, q) in g.arrow_triples() {
            if a != &label {
                prop_assert!(reified.has_arrow(p, a, q), "{p} --{a}--> {q} lost");
            }
        }
    }

    #[test]
    fn synonym_candidates_never_propose_shared_names(g1 in schema(), g2 in schema()) {
        for candidate in schema_merge_core::synonym_candidates(&g1, &g2, 0.01) {
            let left_class = Class::named(candidate.left.as_str());
            let right_class = Class::named(candidate.right.as_str());
            prop_assert!(!g2.contains_class(&left_class), "left name must be left-only");
            prop_assert!(!g1.contains_class(&right_class), "right name must be right-only");
            prop_assert!(candidate.similarity > 0.0);
            prop_assert!(!candidate.shared_labels.is_empty());
        }
    }

    #[test]
    fn homonym_candidates_only_flag_shared_names(g1 in schema(), g2 in schema()) {
        for candidate in schema_merge_core::homonym_candidates(&g1, &g2, 0.99) {
            let class = Class::named(candidate.name.as_str());
            prop_assert!(g1.contains_class(&class));
            prop_assert!(g2.contains_class(&class));
            prop_assert!(candidate.similarity <= 0.99);
        }
    }

    #[test]
    fn incompatible_merges_fail_cleanly(a in free_schema(), b in free_schema()) {
        let (Ok(g1), Ok(g2)) = (a, b) else { return Ok(()); };
        match weak_join(&g1, &g2) {
            Ok(joined) => {
                prop_assert!(g1.is_subschema_of(&joined));
                prop_assert!(g2.is_subschema_of(&joined));
            }
            Err(schema_merge_core::MergeError::Incompatible(witness)) => {
                // The witness is a genuine cycle: consecutive pairs are
                // specializations in one of the two inputs.
                prop_assert!(witness.path.len() >= 3);
                prop_assert_eq!(witness.path.first(), witness.path.last());
                for pair in witness.path.windows(2) {
                    let in_either = g1.specializes(&pair[0], &pair[1])
                        || g2.specializes(&pair[0], &pair[1]);
                    prop_assert!(in_either, "witness uses declared edges");
                }
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }
}

/// The classes the content-hash pin draws from, in a fixed order that
/// directs every specialization edge (so generated schemas are acyclic):
/// named classes, meet classes `{A,B}` and union classes `{A|B}`.
fn hash_pin_classes() -> Vec<Class> {
    let named = |i: usize| Class::named(NAMES[i]);
    vec![
        named(0),
        Class::implicit([named(0), named(1)]),
        named(1),
        Class::implicit_union([named(2), named(3)]),
        named(2),
        Class::implicit([named(3), named(4), named(5)]),
        named(3),
        Class::implicit_union([named(1), named(6), named(7)]),
        named(4),
        named(5),
    ]
}

fn hash_pin_schema() -> impl Strategy<Value = WeakSchema> {
    let n = hash_pin_classes().len();
    let edge = prop_oneof![
        (0usize..n, 0usize..n).prop_map(|(i, j)| RawEdge::Spec(i.min(j), i.max(j))),
        (0usize..n, 0usize..LABELS.len(), 0usize..n).prop_map(|(s, l, t)| RawEdge::Arrow(s, l, t)),
    ];
    vec(edge, 0..16).prop_map(|edges| {
        let classes = hash_pin_classes();
        let mut builder = WeakSchema::builder();
        for edge in edges {
            builder = match edge {
                RawEdge::Spec(sub, sup) if sub != sup => {
                    builder.specialize(classes[sub].clone(), classes[sup].clone())
                }
                RawEdge::Spec(..) => builder.class(classes[0].clone()),
                RawEdge::Arrow(s, l, t) => {
                    builder.arrow(classes[s].clone(), LABELS[l], classes[t].clone())
                }
            };
        }
        builder.build().expect("order-directed schemas are acyclic")
    })
}

/// `WeakSchema::content_hash` as first written: FNV-1a over the
/// length-framed `to_string` of every class, specialization pair and
/// arrow triple. WAL records and snapshots carry hashes of this formula,
/// so the production hash must stay bit-identical to it.
fn content_hash_by_to_string(g: &WeakSchema) -> u64 {
    let mut state: u64 = 0xcbf2_9ce4_8422_2325;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            state ^= u64::from(b);
            state = state.wrapping_mul(0x100_0000_01b3);
        }
    };
    let classes = g.classes().map(|c| c.to_string());
    let specs = g
        .specialization_pairs()
        .flat_map(|(sub, sup)| [sub.to_string(), sup.to_string()]);
    let arrows = g
        .arrow_triples()
        .flat_map(|(src, label, tgt)| [src.to_string(), label.to_string(), tgt.to_string()]);
    let sections: [(&[u8], Vec<String>); 3] = [
        (b"C", classes.collect()),
        (b"S", specs.collect()),
        (b"E", arrows.collect()),
    ];
    for (tag, items) in sections {
        write(tag);
        for text in items {
            write(&(text.len() as u64).to_le_bytes());
            write(text.as_bytes());
        }
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn content_hash_matches_the_to_string_formula(g in hash_pin_schema()) {
        prop_assert_eq!(g.content_hash(), content_hash_by_to_string(&g));
    }
}
