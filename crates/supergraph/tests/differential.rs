//! Differential property tests of the federation guarantee:
//! [`Supergraph::compose`] is *equal* to the one-shot
//! [`Merger`](schema_merge_core::Merger) over every member schema of
//! every attached registry — proper schema and implicit-class report —
//! and attaches the same provenance and `H-COMPOSE-*` hints as a fresh
//! full compose of the same state, across random
//! attach/publish/delete/detach sequences.
//!
//! Schemas are generated over a small vocabulary with specialization
//! edges directed along a fixed total order on names, so any collection
//! of generated schemas — across members *and* registries — is
//! compatible and every compose must succeed.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use schema_merge_core::{ComposeProvenance, Diagnostic, Merger, WeakSchema};
use schema_merge_registry::{MergeStrategy, Registry};
use schema_merge_supergraph::Supergraph;

const NAMES: [&str; 6] = ["c0", "c1", "c2", "c3", "c4", "c5"];
const LABELS: [&str; 3] = ["a", "b", "f"];
const REGISTRIES: [&str; 3] = ["r0", "r1", "r2"];
const MEMBERS: [&str; 3] = ["m0", "m1", "m2"];

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
    vec(edge, 0..10)
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

/// One step of a federation history.
#[derive(Debug, Clone)]
enum Op {
    Put {
        registry: usize,
        member: usize,
        edges: Vec<RawEdge>,
    },
    Delete {
        registry: usize,
        member: usize,
    },
    Detach(usize),
    Attach(usize),
    Compose,
}

fn put() -> impl Strategy<Value = Op> {
    (0usize..REGISTRIES.len(), 0usize..MEMBERS.len(), raw_edges()).prop_map(
        |(registry, member, edges)| Op::Put {
            registry,
            member,
            edges,
        },
    )
}

// The vendored `prop_oneof!` is unweighted; repeating an arm biases the
// uniform union toward publishes and composes.
fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        put(),
        put(),
        put(),
        (0usize..REGISTRIES.len(), 0usize..MEMBERS.len())
            .prop_map(|(registry, member)| Op::Delete { registry, member }),
        (0usize..REGISTRIES.len()).prop_map(Op::Detach),
        (0usize..REGISTRIES.len()).prop_map(Op::Attach),
        Just(Op::Compose),
        Just(Op::Compose),
        Just(Op::Compose),
    ]
}

/// Every member schema of every attached registry, in a deterministic
/// order — the one-shot merge input.
fn all_schemas(supergraph: &Supergraph) -> Vec<Arc<WeakSchema>> {
    let mut schemas = Vec::new();
    for name in supergraph.names() {
        let registry = supergraph.registry(&name).expect("listed name is attached");
        for (_, version) in registry.compiled_join().members {
            schemas.push(version.schema);
        }
    }
    schemas
}

/// The composed view must equal the one-shot merge, and carry the same
/// origins and hints as a fresh full compose of identical state.
fn check_composed(supergraph: &Supergraph) -> Result<(), TestCaseError> {
    let view = supergraph.composed();

    let schemas = all_schemas(supergraph);
    let oneshot = Merger::new()
        .schemas(schemas.iter().map(|s| s.as_ref()))
        .execute()
        .expect("compatible inputs merge");
    prop_assert_eq!(view.proper(), &oneshot.proper, "proper schemas differ");
    prop_assert_eq!(
        view.implicit(),
        &oneshot.implicit,
        "implicit-class reports differ"
    );

    let fresh = Supergraph::new();
    for name in supergraph.names() {
        fresh
            .attach(&name, supergraph.registry(&name).unwrap())
            .expect("fresh attach");
    }
    let full = fresh.compose().expect("fresh full compose");
    prop_assert_eq!(view.proper(), full.view.proper());
    prop_assert_eq!(view.origins(), full.view.origins(), "origins differ");
    let history_hints: Vec<&Diagnostic> = view.hints().collect();
    let full_hints: Vec<&Diagnostic> = full.view.hints().collect();
    prop_assert_eq!(history_hints, full_hints, "hints differ");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replays a random federation history; every compose along the way (and one final compose) must reproduce the
    /// one-shot merge, origins and hints included, regardless of which
    /// engine path (full, incremental, base-only, noop) each step took.
    #[test]
    fn compose_equals_oneshot_across_histories(
        ops in vec(op(), 1..14),
    ) {
        let supergraph = Supergraph::new();
        // Registries survive detach (the Arc is kept) so a later Attach
        // brings their members back — exercising compose-after-detach
        // and compose-after-reattach transitions.
        let mut pool: BTreeMap<&str, Arc<Registry>> = BTreeMap::new();
        for name in REGISTRIES {
            pool.insert(name, supergraph.attach_new(name).unwrap());
        }

        for op in &ops {
            match op {
                Op::Put { registry, member, edges } => {
                    pool[REGISTRIES[*registry]]
                        .put(MEMBERS[*member], build(edges))
                        .expect("order-directed schemas are compatible");
                }
                Op::Delete { registry, member } => {
                    // Deleting an absent member is a rejected no-op.
                    let _ = pool[REGISTRIES[*registry]].delete(MEMBERS[*member]);
                }
                Op::Detach(registry) => {
                    let _ = supergraph.detach(REGISTRIES[*registry]);
                }
                Op::Attach(registry) => {
                    let name = REGISTRIES[*registry];
                    let _ = supergraph.attach(name, Arc::clone(&pool[name]));
                }
                Op::Compose => {
                    supergraph.compose().expect("compatible compose");
                    check_composed(&supergraph)?;
                }
            }
        }

        let final_outcome = supergraph.compose().expect("final compose");
        check_composed(&supergraph)?;
        // A second compose with nothing in between is always a noop on
        // the same generation.
        let noop = supergraph.compose().expect("noop compose");
        prop_assert_eq!(noop.strategy, MergeStrategy::Noop);
        prop_assert_eq!(noop.generation, final_outcome.generation);
    }
}

/// The view of a supergraph whose one registry is `name` must equal the
/// merge of that registry's join — `Merger::new().onto_base(&join)` —
/// in proper schema, implicit table, hash, origins and diagnostics.
fn check_lone(supergraph: &Supergraph, name: &str) -> Result<(), TestCaseError> {
    let view = supergraph.composed();
    let joined = supergraph
        .registry(name)
        .expect("the lone registry is attached")
        .compiled_join();
    prop_assert_eq!(view.members.len(), 1);
    prop_assert_eq!(view.members[0].generation, joined.generation);
    let merge = Merger::new()
        .onto_base(&joined.join)
        .execute()
        .expect("a registry's join completes");
    prop_assert_eq!(view.proper(), &merge.proper, "proper schemas differ");
    prop_assert_eq!(view.implicit(), &merge.implicit, "implicit tables differ");
    prop_assert_eq!(view.hash(), merge.proper.content_hash(), "hashes differ");
    let labels = joined.members.iter().map(|(member, version)| {
        let label = format!("{name}/{member}@v{}", version.sequence);
        (label, version.schema.as_ref())
    });
    prop_assert_eq!(
        view.origins(),
        ComposeProvenance::compute(labels, &merge.proper),
        "origins differ"
    );
    prop_assert_eq!(
        view.diagnostics(),
        merge.diagnostics.as_slice(),
        "diagnostics differ"
    );
    Ok(())
}

/// One step of a one-registry history.
#[derive(Debug, Clone)]
enum LoneOp {
    Put { member: usize, edges: Vec<RawEdge> },
    Delete(usize),
    Compose,
}

fn lone_op() -> impl Strategy<Value = LoneOp> {
    prop_oneof![
        (0usize..MEMBERS.len(), raw_edges())
            .prop_map(|(member, edges)| LoneOp::Put { member, edges }),
        (0usize..MEMBERS.len(), raw_edges())
            .prop_map(|(member, edges)| LoneOp::Put { member, edges }),
        (0usize..MEMBERS.len()).prop_map(LoneOp::Delete),
        Just(LoneOp::Compose),
        Just(LoneOp::Compose),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A supergraph of one registry serves that registry's committed
    /// view: after any publish sequence, every compose equals the merge
    /// of the registry's join and the one-shot merge of its members.
    #[test]
    fn lone_registry_compose_equals_the_merge_of_its_join(
        ops in vec(lone_op(), 1..16),
    ) {
        let supergraph = Supergraph::new();
        let registry = supergraph.attach_new("solo").unwrap();
        for op in &ops {
            match op {
                LoneOp::Put { member, edges } => {
                    registry
                        .put(MEMBERS[*member], build(edges))
                        .expect("order-directed schemas are compatible");
                }
                LoneOp::Delete(member) => {
                    let _ = registry.delete(MEMBERS[*member]);
                }
                LoneOp::Compose => {
                    let outcome = supergraph.compose().expect("a lone compose");
                    prop_assert!(outcome.strategy != MergeStrategy::Full);
                    check_lone(&supergraph, "solo")?;
                    check_composed(&supergraph)?;
                }
            }
        }
        supergraph.compose().expect("final compose");
        check_lone(&supergraph, "solo")?;
        check_composed(&supergraph)?;
    }
}

/// A supergraph moving between one registry and two: attach a second
/// registry, compose, detach it, compose again, with publishes in
/// between. Every compose equals the one-shot merge; every lone one the
/// merge of the registry's join; and a registry attached to a lone one
/// builds onto the lone join.
#[test]
fn lone_registry_transitions_match_oneshot() {
    let supergraph = Supergraph::new();
    let a = supergraph.attach_new("r0").unwrap();
    let b = Arc::new(Registry::new());
    a.put("m0", build(&[RawEdge::Arrow(0, 0, 1)])).unwrap();
    b.put("m0", build(&[RawEdge::Arrow(0, 0, 2), RawEdge::Spec(3, 4)]))
        .unwrap();

    let lone = supergraph.compose().unwrap();
    assert_eq!(lone.strategy, MergeStrategy::Incremental);
    check_lone(&supergraph, "r0").unwrap();
    check_composed(&supergraph).unwrap();
    for round in 0..3 {
        supergraph.attach("r1", Arc::clone(&b)).unwrap();
        let pair = supergraph.compose().unwrap();
        assert_eq!(pair.strategy, MergeStrategy::Incremental, "round {round}");
        assert_eq!(pair.view.implicit().num_implicit(), 1, "round {round}");
        check_composed(&supergraph).unwrap();

        supergraph.detach("r1").unwrap();
        let alone = supergraph.compose().unwrap();
        assert_eq!(alone.strategy, MergeStrategy::Incremental, "round {round}");
        check_lone(&supergraph, "r0").unwrap();
        check_composed(&supergraph).unwrap();

        a.put("m1", build(&[RawEdge::Arrow(round, 1, 5)])).unwrap();
        supergraph.compose().unwrap();
        check_lone(&supergraph, "r0").unwrap();
        check_composed(&supergraph).unwrap();
    }
}

/// The registry slots ordered by their random sort keys: a random
/// permutation.
fn permutation(keys: impl Iterator<Item = u64>) -> Vec<usize> {
    let mut keyed: Vec<(u64, usize)> = keys.zip(0..).collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, slot)| slot).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Composition is a least upper bound of the registries' joins, so
    /// attach order cannot matter: the same registries attached in two
    /// independent permutations — one composed once at the end, the
    /// other after every attach — give an equal composed view, implicit
    /// classes, origins and hints.
    #[test]
    fn attach_order_never_changes_the_composed_view(
        // Per registry slot: member edge sets and two sort keys.
        slots in vec((vec(raw_edges(), 0..MEMBERS.len() + 1), any::<u64>(), any::<u64>()), 1..REGISTRIES.len() + 1),
    ) {
        let registries: Vec<Arc<Registry>> = slots
            .iter()
            .map(|(members, _, _)| {
                let registry = Arc::new(Registry::new());
                for (member, edges) in MEMBERS.iter().zip(members) {
                    registry.put(*member, build(edges)).expect("compatible");
                }
                registry
            })
            .collect();

        let batch = Supergraph::new();
        for slot in permutation(slots.iter().map(|s| s.1)) {
            batch.attach(REGISTRIES[slot], Arc::clone(&registries[slot])).expect("fresh name");
        }
        let batch = batch.compose().expect("compatible compose").view;

        let stepwise = Supergraph::new();
        for slot in permutation(slots.iter().map(|s| s.2)) {
            stepwise.attach(REGISTRIES[slot], Arc::clone(&registries[slot])).expect("fresh name");
            stepwise.compose().expect("compatible compose");
        }
        let stepwise = stepwise.composed();

        prop_assert_eq!(batch.proper(), stepwise.proper());
        prop_assert_eq!(batch.implicit(), stepwise.implicit());
        prop_assert_eq!(batch.origins(), stepwise.origins());
        let batch_hints: Vec<&Diagnostic> = batch.hints().collect();
        let stepwise_hints: Vec<&Diagnostic> = stepwise.hints().collect();
        prop_assert_eq!(batch_hints, stepwise_hints);
    }
}
