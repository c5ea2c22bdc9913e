//! Differential property tests: the registry's incremental merged view
//! vs the one-shot engines.
//!
//! For random publish/delete sequences over workload-generated schema
//! families, the registry's view after every operation must equal the
//! one-shot [`merge_compiled`] of its current members — and, at the end
//! of each sequence, the fully symbolic [`reference::merge`] too
//! (schemas *and* completion reports). Rejected publishes must
//! correspond exactly to member sets the one-shot merge also rejects,
//! and must leave the view untouched.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;

use schema_merge_core::{reference, Merger, WeakSchema};
use schema_merge_registry::{MergeStrategy, Registry, RegistryError};
use schema_merge_workload::{schema_family, SchemaParams};

const MEMBERS: usize = 5;
const VARIANTS: usize = 4;

/// One step of a registry workload. `Put` publishes variant `v` of
/// member slot `m`; `PutHostile` publishes a reversed-specialization
/// schema that may be incompatible with the generated family; `Delete`
/// removes the member if present.
#[derive(Debug, Clone)]
enum Op {
    Put(usize, usize),
    PutHostile(usize),
    Delete(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0usize..MEMBERS, 0usize..VARIANTS).prop_map(|(m, v)| Op::Put(m, v)),
        (0usize..MEMBERS).prop_map(Op::PutHostile),
        (0usize..MEMBERS).prop_map(Op::Delete),
    ];
    vec(op, 1..20)
}

/// A pool of mutually compatible member schemas: `MEMBERS × VARIANTS`
/// draws from one workload family over a shared vocabulary (the
/// generator directs specializations along the vocabulary order, so any
/// subset merges).
fn pool(seed: u64) -> Vec<WeakSchema> {
    let params = SchemaParams {
        vocabulary: 18,
        classes: 8,
        labels: 4,
        arrows: 7,
        specializations: 3,
        seed,
    };
    schema_family(&params, MEMBERS * VARIANTS)
}

/// A schema that reverses the vocabulary order, making it incompatible
/// with any family member that specializes across `lo ⇒ hi` — sometimes
/// rejected, sometimes accepted, which is the point.
fn hostile() -> WeakSchema {
    WeakSchema::builder()
        .specialize("C017", "C000")
        .specialize("C016", "C001")
        .build()
        .expect("acyclic alone")
}

fn member_name(slot: usize) -> String {
    format!("member-{slot}")
}

fn assert_view_matches<'a>(
    registry: &Registry,
    model: impl Iterator<Item = &'a WeakSchema>,
) -> Result<(), TestCaseError> {
    let schemas: Vec<&WeakSchema> = model.collect();
    let oneshot = Merger::new()
        .schemas(schemas.iter().copied())
        .execute()
        .expect("model members are compatible");
    let view = registry.merged();
    prop_assert_eq!(view.proper.as_ref(), &oneshot.proper);
    prop_assert_eq!(view.report.as_ref(), &oneshot.implicit);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_view_equals_oneshot_merge(ops in ops(), seed in 0u64..64) {
        let schemas = pool(seed);
        let registry = Registry::new();
        let mut model: BTreeMap<String, WeakSchema> = BTreeMap::new();

        for op in &ops {
            match op {
                Op::Put(m, v) => {
                    let name = member_name(*m);
                    let schema = schemas[m * VARIANTS + v].clone();
                    let outcome = registry.put(&name, schema.clone()).expect("family members are compatible");
                    if model.get(&name) == Some(&schema) {
                        prop_assert_eq!(outcome.strategy, MergeStrategy::Noop);
                    }
                    model.insert(name, schema);
                }
                Op::PutHostile(m) => {
                    let name = member_name(*m);
                    let schema = hostile();
                    match registry.put(&name, schema.clone()) {
                        Ok(_) => {
                            model.insert(name, schema);
                        }
                        Err(RegistryError::Rejected { .. }) => {
                            // The one-shot merge over (model ∖ name) ∪ {schema}
                            // must reject the same set.
                            let mut attempted: Vec<&WeakSchema> = model
                                .iter()
                                .filter(|(n, _)| *n != &name)
                                .map(|(_, s)| s)
                                .collect();
                            attempted.push(&schema);
                            prop_assert!(Merger::new().schemas(attempted).execute().is_err());
                        }
                        Err(other) => prop_assert!(false, "unexpected error: {other}"),
                    }
                }
                Op::Delete(m) => {
                    let name = member_name(*m);
                    match registry.delete(&name) {
                        Ok(_) => {
                            prop_assert!(model.remove(&name).is_some());
                        }
                        Err(RegistryError::UnknownMember(_)) => {
                            prop_assert!(!model.contains_key(&name));
                        }
                        Err(other) => prop_assert!(false, "unexpected error: {other}"),
                    }
                }
            }
            // After every operation, the view is the one-shot compiled
            // merge of the current members.
            assert_view_matches(&registry, model.values())?;
        }

        // And at sequence end, the fully symbolic engine agrees too —
        // schemas and completion reports.
        let members: Vec<&WeakSchema> = model.values().collect();
        let symbolic = reference::merge(members.iter().copied())
            .expect("model members are compatible");
        let view = registry.merged();
        prop_assert_eq!(view.proper.as_ref(), &symbolic.proper);
        prop_assert_eq!(view.report.as_ref(), &symbolic.report);

        // Sanity on the bookkeeping: generation counts exactly the commits.
        let stats = registry.stats();
        prop_assert_eq!(stats.generation, stats.incremental_merges + stats.full_merges);
    }
}

/// The member slots ordered by their random sort keys: a random
/// permutation.
fn permutation(keys: impl Iterator<Item = u64>) -> Vec<usize> {
    let mut keyed: Vec<(u64, usize)> = keys.zip(0..).collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, slot)| slot).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The merge is a least upper bound, so the registry's view cannot
    /// depend on publication order: the same final member set, published
    /// in two independent permutations — the second with superseded
    /// versions, withdrawals and republishes interleaved — gives an equal
    /// merged view, completion report and hash.
    #[test]
    fn publication_order_never_changes_the_view(
        // Per member slot: final variant, two sort keys, noise kind.
        slots in vec((0usize..VARIANTS, any::<u64>(), any::<u64>(), 0usize..3), 1..MEMBERS + 1),
        seed in 0u64..64,
    ) {
        let schemas = pool(seed);
        let version = |slot: usize, variant: usize| schemas[slot * VARIANTS + variant % VARIANTS].clone();

        let straight = Registry::new();
        for slot in permutation(slots.iter().map(|s| s.1)) {
            straight.put(member_name(slot), version(slot, slots[slot].0)).expect("compatible");
        }

        let noisy = Registry::new();
        let order = permutation(slots.iter().map(|s| s.2));
        for (position, &slot) in order.iter().enumerate() {
            let name = member_name(slot);
            match slots[slot].3 {
                // Another version first, withdrawn before the final one.
                1 => {
                    noisy.put(&name, version(slot, slots[slot].0 + 1)).expect("compatible");
                    noisy.delete(&name).expect("just published");
                }
                // Withdraw the previous member and republish it.
                2 if position > 0 => {
                    let earlier = order[position - 1];
                    noisy.delete(&member_name(earlier)).expect("published earlier");
                    noisy.put(member_name(earlier), version(earlier, slots[earlier].0)).expect("compatible");
                }
                _ => {}
            }
            noisy.put(&name, version(slot, slots[slot].0)).expect("compatible");
        }

        let (a, b) = (straight.merged(), noisy.merged());
        prop_assert_eq!(a.proper.as_ref(), b.proper.as_ref());
        prop_assert_eq!(a.report.as_ref(), b.report.as_ref());
        prop_assert_eq!(a.hash(), b.hash());
    }
}
