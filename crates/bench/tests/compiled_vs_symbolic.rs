//! Across every `workload` generator family, **every plan configuration
//! of the `Merger` façade** — compiled, and compiled onto a cached base
//! at every split of the inputs — agrees with the
//! symbolic `reference` merge:
//! equal weak joins, equal proper schemas and reports, and (the weaker
//! public contract) alpha-isomorphism modulo implicit-class naming — and
//! the compiled representation round-trips losslessly.

use proptest::prelude::*;

use schema_merge_core::iso::alpha_isomorphic;
use schema_merge_core::{reference, Class, CompiledSchema, Merger, WeakSchema};
use schema_merge_er::to_core;
use schema_merge_workload::{
    pathological_nfa, random_er_schema, schema_family, taxonomy_family, ErParams, SchemaParams,
    TaxonomyParams,
};

fn assert_engines_agree(schemas: &[&WeakSchema]) {
    // The default (Auto) plan: the compiled engine; the symbolic join is
    // decompiled on demand.
    let compiled = Merger::new()
        .schemas(schemas.iter().copied())
        .execute()
        .expect("default merge");
    let symbolic = reference::merge(schemas.iter().copied()).expect("symbolic merge");
    let compiled_weak = compiled.weak().expect("a join ran").into_owned();
    assert_eq!(compiled_weak, symbolic.weak, "weak joins agree");
    assert_eq!(compiled.proper, symbolic.proper, "proper schemas agree");
    assert_eq!(compiled.implicit, symbolic.report, "reports agree");
    assert!(
        alpha_isomorphic(
            compiled.proper.as_weak(),
            symbolic.proper.as_weak(),
            Class::is_implicit,
        ),
        "alpha-isomorphic modulo implicit naming"
    );

    // The onto-base plan configuration, splitting the inputs at the
    // midpoint (and at zero: completing extras onto the empty base).
    for k in [0, schemas.len() / 2] {
        let base = Merger::new()
            .schemas(schemas[..k].iter().copied())
            .join()
            .expect("base joins");
        let onto = Merger::new()
            .onto_base(&base)
            .schemas(schemas[k..].iter().copied())
            .execute()
            .expect("onto-base plan");
        assert_eq!(onto.proper, symbolic.proper, "onto-base plan agrees");
        assert_eq!(onto.implicit, symbolic.report);
    }

    // Lossless compilation of both the join and the completed result.
    for schema in [&compiled_weak, compiled.proper.as_weak()] {
        assert_eq!(&CompiledSchema::compile(schema).decompile(), schema);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_family_engines_agree(seed in any::<u64>(), count in 2usize..5) {
        let params = SchemaParams {
            vocabulary: 48,
            classes: 24,
            labels: 12,
            arrows: 20,
            specializations: 8,
            seed,
        };
        let family = schema_family(&params, count);
        let refs: Vec<&WeakSchema> = family.iter().collect();
        assert_engines_agree(&refs);
    }

    #[test]
    fn pathological_family_engines_agree(n in 0usize..7) {
        let schema = pathological_nfa(n);
        assert_engines_agree(&[&schema]);
    }

    #[test]
    fn er_roundtrip_family_engines_agree(seed in any::<u64>()) {
        let params = ErParams {
            entities: 10,
            domains: 6,
            attributes: 20,
            relationships: 5,
            isa: 3,
            one_role_percent: 30,
            seed,
        };
        let (g1, _) = to_core(&random_er_schema(&params));
        let (g2, _) = to_core(&random_er_schema(&ErParams {
            seed: seed.wrapping_add(1),
            ..params
        }));
        assert_engines_agree(&[&g1, &g2]);
    }

    #[test]
    fn wide_family_engines_agree(seed in any::<u64>(), members in 2usize..24) {
        // The daemon's traffic shape at proptest scale (the bench runs
        // it at 64 members): many small schemas, one shared vocabulary.
        let family = schema_merge_workload::wide_family(members, seed);
        let refs: Vec<&WeakSchema> = family.iter().collect();
        assert_engines_agree(&refs);
    }

    #[test]
    fn taxonomy_family_engines_agree(seed in any::<u64>(), forests in 1usize..5, members in 2usize..4) {
        // Multi-forest taxonomies: disconnected subject trees with
        // multiple inheritance, the shape the sparse rows exist for.
        let params = TaxonomyParams {
            classes: 180,
            branching: 4,
            forests,
            dag_extra_parents: 20,
            labels: 8,
            arrows: 90,
            seed,
        };
        let family = taxonomy_family(&params, members);
        let refs: Vec<&WeakSchema> = family.iter().collect();
        assert_engines_agree(&refs);
    }

    #[test]
    fn decompile_of_compile_is_identity_on_workloads(seed in any::<u64>()) {
        let params = SchemaParams {
            vocabulary: 64,
            classes: 32,
            labels: 16,
            arrows: 48,
            specializations: 16,
            seed,
        };
        let schema = schema_merge_workload::random_schema(&params);
        prop_assert_eq!(CompiledSchema::compile(&schema).decompile(), schema);
    }
}

#[test]
fn merge_result_feedback_loop_agrees() {
    // Stepwise protocol across engines: feed a completed merge result (with
    // its implicit classes) back in, exercising the canonicalization path.
    let params = SchemaParams {
        vocabulary: 32,
        classes: 16,
        labels: 4,
        arrows: 24,
        specializations: 8,
        seed: 99,
    };
    let family = schema_family(&params, 3);
    let first = Merger::new()
        .schemas([&family[0], &family[1]])
        .execute()
        .expect("first merge");
    let followup = [first.proper.as_weak(), &family[2]];
    assert_engines_agree(&followup);
}
