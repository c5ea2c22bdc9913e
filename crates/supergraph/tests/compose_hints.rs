//! The exact `H-COMPOSE-*` hint bytes of a composed view, for a
//! federation that exercises every hint derivation.

use schema_merge_core::{Class, WeakSchema};
use schema_merge_supergraph::Supergraph;

fn arrow(src: &str, label: &str, tgt: impl Into<Class>) -> WeakSchema {
    WeakSchema::builder()
        .arrow(src, label, tgt)
        .build()
        .unwrap()
}

fn specialize(sub: &str, sup: &str) -> WeakSchema {
    WeakSchema::builder().specialize(sub, sup).build().unwrap()
}

/// Two member-name collisions, an implicit class whose constituents
/// span registries, an implicit class a member declares itself
/// (`{Y1,Y2}`, owned by `c`, so no span hint), and a specialization only
/// the transitive closure introduces.
#[test]
fn compose_hints_match_the_pinned_bytes() {
    let supergraph = Supergraph::new();
    let a = supergraph.attach_new("a").unwrap();
    let b = supergraph.attach_new("b").unwrap();
    let c = supergraph.attach_new("c").unwrap();
    a.put("shared", arrow("C", "f", "B1")).unwrap();
    a.put("base", arrow("Animal", "alive", "bool")).unwrap();
    a.put("y", arrow("Q", "h", "Y1")).unwrap();
    b.put("shared", arrow("C", "f", "B2")).unwrap();
    b.put("mid", specialize("Dog", "Animal")).unwrap();
    b.put("y", arrow("Q", "h", "Y2")).unwrap();
    c.put("leaf", specialize("Puppy", "Dog")).unwrap();
    let meet = Class::implicit([Class::named("Y1"), Class::named("Y2")]);
    c.put("meet", arrow("X", "g", meet)).unwrap();

    let outcome = supergraph.compose().unwrap();
    let hints: Vec<String> = outcome
        .view
        .hints()
        .map(|d| format!("{} | {}", d.code, d.message))
        .collect();
    assert_eq!(
        hints,
        [
            "H-COMPOSE-COLLISION | member name `shared` is published by 2 registries; \
             origins are namespaced as `a/shared`, `b/shared`",
            "H-COMPOSE-COLLISION | member name `y` is published by 2 registries; \
             origins are namespaced as `a/y`, `b/y`",
            "H-COMPOSE-SPAN | implicit class `{B1,B2}` spans registries `a`, `b`",
            "H-COMPOSE-SPECIALIZATION | cross-registry specialization: `Puppy` (`c`) \
             is placed under `Animal` (`a`, `b`)",
        ]
    );
}

/// Every hint names two or more registries, so a one-registry compose
/// carries none — even over a cross-member specialization and an
/// implicit class — and composes to the registry's own merged view.
#[test]
fn one_registry_composes_without_hints() {
    let supergraph = Supergraph::new();
    let only = supergraph.attach_new("only").unwrap();
    only.put("left", arrow("C", "f", "B1")).unwrap();
    only.put("right", arrow("C", "f", "B2")).unwrap();
    only.put("mid", specialize("Dog", "Animal")).unwrap();
    only.put("leaf", specialize("Puppy", "Dog")).unwrap();
    only.put("base", arrow("Animal", "alive", "bool")).unwrap();

    let outcome = supergraph.compose().unwrap();
    assert_eq!(outcome.view.hints().count(), 0);
    let composed = outcome.view.proper();
    let meet = Class::implicit([Class::named("B1"), Class::named("B2")]);
    assert!(composed.as_weak().contains_class(&meet));
    assert!(composed
        .as_weak()
        .specializes(&Class::named("Puppy"), &Class::named("Animal")));
    assert_eq!(composed, only.merged().proper.as_ref());
    assert_eq!(outcome.view.hash(), only.merged().hash());
}
