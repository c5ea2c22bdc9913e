//! Taxonomy workloads: the 10k–100k-class shapes real ontology and
//! class-hierarchy mergers face — deep trees, high-fan-out trees, and
//! DAGs with multiple inheritance — generated as forests of disjoint
//! trees, as real subject taxonomies are.
//!
//! Unlike [`random_schema`](crate::random_schema)'s uniform edge soup, a
//! taxonomy's specialization graph is *sparse and shallow per class*:
//! each class has one (or, with multiple inheritance, a few) parents and
//! a closed ancestor set bounded by the tree depth, not the class count.
//! That is exactly the shape the adaptive sparse row representation
//! exists for, so this family is the headline workload of the
//! representation benchmarks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use schema_merge_core::{Class, Label, WeakSchema};

/// Parameters for [`taxonomy`] and [`taxonomy_family`].
#[derive(Debug, Clone)]
pub struct TaxonomyParams {
    /// Total classes across all forests.
    pub classes: usize,
    /// Children per node: `2` makes deep trees, `32`+ makes shallow
    /// high-fan-out trees.
    pub branching: usize,
    /// Number of disjoint trees. Classes of different forests never
    /// share an edge (specialization *or* arrow), so the combined graph
    /// has exactly this many weakly-connected components.
    pub forests: usize,
    /// Extra specialization edges to random *ancestral-order* classes in
    /// the same forest: multiple inheritance, turning the tree into a
    /// DAG while staying acyclic.
    pub dag_extra_parents: usize,
    /// Arrow labels available (`attr00`, `attr01`, …).
    pub labels: usize,
    /// Attribute arrows to generate, each within one forest.
    pub arrows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TaxonomyParams {
    fn default() -> Self {
        TaxonomyParams {
            classes: 1_000,
            branching: 8,
            forests: 4,
            dag_extra_parents: 50,
            labels: 16,
            arrows: 500,
            seed: 42,
        }
    }
}

impl TaxonomyParams {
    /// A deep-tree taxonomy: binary branching, so a 10k-class forest is
    /// ~13 levels deep and every closed ancestor row holds ~13 of 10k
    /// possible bits.
    pub fn deep(classes: usize, forests: usize, seed: u64) -> Self {
        TaxonomyParams {
            classes,
            branching: 2,
            forests,
            dag_extra_parents: 0,
            arrows: classes / 2,
            seed,
            ..TaxonomyParams::default()
        }
    }

    /// A high-fan-out taxonomy: 32 children per node, 3–4 levels deep at
    /// 10k classes — the product-catalog shape.
    pub fn bushy(classes: usize, forests: usize, seed: u64) -> Self {
        TaxonomyParams {
            classes,
            branching: 32,
            forests,
            dag_extra_parents: 0,
            arrows: classes / 2,
            seed,
            ..TaxonomyParams::default()
        }
    }

    /// A multiple-inheritance DAG: a branching-8 tree plus one extra
    /// parent for every tenth class.
    pub fn dag(classes: usize, forests: usize, seed: u64) -> Self {
        TaxonomyParams {
            classes,
            branching: 8,
            forests,
            dag_extra_parents: classes / 10,
            arrows: classes / 2,
            seed,
            ..TaxonomyParams::default()
        }
    }
}

fn class_name(forest: usize, index: usize) -> Class {
    Class::named(format!("T{forest:02}_{index:06}"))
}

fn label_name(index: usize) -> Label {
    Label::new(format!("attr{index:02}"))
}

/// The forests as contiguous index blocks: `(forest, start, len)`.
fn blocks(params: &TaxonomyParams) -> Vec<(usize, usize, usize)> {
    let classes = params.classes.max(2);
    let forests = params.forests.clamp(1, classes);
    let base = classes / forests;
    let extra = classes % forests;
    let mut out = Vec::with_capacity(forests);
    let mut start = 0;
    for forest in 0..forests {
        let len = base + usize::from(forest < extra);
        out.push((forest, start, len));
        start += len;
    }
    out
}

type SpecEdges = Vec<(Class, Class)>;
type ArrowEdges = Vec<(Class, Label, Class)>;

/// Every edge of the full taxonomy, deterministically from `params`.
/// Specializations point from child to parent; all randomness goes
/// toward *lower-index → higher-index is never generated*, so the graph
/// is acyclic by construction.
fn edges(params: &TaxonomyParams) -> (SpecEdges, ArrowEdges) {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let branching = params.branching.max(1);
    let labels = params.labels.max(1);
    let blocks = blocks(params);

    let mut specs = Vec::new();
    // Heap-shaped tree per forest: local index 0 is the root, the
    // parent of local index i >= 1 is (i - 1) / branching.
    for &(forest, _, len) in &blocks {
        for i in 1..len {
            let parent = (i - 1) / branching;
            specs.push((class_name(forest, i), class_name(forest, parent)));
        }
    }
    // DAG multiple inheritance: extra parents at strictly smaller local
    // indices in the same forest (parents sit earlier in heap order, so
    // the edge direction agrees with the tree and cycles are impossible).
    for _ in 0..params.dag_extra_parents {
        let &(forest, _, len) = &blocks[rng.random_range(0..blocks.len())];
        if len < 3 {
            continue;
        }
        let child = rng.random_range(2..len);
        let parent = rng.random_range(0..child);
        specs.push((class_name(forest, child), class_name(forest, parent)));
    }

    let mut arrows = Vec::new();
    for _ in 0..params.arrows {
        let &(forest, _, len) = &blocks[rng.random_range(0..blocks.len())];
        let src = rng.random_range(0..len);
        let tgt = rng.random_range(0..len);
        let label = label_name(rng.random_range(0..labels));
        arrows.push((class_name(forest, src), label, class_name(forest, tgt)));
    }
    (specs, arrows)
}

fn build(
    blocks: &[(usize, usize, usize)],
    specs: &[(Class, Class)],
    arrows: &[(Class, Label, Class)],
) -> WeakSchema {
    let mut builder = WeakSchema::builder();
    for &(forest, _, len) in blocks {
        for i in 0..len {
            builder = builder.class(class_name(forest, i));
        }
    }
    for (sub, sup) in specs {
        builder = builder.specialize(sub.clone(), sup.clone());
    }
    for (src, label, tgt) in arrows {
        builder = builder.arrow(src.clone(), label.clone(), tgt.clone());
    }
    builder
        .build()
        .expect("heap-ordered taxonomy edges are acyclic")
}

/// Generates the full taxonomy. Deterministic in `params.seed`.
pub fn taxonomy(params: &TaxonomyParams) -> WeakSchema {
    let (specs, arrows) = edges(params);
    build(&blocks(params), &specs, &arrows)
}

/// Generates `members` overlapping views of *one* shared taxonomy, each
/// keeping every class but a deterministic random subset of the edges
/// (~70% of specializations, ~50% of arrows). Merging the family
/// reassembles the taxonomy — the federated-curation shape where each
/// source database knows part of the hierarchy — and every member is a
/// subschema of the full [`taxonomy`], so the family is always mutually
/// compatible. Deterministic in `params.seed`.
pub fn taxonomy_family(params: &TaxonomyParams, members: usize) -> Vec<WeakSchema> {
    let (specs, arrows) = edges(params);
    let blocks = blocks(params);
    (0..members)
        .map(|member| {
            let mut rng = StdRng::seed_from_u64(params.seed ^ (member as u64).wrapping_mul(0x9e37));
            let kept_specs: Vec<_> = specs
                .iter()
                .filter(|_| rng.random_range(0..10) < 7)
                .cloned()
                .collect();
            let kept_arrows: Vec<_> = arrows
                .iter()
                .filter(|_| rng.random_range(0..10) < 5)
                .cloned()
                .collect();
            build(&blocks, &kept_specs, &kept_arrows)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema_merge_core::{are_compatible, Merger};

    #[test]
    fn generation_is_deterministic() {
        let params = TaxonomyParams::default();
        assert_eq!(taxonomy(&params), taxonomy(&params));
        let reseeded = TaxonomyParams {
            seed: 7,
            ..TaxonomyParams::default()
        };
        assert_ne!(taxonomy(&params), taxonomy(&reseeded));
    }

    #[test]
    fn forests_are_disconnected_components() {
        let params = TaxonomyParams {
            classes: 400,
            forests: 5,
            ..TaxonomyParams::default()
        };
        let schema = taxonomy(&params);
        assert_eq!(schema.num_classes(), 400);
        // Neither specializations nor arrows ever cross forests.
        for (sub, sup) in schema.specialization_pairs() {
            assert_eq!(&sub.to_string()[..3], &sup.to_string()[..3]);
        }
        for (src, _, tgt) in schema.arrow_triples() {
            assert_eq!(&src.to_string()[..3], &tgt.to_string()[..3]);
        }
    }

    #[test]
    fn deep_trees_have_small_closed_rows() {
        let schema = taxonomy(&TaxonomyParams::deep(1_024, 1, 3));
        // Binary heap of 1024 nodes: 10 levels, so the closed ancestor
        // set of any class has at most 10 entries — the sparse-row shape.
        let max_ancestors = schema
            .classes()
            .map(|c| schema.strict_supers(c).len())
            .max()
            .unwrap();
        assert!(
            max_ancestors <= 10,
            "deep taxonomy closure must stay shallow, got {max_ancestors}"
        );
    }

    #[test]
    fn dag_members_merge_back_to_the_taxonomy() {
        let params = TaxonomyParams {
            classes: 240,
            forests: 3,
            dag_extra_parents: 24,
            arrows: 120,
            ..TaxonomyParams::default()
        };
        let full = taxonomy(&params);
        let family = taxonomy_family(&params, 4);
        assert!(are_compatible(family.iter()));
        for member in &family {
            assert!(member.is_subschema_of(&full));
        }
        let joined = Merger::new()
            .schemas(family.iter())
            .join()
            .unwrap()
            .into_weak();
        assert!(joined.is_subschema_of(&full));
    }
}
