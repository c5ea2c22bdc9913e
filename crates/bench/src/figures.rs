//! Executable reconstructions of the paper's figures.
//!
//! The paper is a theory paper: its "evaluation" is eleven worked figures
//! plus algebraic claims. Each function below rebuilds one figure's
//! schemas programmatically, runs the corresponding operation, and checks
//! the outcome the paper asserts. [`all_rows`] drives them all and feeds
//! both the `reproduce` binary and the integration tests.

use schema_merge_baseline::{figure_4_schemas, is_opaque, stepwise_merge};
use schema_merge_core::complete::complete_with_report;
use schema_merge_core::iso::alpha_isomorphic;
use schema_merge_core::lower::{lower_complete, lower_merge, AnnotatedSchema};
use schema_merge_core::{
    weak_join, Class, KeyAssignment, KeySet, Label, Participation, SuperkeyFamily, WeakSchema,
};
use schema_merge_er::{
    cardinality_keys, figure_1_dogs, figure_9_advisor, from_core, keys_to_cardinalities, merge_er,
    to_core, Cardinality,
};

/// Did the reproduction match the paper?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The claim checked out.
    Pass,
    /// The claim failed (details in the row's `measured`).
    Fail,
}

/// One row of the reproduction table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Experiment id (`F1`–`F11` figures, `E…` experiments).
    pub id: &'static str,
    /// What the paper shows or claims.
    pub paper: String,
    /// What we measured.
    pub measured: String,
    /// Pass/fail.
    pub verdict: Verdict,
}

impl Row {
    fn check(
        id: &'static str,
        paper: impl Into<String>,
        measured: impl Into<String>,
        ok: bool,
    ) -> Row {
        Row {
            id,
            paper: paper.into(),
            measured: measured.into(),
            verdict: if ok { Verdict::Pass } else { Verdict::Fail },
        }
    }
}

use crate::facade_outcome as facade_merge;

fn c(s: &str) -> Class {
    Class::named(s)
}

fn l(s: &str) -> Label {
    Label::new(s)
}

/// Fig. 1: the dogs/kennels ER diagram is constructible and valid.
pub fn figure_1() -> Row {
    let er = figure_1_dogs();
    let ok = er.validate().is_ok() && er.counts() == (4, 4, 1);
    Row::check(
        "F1",
        "ER diagram with Guide-dog/Police-dog isa Dog, Lives(occ, home), 4 domains",
        format!(
            "valid ER schema with (domains, entities, relationships) = {:?}",
            er.counts()
        ),
        ok,
    )
}

/// Fig. 2: translating Fig. 1 yields the database schema with isa, with
/// the closure edges the figure leaves implicit.
pub fn figure_2() -> Row {
    let (schema, strata) = to_core(&figure_1_dogs());
    let inherits = schema.has_arrow(&c("Guide-dog"), &l("age"), &c("int"))
        && schema.has_arrow(&c("Police-dog"), &l("kind"), &c("breed"))
        && schema.has_arrow(&c("Police-dog"), &l("id-num"), &c("int"))
        && !schema.has_arrow(&c("Guide-dog"), &l("id-num"), &c("int"));
    let round_trip = from_core(&schema, &strata)
        .map(|er| to_core(&er).0 == schema)
        .unwrap_or(false);
    Row::check(
        "F2",
        "graph translation of Fig. 1; inherited arrows implied by constraint 2",
        format!(
            "{} classes, {} arrows; inheritance {}; ER round-trip {}",
            schema.num_classes(),
            schema.num_arrows(),
            if inherits { "correct" } else { "WRONG" },
            if round_trip { "exact" } else { "BROKEN" },
        ),
        inherits && round_trip,
    )
}

/// Fig. 3: merging `{C ⇒ A1, C ⇒ A2}` with `{A1 -a-> B1, A2 -a-> B2}`
/// forces the implicit class below `B1` and `B2`.
pub fn figure_3() -> Row {
    let g1 = WeakSchema::builder()
        .specialize("C", "A1")
        .specialize("C", "A2")
        .build()
        .expect("figure 3 G1");
    let g2 = WeakSchema::builder()
        .arrow("A1", "a", "B1")
        .arrow("A2", "a", "B2")
        .build()
        .expect("figure 3 G2");
    let outcome = facade_merge([&g1, &g2]).expect("figure 3 merge");
    let x = Class::implicit([c("B1"), c("B2")]);
    let ok = outcome.report.num_implicit() == 1
        && outcome.proper.canonical_target(&c("C"), &l("a")) == Some(&x)
        && outcome.proper.specializes(&x, &c("B1"))
        && outcome.proper.specializes(&x, &c("B2"));
    Row::check(
        "F3",
        "merge introduces one implicit class below B1, B2 as C's a-target",
        format!(
            "{} implicit class(es); canonical a-target of C = {}",
            outcome.report.num_implicit(),
            outcome
                .proper
                .canonical_target(&c("C"), &l("a"))
                .map(|t| t.to_string())
                .unwrap_or_else(|| "<none>".into()),
        ),
        ok,
    )
}

/// Fig. 4: the three simple schemas exist and are pairwise and jointly
/// compatible.
pub fn figure_4() -> Row {
    let (g1, g2, g3) = figure_4_schemas();
    let ok = schema_merge_core::are_compatible([&g1, &g2, &g3]);
    Row::check(
        "F4",
        "three elementary schemas sharing class B with a-arrows to D, E, F",
        format!(
            "constructed; jointly compatible = {ok}; sizes = {}, {}, {} classes",
            g1.num_classes(),
            g2.num_classes(),
            g3.num_classes()
        ),
        ok,
    )
}

/// Fig. 5: the naive stepwise merge is order-dependent (nested opaque
/// classes), while the paper's merge gives `{D,E,F}` in every order.
pub fn figure_5() -> Row {
    let (g1, g2, g3) = figure_4_schemas();
    let naive_a = stepwise_merge([&g1, &g2, &g3]).expect("naive order A");
    let naive_b = stepwise_merge([&g1, &g3, &g2]).expect("naive order B");
    let naive_differ = !alpha_isomorphic(&naive_a, &naive_b, is_opaque);

    let ours_a = facade_merge([&g1, &g2, &g3]).expect("merge A").proper;
    let ours_b = facade_merge([&g1, &g3, &g2]).expect("merge B").proper;
    let ours_c = facade_merge([&g3, &g2, &g1]).expect("merge C").proper;
    let def = Class::implicit([c("D"), c("E"), c("F")]);
    let ours_agree = ours_a == ours_b && ours_b == ours_c && ours_a.contains_class(&def);

    Row::check(
        "F5",
        "naive merge non-associative (nested X?/Y?); paper merge gives one {D,E,F}",
        format!(
            "naive orders differ = {naive_differ}; paper merge order-independent = {ours_agree}"
        ),
        naive_differ && ours_agree,
    )
}

/// Fig. 6 inputs and Fig. 8: their weak least upper bound.
pub fn figures_6_and_8() -> Row {
    let g1 = fig6_g1();
    let g2 = fig6_g2();
    let joined = weak_join(&g1, &g2).expect("figure 8 join");
    // Fig. 8 shows F's a-arrows reaching C and D (and upward to A and B),
    // with E below C and D.
    let ok = joined.has_arrow(&c("F"), &l("a"), &c("C"))
        && joined.has_arrow(&c("F"), &l("a"), &c("D"))
        && joined.has_arrow(&c("F"), &l("a"), &c("A"))
        && joined.has_arrow(&c("F"), &l("a"), &c("B"))
        && joined.specializes(&c("E"), &c("C"))
        && joined.specializes(&c("E"), &c("D"))
        && g1.is_subschema_of(&joined)
        && g2.is_subschema_of(&joined);
    Row::check(
        "F6/F8",
        "G1 ⊔ G2 is the least upper bound drawn in Fig. 8",
        format!(
            "join has {} classes, {} arrows; bounds verified = {ok}",
            joined.num_classes(),
            joined.num_arrows()
        ),
        ok,
    )
}

fn fig6_g1() -> WeakSchema {
    WeakSchema::builder()
        .arrow("F", "a", "C")
        .arrow("F", "a", "D")
        .specialize("C", "A")
        .specialize("D", "B")
        .build()
        .expect("figure 6 G1")
}

fn fig6_g2() -> WeakSchema {
    WeakSchema::builder()
        .specialize("E", "C")
        .specialize("E", "D")
        .specialize("C", "A")
        .specialize("D", "B")
        .build()
        .expect("figure 6 G2")
}

/// Fig. 7: completion chooses candidate `G3` (with `? = {C,D}`), not the
/// smaller `G4` that would conflate the target with `E`.
pub fn figure_7() -> Row {
    let merged = weak_join(&fig6_g1(), &fig6_g2()).expect("figure 7 join");
    let (proper, report) = complete_with_report(&merged).expect("figure 7 completion");
    let cd = Class::implicit([c("C"), c("D")]);
    let target = proper.canonical_target(&c("F"), &l("a"));
    let ok = report.num_implicit() == 1
        && target == Some(&cd)
        && proper.specializes(&c("E"), &cd)
        && target != Some(&c("E"));
    Row::check(
        "F7",
        "merge = G3 with ? = {C,D}; E stays a (possibly constrained) subclass; not G4",
        format!(
            "canonical a-target of F = {}; E below it = {}",
            target
                .map(|t| t.to_string())
                .unwrap_or_else(|| "<none>".into()),
            proper.specializes(&c("E"), &cd)
        ),
        ok,
    )
}

/// Fig. 9: Advisor ⇒ Committee with cardinality-derived keys; the merged
/// assignment satisfies SK(Advisor) ⊇ SK(Committee).
pub fn figure_9() -> Row {
    let er = figure_9_advisor();
    let outcome = merge_er([&er]).expect("figure 9 merge");
    let advisor = outcome.keys.family(&c("Advisor"));
    let committee = outcome.keys.family(&c("Committee"));
    let expected_advisor = SuperkeyFamily::single(KeySet::new(["victim"]));
    let expected_committee = SuperkeyFamily::single(KeySet::new(["faculty", "victim"]));
    let inheritance = advisor.contains_family(&committee);
    let ok = advisor == expected_advisor && committee == expected_committee && inheritance;
    Row::check(
        "F9",
        "SK(Advisor) = {{victim}}, SK(Committee) = {{faculty,victim}}, inherited",
        format!("SK(Advisor) = {advisor}; SK(Committee) = {committee}; SK(Advisor) ⊇ SK(Committee) = {inheritance}"),
        ok,
    )
}

/// Fig. 10: `Transaction` carries two keys `{loc,at}` and `{card,at}` —
/// representable as key constraints, not as edge labels.
pub fn figure_10() -> Row {
    let schema = WeakSchema::builder()
        .arrow("Transaction", "loc", "Machine")
        .arrow("Transaction", "at", "Time")
        .arrow("Transaction", "card", "Card")
        .arrow("Transaction", "amount", "Amount")
        .build()
        .expect("figure 10 schema");
    let mut keys = KeyAssignment::new();
    keys.add_key(c("Transaction"), KeySet::new(["loc", "at"]));
    keys.add_key(c("Transaction"), KeySet::new(["card", "at"]));
    let valid = keys.validate(&schema).is_ok();

    // The same family cannot be a cardinality labelling of the two-role
    // view of Transaction.
    let er = schema_merge_er::ErSchema::builder()
        .entity("Machine")
        .entity("Card")
        .relationship("Transaction", [("loc", "Machine"), ("card", "Card")])
        .attribute("Transaction", "at", "time")
        .attribute("Transaction", "amount", "money")
        .build()
        .expect("figure 10 er");
    let rel = er
        .relationship(&schema_merge_core::Name::new("Transaction"))
        .expect("transaction");
    let not_labelable = keys_to_cardinalities(rel, &keys.family(&c("Transaction"))).is_none();

    Row::check(
        "F10",
        "{loc,at} and {card,at} are keys; no edge labelling expresses them",
        format!(
            "keys valid = {valid}; expressible as cardinalities = {}",
            !not_labelable
        ),
        valid && not_labelable,
    )
}

/// Fig. 11: the participation semilattice and the lower-merge weakening.
pub fn figure_11() -> Row {
    use Participation::*;
    let table_ok = One.meet(Zero) == ZeroOrOne
        && Zero.meet(ZeroOrOne) == ZeroOrOne
        && One.meet(One) == One
        && Zero.meet(Zero) == Zero;
    let laws_ok = Participation::ALL
        .iter()
        .all(|&a| a.meet(a) == a && Participation::ALL.iter().all(|&b| a.meet(b) == b.meet(a)));

    // §6's Dog example: name survives required, age/breed weaken to 0/1.
    let g1 = AnnotatedSchema::builder()
        .arrow("Dog", "name", "string")
        .arrow("Dog", "age", "int")
        .build()
        .expect("dogs 1");
    let g2 = AnnotatedSchema::builder()
        .arrow("Dog", "name", "string")
        .arrow("Dog", "breed", "Breed")
        .build()
        .expect("dogs 2");
    let merged = lower_merge([&g1, &g2]);
    let weakening_ok = merged.participation(&c("Dog"), &l("name"), &c("string")) == One
        && merged.participation(&c("Dog"), &l("age"), &c("int")) == ZeroOrOne
        && merged.participation(&c("Dog"), &l("breed"), &c("Breed")) == ZeroOrOne;

    // Lower completion introduces a union class above disagreeing targets.
    let h1 = AnnotatedSchema::builder()
        .arrow("Pet", "home", "House")
        .build()
        .expect("pets 1");
    let h2 = AnnotatedSchema::builder()
        .arrow("Pet", "home", "Kennel")
        .build()
        .expect("pets 2");
    let (_, proper, report) = lower_complete(&lower_merge([&h1, &h2])).expect("lower complete");
    let union = Class::implicit_union([c("House"), c("Kennel")]);
    let union_ok =
        report.unions.len() == 1 && proper.canonical_target(&c("Pet"), &l("home")) == Some(&union);

    Row::check(
        "F11",
        "0/1 semilattice; lower merge weakens disagreements; union classes above targets",
        format!(
            "meet table = {table_ok}; laws = {laws_ok}; §6 Dog weakening = {weakening_ok}; union class = {union_ok}"
        ),
        table_ok && laws_ok && weakening_ok && union_ok,
    )
}

/// E7: user assertions as elementary schemas (§3) — order irrelevant.
pub fn experiment_assertions() -> Row {
    let g1 = WeakSchema::builder()
        .arrow("A1", "a", "B1")
        .build()
        .expect("g1");
    let g2 = WeakSchema::builder()
        .arrow("A2", "a", "B2")
        .build()
        .expect("g2");

    let mut s1 = schema_merge_core::MergeSession::new();
    s1.assert_specialization("C", "A1").expect("assert");
    s1.add_schema(&g1).expect("add");
    s1.add_schema(&g2).expect("add");
    s1.assert_specialization("C", "A2").expect("assert");

    let mut s2 = schema_merge_core::MergeSession::new();
    s2.add_schema(&g2).expect("add");
    s2.assert_specialization("C", "A2").expect("assert");
    s2.assert_specialization("C", "A1").expect("assert");
    s2.add_schema(&g1).expect("add");

    let r1 = s1.merged().expect("merge 1").proper;
    let r2 = s2.merged().expect("merge 2").proper;
    let ok = r1 == r2 && r1.contains_class(&Class::implicit([c("B1"), c("B2")]));
    Row::check(
        "E7",
        "assertions are elementary schemas; any interleaving yields the same merge",
        format!("two interleavings agree = {}", r1 == r2),
        ok,
    )
}

/// E6 (spot check): ER cardinalities round-trip through keys for all four
/// binary combinations.
pub fn experiment_cardinality_round_trip() -> Row {
    let mut ok = true;
    for cards in [
        (Cardinality::Many, Cardinality::Many),
        (Cardinality::One, Cardinality::Many),
        (Cardinality::Many, Cardinality::One),
        (Cardinality::One, Cardinality::One),
    ] {
        let er = schema_merge_er::ErSchema::builder()
            .entity("A")
            .entity("B")
            .relationship("R", [("ra", "A"), ("rb", "B")])
            .cardinality("R", "ra", cards.0)
            .cardinality("R", "rb", cards.1)
            .build()
            .expect("binary relationship");
        let keys = cardinality_keys(&er);
        let rel = er
            .relationship(&schema_merge_core::Name::new("R"))
            .expect("R");
        let back = keys_to_cardinalities(rel, &keys.family(&c("R")));
        ok &= back
            .map(|m| m[&l("ra")] == cards.0 && m[&l("rb")] == cards.1)
            .unwrap_or(false);
    }
    Row::check(
        "E6b",
        "binary cardinalities ↔ keys is exact (1:1, 1:N, N:1, N:N)",
        format!("all four combinations round-trip = {ok}"),
        ok,
    )
}

/// E8: §7's "normal form" — structural conflicts are fixed by
/// restructuring, after which the merge presents ONE interpretation.
pub fn experiment_normal_form() -> Row {
    use schema_merge_er::{detect_conflicts, normalize_pair, NormalPolicy};

    // "An attribute in one schema may look like an entity in another."
    let registry = schema_merge_er::ErSchema::builder()
        .entity("Dog")
        .attribute("Dog", "kennel", "kennel-id")
        .build()
        .expect("registry");
    let club = schema_merge_er::ErSchema::builder()
        .entity("Dog")
        .entity("kennel")
        .attribute("kennel", "addr", "place")
        .build()
        .expect("club");

    let before = detect_conflicts(&registry, &club).len();
    let outcome = normalize_pair(&registry, &club, NormalPolicy::PreferEntity);
    let after = detect_conflicts(&outcome.left, &outcome.right).len();
    let merged = merge_er([&outcome.left, &outcome.right]);
    let unified = merged
        .as_ref()
        .map(|m| {
            m.er.stratum(&schema_merge_core::Name::new("kennel"))
                == Some(schema_merge_er::Stratum::Entity)
                && m.er
                    .attributes_of(&schema_merge_core::Name::new("Dog"))
                    .is_empty()
        })
        .unwrap_or(false);
    let ok = before > 0 && after == 0 && outcome.is_clean() && unified;
    Row::check(
        "E8",
        "§7: structural conflicts need a normal form; restructuring forces one interpretation",
        format!(
            "conflicts {before} → {after}; merged schema has a single kennel-as-entity \
             presentation = {unified}"
        ),
        ok,
    )
}

/// E9: §6's federated-database guarantee — member instances and their
/// key-resolved union all conform to the lower merge.
pub fn experiment_federation() -> Row {
    use schema_merge_instance::{Federation, Instance, PathQuery};

    let g1 = AnnotatedSchema::all_required(
        WeakSchema::builder()
            .arrow("Dog", "name", "string")
            .arrow("Dog", "age", "int")
            .build()
            .expect("g1"),
    );
    let g2 = AnnotatedSchema::all_required(
        WeakSchema::builder()
            .arrow("Dog", "name", "string")
            .arrow("Dog", "breed", "breed")
            .build()
            .expect("g2"),
    );

    let mut b = Instance::builder();
    let name = b.object([c("string")]);
    let age = b.object([c("int")]);
    let rex = b.object([c("Dog")]);
    b.attr(rex, "name", name);
    b.attr(rex, "age", age);
    let i1 = b.build();

    let mut b = Instance::builder();
    let name2 = b.object([c("string")]);
    let kind = b.object([c("breed")]);
    let fido = b.object([c("Dog")]);
    b.attr(fido, "name", name2);
    b.attr(fido, "breed", kind);
    let i2 = b.build();

    let federation = Federation::new().member("a", g1, i1).member("b", g2, i2);
    let view = match federation.view() {
        Ok(view) => view,
        Err(err) => return Row::check("E9", "§6 federation", format!("view failed: {err}"), false),
    };
    let union_conforms = view.check().is_ok();
    let members_conform = federation
        .members()
        .iter()
        .all(|member| view.check_member(member).is_ok());
    let dogs = view.query(&PathQuery::extent("Dog")).len();
    let weakened = view.schema.num_optional() == 2; // age and breed
    let ok = union_conforms && members_conform && dogs == 2 && weakened;
    Row::check(
        "E9",
        "§6: every member instance AND their union are instances of the lower merge",
        format!(
            "union conforms = {union_conforms}, members conform = {members_conform}, \
             {dogs} dogs visible, disputed arrows weakened to 0/1 = {weakened}"
        ),
        ok,
    )
}

/// Every figure row, in paper order.
pub fn all_rows() -> Vec<Row> {
    vec![
        figure_1(),
        figure_2(),
        figure_3(),
        figure_4(),
        figure_5(),
        figures_6_and_8(),
        figure_7(),
        figure_9(),
        figure_10(),
        figure_11(),
        experiment_assertions(),
        experiment_cardinality_round_trip(),
        experiment_normal_form(),
        experiment_federation(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_reproduces() {
        let _peak = crate::peak_lock();
        for row in all_rows() {
            assert_eq!(
                row.verdict,
                Verdict::Pass,
                "{}: paper said `{}`, we measured `{}`",
                row.id,
                row.paper,
                row.measured
            );
        }
    }

    #[test]
    fn rows_cover_all_figures() {
        let _peak = crate::peak_lock();
        let ids: Vec<&str> = all_rows().iter().map(|r| r.id).collect();
        for wanted in [
            "F1", "F2", "F3", "F4", "F5", "F6/F8", "F7", "F9", "F10", "F11",
        ] {
            assert!(ids.contains(&wanted), "missing row {wanted}");
        }
    }
}
