//! The scaling experiments (E1–E6): measurements the paper's §7 calls
//! for but does not perform. Each function returns printable series for
//! the `reproduce` binary.

use std::time::Instant;

use crate::facade_merge;
use schema_merge_baseline::NaiveMerger;
use schema_merge_core::complete::complete_with_report;
use schema_merge_core::lower::{lower_complete, lower_merge, AnnotatedSchema};
use schema_merge_core::{KeyAssignment, KeySet, Merger};
use schema_merge_er::merge_er;
use schema_merge_workload::{
    expected_pathological_implicit_classes, pathological_nfa, random_er_schema, random_schema,
    schema_family, ErParams, SchemaParams,
};

/// One (x, columns…) point of a printed series.
#[derive(Debug, Clone)]
pub struct SeriesPoint {
    /// The swept parameter value.
    pub x: String,
    /// Column values, matching the series' column names.
    pub values: Vec<String>,
}

/// A printable experiment series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Experiment id (e.g. `E2`).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The x-axis name.
    pub x_label: &'static str,
    /// The column names.
    pub columns: Vec<&'static str>,
    /// The data points.
    pub points: Vec<SeriesPoint>,
}

fn micros(duration: std::time::Duration) -> String {
    format!("{:.1}", duration.as_secs_f64() * 1e6)
}

/// E1: order-independence at scale — merge a family of schemas in
/// several orders and report whether all results agree (they must), plus
/// timings for our merge and the naive baseline.
pub fn e1_associativity(sizes: &[usize]) -> Series {
    let mut points = Vec::new();
    for &count in sizes {
        // Densities chosen to stay in the realistic regime the paper
        // expects ("we do not think [pathological cases] are likely to
        // occur in practice", §7); E2 measures the blow-up deliberately.
        let params = SchemaParams {
            vocabulary: 64,
            classes: 12,
            labels: 16,
            arrows: 16,
            specializations: 6,
            seed: 11,
        };
        let family = schema_family(&params, count);
        let refs: Vec<_> = family.iter().collect();

        let start = Instant::now();
        let forward = facade_merge(refs.iter().copied())
            .expect("compatible family")
            .proper;
        let ours_time = start.elapsed();

        let reversed: Vec<_> = refs.iter().rev().copied().collect();
        let backward = facade_merge(reversed).expect("compatible family").proper;
        let rotated: Vec<_> = refs[1..].iter().chain(&refs[..1]).copied().collect();
        let rotated = facade_merge(rotated).expect("compatible family").proper;
        let agree = forward == backward && backward == rotated;

        let start = Instant::now();
        let naive = NaiveMerger::new().merge_sequence(refs.iter().copied());
        let naive_time = start.elapsed();
        let naive_ok = naive.is_ok();

        points.push(SeriesPoint {
            x: count.to_string(),
            values: vec![
                agree.to_string(),
                micros(ours_time),
                format!(
                    "{} ({})",
                    micros(naive_time),
                    if naive_ok { "ok" } else { "failed" }
                ),
            ],
        });
    }
    Series {
        id: "E1",
        title: "merge order-independence at scale (random families)",
        x_label: "schemas merged",
        columns: vec!["all orders agree", "merge µs", "naive stepwise µs"],
        points,
    }
}

/// E2: completion cost and implicit-class counts — random schemas stay
/// small, the pathological NFA family is exponential (§7 question 3).
pub fn e2_completion(random_sizes: &[usize], nfa_sizes: &[usize]) -> Series {
    let mut points = Vec::new();
    for &classes in random_sizes {
        // Labels scale with the class count: a fixed small label set over
        // many arrows concentrates targets per (class, label) pair and
        // drives the subset fixpoint into its exponential regime — the
        // pathological family below measures that deliberately.
        let params = SchemaParams {
            vocabulary: classes,
            classes,
            labels: (classes / 2).max(2),
            arrows: classes * 2,
            specializations: classes / 2,
            seed: 5,
        };
        let schema = random_schema(&params);
        let start = Instant::now();
        let (_, report) = complete_with_report(&schema).expect("completion");
        points.push(SeriesPoint {
            x: format!("random n={classes}"),
            values: vec![
                report.num_implicit().to_string(),
                "-".into(),
                micros(start.elapsed()),
            ],
        });
    }
    for &n in nfa_sizes {
        let schema = pathological_nfa(n);
        let start = Instant::now();
        let (_, report) = complete_with_report(&schema).expect("completion");
        points.push(SeriesPoint {
            x: format!("nfa n={n}"),
            values: vec![
                report.num_implicit().to_string(),
                expected_pathological_implicit_classes(n).to_string(),
                micros(start.elapsed()),
            ],
        });
    }
    Series {
        id: "E2",
        title: "implicit classes: random vs pathological (§7 open question 3)",
        x_label: "input",
        columns: vec!["implicit classes", "expected (2^n - 1)", "time µs"],
        points,
    }
}

/// E3: weak-join throughput vs schema size.
pub fn e3_weak_merge(sizes: &[usize]) -> Series {
    let mut points = Vec::new();
    for &classes in sizes {
        let params = SchemaParams {
            vocabulary: classes * 2,
            classes,
            labels: (classes / 2).max(4),
            arrows: classes * 3 / 2,
            specializations: classes / 2,
            seed: 23,
        };
        let family = schema_family(&params, 2);
        let start = Instant::now();
        let joined = Merger::new()
            .schemas(family.iter())
            .join()
            .expect("compatible")
            .into_weak();
        let elapsed = start.elapsed();
        points.push(SeriesPoint {
            x: classes.to_string(),
            values: vec![
                joined.num_classes().to_string(),
                joined.num_arrows().to_string(),
                micros(elapsed),
            ],
        });
    }
    Series {
        id: "E3",
        title: "weak least-upper-bound cost vs schema size (2-way)",
        x_label: "classes per input",
        columns: vec!["merged classes", "merged arrows", "join µs"],
        points,
    }
}

/// E4: minimal satisfactory key assignment cost vs isa depth.
pub fn e4_keys(sizes: &[usize]) -> Series {
    let mut points = Vec::new();
    for &classes in sizes {
        let params = SchemaParams {
            vocabulary: classes,
            classes,
            labels: (classes / 2).max(3),
            arrows: classes * 2,
            specializations: classes,
            seed: 31,
        };
        let schema = random_schema(&params);
        // One key contribution per class with arrows.
        let contributions: Vec<_> = schema
            .classes()
            .filter_map(|class| {
                let labels = schema.labels_of(class);
                labels.iter().next().map(|label| {
                    (
                        class.clone(),
                        schema_merge_core::SuperkeyFamily::single(KeySet::new([label.clone()])),
                    )
                })
            })
            .collect();
        let start = Instant::now();
        let assignment =
            KeyAssignment::minimal_satisfactory(&schema, contributions.iter().map(|(c, f)| (c, f)));
        let elapsed = start.elapsed();
        let satisfactory =
            assignment.is_satisfactory(&schema, contributions.iter().map(|(c, f)| (c, f)));
        points.push(SeriesPoint {
            x: classes.to_string(),
            values: vec![
                assignment.num_keyed_classes().to_string(),
                satisfactory.to_string(),
                micros(elapsed),
            ],
        });
    }
    Series {
        id: "E4",
        title: "minimal satisfactory key assignment (§5)",
        x_label: "classes",
        columns: vec!["keyed classes", "satisfactory", "time µs"],
        points,
    }
}

/// E5: lower merge + completion cost and union-class counts.
pub fn e5_lower(sizes: &[usize]) -> Series {
    let mut points = Vec::new();
    for &classes in sizes {
        let params = SchemaParams {
            vocabulary: classes,
            classes,
            labels: (classes / 2).max(2),
            arrows: classes,
            specializations: classes / 3,
            seed: 41,
        };
        let family = schema_family(&params, 2);
        let annotated: Vec<AnnotatedSchema> = family
            .iter()
            .map(|schema| AnnotatedSchema::all_required(schema.clone()))
            .collect();
        let start = Instant::now();
        let merged = lower_merge(annotated.iter());
        let merge_time = start.elapsed();
        let start = Instant::now();
        let result = lower_complete(&merged);
        let complete_time = start.elapsed();
        let (unions, meets) = match &result {
            Ok((_, _, report)) => (report.unions.len(), report.meet_classes.len()),
            Err(_) => (0, 0),
        };
        points.push(SeriesPoint {
            x: classes.to_string(),
            values: vec![
                micros(merge_time),
                micros(complete_time),
                unions.to_string(),
                meets.to_string(),
                result.is_ok().to_string(),
            ],
        });
    }
    Series {
        id: "E5",
        title: "lower merge (GLB) and completion (§6)",
        x_label: "classes per input",
        columns: vec![
            "merge µs",
            "complete µs",
            "union classes",
            "meet fallbacks",
            "proper",
        ],
        points,
    }
}

/// E6: ER round-trip — translate, merge, translate back; strata always
/// preserved.
pub fn e6_er_roundtrip(sizes: &[usize]) -> Series {
    let mut points = Vec::new();
    for &entities in sizes {
        let params = ErParams {
            entities,
            domains: entities / 2 + 1,
            attributes: entities * 2,
            relationships: entities / 2,
            isa: entities / 3,
            one_role_percent: 30,
            seed: 17,
        };
        let g1 = random_er_schema(&params);
        let g2 = random_er_schema(&ErParams {
            seed: 18,
            ..params.clone()
        });
        let start = Instant::now();
        let outcome = merge_er([&g1, &g2]).expect("ER merge");
        let elapsed = start.elapsed();
        let preserved = schema_merge_er::preserves_strata(&outcome);
        points.push(SeriesPoint {
            x: entities.to_string(),
            values: vec![
                outcome.core.proper.num_classes().to_string(),
                preserved.to_string(),
                micros(elapsed),
            ],
        });
    }
    Series {
        id: "E6",
        title: "ER merge round-trip preserves strata (§7)",
        x_label: "entities per input",
        columns: vec!["merged classes", "strata preserved", "time µs"],
        points,
    }
}

/// E10: §7 normal-form scaling — time to detect and fix `n`
/// attribute-versus-entity conflicts, and whether normalization always
/// clears them.
pub fn e10_normalize(conflict_counts: &[usize]) -> Series {
    use schema_merge_er::{detect_conflicts, normalize_pair, NormalPolicy};

    let mut points = Vec::new();
    for &n in conflict_counts {
        let (left, right) = schema_merge_workload::conflicting_er_pair(n);

        let start = Instant::now();
        let before = detect_conflicts(&left, &right).len();
        let detect_time = start.elapsed();

        let start = Instant::now();
        let outcome = normalize_pair(&left, &right, NormalPolicy::PreferEntity);
        let fix_time = start.elapsed();

        let merged_ok = merge_er([&outcome.left, &outcome.right]).is_ok();
        points.push(SeriesPoint {
            x: n.to_string(),
            values: vec![
                before.to_string(),
                outcome.applied.len().to_string(),
                outcome.is_clean().to_string(),
                merged_ok.to_string(),
                micros(detect_time),
                micros(fix_time),
            ],
        });
    }
    Series {
        id: "E10",
        title: "normal-form restructuring clears structural conflicts (§7)",
        x_label: "conflicts",
        columns: vec![
            "detected",
            "fixed",
            "clean",
            "merges",
            "detect µs",
            "fix µs",
        ],
        points,
    }
}

/// E11: §6 federation scaling — members with overlapping schemas and
/// key-shared data; reports view-building time and the two conformance
/// guarantees.
pub fn e11_federation(member_counts: &[usize]) -> Series {
    use schema_merge_core::{Class, Label};
    use schema_merge_instance::{Federation, Instance, PathQuery};

    let mut points = Vec::new();
    for &members in member_counts {
        // Member k sees attribute `a{k}` of Dog plus the shared chip.
        // All data lives over a shared chip pool so the key resolution
        // has real work: every member records the same `members` dogs.
        let mut federation = Federation::new();
        let mut keys = KeyAssignment::new();
        keys.add_key(Class::named("Dog"), KeySet::new([Label::new("chip")]));
        federation = federation.with_keys(keys);

        for k in 0..members {
            let schema = AnnotatedSchema::all_required(
                schema_merge_core::WeakSchema::builder()
                    .arrow("Dog", "chip", "chip-id")
                    .arrow("Dog", format!("a{k}"), format!("D{k}"))
                    .build()
                    .expect("member schema"),
            );
            // Each member registers every dog TWICE (intake + checkup)
            // over one chip object, so the key rule folds the duplicate
            // records and the congruence rule identifies their attribute
            // values (oids are renumbered across members, so resolution
            // work happens within each member's records).
            let mut b = Instance::builder();
            for _ in 0..members {
                let chip = b.object([Class::named("chip-id")]);
                for _visit in 0..2 {
                    let value = b.object([Class::named(format!("D{k}"))]);
                    let dog = b.object([Class::named("Dog")]);
                    b.attr(dog, "chip", chip);
                    b.attr(dog, format!("a{k}"), value);
                }
            }
            federation = federation.member(format!("member-{k}"), schema, b.build());
        }

        let start = Instant::now();
        let view = federation.view().expect("view builds");
        let build_time = start.elapsed();

        let union_ok = view.check().is_ok();
        let members_ok = federation
            .members()
            .iter()
            .all(|m| view.check_member(m).is_ok());
        let dogs = view.query(&PathQuery::extent("Dog")).len();
        points.push(SeriesPoint {
            x: members.to_string(),
            values: vec![
                dogs.to_string(),
                union_ok.to_string(),
                members_ok.to_string(),
                view.resolution.key_identifications.to_string(),
                micros(build_time),
            ],
        });
    }
    Series {
        id: "E11",
        title: "federated views: union + members conform to the lower merge (§6)",
        x_label: "members",
        columns: vec![
            "dogs visible",
            "union conforms",
            "members conform",
            "key idents",
            "build µs",
        ],
        points,
    }
}

/// The default experiment suite at modest sizes, fast enough for the
/// tests; the `reproduce` binary prints it.
pub fn default_suite() -> Vec<Series> {
    vec![
        e1_associativity(&[2, 4, 6]),
        e2_completion(&[16, 32], &[2, 4, 6, 8]),
        e3_weak_merge(&[16, 64, 128]),
        e4_keys(&[16, 64]),
        e5_lower(&[8, 16, 32]),
        e6_er_roundtrip(&[6, 12]),
        e10_normalize(&[1, 4, 16]),
        e11_federation(&[2, 4, 8]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_orders_always_agree() {
        let _peak = crate::peak_lock();
        let series = e1_associativity(&[2, 3]);
        for point in &series.points {
            assert_eq!(point.values[0], "true", "{point:?}");
        }
    }

    #[test]
    fn e2_matches_closed_form() {
        let _peak = crate::peak_lock();
        let series = e2_completion(&[], &[1, 3, 5]);
        for point in &series.points {
            assert_eq!(point.values[0], point.values[1], "{point:?}");
        }
    }

    #[test]
    fn e5_always_proper() {
        let _peak = crate::peak_lock();
        let series = e5_lower(&[6, 10]);
        for point in &series.points {
            assert_eq!(point.values[4], "true", "{point:?}");
        }
    }

    #[test]
    fn e6_always_preserves_strata() {
        let _peak = crate::peak_lock();
        let series = e6_er_roundtrip(&[4, 8]);
        for point in &series.points {
            assert_eq!(point.values[1], "true", "{point:?}");
        }
    }

    #[test]
    fn e10_always_clean_and_merges() {
        let _peak = crate::peak_lock();
        let series = e10_normalize(&[1, 3]);
        for point in &series.points {
            assert_eq!(point.values[0], point.x, "every planted conflict detected");
            assert_eq!(point.values[2], "true", "{point:?}");
            assert_eq!(point.values[3], "true", "{point:?}");
        }
    }

    #[test]
    fn e11_guarantees_hold_and_duplicates_fold() {
        let _peak = crate::peak_lock();
        let series = e11_federation(&[2, 3]);
        for point in &series.points {
            let members: usize = point.x.parse().expect("x is a count");
            let dogs: usize = point.values[0].parse().expect("dog count");
            assert_eq!(dogs, members * members, "2 records per dog fold to 1");
            assert_eq!(point.values[1], "true", "{point:?}");
            assert_eq!(point.values[2], "true", "{point:?}");
            let idents: usize = point.values[3].parse().expect("ident count");
            assert!(idents >= members, "key rule fired: {point:?}");
        }
    }

    #[test]
    fn suite_runs() {
        let _peak = crate::peak_lock();
        let suite = default_suite();
        assert_eq!(suite.len(), 8);
        for series in &suite {
            assert!(!series.points.is_empty());
            for point in &series.points {
                assert_eq!(point.values.len(), series.columns.len());
            }
        }
    }
}
