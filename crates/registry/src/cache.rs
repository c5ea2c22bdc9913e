//! The incremental join: one step function that keeps the least upper
//! bound of a keyed set of schemas current, for the registry (members →
//! merged view) and the supergraph (registries → composed view) alike.
//!
//! The merge is a least upper bound, so for any key `k`,
//! `⊔ᵢGᵢ = (⊔ᵢ≠ₖGᵢ) ⊔ Gₖ`: the join of everything *else* is a reusable
//! intermediate. Joins are not invertible — the old contribution of `k`
//! cannot be subtracted from a total — so each layer keeps, in its
//! committed state, the [`JoinState`] its last committed step left: the
//! compiled total of the keys it covers and, when that step changed a
//! key, the join of every other covered key. [`JoinState::step`] runs in
//! two spans:
//!
//! 1. `plan` picks the join to build onto, in this order:
//!    * the changed key is the held key and every other covered key is
//!      unchanged (a republish or delete of the same key) → the held
//!      rest;
//!    * the changed key is not covered and exactly the covered keys are
//!      unchanged (a new key) → the held total;
//!    * otherwise the unchanged parts are joined cold — the widest merge
//!      of the step;
//! 2. `execute` joins at most one changed part onto that base (passed
//!    first, through [`Merger::onto_base`], so only the changed part is
//!    walked) and completes.
//!
//! Every part enters a merger in the form it has ([`Body`]): a member
//! schema is interned, a registry's compiled join is remapped in id
//! space, never decompiled. A set of one join needs no step at all: its
//! completion is the committed view of the registry that holds it, so
//! the supergraph serves that view and records the join as its state
//! with [`JoinState::lone`].
//!
//! The step returns the next state rather than storing it, so a caller
//! installs it with the commit that produced it and drops it only when
//! that commit fails. Each caller steps in its writer lane, one step at
//! a time, from the state the previous step installed. A state matches
//! parts by key only: the caller passes as unchanged only parts whose
//! content is what the state was built from — true whenever the state is
//! committed together with those parts. A state that no longer matches
//! (after a detach, say) falls back to the cold join on its own, and a
//! state that covers no keys is never reused. Joins are stored compiled
//! ([`CompiledSchema`]), so the interner survives across steps and a join
//! never detours through the symbolic form. The callers keep everything
//! around the step: the registry its lane, WAL and degraded mode, the
//! supergraph its lane, provenance and `H-COMPOSE-*` hints.

use std::sync::Arc;

use schema_merge_core::merger::MergeReport;
use schema_merge_core::{CompiledSchema, MergeError, Merger, WeakSchema};
use schema_merge_telemetry as telemetry;

use crate::registry::MergeStrategy;

/// One keyed input of an incremental join: a registry member, or a
/// member registry of a supergraph.
#[derive(Clone)]
pub struct Part {
    /// The key; unique within a set.
    pub key: String,
    /// The schema this part contributes.
    pub body: Body,
}

/// The schema a [`Part`] contributes, in the form its owner holds it.
#[derive(Clone)]
pub enum Body {
    /// A registry member's published schema.
    Schema(Arc<WeakSchema>),
    /// A registry's compiled join of its members (a supergraph part).
    Join(Arc<CompiledSchema>),
}

/// Adds `parts` to `merger`, each in the form it has.
fn join_parts<'a>(merger: Merger<'a>, parts: impl IntoIterator<Item = &'a Part>) -> Merger<'a> {
    parts
        .into_iter()
        .fold(merger, |merger, part| match &part.body {
            Body::Schema(schema) => merger.schema(schema),
            Body::Join(join) => merger.onto_base(join),
        })
}

/// The reusable joins of one layer, held as a value in its committed
/// state: at most a total and one rest-join.
#[derive(Clone)]
pub struct JoinState {
    /// The keys `total` covers, sorted.
    keys: Vec<String>,
    /// The compiled join of the covered parts (no implicit classes —
    /// completion has not run).
    total: Arc<CompiledSchema>,
    /// The key the producing step changed, and the join of every other
    /// covered key.
    rest: Option<(String, Arc<CompiledSchema>)>,
}

impl Default for JoinState {
    /// The state of an empty set: covers no keys, so it is never reused.
    fn default() -> Self {
        JoinState {
            keys: Vec::new(),
            total: Arc::new(CompiledSchema::compile(&WeakSchema::empty())),
            rest: None,
        }
    }
}

/// The result of a step: the completed merge of the whole set, the
/// engine path that produced it, and the state to commit with it.
pub struct Step {
    /// The completed merge. Its compiled join has moved into `state`.
    pub report: MergeReport,
    /// [`MergeStrategy::Incremental`] when the step built on a held join,
    /// [`MergeStrategy::Full`] when it joined the unchanged parts cold.
    pub strategy: MergeStrategy,
    /// The state after the step.
    pub state: JoinState,
}

impl JoinState {
    /// The state of a set whose one part, under `key`, has the compiled
    /// join `total`: what a step of that set would leave, without the
    /// step.
    pub fn lone(key: &str, total: Arc<CompiledSchema>) -> Self {
        JoinState {
            keys: vec![key.to_string()],
            total,
            rest: None,
        }
    }

    /// The compiled join of every covered part.
    pub fn total(&self) -> &Arc<CompiledSchema> {
        &self.total
    }

    /// How many joins a later step can reuse: 0 for a state that covers
    /// no keys, else the total plus the rest-join if one is held.
    pub fn held(&self) -> usize {
        if self.keys.is_empty() {
            0
        } else {
            1 + usize::from(self.rest.is_some())
        }
    }

    /// Joins `changed` (when `Some`) onto the join of `unchanged`, reusing
    /// a held join when one covers exactly `unchanged`, and completes.
    /// `key` is the key the step changes: `changed`'s key, the key a
    /// removal drops, or `None` when the step only re-joins `unchanged`.
    /// `unchanged` must be sorted by key, must not contain `key`, and may
    /// only hold parts whose content is what this state was built from.
    ///
    /// # Errors
    ///
    /// [`MergeError::Incompatible`] when a cold join of `unchanged` fails,
    /// or when `changed` does not join onto it.
    pub fn step(
        &self,
        unchanged: &[Part],
        key: Option<&str>,
        changed: Option<&Part>,
    ) -> Result<Step, MergeError> {
        debug_assert!(changed.is_none() || key == changed.map(|part| part.key.as_str()));
        let (base, strategy) = {
            let mut span = telemetry::span("plan");
            span.attr_usize("unchanged", unchanged.len());
            let planned = match self.reusable(unchanged, key) {
                Some(held) => (Arc::clone(held), MergeStrategy::Incremental),
                None => {
                    let cold = join_parts(Merger::new(), unchanged).join()?;
                    (Arc::new(cold), MergeStrategy::Full)
                }
            };
            span.attr("held", u64::from(planned.1 == MergeStrategy::Incremental));
            planned
        };

        let mut span = telemetry::span("execute");
        let mut report = join_parts(Merger::new().onto_base(&base), changed).execute()?;
        span.attr_usize("classes", report.proper.num_classes());
        // With nothing joined onto it, the base is already the total.
        let total = report
            .compiled
            .take()
            .map_or_else(|| Arc::clone(&base), Arc::new);
        let mut keys: Vec<String> = unchanged.iter().map(|part| part.key.clone()).collect();
        if let Some(part) = changed {
            let at = keys.partition_point(|k| *k < part.key);
            keys.insert(at, part.key.clone());
        }
        let rest = changed.map(|part| (part.key.clone(), base));
        Ok(Step {
            report,
            strategy,
            state: JoinState { keys, total, rest },
        })
    }

    /// The held join that is exactly the join of `unchanged`, if any.
    fn reusable(&self, unchanged: &[Part], key: Option<&str>) -> Option<&Arc<CompiledSchema>> {
        if self.keys.is_empty() {
            return None;
        }
        if let (Some(key), Some((held, rest))) = (key, &self.rest) {
            if key == held && self.covers(unchanged, Some(key)) {
                return Some(rest);
            }
        }
        // `unchanged` never holds `key`, so covering exactly `unchanged`
        // means `key` is new.
        self.covers(unchanged, None).then_some(&self.total)
    }

    /// Whether `parts` are exactly the covered keys, less `skip`.
    fn covers(&self, parts: &[Part], skip: Option<&str>) -> bool {
        let mut keys = self.keys.iter().filter(|k| Some(k.as_str()) != skip);
        parts.iter().all(|part| keys.next() == Some(&part.key)) && keys.next().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(key: &str, src: &str, tgt: &str) -> Part {
        let schema = WeakSchema::builder().arrow(src, "f", tgt).build().unwrap();
        Part {
            key: key.into(),
            body: Body::Schema(Arc::new(schema)),
        }
    }

    fn oneshot(parts: &[&Part]) -> MergeReport {
        join_parts(Merger::new(), parts.iter().copied())
            .execute()
            .unwrap()
    }

    /// A cold step holds its rest, so the next change of the same key
    /// builds onto it; the total it holds takes a new key. Every step
    /// equals the one-shot merge.
    #[test]
    fn steps_seed_the_rest_and_the_total() {
        let rest = [part("a", "A", "T"), part("b", "B", "U")];
        let first = part("c", "C", "V");
        let step = JoinState::default()
            .step(&rest, Some("c"), Some(&first))
            .unwrap();
        assert_eq!(step.strategy, MergeStrategy::Full);
        assert_eq!(step.state.held(), 2);

        let second = part("c", "C", "W");
        let step = step.state.step(&rest, Some("c"), Some(&second)).unwrap();
        assert_eq!(step.strategy, MergeStrategy::Incremental);
        assert_eq!(
            step.report.proper,
            oneshot(&[&rest[0], &rest[1], &second]).proper
        );

        // A new key builds onto the held total.
        let all = [rest[0].clone(), rest[1].clone(), second.clone()];
        let added = part("d", "D", "X");
        let grown = step.state.step(&all, Some("d"), Some(&added)).unwrap();
        assert_eq!(grown.strategy, MergeStrategy::Incremental);
        assert_eq!(
            grown.report.proper,
            oneshot(&[&rest[0], &rest[1], &second, &added]).proper
        );

        // Changing a covered key that is not the held one joins cold.
        let moved = part("a", "A", "Y");
        let others = [rest[1].clone(), second.clone(), added.clone()];
        let cold = grown.state.step(&others, Some("a"), Some(&moved)).unwrap();
        assert_eq!(cold.strategy, MergeStrategy::Full);
        assert_eq!(
            cold.report.proper,
            oneshot(&[&moved, &rest[1], &second, &added]).proper
        );
    }

    /// A part enters the merger in the form it has: registry joins step
    /// through the same strategies as the members they join, to the same
    /// merge, and a set mixing the two forms joins cold to the one-shot
    /// merge.
    #[test]
    fn joins_step_like_the_members_they_join() {
        fn compiled(part: &Part) -> Part {
            let Body::Schema(schema) = &part.body else {
                unreachable!("member parts")
            };
            Part {
                key: part.key.clone(),
                body: Body::Join(Arc::new(CompiledSchema::compile(schema))),
            }
        }
        let (a, b) = (part("a", "A", "T"), part("b", "B", "U"));
        let (c1, c2) = (part("c", "C", "V"), part("c", "C", "T"));
        let forms: [fn(&Part) -> Part; 2] = [Part::clone, compiled];
        for form in forms {
            let rest = [form(&a), form(&b)];
            let first = JoinState::default()
                .step(&rest, Some("c"), Some(&form(&c1)))
                .unwrap();
            let second = first
                .state
                .step(&rest, Some("c"), Some(&form(&c2)))
                .unwrap();
            assert_eq!(first.strategy, MergeStrategy::Full);
            assert_eq!(second.strategy, MergeStrategy::Incremental);
            assert_eq!(second.report.proper, oneshot(&[&a, &b, &c2]).proper);
            let lone = JoinState::default()
                .step(&[], Some("c"), Some(&form(&c2)))
                .unwrap();
            assert_eq!(lone.strategy, MergeStrategy::Full);
            assert_eq!(lone.report.proper, oneshot(&[&c2]).proper);
        }
        let mixed = JoinState::default()
            .step(&[compiled(&a), b.clone()], Some("c"), Some(&compiled(&c2)))
            .unwrap();
        assert_eq!(mixed.report.proper, oneshot(&[&a, &b, &c2]).proper);
    }

    /// A lone state covers its one key, so a new key builds onto its
    /// join.
    #[test]
    fn a_lone_state_takes_a_new_key_onto_its_join() {
        let a = part("a", "A", "T");
        let Body::Schema(schema) = &a.body else {
            unreachable!("member parts")
        };
        let lone = JoinState::lone("a", Arc::new(CompiledSchema::compile(schema)));
        assert_eq!(lone.held(), 1);
        let b = part("b", "B", "U");
        let step = lone
            .step(std::slice::from_ref(&a), Some("b"), Some(&b))
            .unwrap();
        assert_eq!(step.strategy, MergeStrategy::Incremental);
        assert_eq!(step.report.proper, oneshot(&[&a, &b]).proper);
    }

    /// A state is reused only for exactly the key set it covers: a missing
    /// key, or a state that covers nothing, joins cold.
    #[test]
    fn a_state_that_does_not_match_joins_cold() {
        let parts = [part("a", "A", "T"), part("b", "B", "U")];
        let built = JoinState::default().step(&parts, None, None).unwrap();
        assert_eq!(built.strategy, MergeStrategy::Full);
        assert_eq!(built.state.held(), 1);
        // `b` left without a step: the held total no longer applies.
        let step = built.state.step(&parts[..1], None, None).unwrap();
        assert_eq!(step.strategy, MergeStrategy::Full);
        assert_eq!(step.report.proper, oneshot(&[&parts[0]]).proper);

        let empty = JoinState::default();
        assert_eq!(empty.held(), 0);
        let first = empty.step(&[], Some("a"), Some(&parts[0])).unwrap();
        assert_eq!(first.strategy, MergeStrategy::Full);
    }
}
