//! The [`Supergraph`] engine: namespaced member registries composed
//! into one federated merged view.

use std::collections::BTreeMap;
use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use schema_merge_core::compose::ComposeProvenance;
use schema_merge_core::{
    Class, CompiledSchema, CompletionReport, Diagnostic, Merger, ProperSchema, Severity,
};
use schema_merge_registry::cache::{Body, JoinState, Part};
use schema_merge_registry::version::SchemaVersion;
use schema_merge_registry::{MergeStrategy, MergedView, Registry, RegistryJoin};
use schema_merge_telemetry::{self as telemetry, Histogram, HistogramSnapshot};

use crate::error::SupergraphError;

/// A federation of named [`Registry`] instances composed into one
/// supergraph view.
///
/// Structurally this is the registry design run one level up. Each
/// attached registry owns its members and its merged view; the
/// supergraph owns the *composition* — the merge of every registry's
/// pre-completion join, completed once. Associativity of the weak join
/// (`⊔ᵢⱼGᵢⱼ = ⊔ᵢ(⊔ⱼGᵢⱼ)`, §4.1) makes the composed view equal to the
/// one-shot merge of every member schema of every registry; the
/// supergraph exploits the same law the registry does to recompose
/// incrementally:
///
/// * each registry hands over the compiled join its last commit left and
///   the committed view completed from it ([`Registry::compiled_join`],
///   `Arc` clones); a registry whose generation has not moved since the
///   last compose is unchanged;
/// * a supergraph of one registry serves that registry's committed view
///   as its composed view: completion is a function of the join, so no
///   join, completion or second view is needed;
/// * with two or more registries, a compose is one [`JoinState::step`],
///   the step the registry commits with, on the state the last compose
///   installed, whose parts are the registries' compiled joins as they
///   are ([`Body::Join`]), never decompiled: when exactly one registry
///   changed, only its join is remapped, onto the held join of the rest
///   when the state holds one (the same registry changed last, or it is
///   newly attached); otherwise the whole set is joined cold, in id
///   space, and completed.
///
/// Every composed view carries rover-style [`Severity::Hint`]
/// diagnostics (`H-COMPOSE-*`) surfacing composition observations:
/// subtyping no single registry declared, implicit classes spanning
/// registries, member-name collisions resolved by namespacing. They are
/// read off the registries' joins; cross-registry provenance (labels
/// `registry/member@vN`) is computed on demand by
/// [`ComposedView::origins`].
///
/// `compose`, `attach` and `detach` run one at a time in a writer lane
/// and take the write lock only to install their result; a compose frees
/// what it superseded after leaving the lane. Lock order: this lane,
/// then a member registry's read lock.
pub struct Supergraph {
    shared: RwLock<Shared>,
    /// The writer lane, held for a whole compose, attach or detach.
    lane: Mutex<()>,
    counters: Counters,
    compose_latency: Histogram,
}

struct Shared {
    /// Bumped by attach, detach, and every non-noop compose.
    generation: u64,
    members: BTreeMap<String, Member>,
    composed: Arc<ComposedView>,
    /// The joins the last compose left, over the registries whose
    /// `state` it installed.
    joins: Arc<JoinState>,
}

struct Member {
    registry: Arc<Registry>,
    /// The registry's join as of the last compose that saw it.
    state: Option<MemberState>,
}

/// A member registry's join captured for composition: the registry
/// name (its key in the supergraph's incremental join), the compiled
/// join, the registry generation it reflects (its identity) and the
/// member versions it reflects (for hints and provenance), all
/// describing the same registry snapshot.
#[derive(Clone)]
struct MemberState {
    name: String,
    join: Arc<CompiledSchema>,
    generation: u64,
    members: Arc<Vec<(String, SchemaVersion)>>,
}

impl MemberState {
    /// The join as a part of the supergraph's incremental join.
    fn part(&self) -> Part {
        Part {
            key: self.name.clone(),
            body: Body::Join(Arc::clone(&self.join)),
        }
    }
}

#[derive(Default)]
struct Counters {
    full: AtomicU64,
    incremental: AtomicU64,
    noop: AtomicU64,
}

/// A generation-stamped handle on the composed supergraph view.
/// Everything is `Arc`-shared; the supergraph moving on to later
/// generations never invalidates a view a client holds.
#[derive(Clone)]
pub struct ComposedView {
    /// The supergraph generation whose compose produced this view.
    pub generation: u64,
    /// The member registries composed in, sorted by name.
    pub members: Vec<ComposedMember>,
    /// Which engine path produced this view.
    pub strategy: MergeStrategy,
    /// The composed proper schema, its implicit-class table and its hash
    /// cell. A supergraph of one registry holds that registry's committed
    /// view here, hash cell included.
    merged: MergedView,
    /// Merger diagnostics followed by the `H-COMPOSE-*` hints.
    diagnostics: Vec<Diagnostic>,
    /// Each composed registry's member versions, aligned with `members`.
    versions: Vec<Arc<Vec<(String, SchemaVersion)>>>,
}

impl ComposedView {
    /// The composed merged schema.
    pub fn proper(&self) -> &ProperSchema {
        &self.merged.proper
    }

    /// The implicit classes completion introduced, with their origins.
    pub fn implicit(&self) -> &CompletionReport {
        &self.merged.report
    }

    /// Every diagnostic of the compose: the merger's, followed by the
    /// `H-COMPOSE-*` hints.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Canonical content hash of the composed proper schema, computed
    /// by the first caller and stored with the view. The view of a lone
    /// registry shares that registry's hash, so it is never hashed again.
    pub fn hash(&self) -> u64 {
        self.merged.hash()
    }

    /// Cross-registry provenance: which `registry/member@vN` origins
    /// contributed each composed class, arrow, and implicit class.
    /// Computed from the composed member versions on every call.
    pub fn origins(&self) -> ComposeProvenance {
        let inputs = self
            .members
            .iter()
            .zip(&self.versions)
            .flat_map(|(row, versions)| {
                versions.iter().map(move |(member, version)| {
                    let label = format!("{}/{member}@v{}", row.registry, version.sequence);
                    (label, version.schema.as_ref())
                })
            });
        ComposeProvenance::compute(inputs, self.proper())
    }

    /// The `H-COMPOSE-*` composition hints, in deterministic order.
    pub fn hints(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Hint)
    }
}

/// One member registry's row in a [`ComposedView`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComposedMember {
    /// The namespace the registry is attached under.
    pub registry: String,
    /// The registry generation whose join was composed.
    pub generation: u64,
    /// How many members the registry contributed.
    pub members: usize,
}

/// The result of a successful [`Supergraph::compose`].
#[derive(Clone)]
pub struct ComposeOutcome {
    /// Supergraph generation after the compose (unchanged for a noop).
    pub generation: u64,
    /// Which engine path ran: `noop` when nothing moved since the last
    /// compose, `incremental` when a held join was completed onto or a
    /// lone registry's committed view was served, `full` otherwise.
    pub strategy: MergeStrategy,
    /// The (possibly pre-existing, for a noop) composed view.
    pub view: Arc<ComposedView>,
}

/// The supergraph's status snapshot: the composed view's shape, the
/// compose counters, and the compose latency histogram — the
/// one status surface [`Supergraph::stats`] returns and the daemon's
/// `METRICS` verb renders.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct SupergraphStats {
    /// Current supergraph generation.
    pub generation: u64,
    /// Attached registries.
    pub registries: usize,
    /// Classes in the composed view.
    pub composed_classes: usize,
    /// Arrows in the composed view.
    pub composed_arrows: usize,
    /// Implicit classes completion introduced across registries.
    pub implicit_classes: usize,
    /// `H-COMPOSE-*` hints on the composed view.
    pub hints: usize,
    /// Content hash of the composed proper schema.
    pub composed_hash: u64,
    /// Composes that re-joined every registry.
    pub full_composes: u64,
    /// Composes that completed onto a held join or served a lone
    /// registry's committed view.
    pub incremental_composes: u64,
    /// Composes that found nothing changed.
    pub noop_composes: u64,
    /// Latency of non-noop [`compose`](Supergraph::compose) calls.
    pub compose_latency: HistogramSnapshot,
}

impl Default for Supergraph {
    fn default() -> Self {
        Self::new()
    }
}

impl Supergraph {
    /// An empty supergraph: no registries attached, composed view empty
    /// at generation zero.
    pub fn new() -> Self {
        Supergraph {
            shared: RwLock::new(Shared {
                generation: 0,
                members: BTreeMap::new(),
                composed: empty_view(),
                joins: Arc::new(JoinState::default()),
            }),
            lane: Mutex::new(()),
            counters: Counters::default(),
            compose_latency: Histogram::default(),
        }
    }

    /// Attaches `registry` under namespace `name`.
    ///
    /// # Errors
    ///
    /// [`SupergraphError::InvalidName`] for names unusable as namespace
    /// prefixes; [`SupergraphError::DuplicateRegistry`] when the name is
    /// taken.
    pub fn attach(
        &self,
        name: impl Into<String>,
        registry: Arc<Registry>,
    ) -> Result<(), SupergraphError> {
        let name = name.into();
        if name.is_empty() || name.contains('/') || name.chars().any(char::is_whitespace) {
            return Err(SupergraphError::InvalidName(name));
        }
        let _lane = self.lane.lock().expect("supergraph lane");
        let mut shared = self.shared.write().expect("supergraph lock");
        if shared.members.contains_key(&name) {
            return Err(SupergraphError::DuplicateRegistry(name));
        }
        shared.generation += 1;
        shared.members.insert(
            name,
            Member {
                registry,
                state: None,
            },
        );
        Ok(())
    }

    /// Creates a fresh empty registry, attaches it under `name`, and
    /// returns it — the `ATTACH` protocol verb.
    pub fn attach_new(&self, name: impl Into<String>) -> Result<Arc<Registry>, SupergraphError> {
        let registry = Arc::new(Registry::new());
        self.attach(name, Arc::clone(&registry))?;
        Ok(registry)
    }

    /// Detaches and returns the registry at `name`. The current composed
    /// view is untouched (it is a snapshot); the next
    /// [`compose`](Supergraph::compose) drops the registry's
    /// contribution.
    ///
    /// # Errors
    ///
    /// [`SupergraphError::UnknownRegistry`] when nothing is attached
    /// under `name`.
    pub fn detach(&self, name: &str) -> Result<Arc<Registry>, SupergraphError> {
        let _lane = self.lane.lock().expect("supergraph lane");
        let mut shared = self.shared.write().expect("supergraph lock");
        match shared.members.remove(name) {
            Some(member) => {
                shared.generation += 1;
                Ok(member.registry)
            }
            None => Err(SupergraphError::UnknownRegistry(name.to_string())),
        }
    }

    /// The registry attached under `name`, if any.
    pub fn registry(&self, name: &str) -> Option<Arc<Registry>> {
        let shared = self.shared.read().expect("supergraph lock");
        shared.members.get(name).map(|m| Arc::clone(&m.registry))
    }

    /// The attached registry names, sorted.
    pub fn names(&self) -> Vec<String> {
        let shared = self.shared.read().expect("supergraph lock");
        shared.members.keys().cloned().collect()
    }

    /// Number of attached registries.
    pub fn len(&self) -> usize {
        self.shared.read().expect("supergraph lock").members.len()
    }

    /// Whether no registries are attached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current composed view (two `Arc` clones; never recomputes).
    /// Stale after member registries publish — [`compose`] refreshes it.
    ///
    /// [`compose`]: Supergraph::compose
    pub fn composed(&self) -> Arc<ComposedView> {
        Arc::clone(&self.shared.read().expect("supergraph lock").composed)
    }

    /// Recomposes the supergraph view from the attached registries'
    /// current joins and installs it (generation-stamped), returning the
    /// outcome. Noop when nothing changed. A lone registry's committed
    /// view is installed as it is (incremental: nothing is joined or
    /// completed). Otherwise one [`JoinState::step`] — incremental when
    /// the join it builds onto is held, full when it was joined cold.
    /// Every path produces the same view as the one-shot merge of every
    /// member schema of every registry — the associativity of the join is
    /// differentially property-tested, not assumed.
    ///
    /// # Errors
    ///
    /// [`SupergraphError::Compose`] when the cross-registry composition
    /// is incompatible (e.g. a specialization cycle spanning
    /// registries). The installed view is untouched on error.
    pub fn compose(&self) -> Result<ComposeOutcome, SupergraphError> {
        let started = Instant::now();
        let mut compose_span = telemetry::span("compose");
        let lane = self.lane.lock().expect("supergraph lane");
        let (generation, snapshot, joins, composed) = {
            let shared = self.shared.read().expect("supergraph lock");
            let snapshot: Vec<(String, Arc<Registry>, Option<MemberState>)> = shared
                .members
                .iter()
                .map(|(n, m)| (n.clone(), Arc::clone(&m.registry), m.state.clone()))
                .collect();
            (
                shared.generation,
                snapshot,
                Arc::clone(&shared.joins),
                Arc::clone(&shared.composed),
            )
        };

        // Refresh every registry's join handle (`Arc` clones), and keep a
        // lone registry's committed view of the same generation.
        let mut states: Vec<MemberState> = Vec::with_capacity(snapshot.len());
        let mut changed: Vec<usize> = Vec::new();
        let mut lone_view: Option<MergedView> = None;
        for (index, (name, registry, prev)) in snapshot.iter().enumerate() {
            let RegistryJoin {
                generation,
                members,
                join,
                view,
            } = registry.compiled_join();
            let state = match prev {
                Some(prev) if prev.generation == generation => prev.clone(),
                _ => {
                    changed.push(index);
                    MemberState {
                        name: name.clone(),
                        join,
                        generation,
                        members: Arc::new(members),
                    }
                }
            };
            states.push(state);
            lone_view = (snapshot.len() == 1).then_some(view);
        }

        // Every state came from the last compose and none moved: the same
        // set, unless a registry was detached since.
        if changed.is_empty() && states.len() == composed.members.len() {
            self.counters.noop.fetch_add(1, Ordering::Relaxed);
            compose_span.attr("noop", 1);
            return Ok(ComposeOutcome {
                generation,
                strategy: MergeStrategy::Noop,
                view: composed,
            });
        }

        let generation = generation + 1;
        let (strategy, merged, mut diagnostics, next_joins) = match lone_view {
            // One registry: the composed view is its committed view, the
            // completion of the join it is the only part of, so nothing is
            // joined or completed. The diagnostics are the ones the merge
            // of that join would report.
            Some(view) => {
                let state = &states[0];
                let diagnostics = Merger::new()
                    .onto_base(&state.join)
                    .diagnostics_for(&view.proper, &view.report);
                let lone = JoinState::lone(&state.name, Arc::clone(&state.join));
                (MergeStrategy::Incremental, view, diagnostics, lone)
            }
            // One step: exactly one registry moved → its join onto the
            // rest's; no registry moved → the remaining set, recompleted.
            // When several moved, no held join describes the unchanged
            // ones: join them all cold.
            None => {
                let step = match changed.as_slice() {
                    [index] => {
                        let rest: Vec<Part> = states
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| i != index)
                            .map(|(_, s)| s.part())
                            .collect();
                        let moved = states[*index].part();
                        joins.step(&rest, Some(&moved.key), Some(&moved))
                    }
                    _ => {
                        let all: Vec<Part> = states.iter().map(MemberState::part).collect();
                        let held = if changed.is_empty() {
                            joins.as_ref()
                        } else {
                            &JoinState::default()
                        };
                        held.step(&all, None, None)
                    }
                }
                .map_err(SupergraphError::Compose)?;
                let report = step.report;
                let merged = MergedView::new(
                    generation,
                    Arc::new(report.proper),
                    Arc::new(report.implicit),
                );
                (step.strategy, merged, report.diagnostics, step.state)
            }
        };

        // Hints are computed from the member states and the composed
        // result only — never from the path taken — so incremental and
        // full composes carry identical hints.
        let mut hints = compose_hints(&states, &merged.proper);
        // H-COMPOSE-DEGRADED: a member registry is serving reads but
        // rejecting writes after a storage failure — the composed view is
        // correct but may lag that member's publishers. Flagged here (not
        // in `compose_hints`) because degradation is live registry state,
        // not a property of the inputs.
        for (name, registry, _) in &snapshot {
            if registry.is_degraded() {
                hints.push(Diagnostic::hint(
                    "H-COMPOSE-DEGRADED",
                    format!(
                        "member registry `{name}` is degraded (read-only \
                         after a storage failure); its contribution may \
                         be stale until it heals"
                    ),
                ));
            }
        }
        compose_span.attr_usize("hints", hints.len());
        diagnostics.extend(hints);

        let view = Arc::new(ComposedView {
            generation,
            members: states
                .iter()
                .map(|s| ComposedMember {
                    registry: s.name.clone(),
                    generation: s.generation,
                    members: s.members.len(),
                })
                .collect(),
            strategy,
            merged,
            diagnostics,
            versions: states.iter().map(|s| Arc::clone(&s.members)).collect(),
        });
        let superseded = {
            let mut shared = self.shared.write().expect("supergraph lock");
            shared.generation = generation;
            let mut replaced = Vec::with_capacity(states.len());
            for state in states {
                if let Some(member) = shared.members.get_mut(&state.name) {
                    replaced.push(member.state.replace(state));
                }
            }
            (
                replaced,
                mem::replace(&mut shared.joins, Arc::new(next_joins)),
                mem::replace(&mut shared.composed, Arc::clone(&view)),
            )
        };

        let counter = match strategy {
            MergeStrategy::Incremental => &self.counters.incremental,
            _ => &self.counters.full,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        compose_span.attr("generation", generation);
        compose_span.attr_usize("registries", view.members.len());
        self.compose_latency.record(started.elapsed());
        // The view, joins and member states this compose superseded are
        // freed after the lane, as a registry commit frees what it
        // superseded: freeing them is thousands of deallocations, which
        // the next compose, attach or detach need not wait for.
        drop(lane);
        drop((superseded, joins, composed, snapshot));
        Ok(ComposeOutcome {
            generation,
            strategy,
            view,
        })
    }

    /// The supergraph's status snapshot. Generation, registry count and
    /// composed view are read under one lock acquisition; the counters
    /// and the latency histogram are monotone and sampled alongside.
    pub fn stats(&self) -> SupergraphStats {
        let (generation, registries, composed) = {
            let shared = self.shared.read().expect("supergraph lock");
            (
                shared.generation,
                shared.members.len(),
                Arc::clone(&shared.composed),
            )
        };
        let weak = composed.proper().as_weak();
        SupergraphStats {
            generation,
            registries,
            composed_classes: weak.num_classes(),
            composed_arrows: weak.num_arrows(),
            implicit_classes: composed.implicit().num_implicit(),
            hints: composed.hints().count(),
            composed_hash: composed.hash(),
            full_composes: self.counters.full.load(Ordering::Relaxed),
            incremental_composes: self.counters.incremental.load(Ordering::Relaxed),
            noop_composes: self.counters.noop.load(Ordering::Relaxed),
            compose_latency: self.compose_latency.snapshot(),
        }
    }
}

fn empty_view() -> Arc<ComposedView> {
    let report = Merger::new()
        .execute()
        .expect("the empty merge cannot fail");
    Arc::new(ComposedView {
        generation: 0,
        members: Vec::new(),
        strategy: MergeStrategy::Full,
        merged: MergedView::new(0, Arc::new(report.proper), Arc::new(report.implicit)),
        diagnostics: report.diagnostics,
        versions: Vec::new(),
    })
}

/// Derives the `H-COMPOSE-*` hints from the member states and the
/// composed result. Pure and path-independent: the same member states
/// and proper schema produce the same hints in the same order whether
/// the compose ran full or incremental.
fn compose_hints(states: &[MemberState], proper: &ProperSchema) -> Vec<Diagnostic> {
    let mut hints = Vec::new();
    // Every hint below names two or more registries, so one registry
    // (the usual daemon) needs no scan of the view's classes and pairs.
    if states.len() < 2 {
        return hints;
    }

    // H-COMPOSE-COLLISION: the same member name published by more than
    // one registry — namespacing (`registry/member`) resolves what would
    // collide in a flat registry.
    let mut owners: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for state in states {
        let registry = &state.name;
        for (member, _) in state.members.iter() {
            owners
                .entry(member.as_str())
                .or_default()
                .push(registry.as_str());
        }
    }
    for (member, registries) in owners {
        if registries.len() >= 2 {
            let qualified: Vec<String> = registries
                .iter()
                .map(|registry| format!("`{registry}/{member}`"))
                .collect();
            hints.push(Diagnostic::hint(
                "H-COMPOSE-COLLISION",
                format!(
                    "member name `{member}` is published by {} registries; \
                     origins are namespaced as {}",
                    registries.len(),
                    qualified.join(", "),
                ),
            ));
        }
    }

    // H-COMPOSE-SPAN: an implicit meet class whose constituents come
    // from more than one registry — the federation, not any single
    // registry, forced it into existence.
    for class in proper.as_weak().classes().filter(|c| c.is_implicit()) {
        let registries = declaring_registries(states, class);
        if registries.len() >= 2 {
            hints.push(Diagnostic::hint(
                "H-COMPOSE-SPAN",
                format!(
                    "implicit class `{class}` spans registries {}",
                    quote_join(&registries),
                ),
            ));
        }
    }

    // H-COMPOSE-SPECIALIZATION: a subtyping edge whose endpoints come
    // from disjoint registry sets — no single registry knew both
    // classes, so the composition introduced the relationship.
    // Conservative: an edge whose endpoints share any contributing
    // registry is never flagged.
    for (sub, sup) in proper.as_weak().specialization_pairs() {
        if sub.is_implicit() || sup.is_implicit() {
            continue;
        }
        let sub_registries = declaring_registries(states, sub);
        let sup_registries = declaring_registries(states, sup);
        if sub_registries.is_empty() || sup_registries.is_empty() {
            continue;
        }
        if sub_registries
            .iter()
            .all(|registry| !sup_registries.contains(registry))
        {
            hints.push(Diagnostic::hint(
                "H-COMPOSE-SPECIALIZATION",
                format!(
                    "cross-registry specialization: `{sub}` ({}) is placed under `{sup}` ({})",
                    quote_join(&sub_registries),
                    quote_join(&sup_registries),
                ),
            ));
        }
    }

    hints
}

/// The registries declaring `class`, in name order: those whose join
/// holds it (the join adds no classes, §4.1). An implicit class no
/// registry declares takes the registries declaring its named origins.
fn declaring_registries<'s>(states: &'s [MemberState], class: &Class) -> Vec<&'s str> {
    let declaring = |classes: &[Class]| -> Vec<&'s str> {
        states
            .iter()
            .filter(|s| classes.iter().any(|c| s.join.class_id(c).is_some()))
            .map(|s| s.name.as_str())
            .collect()
    };
    let registries = declaring(std::slice::from_ref(class));
    match class.origin() {
        Some(origin) if registries.is_empty() => {
            declaring(&origin.iter().cloned().map(Class::named).collect::<Vec<_>>())
        }
        _ => registries,
    }
}

fn quote_join(names: &[&str]) -> String {
    let quoted: Vec<String> = names.iter().map(|name| format!("`{name}`")).collect();
    quoted.join(", ")
}

impl std::fmt::Debug for Supergraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Supergraph")
            .field("generation", &stats.generation)
            .field("registries", &stats.registries)
            .field("composed_classes", &stats.composed_classes)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema_merge_core::WeakSchema;

    fn schema(src: &str, label: &str, tgt: &str) -> WeakSchema {
        WeakSchema::builder()
            .arrow(src, label, tgt)
            .build()
            .unwrap()
    }

    fn two_registry_supergraph() -> Supergraph {
        let supergraph = Supergraph::new();
        let a = supergraph.attach_new("a").unwrap();
        let b = supergraph.attach_new("b").unwrap();
        a.put("inventory", schema("Part", "price", "money"))
            .unwrap();
        b.put("orders", schema("Order", "item", "Part")).unwrap();
        supergraph
    }

    /// The composed view must equal the one-shot merge of every member
    /// schema of every registry.
    fn assert_view_matches_oneshot(supergraph: &Supergraph) {
        let view = supergraph.composed();
        let mut schemas: Vec<Arc<WeakSchema>> = Vec::new();
        for name in supergraph.names() {
            let registry = supergraph.registry(&name).unwrap();
            for (_, version) in registry.compiled_join().members {
                schemas.push(version.schema);
            }
        }
        let expected = Merger::new()
            .schemas(schemas.iter().map(|s| s.as_ref()))
            .execute()
            .expect("one-shot merge succeeds");
        assert_eq!(view.proper(), &expected.proper);
        assert_eq!(view.implicit(), &expected.implicit);
    }

    #[test]
    fn compose_of_empty_supergraph_is_a_noop_on_the_empty_view() {
        let supergraph = Supergraph::new();
        let outcome = supergraph.compose().unwrap();
        assert_eq!(outcome.strategy, MergeStrategy::Noop);
        assert_eq!(outcome.generation, 0);
        assert_eq!(outcome.view.proper().num_classes(), 0);
    }

    #[test]
    fn attach_validates_names_and_rejects_duplicates() {
        let supergraph = Supergraph::new();
        supergraph.attach_new("a").unwrap();
        assert!(matches!(
            supergraph.attach_new("a"),
            Err(SupergraphError::DuplicateRegistry(_))
        ));
        for bad in ["", "a/b", "a b", "a\tb"] {
            assert!(matches!(
                supergraph.attach_new(bad),
                Err(SupergraphError::InvalidName(_))
            ));
        }
    }

    #[test]
    fn detach_returns_the_registry_and_unknown_names_error() {
        let supergraph = Supergraph::new();
        let attached = supergraph.attach_new("a").unwrap();
        let detached = supergraph.detach("a").unwrap();
        assert!(Arc::ptr_eq(&attached, &detached));
        assert!(matches!(
            supergraph.detach("a"),
            Err(SupergraphError::UnknownRegistry(_))
        ));
    }

    #[test]
    fn compose_merges_across_registries_and_matches_oneshot() {
        let supergraph = two_registry_supergraph();
        let outcome = supergraph.compose().unwrap();
        assert_eq!(outcome.strategy, MergeStrategy::Full);
        assert!(outcome.view.proper().contains_class(&Class::named("Part")));
        assert!(outcome.view.proper().contains_class(&Class::named("Order")));
        assert_view_matches_oneshot(&supergraph);
    }

    #[test]
    fn recompose_after_one_publish_is_incremental_and_matches_oneshot() {
        let supergraph = two_registry_supergraph();
        supergraph.compose().unwrap();
        let b = supergraph.registry("b").unwrap();
        // First single-registry recompose computes (and seeds) the
        // rest-join; steady-state churn on the same registry is then
        // incremental — the registry cache discipline, one level up.
        b.put("shipping", schema("Order", "dest", "Address"))
            .unwrap();
        let warm = supergraph.compose().unwrap();
        assert_eq!(warm.strategy, MergeStrategy::Full);
        b.put("billing", schema("Order", "bill", "Invoice"))
            .unwrap();
        let outcome = supergraph.compose().unwrap();
        assert_eq!(outcome.strategy, MergeStrategy::Incremental);
        assert!(outcome
            .view
            .proper()
            .contains_class(&Class::named("Address")));
        assert!(outcome
            .view
            .proper()
            .contains_class(&Class::named("Invoice")));
        assert_view_matches_oneshot(&supergraph);
        // Nothing moved since: noop, same view.
        let again = supergraph.compose().unwrap();
        assert_eq!(again.strategy, MergeStrategy::Noop);
        assert_eq!(again.view.generation, outcome.view.generation);
    }

    #[test]
    fn single_registry_compose_reuses_the_registry_join() {
        use schema_merge_registry::storage::MemoryStore;

        let supergraph = Supergraph::new();
        let registry = Arc::new(
            Registry::builder()
                .store(MemoryStore::new())
                .open()
                .unwrap(),
        );
        supergraph.attach("solo", Arc::clone(&registry)).unwrap();
        registry.put("one", schema("C", "f", "B1")).unwrap();
        registry.put("two", schema("C", "f", "B2")).unwrap();
        let outcome = supergraph.compose().unwrap();
        assert_eq!(outcome.strategy, MergeStrategy::Incremental);
        assert_view_matches_oneshot(&supergraph);
        // The composed view is the registry's committed view: the same
        // proper schema and implicit table, and the hash the durable
        // commit stored, so neither the view nor STATS hashes it again.
        let committed = registry.merged();
        let view = &outcome.view;
        assert!(Arc::ptr_eq(&view.merged.proper, &committed.proper));
        assert!(Arc::ptr_eq(&view.merged.report, &committed.report));
        assert_eq!(view.implicit().num_implicit(), 1);
        assert_eq!(view.hash(), committed.hash());
        assert_eq!(supergraph.stats().composed_hash, committed.hash());
        assert_eq!(view.hash(), view.proper().content_hash());
    }

    #[test]
    fn compose_after_detach_drops_the_contribution() {
        let supergraph = two_registry_supergraph();
        supergraph.compose().unwrap();
        supergraph.detach("b").unwrap();
        let outcome = supergraph.compose().unwrap();
        assert!(!outcome.view.proper().contains_class(&Class::named("Order")));
        assert_view_matches_oneshot(&supergraph);
    }

    /// A detach leaves the held rest-join stale: it still covers the
    /// detached registry. The next compose must not build on it.
    #[test]
    fn compose_after_detach_and_one_change_joins_cold() {
        let supergraph = two_registry_supergraph();
        let c = supergraph.attach_new("c").unwrap();
        c.put("extra", schema("Widget", "size", "int")).unwrap();
        supergraph.compose().unwrap();
        let b = supergraph.registry("b").unwrap();
        b.put("shipping", schema("Order", "dest", "Address"))
            .unwrap();
        supergraph.compose().unwrap(); // holds the join of {a, c}
        supergraph.detach("c").unwrap();
        b.put("billing", schema("Order", "bill", "Invoice"))
            .unwrap();
        let outcome = supergraph.compose().unwrap();
        assert_eq!(outcome.strategy, MergeStrategy::Full);
        assert!(!outcome
            .view
            .proper()
            .contains_class(&Class::named("Widget")));
        assert_view_matches_oneshot(&supergraph);
    }

    #[test]
    fn attach_after_compose_builds_on_the_held_total() {
        let supergraph = two_registry_supergraph();
        supergraph.compose().unwrap();
        let c = supergraph.attach_new("c").unwrap();
        c.put("extra", schema("Widget", "size", "int")).unwrap();
        let outcome = supergraph.compose().unwrap();
        assert_eq!(outcome.strategy, MergeStrategy::Incremental);
        assert!(outcome
            .view
            .proper()
            .contains_class(&Class::named("Widget")));
        assert_view_matches_oneshot(&supergraph);
    }

    #[test]
    fn origins_carry_namespaced_member_labels() {
        let supergraph = two_registry_supergraph();
        let outcome = supergraph.compose().unwrap();
        let origins = outcome.view.origins();
        assert_eq!(
            origins.origins_of(&Class::named("Part")),
            ["a/inventory@v1", "b/orders@v1"]
        );
        assert_eq!(origins.origins_of(&Class::named("Order")), ["b/orders@v1"]);
    }

    #[test]
    fn collision_and_span_hints_fire() {
        let supergraph = Supergraph::new();
        let a = supergraph.attach_new("a").unwrap();
        let b = supergraph.attach_new("b").unwrap();
        // Same member name in both registries → collision hint. The two
        // schemas give C incomparable targets under `f` → an implicit
        // class spanning both registries.
        a.put(
            "shared",
            WeakSchema::builder().arrow("C", "f", "B1").build().unwrap(),
        )
        .unwrap();
        b.put(
            "shared",
            WeakSchema::builder().arrow("C", "f", "B2").build().unwrap(),
        )
        .unwrap();
        let outcome = supergraph.compose().unwrap();
        let codes: Vec<&str> = outcome.view.hints().map(|d| d.code).collect();
        assert!(codes.contains(&"H-COMPOSE-COLLISION"), "{codes:?}");
        assert!(codes.contains(&"H-COMPOSE-SPAN"), "{codes:?}");
    }

    #[test]
    fn cross_registry_specialization_hint_fires() {
        let supergraph = Supergraph::new();
        let a = supergraph.attach_new("a").unwrap();
        let b = supergraph.attach_new("b").unwrap();
        // `b` subtypes a class only `a` declares — but `b` knows both
        // names, so the edge endpoints share registry `b`. Use three
        // registries: the edge itself must come from somewhere, so a
        // *declared* edge always shares its declarer. Cross-registry
        // introduction happens through transitivity instead.
        let c = supergraph.attach_new("c").unwrap();
        a.put("base", schema("Animal", "alive", "bool")).unwrap();
        b.put(
            "mid",
            WeakSchema::builder()
                .specialize("Dog", "Animal")
                .build()
                .unwrap(),
        )
        .unwrap();
        c.put(
            "leaf",
            WeakSchema::builder()
                .specialize("Puppy", "Dog")
                .build()
                .unwrap(),
        )
        .unwrap();
        let outcome = supergraph.compose().unwrap();
        // Transitive closure introduces Puppy ⇒ Animal; Puppy is known
        // only to `c`, Animal only to `a`.
        let codes: Vec<&str> = outcome.view.hints().map(|d| d.code).collect();
        assert!(codes.contains(&"H-COMPOSE-SPECIALIZATION"), "{codes:?}");
    }

    /// A member registry stuck in degraded read-only mode is flagged on
    /// the composed view with `H-COMPOSE-DEGRADED` — and the hint clears
    /// once the member heals.
    #[test]
    fn compose_flags_degraded_members_and_clears_on_heal() {
        use schema_merge_registry::storage::{
            Fault, FaultSchedule, FaultStore, MemoryStore, OpKind,
        };
        use schema_merge_registry::RetryPolicy;

        let supergraph = two_registry_supergraph();
        let schedule = FaultSchedule::new(7);
        let store = FaultStore::new(
            MemoryStore::new(),
            schedule
                .clone()
                .always_after(OpKind::Append, 0, Fault::Permanent),
        );
        let flaky = Arc::new(
            Registry::builder()
                .store(store)
                .retry_policy(RetryPolicy::new(0))
                .open()
                .unwrap(),
        );
        assert!(flaky.put("m", schema("X", "f", "Y")).is_err());
        assert!(flaky.is_degraded());
        supergraph.attach("c", Arc::clone(&flaky)).unwrap();

        let outcome = supergraph.compose().unwrap();
        let degraded: Vec<&Diagnostic> = outcome
            .view
            .hints()
            .filter(|d| d.code == "H-COMPOSE-DEGRADED")
            .collect();
        assert_eq!(degraded.len(), 1, "{degraded:?}");
        assert!(degraded[0].message.contains("`c`"), "{:?}", degraded[0]);

        // Stop injecting, probe heals, publish lands, hint clears.
        schedule.clear();
        assert!(flaky.probe_now());
        flaky.put("m", schema("X", "f", "Y")).unwrap();
        let healed = supergraph.compose().unwrap();
        assert!(
            healed.view.hints().all(|d| d.code != "H-COMPOSE-DEGRADED"),
            "hint must clear after heal"
        );
    }

    /// A degraded registry composed alone is still flagged: the lone
    /// path keeps `H-COMPOSE-DEGRADED` after the merger's diagnostics.
    #[test]
    fn a_lone_degraded_registry_is_flagged() {
        use schema_merge_registry::storage::{
            Fault, FaultSchedule, FaultStore, MemoryStore, OpKind,
        };
        use schema_merge_registry::RetryPolicy;

        // The first append lands; every later one fails for good.
        let schedule = FaultSchedule::new(11).always_after(OpKind::Append, 1, Fault::Permanent);
        let registry = Arc::new(
            Registry::builder()
                .store(FaultStore::new(MemoryStore::new(), schedule))
                .retry_policy(RetryPolicy::new(0))
                .open()
                .unwrap(),
        );
        registry.put("m", schema("X", "f", "Y")).unwrap();
        assert!(registry.put("n", schema("Z", "g", "Y")).is_err());
        assert!(registry.is_degraded());

        let supergraph = Supergraph::new();
        supergraph.attach("solo", Arc::clone(&registry)).unwrap();
        let outcome = supergraph.compose().unwrap();
        assert_eq!(outcome.strategy, MergeStrategy::Incremental);
        let codes: Vec<&str> = outcome.view.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(codes, ["I-BASE-REUSED", "H-COMPOSE-DEGRADED"]);
        let hint = outcome.view.hints().next().unwrap();
        assert!(hint.message.contains("`solo`"), "{hint:?}");
        assert!(outcome.view.proper().contains_class(&Class::named("X")));
        assert_view_matches_oneshot(&supergraph);
    }

    #[test]
    fn incremental_and_full_views_agree_on_provenance_and_hints() {
        // Drive one supergraph incrementally; compose a fresh one from
        // the same final state; everything observable must be equal.
        let supergraph = two_registry_supergraph();
        supergraph.compose().unwrap();
        let b = supergraph.registry("b").unwrap();
        b.put("orders", schema("Order", "qty", "int")).unwrap();
        supergraph.compose().unwrap(); // warms the rest-join
        b.put("orders", schema("Order", "price", "money")).unwrap();
        let incremental = supergraph.compose().unwrap();
        assert_eq!(incremental.strategy, MergeStrategy::Incremental);

        let fresh = Supergraph::new();
        for name in supergraph.names() {
            fresh
                .attach(&name, supergraph.registry(&name).unwrap())
                .unwrap();
        }
        let full = fresh.compose().unwrap();
        assert_eq!(full.strategy, MergeStrategy::Full);

        assert_eq!(incremental.view.proper(), full.view.proper());
        assert_eq!(incremental.view.implicit(), full.view.implicit());
        assert_eq!(incremental.view.origins(), full.view.origins());
        let incremental_hints: Vec<&Diagnostic> = incremental.view.hints().collect();
        let full_hints: Vec<&Diagnostic> = full.view.hints().collect();
        assert_eq!(incremental_hints, full_hints);
    }

    /// Registry joins enter a compose compiled, and an implicit-class
    /// literal in a member is remapped like any other class. A compose
    /// after one registry moved (onto the held join of the rest) and one
    /// after both moved (cold) each equal the one-shot merge and carry
    /// the hints of a fresh compose of the same state.
    #[test]
    fn composes_of_joins_with_implicit_literals_match_oneshot() {
        fn assert_hints_match_fresh_compose(supergraph: &Supergraph, outcome: &ComposeOutcome) {
            let fresh = Supergraph::new();
            for name in supergraph.names() {
                fresh
                    .attach(&name, supergraph.registry(&name).unwrap())
                    .unwrap();
            }
            let full = fresh.compose().unwrap();
            let hints: Vec<&Diagnostic> = outcome.view.hints().collect();
            assert_eq!(hints, full.view.hints().collect::<Vec<_>>());
        }

        let supergraph = two_registry_supergraph();
        let a = supergraph.registry("a").unwrap();
        let b = supergraph.registry("b").unwrap();
        let meet = Class::implicit([Class::named("Part"), Class::named("Order")]);
        a.put("kit", schema("Kit", "of", "Part")).unwrap();
        b.put(
            "bundle",
            WeakSchema::builder()
                .arrow("Bundle", "holds", meet.clone())
                .arrow("Kit", "of", "Order")
                .build()
                .unwrap(),
        )
        .unwrap();
        supergraph.compose().unwrap();
        b.put("shipping", schema("Order", "dest", "Address"))
            .unwrap();
        supergraph.compose().unwrap(); // seeds the held join of `a`
        b.put("billing", schema("Order", "bill", "Invoice"))
            .unwrap();
        let incremental = supergraph.compose().unwrap();
        assert_eq!(incremental.strategy, MergeStrategy::Incremental);
        assert!(incremental.view.proper().contains_class(&meet));
        assert_view_matches_oneshot(&supergraph);
        assert_hints_match_fresh_compose(&supergraph, &incremental);

        a.put("kit", schema("Kit", "of", "Widget")).unwrap();
        b.put("billing", schema("Order", "bill", "Receipt"))
            .unwrap();
        let cold = supergraph.compose().unwrap();
        assert_eq!(cold.strategy, MergeStrategy::Full);
        assert!(cold.view.proper().contains_class(&meet));
        // `Kit --of-->` now reaches `Widget` and `Order`: a fresh meet.
        assert_eq!(cold.view.implicit().num_implicit(), 1);
        assert_view_matches_oneshot(&supergraph);
        assert_hints_match_fresh_compose(&supergraph, &cold);
    }

    /// Composes, attach/detach cycles of a scratch registry and publishes
    /// into two attached registries, from four threads at once: nothing
    /// deadlocks (supergraph lane, then a registry's read lock), and the
    /// last compose is the one-shot merge of every member.
    #[test]
    fn concurrent_composes_attaches_and_publishes_converge() {
        let supergraph = two_registry_supergraph();
        let rounds = 8;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..rounds {
                    supergraph.compose().unwrap();
                }
            });
            scope.spawn(|| {
                for round in 0..rounds {
                    let scratch = supergraph.attach_new("scratch").unwrap();
                    scratch
                        .put("tmp", schema("Tmp", &format!("f{round}"), "T"))
                        .unwrap();
                    supergraph.detach("scratch").unwrap();
                }
            });
            for name in ["a", "b"] {
                let registry = supergraph.registry(name).unwrap();
                scope.spawn(move || {
                    for round in 0..rounds {
                        let g = schema("Order", &format!("{name}{round}"), "T");
                        registry.put(format!("{name}-churn"), g).unwrap();
                    }
                });
            }
        });
        supergraph.compose().unwrap();
        assert_view_matches_oneshot(&supergraph);
    }

    #[test]
    fn stats_track_strategies_and_cache_traffic() {
        let supergraph = two_registry_supergraph();
        supergraph.compose().unwrap();
        supergraph.compose().unwrap(); // noop
        let b = supergraph.registry("b").unwrap();
        b.put("orders2", schema("X", "y", "Z")).unwrap();
        supergraph.compose().unwrap(); // full; seeds the rest-join
        b.put("orders3", schema("X", "w", "W")).unwrap();
        supergraph.compose().unwrap(); // incremental
        let stats = supergraph.stats();
        assert_eq!(stats.registries, 2);
        assert_eq!(stats.full_composes, 2);
        assert_eq!(stats.incremental_composes, 1);
        assert_eq!(stats.noop_composes, 1);
        assert!(stats.composed_classes >= 4);
        assert_eq!(
            stats.compose_latency.count, 3,
            "one sample per non-noop compose"
        );
    }
}
