//! The unified merge façade: one builder over every engine and pass.
//!
//! The paper's central result is that merging is a *single* associative,
//! commutative least-upper-bound operator (§4); this module is the single
//! API that operator is reached through. A [`Merger`] collects inputs
//! (schemas, annotated schemas, user assertions, an optional cached
//! compiled base), constraints (consistency relation, key contributions)
//! and preferences (upper vs lower mode), produces an inspectable
//! [`MergePlan`] describing exactly what will run, and executes it into a
//! unified [`MergeReport`] — merged schema, implicit-class table, key
//! assignment, per-input provenance and structured
//! [`Diagnostic`]s.
//!
//! ```
//! use schema_merge_core::merger::Merger;
//! use schema_merge_core::{Class, WeakSchema};
//!
//! let g1 = WeakSchema::builder().arrow("Dog", "license", "int").build()?;
//! let g2 = WeakSchema::builder().arrow("Dog", "name", "string").build()?;
//!
//! let merger = Merger::new()
//!     .schema(&g1)
//!     .schema(&g2)
//!     .assert_specialization("Guide-dog", "Dog");
//! println!("{}", merger.plan());
//! let report = merger.execute()?;
//! assert_eq!(report.proper.labels_of(&Class::named("Guide-dog")).len(), 2);
//! # Ok::<(), schema_merge_core::MergeError>(())
//! ```
//!
//! ## Engines
//!
//! Planning derives the [`PlannedEngine`] that runs from the inputs and
//! the mode; there is nothing to choose:
//!
//! * **`Compiled`** (every upper plan) — one id-space join over every
//!   input, then completion through the `Imp` fixpoint, end to end in id
//!   space ([`crate::compile`]) and on the calling thread. Symbolic
//!   inputs are interned against one shared symbol table; compiled inputs
//!   ([`Merger::onto_base`], any number) are already joins and transfer
//!   their closed rows through an id remap, so a cached join — the
//!   registry's held base, a registry's join in a supergraph compose —
//!   is never walked symbolically. Annotated inputs join the same way.
//!   When one carries a `0/1` arrow, the participation pass joins the
//!   inputs' required arrows a second time in id space: a joined arrow
//!   is required exactly when that second join has it.
//! * **`Symbolic`** — every lower-mode plan: the §6 pipeline has no
//!   compiled variant, and it decompiles compiled inputs.
//!
//! The compiled engine produces results **equal** to the symbolic
//! reference algorithms of [`crate::reference`] — participation marks
//! included, against [`crate::reference::annotated_join`] — however its
//! inputs are split between compiled and symbolic, which the
//! differential suites property-test per workload family.
//!
//! ## Modes
//!
//! Upper mode (default) computes the paper's merge: weak least upper
//! bound, then completion with implicit *meet* classes (§4). Lower mode
//! ([`Merger::lower`]) computes the federated greatest lower bound with
//! union classes and participation weakening (§6).

use crate::class::Class;
use crate::compile::{self, CompiledSchema};
use crate::complete::{check_consistency, complete_from_compiled_impl, CompletionReport};
use crate::consistency::ConsistencyRelation;
use crate::diagnostic::Diagnostic;
use crate::error::MergeError;
use crate::keys::{KeyAssignment, SuperkeyFamily};
use crate::lower::{lower_complete, lower_merge, AnnotatedSchema, LowerCompletionReport};
use crate::name::Label;
use crate::proper::ProperSchema;
use crate::weak::WeakSchema;
use schema_merge_telemetry::{self as telemetry, SpanRecord};
use std::borrow::Cow;
use std::fmt;

/// The engine a [`MergePlan`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlannedEngine {
    /// The symbolic §6 lower pipeline ([`crate::lower`]); every lower
    /// plan resolves here.
    Symbolic,
    /// The id-space engine ([`crate::compile`]): symbolic inputs
    /// interned and compiled inputs remapped into one symbol table, one
    /// closure pass, then the id-space completion. It never materializes
    /// the symbolic join ([`MergeReport::weak`] decompiles it on demand).
    Compiled,
}

impl PlannedEngine {
    /// The lower-case wire/report name.
    pub fn as_str(self) -> &'static str {
        match self {
            PlannedEngine::Symbolic => "symbolic",
            PlannedEngine::Compiled => "compiled",
        }
    }
}

impl fmt::Display for PlannedEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Upper (least upper bound, §4) or lower (greatest lower bound, §6)
/// merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MergeMode {
    /// The paper's merge: weak join + completion with meet classes.
    Upper,
    /// The federated view: GLB + union classes + participation weakening.
    Lower,
}

impl MergeMode {
    /// The lower-case wire/report name.
    pub fn as_str(self) -> &'static str {
        match self {
            MergeMode::Upper => "upper",
            MergeMode::Lower => "lower",
        }
    }
}

impl fmt::Display for MergeMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One pass of a [`MergePlan`], in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MergePass {
    /// The least-upper-bound (or, in lower mode, greatest-lower-bound)
    /// join of the inputs.
    Join,
    /// §4.2 completion: implicit meet classes below incomparable arrow
    /// targets.
    Completion,
    /// §6 lower completion: union classes above incomparable arrow
    /// targets.
    LowerCompletion,
    /// The §4.2 consistency check over the implicit-class table.
    ConsistencyCheck,
    /// §5: the unique minimal satisfactory key assignment.
    KeyAssignment,
    /// The joined participation marks, transferred onto the completed
    /// schema. In upper mode an input's `0/1` arrow makes this pass join
    /// the inputs' required arrows a second time, in id space: the
    /// joined arrows that join lacks are the optional ones.
    ParticipationTransfer,
}

impl MergePass {
    /// The lower-case wire/report name.
    pub fn as_str(self) -> &'static str {
        match self {
            MergePass::Join => "join",
            MergePass::Completion => "completion",
            MergePass::LowerCompletion => "lower-completion",
            MergePass::ConsistencyCheck => "consistency-check",
            MergePass::KeyAssignment => "key-assignment",
            MergePass::ParticipationTransfer => "participation-transfer",
        }
    }
}

impl fmt::Display for MergePass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a [`Merger`] will do when executed: engine, passes and an
/// estimate of the work involved. Produced by [`Merger::plan`] — cheap,
/// side-effect free, and inspectable before committing to the merge.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct MergePlan {
    /// Upper or lower merge.
    pub mode: MergeMode,
    /// The engine that will run: `Compiled` for every upper plan,
    /// annotated inputs included, and `Symbolic` for every lower plan.
    pub engine: PlannedEngine,
    /// The passes, in execution order.
    pub passes: Vec<MergePass>,
    /// Number of input schemas (weak + annotated; assertions counted
    /// separately).
    pub num_inputs: usize,
    /// Number of user assertions (elementary schemas).
    pub num_assertions: usize,
    /// Whether the compiled join reuses cached compiled inputs
    /// ([`Merger::onto_base`]) without walking them symbolically. False
    /// in lower mode, whose symbolic pipeline decompiles them.
    pub reuses_base: bool,
    /// Classes carried by the compiled inputs, summed (0 without one).
    pub base_classes: usize,
    /// Upper bound on the classes the join must consider (sum over
    /// inputs and base — the merged schema can only be smaller).
    pub estimated_classes: usize,
    /// Upper bound on the arrows the join must consider.
    pub estimated_arrows: usize,
    /// Upper bound on the transitively-closed specialization pairs the
    /// join must consider — inputs arrive closed, so their pair counts
    /// measure the *density* of the order, which raw class counts miss.
    pub estimated_spec_pairs: usize,
    /// Upper bound on the distinct `(class, label)` arrow pairs. The
    /// excess of [`estimated_arrows`](MergePlan::estimated_arrows) over
    /// this is the inputs' NFA branching — the driver of the `Imp`
    /// fixpoint's state count.
    pub estimated_arrow_pairs: usize,
}

impl MergePlan {
    /// A scalar work estimate combining input size with closure density,
    /// shown in the plan display and recorded on the `merge` span.
    ///
    /// Linear terms count the symbols the join walks (classes, arrows)
    /// and the closed specialization pairs the closure and `MinS`/`MaxS`
    /// sweeps touch. The fixpoint term is driven by *branching* — arrows
    /// in excess of distinct `(class, label)` pairs — because the `Imp`
    /// fixpoint is an NFA subset construction: without branching it
    /// discovers only singleton states (linear), while each extra target
    /// can double the reachable state space. A pathological 11-class NFA
    /// therefore out-weighs a plain 400-class schema, which the previous
    /// raw-size estimate got exactly backwards.
    ///
    /// One subtlety keeps the exponential honest: the inputs arrive
    /// *closed*, and the W2 closure lifts every arrow target upward, so
    /// a specialization-heavy schema shows excess targets that the
    /// fixpoint's `MinS` canonicalization collapses straight back to
    /// singletons. Excess only signals subset-construction hardness when
    /// it is large *relative to the pair count* (genuinely NFA-shaped
    /// inputs, where branching is the rule rather than the closure's
    /// echo); mild excess is weighed per closure-row *population*
    /// instead. The old mild-excess weight was the dense row width
    /// (every extra target paid a `classes`-wide sweep), which
    /// overrated large *sparse* taxonomies — 10k classes, shallow
    /// closure — whose actual `MinS` sweeps touch only the handful of
    /// ancestors each adaptive row stores. With adaptive rows the sweep
    /// cost is the average closed row population (`spec_pairs /
    /// classes`), so that is the weight.
    pub fn work_units(&self) -> u64 {
        let linear =
            (self.estimated_classes + self.estimated_arrows + self.estimated_spec_pairs) as u64;
        let excess = self
            .estimated_arrows
            .saturating_sub(self.estimated_arrow_pairs) as u64;
        let pairs = self.estimated_arrow_pairs.max(1) as u64;
        let fixpoint = if excess >= 8 && excess * 2 >= pairs {
            // NFA-shaped: 2^excess states, saturated past any threshold.
            (self.estimated_classes as u64).saturating_mul(1u64 << excess.min(20))
        } else {
            // Mostly W2 lift: each extra target pays one `MinS` sweep
            // over an adaptive closure row of average population
            // `spec_pairs / classes` (dense width would be `classes`).
            let avg_row = (self.estimated_spec_pairs as u64)
                .div_ceil(self.estimated_classes.max(1) as u64)
                .max(1);
            excess.saturating_mul(avg_row)
        };
        linear.saturating_add(fixpoint)
    }
}

impl fmt::Display for MergePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plan: {} merge, engine={}, inputs={}",
            self.mode, self.engine, self.num_inputs
        )?;
        if self.num_assertions > 0 {
            write!(f, " (+{} assertions)", self.num_assertions)?;
        }
        if self.reuses_base {
            write!(f, ", cached base of {} classes", self.base_classes)?;
        }
        writeln!(f)?;
        write!(f, "passes:")?;
        for (i, pass) in self.passes.iter().enumerate() {
            write!(f, "{} {pass}", if i == 0 { "" } else { " ->" })?;
        }
        writeln!(f)?;
        write!(
            f,
            "estimated work: <= {} classes, <= {} arrows, <= {} spec pairs ({} work units)",
            self.estimated_classes,
            self.estimated_arrows,
            self.estimated_spec_pairs,
            self.work_units()
        )
    }
}

/// Where one input came from and what it contributed — recorded per
/// input, in the order they were added.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct InputProvenance {
    /// Zero-based position in the merge.
    pub index: usize,
    /// The caller-supplied name, when one was given.
    pub name: Option<String>,
    /// Classes in the input.
    pub classes: usize,
    /// Arrows in the input.
    pub arrows: usize,
    /// Strict specialization pairs in the input.
    pub specializations: usize,
    /// `0/1` arrows the input carried (annotated inputs only).
    pub optional_arrows: usize,
    /// The input's canonical content hash — recorded for **named**
    /// inputs only. Naming an input opts it into traceability; anonymous
    /// batch inputs skip the canonical hashing walk, which keeps the
    /// façade overhead-free on the hot merge paths (the walk costs ~5%
    /// of a large batch merge).
    pub content_hash: Option<u64>,
}

/// The phase-level execution trace of one merge: every telemetry span
/// the engine emitted while executing the plan — one per executed
/// [`MergePass`] (named by [`MergePass::as_str`]) under one `merge`
/// root span covering the whole execution.
/// Collected only when [`Merger::trace`] asked for it; a trace never
/// changes the merge result, only observes it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MergeTrace {
    /// The captured spans, in completion order (children before
    /// parents).
    pub spans: Vec<SpanRecord>,
}

/// Renders a nanosecond duration at human scale (`870ns`, `13.4µs`,
/// `2.08ms`, `1.50s`).
fn human_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}\u{b5}s", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

impl MergeTrace {
    /// The root `merge` span (the last one captured: the root finishes
    /// after every pass under it).
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.iter().rev().find(|span| span.name == "merge")
    }

    /// Wall-clock duration of the root span, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.root().map_or(0, |root| root.duration_ns)
    }

    /// Total duration per phase name, in first-appearance order —
    /// every non-root span summed by name.
    pub fn phase_ns(&self) -> Vec<(&'static str, u64)> {
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for span in &self.spans {
            if span.name == "merge" {
                continue;
            }
            match totals.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, total)) => *total = total.saturating_add(span.duration_ns),
                None => totals.push((span.name, span.duration_ns)),
            }
        }
        totals
    }

    /// A deterministic indented tree rendering: one line per span with
    /// its human-scale duration and `key=value` attrs, children under
    /// parents ordered by start time.
    pub fn render(&self) -> String {
        fn write_span(out: &mut String, spans: &[SpanRecord], span: &SpanRecord, depth: usize) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(span.name);
            out.push(' ');
            out.push_str(&human_ns(span.duration_ns));
            if !span.attrs.is_empty() {
                out.push_str(" (");
                for (i, (key, value)) in span.attrs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("{key}={value}"));
                }
                out.push(')');
            }
            out.push('\n');
            let mut children: Vec<&SpanRecord> = spans
                .iter()
                .filter(|child| child.parent == Some(span.id))
                .collect();
            children.sort_by_key(|child| (child.start_ns, child.id));
            for child in children {
                write_span(out, spans, child, depth + 1);
            }
        }

        let known: std::collections::BTreeSet<u64> =
            self.spans.iter().map(|span| span.id).collect();
        let mut roots: Vec<&SpanRecord> = self
            .spans
            .iter()
            .filter(|span| span.parent.is_none_or(|parent| !known.contains(&parent)))
            .collect();
        roots.sort_by_key(|span| (span.start_ns, span.id));
        let mut out = String::new();
        for root in roots {
            write_span(&mut out, &self.spans, root, 0);
        }
        out
    }
}

/// Everything a merge produced, in one structure.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct MergeReport {
    /// The plan that was executed.
    pub plan: MergePlan,
    /// The symbolic GLB schema of a lower merge; read through
    /// [`MergeReport::weak`], which decompiles the compiled join of an
    /// upper merge instead.
    weak: Option<WeakSchema>,
    /// The completed merged schema — the paper's `Ḡ`.
    pub proper: ProperSchema,
    /// The implicit-class table: which meet classes completion introduced
    /// and why (empty in lower mode; see [`MergeReport::lower`]).
    pub implicit: CompletionReport,
    /// The §5 minimal satisfactory key assignment (empty when no key
    /// contributions were supplied).
    pub keys: KeyAssignment,
    /// The completed schema with participation marks — present when any
    /// input was annotated, and always in lower mode.
    pub annotated: Option<AnnotatedSchema>,
    /// The §6 union-class report (lower mode only).
    pub lower: Option<LowerCompletionReport>,
    /// Per-input provenance, in input order.
    pub provenance: Vec<InputProvenance>,
    /// Structured diagnostics from planning and execution. Fatal errors
    /// are returned as `Err` from [`Merger::execute`] instead.
    pub diagnostics: Vec<Diagnostic>,
    /// The compiled form of the weak join, when the compiled engine ran
    /// a join — the interner a later incremental merge (or the
    /// registry's held joins) can build on. `None` when a lone cached
    /// base was completed with nothing joined onto it: the base itself is
    /// the join, and the caller already holds it.
    pub compiled: Option<CompiledSchema>,
    /// The phase-level execution trace — present only when the merge
    /// ran with [`Merger::trace`] enabled. Purely observational: every
    /// other field is bit-identical with tracing on or off.
    pub trace: Option<MergeTrace>,
}

impl MergeReport {
    /// The weak join of the inputs (upper mode) or the GLB schema (lower
    /// mode). The compiled engines never materialize it symbolically, so
    /// for them it is decompiled here, on demand — the completed schema
    /// is [`MergeReport::proper`] either way. `None` only for a base-only
    /// plan: nothing was joined, and the caller already holds the base.
    pub fn weak(&self) -> Option<Cow<'_, WeakSchema>> {
        match (&self.weak, &self.compiled) {
            (Some(weak), _) => Some(Cow::Borrowed(weak)),
            (None, Some(compiled)) => Some(Cow::Owned(compiled.decompile())),
            (None, None) => None,
        }
    }

    /// Extracts the historical outcome triple (weak join, proper schema,
    /// completion report) that pre-façade callers consume, decompiling
    /// the join on demand like [`MergeReport::weak`].
    ///
    /// # Panics
    ///
    /// When the report came from a base-only plan (nothing was joined,
    /// so no join representation exists — the caller already holds the
    /// base).
    pub fn into_outcome(self) -> crate::merge::MergeOutcome {
        let weak = match self.weak {
            Some(weak) => weak,
            None => self
                .compiled
                .expect("base-only plans carry no join; the caller already holds the base")
                .decompile(),
        };
        crate::merge::MergeOutcome {
            weak,
            proper: self.proper,
            report: self.implicit,
        }
    }

    /// A deterministic multi-line text summary (plan, result shape,
    /// implicit classes, diagnostics) — the stable rendering used by the
    /// CLI's human output and the snapshot tests.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.plan);
        let weak = self.proper.as_weak();
        let _ = writeln!(
            out,
            "result: {} classes, {} arrows, {} specializations, {} implicit",
            weak.num_classes(),
            weak.num_arrows(),
            weak.num_specializations(),
            self.implicit.num_implicit(),
        );
        for info in &self.implicit.implicit {
            let _ = writeln!(out, "implicit: {} demanded by {}", info.class, info.witness);
        }
        if let Some(lower) = &self.lower {
            for info in &lower.unions {
                let _ = writeln!(
                    out,
                    "union: {} demanded by ({}, {})",
                    info.class, info.demanded_by.0, info.demanded_by.1
                );
            }
        }
        if self.keys.num_keyed_classes() > 0 {
            let _ = writeln!(out, "keys: {} keyed classes", self.keys.num_keyed_classes());
        }
        for diag in &self.diagnostics {
            let _ = writeln!(out, "{diag}");
        }
        out
    }
}

/// A user assertion (§3): an elementary schema merged like any other
/// input, materialized at execution time.
#[derive(Debug, Clone)]
enum Assertion {
    Specialization(Class, Class),
    Arrow(Class, Label, Class),
}

#[derive(Debug, Clone, Copy)]
enum InputKind<'a> {
    Weak(&'a WeakSchema),
    Annotated(&'a AnnotatedSchema),
}

impl InputKind<'_> {
    fn weak(&self) -> &WeakSchema {
        match self {
            InputKind::Weak(schema) => schema,
            InputKind::Annotated(annotated) => annotated.schema(),
        }
    }

    fn optional_arrows(&self) -> usize {
        match self {
            InputKind::Weak(_) => 0,
            InputKind::Annotated(annotated) => annotated.num_optional(),
        }
    }
}

#[derive(Debug, Clone)]
struct Input<'a> {
    name: Option<String>,
    kind: InputKind<'a>,
}

/// The unified merge builder. See the [module docs](self) for the full
/// story and `examples/merger_facade.rs` for a tour.
///
/// The builder is typestate-flavoured: every method consumes and returns
/// the `Merger`, so a merge reads as one chain ending in
/// [`plan`](Merger::plan), [`execute`](Merger::execute) or
/// [`join`](Merger::join).
#[derive(Default)]
#[must_use = "a Merger does nothing until `.execute()`, `.join()` or `.plan()` is called"]
pub struct Merger<'a> {
    inputs: Vec<Input<'a>>,
    assertions: Vec<Assertion>,
    /// Compiled inputs, in the order added.
    bases: Vec<&'a CompiledSchema>,
    consistency: Option<&'a ConsistencyRelation>,
    keys: Vec<(Class, SuperkeyFamily)>,
    lower: bool,
    /// Name of the input whose hierarchy is the *target* of the merge
    /// (ATOM-style target-driven taxonomy merging): the result is the
    /// same least upper bound — §4's associativity is not negotiable —
    /// but the report diagnoses everything the other inputs forced onto
    /// the target's hierarchy.
    target: Option<String>,
    /// Capture a phase-level span trace into [`MergeReport::trace`].
    trace: bool,
}

impl<'a> Merger<'a> {
    /// An empty merger: upper mode, no inputs.
    pub fn new() -> Self {
        Merger::default()
    }

    /// Adds one input schema.
    pub fn schema(mut self, schema: &'a WeakSchema) -> Self {
        self.inputs.push(Input {
            name: None,
            kind: InputKind::Weak(schema),
        });
        self
    }

    /// Adds one named input schema; the name flows into provenance and
    /// diagnostics.
    pub fn schema_named(mut self, name: impl Into<String>, schema: &'a WeakSchema) -> Self {
        self.inputs.push(Input {
            name: Some(name.into()),
            kind: InputKind::Weak(schema),
        });
        self
    }

    /// Adds every schema in the iterator.
    pub fn schemas(mut self, schemas: impl IntoIterator<Item = &'a WeakSchema>) -> Self {
        for schema in schemas {
            self = self.schema(schema);
        }
        self
    }

    /// Adds an input with participation annotations (`0/1` arrows). The
    /// joined annotations are transferred onto the completed schema and
    /// returned in [`MergeReport::annotated`].
    pub fn with_participation(mut self, annotated: &'a AnnotatedSchema) -> Self {
        self.inputs.push(Input {
            name: None,
            kind: InputKind::Annotated(annotated),
        });
        self
    }

    /// [`with_participation`](Merger::with_participation) with a name for
    /// provenance and diagnostics.
    pub fn with_participation_named(
        mut self,
        name: impl Into<String>,
        annotated: &'a AnnotatedSchema,
    ) -> Self {
        self.inputs.push(Input {
            name: Some(name.into()),
            kind: InputKind::Annotated(annotated),
        });
        self
    }

    /// Asserts `sub ⇒ sup` — an elementary two-class schema merged like
    /// any other input (§3), so assertion order never matters.
    pub fn assert_specialization(mut self, sub: impl Into<Class>, sup: impl Into<Class>) -> Self {
        self.assertions
            .push(Assertion::Specialization(sub.into(), sup.into()));
        self
    }

    /// Asserts the arrow `src --label--> tgt` as an elementary schema.
    pub fn assert_arrow(
        mut self,
        src: impl Into<Class>,
        label: impl Into<Label>,
        tgt: impl Into<Class>,
    ) -> Self {
        self.assertions
            .push(Assertion::Arrow(src.into(), label.into(), tgt.into()));
        self
    }

    /// Applies the §4.2 consistency check after completion: the merge
    /// fails with [`MergeError::Inconsistent`] if an implicit class would
    /// identify classes the relation declares inconsistent. Ignored (with
    /// a warning diagnostic) in lower mode, which introduces union — not
    /// meet — classes.
    pub fn with_consistency(mut self, consistency: &'a ConsistencyRelation) -> Self {
        self.consistency = Some(consistency);
        self
    }

    /// Contributes key families for `class` (§5). All contributions are
    /// combined into the unique minimal satisfactory assignment over the
    /// completed schema, returned in [`MergeReport::keys`].
    pub fn with_keys(mut self, class: impl Into<Class>, family: SuperkeyFamily) -> Self {
        self.keys.push((class.into(), family));
        self
    }

    /// Adds one compiled input: a cached compiled join, transferred in
    /// id space rather than interned (the registry's incremental
    /// re-merge, a supergraph compose of registry joins,
    /// [`crate::MergeSession`]'s accumulation). Repeatable; the first
    /// call's base keeps its ids whenever the other inputs bring no
    /// class sorting before one of its own, so the transfer is a row
    /// copy. `base` must be the compiled form of a closed weak schema,
    /// as produced by an earlier compiled join.
    pub fn onto_base(mut self, base: &'a CompiledSchema) -> Self {
        self.bases.push(base);
        self
    }

    /// Switches to the §6 *lower* merge: the greatest lower bound of the
    /// inputs (the federated view every source can serve), completed with
    /// union classes, with participation constraints weakened pointwise.
    pub fn lower(mut self) -> Self {
        self.lower = true;
        self
    }

    /// Captures a phase-level execution trace into
    /// [`MergeReport::trace`]: one telemetry span per executed
    /// [`MergePass`] under a `merge` root span. Tracing is collected on the executing thread
    /// only and never changes the merge result; disabled (the default),
    /// the execution path is the pre-telemetry one — span collection
    /// short-circuits on one flag check.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Declares the **named** input the target hierarchy of the merge —
    /// the target-driven mode of taxonomy mergers (ATOM): the result is
    /// still the paper's least upper bound (preference can never change
    /// the LUB — that associativity is §4's point), but the report
    /// carries `I-TARGET-*` diagnostics itemizing what the *other*
    /// inputs forced onto the target's hierarchy: specializations added
    /// between target classes (`I-TARGET-SPEC`), arrows added to target
    /// classes (`I-TARGET-ARROW`), and implicit classes demanded below
    /// target classes (`I-TARGET-IMPLICIT`). When nothing was forced,
    /// `I-TARGET-PRESERVED` says so. The name must match a
    /// [`schema_named`](Merger::schema_named) input; otherwise the
    /// report carries `W-TARGET-UNKNOWN`.
    pub fn prefer_hierarchy(mut self, name: impl Into<String>) -> Self {
        self.target = Some(name.into());
        self
    }

    /// Resolves what executing this merger will do — engine, passes and
    /// a work estimate — without running anything.
    pub fn plan(&self) -> MergePlan {
        let mode = if self.lower {
            MergeMode::Lower
        } else {
            MergeMode::Upper
        };

        let mut estimated_classes = 0;
        let mut estimated_arrows = 0;
        let mut estimated_spec_pairs = 0;
        let mut estimated_arrow_pairs = 0;
        for input in &self.inputs {
            let weak = input.kind.weak();
            estimated_classes += weak.num_classes();
            estimated_arrows += weak.num_arrows();
            estimated_spec_pairs += weak.num_specializations();
            estimated_arrow_pairs += weak.num_arrow_pairs();
        }
        estimated_classes += 2 * self.assertions.len();
        for assertion in &self.assertions {
            match assertion {
                Assertion::Specialization(..) => estimated_spec_pairs += 1,
                Assertion::Arrow(..) => {
                    estimated_arrows += 1;
                    estimated_arrow_pairs += 1;
                }
            }
        }
        let mut base_classes = 0;
        for base in &self.bases {
            base_classes += base.num_classes();
            estimated_arrows += base.num_arrows();
            estimated_spec_pairs += base.num_specializations();
            estimated_arrow_pairs += base.num_arrow_pairs();
        }
        estimated_classes += base_classes;

        let mut plan = MergePlan {
            mode,
            engine: if self.lower {
                // The lower pipeline is a symbolic fixpoint (§6); no
                // compiled variant exists yet.
                PlannedEngine::Symbolic
            } else {
                PlannedEngine::Compiled
            },
            passes: Vec::new(),
            num_inputs: self.inputs.len(),
            num_assertions: self.assertions.len(),
            reuses_base: !self.bases.is_empty() && !self.lower,
            base_classes,
            estimated_classes,
            estimated_arrows,
            estimated_spec_pairs,
            estimated_arrow_pairs,
        };
        if !self.is_base_only() {
            plan.passes.push(MergePass::Join);
        }
        match mode {
            MergeMode::Upper => {
                plan.passes.push(MergePass::Completion);
                if self.consistency.is_some() {
                    plan.passes.push(MergePass::ConsistencyCheck);
                }
            }
            MergeMode::Lower => plan.passes.push(MergePass::LowerCompletion),
        }
        if !self.keys.is_empty() {
            plan.passes.push(MergePass::KeyAssignment);
        }
        if self.has_annotated() || mode == MergeMode::Lower {
            plan.passes.push(MergePass::ParticipationTransfer);
        }
        plan
    }

    /// Executes the plan: join, completion, and every configured
    /// constraint pass, into one [`MergeReport`].
    ///
    /// # Errors
    ///
    /// [`MergeError::Incompatible`] when the inputs' specialization
    /// relations union to a cycle, [`MergeError::Inconsistent`] when the
    /// consistency check vetoes an implicit class, and
    /// [`MergeError::Schema`] when an input (or assertion) is itself
    /// invalid.
    pub fn execute(&self) -> Result<MergeReport, MergeError> {
        if !self.trace {
            return self.execute_inner();
        }
        // Tracing mode: enable span collection on this thread for the
        // duration, then drain exactly the spans this merge recorded
        // (the mark keeps an enclosing caller's spans — a registry
        // commit, say — out of this report). Drained unconditionally so
        // a failed merge never leaks spans into a later trace.
        let _scope = telemetry::thread_span_scope();
        let mark = telemetry::span_mark();
        let result = self.execute_inner();
        let spans = telemetry::drain_spans_since(mark);
        result.map(|mut report| {
            report.trace = Some(MergeTrace { spans });
            report
        })
    }

    /// [`execute`](Merger::execute) without the trace capture wrapper.
    /// Span emission inside is unconditional code-wise but free when
    /// collection is disabled (see [`telemetry::span`]).
    fn execute_inner(&self) -> Result<MergeReport, MergeError> {
        let plan = self.plan();
        let mut root = telemetry::span("merge");
        root.attr_usize("inputs", plan.num_inputs);
        root.attr("work_units", plan.work_units());
        match plan.mode {
            MergeMode::Upper => self.execute_upper(plan),
            MergeMode::Lower => self.execute_lower(plan),
        }
    }

    /// The diagnostics [`execute`](Merger::execute) reports for this
    /// upper merge, given its result (`proper` and `implicit`) — for a
    /// caller that already holds that result, such as a supergraph of
    /// one registry serving the registry's committed view, and reports
    /// what the merge would without running it.
    pub fn diagnostics_for(
        &self,
        proper: &ProperSchema,
        implicit: &CompletionReport,
    ) -> Vec<Diagnostic> {
        self.upper_diagnostics(&self.plan(), proper.as_weak(), implicit)
    }

    /// Runs only the join pass: the weak least upper bound of the inputs'
    /// schemas (mode-independent; participation marks take no part), in
    /// id space. This is the entry point for callers that keep merging —
    /// the registry's cold join, [`crate::MergeSession`]'s accumulation;
    /// [`CompiledSchema::decompile`] gives the symbolic join.
    pub fn join(&self) -> Result<CompiledSchema, MergeError> {
        let atoms = self.materialize_assertions()?;
        self.join_stage(&atoms)
    }

    // ---- internals -------------------------------------------------------

    fn has_annotated(&self) -> bool {
        self.inputs
            .iter()
            .any(|input| matches!(input.kind, InputKind::Annotated(_)))
    }

    /// Whether the plan completes a lone compiled input with nothing
    /// joined onto it — the registry's delete path, a session's
    /// `merged()`. The join pass (and the copy it would make of the base)
    /// is skipped.
    fn is_base_only(&self) -> bool {
        !self.lower && self.bases.len() == 1 && self.inputs.is_empty() && self.assertions.is_empty()
    }

    fn materialize_assertions(&self) -> Result<Vec<WeakSchema>, MergeError> {
        self.assertions
            .iter()
            .map(|assertion| {
                let builder = WeakSchema::builder();
                let builder = match assertion {
                    Assertion::Specialization(sub, sup) => {
                        builder.specialize(sub.clone(), sup.clone())
                    }
                    Assertion::Arrow(src, label, tgt) => {
                        builder.arrow(src.clone(), label.clone(), tgt.clone())
                    }
                };
                builder.build().map_err(MergeError::Schema)
            })
            .collect()
    }

    /// The join pass: every input and assertion atom joined onto the
    /// compiled inputs in id space.
    fn join_stage(&self, atoms: &[WeakSchema]) -> Result<CompiledSchema, MergeError> {
        let weak_refs: Vec<&WeakSchema> = self
            .inputs
            .iter()
            .map(|input| input.kind.weak())
            .chain(atoms.iter())
            .collect();
        compile::join_ids(&self.bases, &weak_refs).map_err(MergeError::from_join)
    }

    /// The participation pass of an upper merge with annotated inputs.
    /// A joined arrow is required exactly when some input's required
    /// arrow derives it, so the optional arrows of `join` are those a
    /// second id-space join, of the inputs' required arrows, lacks: plain
    /// inputs, compiled inputs and assertions join as they are, and an
    /// annotated input brings only its required arrows. The joined marks
    /// are then transferred onto the completed schema.
    fn participation(
        &self,
        atoms: &[WeakSchema],
        join: &CompiledSchema,
        completed: &WeakSchema,
    ) -> AnnotatedSchema {
        if self
            .inputs
            .iter()
            .all(|input| input.kind.optional_arrows() == 0)
        {
            return AnnotatedSchema::all_required(completed.clone());
        }
        let required: Vec<Cow<'_, WeakSchema>> = self
            .inputs
            .iter()
            .map(|input| match input.kind {
                InputKind::Annotated(annotated) if annotated.num_optional() > 0 => {
                    Cow::Owned(annotated.required_schema())
                }
                _ => Cow::Borrowed(input.kind.weak()),
            })
            .collect();
        let refs: Vec<&WeakSchema> = required
            .iter()
            .map(Cow::as_ref)
            .chain(atoms.iter())
            .collect();
        let required_join = compile::join_ids(&self.bases, &refs)
            .expect("the required arrows join over the order the full join closed");
        AnnotatedSchema::from_closures(join.decompile(), &required_join.decompile())
            .transfer_to(completed)
    }

    /// Every input as an annotated schema for the symbolic lower merge
    /// (compiled inputs decompiled; they, weak inputs and assertion atoms
    /// read as all-required), preserving input order.
    fn annotated_inputs(&self, atoms: &[WeakSchema]) -> Vec<Cow<'_, AnnotatedSchema>> {
        let mut anns: Vec<Cow<'_, AnnotatedSchema>> = Vec::new();
        for base in &self.bases {
            anns.push(Cow::Owned(AnnotatedSchema::all_required(base.decompile())));
        }
        for input in &self.inputs {
            anns.push(match input.kind {
                InputKind::Annotated(annotated) => Cow::Borrowed(annotated),
                InputKind::Weak(weak) => Cow::Owned(AnnotatedSchema::all_required(weak.clone())),
            });
        }
        for atom in atoms {
            anns.push(Cow::Owned(AnnotatedSchema::all_required(atom.clone())));
        }
        anns
    }

    fn execute_upper(&self, plan: MergePlan) -> Result<MergeReport, MergeError> {
        let atoms = self.materialize_assertions()?;
        let compiled = if self.is_base_only() {
            None
        } else {
            let mut span = telemetry::span(MergePass::Join.as_str());
            let compiled = self.join_stage(&atoms)?;
            span.attr_usize("classes", compiled.num_classes());
            span.attr_usize("arrows", compiled.num_arrows());
            Some(compiled)
        };

        let mut completion_span = telemetry::span(MergePass::Completion.as_str());
        // A base-only plan completes its lone base: the base is the join.
        let join = compiled.as_ref().unwrap_or_else(|| self.bases[0]);
        let (proper, implicit) = complete_from_compiled_impl(join).map_err(MergeError::Schema)?;
        completion_span.attr_usize("classes", proper.as_weak().num_classes());
        completion_span.attr_usize("implicit_classes", implicit.num_implicit());
        drop(completion_span);

        if let Some(consistency) = self.consistency {
            let _span = telemetry::span(MergePass::ConsistencyCheck.as_str());
            check_consistency(&implicit, consistency)?;
        }

        let keys = if self.keys.is_empty() {
            KeyAssignment::new()
        } else {
            let mut span = telemetry::span(MergePass::KeyAssignment.as_str());
            let keys = self.key_pass(&proper);
            span.attr_usize("keyed_classes", keys.num_keyed_classes());
            keys
        };
        let annotated = match &compiled {
            Some(join) if self.has_annotated() => {
                let _span = telemetry::span(MergePass::ParticipationTransfer.as_str());
                Some(self.participation(&atoms, join, proper.as_weak()))
            }
            _ => None,
        };
        let diagnostics = self.upper_diagnostics(&plan, proper.as_weak(), &implicit);

        Ok(MergeReport {
            plan,
            provenance: self.provenance(),
            weak: None,
            proper,
            implicit,
            keys,
            annotated,
            lower: None,
            diagnostics,
            compiled,
            trace: None,
        })
    }

    fn execute_lower(&self, plan: MergePlan) -> Result<MergeReport, MergeError> {
        let atoms = self.materialize_assertions()?;
        let merged = {
            let mut span = telemetry::span(MergePass::Join.as_str());
            let anns = self.annotated_inputs(&atoms);
            let merged = lower_merge(anns.iter().map(Cow::as_ref));
            span.attr_usize("classes", merged.schema().num_classes());
            span.attr_usize("arrows", merged.schema().num_arrows());
            merged
        };
        let (annotated, proper, lower_report) = {
            let mut span = telemetry::span(MergePass::LowerCompletion.as_str());
            let completed = lower_complete(&merged).map_err(MergeError::Schema)?;
            span.attr_usize("union_classes", completed.2.unions.len());
            completed
        };

        let keys = if self.keys.is_empty() {
            KeyAssignment::new()
        } else {
            let mut span = telemetry::span(MergePass::KeyAssignment.as_str());
            let keys = self.key_pass(&proper);
            span.attr_usize("keyed_classes", keys.num_keyed_classes());
            keys
        };
        let mut diagnostics = self.input_diagnostics();
        if self.consistency.is_some() {
            diagnostics.push(Diagnostic::warning(
                "W-CONSISTENCY-IGNORED",
                "consistency relations constrain implicit meet classes; \
                 the lower merge introduces union classes and ignores them",
            ));
        }
        if self.target.is_some() {
            diagnostics.push(Diagnostic::warning(
                "W-TARGET-IGNORED",
                "target-driven reporting diagnoses upper-merge additions; \
                 the lower merge subtracts and has no target to preserve",
            ));
        }
        if !lower_report.unions.is_empty() {
            diagnostics.push(
                Diagnostic::info(
                    "I-UNION-CLASSES",
                    format!(
                        "lower completion introduced {} union class(es)",
                        lower_report.unions.len()
                    ),
                )
                .with_classes(lower_report.unions.iter().map(|info| info.class.clone())),
            );
        }

        Ok(MergeReport {
            plan,
            provenance: self.provenance(),
            weak: Some(merged.schema().clone()),
            proper,
            implicit: CompletionReport::default(),
            keys,
            annotated: Some(annotated),
            lower: Some(lower_report),
            diagnostics,
            compiled: None,
            trace: None,
        })
    }

    fn key_pass(&self, proper: &ProperSchema) -> KeyAssignment {
        if self.keys.is_empty() {
            return KeyAssignment::new();
        }
        KeyAssignment::minimal_satisfactory(
            proper.as_weak(),
            self.keys.iter().map(|(class, family)| (class, family)),
        )
    }

    fn provenance(&self) -> Vec<InputProvenance> {
        self.inputs
            .iter()
            .enumerate()
            .map(|(index, input)| {
                let weak = input.kind.weak();
                InputProvenance {
                    index,
                    name: input.name.clone(),
                    classes: weak.num_classes(),
                    arrows: weak.num_arrows(),
                    specializations: weak.num_specializations(),
                    optional_arrows: input.kind.optional_arrows(),
                    content_hash: input.name.as_ref().map(|_| weak.content_hash()),
                }
            })
            .collect()
    }

    /// Target-driven reporting (the ATOM taxonomy-merging mode): with a
    /// [`prefer_hierarchy`](Merger::prefer_hierarchy) target named, scan
    /// the merged result for everything the *other* inputs forced onto
    /// the target's hierarchy. The merge itself is still the least upper
    /// bound — §4's order-independence is not negotiable — so preference
    /// is a reporting stance, not a different result.
    fn target_diagnostics(
        &self,
        merged: &WeakSchema,
        implicit: &CompletionReport,
    ) -> Vec<Diagnostic> {
        const SHOWN: usize = 8;
        let Some(target_name) = self.target.as_deref() else {
            return Vec::new();
        };
        let Some(target) = self
            .inputs
            .iter()
            .find(|input| input.name.as_deref() == Some(target_name))
            .map(|input| input.kind.weak())
        else {
            return vec![Diagnostic::warning(
                "W-TARGET-UNKNOWN",
                format!(
                    "target hierarchy '{target_name}' names no input; \
                     add the target with `schema_named`"
                ),
            )];
        };

        let mut diagnostics = Vec::new();
        // Specializations the merge added between target classes. The
        // target arrives closed, so anything new really came from
        // another input or transitively through one.
        let forced_spec: Vec<&Class> = merged
            .specialization_pairs()
            .filter(|(sub, sup)| {
                target.contains_class(sub)
                    && target.contains_class(sup)
                    && !target.specializes(sub, sup)
            })
            .map(|(sub, _)| sub)
            .collect();
        if !forced_spec.is_empty() {
            diagnostics.push(
                Diagnostic::info(
                    "I-TARGET-SPEC",
                    format!(
                        "merge added {} specialization(s) between classes of \
                         target '{target_name}'",
                        forced_spec.len()
                    ),
                )
                .with_classes(forced_spec.iter().take(SHOWN).map(|&sub| sub.clone())),
            );
        }
        // Arrows added to target classes (implicit targets are reported
        // separately below — their origin sets name what forced them).
        let forced_arrows: Vec<&Class> = merged
            .arrow_triples()
            .filter(|(src, label, tgt)| {
                tgt.origin().is_none()
                    && target.contains_class(src)
                    && !target.has_arrow(src, label, tgt)
            })
            .map(|(src, _, _)| src)
            .collect();
        if !forced_arrows.is_empty() {
            diagnostics.push(
                Diagnostic::info(
                    "I-TARGET-ARROW",
                    format!(
                        "merge added {} arrow(s) to classes of target '{target_name}'",
                        forced_arrows.len()
                    ),
                )
                .with_classes(forced_arrows.iter().take(SHOWN).map(|&src| src.clone())),
            );
        }
        // Implicit classes whose member sets reach into the target.
        let entangled: Vec<&Class> = implicit
            .implicit
            .iter()
            .filter(|info| {
                info.members
                    .iter()
                    .any(|member| target.contains_class(member))
            })
            .map(|info| &info.class)
            .collect();
        if !entangled.is_empty() {
            diagnostics.push(
                Diagnostic::info(
                    "I-TARGET-IMPLICIT",
                    format!(
                        "completion introduced {} implicit class(es) below \
                         classes of target '{target_name}'",
                        entangled.len()
                    ),
                )
                .with_classes(entangled.iter().take(SHOWN).map(|&class| class.clone())),
            );
        }
        if diagnostics.is_empty() {
            diagnostics.push(Diagnostic::info(
                "I-TARGET-PRESERVED",
                format!(
                    "merge preserved the hierarchy of target '{target_name}': \
                     no foreign specializations, arrows or implicit classes"
                ),
            ));
        }
        diagnostics
    }

    /// The diagnostics of an upper merge whose completed schema is
    /// `merged` with implicit-class table `implicit`.
    fn upper_diagnostics(
        &self,
        plan: &MergePlan,
        merged: &WeakSchema,
        implicit: &CompletionReport,
    ) -> Vec<Diagnostic> {
        let mut diagnostics = self.input_diagnostics();
        diagnostics.extend(self.target_diagnostics(merged, implicit));
        if plan.reuses_base {
            diagnostics.push(Diagnostic::info(
                "I-BASE-REUSED",
                format!(
                    "reused cached compiled input(s) of {} classes; only {} input(s) interned",
                    plan.base_classes,
                    plan.num_inputs + plan.num_assertions
                ),
            ));
        }
        if implicit.num_implicit() > 0 {
            diagnostics.push(
                Diagnostic::info(
                    "I-IMPLICIT-CLASSES",
                    format!(
                        "completion introduced {} implicit class(es)",
                        implicit.num_implicit()
                    ),
                )
                .with_classes(implicit.implicit.iter().map(|info| info.class.clone())),
            );
        }
        diagnostics
    }

    fn input_diagnostics(&self) -> Vec<Diagnostic> {
        self.inputs
            .iter()
            .enumerate()
            .filter(|(_, input)| input.kind.weak().num_classes() == 0)
            .map(|(index, input)| {
                Diagnostic::warning(
                    "W-EMPTY-INPUT",
                    "input schema contributes no classes to the merge",
                )
                .with_input(index, input.name.as_deref())
            })
            .collect()
    }
}

impl fmt::Debug for Merger<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Merger")
            .field("inputs", &self.inputs.len())
            .field("assertions", &self.assertions.len())
            .field("bases", &self.bases.len())
            .field("lower", &self.lower)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::Class;

    fn c(s: &str) -> Class {
        Class::named(s)
    }

    fn dogs() -> (WeakSchema, WeakSchema) {
        let g1 = WeakSchema::builder()
            .arrow("Dog", "license", "int")
            .arrow("Dog", "owner", "Person")
            .build()
            .unwrap();
        let g2 = WeakSchema::builder()
            .arrow("Dog", "name", "string")
            .specialize("Guide-dog", "Dog")
            .build()
            .unwrap();
        (g1, g2)
    }

    #[test]
    fn plan_resolves_engine_and_passes() {
        let (g1, g2) = dogs();
        let merger = Merger::new().schema(&g1).schema(&g2);
        let plan = merger.plan();
        assert_eq!(plan.engine, PlannedEngine::Compiled);
        assert_eq!(plan.mode, MergeMode::Upper);
        assert_eq!(plan.passes, vec![MergePass::Join, MergePass::Completion]);
        assert_eq!(plan.num_inputs, 2);
        assert!(!plan.reuses_base);
        assert!(plan.estimated_classes >= 4);

        let rel = ConsistencyRelation::assume_consistent();
        let merger = Merger::new().schema(&g1).with_consistency(&rel).with_keys(
            "Dog",
            SuperkeyFamily::single(crate::keys::KeySet::new(["license"])),
        );
        let plan = merger.plan();
        assert_eq!(plan.engine, PlannedEngine::Compiled);
        assert_eq!(
            plan.passes,
            vec![
                MergePass::Join,
                MergePass::Completion,
                MergePass::ConsistencyCheck,
                MergePass::KeyAssignment
            ]
        );
    }

    #[test]
    fn plan_display_is_stable() {
        let (g1, g2) = dogs();
        let plan = Merger::new()
            .schema(&g1)
            .schema(&g2)
            .assert_specialization("Puppy", "Dog")
            .plan();
        let text = plan.to_string();
        assert_eq!(
            text,
            "plan: upper merge, engine=compiled, inputs=2 (+1 assertions)\n\
             passes: join -> completion\n\
             estimated work: <= 8 classes, <= 4 arrows, <= 2 spec pairs (14 work units)"
        );
    }

    #[test]
    fn execute_matches_reference_merge() {
        let (g1, g2) = dogs();
        let report = Merger::new().schema(&g1).schema(&g2).execute().unwrap();
        let expected = crate::reference::merge([&g1, &g2]).unwrap();
        assert_eq!(report.proper, expected.proper);
        assert!(
            report.weak.is_none(),
            "the compiled engine never materializes the join"
        );
        assert_eq!(report.weak().unwrap().as_ref(), &expected.weak);
        assert_eq!(report.implicit, expected.report);
        assert!(report.compiled.is_some());
    }

    #[test]
    fn symbolic_and_onto_base_configurations_agree() {
        let (g1, g2) = dogs();
        let g3 = WeakSchema::builder()
            .arrow("Dog", "owner", "Company")
            .build()
            .unwrap();
        // The symbolic side is the retained reference merge.
        let expected = crate::reference::merge([&g1, &g2, &g3]).unwrap();

        let base = Merger::new().schemas([&g1, &g2]).join().unwrap();
        let onto = Merger::new()
            .onto_base(&base)
            .schema(&g3)
            .execute()
            .unwrap();
        assert!(onto.plan.reuses_base);
        assert_eq!(onto.proper, expected.proper);
        assert_eq!(onto.implicit, expected.report);
        assert!(onto.weak.is_none(), "onto-base skips the symbolic join");
        // Compiled inputs join like any other: two cached joins and no
        // symbolic input run the join pass.
        let g3_join = Merger::new().schema(&g3).join().unwrap();
        let both = Merger::new()
            .onto_base(&base)
            .onto_base(&g3_join)
            .execute()
            .unwrap();
        assert!(both.plan.reuses_base);
        assert_eq!(
            both.plan.base_classes,
            base.num_classes() + g3_join.num_classes()
        );
        assert_eq!(both.plan.passes[0], MergePass::Join);
        assert_eq!(both.proper, expected.proper);
        assert_eq!(both.implicit, expected.report);
        // An annotated input joins onto the base like any other.
        let g3_annotated = AnnotatedSchema::all_required(g3.clone());
        let annotated_onto = Merger::new()
            .onto_base(&base)
            .with_participation(&g3_annotated)
            .execute()
            .unwrap();
        assert!(annotated_onto.plan.reuses_base);
        assert_eq!(annotated_onto.proper, expected.proper);
        assert!(
            annotated_onto
                .diagnostics
                .iter()
                .any(|d| d.code() == "I-BASE-REUSED"),
            "the annotated plan joins onto the base without walking it"
        );
    }

    #[test]
    fn base_only_plan_skips_the_join_pass() {
        let (g1, g2) = dogs();
        let base = Merger::new().schemas([&g1, &g2]).join().unwrap();
        let merger = Merger::new().onto_base(&base);
        let plan = merger.plan();
        assert!(plan.reuses_base);
        assert_eq!(
            plan.passes,
            vec![MergePass::Completion],
            "the base IS the join; no join pass runs or is reported"
        );
        let report = merger.execute().unwrap();
        assert_eq!(report.plan, plan);
        assert!(
            report.compiled.is_none(),
            "the caller already holds the base"
        );
        assert_eq!(
            report.proper,
            Merger::new().schemas([&g1, &g2]).execute().unwrap().proper
        );
    }

    #[test]
    fn assertions_merge_like_elementary_schemas() {
        let (g1, g2) = dogs();
        let report = Merger::new()
            .schema(&g1)
            .schema(&g2)
            .assert_specialization("Puppy", "Dog")
            .assert_arrow("Dog", "chip", "Chip")
            .execute()
            .unwrap();
        assert!(report.proper.specializes(&c("Puppy"), &c("Dog")));
        assert!(report
            .proper
            .has_arrow(&c("Puppy"), &Label::new("chip"), &c("Chip")));
    }

    #[test]
    fn incompatibility_is_reported_with_witness() {
        let up = WeakSchema::builder().specialize("A", "B").build().unwrap();
        let down = WeakSchema::builder().specialize("B", "A").build().unwrap();
        let err = Merger::new()
            .schema(&up)
            .schema(&down)
            .execute()
            .unwrap_err();
        match err {
            MergeError::Incompatible(witness) => {
                assert_eq!(witness.path.first(), witness.path.last());
            }
            other => panic!("expected incompatibility, got {other}"),
        }
    }

    #[test]
    fn consistency_pass_vetoes_identifications() {
        let g = WeakSchema::builder()
            .arrow("C", "a", "B1")
            .arrow("C", "a", "B2")
            .build()
            .unwrap();
        let mut rel = ConsistencyRelation::assume_consistent();
        rel.declare_inconsistent(c("B1"), c("B2"));
        let err = Merger::new()
            .schema(&g)
            .with_consistency(&rel)
            .execute()
            .unwrap_err();
        assert!(matches!(err, MergeError::Inconsistent { .. }));
        // Same merger without the veto succeeds and reports the implicit
        // class as a diagnostic.
        let report = Merger::new().schema(&g).execute().unwrap();
        assert_eq!(report.implicit.num_implicit(), 1);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code() == "I-IMPLICIT-CLASSES"));
    }

    #[test]
    fn keys_pass_computes_minimal_satisfactory_assignment() {
        let (g1, g2) = dogs();
        let report = Merger::new()
            .schema(&g1)
            .schema(&g2)
            .with_keys(
                "Dog",
                SuperkeyFamily::single(crate::keys::KeySet::new(["license"])),
            )
            .execute()
            .unwrap();
        assert!(report
            .keys
            .family(&c("Guide-dog"))
            .is_superkey(&crate::keys::KeySet::new(["license"])));
    }

    #[test]
    fn participation_flows_through_upper_merge() {
        let site_a = AnnotatedSchema::builder()
            .arrow("Dog", "license", "int")
            .optional_arrow("Dog", "chip", "Chip")
            .build()
            .unwrap();
        let site_b = AnnotatedSchema::builder()
            .optional_arrow("Dog", "chip", "Chip")
            .build()
            .unwrap();
        let report = Merger::new()
            .with_participation(&site_a)
            .with_participation(&site_b)
            .execute()
            .unwrap();
        let annotated = report.annotated.expect("annotated inputs produce one");
        assert_eq!(
            annotated.participation(&c("Dog"), &Label::new("chip"), &c("Chip")),
            crate::participation::Participation::ZeroOrOne
        );
        assert_eq!(
            annotated.participation(&c("Dog"), &Label::new("license"), &c("int")),
            crate::participation::Participation::One
        );
        assert!(report
            .plan
            .passes
            .contains(&MergePass::ParticipationTransfer));
    }

    #[test]
    fn lower_mode_produces_union_classes() {
        let a = AnnotatedSchema::builder()
            .arrow("Pet", "home", "House")
            .build()
            .unwrap();
        let b = AnnotatedSchema::builder()
            .arrow("Pet", "home", "Kennel")
            .build()
            .unwrap();
        let report = Merger::new()
            .with_participation(&a)
            .with_participation(&b)
            .lower()
            .execute()
            .unwrap();
        assert_eq!(report.plan.mode, MergeMode::Lower);
        let lower = report.lower.expect("lower mode fills the union report");
        assert_eq!(lower.unions.len(), 1);
        assert!(report.annotated.is_some());
        let expected = {
            let merged = lower_merge([&a, &b]);
            lower_complete(&merged).unwrap().1
        };
        assert_eq!(report.proper, expected);
    }

    #[test]
    fn lower_mode_warns_about_ignored_consistency() {
        let a = AnnotatedSchema::builder()
            .arrow("Pet", "home", "House")
            .build()
            .unwrap();
        let rel = ConsistencyRelation::assume_consistent();
        let report = Merger::new()
            .with_participation(&a)
            .with_consistency(&rel)
            .lower()
            .execute()
            .unwrap();
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code() == "W-CONSISTENCY-IGNORED"));
    }

    #[test]
    fn provenance_records_names_and_shapes() {
        let (g1, g2) = dogs();
        let empty = WeakSchema::empty();
        let report = Merger::new()
            .schema_named("municipal", &g1)
            .schema(&g2)
            .schema_named("void", &empty)
            .execute()
            .unwrap();
        assert_eq!(report.provenance.len(), 3);
        assert_eq!(report.provenance[0].name.as_deref(), Some("municipal"));
        assert_eq!(report.provenance[0].content_hash, Some(g1.content_hash()));
        assert_eq!(report.provenance[1].name, None);
        assert_eq!(
            report.provenance[1].content_hash, None,
            "anonymous inputs skip the hashing walk"
        );
        let warning = report
            .diagnostics
            .iter()
            .find(|d| d.code() == "W-EMPTY-INPUT")
            .expect("empty input warned about");
        assert_eq!(warning.origin.input, Some(2));
        assert_eq!(warning.origin.input_name.as_deref(), Some("void"));
    }

    #[test]
    fn join_returns_both_representations() {
        let (g1, g2) = dogs();
        let expected = crate::reference::weak_join_all([&g1, &g2]).unwrap();

        // The join is compiled; the symbolic join is its decompilation.
        let joined = Merger::new().schema(&g1).schema(&g2).join().unwrap();
        let weak = joined.decompile();
        assert_eq!(weak, expected);

        // So is the onto-base join.
        let base = Merger::new().schema(&g1).join().unwrap();
        let onto = Merger::new().onto_base(&base).schema(&g2).join().unwrap();
        assert_eq!(onto.decompile(), weak);
    }

    #[test]
    fn report_summary_is_deterministic() {
        let g1 = WeakSchema::builder().arrow("C", "a", "B1").build().unwrap();
        let g2 = WeakSchema::builder().arrow("C", "a", "B2").build().unwrap();
        let report = Merger::new()
            .schema_named("one", &g1)
            .schema_named("two", &g2)
            .execute()
            .unwrap();
        assert_eq!(
            report.summary(),
            "plan: upper merge, engine=compiled, inputs=2\n\
             passes: join -> completion\n\
             estimated work: <= 4 classes, <= 2 arrows, <= 0 spec pairs (6 work units)\n\
             result: 4 classes, 3 arrows, 2 specializations, 1 implicit\n\
             implicit: {B1,B2} demanded by C --a-->\n\
             info[I-IMPLICIT-CLASSES]: completion introduced 1 implicit class(es) (classes: {B1,B2})\n"
        );
    }

    #[test]
    fn empty_merger_produces_the_empty_merge() {
        let report = Merger::new().execute().unwrap();
        assert_eq!(report.proper.num_classes(), 0);
        assert_eq!(report.weak().unwrap().as_ref(), &WeakSchema::empty());
    }

    /// A branchy NFA-shaped schema: few classes and arrows, but every
    /// `(class, label)` pair has two targets.
    fn branchy(n: usize) -> WeakSchema {
        let mut builder = WeakSchema::builder();
        for i in 0..n {
            for label in ["zero", "one"] {
                builder = builder
                    .arrow(format!("S{i}"), label, format!("S{}", (i + 1) % n))
                    .arrow(format!("S{i}"), label, format!("S{}", (i + 2) % n));
            }
        }
        builder.build().unwrap()
    }

    #[test]
    fn work_estimate_weighs_closure_density_not_just_size() {
        // A pathological NFA shape: tiny by raw counts, exponential by
        // fixpoint. The old estimate (raw classes + arrows) ranked it
        // below a plain 100-class schema; the density-aware one must not.
        let nfa = branchy(12);
        let mut plain_builder = WeakSchema::builder();
        for i in 0..100 {
            plain_builder = plain_builder.arrow(format!("C{i}"), format!("f{i}"), "T");
        }
        let plain = plain_builder.build().unwrap();

        let nfa_plan = Merger::new().schema(&nfa).plan();
        let plain_plan = Merger::new().schema(&plain).plan();
        assert!(nfa_plan.estimated_classes < plain_plan.estimated_classes);
        assert!(
            nfa_plan.work_units() > plain_plan.work_units(),
            "branching must dominate raw size: {} vs {}",
            nfa_plan.work_units(),
            plain_plan.work_units()
        );
    }

    #[test]
    fn assertions_bridge_partition_components() {
        // Three families (`A*`, `B*`, `C*`) with no edges between them,
        // the `B` family branching enough to demand an implicit class.
        // An assertion relates classes like any other input, so a
        // specialization between the A and B families joins their
        // components — and the merged result must reflect the bridge.
        let g1 = WeakSchema::builder()
            .specialize("A1", "A0")
            .arrow("A0", "f", "A2")
            .arrow("B0", "g", "B1")
            .arrow("B0", "g", "B2")
            .build()
            .unwrap();
        let g2 = WeakSchema::builder()
            .specialize("A2", "A1")
            .arrow("B0", "g", "B3")
            .arrow("C0", "h", "C1")
            .build()
            .unwrap();
        let bridge = WeakSchema::builder()
            .specialize("B0", "A0")
            .build()
            .unwrap();
        let expected = crate::reference::merge([&g1, &g2, &bridge]).unwrap();
        let report = Merger::new()
            .schemas([&g1, &g2])
            .assert_specialization("B0", "A0")
            .execute()
            .unwrap();
        assert_eq!(report.proper, expected.proper);
        assert_eq!(report.implicit, expected.report);
        assert!(report.implicit.num_implicit() > 0);
        assert!(report.proper.specializes(&c("B0"), &c("A0")));
    }

    #[test]
    fn work_estimate_weighs_excess_by_row_population_not_dense_width() {
        // A 3k-class taxonomy shape: shallow closure (about one closed
        // ancestor per class), mild arrow branching. The old mild-excess
        // weight was the dense row width (`classes`), pushing this to
        // 1.5M work units; the adaptive-row weight is the average
        // closed-row population, keeping the estimate honest.
        const MODEST: u64 = 10_000;
        let (g1, _) = dogs();
        let mut plan = Merger::new().schema(&g1).plan();
        plan.estimated_classes = 3_000;
        plan.estimated_spec_pairs = 2_000;
        plan.estimated_arrows = 2_200;
        plan.estimated_arrow_pairs = 1_700; // excess 500, mild: 2*500 < 1700
        assert!(
            plan.work_units() < MODEST,
            "a sparse taxonomy is a modest merge: {}",
            plan.work_units()
        );
        let dense_width_estimate = 3_000u64 * 500;
        assert!(
            dense_width_estimate >= MODEST,
            "the regression this guards against: the dense-width weight over-routed"
        );
    }

    #[test]
    fn target_mode_reports_forced_additions() {
        let target = WeakSchema::builder()
            .specialize("Dog", "Animal")
            .class("Cat")
            .arrow("Dog", "name", "string")
            .arrow("Dog", "friend", "Dog")
            .build()
            .unwrap();
        let other = WeakSchema::builder()
            .specialize("Cat", "Animal")
            .arrow("Dog", "age", "int")
            .arrow("Dog", "friend", "Cat")
            .build()
            .unwrap();
        let report = Merger::new()
            .schema_named("zoo", &target)
            .schema(&other)
            .prefer_hierarchy("zoo")
            .execute()
            .unwrap();
        let code = |c: &str| report.diagnostics.iter().find(|d| d.code() == c).cloned();
        let spec = code("I-TARGET-SPEC").expect("Cat <= Animal was forced");
        assert!(spec.to_string().contains("1 specialization(s)"), "{spec}");
        let arrow = code("I-TARGET-ARROW").expect("Dog.age was forced");
        assert!(arrow.to_string().contains("arrow(s)"), "{arrow}");
        assert!(
            code("I-TARGET-IMPLICIT").is_some(),
            "friend branching entangles Dog and Cat in an implicit class"
        );
        assert!(code("I-TARGET-PRESERVED").is_none());
        // The preference never changes the result itself.
        let plain = Merger::new().schemas([&target, &other]).execute().unwrap();
        assert_eq!(report.proper, plain.proper);
    }

    #[test]
    fn target_mode_preserved_unknown_and_lower() {
        let (g1, _) = dogs();
        let subset = WeakSchema::builder()
            .arrow("Dog", "license", "int")
            .build()
            .unwrap();
        let report = Merger::new()
            .schema_named("registry", &g1)
            .schema(&subset)
            .prefer_hierarchy("registry")
            .execute()
            .unwrap();
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code() == "I-TARGET-PRESERVED"),
            "a subschema forces nothing onto the target"
        );

        let report = Merger::new()
            .schema(&g1)
            .prefer_hierarchy("nope")
            .execute()
            .unwrap();
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code() == "W-TARGET-UNKNOWN"));

        let report = Merger::new()
            .schema_named("registry", &g1)
            .schema(&subset)
            .prefer_hierarchy("registry")
            .lower()
            .execute()
            .unwrap();
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code() == "W-TARGET-IGNORED"));
    }

    #[test]
    fn untraced_merges_carry_no_trace() {
        let (g1, g2) = dogs();
        let report = Merger::new().schema(&g1).schema(&g2).execute().unwrap();
        assert!(report.trace.is_none());
    }

    #[test]
    fn traced_merge_emits_one_span_per_executed_pass() {
        let (g1, g2) = dogs();
        let rel = ConsistencyRelation::assume_consistent();
        let merger = Merger::new()
            .schema(&g1)
            .schema(&g2)
            .with_consistency(&rel)
            .with_keys(
                "Dog",
                SuperkeyFamily::single(crate::keys::KeySet::new(["license"])),
            )
            .trace(true);
        let plan = merger.plan();
        let report = merger.execute().unwrap();
        let trace = report.trace.as_ref().expect("trace requested");
        let root = trace.root().expect("a merge root span");
        assert!(root.parent.is_none());
        assert!(
            root.attrs.iter().any(|&(key, v)| key == "inputs" && v == 2),
            "{root:?}"
        );
        // One span per planned pass, named by `MergePass::as_str`, all
        // children of the root.
        for pass in &plan.passes {
            let span = trace
                .spans
                .iter()
                .find(|span| span.name == pass.as_str())
                .unwrap_or_else(|| panic!("no span for pass {pass}: {:?}", trace.spans));
            assert_eq!(span.parent, Some(root.id), "pass {pass} hangs off the root");
        }
        // Pass durations are contained in the root's wall-clock window.
        let pass_total: u64 = trace.phase_ns().iter().map(|(_, ns)| ns).sum();
        assert!(
            pass_total <= root.duration_ns,
            "pass total {pass_total} exceeds root {}",
            root.duration_ns
        );
        // The join span carries work attrs.
        let join = trace.spans.iter().find(|s| s.name == "join").unwrap();
        assert!(join.attrs.iter().any(|&(key, _)| key == "classes"));
        // The rendering is a tree rooted at `merge`.
        let rendered = trace.render();
        assert!(rendered.starts_with("merge "), "{rendered}");
        assert!(rendered.contains("\n  join "), "{rendered}");
        assert!(rendered.contains("\n  completion "), "{rendered}");
    }

    #[test]
    fn tracing_never_changes_the_result() {
        // The differential guarantee: a traced merge and an untraced
        // merge produce bit-identical reports (modulo the trace itself).
        let (g1, g2) = dogs();
        let g3 = WeakSchema::builder()
            .arrow("Dog", "owner", "Company")
            .specialize("Puppy", "Dog")
            .build()
            .unwrap();
        let merger = Merger::new().schemas([&g1, &g2, &g3]);
        let plain = merger.execute().unwrap();
        let traced = merger.trace(true).execute().unwrap();
        assert_eq!(plain.proper, traced.proper);
        assert_eq!(plain.weak, traced.weak);
        assert_eq!(plain.implicit, traced.implicit);
        assert_eq!(plain.keys, traced.keys);
        assert_eq!(plain.provenance, traced.provenance);
        assert_eq!(plain.plan, traced.plan);
        assert_eq!(plain.summary(), traced.summary());
        assert!(plain.trace.is_none());
        assert!(traced.trace.is_some());
    }

    #[test]
    fn traced_lower_merge_spans_lower_completion() {
        let (g1, g2) = dogs();
        let report = Merger::new()
            .schemas([&g1, &g2])
            .lower()
            .trace(true)
            .execute()
            .unwrap();
        let trace = report.trace.as_ref().expect("trace requested");
        assert!(trace.spans.iter().any(|s| s.name == "join"));
        assert!(trace.spans.iter().any(|s| s.name == "lower-completion"));
    }
}
