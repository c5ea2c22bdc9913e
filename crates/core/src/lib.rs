//! # schema-merge-core
//!
//! An implementation of the schema-merging calculus of **Buneman, Davidson
//! & Kosky, *Theoretical Aspects of Schema Merging*, EDBT 1992**.
//!
//! Database schemas are directed graphs over classes with labelled
//! *arrow* ("attribute of") edges and a *specialization* ("isa") partial
//! order. Placing schemas in an information ordering with bounded joins
//! makes the merge a **least upper bound**: associative, commutative and
//! independent of the order in which schemas — or user assertions — are
//! considered. The calculus proceeds in two steps:
//!
//! 1. the weak join computes the least upper bound of compatible
//!    [`WeakSchema`]s (§4.1);
//! 2. [`complete::complete`] turns the result into a [`ProperSchema`] by
//!    introducing *implicit classes* below incomparable arrow targets
//!    (§4.2), named by their origin set (`{C,D}`).
//!
//! **Every merge goes through one façade: the [`merger::Merger`]
//! builder.** It collects inputs (schemas, annotated schemas, §3 user
//! assertions, an optional cached compiled base), constraints
//! (§4.2 consistency relation, §5 key contributions) and preferences
//! (engine, upper vs §6 lower mode), produces an inspectable
//! [`merger::MergePlan`], and executes into a unified
//! [`merger::MergeReport`] — merged schema, implicit-class table, key
//! assignment, per-input provenance and structured
//! [`diagnostic::Diagnostic`]s with stable codes. The CLI, the `smerge
//! serve` daemon, the registry's incremental re-merge and the benchmark
//! suite all construct `Merger`s, so one code path carries all traffic.
//!
//! Around the façade the crate provides: key constraints with the unique
//! minimal satisfactory assignment (§5, [`keys`]), participation
//! constraints and greatest-lower-bound *lower merges* (§6, [`lower`]),
//! consistency-relation checks (§4.2, [`consistency`]), an interactive
//! [`merge::MergeSession`] (an incremental `Merger` holding its running
//! join compiled), and alpha-isomorphism for comparing results modulo
//! implicit-class naming ([`iso`]).
//!
//! Internally every hot path runs on the **compiled schema core**
//! ([`compile`]): classes and labels are interned to dense `u32` ids,
//! the specialization closure lives in bitset rows and arrows in CSR
//! adjacency. An upper merge runs the compiled id-space pipeline on the
//! calling thread: one join over any mix of symbolic schemas (interned)
//! and cached compiled joins (remapped, never decompiled), then the
//! id-space completion. The retained symbolic algorithms of
//! [`reference`](mod@crate::reference) are kept for differential testing,
//! and every path produces equal results.
//!
//! ## Quick example
//!
//! ```
//! use schema_merge_core::prelude::*;
//!
//! // One database knows dogs by license, the other by name.
//! let g1 = WeakSchema::builder()
//!     .arrow("Dog", "license", "int")
//!     .arrow("Dog", "owner", "Person")
//!     .build()?;
//! let g2 = WeakSchema::builder()
//!     .arrow("Dog", "name", "string")
//!     .specialize("Guide-dog", "Dog")
//!     .build()?;
//!
//! let report = Merger::new().schema(&g1).schema(&g2).execute()?;
//! let dog = Class::named("Dog");
//! assert_eq!(report.proper.labels_of(&dog).len(), 3);
//! assert!(report.proper.specializes(&Class::named("Guide-dog"), &dog));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod class;
pub mod compile;
pub mod complete;
pub mod compose;
pub mod consistency;
pub mod diagnostic;
pub mod diff;
pub mod error;
pub mod functional;
pub mod iso;
pub mod keys;
pub mod lower;
pub mod merge;
pub mod merger;
pub mod name;
mod order;
pub mod participation;
pub mod proper;
pub mod reference;
pub mod rename;
pub mod restructure;
pub mod row;
mod scratch;
pub mod weak;

pub use class::{Class, OriginSet};
pub use compile::{ClassId, CompiledSchema, LabelId};
pub use complete::{complete, complete_with_report, CompletionReport, ImplicitClassInfo};
pub use compose::ComposeProvenance;
pub use consistency::ConsistencyRelation;
pub use diagnostic::{Diagnostic, DiagnosticOrigin, Severity};
pub use diff::{diff, merge_contribution, SchemaDiff};
pub use error::{CycleWitness, MergeError, SchemaError};
pub use functional::{merge_functional, FunctionalSchema, Valence};
pub use keys::{KeyAssignment, KeySet, SuperkeyFamily};
pub use lower::{
    annotated_join, lower_complete, lower_merge, AnnotatedSchema, LowerCompletionReport,
};
pub use merge::{are_compatible, weak_join, MergeOutcome, MergeSession};
pub use merger::{
    InputProvenance, Joined, MergeMode, MergePass, MergePlan, MergeReport, MergeTrace, Merger,
    PlannedEngine,
};
pub use name::{Label, Name};
pub use participation::Participation;
pub use proper::ProperSchema;
pub use rename::{
    homonym_candidates, synonym_candidates, HomonymCandidate, RenameReport, Renaming,
    SynonymCandidate,
};
pub use restructure::{
    flatten_class, is_flattenable, reify_arrow, RestructureError, RestructureOp, Restructuring,
};
pub use weak::{SchemaBuilder, WeakSchema};

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::class::Class;
    pub use crate::compile::CompiledSchema;
    pub use crate::complete::complete;
    pub use crate::consistency::ConsistencyRelation;
    pub use crate::diagnostic::{Diagnostic, Severity};
    pub use crate::error::{MergeError, SchemaError};
    pub use crate::keys::{KeyAssignment, KeySet, SuperkeyFamily};
    pub use crate::lower::{lower_complete, lower_merge, AnnotatedSchema};
    pub use crate::merge::{weak_join, MergeSession};
    pub use crate::merger::{MergePlan, MergeReport, Merger};
    pub use crate::name::{Label, Name};
    pub use crate::participation::Participation;
    pub use crate::proper::ProperSchema;
    pub use crate::rename::Renaming;
    pub use crate::restructure::Restructuring;
    pub use crate::weak::WeakSchema;
}
