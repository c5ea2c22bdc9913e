//! # schema-merge-workload
//!
//! Seeded synthetic workloads for the schema-merging benchmarks:
//!
//! * [`random_schema`] / [`schema_family`] — random weak schemas over a
//!   shared vocabulary, with tunable size and edge densities, always
//!   acyclic (and hence always mutually compatible);
//! * [`wide_family`] — many small member schemas over one vocabulary:
//!   the registry daemon's traffic shape, and the headline workload of
//!   the parallel merge engine;
//! * [`pathological_nfa`] — the worst-case family for completion: the
//!   `Imp` fixpoint is an NFA subset construction, so a hard NFA drives
//!   the implicit-class count exponential. This answers §7's open
//!   question 3 ("it may be possible to construct pathological examples
//!   in which the number of implicit classes is very large") in the
//!   affirmative, quantitatively;
//! * [`random_er_schema`] — random Entity–Relationship schemas for the
//!   model-preservation experiments;
//! * [`fn@taxonomy`] / [`taxonomy_family`] — 10k–100k-class taxonomy
//!   forests (deep trees, high fan-out, DAG multiple inheritance): the
//!   headline workload for the compiled engine's adaptive sparse row
//!   representation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conflicts;
pub mod er_gen;
pub mod pathological;
pub mod random;
pub mod taxonomy;

pub use conflicts::{conflicting_er_pair, reified_vs_direct_pair};
pub use er_gen::{random_er_schema, ErParams};
pub use pathological::{expected_pathological_implicit_classes, pathological_nfa};
pub use random::{random_schema, schema_family, wide_family, SchemaParams};
pub use taxonomy::{taxonomy, taxonomy_family, TaxonomyParams};
