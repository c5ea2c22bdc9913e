//! # schema-merge-registry
//!
//! A concurrent, versioned, durable schema registry with an incremental
//! merge engine — the paper's merge run as a *service*.
//!
//! Because the upper merge is a least upper bound — associative,
//! commutative, idempotent (§4.1) — it is the ideal backbone for a
//! long-lived registry: clients publish schema versions independently,
//! in any order, and the registry maintains the one canonical merged
//! view they all agree on. This is the supergraph-composition shape of
//! federated schema registries: each *member* (a team, a data source, a
//! subgraph) owns its piece; the registry owns the merge.
//!
//! The crate provides:
//!
//! * [`Registry`] — the engine. Named members hold histories of
//!   content-hashed immutable versions ([`VersionMeta`]) and the body of
//!   the current one ([`SchemaVersion`]); a generation-stamped merged
//!   view sits behind an `RwLock`, so reads are Arc clones, and writers
//!   run one at a time in a writer lane that takes the write lock only
//!   to install a commit — never across a merge, an fsync or a snapshot.
//! * **Incremental re-merge** ([`cache::JoinState`]) — one step
//!   function keeps the join of a keyed set current by associativity
//!   (`⊔ᵢGᵢ = (⊔ᵢ≠ₖGᵢ) ⊔ Gₖ`): each layer holds, in its committed state,
//!   the compiled total its last step produced and the join of all but
//!   the key that step changed; the next step joins its one changed
//!   input onto whichever of those covers exactly the rest, and joins
//!   cold when neither does. [`Registry::put`] and [`Registry::delete`]
//!   share one commit path on it; the federation layer
//!   (`crates/supergraph`) composes registries with the same step. The incremental result is always equal
//!   to the one-shot merge (differentially property-tested against
//!   `reference::merge`, and in every publication order).
//! * **Durability** ([`storage`]) — an append-only, checksummed,
//!   fsync'd write-ahead log of content-hashed put/delete records plus
//!   periodic compacting snapshots, behind the pluggable
//!   [`storage::Store`] trait ([`storage::LocalStore`] on a local
//!   directory now, an object-store-shaped surface later).
//!   `Registry::builder().data_dir(p).open()?` replays snapshot + WAL
//!   suffix on boot and recovers the exact generation lineage; the merge
//!   being deterministic, the recovered view is *equal* to the
//!   never-crashed one.
//! * **One status snapshot** — [`Registry::stats`] returns a
//!   [`RegistryStats`]: sizes and merged-view shape, held joins and
//!   merge counters, WAL and snapshot state, the resilience state (degraded
//!   flag, retry, degrade and heal counters, last storage error, fault
//!   counters) and the commit, fsync and recovery latency histograms.
//!   It is the registry's only status surface; the daemon's `STATS`,
//!   `HEALTH` and `METRICS` verbs all render from one call.
//! * Schema-space queries — [`Registry::query`] answers path queries
//!   ("which classes does `Dog.owner` reach?") against the merged view
//!   via [`schema_merge_instance::PathQuery::eval_classes`], no instance
//!   data required.
//!
//! The `smerge serve` daemon in `crates/cli` exposes all of this over a
//! line-oriented TCP protocol (`schema_merge_text::protocol`).
//!
//! ```
//! use schema_merge_core::WeakSchema;
//! use schema_merge_registry::Registry;
//!
//! let registry = Registry::new();
//! let inventory = WeakSchema::builder().arrow("Part", "price", "money").build()?;
//! let orders = WeakSchema::builder().arrow("Order", "item", "Part").build()?;
//! registry.put("inventory", inventory)?;
//! registry.put("orders", orders)?;
//!
//! let view = registry.merged();
//! assert_eq!(view.generation, 2);
//! assert_eq!(view.proper.num_classes(), 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod error;
pub mod registry;
pub mod resilience;
pub mod stats;
pub mod storage;
pub mod version;

pub use config::RegistryBuilder;
pub use error::RegistryError;
pub use registry::{DeleteOutcome, MergeStrategy, MergedView, PutOutcome, Registry, RegistryJoin};
pub use resilience::RetryPolicy;
pub use stats::RegistryStats;
pub use storage::snapshot::VersionMeta;
pub use version::{MemberInfo, SchemaVersion};
