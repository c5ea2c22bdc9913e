//! # schema-merge-supergraph
//!
//! Federation one level up: multiple [`schema_merge_registry::Registry`]
//! instances — each a full concurrent, versioned registry with its own
//! members, durability and incremental merge — attached under namespaces
//! and *composed* into one supergraph view.
//!
//! The theory is the same §4.1 least-upper-bound the whole workspace is
//! built on: the weak join is associative, so the merge of every member
//! schema of every registry equals the merge of each registry's own
//! join. That one law gives the federation everything:
//!
//! * **Composition is just merging** — the supergraph view is a
//!   [`Merger`](schema_merge_core::Merger) execution over the member
//!   registries' pre-completion joins, completed once. It is equal (not
//!   just isomorphic) to the one-shot merge of every underlying schema —
//!   differentially property-tested, including reports, provenance, and
//!   hints. A supergraph of one registry runs no merge at all: its
//!   composed view is that registry's committed view, the completion of
//!   the same join, shared with the registry down to its content hash.
//! * **Recomposition is incremental end-to-end** — each registry hands
//!   over the compiled join it holds and the view completed from it
//!   ([`Registry::compiled_join`]), and a compose of two or more
//!   registries is one
//!   [`JoinState::step`](schema_merge_registry::cache::JoinState::step),
//!   the step the registry commits with, with the registries' compiled
//!   joins as its parts, never decompiled: one registry's publish
//!   recomposes by remapping just that registry's join onto the join of
//!   the rest that the last compose left. Generations stamp every
//!   composed view.
//! * **Provenance crosses the federation** — every composed class,
//!   arrow and implicit class is attributed to namespaced
//!   `registry/member@vN` origin labels
//!   ([`ComposeProvenance`](schema_merge_core::ComposeProvenance)),
//!   computed on demand by [`ComposedView::origins`] from the member
//!   versions the view keeps; a compose never builds it.
//! * **Composition hints** — rover-style advisory diagnostics below
//!   informational noise ([`Severity::Hint`](schema_merge_core::Severity)):
//!   `H-COMPOSE-SPECIALIZATION` (subtyping no single registry declared),
//!   `H-COMPOSE-SPAN` (an implicit class whose constituents span
//!   registries), `H-COMPOSE-COLLISION` (member names shared across
//!   registries, resolved by namespacing). They are read off the
//!   registries' joins, which hold exactly the classes their members
//!   declare.
//! * **One status snapshot** — [`Supergraph::stats`] returns a
//!   [`SupergraphStats`]: the composed view's shape, compose counters, and the compose latency histogram. It is the supergraph's
//!   only status surface; the daemon's `METRICS` verb renders from it.
//!
//! The `smerge serve` daemon exposes the supergraph over the text
//! protocol (`ATTACH`/`DETACH`/`COMPOSE`/`SUPERGRAPH`, with
//! `registry/member` routing on `PUT`), and `smerge compose` runs a
//! one-shot composition offline.
//!
//! ```
//! use schema_merge_core::WeakSchema;
//! use schema_merge_supergraph::Supergraph;
//!
//! let supergraph = Supergraph::new();
//! let inventory = supergraph.attach_new("inventory")?;
//! let sales = supergraph.attach_new("sales")?;
//! inventory.put("parts", WeakSchema::builder().arrow("Part", "price", "money").build()?)?;
//! sales.put("orders", WeakSchema::builder().arrow("Order", "item", "Part").build()?)?;
//!
//! let outcome = supergraph.compose()?;
//! assert_eq!(outcome.view.proper().num_classes(), 3);
//! assert_eq!(
//!     outcome.view.origins().origins_of(&schema_merge_core::Class::named("Order")),
//!     ["sales/orders@v1"]
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`Registry::compiled_join`]: schema_merge_registry::Registry::compiled_join

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod supergraph;

pub use error::SupergraphError;
pub use supergraph::{ComposeOutcome, ComposedMember, ComposedView, Supergraph, SupergraphStats};
