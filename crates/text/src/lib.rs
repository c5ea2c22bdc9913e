//! # schema-merge-text
//!
//! The user-facing surface of the prototype (§1, §7): a textual schema
//! DSL with a hand-written lexer/parser, a canonical pretty-printer that
//! round-trips, and Graphviz/ASCII renderers standing in for the paper's
//! graphical interface.
//!
//! ```text
//! schema Dogs {
//!     class Kennel;
//!     Guide-dog => Dog;
//!     Dog --age--> int;
//!     Lives --occ?--> Dog;        // optional arrow (participation 0/1)
//!     key Dog {license};
//! }
//! ```
//!
//! Implicit classes print and parse as their origin sets: `{C,D}` (meet,
//! §4.2) and `{C|D}` (union, §6).
//!
//! [`parse_document`] returns each `schema` block as its own closed
//! schema, with its keys and optional arrows. [`parse_payload`] is the
//! daemon's `PUT` decoder: the weak join of all the blocks, computed as
//! one closure of their union, with the per-document errors. Both read
//! schema items through one grammar.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dot;
pub mod instance;
pub mod parse;
pub mod print;
pub mod protocol;
pub mod token;

pub use dot::{to_dot, DotOptions};
pub use instance::{parse_instance, parse_instances, print_instance, NamedInstance};
pub use parse::{
    parse_document, parse_payload, parse_schema, NamedSchema, ParseError, PayloadError,
};
pub use print::{print_document, print_schema, print_weak, render_ascii, write_weak};
pub use protocol::{
    encode_block, frame_block, parse_status_line, status_line, BlockCollector, Command,
    ProtocolError, Status,
};
