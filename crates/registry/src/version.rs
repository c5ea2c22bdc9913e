//! Immutable, content-hashed schema versions.

use std::collections::BTreeMap;
use std::sync::Arc;

use schema_merge_core::WeakSchema;

use crate::storage::snapshot::VersionMeta;

/// A member's version together with its schema body — what
/// [`crate::Registry::get`] returns for the current version. Versions
/// are immutable: publishing new content appends a new version, it never
/// rewrites an old one. The registry keeps the body of each member's
/// current version only; once a version is superseded the registry keeps
/// just its [`VersionMeta`]. A client holding a `SchemaVersion` (and so
/// an `Arc` on its body) can keep reading it while the registry moves on.
#[derive(Debug, Clone)]
pub struct SchemaVersion {
    /// The canonical content hash ([`WeakSchema::content_hash`]) — the
    /// version's identity. Publishing content with the hash of the
    /// current version is a no-op.
    pub hash: u64,
    /// 1-based position in the member's version history.
    pub sequence: u32,
    /// The registry generation at which this version was committed.
    pub generation: u64,
    /// The schema itself (shared, never mutated).
    pub schema: Arc<WeakSchema>,
}

impl SchemaVersion {
    /// This version's identity, without its body.
    pub fn meta(&self) -> VersionMeta {
        VersionMeta {
            hash: self.hash,
            sequence: self.sequence,
            generation: self.generation,
        }
    }
}

/// A member's row in [`crate::Registry::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberInfo {
    /// The member name.
    pub name: String,
    /// Content hash of the current version.
    pub hash: u64,
    /// Sequence number of the current version.
    pub sequence: u32,
    /// How many versions the member has published.
    pub versions: usize,
    /// Classes in the current version.
    pub num_classes: usize,
    /// Arrows (closed) in the current version.
    pub num_arrows: usize,
}

/// The per-member record: an append-only history of version identities,
/// and the body of the current version only.
#[derive(Debug, Clone)]
pub(crate) struct MemberRecord {
    /// Every published version, oldest first; the last is `current`'s.
    pub(crate) history: Vec<VersionMeta>,
    pub(crate) current: SchemaVersion,
}

/// Makes `version` member `name`'s current version, creating the member
/// if it is new. The version it supersedes keeps only its metadata.
pub(crate) fn publish(
    members: &mut BTreeMap<String, MemberRecord>,
    name: &str,
    version: SchemaVersion,
) {
    match members.get_mut(name) {
        Some(record) => {
            record.history.push(version.meta());
            record.current = version;
        }
        None => {
            members.insert(
                name.to_string(),
                MemberRecord {
                    history: vec![version.meta()],
                    current: version,
                },
            );
        }
    }
}
