//! The snapshot format: one compacted image of the registry's durable
//! state at a generation.
//!
//! ```text
//! snapshot := magic:u64 version:u32 generation:u64 view_hash:u64
//!             blobs:u32   (hash:u64 schema)*
//!             members:u32 (name:str versions:u32 (hash:u64 seq:u32 gen:u64)*)*
//!             crc:u64     (FNV-1a 64 of everything before it)
//! ```
//!
//! The *blob table* holds the schema body of each member's current
//! version, once per content hash; version histories are metadata only
//! ([`VersionMeta`]) and reference bodies by hash. The merge reads only
//! current members and no verb serves a superseded body, so neither the
//! registry nor its snapshots keep one: after compaction (snapshot + log
//! truncation) each current body exists exactly once on disk, and
//! superseded ones are gone.
//!
//! Version 1 images carried the body of every version. They still decode
//! (the layout is the same); recovery keeps only the current bodies.
//! Both versions require a blob for each member's last version only.
//!
//! Snapshots are written to a fresh object and installed atomically (see
//! [`super::LocalStore`]), so unlike the WAL they are all-or-nothing: a
//! snapshot that fails its checksum is damage, not a crash artifact, and
//! decoding refuses it rather than guessing.

use std::collections::BTreeMap;
use std::sync::Arc;

use schema_merge_core::WeakSchema;

use super::codec::{fnv64, put_str, put_u32, put_u64, Reader};
use super::{codec, StorageError};

/// First eight bytes of a snapshot object.
pub(crate) const SNAPSHOT_MAGIC: u64 = 0x534d_4552_4745_534e; // "SMERGESN"
/// Format version of everything after the magic. Version 1 (every
/// version's body in the blob table) still decodes.
pub(crate) const SNAPSHOT_VERSION: u32 = 2;

/// The identity of one published member version, without its schema
/// body: what [`crate::Registry::history`] returns and what a snapshot
/// persists per version. Only a member's current version keeps a body
/// ([`crate::SchemaVersion`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionMeta {
    /// The canonical content hash of the version's schema.
    pub hash: u64,
    /// 1-based position in the member's version history.
    pub sequence: u32,
    /// The registry generation at which the version was committed.
    pub generation: u64,
}

/// The decoded durable state at a generation.
#[derive(Debug, Clone, Default)]
pub(crate) struct SnapshotState {
    /// The registry generation the snapshot captured.
    pub(crate) generation: u64,
    /// Content hash of the merged proper schema at that generation.
    pub(crate) view_hash: u64,
    /// The body of each member's current version, keyed by content hash.
    pub(crate) blobs: BTreeMap<u64, Arc<WeakSchema>>,
    /// Member name → full version history (metadata), oldest first.
    pub(crate) members: BTreeMap<String, Vec<VersionMeta>>,
}

/// Encodes a snapshot image (checksum included).
pub(crate) fn encode(state: &SnapshotState) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, SNAPSHOT_MAGIC);
    put_u32(&mut out, SNAPSHOT_VERSION);
    put_u64(&mut out, state.generation);
    put_u64(&mut out, state.view_hash);
    put_u32(&mut out, state.blobs.len() as u32);
    for (hash, schema) in &state.blobs {
        put_u64(&mut out, *hash);
        codec::put_schema(&mut out, schema);
    }
    put_u32(&mut out, state.members.len() as u32);
    for (name, versions) in &state.members {
        put_str(&mut out, name);
        put_u32(&mut out, versions.len() as u32);
        for v in versions {
            put_u64(&mut out, v.hash);
            put_u32(&mut out, v.sequence);
            put_u64(&mut out, v.generation);
        }
    }
    let crc = fnv64(&out);
    put_u64(&mut out, crc);
    out
}

/// Decodes and fully validates a snapshot image: magic, version,
/// trailing checksum, every blob's content hash against its key (the
/// schema bodies must actually be the content they claim), and a blob
/// for each member's current version.
pub(crate) fn decode(image: &[u8]) -> Result<SnapshotState, StorageError> {
    if image.len() < 8 {
        return Err(StorageError::corrupt(
            "snapshot shorter than its checksum".to_string(),
        ));
    }
    let (body, tail) = image.split_at(image.len() - 8);
    let stored_crc = u64::from_le_bytes(tail.try_into().unwrap());
    if fnv64(body) != stored_crc {
        return Err(StorageError::corrupt(
            "snapshot checksum mismatch".to_string(),
        ));
    }
    let mut r = Reader::new(body);
    if r.u64()? != SNAPSHOT_MAGIC {
        return Err(StorageError::corrupt("bad snapshot magic".to_string()));
    }
    let version = r.u32()?;
    if !(1..=SNAPSHOT_VERSION).contains(&version) {
        return Err(StorageError::corrupt(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let mut state = SnapshotState {
        generation: r.u64()?,
        view_hash: r.u64()?,
        ..SnapshotState::default()
    };
    let blobs = r.u32()?;
    for _ in 0..blobs {
        let hash = r.u64()?;
        let schema = codec::read_schema(&mut r)?;
        if schema.content_hash() != hash {
            return Err(StorageError::corrupt(format!(
                "blob {hash:#018x} decodes to content hash {:#018x}",
                schema.content_hash()
            )));
        }
        state.blobs.insert(hash, Arc::new(schema));
    }
    let members = r.u32()?;
    for _ in 0..members {
        let name = r.str()?.to_string();
        let count = r.u32()?;
        let mut versions = Vec::with_capacity(count as usize);
        for _ in 0..count {
            versions.push(VersionMeta {
                hash: r.u64()?,
                sequence: r.u32()?,
                generation: r.u64()?,
            });
        }
        let Some(current) = versions.last() else {
            return Err(StorageError::corrupt(format!(
                "member `{name}` has no versions"
            )));
        };
        if !state.blobs.contains_key(&current.hash) {
            return Err(StorageError::corrupt(format!(
                "member `{name}` references missing blob {:#018x}",
                current.hash
            )));
        }
        state.members.insert(name, versions);
    }
    if !r.is_empty() {
        return Err(StorageError::corrupt(format!(
            "{} trailing bytes in snapshot",
            r.remaining()
        )));
    }
    Ok(state)
}

/// `image` re-stamped as format `version`, its checksum recomputed — how
/// tests build images in an older format.
#[cfg(test)]
pub(crate) fn restamp(image: &[u8], version: u32) -> Vec<u8> {
    let mut body = image[..image.len() - 8].to_vec();
    body[8..12].copy_from_slice(&version.to_le_bytes());
    let crc = fnv64(&body);
    put_u64(&mut body, crc);
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotState {
        let a = WeakSchema::builder().arrow("A", "f", "B").build().unwrap();
        let b = WeakSchema::builder()
            .specialize("Guide-dog", "Dog")
            .build()
            .unwrap();
        let (ha, hb) = (a.content_hash(), b.content_hash());
        let mut state = SnapshotState {
            generation: 17,
            view_hash: 0xfeed,
            ..SnapshotState::default()
        };
        state.blobs.insert(ha, Arc::new(a));
        state.blobs.insert(hb, Arc::new(b));
        state.members.insert(
            "alpha".to_string(),
            vec![
                VersionMeta {
                    hash: ha,
                    sequence: 1,
                    generation: 1,
                },
                VersionMeta {
                    hash: hb,
                    sequence: 2,
                    generation: 9,
                },
            ],
        );
        state.members.insert(
            "beta".to_string(),
            vec![VersionMeta {
                hash: ha,
                sequence: 1,
                generation: 2,
            }],
        );
        state
    }

    #[test]
    fn snapshot_round_trips() {
        let state = sample();
        let decoded = decode(&encode(&state)).unwrap();
        assert_eq!(decoded.generation, 17);
        assert_eq!(decoded.view_hash, 0xfeed);
        assert_eq!(decoded.members, state.members);
        assert_eq!(decoded.blobs.len(), 2);
        for (hash, schema) in &state.blobs {
            assert_eq!(decoded.blobs[hash].as_ref(), schema.as_ref());
        }
    }

    #[test]
    fn any_flipped_byte_is_refused() {
        let image = encode(&sample());
        for i in 0..image.len() {
            let mut bad = image.clone();
            bad[i] ^= 0x01;
            assert!(decode(&bad).is_err(), "flip at byte {i} must not decode");
        }
    }

    #[test]
    fn truncation_is_refused() {
        let image = encode(&sample());
        for len in 0..image.len() {
            assert!(decode(&image[..len]).is_err(), "prefix of {len} bytes");
        }
    }

    #[test]
    fn superseded_versions_need_no_blob() {
        let mut state = sample();
        let alpha = state.members.get_mut("alpha").unwrap();
        alpha[0].hash = 0xdead;
        let decoded = decode(&encode(&state)).unwrap();
        assert_eq!(decoded.members, state.members);
    }

    #[test]
    fn a_missing_current_blob_is_refused() {
        let mut state = sample();
        state.members.get_mut("beta").unwrap()[0].hash = 0xdead;
        let err = decode(&encode(&state)).unwrap_err();
        assert!(err.to_string().contains("missing blob"), "{err}");
    }

    #[test]
    fn version_1_images_still_decode() {
        let state = sample();
        let decoded = decode(&restamp(&encode(&state), 1)).unwrap();
        assert_eq!(decoded.members, state.members);
        assert_eq!(decoded.blobs.len(), 2);
        assert!(decode(&restamp(&encode(&state), 3)).is_err());
        assert!(decode(&restamp(&encode(&state), 0)).is_err());
    }
}
