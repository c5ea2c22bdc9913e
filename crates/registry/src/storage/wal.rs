//! The write-ahead log format: length-prefixed, checksummed frames of
//! content-hashed put/delete records.
//!
//! ```text
//! file   := header frame*
//! header := magic:u64 version:u32
//! frame  := len:u32 crc:u64 payload[len]        (crc = FNV-1a 64 of payload)
//! ```
//!
//! Payloads carry one [`WalRecord`]. A `Put` record carries the schema
//! body only the *first* time its content hash reaches the store —
//! versions are immutable, so republishing known content appends a
//! by-reference record (hash only) and replay resolves it against the
//! blob table accumulated from the snapshot and earlier records. That is
//! the log's content-hash compaction: a member flapping between two
//! versions costs eight bytes of schema payload per flap, not two schema
//! bodies. A snapshot's blob table holds only the members' *current*
//! bodies, so "known" means current at the last snapshot or carried by
//! a record since: a body superseded before the snapshot is logged in
//! full again when it is republished.
//!
//! Every record also carries the content hash of the merged view *after*
//! its commit, so replay can verify end-to-end that the recovered view
//! is the one the writer actually served.
//!
//! Reading is torn-tail tolerant: a frame whose length field runs past
//! the end of the file, or whose checksum does not match, ends the
//! replay at the last good frame ([`read_frames`] reports how many bytes
//! were valid so the caller can truncate the tail away). A frame can
//! only be trusted if every frame before it was — after one bad header
//! there is no resynchronization point — so replay never skips over
//! damage.

use std::sync::Arc;

use schema_merge_core::WeakSchema;

use super::codec::{fnv64, put_str, put_u32, put_u64, Reader};
use super::{codec, StorageError};

/// First eight bytes of a WAL file.
pub(crate) const WAL_MAGIC: u64 = 0x534d_4552_4745_574c; // "SMERGEWL"
/// Format version of everything after the magic.
pub(crate) const WAL_VERSION: u32 = 1;
/// Encoded file header length.
pub(crate) const WAL_HEADER_LEN: usize = 12;
/// Frame header length (`len:u32 crc:u64`).
const FRAME_HEADER_LEN: usize = 12;

const KIND_PUT: u8 = 1;
const KIND_DELETE: u8 = 2;

/// One committed registry operation, as replayed from the log.
#[derive(Debug, Clone)]
pub(crate) enum WalRecord {
    /// A committed publish.
    Put {
        /// The registry generation the commit spent.
        generation: u64,
        /// The member published to.
        member: String,
        /// Content hash of the published schema.
        hash: u64,
        /// The version's 1-based sequence number within the member.
        sequence: u32,
        /// Content hash of the merged proper schema after this commit.
        view_hash: u64,
        /// The schema body — present only the first time `hash` reaches
        /// the store; `None` is a by-reference record.
        schema: Option<Arc<WeakSchema>>,
    },
    /// A committed member removal.
    Delete {
        /// The registry generation the commit spent.
        generation: u64,
        /// The member removed.
        member: String,
        /// Content hash of the merged proper schema after this commit.
        view_hash: u64,
    },
}

impl WalRecord {
    /// The generation the record committed.
    pub(crate) fn generation(&self) -> u64 {
        match self {
            WalRecord::Put { generation, .. } | WalRecord::Delete { generation, .. } => *generation,
        }
    }

    /// The post-commit merged-view content hash.
    pub(crate) fn view_hash(&self) -> u64 {
        match self {
            WalRecord::Put { view_hash, .. } | WalRecord::Delete { view_hash, .. } => *view_hash,
        }
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Put {
                generation,
                member,
                hash,
                sequence,
                view_hash,
                schema,
            } => {
                out.push(KIND_PUT);
                put_u64(&mut out, *generation);
                put_str(&mut out, member);
                put_u64(&mut out, *hash);
                put_u32(&mut out, *sequence);
                put_u64(&mut out, *view_hash);
                match schema {
                    Some(schema) => {
                        out.push(1);
                        codec::put_schema(&mut out, schema);
                    }
                    None => out.push(0),
                }
            }
            WalRecord::Delete {
                generation,
                member,
                view_hash,
            } => {
                out.push(KIND_DELETE);
                put_u64(&mut out, *generation);
                put_str(&mut out, member);
                put_u64(&mut out, *view_hash);
            }
        }
        out
    }
}

/// Encodes the WAL file header.
pub(crate) fn encode_header() -> [u8; WAL_HEADER_LEN] {
    let mut out = [0u8; WAL_HEADER_LEN];
    out[..8].copy_from_slice(&WAL_MAGIC.to_le_bytes());
    out[8..].copy_from_slice(&WAL_VERSION.to_le_bytes());
    out
}

/// Frames one record: `len crc payload`.
pub(crate) fn encode_frame(record: &WalRecord) -> Vec<u8> {
    let payload = record.encode_payload();
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u64(&mut out, fnv64(&payload));
    out.extend_from_slice(&payload);
    out
}

fn decode_record(payload: &[u8]) -> Result<WalRecord, StorageError> {
    let mut r = Reader::new(payload);
    let record = match r.byte()? {
        KIND_PUT => {
            let generation = r.u64()?;
            let member = r.str()?.to_string();
            let hash = r.u64()?;
            let sequence = r.u32()?;
            let view_hash = r.u64()?;
            let schema = match r.byte()? {
                0 => None,
                1 => Some(Arc::new(codec::read_schema(&mut r)?)),
                other => {
                    return Err(StorageError::corrupt(format!(
                        "bad schema-presence byte {other}"
                    )))
                }
            };
            WalRecord::Put {
                generation,
                member,
                hash,
                sequence,
                view_hash,
                schema,
            }
        }
        KIND_DELETE => WalRecord::Delete {
            generation: r.u64()?,
            member: r.str()?.to_string(),
            view_hash: r.u64()?,
        },
        other => {
            return Err(StorageError::corrupt(format!(
                "unknown record kind {other}"
            )))
        }
    };
    if !r.is_empty() {
        return Err(StorageError::corrupt(format!(
            "{} trailing bytes after record",
            r.remaining()
        )));
    }
    Ok(record)
}

/// The outcome of scanning a WAL image.
pub(crate) struct WalScan {
    /// Every record up to the last good frame, in append order.
    pub(crate) records: Vec<WalRecord>,
    /// Bytes of the image that are valid (header + good frames). A
    /// value shorter than the image means the tail was torn or corrupt
    /// and should be truncated away before appending resumes.
    pub(crate) valid_len: u64,
}

/// Scans a WAL image, tolerating a torn or corrupt tail. An empty image
/// (zero bytes — the file was never created or the header write itself
/// tore) yields zero records. A present-but-wrong magic or version is
/// *not* tolerated: that is not a crash artifact, it is the wrong file.
pub(crate) fn read_frames(image: &[u8]) -> Result<WalScan, StorageError> {
    if image.len() < WAL_HEADER_LEN {
        // Nothing, or a torn header: no frame can have been acknowledged.
        return Ok(WalScan {
            records: Vec::new(),
            valid_len: 0,
        });
    }
    let magic = u64::from_le_bytes(image[..8].try_into().unwrap());
    let version = u32::from_le_bytes(image[8..12].try_into().unwrap());
    if magic != WAL_MAGIC {
        return Err(StorageError::corrupt(format!(
            "bad WAL magic {magic:#018x}"
        )));
    }
    if version != WAL_VERSION {
        return Err(StorageError::corrupt(format!(
            "unsupported WAL version {version}"
        )));
    }

    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN;
    loop {
        let rest = &image[pos..];
        if rest.len() < FRAME_HEADER_LEN {
            break; // torn frame header (or clean end of log)
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        let crc = u64::from_le_bytes(rest[4..12].try_into().unwrap());
        if rest.len() < FRAME_HEADER_LEN + len {
            break; // torn payload
        }
        let payload = &rest[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
        if fnv64(payload) != crc {
            break; // corrupt frame: stop at the last good one
        }
        match decode_record(payload) {
            Ok(record) => records.push(record),
            Err(_) => break, // checksummed but undecodable: treat as damage
        }
        pos += FRAME_HEADER_LEN + len;
    }
    Ok(WalScan {
        records,
        valid_len: pos as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(generation: u64, member: &str, schema: Option<WeakSchema>) -> WalRecord {
        let hash = schema.as_ref().map(WeakSchema::content_hash).unwrap_or(7);
        WalRecord::Put {
            generation,
            member: member.to_string(),
            hash,
            sequence: generation as u32,
            view_hash: hash ^ 0xdead,
            schema: schema.map(Arc::new),
        }
    }

    fn image(records: &[WalRecord]) -> Vec<u8> {
        let mut out = encode_header().to_vec();
        for record in records {
            out.extend_from_slice(&encode_frame(record));
        }
        out
    }

    fn sample() -> Vec<WalRecord> {
        let schema = WeakSchema::builder().arrow("A", "f", "B").build().unwrap();
        vec![
            put(1, "alpha", Some(schema)),
            put(2, "beta", None),
            WalRecord::Delete {
                generation: 3,
                member: "alpha".to_string(),
                view_hash: 99,
            },
        ]
    }

    #[test]
    fn frames_round_trip() {
        let records = sample();
        let scan = read_frames(&image(&records)).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.valid_len as usize, image(&records).len());
        for (a, b) in records.iter().zip(&scan.records) {
            assert_eq!(a.generation(), b.generation());
            assert_eq!(a.view_hash(), b.view_hash());
        }
        match (&records[0], &scan.records[0]) {
            (
                WalRecord::Put {
                    schema: Some(a), ..
                },
                WalRecord::Put {
                    schema: Some(b), ..
                },
            ) => assert_eq!(a.as_ref(), b.as_ref()),
            other => panic!("expected put-with-schema pair, got {other:?}"),
        }
    }

    #[test]
    fn torn_tail_keeps_the_good_prefix() {
        let records = sample();
        let full = image(&records);
        let two = image(&records[..2]);
        // Every truncation point strictly between record 2 and record 3
        // must recover exactly two records and report the two-record
        // prefix as the valid length.
        for cut in two.len() + 1..full.len() {
            let scan = read_frames(&full[..cut]).unwrap();
            assert_eq!(scan.records.len(), 2, "cut at {cut}");
            assert_eq!(scan.valid_len as usize, two.len(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_checksum_stops_replay_at_last_good_frame() {
        let records = sample();
        let two = image(&records[..2]);
        let mut full = image(&records);
        // Flip one payload byte inside the third frame.
        let offset = two.len() + FRAME_HEADER_LEN + 2;
        full[offset] ^= 0xff;
        let scan = read_frames(&full).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.valid_len as usize, two.len());
    }

    #[test]
    fn empty_and_torn_header_mean_empty_log() {
        assert_eq!(read_frames(&[]).unwrap().records.len(), 0);
        let header = encode_header();
        assert_eq!(read_frames(&header[..5]).unwrap().records.len(), 0);
        assert_eq!(
            read_frames(&header).unwrap().valid_len as usize,
            WAL_HEADER_LEN
        );
    }

    #[test]
    fn wrong_magic_is_refused() {
        let mut img = image(&sample());
        img[0] ^= 0xff;
        assert!(read_frames(&img).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A varied record mix keyed by small integers, plus the byte
        /// offsets of every frame boundary in its encoded image.
        fn workload(keys: &[u8]) -> (Vec<WalRecord>, Vec<u8>, Vec<usize>) {
            let records: Vec<WalRecord> = keys
                .iter()
                .enumerate()
                .map(|(i, key)| {
                    let generation = i as u64 + 1;
                    let member = format!("m{}", key % 4);
                    match key % 3 {
                        0 => {
                            let schema = WeakSchema::builder()
                                .arrow(format!("C{key}"), "f", "T")
                                .build()
                                .unwrap();
                            put(generation, &member, Some(schema))
                        }
                        1 => put(generation, &member, None),
                        _ => WalRecord::Delete {
                            generation,
                            member,
                            view_hash: u64::from(*key) << 8,
                        },
                    }
                })
                .collect();
            let mut image = encode_header().to_vec();
            let mut boundaries = vec![image.len()];
            for record in &records {
                image.extend_from_slice(&encode_frame(record));
                boundaries.push(image.len());
            }
            (records, image, boundaries)
        }

        /// Loose observable equality: generation and view hash identify
        /// a record for prefix comparison.
        fn assert_prefix(scan: &[WalRecord], original: &[WalRecord], context: &str) {
            for (a, b) in scan.iter().zip(original) {
                assert_eq!(a.generation(), b.generation(), "{context}");
                assert_eq!(a.view_hash(), b.view_hash(), "{context}");
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Truncation at ANY byte offset — mid-header, mid-frame-
            /// header, mid-payload — recovers exactly the longest whole-
            /// frame prefix and reports its length for tail repair.
            /// Never an error, never a phantom record.
            #[test]
            fn any_truncation_recovers_an_exact_frame_prefix(
                keys in proptest::collection::vec(0u8..12, 1..7),
                cut_raw in any::<u64>(),
            ) {
                let (records, image, boundaries) = workload(&keys);
                let cut = (cut_raw % (image.len() as u64 + 1)) as usize;
                let scan = read_frames(&image[..cut]).unwrap();
                if cut < WAL_HEADER_LEN {
                    prop_assert_eq!(scan.records.len(), 0);
                    prop_assert_eq!(scan.valid_len, 0);
                } else {
                    let whole = boundaries.iter().filter(|b| **b <= cut).count() - 1;
                    prop_assert_eq!(scan.records.len(), whole, "cut at {}", cut);
                    prop_assert_eq!(scan.valid_len as usize, boundaries[whole]);
                    assert_prefix(&scan.records, &records, "truncation");
                }
            }

            /// A single flipped bit anywhere in the image either refuses
            /// the file (header damage) or stops replay exactly at the
            /// damaged frame — every frame before it intact, nothing
            /// after it ever surfacing as a record.
            #[test]
            fn any_single_bit_flip_is_contained(
                keys in proptest::collection::vec(0u8..12, 1..7),
                pos_raw in any::<u64>(),
                bit in 0u8..8,
            ) {
                let (records, mut image, boundaries) = workload(&keys);
                let pos = (pos_raw % image.len() as u64) as usize;
                image[pos] ^= 1 << bit;
                if pos < WAL_HEADER_LEN {
                    prop_assert!(
                        read_frames(&image).is_err(),
                        "header damage must refuse the file"
                    );
                } else {
                    let frame = boundaries.iter().filter(|b| **b <= pos).count() - 1;
                    let scan = read_frames(&image).unwrap();
                    prop_assert_eq!(scan.records.len(), frame, "flip at {}", pos);
                    prop_assert_eq!(scan.valid_len as usize, boundaries[frame]);
                    assert_prefix(&scan.records, &records, "bit flip");
                }
            }

            /// The codec layer under the same damage model: a flipped
            /// bit in an encoded schema must never panic — it decodes to
            /// an error or to some schema, but the checksummed frame
            /// layer above is what guarantees integrity.
            #[test]
            fn schema_codec_never_panics_on_a_flipped_bit(
                key in 0u8..12,
                pos_raw in any::<u64>(),
                bit in 0u8..8,
            ) {
                let schema = WeakSchema::builder()
                    .arrow(format!("C{key}"), "f", "T")
                    .arrow("T", "g", format!("U{key}"))
                    .build()
                    .unwrap();
                let mut bytes = Vec::new();
                codec::put_schema(&mut bytes, &schema);

                // Untouched bytes round-trip exactly.
                let mut r = Reader::new(&bytes);
                prop_assert_eq!(codec::read_schema(&mut r).unwrap(), schema);

                let pos = (pos_raw % bytes.len() as u64) as usize;
                bytes[pos] ^= 1 << bit;
                let mut r = Reader::new(&bytes);
                let _ = codec::read_schema(&mut r); // must not panic
            }
        }
    }
}
