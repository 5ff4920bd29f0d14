//! The v3 binary bundle: a seekable on-disk artifact for web-scale
//! wrapper registries.
//!
//! A [`crate::WrapperBundle`] is one monolithic JSON blob — the right
//! shape for dozens of sites, the wrong one for the 10⁵–10⁶ sites a
//! production registry serves: loading it means parsing every site's
//! wrapper before the first request can be answered. The v3 artifact
//! (`aw-bundle-bin`) keeps each site's wrapper as an independent
//! byte range behind a sorted offset index, so serving touches only
//! the bytes for the sites requests actually name:
//!
//! * [`BundleStore`] — an open-without-loading handle: reads the
//!   header + index (a few bytes per site), then `seek`s to one
//!   segment on demand ([`BundleStore::load`]);
//! * [`BundleBinaryWriter`] — a streaming packer that never holds the
//!   whole bundle resident;
//! * [`ArtifactReader`] — the unified entry point that sniffs v1/v2
//!   JSON vs v3 binary so CLI / HTTP call sites accept any artifact
//!   generation without per-call-site format branching.
//!
//! ## Byte layout
//!
//! All integers are little-endian; checksums are 64-bit FNV-1a. Each
//! segment is a complete v1 `aw-wrapper` JSON payload
//! ([`crate::CompiledWrapper::to_json`]) — self-contained, so one
//! segment can be read, verified and parsed with no other bytes of the
//! file, and `bundle unpack` is exact.
//!
//! ```text
//! offset  size  field
//! ──────  ────  ─────────────────────────────────────────────────────
//!      0     8  magic "AWBNDLE3"
//!      8     4  format version (= 3)
//!     12     8  site count N
//!     20     8  index offset   ─┐ the index is the last thing in the
//!     28     8  index length    │ file: segments stream out first,
//!     36     8  index checksum ─┘ then the header is patched
//!     44     …  segments: N contiguous v1 JSON payloads
//!      …     …  index: N entries, site keys strictly ascending
//!               ┌ key length (4) │ key bytes │ segment offset (8)
//!               └ segment length (8) │ segment checksum (8)
//! ```
//!
//! Every byte of the file is covered by a checksum or a structural
//! check (magic, version, bounds, ordering, exact end-of-file), so any
//! single-byte corruption surfaces as a typed [`AwError`] — never a
//! panic, and for segment damage always naming the offending site key
//! ([`AwError::CorruptSegment`] / [`AwError::TruncatedBundle`]).
//!
//! ## When to prefer JSON vs binary
//!
//! v2 JSON stays the interchange format: human-readable, diffable,
//! trivially hand-edited, and the only shape `awrap learn --bundle`
//! emits. Pack to v3 (`awrap bundle pack`) when the bundle is big
//! enough that cold-start parse time or resident memory matters —
//! the `bundle_cold_start` bench metric measures exactly that gap —
//! and serve it lazily (`awrap serve --lazy --max-resident N`).

use crate::artifact::{CompiledWrapper, WrapperBundle};
use crate::error::AwError;
use std::fmt;
use std::io::{Cursor, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;

/// The format name of the v3 binary bundle (the magic encodes it).
pub const BUNDLE_BIN_FORMAT: &str = "aw-bundle-bin";

/// The binary bundle schema version this build reads and writes
/// (generation 3 of the artifact family).
pub const BUNDLE_BIN_VERSION: u32 = 3;

/// The 8-byte magic every v3 binary bundle starts with — also what
/// [`ArtifactReader`] sniffs to tell binary from JSON.
pub const BUNDLE_BIN_MAGIC: [u8; 8] = *b"AWBNDLE3";

/// Fixed header size: magic (8) + version (4) + site count (8) +
/// index offset (8) + index length (8) + index checksum (8).
const HEADER_LEN: u64 = 44;

/// 64-bit FNV-1a — dependency-free, byte-order independent, and plenty
/// to turn any single-byte flip into a detectable mismatch.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn malformed(msg: impl Into<String>) -> AwError {
    AwError::MalformedArtifact(msg.into())
}

fn io_err(e: std::io::Error) -> AwError {
    AwError::Io(e.to_string())
}

/// One index entry: where a site's segment lives and what it must hash
/// to.
#[derive(Clone, Debug)]
struct IndexEntry {
    key: String,
    offset: u64,
    len: u64,
    checksum: u64,
}

/// A streaming v3 packer: segments are written as they are appended
/// (keys must arrive in strictly ascending order, which
/// [`WrapperBundle`] iteration provides for free), the index and
/// header follow on [`BundleBinaryWriter::finish`]. Nothing but the
/// index is held in memory, so packing a 10⁵-site bundle costs a few
/// bytes per site, not the whole artifact.
pub struct BundleBinaryWriter<W: Write + Seek> {
    sink: W,
    entries: Vec<IndexEntry>,
    cursor: u64,
}

impl<W: Write + Seek> BundleBinaryWriter<W> {
    /// Starts a v3 bundle on `sink` (a placeholder header is written
    /// immediately and patched by [`BundleBinaryWriter::finish`]).
    pub fn new(mut sink: W) -> Result<BundleBinaryWriter<W>, AwError> {
        sink.write_all(&[0u8; HEADER_LEN as usize])
            .map_err(io_err)?;
        Ok(BundleBinaryWriter {
            sink,
            entries: Vec::new(),
            cursor: HEADER_LEN,
        })
    }

    /// Appends one site's wrapper as the next segment.
    pub fn append(&mut self, site: &str, wrapper: &CompiledWrapper) -> Result<(), AwError> {
        self.append_payload(site, &wrapper.to_json())
    }

    /// Appends a pre-serialized v1 `aw-wrapper` payload verbatim — the
    /// zero-copy path for repacking and for synthetic corpora that
    /// reuse one prototype payload across many sites.
    pub fn append_payload(&mut self, site: &str, v1_json: &str) -> Result<(), AwError> {
        if let Some(last) = self.entries.last() {
            if site <= last.key.as_str() {
                return Err(malformed(format!(
                    "bundle keys must be strictly ascending: {site:?} after {:?}",
                    last.key
                )));
            }
        }
        let bytes = v1_json.as_bytes();
        self.sink.write_all(bytes).map_err(io_err)?;
        self.entries.push(IndexEntry {
            key: site.to_string(),
            offset: self.cursor,
            len: bytes.len() as u64,
            checksum: fnv1a(bytes),
        });
        self.cursor += bytes.len() as u64;
        Ok(())
    }

    /// Writes the index, patches the header, flushes, and returns the
    /// sink.
    pub fn finish(mut self) -> Result<W, AwError> {
        let index_offset = self.cursor;
        let mut index: Vec<u8> = Vec::new();
        for entry in &self.entries {
            index.extend_from_slice(&(entry.key.len() as u32).to_le_bytes());
            index.extend_from_slice(entry.key.as_bytes());
            index.extend_from_slice(&entry.offset.to_le_bytes());
            index.extend_from_slice(&entry.len.to_le_bytes());
            index.extend_from_slice(&entry.checksum.to_le_bytes());
        }
        self.sink.write_all(&index).map_err(io_err)?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&BUNDLE_BIN_MAGIC);
        header.extend_from_slice(&BUNDLE_BIN_VERSION.to_le_bytes());
        header.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        header.extend_from_slice(&index_offset.to_le_bytes());
        header.extend_from_slice(&(index.len() as u64).to_le_bytes());
        header.extend_from_slice(&fnv1a(&index).to_le_bytes());
        self.sink.seek(SeekFrom::Start(0)).map_err(io_err)?;
        self.sink.write_all(&header).map_err(io_err)?;
        self.sink.flush().map_err(io_err)?;
        Ok(self.sink)
    }
}

impl WrapperBundle {
    /// Serializes the bundle to its v3 binary payload (format
    /// [`BUNDLE_BIN_FORMAT`]; see the [module docs](self) for the byte
    /// layout). Segments are the members' v1 JSON artifacts, so
    /// `from_binary(to_binary())` → `to_json()` is byte-identical to
    /// the original bundle's [`WrapperBundle::to_json`].
    pub fn to_binary(&self) -> Vec<u8> {
        let mut writer = BundleBinaryWriter::new(Cursor::new(Vec::new()))
            .expect("in-memory writes are infallible");
        for (key, wrapper) in self.iter() {
            // BTreeMap iteration is strictly ascending, so append
            // cannot reject the ordering.
            writer
                .append(key, wrapper)
                .expect("in-memory writes are infallible");
        }
        writer
            .finish()
            .expect("in-memory writes are infallible")
            .into_inner()
    }

    /// Deserializes a whole v3 binary bundle eagerly — the inverse of
    /// [`WrapperBundle::to_binary`] (`awrap bundle unpack`). For lazy,
    /// per-site access open a [`BundleStore`] instead.
    pub fn from_binary(bytes: &[u8]) -> Result<WrapperBundle, AwError> {
        BundleStore::from_bytes(bytes.to_vec())?.load_all()
    }
}

/// Reader handles kept warm per file-backed store. Concurrent faults
/// beyond the pool open (and then retire) extra descriptors, so the cap
/// bounds idle descriptors, not concurrency.
const READER_POOL_CAP: usize = 8;

/// Where segment bytes come from after open-time validation.
///
/// File-backed stores hold a small pool of independent `File` handles:
/// each [`BundleStore::load`] checks one out (opening a fresh
/// descriptor when the pool runs dry), so concurrent lazy faults from
/// many connections seek-and-read in parallel instead of serializing on
/// one shared cursor. In-memory stores are a plain shared byte slice —
/// reads are pure slicing, no lock at all.
enum SegmentSource {
    File {
        path: std::path::PathBuf,
        pool: Mutex<Vec<std::fs::File>>,
    },
    Memory(Vec<u8>),
}

/// An open-without-loading handle on a v3 binary bundle.
///
/// [`BundleStore::open`] reads and verifies the header and the sorted
/// site-key index — a few dozen bytes per site — and nothing else;
/// [`BundleStore::load`] then resolves one site through the index,
/// `seek`s to its segment, verifies the segment checksum and parses
/// just that wrapper. A 10⁵-site bundle is therefore ready to serve
/// its first request in index-read time, not full-parse time (the
/// `bundle_cold_start` bench metric).
///
/// The handle is `Sync`, and concurrent [`BundleStore::load`] calls do
/// not serialize on the store: a file-backed store draws an independent
/// `File` handle from a small reader pool per load (growing the pool on
/// demand, retiring descriptors beyond a small cap), and an in-memory
/// store reads by pure slicing, so there is no shared cursor. A lazy
/// [`crate::WrapperRegistry`] still loads under its residency lock, so
/// its concurrent faults queue there, one at a time.
///
/// Sites are also addressed by **ordinal**: a site's position in the
/// sorted index, dense in `0..len()`. The lazy registry keys its slot
/// table by it.
pub struct BundleStore {
    source: SegmentSource,
    /// Sorted by key (validated at open), so lookup is binary search.
    index: Vec<IndexEntry>,
}

impl fmt::Debug for BundleStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BundleStore")
            .field("sites", &self.index.len())
            .finish_non_exhaustive()
    }
}

impl BundleStore {
    /// Opens a v3 binary bundle file, reading only its header + index.
    pub fn open(path: impl AsRef<Path>) -> Result<BundleStore, AwError> {
        let path = path.as_ref();
        let mut file = std::fs::File::open(path)
            .map_err(|e| AwError::Io(format!("{}: {e}", path.display())))?;
        let index = BundleStore::parse_index(&mut file)?;
        Ok(BundleStore {
            // The open-time handle seeds the reader pool.
            source: SegmentSource::File {
                path: path.to_path_buf(),
                pool: Mutex::new(vec![file]),
            },
            index,
        })
    }

    /// Opens a v3 binary bundle held in memory (an HTTP upload, a
    /// packed `Vec<u8>`); same validation as [`BundleStore::open`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<BundleStore, AwError> {
        let index = BundleStore::parse_index(&mut Cursor::new(&bytes))?;
        Ok(BundleStore {
            source: SegmentSource::Memory(bytes),
            index,
        })
    }

    /// Validates header + index through any seekable source, returning
    /// the parsed index (shared by the file and in-memory constructors).
    fn parse_index(source: &mut (impl Read + Seek)) -> Result<Vec<IndexEntry>, AwError> {
        let total = source.seek(SeekFrom::End(0)).map_err(io_err)?;
        if total < HEADER_LEN {
            return Err(AwError::TruncatedBundle {
                site: None,
                detail: format!("payload is {total} bytes, the header alone is {HEADER_LEN}"),
            });
        }
        source.seek(SeekFrom::Start(0)).map_err(io_err)?;
        let mut header = [0u8; HEADER_LEN as usize];
        source.read_exact(&mut header).map_err(io_err)?;
        if header[..8] != BUNDLE_BIN_MAGIC {
            return Err(malformed(format!(
                "not an {BUNDLE_BIN_FORMAT} payload (bad magic)"
            )));
        }
        let le_u32 = |range: std::ops::Range<usize>| {
            u32::from_le_bytes(header[range].try_into().expect("4-byte slice"))
        };
        let le_u64 = |range: std::ops::Range<usize>| {
            u64::from_le_bytes(header[range].try_into().expect("8-byte slice"))
        };
        let version = le_u32(8..12);
        if version != BUNDLE_BIN_VERSION {
            return Err(AwError::UnsupportedVersion {
                found: version,
                supported: BUNDLE_BIN_VERSION,
            });
        }
        let count = le_u64(12..20);
        let index_offset = le_u64(20..28);
        let index_len = le_u64(28..36);
        let index_checksum = le_u64(36..44);
        if index_offset < HEADER_LEN {
            return Err(malformed("index offset points into the header"));
        }
        let index_end = index_offset
            .checked_add(index_len)
            .ok_or_else(|| malformed("index extent overflows"))?;
        if index_end > total {
            return Err(AwError::TruncatedBundle {
                site: None,
                detail: format!(
                    "index is declared to end at byte {index_end} but the payload has {total}"
                ),
            });
        }
        if index_end != total {
            return Err(malformed("trailing bytes after the index"));
        }
        source.seek(SeekFrom::Start(index_offset)).map_err(io_err)?;
        let mut index_bytes = vec![0u8; index_len as usize];
        source.read_exact(&mut index_bytes).map_err(io_err)?;
        if fnv1a(&index_bytes) != index_checksum {
            return Err(malformed("index checksum mismatch"));
        }

        let mut index: Vec<IndexEntry> = Vec::new();
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], AwError> {
            let end = pos
                .checked_add(n)
                .filter(|&end| end <= index_bytes.len())
                .ok_or_else(|| malformed("index entry extends past the index"))?;
            let slice = &index_bytes[*pos..end];
            *pos = end;
            Ok(slice)
        };
        for _ in 0..count {
            let key_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
            let key = std::str::from_utf8(take(&mut pos, key_len as usize)?)
                .map_err(|_| malformed("index key is not UTF-8"))?
                .to_string();
            let offset = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
            let checksum = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
            if let Some(last) = index.last() {
                if key <= last.key {
                    return Err(malformed(format!(
                        "index keys are not strictly ascending: {key:?} after {:?}",
                        last.key
                    )));
                }
            }
            let segment_end = offset
                .checked_add(len)
                .ok_or_else(|| malformed(format!("segment extent overflows for site {key:?}")))?;
            if offset < HEADER_LEN || segment_end > index_offset {
                return Err(malformed(format!(
                    "segment for site {key:?} lies outside the segment region"
                )));
            }
            index.push(IndexEntry {
                key,
                offset,
                len,
                checksum,
            });
        }
        if pos != index_bytes.len() {
            return Err(malformed("index length does not match its entry count"));
        }
        Ok(index)
    }

    /// Number of sites in the bundle.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the bundle holds no site.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// True when the bundle indexes `site` (no segment I/O).
    pub fn contains(&self, site: &str) -> bool {
        self.ordinal(site).is_some()
    }

    /// The indexed site keys, ascending (no segment I/O).
    pub fn site_keys(&self) -> impl Iterator<Item = &str> {
        self.index.iter().map(|e| e.key.as_str())
    }

    /// `(site key, segment byte length)` pairs, ascending by key — the
    /// data behind `awrap bundle inspect` (no segment I/O).
    pub fn segments(&self) -> impl Iterator<Item = (&str, u64)> {
        self.index.iter().map(|e| (e.key.as_str(), e.len))
    }

    /// The site's ordinal — its position in the sorted index — by
    /// binary search (no segment I/O).
    pub(crate) fn ordinal(&self, site: &str) -> Option<usize> {
        self.index
            .binary_search_by(|e| e.key.as_str().cmp(site))
            .ok()
    }

    /// The site key at `ordinal` (< [`BundleStore::len`]).
    pub(crate) fn key(&self, ordinal: usize) -> &str {
        &self.index[ordinal].key
    }

    /// Loads one site's wrapper: seek to its segment, verify the
    /// checksum, parse the v1 payload. `Ok(None)` when the bundle does
    /// not index `site`; [`AwError::CorruptSegment`] /
    /// [`AwError::TruncatedBundle`] (naming the site) when the segment
    /// bytes are damaged.
    pub fn load(&self, site: &str) -> Result<Option<CompiledWrapper>, AwError> {
        self.ordinal(site)
            .map(|ordinal| self.load_ordinal(ordinal))
            .transpose()
    }

    /// [`BundleStore::load`] for a site already resolved to its ordinal
    /// (< [`BundleStore::len`]).
    pub(crate) fn load_ordinal(&self, ordinal: usize) -> Result<CompiledWrapper, AwError> {
        let entry = &self.index[ordinal];
        let bytes = self.read_segment(entry)?;
        let payload = std::str::from_utf8(&bytes).map_err(|_| AwError::CorruptSegment {
            site: entry.key.clone(),
            detail: "segment is not UTF-8".into(),
        })?;
        CompiledWrapper::from_json(payload).map_err(|e| AwError::CorruptSegment {
            site: entry.key.clone(),
            detail: e.to_string(),
        })
    }

    fn read_segment(&self, entry: &IndexEntry) -> Result<Vec<u8>, AwError> {
        let truncated = |detail: String| AwError::TruncatedBundle {
            site: Some(entry.key.clone()),
            detail,
        };
        let buf = match &self.source {
            SegmentSource::Memory(bytes) => {
                // Extents were bounds-checked at open; a second check
                // keeps a logic slip a typed error, not a panic.
                let end = entry.offset.checked_add(entry.len);
                match end.filter(|&end| end <= bytes.len() as u64) {
                    Some(end) => bytes[entry.offset as usize..end as usize].to_vec(),
                    None => {
                        return Err(truncated(format!(
                            "payload ends mid-segment: {} bytes held, segment ends at {:?}",
                            bytes.len(),
                            end
                        )))
                    }
                }
            }
            SegmentSource::File { path, pool } => {
                // Check a reader handle out of the pool — or open a
                // fresh descriptor when every pooled one is in use, so
                // concurrent faults never wait on each other's seeks.
                let pooled = {
                    let mut pool = pool
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    pool.pop()
                };
                let mut file = match pooled {
                    Some(file) => file,
                    None => std::fs::File::open(path)
                        .map_err(|e| AwError::Io(format!("{}: {e}", path.display())))?,
                };
                let mut buf = vec![0u8; entry.len as usize];
                file.seek(SeekFrom::Start(entry.offset)).map_err(io_err)?;
                file.read_exact(&mut buf)
                    .map_err(|e| truncated(format!("payload ends mid-segment: {e}")))?;
                // Check the handle back in; beyond the cap it is simply
                // closed (the pool bounds idle descriptors).
                let mut pool = pool
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if pool.len() < READER_POOL_CAP {
                    pool.push(file);
                }
                buf
            }
        };
        if fnv1a(&buf) != entry.checksum {
            return Err(AwError::CorruptSegment {
                site: entry.key.clone(),
                detail: "segment checksum mismatch".into(),
            });
        }
        Ok(buf)
    }

    /// Loads every segment eagerly into a [`WrapperBundle`] — the
    /// unpack path, and how an eager (non-`--lazy`) server consumes a
    /// v3 artifact.
    pub fn load_all(&self) -> Result<WrapperBundle, AwError> {
        let mut bundle = WrapperBundle::new();
        for ordinal in 0..self.len() {
            bundle.insert(self.key(ordinal), self.load_ordinal(ordinal)?);
        }
        Ok(bundle)
    }
}

/// Any artifact generation, loaded through [`ArtifactReader`]: either
/// fully resident (v1/v2 JSON, parsed eagerly) or a lazy v3 handle.
#[derive(Debug)]
pub enum LoadedArtifact {
    /// A v1 single-wrapper or v2 bundle JSON payload, parsed whole.
    Resident(WrapperBundle),
    /// A v3 binary bundle, opened without loading any segment.
    Lazy(BundleStore),
}

impl LoadedArtifact {
    /// Number of sites in the artifact (no segment I/O for v3).
    pub fn len(&self) -> usize {
        match self {
            LoadedArtifact::Resident(bundle) => bundle.len(),
            LoadedArtifact::Lazy(store) => store.len(),
        }
    }

    /// True when the artifact holds no site.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The site keys, ascending (no segment I/O for v3).
    pub fn site_keys(&self) -> Vec<String> {
        match self {
            LoadedArtifact::Resident(bundle) => bundle.site_keys().map(str::to_string).collect(),
            LoadedArtifact::Lazy(store) => store.site_keys().map(str::to_string).collect(),
        }
    }

    /// Forces the artifact fully resident (loading every v3 segment
    /// when lazy) — for consumers that need the whole bundle, e.g. an
    /// eager registry load or `bundle unpack`.
    pub fn into_bundle(self) -> Result<WrapperBundle, AwError> {
        match self {
            LoadedArtifact::Resident(bundle) => Ok(bundle),
            LoadedArtifact::Lazy(store) => store.load_all(),
        }
    }
}

/// The unified artifact loading entry point: sniffs the generation
/// (v1/v2 JSON vs v3 binary via [`BUNDLE_BIN_MAGIC`]) so `awrap apply`,
/// `awrap serve` and `POST /wrappers` accept any of them without
/// per-call-site format branching. Prefer this over calling
/// [`WrapperBundle::from_json`] directly at I/O boundaries.
#[derive(Debug)]
pub struct ArtifactReader;

impl ArtifactReader {
    /// True when `bytes` starts with the v3 binary magic.
    pub fn is_binary(bytes: &[u8]) -> bool {
        bytes.starts_with(&BUNDLE_BIN_MAGIC)
    }

    /// Reads an artifact of any generation **eagerly** from bytes —
    /// the hot-swap upload path (`POST /wrappers`), where the whole
    /// payload is in memory anyway.
    pub fn read_bytes(bytes: &[u8]) -> Result<WrapperBundle, AwError> {
        if ArtifactReader::is_binary(bytes) {
            return WrapperBundle::from_binary(bytes);
        }
        let text = std::str::from_utf8(bytes)
            .map_err(|_| malformed("artifact is neither v3 binary nor UTF-8 JSON"))?;
        WrapperBundle::from_json(text)
    }

    /// Opens an artifact file of any generation, sniffing only its
    /// first bytes: a v3 bundle comes back as a lazy
    /// [`LoadedArtifact::Lazy`] handle (header + index read, no
    /// segments), JSON generations parse eagerly.
    pub fn open(path: impl AsRef<Path>) -> Result<LoadedArtifact, AwError> {
        let path = path.as_ref();
        let io = |e: std::io::Error| AwError::Io(format!("{}: {e}", path.display()));
        let mut file = std::fs::File::open(path).map_err(io)?;
        let mut magic = [0u8; 8];
        let mut got = 0usize;
        while got < magic.len() {
            match file.read(&mut magic[got..]).map_err(io)? {
                0 => break,
                n => got += n,
            }
        }
        if magic[..got] == BUNDLE_BIN_MAGIC {
            drop(file);
            return Ok(LoadedArtifact::Lazy(BundleStore::open(path)?));
        }
        let mut text = String::new();
        text.push_str(
            std::str::from_utf8(&magic[..got])
                .map_err(|_| malformed("artifact is neither v3 binary nor UTF-8 JSON"))?,
        );
        file.read_to_string(&mut text).map_err(io)?;
        Ok(LoadedArtifact::Resident(WrapperBundle::from_json(&text)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WrapperLanguage;
    use crate::rule::LearnedRule;
    use aw_induct::{NodeSet, Site};

    fn training_site() -> Site {
        let page = |rows: &[(&str, &str)]| {
            let mut s = String::from("<table class='stores'>");
            for (n, a) in rows {
                s.push_str(&format!("<tr><td><b>{n}</b></td><td>{a}</td></tr>"));
            }
            s + "</table>"
        };
        Site::from_html(&[
            page(&[("ALPHA CO", "1 Elm"), ("BETA LLC", "2 Oak")]),
            page(&[("GAMMA INC", "3 Fir"), ("DELTA LTD", "4 Ash")]),
        ])
    }

    fn wrapper(language: WrapperLanguage) -> CompiledWrapper {
        let site = training_site();
        let mut labels = NodeSet::new();
        labels.extend(site.find_text("ALPHA CO"));
        labels.extend(site.find_text("DELTA LTD"));
        CompiledWrapper::from_rule(LearnedRule::learn(&site, language, &labels))
    }

    fn sample_bundle() -> WrapperBundle {
        let mut bundle = WrapperBundle::new();
        for language in WrapperLanguage::ALL {
            bundle.insert(format!("site-{language}"), wrapper(language));
        }
        bundle
    }

    #[test]
    fn binary_round_trip_is_byte_identical() {
        let bundle = sample_bundle();
        let bytes = bundle.to_binary();
        assert_eq!(bytes[..8], BUNDLE_BIN_MAGIC);
        let restored = WrapperBundle::from_binary(&bytes).unwrap();
        assert_eq!(restored.to_json(), bundle.to_json());
        // Packing is deterministic.
        assert_eq!(restored.to_binary(), bytes);
    }

    #[test]
    fn store_opens_lazily_and_loads_per_site() {
        let bundle = sample_bundle();
        let store = BundleStore::from_bytes(bundle.to_binary()).unwrap();
        assert_eq!(store.len(), 4);
        assert!(store.contains("site-XPATH"));
        assert!(!store.contains("site-CSV"));
        assert!(store.load("missing").unwrap().is_none());
        let page = aw_dom::parse(
            "<table class='stores'><tr><td><b>OMEGA GROUP</b></td><td>9 Elm</td></tr></table>",
        );
        for (key, expected) in bundle.iter() {
            let loaded = store.load(key).unwrap().expect("indexed");
            assert_eq!(loaded.rule(), expected.rule(), "{key}");
            assert_eq!(loaded.extract(&page), expected.extract(&page), "{key}");
        }
        let segment_total: u64 = store.segments().map(|(_, len)| len).sum();
        assert!(segment_total > 0);
    }

    #[test]
    fn empty_bundles_pack_and_open() {
        let bytes = WrapperBundle::new().to_binary();
        let store = BundleStore::from_bytes(bytes).unwrap();
        assert!(store.is_empty());
        assert!(store.load_all().unwrap().is_empty());
    }

    #[test]
    fn writer_rejects_unsorted_keys() {
        let mut writer = BundleBinaryWriter::new(Cursor::new(Vec::new())).unwrap();
        writer.append_payload("b", "{}").unwrap();
        let err = writer.append_payload("a", "{}").unwrap_err();
        assert!(matches!(err, AwError::MalformedArtifact(_)), "{err:?}");
        let dup = {
            let mut writer = BundleBinaryWriter::new(Cursor::new(Vec::new())).unwrap();
            writer.append_payload("a", "{}").unwrap();
            writer.append_payload("a", "{}").unwrap_err()
        };
        assert!(matches!(dup, AwError::MalformedArtifact(_)), "{dup:?}");
    }

    #[test]
    fn reader_sniffs_generations() {
        let bundle = sample_bundle();
        // v3 binary bytes.
        let from_binary = ArtifactReader::read_bytes(&bundle.to_binary()).unwrap();
        assert_eq!(from_binary.to_json(), bundle.to_json());
        // v2 JSON bytes.
        let from_v2 = ArtifactReader::read_bytes(bundle.to_json().as_bytes()).unwrap();
        assert_eq!(from_v2.to_json(), bundle.to_json());
        // v1 single-wrapper JSON bytes (loads under the compat key).
        let single = wrapper(WrapperLanguage::XPath);
        let from_v1 = ArtifactReader::read_bytes(single.to_json().as_bytes()).unwrap();
        assert_eq!(
            from_v1.site_keys().collect::<Vec<_>>(),
            [crate::artifact::V1_SITE_KEY]
        );
        // Garbage is a typed error.
        assert!(ArtifactReader::read_bytes(&[0xFF, 0xFE, 0x00]).is_err());
        assert!(ArtifactReader::read_bytes(b"not json").is_err());
    }

    #[test]
    fn concurrent_faults_through_the_reader_pool_are_correct() {
        // Many threads fault different (and the same) sites out of one
        // file-backed store at once. With the single-cursor design this
        // serialized; with the reader pool it overlaps — either way
        // every load must come back intact (each handle has its own
        // file position, so no interleaving can mix two segments).
        let bundle = sample_bundle();
        let dir = std::env::temp_dir().join(format!("aw-store-pool-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle.awb");
        std::fs::write(&path, bundle.to_binary()).unwrap();
        let store = std::sync::Arc::new(BundleStore::open(&path).unwrap());
        let expected: Vec<(String, String)> = bundle
            .iter()
            .map(|(key, wrapper)| (key.to_string(), wrapper.rule().to_string()))
            .collect();
        let threads: Vec<_> = (0..16)
            .map(|t| {
                let store = std::sync::Arc::clone(&store);
                let expected = expected.clone();
                std::thread::spawn(move || {
                    for round in 0..20 {
                        let (key, rule) = &expected[(t + round) % expected.len()];
                        let loaded = store.load(key).unwrap().expect("indexed key loads");
                        assert_eq!(loaded.rule().to_string(), *rule, "{key}");
                    }
                    // Missing keys stay a clean miss under concurrency.
                    assert!(store.load("zz-missing").unwrap().is_none());
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_version_and_bad_magic_are_typed() {
        let mut bytes = sample_bundle().to_binary();
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 9;
        assert_eq!(
            BundleStore::from_bytes(wrong_version).unwrap_err(),
            AwError::UnsupportedVersion {
                found: 9,
                supported: BUNDLE_BIN_VERSION
            }
        );
        bytes[0] = b'X';
        assert!(matches!(
            BundleStore::from_bytes(bytes).unwrap_err(),
            AwError::MalformedArtifact(_)
        ));
    }
}
