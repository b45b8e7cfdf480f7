//! Crash-safe, versioned binary persistence for PHAST artifacts.
//!
//! PHAST's economics are "preprocess once, sweep millions of times"
//! (paper §III): the preprocessed instance is a long-lived production
//! asset that outlives any single process, so this crate gives it a real
//! on-disk format:
//!
//! * **Integrity**: magic bytes, an explicit format version, a CRC32 per
//!   section and a whole-file CRC32. A corrupt, truncated or
//!   version-skewed file yields a typed [`StoreError`] — never a panic
//!   and never a silently-wrong tree (every load re-runs the structural
//!   validators).
//! * **Crash safety**: writes go to a temp file in the destination
//!   directory, `fsync`, then atomically rename over the target and
//!   `fsync` the directory. Readers either see the complete old file or
//!   the complete new one.
//! * **One artifact**: a [`phast_core::Phast`] instance, optionally
//!   bundling the [`phast_ch::Hierarchy`] it came from (so a serving
//!   process can build point-to-point engines without recontracting) and
//!   any number of versioned metrics.
//! * **One load path**: [`decode_instance`] over the file's bytes, which
//!   [`read_instance`] hands it from the heap and [`load_instance_mmap`]
//!   from a mapping it may borrow the large arrays out of.
//!
//! The byte layout is specified in DESIGN.md §10; [`codec`] implements
//! it and this module adds the file-level API.

pub mod codec;
pub mod crc;
pub mod mmap;

pub use codec::{decode_instance, encode_instance, FORMAT_VERSION, MAGIC, PAYLOAD_ALIGN};

use phast_ch::Hierarchy;
use phast_core::Phast;
use phast_metrics::MetricWeights;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc as SharedArc;

/// Why a `.phast` artifact failed to load (or save).
///
/// Every failure mode of a hostile or damaged file maps to exactly one of
/// these variants; the fault-injection suite asserts that no input —
/// bit-flipped, truncated at any byte, version-skewed — escapes this type.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The file does not start with the `.phast` magic bytes.
    NotAStore,
    /// The file's format version is not the one this build reads.
    UnsupportedVersion {
        /// Version number found in the header.
        found: u32,
    },
    /// The header's artifact-kind code is not the instance kind.
    UnknownKind(u32),
    /// The file ends in the middle of a header or section.
    Truncated {
        /// Byte offset at which data ran out.
        offset: usize,
    },
    /// A section's payload does not match its stored CRC32.
    SectionChecksum {
        /// Tag of the damaged section.
        tag: u32,
    },
    /// The whole-file CRC32 does not match.
    FileChecksum,
    /// The bytes parse but violate a structural invariant; the message
    /// says which one.
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::NotAStore => write!(f, "not a .phast artifact (bad magic)"),
            StoreError::UnsupportedVersion { found } => write!(
                f,
                "unsupported format version {found} (this build reads version {FORMAT_VERSION})"
            ),
            StoreError::UnknownKind(code) => write!(f, "unknown artifact kind code {code}"),
            StoreError::Truncated { offset } => {
                write!(f, "file truncated (data ran out at byte {offset})")
            }
            StoreError::SectionChecksum { tag } => {
                write!(f, "section 0x{tag:02X} failed its CRC32 check")
            }
            StoreError::FileChecksum => write!(f, "whole-file CRC32 mismatch"),
            StoreError::Corrupt(m) => write!(f, "corrupt artifact: {m}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Writes `bytes` to `path` crash-safely: temp file in the same
/// directory, `fsync`, atomic rename, directory `fsync`. A crash at any
/// point leaves either the old file or the new one — never a torn write —
/// and so do concurrent writers of one target: each call has a temp file
/// of its own, so the last rename wins whole.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    // Tells apart this process's writers; the pid tells apart processes.
    static NEXT_TEMP: AtomicU64 = AtomicU64::new(0);
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| StoreError::Io(io::Error::new(io::ErrorKind::InvalidInput, "path has no file name")))?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        NEXT_TEMP.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)?;
        // Make the rename itself durable: fsync the containing directory.
        // Failure here is not ignorable — the file could vanish on crash.
        File::open(dir)?.sync_all()?;
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Saves a preprocessed instance (and optionally its hierarchy) to
/// `path`, crash-safely. An artifact that also carries metrics is
/// [`write_atomic`] of [`encode_instance`] with them.
pub fn write_instance(path: &Path, p: &Phast, h: Option<&Hierarchy>) -> Result<(), StoreError> {
    write_atomic(path, &encode_instance(p, h, &[]))
}

/// What an artifact holds, as [`decode_instance`] hands it back.
#[derive(Debug)]
pub struct LoadedInstance {
    /// The preprocessed sweep instance.
    pub phast: Phast,
    /// The bundled contraction hierarchy, if the artifact carries one.
    pub hierarchy: Option<Hierarchy>,
    /// Every metric stored alongside the instance, in file order.
    pub metrics: Vec<MetricWeights>,
    /// True when all seven large arrays borrow straight out of a file
    /// mapping; false when any was converted to the heap (bytes read
    /// rather than mapped, a big-endian host, a misaligned payload).
    pub zero_copy: bool,
}

/// Loads the instance (and the hierarchy, if bundled) saved by
/// [`write_instance`] from bytes read to the heap.
pub fn read_instance(path: &Path) -> Result<(Phast, Option<Hierarchy>), StoreError> {
    let loaded = decode_instance(&fs::read(path)?, None)?;
    Ok((loaded.phast, loaded.hierarchy))
}

/// Loads an artifact by memory-mapping the file, so that the large arrays
/// (permutation + three CSRs) are borrowed directly out of the mapping —
/// no copy, and N replicas on one machine share one set of page-cache
/// pages. Where no mapping can be had (no `mmap` facility, an empty
/// file) the bytes are read to the heap instead.
///
/// Either way it is [`decode_instance`] that reads them: every CRC,
/// length and structural invariant is checked exactly as in
/// [`read_instance`], and every failure yields the same [`StoreError`].
pub fn load_instance_mmap(path: &Path) -> Result<LoadedInstance, StoreError> {
    match mmap::Mmap::open(path) {
        Ok(map) => {
            let map = SharedArc::new(map);
            decode_instance(&map, Some(&map))
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Err(StoreError::Io(e)),
        Err(_) => decode_instance(&fs::read(path)?, None),
    }
}
