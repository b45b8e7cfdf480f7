//! Byte-level encoding and decoding of `.phast` artifacts.
//!
//! The layout (see DESIGN.md §10):
//!
//! ```text
//! magic [8] | version u32 | kind u32 | section* | file_crc u32
//! section = tag u32 | len u64 | payload [len] | payload_crc u32
//! ```
//!
//! All integers are little-endian. The trailing `file_crc` covers every
//! byte before it, so any corruption — header, section framing, payload,
//! even a swapped pair of intact sections — is detected. Per-section CRCs
//! localize the damage for diagnostics.
//!
//! The writer interleaves zero-filled `PAD` sections (tag 0x00, normal
//! framing) so that every data section's *payload* starts on a 64-byte
//! boundary: a payload that is cache-line-aligned in the file is
//! cache-line-aligned in a page-aligned mapping, which is what lets
//! [`decode_instance`] borrow the big arrays straight out of one.
//!
//! There is one array codec: every array section is consecutive
//! little-endian `u32` words, written by [`Encoder::array`] and read by
//! [`decode`] — which borrows when it soundly can and converts when it
//! cannot, so a mapped load, a heap load and a big-endian host run the
//! same function.
//!
//! Decoding never trusts a length field: every read is bounds-checked
//! against the remaining buffer *before* any slicing or allocation, so a
//! hostile length cannot cause a panic or an oversized allocation. After
//! the bytes parse, the artifact is structurally re-validated
//! ([`Phast::from_parts`] / [`Hierarchy::validate`]) so a file whose
//! checksums happen to pass but whose arrays are inconsistent is still
//! rejected instead of producing a silently-wrong tree.

use crate::crc::{crc32, Crc32};
use crate::mmap::Mmap;
use crate::{LoadedInstance, StoreError};
use phast_ch::hierarchy::Hierarchy;
use phast_core::{Direction, Phast, PhastParts};
use phast_graph::csr::{Csr, ReverseArc};
use phast_graph::segment::{Segment, SegmentOwner};
use phast_graph::{Arc, MAX_WEIGHT};
use phast_metrics::MetricWeights;
use std::collections::BTreeMap;
use std::mem::{align_of, size_of};
use std::sync::Arc as SharedArc;

/// File magic: identifies a `.phast` artifact.
pub const MAGIC: [u8; 8] = *b"PHASTBIN";

/// The format version this build writes and the only one it reads. Bump
/// on any layout change; a reader rejects every other version (no silent
/// best-effort parsing).
pub const FORMAT_VERSION: u32 = 3;

/// The header's kind code: a sweep instance, the one kind there is.
const KIND_INSTANCE: u32 = 1;

/// Alignment guarantee (bytes) for every data-section payload. One x86
/// cache line; also ≥ the alignment of every array element type we store.
pub const PAYLOAD_ALIGN: usize = 64;

/// Header length: magic + version + kind.
const HEADER_LEN: usize = 8 + 4 + 4;
/// Section framing before the payload: tag + len.
const SECTION_PREFIX: usize = 4 + 8;
/// Per-section framing overhead: tag + len + payload CRC.
const SECTION_OVERHEAD: usize = SECTION_PREFIX + 4;
/// Smallest possible file: header + trailing file CRC.
const MIN_FILE_LEN: usize = HEADER_LEN + 4;

// Padding: zero payload bytes, repeatable, carries no data. Emitted
// before a data section whenever the data payload would otherwise start
// off a PAYLOAD_ALIGN boundary.
const SEC_PAD: u32 = 0x00;

// Instance sections.
const SEC_META: u32 = 0x01;
const SEC_PERM: u32 = 0x02;
const SEC_LEVELS: u32 = 0x03;
const SEC_UP_FIRST: u32 = 0x04;
const SEC_UP_ARCS: u32 = 0x05;
const SEC_UP_MIDDLE: u32 = 0x06;
const SEC_DOWN_FIRST: u32 = 0x07;
const SEC_DOWN_ARCS: u32 = 0x08;
const SEC_DOWN_MIDDLE: u32 = 0x09;
const SEC_ORIG_FIRST: u32 = 0x0A;
const SEC_ORIG_ARCS: u32 = 0x0B;

// The bundled hierarchy: all nine sections or none.
const SEC_H_META: u32 = 0x20;
const SEC_H_RANK: u32 = 0x21;
const SEC_H_LEVEL: u32 = 0x22;
const SEC_H_FWD_FIRST: u32 = 0x23;
const SEC_H_FWD_ARCS: u32 = 0x24;
const SEC_H_FWD_MIDDLE: u32 = 0x25;
const SEC_H_BWD_FIRST: u32 = 0x26;
const SEC_H_BWD_ARCS: u32 = 0x27;
const SEC_H_BWD_MIDDLE: u32 = 0x28;

// Unlike every other data tag, METRIC may repeat — one section per stored
// `(name, version)` weight generation.
const SEC_METRIC: u32 = 0x40;

/// What a section tag holds, `None` for a tag this format does not have.
/// The names are the ones the decoder's error messages use.
pub fn section_name(tag: u32) -> Option<&'static str> {
    Some(match tag {
        SEC_PAD => "pad",
        SEC_META => "meta",
        SEC_PERM => "permutation",
        SEC_LEVELS => "levels",
        SEC_UP_FIRST => "up first",
        SEC_UP_ARCS => "up arcs",
        SEC_UP_MIDDLE => "up middle",
        SEC_DOWN_FIRST => "down first",
        SEC_DOWN_ARCS => "down arcs",
        SEC_DOWN_MIDDLE => "down middle",
        SEC_ORIG_FIRST => "orig first",
        SEC_ORIG_ARCS => "orig arcs",
        SEC_H_META => "hierarchy meta",
        SEC_H_RANK => "rank",
        SEC_H_LEVEL => "level",
        SEC_H_FWD_FIRST => "forward first",
        SEC_H_FWD_ARCS => "forward arcs",
        SEC_H_FWD_MIDDLE => "forward middle",
        SEC_H_BWD_FIRST => "backward first",
        SEC_H_BWD_ARCS => "backward arcs",
        SEC_H_BWD_MIDDLE => "backward middle",
        SEC_METRIC => "metric",
        _ => return None,
    })
}

// ------------------------------------------------------------- array codec

/// An array element stored as consecutive little-endian `u32` words.
///
/// # Safety
///
/// The type must be `u32` or a `#[repr(C)]` struct of `u32` fields and
/// nothing else (no padding, every bit pattern valid), with `put`/`get`
/// writing and reading the fields in declaration order — so that on a
/// little-endian target the in-memory array *is* the on-disk payload.
unsafe trait LeWords: Sized + 'static {
    /// Appends `size_of::<Self>()` bytes.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads one element from exactly `size_of::<Self>()` bytes.
    fn get(bytes: &[u8]) -> Self;
}

// SAFETY: `u32` itself; `to_le_bytes` is its little-endian memory image.
unsafe impl LeWords for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get(bytes: &[u8]) -> u32 {
        u32::from_le_bytes(bytes.try_into().expect("one u32 word"))
    }
}

// SAFETY: `Arc` is `#[repr(C)] { head: u32, weight: u32 }`, on disk
// `head_le | weight_le`.
unsafe impl LeWords for Arc {
    fn put(&self, out: &mut Vec<u8>) {
        self.head.put(out);
        self.weight.put(out);
    }
    fn get(bytes: &[u8]) -> Arc {
        Arc::new(u32::get(&bytes[..4]), u32::get(&bytes[4..]))
    }
}

// SAFETY: `ReverseArc` is `#[repr(C)] { tail: u32, weight: u32 }`, on
// disk `tail_le | weight_le`.
unsafe impl LeWords for ReverseArc {
    fn put(&self, out: &mut Vec<u8>) {
        self.tail.put(out);
        self.weight.put(out);
    }
    fn get(bytes: &[u8]) -> ReverseArc {
        ReverseArc::new(u32::get(&bytes[..4]), u32::get(&bytes[4..]))
    }
}

/// Appends `vals` as little-endian words — the one array encode loop.
fn put_all<T: LeWords>(vals: &[T], out: &mut Vec<u8>) {
    out.reserve(std::mem::size_of_val(vals));
    for v in vals {
        v.put(out);
    }
}

/// Converts a payload to owned elements — the one array decode loop.
/// Rejects a payload whose length is not a whole number of elements.
fn get_all<T: LeWords>(payload: &[u8], what: &str) -> Result<Vec<T>, StoreError> {
    let unit = size_of::<T>();
    if !payload.len().is_multiple_of(unit) {
        return Err(StoreError::Corrupt(format!(
            "{what} section length {} is not a multiple of {unit}",
            payload.len()
        )));
    }
    Ok(payload.chunks_exact(unit).map(T::get).collect())
}

/// Turns an array payload into a [`Segment`]: borrowed out of `owner`
/// when there is one, `payload` lies inside it, the target is
/// little-endian and the payload is aligned for `T`; converted to the heap
/// by [`get_all`] otherwise. Both branches reject the same lengths with
/// the same error.
fn decode<T: LeWords>(
    payload: &[u8],
    what: &str,
    owner: Option<&SharedArc<Mmap>>,
) -> Result<Segment<T>, StoreError> {
    let lender = owner.filter(|map| {
        let (held, asked) = (map.as_ptr_range(), payload.as_ptr_range());
        cfg!(target_endian = "little")
            && held.start <= asked.start
            && asked.end <= held.end
            && payload.len().is_multiple_of(size_of::<T>())
            && (payload.as_ptr() as usize).is_multiple_of(align_of::<T>())
    });
    match lender {
        // SAFETY: the pointer is aligned for `T` and the length a whole
        // number of `T`s (both just checked); on this little-endian
        // target the bytes are valid `T`s by the `LeWords` contract; and
        // `payload` lies inside `map` (checked too), a read-only mapping
        // that the segment's clone of the handle keeps alive.
        Some(map) => Ok(unsafe {
            Segment::from_mapped(
                payload.as_ptr() as *const T,
                payload.len() / size_of::<T>(),
                SharedArc::clone(map) as SegmentOwner,
            )
        }),
        None => Ok(get_all(payload, what)?.into()),
    }
}

// ---------------------------------------------------------------- encoding

struct Encoder {
    buf: Vec<u8>,
    /// The whole-file CRC of `buf[..hashed]`: each payload enters it by
    /// [`Crc32::combine`] of its own CRC, so every byte is hashed once.
    file: Crc32,
    hashed: usize,
}

impl Encoder {
    fn new() -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&KIND_INSTANCE.to_le_bytes());
        Encoder {
            buf,
            file: Crc32::new(),
            hashed: 0,
        }
    }

    /// Appends one data section whose payload `fill` writes straight into
    /// the buffer, preceded by whatever `PAD` section puts that payload
    /// on a [`PAYLOAD_ALIGN`] boundary.
    fn section(&mut self, tag: u32, fill: impl FnOnce(&mut Vec<u8>)) {
        if !(self.buf.len() + SECTION_PREFIX).is_multiple_of(PAYLOAD_ALIGN) {
            // Sized so the *next* payload (after the pad's own framing
            // and this section's tag + len) starts on the boundary.
            let pad_len = (PAYLOAD_ALIGN
                - (self.buf.len() + SECTION_PREFIX + SECTION_OVERHEAD) % PAYLOAD_ALIGN)
                % PAYLOAD_ALIGN;
            self.frame(SEC_PAD, |buf| buf.resize(buf.len() + pad_len, 0));
        }
        self.frame(tag, fill);
    }

    /// `tag | len | payload | crc`, the length patched in once `fill` has
    /// said how long the payload is.
    fn frame(&mut self, tag: u32, fill: impl FnOnce(&mut Vec<u8>)) {
        self.buf.extend_from_slice(&tag.to_le_bytes());
        let len_at = self.buf.len();
        self.buf.extend_from_slice(&0u64.to_le_bytes());
        let start = self.buf.len();
        fill(&mut self.buf);
        let len = (self.buf.len() - start) as u64;
        self.buf[len_at..start].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&self.buf[start..]);
        self.file.update(&self.buf[self.hashed..start]);
        self.file.combine(crc, len);
        self.hashed = self.buf.len();
        self.buf.extend_from_slice(&crc.to_le_bytes());
    }

    /// Appends one array section.
    fn array<T: LeWords>(&mut self, tag: u32, vals: &[T]) {
        self.section(tag, |buf| put_all(vals, buf));
    }

    fn finish(mut self) -> Vec<u8> {
        self.file.update(&self.buf[self.hashed..]);
        let crc = self.file.finish();
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

/// Serializes a preprocessed instance — optionally bundling the hierarchy
/// it was built from, so a later `serve` run can skip recontraction *and*
/// still build p2p engines — plus any number of versioned metrics, each
/// in its own CRC-protected METRIC section.
pub fn encode_instance(p: &Phast, h: Option<&Hierarchy>, metrics: &[MetricWeights]) -> Vec<u8> {
    let mut enc = Encoder::new();
    let dir = match p.direction() {
        Direction::Forward => 0u32,
        Direction::Reverse => 1u32,
    };
    enc.section(SEC_META, |buf| {
        buf.extend_from_slice(&dir.to_le_bytes());
        buf.extend_from_slice(&(p.num_shortcuts() as u64).to_le_bytes());
    });
    enc.array(SEC_PERM, p.permutation().as_slice());
    enc.array(SEC_LEVELS, p.levels());
    enc.array(SEC_UP_FIRST, p.up().first());
    enc.array(SEC_UP_ARCS, p.up().arcs());
    enc.array(SEC_UP_MIDDLE, p.up_middles());
    enc.array(SEC_DOWN_FIRST, p.down().first());
    enc.array(SEC_DOWN_ARCS, p.down().arcs());
    enc.array(SEC_DOWN_MIDDLE, p.down_middles());
    enc.array(SEC_ORIG_FIRST, p.orig_incoming().first());
    enc.array(SEC_ORIG_ARCS, p.orig_incoming().arcs());
    if let Some(h) = h {
        enc.section(SEC_H_META, |buf| {
            buf.extend_from_slice(&(h.num_shortcuts as u64).to_le_bytes());
        });
        enc.array(SEC_H_RANK, &h.rank);
        enc.array(SEC_H_LEVEL, &h.level);
        enc.array(SEC_H_FWD_FIRST, h.forward_up.first());
        enc.array(SEC_H_FWD_ARCS, h.forward_up.arcs());
        enc.array(SEC_H_FWD_MIDDLE, &h.forward_middle);
        enc.array(SEC_H_BWD_FIRST, h.backward_up.first());
        enc.array(SEC_H_BWD_ARCS, h.backward_up.arcs());
        enc.array(SEC_H_BWD_MIDDLE, &h.backward_middle);
    }
    for m in metrics {
        // `name_len u32 | name bytes | version u64 | count u64 | weights u32*`
        enc.section(SEC_METRIC, |buf| {
            buf.extend_from_slice(&(m.name.len() as u32).to_le_bytes());
            buf.extend_from_slice(m.name.as_bytes());
            buf.extend_from_slice(&m.version.to_le_bytes());
            buf.extend_from_slice(&(m.weights.len() as u64).to_le_bytes());
            put_all(&m.weights, buf);
        });
    }
    enc.finish()
}

// ---------------------------------------------------------------- decoding

/// One framed section of an artifact, as [`sections`] walks them.
#[derive(Clone, Copy, Debug)]
pub struct Section<'a> {
    /// What the payload is; [`section_name`] names it.
    pub tag: u32,
    /// Byte offset of the payload in the file.
    pub offset: usize,
    /// The payload bytes.
    pub payload: &'a [u8],
    /// The CRC-32 of the payload as read.
    pub crc: u32,
    /// Whether that matches the CRC-32 stored after the payload.
    pub crc_ok: bool,
}

/// Checks the header of `bytes` — minimum length, magic, version, kind,
/// in that order and before any checksum is looked at — and returns the
/// frame walk over its sections, in file order: every length is
/// bounds-checked before its payload is sliced, and a frame that does not
/// fit ends the walk with [`StoreError::Truncated`]. What the sections
/// *hold* (tags, failed CRCs, pads, the whole-file CRC) is for the
/// consumer of the walk to judge; [`decode_instance`] is the one that does.
pub fn sections(
    bytes: &[u8],
) -> Result<impl Iterator<Item = Result<Section<'_>, StoreError>>, StoreError> {
    if bytes.len() < MIN_FILE_LEN {
        return Err(StoreError::Truncated { offset: bytes.len() });
    }
    if bytes[..8] != MAGIC {
        return Err(StoreError::NotAStore);
    }
    let word = |at: usize| u32::get(&bytes[at..at + 4]);
    if word(8) != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { found: word(8) });
    }
    if word(12) != KIND_INSTANCE {
        return Err(StoreError::UnknownKind(word(12)));
    }
    // Where the sections end and the whole-file CRC begins.
    let body_end = bytes.len() - 4;
    let mut next = HEADER_LEN;
    Ok(std::iter::from_fn(move || {
        let pos = next;
        if pos >= body_end {
            return None;
        }
        // Whatever goes wrong below, the walk is over.
        next = body_end;
        if body_end - pos < SECTION_OVERHEAD {
            return Some(Err(StoreError::Truncated { offset: pos }));
        }
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let offset = pos + SECTION_PREFIX;
        // Bounds check *before* converting to usize arithmetic: a hostile
        // 64-bit length must not overflow or slice out of range.
        if len > (body_end - offset - 4) as u64 {
            return Some(Err(StoreError::Truncated { offset: pos }));
        }
        let end = offset + len as usize;
        next = end + 4;
        let payload = &bytes[offset..end];
        let crc = crc32(payload);
        Some(Ok(Section {
            tag: word(pos),
            offset,
            payload,
            crc,
            crc_ok: crc == word(end),
        }))
    }))
}

/// Checked section payloads: unique sections keyed by tag, plus the
/// repeatable METRIC sections in file order.
struct Parsed<'a> {
    by_tag: BTreeMap<u32, &'a [u8]>,
    metrics: Vec<&'a [u8]>,
}

impl<'a> Parsed<'a> {
    fn require(&self, tag: u32) -> Result<&'a [u8], StoreError> {
        self.by_tag
            .get(&tag)
            .copied()
            .ok_or_else(|| StoreError::Corrupt(format!("missing section 0x{tag:02X}")))
    }

    /// The array section `tag`, borrowed from `owner` where [`decode`] can.
    fn array<T: LeWords>(
        &self,
        tag: u32,
        owner: Option<&SharedArc<Mmap>>,
    ) -> Result<Segment<T>, StoreError> {
        decode(self.require(tag)?, section_name(tag).expect("our own tag"), owner)
    }

    /// The array section `tag`, on the heap.
    fn vec<T: LeWords>(&self, tag: u32) -> Result<Vec<T>, StoreError> {
        get_all(self.require(tag)?, section_name(tag).expect("our own tag"))
    }
}

/// Walks [`sections`] and verifies what they hold: known tags only,
/// per-section CRCs, zero-only pads, no duplicates, the whole-file CRC.
/// Every byte is hashed once: the whole-file CRC takes each payload in by
/// [`Crc32::combine`] of the CRC the walk computed for it.
fn parse_sections(bytes: &[u8]) -> Result<Parsed<'_>, StoreError> {
    let mut parsed = Parsed {
        by_tag: BTreeMap::new(),
        metrics: Vec::new(),
    };
    // The whole-file CRC of `bytes[..hashed]`.
    let (mut file, mut hashed) = (Crc32::new(), 0);
    for section in sections(bytes)? {
        let section = section?;
        file.update(&bytes[hashed..section.offset]);
        file.combine(section.crc, section.payload.len() as u64);
        hashed = section.offset + section.payload.len();
        let tag = section.tag;
        // Unknown tags are rejected rather than skipped: the version-bump
        // policy (DESIGN.md §10) says any new section implies a new format
        // version, so an unrecognized tag is corruption.
        if section_name(tag).is_none() {
            return Err(StoreError::Corrupt(format!("unknown section 0x{tag:02X}")));
        }
        if !section.crc_ok {
            return Err(StoreError::SectionChecksum { tag });
        }
        if tag == SEC_PAD {
            // Padding carries no data, repeats freely, and must be all
            // zeros: non-zero bytes mean damage (or smuggled data) that
            // the CRCs happened to bless.
            if section.payload.iter().any(|&b| b != 0) {
                return Err(StoreError::Corrupt(
                    "padding section holds non-zero bytes".into(),
                ));
            }
        } else if tag == SEC_METRIC {
            // The other deliberately repeatable tag: one section per metric.
            parsed.metrics.push(section.payload);
        } else if parsed.by_tag.insert(tag, section.payload).is_some() {
            return Err(StoreError::Corrupt(format!("duplicate section 0x{tag:02X}")));
        }
    }
    let body_end = bytes.len() - 4;
    file.update(&bytes[hashed..body_end]);
    if file.finish() != u32::get(&bytes[body_end..]) {
        return Err(StoreError::FileChecksum);
    }
    Ok(parsed)
}

/// Decodes one METRIC payload with the same paranoia as everything else:
/// every length is bounds-checked before slicing, and the weights are
/// re-validated against [`MAX_WEIGHT`] (the kernels' wrap-free bound).
fn decode_metric(payload: &[u8]) -> Result<MetricWeights, StoreError> {
    let take = |pos: usize, len: usize| -> Result<&[u8], StoreError> {
        payload
            .get(pos..pos + len)
            .ok_or(StoreError::Corrupt("metric section truncated".into()))
    };
    let name_len = u32::get(take(0, 4)?) as usize;
    let name = std::str::from_utf8(take(4, name_len)?)
        .map_err(|_| StoreError::Corrupt("metric name is not UTF-8".into()))?
        .to_string();
    let mut pos = 4 + name_len;
    let version = u64::from_le_bytes(take(pos, 8)?.try_into().expect("8 bytes"));
    pos += 8;
    let count = u64::from_le_bytes(take(pos, 8)?.try_into().expect("8 bytes"));
    pos += 8;
    let avail = (payload.len() - pos) / 4;
    if count != avail as u64 || payload.len() != pos + avail * 4 {
        return Err(StoreError::Corrupt(format!(
            "metric `{name}` declares {count} weights but carries {avail}"
        )));
    }
    let weights: Vec<u32> = get_all(&payload[pos..], "metric weights")?;
    if let Some(&w) = weights.iter().find(|&&w| w > MAX_WEIGHT) {
        return Err(StoreError::Corrupt(format!(
            "metric `{name}` v{version} holds weight {w} above MAX_WEIGHT"
        )));
    }
    Ok(MetricWeights {
        name,
        version,
        weights,
    })
}

fn decode_bundled_hierarchy(parsed: &Parsed) -> Result<Hierarchy, StoreError> {
    let meta = parsed.require(SEC_H_META)?;
    if meta.len() != 8 {
        return Err(StoreError::Corrupt("hierarchy meta has wrong length".into()));
    }
    let num_shortcuts = u64::from_le_bytes(meta.try_into().expect("8 bytes")) as usize;

    let rank: Vec<u32> = parsed.vec(SEC_H_RANK)?;
    let level: Vec<u32> = parsed.vec(SEC_H_LEVEL)?;
    let forward_up =
        Csr::try_from_raw(parsed.vec(SEC_H_FWD_FIRST)?, parsed.vec(SEC_H_FWD_ARCS)?)
            .map_err(StoreError::Corrupt)?;
    let forward_middle: Vec<u32> = parsed.vec(SEC_H_FWD_MIDDLE)?;
    let backward_up =
        Csr::try_from_raw(parsed.vec(SEC_H_BWD_FIRST)?, parsed.vec(SEC_H_BWD_ARCS)?)
            .map_err(StoreError::Corrupt)?;
    let backward_middle: Vec<u32> = parsed.vec(SEC_H_BWD_MIDDLE)?;

    // Cross-array length checks must come before `validate()`, which
    // indexes `level`/`rank` by arc endpoints and assumes equal lengths.
    let n = rank.len();
    if level.len() != n || forward_up.num_vertices() != n || backward_up.num_vertices() != n {
        return Err(StoreError::Corrupt(
            "hierarchy arrays disagree on vertex count".into(),
        ));
    }
    if forward_middle.len() != forward_up.num_arcs()
        || backward_middle.len() != backward_up.num_arcs()
    {
        return Err(StoreError::Corrupt(
            "hierarchy middle arrays out of sync with arc lists".into(),
        ));
    }

    let h = Hierarchy {
        rank,
        level,
        forward_up,
        forward_middle,
        backward_up,
        backward_middle,
        num_shortcuts,
    };
    h.validate().map_err(StoreError::Corrupt)?;
    Ok(h)
}

/// Decodes an artifact — the instance, the hierarchy it may bundle and
/// every METRIC section — re-validating every structural invariant
/// (including metric arity against the instance's own base-arc count).
///
/// With `owner: None` every array is decoded to the heap. With a mapping
/// that `bytes` is a slice of, the seven large arrays (permutation + the
/// three CSRs) are borrowed straight out of it wherever the target's
/// endianness and the payload's alignment allow, each holding a clone of
/// the handle to keep the mapping alive; [`LoadedInstance::zero_copy`]
/// reports whether *all* of them were. Nothing is ever borrowed from
/// memory `owner` does not hold: bytes from elsewhere decode to the heap.
/// The checks, and the error each failure yields, are the same either way.
pub fn decode_instance(
    bytes: &[u8],
    owner: Option<&SharedArc<Mmap>>,
) -> Result<LoadedInstance, StoreError> {
    let parsed = parse_sections(bytes)?;

    let meta = parsed.require(SEC_META)?;
    if meta.len() != 12 {
        return Err(StoreError::Corrupt("instance meta has wrong length".into()));
    }
    let direction = match u32::get(&meta[..4]) {
        0 => Direction::Forward,
        1 => Direction::Reverse,
        d => return Err(StoreError::Corrupt(format!("unknown direction code {d}"))),
    };
    let num_shortcuts = u64::from_le_bytes(meta[4..12].try_into().expect("8 bytes")) as usize;

    let parts = PhastParts {
        new_of_old: parsed.array(SEC_PERM, owner)?,
        level_of_sweep: parsed.vec(SEC_LEVELS)?,
        up_first: parsed.array(SEC_UP_FIRST, owner)?,
        up_arcs: parsed.array(SEC_UP_ARCS, owner)?,
        up_middle: parsed.vec(SEC_UP_MIDDLE)?,
        down_first: parsed.array(SEC_DOWN_FIRST, owner)?,
        down_arcs: parsed.array(SEC_DOWN_ARCS, owner)?,
        down_middle: parsed.vec(SEC_DOWN_MIDDLE)?,
        orig_first: parsed.array(SEC_ORIG_FIRST, owner)?,
        orig_arcs: parsed.array(SEC_ORIG_ARCS, owner)?,
        direction,
        num_shortcuts,
    };
    let zero_copy = parts.new_of_old.is_mapped()
        && parts.up_first.is_mapped()
        && parts.up_arcs.is_mapped()
        && parts.down_first.is_mapped()
        && parts.down_arcs.is_mapped()
        && parts.orig_first.is_mapped()
        && parts.orig_arcs.is_mapped();
    let phast = Phast::from_parts(parts).map_err(StoreError::Corrupt)?;

    // The hierarchy bundle is all-or-nothing: a partial set of hierarchy
    // sections means the file was damaged in a way the CRCs cannot see
    // (e.g. written by a buggy tool), so reject it.
    let hierarchy = match parsed.by_tag.range(SEC_H_META..=SEC_H_BWD_MIDDLE).count() {
        0 => None,
        9 => {
            let h = decode_bundled_hierarchy(&parsed)?;
            if h.num_vertices() != phast.num_vertices() {
                return Err(StoreError::Corrupt(
                    "bundled hierarchy is for a different graph".into(),
                ));
            }
            Some(h)
        }
        _ => {
            return Err(StoreError::Corrupt(
                "partial hierarchy bundle (missing sections)".into(),
            ))
        }
    };

    let num_base_arcs = phast.orig_incoming().num_arcs();
    let mut metrics: Vec<MetricWeights> = Vec::with_capacity(parsed.metrics.len());
    for payload in &parsed.metrics {
        let m = decode_metric(payload)?;
        if m.weights.len() != num_base_arcs {
            return Err(StoreError::Corrupt(format!(
                "metric `{}` v{} has {} weights but the instance has {} base arcs",
                m.name,
                m.version,
                m.weights.len(),
                num_base_arcs
            )));
        }
        if metrics.iter().any(|s| s.name == m.name && s.version == m.version) {
            return Err(StoreError::Corrupt(format!(
                "duplicate metric `{}` v{}",
                m.name, m.version
            )));
        }
        metrics.push(m);
    }
    Ok(LoadedInstance {
        phast,
        hierarchy,
        metrics,
        zero_copy,
    })
}
