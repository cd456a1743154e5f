//! Crash-consistent persistence: serialising constituent indexes to
//! checksummed byte images and committing whole wave indexes to an
//! [`IndexStore`] under a manifest.
//!
//! One file per constituent index mirrors how the paper's schemes map
//! onto commodity systems: `DropIndex` is a file unlink, shadow
//! updating is write-new-then-rename. Reloading rebuilds a packed
//! index (the image stores logical contents, not raw extents, so a
//! load also acts as a reorganisation — the "better structured index"
//! benefit of rebuild-based schemes).
//!
//! # On-disk format (WVIX v2)
//!
//! An image is magic (`WVIX`), version (2), label, time-set and the
//! value→entries map, followed by an 8-byte little-endian CRC64
//! trailer over everything before it. Version 2 is the only one
//! written or read: any other version, the trailer-less version 1
//! included, is refused with an [`IndexError::Corrupt`] that names it,
//! so every image that loads has passed its trailer check.
//!
//! # Manifest and two-phase commit
//!
//! The committed state of a wave is defined by a single `MANIFEST`
//! file naming the epoch, the window coverage, and the exact
//! constituent file set with lengths and checksums (self-checksummed
//! with its own CRC64 line). [`commit_wave`] makes a transition
//! durable in two phases:
//!
//! 1. make every constituent's files durable: a constituent that
//!    changed since the last commit is written under an epoch-suffixed
//!    name (`slot3.e17`), an unchanged one keeps the files an earlier
//!    epoch wrote (see "Incremental commit") — files the old manifest
//!    references are never modified;
//! 2. atomically flip `MANIFEST` to reference the new file set, then
//!    garbage-collect files no manifest references.
//!
//! Because the manifest flip is a single atomic rename, a crash at
//! any instant leaves the store describing either the pre- or the
//! post-transition wave; anything else on disk is an orphan that
//! [`crate::recovery::recover`] (or the next commit) sweeps up.
//!
//! ## Incremental commit
//!
//! A daily transition touches one constituent of the wave and leaves
//! the other n-1 alone, and a commit costs accordingly. Every
//! [`ConstituentIndex`] remembers the durable files it is
//! byte-identical to (image, `.filt`, `.ing`, each as name + length +
//! checksum). The marker is set when a commit
//! publishes the constituent or a load decodes it, and dropped by
//! every method that can change a byte of any of the three encodings.
//! Phase 1 carries a file into the new manifest instead of rewriting
//! it when all of these hold:
//!
//! * the constituent's marker names it;
//! * the previous manifest of *this* store lists the same
//!   `(name, length, checksum)` — a marker minted against another
//!   store, or against a file that recovery has since rebuilt, does
//!   not match and is ignored;
//! * the store's listing still holds the name.
//!
//! Anything else is encoded and written, so a full rewrite is simply
//! the case where no marker matches — a freshly built wave, or the
//! first commit to a store. There is one phase-1 loop and nothing
//! selects between two modes. A carried file keeps its name, so it may
//! outlive the epoch in its suffix and, if the wave's slots rotate,
//! serve another slot: the names are unique labels, and nothing parses
//! them. Garbage
//! collection still removes exactly what the new manifest does not
//! reference. Debug builds re-encode every carried file inside
//! [`commit_wave`] and fail the commit with [`IndexError::Corrupt`] if
//! its bytes no longer match the marker, so every suite that commits
//! twice checks the markers for free.
//!
//! ## What the per-file checksum is
//!
//! Every image, `.filt` and `.ing` ends in its own CRC-64/XZ trailer,
//! and the manifest records each file's *trailer value*, the CRC of
//! its body, which identifies content. Verification is one pass per
//! file — `crc64(body) == trailer == manifest value` — after which
//! the decoder parses the verified body without checksumming it again.
//!
//! The manifest header is `wave-manifest 2`; any other version is
//! refused with an [`IndexError::Corrupt`] that names it, so
//! [`load_committed`] fails, [`fsck`] reports the manifest not ok,
//! and [`crate::recovery::recover`] quarantines it and deletes
//! nothing. Version 1 recorded the CRC of the *whole* file, trailer
//! included, and the CRC of any message followed by its own CRC is a
//! constant of the polynomial (`b66a73654282cac0`), the same for every
//! file ever written: that checksum detected nothing the trailer did
//! not, and a stale or swapped file of the right name, length and
//! label passed both the loader and [`fsck`]. That is why version 2
//! replaced it, and nothing has written version 1 since.
//!
//! # Filter sidecars
//!
//! When a constituent carries a [`MembershipFilter`], phase 1 also
//! writes it as a checksummed sidecar (`slot3.e17.filt`) and the
//! manifest records it on a `filter` line ([`FilterRef`]). Sidecars
//! are part of the referenced file set — GC keeps them, [`fsck`]
//! checks them, and a damaged sidecar is rebuilt by
//! [`crate::recovery::recover`] from the constituent image rather
//! than failing the wave (the image is the source of truth; the
//! filter is derived data). Manifests written before sidecars existed
//! simply have no `filter` lines: loading such an epoch rebuilds the
//! filter for free during image decode.
//!
//! # Ingest-log sidecars
//!
//! When a constituent is committed with a dirty ingest buffer
//! (DESIGN.md §15), phase 1 also serializes the buffer as a
//! checksummed `.ing` sidecar recorded on an `ingest` manifest line
//! ([`IngestRef`]); loading replays it over the decoded image. The
//! log is *not* derived data — unlike a `.filt` sidecar, a damaged
//! `.ing` costs a constituent rebuild from the archive during
//! [`crate::recovery::recover`].
//!
//! [`fsck`]: crate::recovery::fsck

use std::collections::{BTreeMap, BTreeSet};

use wave_storage::{crc64, split_trailer, IndexStore, RetryPolicy, Volume};

use crate::entry::{Entry, ENTRY_BYTES};
use crate::error::{IndexError, IndexResult};
use crate::filter::MembershipFilter;
use crate::index::{ConstituentIndex, IndexConfig};
use crate::record::{Day, SearchValue};
use crate::wave::WaveIndex;

const MAGIC: &[u8; 4] = b"WVIX";
/// Image version: the only one written or read.
pub const VERSION: u16 = 2;
/// Name of the committed-wave manifest file.
pub const MANIFEST_NAME: &str = "MANIFEST";
/// Manifest version: the only one written or read.
pub const MANIFEST_VERSION: u32 = 2;
/// Suffix recovery gives quarantined (corrupt but preserved) files.
pub const QUARANTINE_SUFFIX: &str = ".quar";

/// Serialises an index's logical contents (label, time-set, buckets)
/// as a WVIX v2 image with a CRC64 trailer.
pub fn index_to_bytes(idx: &ConstituentIndex, vol: &mut Volume) -> IndexResult<Vec<u8>> {
    let map = idx.read_all(vol)?;
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    write_bytes(&mut out, idx.label().as_bytes());
    // The image captures the physical layer: with buffered mutations
    // in flight its time-set is the *physical* days (pending-delete
    // days still present, buffer-only days absent); the `.ing` sidecar
    // carries the delta back to the logical state.
    let days = idx.physical_days();
    out.extend_from_slice(&(days.len() as u32).to_le_bytes());
    for day in &days {
        out.extend_from_slice(&day.0.to_le_bytes());
    }
    out.extend_from_slice(&(map.len() as u32).to_le_bytes());
    for (value, entries) in &map {
        write_bytes(&mut out, value.as_bytes());
        out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for e in entries {
            e.encode_into(&mut out);
        }
    }
    let crc = crc64(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// Validates an image's magic and version: any version but
/// [`VERSION`] is refused, naming the version it found.
fn check_header(bytes: &[u8]) -> IndexResult<()> {
    match bytes.get(..6).and_then(|h| h.split_first_chunk::<4>()) {
        Some((magic, &[lo, hi])) if magic == MAGIC => match u16::from_le_bytes([lo, hi]) {
            VERSION => Ok(()),
            other => Err(IndexError::Corrupt(format!(
                "unsupported persistence version {other}"
            ))),
        },
        _ => Err(IndexError::Corrupt("bad persistence magic".into())),
    }
}

/// Rebuilds a (packed) index from a serialised image, verifying its
/// CRC64 trailer.
pub fn index_from_bytes(
    cfg: IndexConfig,
    vol: &mut Volume,
    bytes: &[u8],
) -> IndexResult<ConstituentIndex> {
    check_header(bytes)?;
    let (body, expected) = split_trailer(bytes)
        .ok_or_else(|| IndexError::Corrupt("image too short for trailer".into()))?;
    let got = crc64(body);
    if got != expected {
        return Err(IndexError::ChecksumMismatch {
            what: "index image".into(),
            expected,
            got,
        });
    }
    decode_body(cfg, vol, body)
}

/// Parses a verified image body (the image without its trailer).
fn decode_body(cfg: IndexConfig, vol: &mut Volume, body: &[u8]) -> IndexResult<ConstituentIndex> {
    let mut r = Reader::new(body);
    r.take(6)?; // magic + version, validated by the caller
    let label = String::from_utf8(r.bytes()?.to_vec())
        .map_err(|_| IndexError::Corrupt("label is not UTF-8".into()))?;
    let day_count = r.u32()? as usize;
    let mut days = BTreeSet::new();
    for _ in 0..day_count {
        days.insert(Day(r.u32()?));
    }
    let value_count = r.u32()? as usize;
    let mut map: BTreeMap<SearchValue, Vec<Entry>> = BTreeMap::new();
    for _ in 0..value_count {
        let value = SearchValue::from_bytes(r.bytes()?.to_vec());
        let entry_count = r.u32()? as usize;
        let mut entries = Vec::with_capacity(entry_count);
        for _ in 0..entry_count {
            let raw = r.take(ENTRY_BYTES)?;
            let e = Entry::decode(raw);
            if !days.contains(&e.day) {
                return Err(IndexError::Corrupt(format!(
                    "persisted entry day {} outside time-set",
                    e.day
                )));
            }
            entries.push(e);
        }
        map.insert(value, entries);
    }
    if !r.at_end() {
        return Err(IndexError::Corrupt(
            "trailing bytes after persistence image".into(),
        ));
    }
    ConstituentIndex::build_from_map(label, cfg, vol, map, days)
}

/// One durable file as a manifest names it: name, exact length and
/// checksum. The checksum is the file's own CRC64 trailer — the CRC
/// of its body — so equal triples mean equal bytes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FileRef {
    /// File name inside the store.
    pub file: String,
    /// Exact file length in bytes.
    pub len: u64,
    /// The file's CRC64 trailer.
    pub crc64: u64,
}

impl FileRef {
    /// The reference a manifest records for `bytes` stored as `file`.
    pub(crate) fn of(file: String, bytes: &[u8]) -> IndexResult<FileRef> {
        let (_, crc64) = split_trailer(bytes)
            .ok_or_else(|| IndexError::Corrupt(format!("{file}: no checksum trailer")))?;
        Ok(FileRef {
            file,
            len: bytes.len() as u64,
            crc64,
        })
    }

    /// Checks `bytes`, read from this file, against the reference: the
    /// exact length, then the checksum in a single CRC pass that
    /// proves `crc64(body) == trailer == recorded value`. The verified
    /// body is returned so the decoder need not checksum it again.
    pub(crate) fn verify<'a>(&self, bytes: &'a [u8]) -> IndexResult<&'a [u8]> {
        let file = &self.file;
        if bytes.len() as u64 != self.len {
            return Err(IndexError::Corrupt(format!(
                "{file}: length {} != manifest {}",
                bytes.len(),
                self.len
            )));
        }
        let mismatch = |got| IndexError::ChecksumMismatch {
            what: file.clone(),
            expected: self.crc64,
            got,
        };
        let (body, stored) = split_trailer(bytes)
            .ok_or_else(|| IndexError::Corrupt(format!("{file}: no checksum trailer")))?;
        if stored != self.crc64 {
            return Err(mismatch(stored));
        }
        let got = crc64(body);
        if got != self.crc64 {
            return Err(mismatch(got));
        }
        Ok(body)
    }
}

/// A membership-filter sidecar (`slot{j}.e{epoch}.filt`) as the
/// manifest records it. The sidecar is derived data — losing it costs
/// a rebuild during [`crate::recovery::recover`], never any answers —
/// but while it is referenced it is held to the same standard as a
/// constituent image.
pub type FilterRef = FileRef;

/// An ingest-log sidecar (`slot{j}.e{epoch}.ing`) as the manifest
/// records it: the serialized memtable of a constituent committed with
/// a dirty ingest buffer, replayed over the decoded physical image by
/// [`load_committed`] and [`crate::recovery::recover`]. Unlike a
/// filter sidecar the log is **not** derived data — the buffered
/// entries exist nowhere else in the store — so a torn log costs a
/// constituent rebuild from the archive.
pub type IngestRef = FileRef;

/// The durable files a [`ConstituentIndex`] is byte-identical to: what
/// [`commit_wave`] wrote (or carried over) for it, or what
/// [`load_committed`] / [`crate::recovery::recover`] decoded it from.
/// The index holds this until its next mutation, and the next commit
/// to the same store references the files again instead of rewriting
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DurableFiles {
    /// The constituent image.
    pub(crate) image: FileRef,
    /// The filter sidecar holding exactly the index's filter.
    pub(crate) filter: Option<FilterRef>,
    /// The ingest log holding exactly the index's dirty buffer.
    pub(crate) ingest: Option<IngestRef>,
}

/// One constituent file as the manifest records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Wave slot the file belongs to.
    pub slot: usize,
    /// File name inside the store.
    pub file: String,
    /// Exact file length in bytes.
    pub len: u64,
    /// Checksum of the image, as [`FileRef::crc64`] defines it.
    pub crc64: u64,
    /// Label of the constituent index.
    pub label: String,
    /// Days the constituent covers (for archive-based rebuilds).
    pub days: Vec<Day>,
    /// Membership-filter sidecar, if the constituent carried a
    /// filter when committed. `None` for filter-less constituents
    /// and for manifests written before sidecars existed.
    pub filter: Option<FilterRef>,
    /// Ingest-log sidecar, if the constituent was committed with a
    /// dirty ingest buffer. `None` for clean buffers and manifests
    /// written before the buffered tier existed.
    pub ingest: Option<IngestRef>,
}

impl ManifestEntry {
    /// The constituent image as a [`FileRef`].
    pub fn image(&self) -> FileRef {
        FileRef {
            file: self.file.clone(),
            len: self.len,
            crc64: self.crc64,
        }
    }

    /// Every file the entry references: image, then sidecars.
    pub fn files(&self) -> impl Iterator<Item = &str> {
        std::iter::once(self.file.as_str())
            .chain(self.filter.as_ref().map(|f| f.file.as_str()))
            .chain(self.ingest.as_ref().map(|l| l.file.as_str()))
    }

    /// Verifies a fetched constituent image against the entry (length,
    /// checksum, version, label) and decodes it.
    pub(crate) fn decode_image(
        &self,
        cfg: IndexConfig,
        vol: &mut Volume,
        bytes: &[u8],
    ) -> IndexResult<ConstituentIndex> {
        let body = self.image().verify(bytes)?;
        check_header(body)?;
        let idx = decode_body(cfg, vol, body)?;
        if idx.label() != self.label {
            let msg = format!(
                "{}: label {:?} != manifest {:?}",
                self.file,
                idx.label(),
                self.label
            );
            idx.release(vol)?;
            return Err(IndexError::Corrupt(msg));
        }
        Ok(idx)
    }

    /// Marks `idx` — just decoded from, or just committed as, this
    /// entry's files — byte-identical to them. The filter sidecar
    /// counts only when `idx` carries a filter (a filter-disabled
    /// config loads the image without it).
    pub(crate) fn mark_durable(&self, idx: &ConstituentIndex) {
        idx.mark_durable(DurableFiles {
            image: self.image(),
            filter: self
                .filter
                .clone()
                .filter(|_| idx.membership_filter().is_some()),
            ingest: self.ingest.clone(),
        });
    }
}

/// The committed state of a wave index: which epoch is live, what it
/// covers, and the exact file set (with checksums) forming it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonic commit counter; each [`commit_wave`] bumps it.
    pub epoch: u64,
    /// `[oldest, newest]` days the wave covers (`None` if empty).
    pub window: Option<(Day, Day)>,
    /// Number of wave slots (including empty ones).
    pub slots: usize,
    /// One entry per non-empty slot, ascending by slot.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Serialises the manifest, ending with its own `crc` line.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut text = format!("wave-manifest {MANIFEST_VERSION}\n");
        text.push_str(&format!("epoch {}\n", self.epoch));
        match self.window {
            Some((lo, hi)) => text.push_str(&format!("window {} {}\n", lo.0, hi.0)),
            None => text.push_str("window - -\n"),
        }
        text.push_str(&format!("slots {}\n", self.slots));
        for e in &self.entries {
            let days = if e.days.is_empty() {
                "-".to_string()
            } else {
                e.days
                    .iter()
                    .map(|d| d.0.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            text.push_str(&format!(
                "slot {} {} {} {:016x} {} {}\n",
                e.slot,
                e.file,
                e.len,
                e.crc64,
                hex_encode(e.label.as_bytes()),
                days
            ));
            for (kind, sidecar) in [("filter", &e.filter), ("ingest", &e.ingest)] {
                if let Some(r) = sidecar {
                    text.push_str(&format!(
                        "{kind} {} {} {} {:016x}\n",
                        e.slot, r.file, r.len, r.crc64
                    ));
                }
            }
        }
        let mut out = text.into_bytes();
        let crc = crc64(&out);
        out.extend_from_slice(format!("crc {crc:016x}\n").as_bytes());
        out
    }

    /// Parses and checksum-verifies a manifest. A header naming any
    /// version but [`MANIFEST_VERSION`] is refused with an error that
    /// names it.
    pub fn from_bytes(bytes: &[u8]) -> IndexResult<Manifest> {
        // The crc line is fixed-width: "crc " + 16 hex digits + "\n".
        const CRC_LINE: usize = 4 + 16 + 1;
        let (body, trailer) = bytes
            .split_last_chunk::<CRC_LINE>()
            .ok_or_else(|| IndexError::Corrupt("manifest truncated".into()))?;
        let trailer = std::str::from_utf8(trailer)
            .map_err(|_| IndexError::Corrupt("manifest crc line is not UTF-8".into()))?;
        let expected = trailer
            .strip_prefix("crc ")
            .and_then(|s| s.strip_suffix('\n'))
            // Strict lowercase hex: the trailer is the one line its own
            // checksum cannot cover, so no byte of it may have two
            // accepted spellings.
            .filter(|s| s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| IndexError::Corrupt("manifest missing crc line".into()))?;
        let got = crc64(body);
        if got != expected {
            return Err(IndexError::ChecksumMismatch {
                what: "manifest".into(),
                expected,
                got,
            });
        }
        let text = std::str::from_utf8(body)
            .map_err(|_| IndexError::Corrupt("manifest is not UTF-8".into()))?;
        let corrupt = |msg: &str| IndexError::Corrupt(format!("manifest: {msg}"));
        let mut lines = text.lines();
        match lines.next().and_then(|h| h.strip_prefix("wave-manifest ")) {
            Some(v) if v == MANIFEST_VERSION.to_string() => {}
            Some(v) => return Err(corrupt(&format!("unsupported version {v}"))),
            None => return Err(corrupt("bad header")),
        }
        let mut epoch = None;
        let mut window = None;
        let mut slots = None;
        let mut entries: Vec<ManifestEntry> = Vec::new();
        for line in lines {
            let mut parts = line.split(' ');
            match parts.next() {
                Some("epoch") => {
                    let v = parts.next().ok_or_else(|| corrupt("epoch missing value"))?;
                    epoch = Some(v.parse().map_err(|_| corrupt("bad epoch"))?);
                }
                Some("window") => {
                    let lo = parts.next().ok_or_else(|| corrupt("window missing lo"))?;
                    let hi = parts.next().ok_or_else(|| corrupt("window missing hi"))?;
                    window = Some(if lo == "-" {
                        None
                    } else {
                        Some((
                            Day(lo.parse().map_err(|_| corrupt("bad window lo"))?),
                            Day(hi.parse().map_err(|_| corrupt("bad window hi"))?),
                        ))
                    });
                }
                Some("slots") => {
                    let v = parts.next().ok_or_else(|| corrupt("slots missing value"))?;
                    slots = Some(v.parse().map_err(|_| corrupt("bad slots"))?);
                }
                // Image and sidecar lines share `slot name len checksum`.
                Some(kind @ ("slot" | "filter" | "ingest")) => {
                    let mut field = |what: &str| {
                        parts
                            .next()
                            .ok_or_else(|| corrupt(&format!("{kind} entry missing {what}")))
                    };
                    let slot: usize = field("slot")?
                        .parse()
                        .map_err(|_| corrupt(&format!("bad {kind} slot")))?;
                    let file = field("file")?.to_string();
                    let len = field("len")?
                        .parse()
                        .map_err(|_| corrupt(&format!("bad {kind} len")))?;
                    let crc64 = u64::from_str_radix(field("crc")?, 16)
                        .map_err(|_| corrupt(&format!("bad {kind} crc")))?;
                    if kind == "slot" {
                        let label = String::from_utf8(
                            hex_decode(field("label")?).ok_or_else(|| corrupt("bad label hex"))?,
                        )
                        .map_err(|_| corrupt("label is not UTF-8"))?;
                        let days_field = field("days")?;
                        let days = if days_field == "-" {
                            Vec::new()
                        } else {
                            days_field
                                .split(',')
                                .map(|d| d.parse().map(Day).map_err(|_| corrupt("bad day")))
                                .collect::<IndexResult<Vec<Day>>>()?
                        };
                        entries.push(ManifestEntry {
                            slot,
                            file,
                            len,
                            crc64,
                            label,
                            days,
                            filter: None,
                            ingest: None,
                        });
                        continue;
                    }
                    // A sidecar line follows the slot line it belongs to.
                    let entry = entries
                        .iter_mut()
                        .find(|e| e.slot == slot)
                        .ok_or_else(|| corrupt(&format!("{kind} line for unknown slot {slot}")))?;
                    let sidecar = if kind == "filter" {
                        &mut entry.filter
                    } else {
                        &mut entry.ingest
                    };
                    if sidecar.is_some() {
                        return Err(corrupt(&format!("duplicate {kind} line for slot {slot}")));
                    }
                    *sidecar = Some(FileRef { file, len, crc64 });
                }
                Some("") | None => {}
                Some(other) => return Err(corrupt(&format!("unknown line kind {other:?}"))),
            }
        }
        let manifest = Manifest {
            epoch: epoch.ok_or_else(|| corrupt("no epoch"))?,
            window: window.ok_or_else(|| corrupt("no window"))?,
            slots: slots.ok_or_else(|| corrupt("no slots"))?,
            entries,
        };
        let mut seen = BTreeSet::new();
        for e in &manifest.entries {
            if e.slot >= manifest.slots {
                return Err(corrupt(&format!(
                    "entry slot {} out of range 0..{}",
                    e.slot, manifest.slots
                )));
            }
            if !seen.insert(e.slot) {
                return Err(corrupt(&format!("duplicate slot {}", e.slot)));
            }
        }
        Ok(manifest)
    }

    /// How many constituent images this epoch's commit carried over
    /// from earlier epochs instead of rewriting them (their names
    /// still carry the epoch that wrote them).
    pub fn images_carried(&self) -> usize {
        let suffix = format!(".e{}", self.epoch);
        self.entries
            .iter()
            .filter(|e| !e.file.ends_with(&suffix))
            .count()
    }
}

/// Reads and verifies the committed manifest, or `None` if the store
/// has never committed one.
pub fn read_manifest(store: &mut dyn IndexStore) -> IndexResult<Option<Manifest>> {
    match store.get(MANIFEST_NAME)? {
        None => Ok(None),
        Some(bytes) => Manifest::from_bytes(&bytes).map(Some),
    }
}

/// What one [`commit_wave`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitReport {
    /// Epoch the commit published.
    pub epoch: u64,
    /// Constituent images written (sidecars not counted).
    pub files_written: usize,
    /// Constituent images carried over from the previous epoch
    /// unwritten, because the constituent had not changed since.
    pub files_reused: usize,
    /// Image and sidecar bytes written (manifest excluded).
    pub bytes_written: u64,
    /// Superseded or stray files garbage-collected after the flip.
    pub orphans_removed: usize,
}

/// Durably commits the wave's current state to `store` as a new
/// epoch, using the two-phase protocol described in the module docs.
/// Transient store errors are retried under `retry`; every retry
/// increments the `store.retry_attempts` counter on the volume's
/// observability handle.
pub fn commit_wave(
    wave: &WaveIndex,
    vol: &mut Volume,
    store: &mut dyn IndexStore,
    retry: &RetryPolicy,
) -> IndexResult<CommitReport> {
    let obs = vol.obs().clone();
    let mut span = obs.root_span(
        "commit_wave",
        wave_obs::fields![("slots", wave.slot_count() as u64)],
    );
    let ctx = span.ctx();
    vol.set_trace_ctx(ctx);
    let before = vol.stats();
    let result = commit_wave_inner(wave, vol, store, retry, &obs);
    vol.set_trace_ctx(wave_obs::TraceCtx::NONE);
    match &result {
        Ok(report) => {
            let us = (vol.stats().since(&before).sim_seconds * 1e6)
                .round()
                .max(0.0) as u64;
            span.set_end_field("epoch", report.epoch);
            span.set_end_field("files", report.files_written as u64);
            span.set_end_field("reused", report.files_reused as u64);
            span.set_end_field("latency_us", us);
            obs.slo().record("commit_wave", None, us, ctx.trace_id);
        }
        Err(e) => span.set_end_field("error", e.to_string()),
    }
    result
}

/// Phase-1 bookkeeping of one commit: which previous-epoch files may
/// be carried over, and what was put instead.
struct Phase1<'a> {
    store: &'a mut dyn IndexStore,
    retry: &'a RetryPolicy,
    retries: wave_obs::Counter,
    /// Files the previous manifest of this store references
    /// and the store still lists — the only files a marker may reuse.
    reusable: BTreeSet<FileRef>,
    bytes_written: u64,
}

impl Phase1<'_> {
    /// Makes one file of the new epoch durable and returns its
    /// manifest reference. `durable` is the file the constituent's
    /// marker says already holds exactly `encode()`'s bytes: when this
    /// store's previous manifest vouches for the same triple, the file
    /// is carried over untouched (`Ok((_, false))`); otherwise the
    /// bytes are encoded and put under `name`.
    fn persist(
        &mut self,
        name: String,
        durable: Option<&FileRef>,
        encode: impl FnOnce() -> IndexResult<Vec<u8>>,
    ) -> IndexResult<(FileRef, bool)> {
        if let Some(kept) = durable.filter(|r| self.reusable.contains(r)) {
            // Debug builds re-derive every reused file, so each suite
            // that commits twice also checks that no mutator forgot to
            // drop the marker.
            if cfg!(debug_assertions) {
                let fresh = FileRef::of(kept.file.clone(), &encode()?)?;
                if fresh != *kept {
                    return Err(IndexError::Corrupt(format!(
                        "{}: stale durable marker (holds {:016x}, index encodes {:016x})",
                        kept.file, kept.crc64, fresh.crc64
                    )));
                }
            }
            return Ok((kept.clone(), false));
        }
        let bytes = encode()?;
        self.retry
            .run(&self.retries, || self.store.put(&name, &bytes))?;
        self.bytes_written += bytes.len() as u64;
        Ok((FileRef::of(name, &bytes)?, true))
    }
}

fn commit_wave_inner(
    wave: &WaveIndex,
    vol: &mut Volume,
    store: &mut dyn IndexStore,
    retry: &RetryPolicy,
    obs: &wave_obs::Obs,
) -> IndexResult<CommitReport> {
    let retries = obs.counter("store.retry_attempts");
    // A corrupt previous manifest means the store needs recovery, not
    // a blind overwrite that would orphan every live file.
    let prev = match retry.run(&retries, || store.get(MANIFEST_NAME))? {
        None => None,
        Some(bytes) => Some(Manifest::from_bytes(&bytes)?),
    };
    let epoch = prev.as_ref().map_or(1, |m| m.epoch + 1);
    // Only a file still in the store can be referenced again.
    let mut reusable = BTreeSet::new();
    if let Some(prev) = prev {
        let present: BTreeSet<String> = retry.run(&retries, || store.list())?.into_iter().collect();
        reusable = prev
            .entries
            .into_iter()
            .flat_map(|e| [Some(e.image()), e.filter, e.ingest])
            .flatten()
            .filter(|r| present.contains(&r.file))
            .collect();
    }

    // Phase 1: make every constituent's files durable — carried over
    // from the previous epoch where the constituent's marker allows,
    // written under an epoch-suffixed name otherwise. Files the
    // previous manifest references are never modified.
    let mut phase1 = Phase1 {
        store,
        retry,
        retries: retries.clone(),
        reusable,
        bytes_written: 0,
    };
    let mut entries = Vec::new();
    let mut files_written = 0usize;
    for (j, idx) in wave.iter() {
        let durable = idx.durable();
        let name = format!("slot{j}.e{epoch}");
        let (image, written) = phase1.persist(name.clone(), durable.map(|d| &d.image), || {
            index_to_bytes(idx, vol)
        })?;
        files_written += usize::from(written);
        let filter = match idx.membership_filter() {
            Some(f) => Some(
                phase1
                    .persist(
                        format!("{name}.filt"),
                        durable.and_then(|d| d.filter.as_ref()),
                        || Ok(f.to_bytes()),
                    )?
                    .0,
            ),
            None => None,
        };
        // A dirty ingest buffer rides along as a `.ing` sidecar in
        // phase 1, so the atomic manifest flip publishes image + log
        // together: a crash at any instant recovers either the whole
        // pre-commit state or the whole post-commit state, buffered
        // entries included.
        let ingest = if idx.ingest().is_empty() {
            None
        } else {
            let (log, written) = phase1.persist(
                format!("{name}.ing"),
                durable.and_then(|d| d.ingest.as_ref()),
                || Ok(idx.ingest().to_bytes()),
            )?;
            if written {
                obs.counter("ingest.log_writes").inc();
            }
            Some(log)
        };
        entries.push(ManifestEntry {
            slot: j,
            file: image.file,
            len: image.len,
            crc64: image.crc64,
            label: idx.label().to_string(),
            days: idx.days().iter().copied().collect(),
            filter,
            ingest,
        });
    }
    let Phase1 {
        store,
        bytes_written,
        ..
    } = phase1;
    let covered = wave.covered_days();
    let manifest = Manifest {
        epoch,
        window: covered
            .iter()
            .next()
            .copied()
            .zip(covered.iter().next_back().copied()),
        slots: wave.slot_count(),
        entries,
    };

    // Phase 2: flip the manifest (single atomic rename inside put) …
    retry.run(&retries, || store.put(MANIFEST_NAME, &manifest.to_bytes()))?;

    // … then garbage-collect everything no longer referenced
    // (sidecars are referenced files like any other).
    let referenced: BTreeSet<&str> = manifest
        .entries
        .iter()
        .flat_map(ManifestEntry::files)
        .collect();
    let mut orphans_removed = 0usize;
    for name in retry.run(&retries, || store.list())? {
        if name == MANIFEST_NAME
            || name.ends_with(QUARANTINE_SUFFIX)
            || referenced.contains(name.as_str())
        {
            continue;
        }
        retry.run(&retries, || store.remove(&name))?;
        orphans_removed += 1;
    }

    // The new epoch is durable: every constituent is now byte-identical
    // to the files its entry names.
    for e in &manifest.entries {
        if let Some(idx) = wave.slot(e.slot) {
            e.mark_durable(idx);
        }
    }

    let files_reused = manifest.entries.len() - files_written;
    obs.counter("persist.commits").inc();
    obs.counter("persist.files_reused").add(files_reused as u64);
    obs.counter("persist.bytes_written").add(bytes_written);
    obs.event(
        "commit",
        wave_obs::fields![
            ("epoch", epoch),
            ("files", files_written as u64),
            ("reused", files_reused as u64),
            ("bytes", bytes_written),
            ("orphans_removed", orphans_removed as u64)
        ],
    );
    Ok(CommitReport {
        epoch,
        files_written,
        files_reused,
        bytes_written,
        orphans_removed,
    })
}

/// A wave loaded from a committed store.
#[derive(Debug)]
pub struct LoadedWave {
    /// The reconstructed (packed) wave index.
    pub wave: WaveIndex,
    /// The manifest that defined it.
    pub manifest: Manifest,
}

/// Loads the committed wave, verifying every checksum on the way. A
/// store without a manifest yields `Ok(None)`; any referenced file
/// that is missing or corrupt fails the load (use
/// [`crate::recovery::recover`] for a best-effort load instead).
pub fn load_committed(
    cfg: IndexConfig,
    vol: &mut Volume,
    store: &mut dyn IndexStore,
) -> IndexResult<Option<LoadedWave>> {
    let Some(manifest) = read_manifest(store)? else {
        return Ok(None);
    };
    let mut wave = WaveIndex::with_slots(manifest.slots);
    let mut load = || -> IndexResult<()> {
        for e in &manifest.entries {
            let bytes = fetch(store, &e.file)?;
            let mut idx = e.decode_image(cfg, vol, &bytes)?;
            // Replay the ingest log before installing the filter
            // sidecar: replay may rebuild the filter from metadata,
            // and the persisted sidecar (serialized from the logical
            // filter at commit) must win for fidelity.
            let sidecars = (|| -> IndexResult<()> {
                if let Some(iref) = &e.ingest {
                    let (deletes, pending_days, adds) = load_ingest_log(store, iref)?;
                    idx.replay_ingest(vol, &deletes, &pending_days, adds);
                    vol.obs().counter("ingest.log_replays").inc();
                }
                if let Some(fref) = &e.filter {
                    // The strict loader verifies every referenced byte,
                    // sidecars included; only recover() tolerates damage
                    // (by rebuilding the filter from the image).
                    let f = load_filter_sidecar(store, fref)?;
                    // Install only when this config runs filters: the
                    // sidecar may carry stale bits from in-place
                    // deletes that a fresh rebuild would not, and
                    // callers that disabled filtering should not get a
                    // filter smuggled back in.
                    if cfg.filter.enabled {
                        idx.install_filter(f);
                    }
                }
                Ok(())
            })();
            if let Err(err) = sidecars {
                idx.release(vol)?;
                return Err(err);
            }
            e.mark_durable(&idx);
            wave.install(e.slot, idx);
        }
        Ok(())
    };
    match load() {
        Ok(()) => Ok(Some(LoadedWave { wave, manifest })),
        Err(e) => {
            // Release whatever was installed before the failure so the
            // caller's volume does not leak blocks.
            wave.release_all(vol)?;
            Err(e)
        }
    }
}

/// Fetches a file the manifest references; absence is corruption.
fn fetch(store: &mut dyn IndexStore, file: &str) -> IndexResult<Vec<u8>> {
    store
        .get(file)?
        .ok_or_else(|| IndexError::Corrupt(format!("manifest references missing file {file}")))
}

/// Fetches a filter sidecar and verifies it against its manifest
/// reference (exact length, checksum) while decoding it.
pub(crate) fn load_filter_sidecar(
    store: &mut dyn IndexStore,
    fref: &FilterRef,
) -> IndexResult<MembershipFilter> {
    let bytes = fetch(store, &fref.file)?;
    MembershipFilter::from_body(fref.verify(&bytes)?)
}

/// Fetches an ingest-log sidecar and verifies it against its manifest
/// reference (exact length, checksum) while decoding it.
#[allow(clippy::type_complexity)]
pub(crate) fn load_ingest_log(
    store: &mut dyn IndexStore,
    iref: &IngestRef,
) -> IndexResult<(Vec<Day>, Vec<Day>, BTreeMap<SearchValue, Vec<Entry>>)> {
    let bytes = fetch(store, &iref.file)?;
    crate::ingest::IngestBuffer::decode_log_body(iref.verify(&bytes)?)
}

fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn hex_encode(bytes: &[u8]) -> String {
    if bytes.is_empty() {
        return "-".to_string();
    }
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if s == "-" {
        return Some(Vec::new());
    }
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(s.get(i..i + 2)?, 16).ok())
        .collect()
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> IndexResult<&'a [u8]> {
        let end = self.pos.checked_add(n);
        let out = end
            .and_then(|end| self.buf.get(self.pos..end))
            .ok_or_else(|| IndexError::Corrupt("persistence image truncated".into()))?;
        self.pos += n;
        Ok(out)
    }

    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn u32(&mut self) -> IndexResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().map_err(
            |_| IndexError::Corrupt("persistence image truncated".into()),
        )?))
    }

    fn bytes(&mut self) -> IndexResult<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{DayBatch, Record, RecordId};
    use wave_storage::FileStore;

    fn sample_index(vol: &mut Volume) -> ConstituentIndex {
        let b1 = DayBatch::new(
            Day(1),
            vec![
                Record::with_values(
                    RecordId(1),
                    [SearchValue::from("war"), SearchValue::from("x")],
                ),
                Record::with_values(RecordId(2), [SearchValue::from("war")]),
            ],
        );
        let b2 = DayBatch::empty(Day(2));
        ConstituentIndex::build_packed("I1", IndexConfig::default(), vol, &[&b1, &b2]).unwrap()
    }

    fn sample_wave(vol: &mut Volume) -> WaveIndex {
        let mut wave = WaveIndex::with_slots(3);
        wave.install(0, sample_index(vol));
        // Slot 1 left empty on purpose.
        wave.install(2, sample_index(vol));
        wave
    }

    #[test]
    fn image_roundtrip_preserves_contents() {
        let mut vol = Volume::default();
        let idx = sample_index(&mut vol);
        let image = index_to_bytes(&idx, &mut vol).unwrap();
        let loaded = index_from_bytes(IndexConfig::default(), &mut vol, &image).unwrap();
        assert_eq!(loaded.label(), "I1");
        assert_eq!(loaded.days(), idx.days());
        assert_eq!(loaded.entry_count(), idx.entry_count());
        assert!(loaded.is_packed(), "reload reorganises into packed form");
        let mut a = idx.scan(&mut vol).unwrap();
        let mut b = loaded.scan(&mut vol).unwrap();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        idx.release(&mut vol).unwrap();
        loaded.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn unpacked_index_roundtrips_too() {
        let mut vol = Volume::default();
        let mut idx = sample_index(&mut vol);
        let b3 = DayBatch::new(
            Day(3),
            vec![Record::with_values(RecordId(9), [SearchValue::from("war")])],
        );
        idx.add_batches_in_place(&mut vol, &[&b3]).unwrap();
        assert!(!idx.is_packed());
        let image = index_to_bytes(&idx, &mut vol).unwrap();
        let loaded = index_from_bytes(IndexConfig::default(), &mut vol, &image).unwrap();
        assert_eq!(loaded.entry_count(), 4);
        assert!(loaded.days().contains(&Day(3)));
        loaded.check_consistency(&mut vol).unwrap();
        idx.release(&mut vol).unwrap();
        loaded.release(&mut vol).unwrap();
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let mut vol = Volume::default();
        let idx = sample_index(&mut vol);
        let image = index_to_bytes(&idx, &mut vol).unwrap();
        // Bad magic.
        let mut bad = image.clone();
        bad[0] = b'X';
        assert!(index_from_bytes(IndexConfig::default(), &mut vol, &bad).is_err());
        // Truncated.
        let truncated = &image[..image.len() - 5];
        assert!(index_from_bytes(IndexConfig::default(), &mut vol, truncated).is_err());
        // Single bit flip anywhere trips the checksum.
        let mut flipped = image.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        let err = index_from_bytes(IndexConfig::default(), &mut vol, &flipped).unwrap_err();
        assert!(
            matches!(err, IndexError::ChecksumMismatch { .. })
                || matches!(err, IndexError::Corrupt(_)),
            "{err}"
        );
        idx.release(&mut vol).unwrap();
    }

    #[test]
    fn manifest_roundtrips_and_rejects_corruption() {
        let m = Manifest {
            epoch: 7,
            window: Some((Day(3), Day(9))),
            slots: 4,
            entries: vec![
                ManifestEntry {
                    slot: 1,
                    file: "slot1.e7".into(),
                    len: 88,
                    crc64: 0x0123_4567_89AB_CDEF,
                    label: "I1".into(),
                    days: vec![Day(5)],
                    filter: None,
                    ingest: None,
                },
                ManifestEntry {
                    slot: 2,
                    file: "slot2.e7".into(),
                    len: 1234,
                    crc64: 0xDEAD_BEEF_0123_4567,
                    label: "I2'".into(),
                    days: vec![Day(3), Day(4)],
                    filter: Some(FilterRef {
                        file: "slot2.e7.filt".into(),
                        len: 96,
                        crc64: 0xFEED_FACE_CAFE_F00D,
                    }),
                    ingest: Some(IngestRef {
                        file: "slot2.e7.ing".into(),
                        len: 64,
                        crc64: 0x0F1E_2D3C_4B5A_6978,
                    }),
                },
            ],
        };
        let bytes = m.to_bytes();
        assert_eq!(Manifest::from_bytes(&bytes).unwrap(), m);
        // Any bit flip is detected.
        for pos in [0usize, bytes.len() / 2, bytes.len() - 2] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            assert!(Manifest::from_bytes(&bad).is_err(), "flip at {pos}");
        }
        assert!(Manifest::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn empty_window_manifest_roundtrips() {
        let m = Manifest {
            epoch: 1,
            window: None,
            slots: 2,
            entries: vec![],
        };
        assert_eq!(Manifest::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn commit_then_load_roundtrips_through_the_filesystem() {
        let mut vol = Volume::default();
        let mut wave = sample_wave(&mut vol);
        let mut store = FileStore::open_temp().unwrap();
        let report = commit_wave(&wave, &mut vol, &mut store, &RetryPolicy::no_backoff(1)).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.files_written, 2);

        // Reload through a fresh store over the same directory so the
        // loader proves everything really hit disk.
        let root = store.root().to_path_buf();
        let mut store2 = FileStore::open(&root).unwrap();
        let mut vol2 = Volume::default();
        let loaded = load_committed(IndexConfig::default(), &mut vol2, &mut store2)
            .unwrap()
            .unwrap();
        assert_eq!(loaded.manifest.epoch, 1);
        assert_eq!(loaded.manifest.window, Some((Day(1), Day(2))));
        assert!(loaded.wave.slot(0).is_some());
        assert!(loaded.wave.slot(1).is_none());
        assert!(loaded.wave.slot(2).is_some());
        assert_eq!(loaded.wave.entry_count(), wave.entry_count());

        wave.release_all(&mut vol).unwrap();
        let mut loaded = loaded;
        loaded.wave.release_all(&mut vol2).unwrap();
        store.destroy().unwrap();
    }

    #[test]
    fn recommit_carries_unchanged_files_and_collects_superseded_ones() {
        let mut vol = Volume::default();
        let mut wave = sample_wave(&mut vol);
        let mut store = FileStore::open_temp().unwrap();
        let retry = RetryPolicy::no_backoff(1);
        commit_wave(&wave, &mut vol, &mut store, &retry).unwrap();
        let epoch1_names = store.list().unwrap();

        // Nothing changed: the new epoch references epoch 1's files.
        let second = commit_wave(&wave, &mut vol, &mut store, &retry).unwrap();
        assert_eq!(
            (second.epoch, second.files_written, second.files_reused),
            (2, 0, 2)
        );
        assert_eq!((second.bytes_written, second.orphans_removed), (0, 0));
        assert_eq!(store.list().unwrap(), epoch1_names);

        // One constituent changes: only its files are written, and
        // only the files it supersedes are collected.
        let b3 = DayBatch::new(
            Day(3),
            vec![Record::with_values(RecordId(9), [SearchValue::from("war")])],
        );
        let touched = wave.slot_mut(2).unwrap();
        touched.add_batches_in_place(&mut vol, &[&b3]).unwrap();
        let third = commit_wave(&wave, &mut vol, &mut store, &retry).unwrap();
        assert_eq!(
            (third.epoch, third.files_written, third.files_reused),
            (3, 1, 1)
        );
        assert_eq!(third.orphans_removed, 2, "slot2.e1 and its sidecar");
        assert_eq!(
            store.list().unwrap(),
            [
                MANIFEST_NAME,
                "slot0.e1",
                "slot0.e1.filt",
                "slot2.e3",
                "slot2.e3.filt"
            ]
        );
        let mut vol2 = Volume::default();
        let mut loaded = load_committed(IndexConfig::default(), &mut vol2, &mut store)
            .unwrap()
            .unwrap();
        assert_eq!(loaded.manifest.images_carried(), 1);
        assert_eq!(loaded.wave.entry_count(), wave.entry_count());
        loaded.wave.release_all(&mut vol2).unwrap();
        wave.release_all(&mut vol).unwrap();
        store.destroy().unwrap();
    }

    #[test]
    fn commit_records_sidecars_and_load_installs_them() {
        let mut vol = Volume::default();
        let mut wave = sample_wave(&mut vol);
        let mut store = FileStore::open_temp().unwrap();
        commit_wave(&wave, &mut vol, &mut store, &RetryPolicy::no_backoff(1)).unwrap();
        let manifest = read_manifest(&mut store).unwrap().unwrap();
        assert!(
            manifest.entries.iter().all(|e| e.filter.is_some()),
            "every committed constituent records its sidecar"
        );
        let mut vol2 = Volume::default();
        let mut loaded = load_committed(IndexConfig::default(), &mut vol2, &mut store)
            .unwrap()
            .unwrap();
        for (slot, idx) in loaded.wave.iter() {
            let sidecar = idx
                .membership_filter()
                .expect("filter installed from sidecar");
            assert_eq!(
                Some(sidecar),
                wave.slot(slot).unwrap().membership_filter(),
                "sidecar filter is bit-identical to the committed one"
            );
        }
        wave.release_all(&mut vol).unwrap();
        loaded.wave.release_all(&mut vol2).unwrap();
        store.destroy().unwrap();
    }

    #[test]
    fn strict_load_rejects_a_torn_sidecar() {
        let mut vol = Volume::default();
        let mut wave = sample_wave(&mut vol);
        let mut store = FileStore::open_temp().unwrap();
        commit_wave(&wave, &mut vol, &mut store, &RetryPolicy::no_backoff(1)).unwrap();
        let mut bytes = store.get("slot0.e1.filt").unwrap().unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        store.put("slot0.e1.filt", &bytes).unwrap();
        let mut vol2 = Volume::default();
        let err = load_committed(IndexConfig::default(), &mut vol2, &mut store).unwrap_err();
        assert!(err.to_string().contains("slot0.e1.filt"), "{err}");
        assert_eq!(vol2.live_blocks(), 0, "partial load released its blocks");
        wave.release_all(&mut vol).unwrap();
        store.destroy().unwrap();
    }

    #[test]
    fn disabled_filter_config_does_not_install_sidecars() {
        let mut vol = Volume::default();
        let mut wave = sample_wave(&mut vol);
        let mut store = FileStore::open_temp().unwrap();
        commit_wave(&wave, &mut vol, &mut store, &RetryPolicy::no_backoff(1)).unwrap();
        let cfg = IndexConfig {
            filter: crate::filter::FilterConfig::disabled(),
            ..IndexConfig::default()
        };
        let mut vol2 = Volume::default();
        let mut loaded = load_committed(cfg, &mut vol2, &mut store).unwrap().unwrap();
        assert!(
            loaded
                .wave
                .iter()
                .all(|(_, idx)| idx.membership_filter().is_none()),
            "a filter-disabled config loads filterless constituents"
        );
        wave.release_all(&mut vol).unwrap();
        loaded.wave.release_all(&mut vol2).unwrap();
        store.destroy().unwrap();
    }

    #[test]
    fn load_fails_cleanly_on_missing_constituent() {
        let mut vol = Volume::default();
        let mut wave = sample_wave(&mut vol);
        let mut store = FileStore::open_temp().unwrap();
        commit_wave(&wave, &mut vol, &mut store, &RetryPolicy::no_backoff(1)).unwrap();
        store.remove("slot2.e1").unwrap();
        let mut vol2 = Volume::default();
        let err = load_committed(IndexConfig::default(), &mut vol2, &mut store).unwrap_err();
        assert!(err.to_string().contains("slot2.e1"), "{err}");
        assert_eq!(vol2.live_blocks(), 0, "partial load released its blocks");
        wave.release_all(&mut vol).unwrap();
        store.destroy().unwrap();
    }

    #[test]
    fn loading_an_empty_store_is_none() {
        let mut store = FileStore::open_temp().unwrap();
        let mut vol = Volume::default();
        assert!(load_committed(IndexConfig::default(), &mut vol, &mut store)
            .unwrap()
            .is_none());
        store.destroy().unwrap();
    }

    #[test]
    fn hex_roundtrip() {
        for label in ["", "I1", "T3'", "weird label"] {
            let enc = hex_encode(label.as_bytes());
            assert!(!enc.contains(' '));
            assert_eq!(hex_decode(&enc).unwrap(), label.as_bytes());
        }
        assert!(hex_decode("xyz").is_none());
        assert!(hex_decode("abc").is_none(), "odd length rejected");
    }
}
