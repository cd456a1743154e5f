//! Per-constituent ingest buffer tier: the amortized write path.
//!
//! The paper's incremental paths (DEL daily adds/deletes, in-place and
//! shadow updating) pay one directory operation plus unscheduled I/O
//! per touched value *per day*. This module adds an LSM-style buffer
//! tier above each constituent (the streaming-index idea of Twigg,
//! PAPERS.md): adds and deletes land in a sorted in-memory memtable
//! and only reach the directory and buckets when the buffer *spills*
//! in one batched pass through the `IoScheduler`/`WriteBuffer`.
//!
//! Three invariants the rest of the crate relies on (DESIGN.md §15):
//!
//! * **The constituent's metadata is logical.** `days`, `day_values`,
//!   `entries`, the membership filter and the covering set are updated
//!   eagerly at buffer time, so schemes (which route transitions by
//!   `days()`) and probe pruning see the post-update state immediately.
//!   Only the directory and the buckets lag until the spill.
//! * **Reads overlay the buffer and stay byte-identical.** A logical
//!   bucket is the disk bucket with pending-deleted days filtered out
//!   and pending adds appended at the end — exactly the entry order
//!   the unbuffered in-place/shadow paths produce.
//!   [`IngestBuffer::overlay`] states that rule on decoded entries;
//!   the read path applies it while decoding, and only to the days
//!   its range keeps (`ConstituentIndex::decode_bucket_in`).
//! * **The buffer is crash-safe.** `commit_wave` serializes a dirty
//!   buffer as a checksummed `.ing` sidecar (the `WING` log, same
//!   CRC64-trailer shape as `.filt`) referenced from the MANIFEST;
//!   `load_committed` and `recover` replay it over the decoded
//!   physical image. Unlike a filter sidecar the log is *not* derived
//!   data — a torn log costs a constituent rebuild from the archive.

use std::collections::{BTreeMap, BTreeSet};

use wave_storage::Crc64;

use crate::entry::{Entry, ENTRY_BYTES};
use crate::error::{IndexError, IndexResult};
use crate::record::{Day, SearchValue};

/// Magic number of the serialized `.ing` sidecar log.
const MAGIC: &[u8; 4] = b"WING";

/// Serialization format version.
const VERSION: u16 = 1;

/// Configuration of the per-constituent ingest buffer tier.
///
/// Part of [`IndexConfig`](crate::index::IndexConfig); `Copy` so the
/// whole config keeps travelling by value. Buffering is **off** by
/// default — every existing path behaves exactly as before unless a
/// caller opts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Whether adds/deletes are buffered at all. When `false` the
    /// [`Updater`](crate::update::Updater) applies every mutation
    /// directly, as before this tier existed.
    pub enabled: bool,
    /// Spill when the buffer holds at least this many pending add
    /// entries (size threshold).
    pub max_entries: usize,
    /// Spill when the buffer spans at least this many day boundaries
    /// (pending-add days plus pending-delete days).
    pub max_days: u32,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            enabled: false,
            max_entries: 4096,
            max_days: 4,
        }
    }
}

impl IngestConfig {
    /// A config with buffering on at the default thresholds.
    pub fn buffered() -> Self {
        IngestConfig {
            enabled: true,
            ..Default::default()
        }
    }
}

/// The in-memory buffer tier of one constituent index.
///
/// Holds pending adds (a sorted memtable mirroring bucket order) and
/// pending day deletions, plus the bookkeeping that lets the spill
/// touch each affected bucket exactly once.
#[derive(Debug, Clone, Default)]
pub struct IngestBuffer {
    /// Pending adds grouped by value; each `Vec` is in arrival order
    /// (ascending day, record order within a day) — the order an
    /// unbuffered add would have appended to the bucket.
    adds: BTreeMap<SearchValue, Vec<Entry>>,
    /// Days that exist only in the buffer (added since the last
    /// spill).
    pending_days: BTreeSet<Day>,
    /// On-disk days awaiting physical deletion, with the values their
    /// records touched (stashed from `day_values` at buffer time so
    /// the spill reads only affected buckets).
    deletes: BTreeMap<Day, BTreeSet<SearchValue>>,
    /// Pending add entries across all values.
    entries: u64,
}

impl IngestBuffer {
    /// Whether the buffer holds no pending work.
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.deletes.is_empty()
    }

    /// Pending add entries.
    pub fn pending_entries(&self) -> u64 {
        self.entries
    }

    /// Days awaiting physical deletion.
    pub fn pending_delete_days(&self) -> usize {
        self.deletes.len()
    }

    /// Day boundaries the buffer currently spans (pending-add days
    /// plus pending-delete days) — the day-threshold input of the
    /// spill policy.
    pub fn day_span(&self) -> u32 {
        (self.pending_days.len() + self.deletes.len()) as u32
    }

    /// Whether the buffer has crossed either spill threshold.
    pub fn should_spill(&self, cfg: &IngestConfig) -> bool {
        !self.is_empty()
            && (self.entries >= cfg.max_entries.max(1) as u64
                || self.day_span() >= cfg.max_days.max(1))
    }

    /// The pending adds for `value`, if any.
    pub fn adds_for(&self, value: &SearchValue) -> Option<&Vec<Entry>> {
        self.adds.get(value)
    }

    /// Whether `day` is pending physical deletion.
    pub fn day_deleted(&self, day: Day) -> bool {
        self.deletes.contains_key(&day)
    }

    /// Whether `day` exists only in the buffer.
    pub fn day_pending(&self, day: Day) -> bool {
        self.pending_days.contains(&day)
    }

    /// Iterates the pending adds in ascending value order.
    pub fn iter_adds(&self) -> impl Iterator<Item = (&SearchValue, &Vec<Entry>)> {
        self.adds.iter()
    }

    /// Applies the buffer's delete-day overlay plus pending adds to a
    /// disk bucket's entries, producing the logical bucket contents —
    /// byte-identical to what the unbuffered path would hold.
    ///
    /// This is the reference statement of the overlay, used by
    /// `check_consistency` and by the tests that pin the read path to
    /// it; probes, batches and scans do not call it, they decode only
    /// the entries their range and this overlay keep.
    pub fn overlay(&self, value: &SearchValue, mut entries: Vec<Entry>) -> Vec<Entry> {
        if !self.deletes.is_empty() {
            entries.retain(|e| !self.deletes.contains_key(&e.day));
        }
        if let Some(pending) = self.adds.get(value) {
            entries.extend_from_slice(pending);
        }
        entries
    }

    /// Records `entries` of `value` as pending adds. `day` must be
    /// tracked via [`IngestBuffer::note_pending_day`] by the caller.
    pub(crate) fn push_adds(&mut self, value: &SearchValue, entries: &[Entry]) {
        if entries.is_empty() {
            return;
        }
        self.adds
            .entry(value.clone())
            .or_default()
            .extend_from_slice(entries);
        self.entries += entries.len() as u64;
    }

    /// Marks `day` as existing only in the buffer.
    pub(crate) fn note_pending_day(&mut self, day: Day) {
        self.pending_days.insert(day);
    }

    /// Buffers the deletion of an on-disk `day` whose records touched
    /// `values`.
    pub(crate) fn push_delete(&mut self, day: Day, values: BTreeSet<SearchValue>) {
        self.deletes.insert(day, values);
    }

    /// Removes a day that only ever existed in the buffer, dropping
    /// its pending entries. Returns the values whose pending lists
    /// became empty (they may have left the logical index entirely).
    pub(crate) fn retract_pending_day(&mut self, day: Day) -> Vec<SearchValue> {
        self.pending_days.remove(&day);
        let mut emptied = Vec::new();
        self.adds.retain(|value, entries| {
            let before = entries.len();
            entries.retain(|e| e.day != day);
            self.entries -= (before - entries.len()) as u64;
            if entries.is_empty() {
                emptied.push(value.clone());
                false
            } else {
                true
            }
        });
        emptied
    }

    /// Drains the buffer for a spill, returning the pending delete
    /// days (with their affected values) and the pending add map.
    #[allow(clippy::type_complexity)]
    pub(crate) fn drain(
        &mut self,
    ) -> (
        BTreeMap<Day, BTreeSet<SearchValue>>,
        BTreeMap<SearchValue, Vec<Entry>>,
    ) {
        self.pending_days.clear();
        self.entries = 0;
        (
            std::mem::take(&mut self.deletes),
            std::mem::take(&mut self.adds),
        )
    }

    /// Serializes the buffer as a checksummed `WING` sidecar log
    /// (magic, version, delete days, value → pending entries, CRC64
    /// trailer) for [`commit_wave`](crate::persist::commit_wave).
    ///
    /// Only the delete *days* are persisted: replay re-derives each
    /// day's affected values from the freshly decoded physical image,
    /// exactly as the original buffering did.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.deletes.len() as u32).to_le_bytes());
        for day in self.deletes.keys() {
            out.extend_from_slice(&day.0.to_le_bytes());
        }
        out.extend_from_slice(&(self.pending_days.len() as u32).to_le_bytes());
        for day in &self.pending_days {
            out.extend_from_slice(&day.0.to_le_bytes());
        }
        out.extend_from_slice(&(self.adds.len() as u32).to_le_bytes());
        for (value, entries) in &self.adds {
            let bytes = value.as_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for e in entries {
                e.encode_into(&mut out);
            }
        }
        let mut crc = Crc64::new();
        crc.update(&out);
        out.extend_from_slice(&crc.finish().to_le_bytes());
        out
    }

    /// Bytes [`IngestBuffer::to_bytes`] would produce — the
    /// "pending-spill bytes" surfaced by `wavectl status`.
    pub fn encoded_len(&self) -> usize {
        let values: usize = self
            .adds
            .iter()
            .map(|(v, e)| 4 + v.as_bytes().len() + 4 + e.len() * ENTRY_BYTES)
            .sum();
        4 + 2 + 4 + self.deletes.len() * 4 + 4 + self.pending_days.len() * 4 + 4 + values + 8
    }

    /// Decodes the body of a `WING` log (everything before the
    /// trailer) whose checksum the caller has already verified.
    /// Returns the delete days, the buffer-only days, and the pending
    /// add map for `ConstituentIndex::replay_ingest`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn decode_log_body(
        body: &[u8],
    ) -> IndexResult<(Vec<Day>, Vec<Day>, BTreeMap<SearchValue, Vec<Entry>>)> {
        let corrupt = |what: &str| IndexError::Corrupt(format!("ingest log: {what}"));
        if body.len() < 4 + 2 + 4 + 4 + 4 {
            return Err(corrupt("truncated"));
        }
        if &body[0..4] != MAGIC {
            return Err(corrupt("bad magic"));
        }
        if u16::from_le_bytes(body[4..6].try_into().expect("2 bytes")) != VERSION {
            return Err(corrupt("unsupported version"));
        }
        let mut r = LogReader { buf: body, pos: 6 };
        let n_deletes = r.u32()? as usize;
        let mut deletes = Vec::with_capacity(n_deletes);
        for _ in 0..n_deletes {
            deletes.push(Day(r.u32()?));
        }
        let n_pending = r.u32()? as usize;
        let mut pending_days = Vec::with_capacity(n_pending);
        for _ in 0..n_pending {
            pending_days.push(Day(r.u32()?));
        }
        let n_values = r.u32()? as usize;
        let mut adds: BTreeMap<SearchValue, Vec<Entry>> = BTreeMap::new();
        for _ in 0..n_values {
            let len = r.u32()? as usize;
            let value = SearchValue::from_bytes(r.take(len)?.to_vec());
            let n_entries = r.u32()? as usize;
            let mut entries = Vec::with_capacity(n_entries);
            for _ in 0..n_entries {
                entries.push(Entry::decode(r.take(ENTRY_BYTES)?));
            }
            if adds.insert(value, entries).is_some() {
                return Err(corrupt("duplicate value"));
            }
        }
        if r.pos != body.len() {
            return Err(corrupt("trailing bytes"));
        }
        Ok((deletes, pending_days, adds))
    }

    /// Iterates the days awaiting physical deletion.
    pub fn delete_days(&self) -> impl Iterator<Item = Day> + '_ {
        self.deletes.keys().copied()
    }
}

struct LogReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> LogReader<'a> {
    fn take(&mut self, n: usize) -> IndexResult<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(IndexError::Corrupt("ingest log: truncated body".into()));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self) -> IndexResult<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4-byte field"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordId;

    fn entry(id: u64, day: u32) -> Entry {
        Entry::new(RecordId(id), id * 3, Day(day))
    }

    #[test]
    fn overlay_filters_deletes_and_appends_adds() {
        let mut buf = IngestBuffer::default();
        buf.push_delete(Day(1), [SearchValue::from("war")].into());
        buf.note_pending_day(Day(3));
        buf.push_adds(&SearchValue::from("war"), &[entry(9, 3)]);
        let disk = vec![entry(1, 1), entry(2, 2)];
        let logical = buf.overlay(&SearchValue::from("war"), disk);
        assert_eq!(logical, vec![entry(2, 2), entry(9, 3)]);
        // A value with no pending adds only loses the deleted day.
        let other = buf.overlay(&SearchValue::from("tea"), vec![entry(4, 1), entry(5, 2)]);
        assert_eq!(other, vec![entry(5, 2)]);
    }

    #[test]
    fn spill_policy_trips_on_either_threshold() {
        let cfg = IngestConfig {
            enabled: true,
            max_entries: 3,
            max_days: 2,
        };
        let mut buf = IngestBuffer::default();
        assert!(!buf.should_spill(&cfg), "empty buffer never spills");
        buf.note_pending_day(Day(1));
        buf.push_adds(&SearchValue::from("a"), &[entry(1, 1)]);
        assert!(!buf.should_spill(&cfg));
        buf.note_pending_day(Day(2));
        buf.push_adds(&SearchValue::from("a"), &[entry(2, 2)]);
        assert!(buf.should_spill(&cfg), "two day boundaries trip max_days");
        let mut by_size = IngestBuffer::default();
        by_size.note_pending_day(Day(1));
        by_size.push_adds(
            &SearchValue::from("b"),
            &[entry(1, 1), entry(2, 1), entry(3, 1)],
        );
        assert!(by_size.should_spill(&cfg), "entry count trips max_entries");
    }

    #[test]
    fn retracting_a_pending_day_drops_its_entries() {
        let mut buf = IngestBuffer::default();
        buf.note_pending_day(Day(5));
        buf.push_adds(&SearchValue::from("a"), &[entry(1, 5)]);
        buf.push_adds(&SearchValue::from("b"), &[entry(2, 5), entry(3, 6)]);
        let emptied = buf.retract_pending_day(Day(5));
        assert_eq!(emptied, vec![SearchValue::from("a")]);
        assert_eq!(buf.pending_entries(), 1);
        assert_eq!(
            buf.adds_for(&SearchValue::from("b")),
            Some(&vec![entry(3, 6)])
        );
    }

    /// What the loader does with a log: check the CRC64 trailer, then
    /// decode the verified body.
    #[allow(clippy::type_complexity)]
    fn decode_log(
        bytes: &[u8],
    ) -> IndexResult<(Vec<Day>, Vec<Day>, BTreeMap<SearchValue, Vec<Entry>>)> {
        let (body, stored) = wave_storage::split_trailer(bytes)
            .ok_or_else(|| IndexError::Corrupt("truncated".into()))?;
        if wave_storage::crc64(body) != stored {
            return Err(IndexError::Corrupt("checksum mismatch".into()));
        }
        IngestBuffer::decode_log_body(body)
    }

    #[test]
    fn log_roundtrips() {
        let mut buf = IngestBuffer::default();
        buf.push_delete(Day(1), [SearchValue::from("war")].into());
        buf.push_delete(Day(2), BTreeSet::new());
        buf.note_pending_day(Day(9));
        buf.push_adds(&SearchValue::from("war"), &[entry(7, 9), entry(8, 9)]);
        buf.push_adds(&SearchValue::from("tea"), &[entry(9, 9)]);
        let bytes = buf.to_bytes();
        assert_eq!(bytes.len(), buf.encoded_len());
        let (deletes, pending_days, adds) = decode_log(&bytes).unwrap();
        assert_eq!(deletes, vec![Day(1), Day(2)]);
        assert_eq!(pending_days, vec![Day(9)]);
        assert_eq!(adds.len(), 2);
        assert_eq!(
            adds[&SearchValue::from("war")],
            vec![entry(7, 9), entry(8, 9)]
        );
        assert_eq!(adds[&SearchValue::from("tea")], vec![entry(9, 9)]);
    }

    #[test]
    fn log_rejects_corruption() {
        let mut buf = IngestBuffer::default();
        buf.note_pending_day(Day(1));
        buf.push_adds(&SearchValue::from("x"), &[entry(1, 1)]);
        let good = buf.to_bytes();
        assert!(decode_log(&good[..8]).is_err());
        for at in [0, 5, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[at] ^= 0x20;
            assert!(decode_log(&bad).is_err(), "flip at {at}");
        }
    }
}
