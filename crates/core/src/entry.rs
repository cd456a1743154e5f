//! Bucket entries and their on-disk encoding.
//!
//! An entry is the paper's `(p_i, a_i)` pair plus the insertion-day
//! timestamp required by the timed access operations (Section 2). The
//! encoding is fixed-width little-endian so a bucket of `k` entries
//! occupies exactly `k * ENTRY_BYTES` bytes and can be sliced without
//! a header.

use std::fmt;

use crate::record::{Day, RecordId};

/// Bytes one encoded entry occupies on disk.
pub const ENTRY_BYTES: usize = 20;

/// One bucket entry: record pointer, associated info, insertion day.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Entry {
    /// The record this entry points at.
    pub record: RecordId,
    /// Associated information `a_i` (e.g. a byte offset, or packed
    /// attributes in the relational case).
    pub aux: u64,
    /// Day the record was inserted; drives expiry and timed queries.
    pub day: Day,
}

impl Entry {
    /// Creates an entry.
    pub fn new(record: RecordId, aux: u64, day: Day) -> Self {
        Entry { record, aux, day }
    }

    /// Encodes the entry into `out` (exactly [`ENTRY_BYTES`] bytes).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.record.0.to_le_bytes());
        out.extend_from_slice(&self.aux.to_le_bytes());
        out.extend_from_slice(&self.day.0.to_le_bytes());
    }

    /// Decodes one entry from the first [`ENTRY_BYTES`] of `buf`.
    ///
    /// # Panics
    /// Panics if `buf` is shorter than [`ENTRY_BYTES`]; callers slice
    /// buckets in exact multiples.
    pub fn decode(buf: &[u8]) -> Entry {
        let record = u64::from_le_bytes(buf[0..8].try_into().expect("8-byte record id"));
        let aux = u64::from_le_bytes(buf[8..16].try_into().expect("8-byte aux"));
        let day = u32::from_le_bytes(buf[16..20].try_into().expect("4-byte day"));
        Entry {
            record: RecordId(record),
            aux,
            day: Day(day),
        }
    }

    /// Reads only the day field of the encoded entry at the start of
    /// `buf`, so a reader can test an entry's day before decoding it.
    ///
    /// # Panics
    /// Panics if `buf` is shorter than [`ENTRY_BYTES`], like
    /// [`Entry::decode`].
    pub(crate) fn decode_day(buf: &[u8]) -> Day {
        Day(u32::from_le_bytes(
            buf[16..20].try_into().expect("4-byte day"),
        ))
    }
}

impl fmt::Display for Entry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.record, self.aux, self.day)
    }
}

/// Encodes a slice of entries into a fresh byte buffer.
pub fn encode_entries(entries: &[Entry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * ENTRY_BYTES);
    for e in entries {
        e.encode_into(&mut out);
    }
    out
}

/// Decodes `count` entries from `buf`.
pub fn decode_entries(buf: &[u8], count: usize) -> Vec<Entry> {
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        out.push(Entry::decode(&buf[i * ENTRY_BYTES..]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single() {
        let e = Entry::new(RecordId(0xDEADBEEF), 42, Day(17));
        let mut buf = Vec::new();
        e.encode_into(&mut buf);
        assert_eq!(buf.len(), ENTRY_BYTES);
        assert_eq!(Entry::decode(&buf), e);
    }

    #[test]
    fn roundtrip_many() {
        let entries: Vec<Entry> = (0..100)
            .map(|i| Entry::new(RecordId(i * 7), i * 13, Day((i % 30) as u32)))
            .collect();
        let buf = encode_entries(&entries);
        assert_eq!(buf.len(), 100 * ENTRY_BYTES);
        assert_eq!(decode_entries(&buf, 100), entries);
    }

    #[test]
    fn extreme_values_survive() {
        let e = Entry::new(RecordId(u64::MAX), u64::MAX, Day(u32::MAX));
        let buf = encode_entries(&[e]);
        assert_eq!(decode_entries(&buf, 1), vec![e]);
    }

    #[test]
    fn decode_ignores_trailing_bytes() {
        let e = Entry::new(RecordId(1), 2, Day(3));
        let mut buf = encode_entries(&[e]);
        buf.extend_from_slice(&[0xFF; 7]);
        assert_eq!(Entry::decode(&buf), e);
    }
}
