//! The wave index Θ: a set of constituent indexes queried together.
//!
//! Θ is held as positional slots `I_1 … I_n` because the algorithms of
//! Appendix A address constituents by position ("let `I_j` be the
//! index containing day `new − W`"). Queries run over every live slot
//! whose time-set intersects the requested range, exactly as
//! `TimedIndexProbe`/`TimedSegmentScan` prescribe.

use std::collections::BTreeSet;

use wave_obs::TraceCtx;
use wave_storage::Volume;

use crate::entry::Entry;
use crate::error::{IndexError, IndexResult};
use crate::index::ConstituentIndex;
use crate::query::TimeRange;
use crate::read::{self, Read, Retry};
use crate::record::{Day, SearchValue};

/// Result of a wave-index query, carrying the access count the cost
/// model calls `Probe_idx`/`Scan_idx`.
#[derive(Debug)]
pub struct QueryResult {
    /// Matching entries across all accessed constituents.
    pub entries: Vec<Entry>,
    /// Number of constituent indexes actually accessed.
    pub indexes_accessed: usize,
}

/// A wave index: `n` positional constituent slots.
#[derive(Debug, Default)]
pub struct WaveIndex {
    slots: Vec<Option<ConstituentIndex>>,
}

impl WaveIndex {
    /// Creates a wave index with `n` empty slots.
    pub fn with_slots(n: usize) -> Self {
        WaveIndex {
            slots: (0..n).map(|_| None).collect(),
        }
    }

    /// Number of slots (the scheme's `n`).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The constituent in slot `j` (0-based), if present.
    pub fn slot(&self, j: usize) -> Option<&ConstituentIndex> {
        self.slots.get(j).and_then(Option::as_ref)
    }

    /// Mutable access to slot `j`.
    pub fn slot_mut(&mut self, j: usize) -> Option<&mut ConstituentIndex> {
        self.slots.get_mut(j).and_then(Option::as_mut)
    }

    /// `AddIndex`: installs `idx` in slot `j`, returning any previous
    /// occupant (which the caller must release).
    pub fn install(&mut self, j: usize, idx: ConstituentIndex) -> Option<ConstituentIndex> {
        self.slots[j].replace(idx)
    }

    /// Removes and returns the occupant of slot `j`.
    pub fn take(&mut self, j: usize) -> Option<ConstituentIndex> {
        self.slots[j].take()
    }

    /// `DropIndex`: removes the occupant of slot `j` and reclaims its
    /// space.
    pub fn drop_index(&mut self, vol: &mut Volume, j: usize) -> IndexResult<()> {
        if let Some(idx) = self.slots[j].take() {
            idx.release(vol)?;
        }
        Ok(())
    }

    /// Iterates the live constituents with their slot numbers.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &ConstituentIndex)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(j, s)| s.as_ref().map(|idx| (j, idx)))
    }

    /// Slot of the constituent whose time-set contains `day`.
    pub fn slot_containing(&self, day: Day) -> Option<usize> {
        self.iter()
            .find(|(_, idx)| idx.days().contains(&day))
            .map(|(j, _)| j)
    }

    /// Reads every constituent [`read::select`] picks, ascending, and
    /// concatenates — the one rule behind both of the paper's queries.
    fn query(
        &self,
        vol: &mut Volume,
        what: Read<'_>,
        range: TimeRange,
    ) -> IndexResult<QueryResult> {
        let mut entries = Vec::new();
        let mut accessed = 0;
        for (_, idx) in read::select(self.iter(), range) {
            accessed += 1;
            read::append(&mut entries, read::read_slot(idx, vol, what, range, None)?);
        }
        Ok(QueryResult {
            entries,
            indexes_accessed: accessed,
        })
    }

    /// `TimedIndexProbe(Θ, T1, T2, s)`.
    pub fn timed_index_probe(
        &self,
        vol: &mut Volume,
        value: &SearchValue,
        range: TimeRange,
    ) -> IndexResult<QueryResult> {
        self.query(vol, Read::Probe(value), range)
    }

    /// `IndexProbe(Θ, s)`: probe with an unbounded range.
    pub fn index_probe(&self, vol: &mut Volume, value: &SearchValue) -> IndexResult<QueryResult> {
        self.timed_index_probe(vol, value, TimeRange::all())
    }

    /// Batched `TimedIndexProbe`: answers every value in one
    /// elevator-ordered device sweep, traced under the volume's
    /// ambient context.
    ///
    /// Answers are byte-identical to calling
    /// [`WaveIndex::timed_index_probe`] per value — same entries, same
    /// order, same `indexes_accessed` — only the device schedule (and
    /// therefore the simulated cost) differs.
    pub fn query_batch(
        &self,
        vol: &mut Volume,
        values: &[SearchValue],
        range: TimeRange,
    ) -> IndexResult<Vec<QueryResult>> {
        let ctx = vol.trace_ctx();
        self.query_batch_under(vol, values, range, ctx, None)
    }

    /// [`WaveIndex::query_batch`] under an explicit trace context and
    /// retry policy (the shared-handle caller's).
    pub(crate) fn query_batch_under(
        &self,
        vol: &mut Volume,
        values: &[SearchValue],
        range: TimeRange,
        ctx: TraceCtx,
        retry: Retry<'_>,
    ) -> IndexResult<Vec<QueryResult>> {
        let selected = read::select(self.iter(), range);
        let batch = read::read_batch(selected, vol, values, range, ctx, retry)?;
        // The batch's answers come in slot order, so the fold
        // reproduces the per-probe entry order; every value touches
        // the same constituents.
        let answers = batch.answers().map(|(_, vi, entries)| (vi, entries));
        let accessed = batch.slots().len();
        Ok(read::fold(&read::firsts(values), answers)
            .into_iter()
            .map(|entries| QueryResult {
                entries,
                indexes_accessed: accessed,
            })
            .collect())
    }

    /// `TimedSegmentScan(Θ, T1, T2)`.
    pub fn timed_segment_scan(
        &self,
        vol: &mut Volume,
        range: TimeRange,
    ) -> IndexResult<QueryResult> {
        self.query(vol, Read::Scan, range)
    }

    /// `SegmentScan(Θ)`: scan with an unbounded range.
    pub fn segment_scan(&self, vol: &mut Volume) -> IndexResult<QueryResult> {
        self.timed_segment_scan(vol, TimeRange::all())
    }

    /// Union of the constituents' time-sets.
    pub fn covered_days(&self) -> BTreeSet<Day> {
        let mut days = BTreeSet::new();
        for (_, idx) in self.iter() {
            days.extend(idx.days().iter().copied());
        }
        days
    }

    /// The paper's *length* measure: total days indexed across
    /// constituents (Section 3.3 / Appendix B).
    pub fn length(&self) -> usize {
        self.iter().map(|(_, idx)| idx.len_days()).sum()
    }

    /// Total blocks occupied by the constituents.
    pub fn blocks(&self) -> u64 {
        self.iter().map(|(_, idx)| idx.blocks()).sum()
    }

    /// Total live entries across constituents.
    pub fn entry_count(&self) -> u64 {
        self.iter().map(|(_, idx)| idx.entry_count()).sum()
    }

    /// Checks that the constituents' time-sets are pairwise disjoint
    /// (a day indexed twice would duplicate query results).
    pub fn check_disjoint(&self) -> IndexResult<()> {
        let mut seen: BTreeSet<Day> = BTreeSet::new();
        for (j, idx) in self.iter() {
            for day in idx.days() {
                if !seen.insert(*day) {
                    return Err(IndexError::Corrupt(format!(
                        "day {day} appears in more than one constituent (slot {j})"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Releases every constituent's storage.
    pub fn release_all(&mut self, vol: &mut Volume) -> IndexResult<()> {
        for slot in &mut self.slots {
            if let Some(idx) = slot.take() {
                idx.release(vol)?;
            }
        }
        Ok(())
    }

    /// Labels and time-sets of the live constituents, for transition
    /// logs and the Tables 1–7 golden tests.
    pub fn snapshot(&self) -> Vec<(String, Vec<Day>)> {
        self.iter()
            .map(|(_, idx)| {
                (
                    idx.label().to_string(),
                    idx.days().iter().copied().collect(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
    use crate::record::{DayBatch, Record, RecordId};

    fn batch(day: u32, words: &[&str]) -> DayBatch {
        DayBatch::new(
            Day(day),
            vec![Record::with_values(
                RecordId(day as u64),
                words.iter().map(|w| SearchValue::from(*w)),
            )],
        )
    }

    fn two_slot_wave(vol: &mut Volume) -> WaveIndex {
        let mut wave = WaveIndex::with_slots(2);
        let b1 = batch(1, &["war"]);
        let b2 = batch(2, &["war", "tea"]);
        let b3 = batch(3, &["tea"]);
        let b4 = batch(4, &["war"]);
        wave.install(
            0,
            ConstituentIndex::build_packed("I1", IndexConfig::default(), vol, &[&b1, &b2]).unwrap(),
        );
        wave.install(
            1,
            ConstituentIndex::build_packed("I2", IndexConfig::default(), vol, &[&b3, &b4]).unwrap(),
        );
        wave
    }

    #[test]
    fn probe_spans_constituents() {
        let mut vol = Volume::default();
        let wave = two_slot_wave(&mut vol);
        let r = wave
            .index_probe(&mut vol, &SearchValue::from("war"))
            .unwrap();
        assert_eq!(r.entries.len(), 3);
        assert_eq!(r.indexes_accessed, 2);
    }

    #[test]
    fn timed_probe_skips_irrelevant_constituents() {
        let mut vol = Volume::default();
        let wave = two_slot_wave(&mut vol);
        let r = wave
            .timed_index_probe(
                &mut vol,
                &SearchValue::from("war"),
                TimeRange::between(Day(3), Day(4)),
            )
            .unwrap();
        assert_eq!(r.entries.len(), 1);
        assert_eq!(r.indexes_accessed, 1, "I1 covers only days 1-2");
    }

    #[test]
    fn segment_scan_counts_and_filters() {
        let mut vol = Volume::default();
        let wave = two_slot_wave(&mut vol);
        let all = wave.segment_scan(&mut vol).unwrap();
        assert_eq!(all.entries.len(), 5);
        let timed = wave
            .timed_segment_scan(&mut vol, TimeRange::between(Day(2), Day(3)))
            .unwrap();
        assert_eq!(timed.entries.len(), 3);
        assert_eq!(timed.indexes_accessed, 2);
    }

    #[test]
    fn coverage_and_length() {
        let mut vol = Volume::default();
        let mut wave = two_slot_wave(&mut vol);
        assert_eq!(wave.length(), 4);
        let covered: Vec<u32> = wave.covered_days().iter().map(|d| d.0).collect();
        assert_eq!(covered, vec![1, 2, 3, 4]);
        assert_eq!(wave.slot_containing(Day(3)), Some(1));
        assert_eq!(wave.slot_containing(Day(9)), None);
        wave.check_disjoint().unwrap();
        wave.release_all(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn overlapping_constituents_detected() {
        let mut vol = Volume::default();
        let mut wave = WaveIndex::with_slots(2);
        let b = batch(1, &["x"]);
        wave.install(
            0,
            ConstituentIndex::build_packed("I1", IndexConfig::default(), &mut vol, &[&b]).unwrap(),
        );
        wave.install(
            1,
            ConstituentIndex::build_packed("I2", IndexConfig::default(), &mut vol, &[&b]).unwrap(),
        );
        assert!(wave.check_disjoint().is_err());
        wave.release_all(&mut vol).unwrap();
    }

    #[test]
    fn drop_index_reclaims_space() {
        let mut vol = Volume::default();
        let mut wave = two_slot_wave(&mut vol);
        let before = vol.live_blocks();
        wave.drop_index(&mut vol, 0).unwrap();
        assert!(vol.live_blocks() < before);
        assert!(wave.slot(0).is_none());
        assert_eq!(wave.iter().count(), 1);
        wave.release_all(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn query_batch_is_byte_identical_and_never_costlier() {
        // Twin volumes so the per-value path and the batched path
        // start from identical head positions and cache states.
        let mut vol_solo = Volume::default();
        let mut vol_batch = Volume::default();
        let wave_solo = two_slot_wave(&mut vol_solo);
        let wave_batch = two_slot_wave(&mut vol_batch);
        let values = [
            SearchValue::from("war"),
            SearchValue::from("tea"),
            SearchValue::from("absent"),
            SearchValue::from("war"), // duplicates are legal
        ];
        for range in [
            TimeRange::all(),
            TimeRange::between(Day(2), Day(3)),
            TimeRange::between(Day(9), Day(9)),
        ] {
            let solo_before = vol_solo.stats();
            let solo: Vec<QueryResult> = values
                .iter()
                .map(|v| {
                    wave_solo
                        .timed_index_probe(&mut vol_solo, v, range)
                        .unwrap()
                })
                .collect();
            let solo_delta = vol_solo.stats().since(&solo_before);

            let batch_before = vol_batch.stats();
            let batch = wave_batch
                .query_batch(&mut vol_batch, &values, range)
                .unwrap();
            let batch_delta = vol_batch.stats().since(&batch_before);

            assert_eq!(batch.len(), solo.len());
            for (b, s) in batch.iter().zip(&solo) {
                assert_eq!(b.entries, s.entries, "range {range:?}");
                assert_eq!(b.indexes_accessed, s.indexes_accessed);
            }
            assert!(
                batch_delta.sim_seconds <= solo_delta.sim_seconds + 1e-12,
                "range {range:?}: batch {} vs solo {}",
                batch_delta.sim_seconds,
                solo_delta.sim_seconds
            );
        }
    }

    #[test]
    fn query_batch_of_no_values_is_empty() {
        let mut vol = Volume::default();
        let wave = two_slot_wave(&mut vol);
        assert!(wave
            .query_batch(&mut vol, &[], TimeRange::all())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn empty_wave_queries_are_empty() {
        let mut vol = Volume::default();
        let wave = WaveIndex::with_slots(3);
        let r = wave.index_probe(&mut vol, &SearchValue::from("x")).unwrap();
        assert!(r.entries.is_empty());
        assert_eq!(r.indexes_accessed, 0);
        assert_eq!(wave.length(), 0);
        assert_eq!(wave.blocks(), 0);
    }
}
