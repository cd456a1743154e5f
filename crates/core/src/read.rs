//! The one read path of a wave index.
//!
//! The paper defines two queries over a wave (Section 2.2),
//! `TimedIndexProbe` and `TimedSegmentScan`, by one rule: visit every
//! constituent whose time-set intersects `[T1, T2]`, ascending, and
//! concatenate. Every reader in this crate — [`WaveIndex`], the
//! per-slot timings of [`crate::parallel`], [`SharedWave`] and the
//! server's arms — goes through the functions here:
//!
//! 1. [`select`] picks the slots;
//! 2. [`read_slot`] reads one constituent (a probe or a scan);
//! 3. [`read_batch`] reads many values from the selected slots in one
//!    device sweep, and [`fold`] writes their answers.
//!
//! A probe of one `(slot, value)` is always the same sequence:
//! **prune** ([`ConstituentIndex::prune_probe`]: membership filter,
//! covering set, directory — all in memory), **fetch** the bucket if
//! one is left to fetch, and **decode what the range and the overlay
//! keep** ([`ConstituentIndex::decode_bucket_in`]): an entry is
//! decoded only if its day lies in the range and is not pending
//! deletion in the ingest buffer, and the value's in-range pending
//! adds follow. A covered answer is already logical and only loses
//! the days outside the range. The callers differ only in how they
//! obtain the [`Volume`] (owned, one mutex hold per constituent, per
//! arm) and in what they record around the read (nothing, busy
//! seconds, per-slot seconds, a `StatsDelta`).
//!
//! # Invariants
//!
//! * **Selection.** A slot is read iff it is live, non-empty and its
//!   day span intersects the range; slots are visited in ascending
//!   order, which is what makes merged answers comparable byte for
//!   byte.
//! * **A filter skip is still an access.** `indexes_accessed` counts
//!   the selected slots, not the buckets that hit: pruning removes
//!   I/O, never an access from the paper's `Probe_idx` measure.
//! * **A repeat is still an access and a request.** A value that
//!   occurs twice in a batch is pruned twice and its bucket requested
//!   twice, so the counters and the device schedule are those of
//!   per-pair pruning; only the decode runs once per slot, and the
//!   repeat gets one copy of the finished answer ([`fold`]).
//! * **Answers do not depend on the caller.** Every path returns the
//!   same entries in the same order; only the device schedule differs
//!   — a single probe reads its buckets through the cache in slot
//!   order, a batch goes through one cache-bypassing elevator sweep
//!   and decodes from the slices it lends, a scan reads the base
//!   extent sequentially.
//!
//! A caller's retry policy wraps the device read alone. Pruning runs
//! once per `(slot, value)` however many transient errors the read
//! rides out, so the `filter.*` counters and the `dir.probe_depth`
//! histogram count each pair once.
//!
//! [`WaveIndex`]: crate::wave::WaveIndex
//! [`SharedWave`]: crate::concurrent::SharedWave

use std::collections::BTreeMap;
use std::ops::Range;

use wave_obs::{Counter, TraceCtx};
use wave_storage::{IoScheduler, ReadRequest, RetryPolicy, Sweep, Volume};

use crate::directory::BucketRef;
use crate::entry::{Entry, ENTRY_BYTES};
use crate::error::{IndexError, IndexResult};
use crate::index::{ConstituentIndex, ProbeOutcome};
use crate::query::TimeRange;
use crate::record::SearchValue;

/// Appends one slot's answer to a value's result: the first non-empty
/// answer is moved in whole, later ones are appended.
pub(crate) fn append(out: &mut Vec<Entry>, entries: Vec<Entry>) {
    if out.is_empty() {
        *out = entries;
    } else {
        out.extend(entries);
    }
}

/// What to read from one constituent.
#[derive(Clone, Copy)]
pub(crate) enum Read<'a> {
    /// `TimedIndexProbe`: the entries of one search value.
    Probe(&'a SearchValue),
    /// `TimedSegmentScan`: every entry.
    Scan,
}

/// How a caller rides out transient device errors: a bounded policy
/// and the counter every absorbed error bumps. `None` surfaces the
/// first error.
pub(crate) type Retry<'a> = Option<(&'a RetryPolicy, &'a Counter)>;

fn with_retry<T>(retry: Retry<'_>, mut op: impl FnMut() -> IndexResult<T>) -> IndexResult<T> {
    match retry {
        Some((policy, retries)) => policy.run_where(retries, IndexError::is_transient, op),
        None => op(),
    }
}

/// The selection rule: of `slots` (live constituents in ascending slot
/// order), those that hold at least one day and whose day span
/// intersects `range`.
pub(crate) fn select<'a>(
    slots: impl Iterator<Item = (usize, &'a ConstituentIndex)>,
    range: TimeRange,
) -> impl Iterator<Item = (usize, &'a ConstituentIndex)> {
    slots.filter(move |(_, idx)| {
        idx.day_span()
            .is_some_and(|(lo, hi)| range.intersects_span(lo, hi))
    })
}

fn bucket_bytes(bucket: &BucketRef) -> usize {
    bucket.count as usize * ENTRY_BYTES
}

/// The tail of the sequence for one pruned `(slot, value)`, appended
/// to `out`: covered entries are already logical and only lose what
/// lies outside the range; a bucket is fetched and decoded as far as
/// the range and the ingest overlay keep it
/// ([`ConstituentIndex::decode_bucket_in`]). `fetch` is the only step
/// that differs — a cached read of the one bucket, or the next buffer
/// of a sweep.
fn finish<B: AsRef<[u8]>>(
    idx: &ConstituentIndex,
    value: &SearchValue,
    outcome: ProbeOutcome<'_>,
    range: TimeRange,
    fetch: impl FnOnce(&BucketRef) -> IndexResult<B>,
    out: &mut Vec<Entry>,
) -> IndexResult<()> {
    match outcome {
        ProbeOutcome::Skipped | ProbeOutcome::Absent => Ok(()),
        ProbeOutcome::Covered(entries) => {
            out.extend(entries.iter().filter(|e| range.contains(e.day)));
            Ok(())
        }
        ProbeOutcome::Bucket(bucket) => {
            let fetched = fetch(&bucket)?;
            idx.decode_bucket_in(value, fetched.as_ref(), bucket.count as usize, range, out)
        }
    }
}

/// Reads one selected constituent: the entries of `what` inside
/// `range`. A probe's bucket is read through the cache
/// (`Volume::read_at`); a scan reads the base extent sequentially.
pub(crate) fn read_slot(
    idx: &ConstituentIndex,
    vol: &mut Volume,
    what: Read<'_>,
    range: TimeRange,
    retry: Retry<'_>,
) -> IndexResult<Vec<Entry>> {
    match what {
        // A scan prunes nothing, so retrying it whole re-counts nothing.
        Read::Scan => with_retry(retry, || idx.scan_in(vol, range)),
        Read::Probe(value) => {
            let outcome = idx.prune_probe(vol, value);
            let mut entries = Vec::with_capacity(match outcome {
                ProbeOutcome::Covered(entries) => entries.len(),
                ProbeOutcome::Bucket(bucket) => bucket.count as usize,
                ProbeOutcome::Skipped | ProbeOutcome::Absent => 0,
            });
            let fetch = |bucket: &BucketRef| {
                with_retry(retry, || {
                    Ok(vol.read_at(bucket.extent, bucket.offset, bucket_bytes(bucket))?)
                })
            };
            finish(idx, value, outcome, range, fetch, &mut entries)?;
            Ok(entries)
        }
    }
}

/// For each of `values`: the index of its first occurrence — the
/// column map a batch folds with ([`fold`]).
pub(crate) fn firsts(values: &[SearchValue]) -> Vec<usize> {
    let mut first: BTreeMap<&SearchValue, usize> = BTreeMap::new();
    values
        .iter()
        .enumerate()
        .map(|(vi, value)| *first.entry(value).or_insert(vi))
        .collect()
}

/// One `(slot, value)` answer of a batch: `arena[entries]`.
struct Span {
    slot: usize,
    value: usize,
    entries: Range<usize>,
}

/// What [`read_batch`] read: every first occurrence's non-empty answer
/// as a span of one arena, in slot-then-value order, and the selected
/// slots (each one an access, whatever its answers).
pub(crate) struct Batch {
    arena: Vec<Entry>,
    spans: Vec<Span>,
    slots: Vec<usize>,
}

impl Batch {
    /// The selected slots, ascending.
    pub(crate) fn slots(&self) -> &[usize] {
        &self.slots
    }

    /// Drops the slots `keep` rejects, with their answers.
    pub(crate) fn retain_slots(&mut self, keep: impl Fn(usize) -> bool) {
        self.slots.retain(|&slot| keep(slot));
        self.spans.retain(|span| keep(span.slot));
    }

    /// Every `(slot, value index, entries)` answer, in slot-then-value
    /// order; a value index names the value's first occurrence.
    pub(crate) fn answers(&self) -> impl Iterator<Item = (usize, usize, &[Entry])> + Clone {
        self.spans.iter().map(|span| {
            let entries = self.arena.get(span.entries.clone()).unwrap_or_default();
            (span.slot, span.value, entries)
        })
    }
}

/// Folds `(column, entries)` answers, given in ascending slot order,
/// into one answer per column: each column is sized once from its
/// answers' lengths and filled in the order given, which reproduces
/// the per-probe concatenation. `firsts` maps every column to the
/// column of its first occurrence, and a repeated column gets one
/// copy of that finished answer. A probe or a scan is one column.
pub(crate) fn fold<'e>(
    firsts: &[usize],
    answers: impl Iterator<Item = (usize, &'e [Entry])> + Clone,
) -> Vec<Vec<Entry>> {
    let mut lens = vec![0; firsts.len()];
    for (column, entries) in answers.clone() {
        if let Some(len) = lens.get_mut(column) {
            *len += entries.len();
        }
    }
    let mut out: Vec<Vec<Entry>> = lens.into_iter().map(Vec::with_capacity).collect();
    for (column, entries) in answers {
        if let Some(answer) = out.get_mut(column) {
            answer.extend_from_slice(entries);
        }
    }
    for (column, &first) in firsts.iter().enumerate() {
        if first != column {
            let copy = out.get(first).cloned().unwrap_or_default();
            if let Some(answer) = out.get_mut(column) {
                *answer = copy;
            }
        }
    }
    out
}

/// Probes every value of `values` in every selected constituent with
/// at most one scheduled device sweep: every `(slot, value)` is pruned
/// in memory first, then *all* the buckets left to fetch go to the
/// [`IoScheduler`] as one batch under `ctx` — sorted by block address,
/// adjacent buckets merged into single transfers, shared blocks read
/// once. Buckets decode straight from the slices the [`Sweep`] lends
/// into one arena, and a value repeated in `values` decodes once per
/// slot: its repeats are pruned and requested like any pair, but only
/// the first occurrence's answer is written, and [`fold`] copies the
/// finished answer to the repeats.
pub(crate) fn read_batch<'a>(
    selected: impl Iterator<Item = (usize, &'a ConstituentIndex)>,
    vol: &mut Volume,
    values: &[SearchValue],
    range: TimeRange,
    ctx: TraceCtx,
    retry: Retry<'_>,
) -> IndexResult<Batch> {
    let mut requests = Vec::new();
    let mut plan: Vec<(usize, &ConstituentIndex, Vec<ProbeOutcome>)> = Vec::new();
    for (slot, idx) in selected {
        let mut outcomes = Vec::with_capacity(values.len());
        for value in values {
            let outcome = idx.prune_probe(vol, value);
            if let ProbeOutcome::Bucket(bucket) = &outcome {
                requests.push(ReadRequest::new(
                    bucket.extent,
                    bucket.offset,
                    bucket_bytes(bucket),
                ));
            }
            outcomes.push(outcome);
        }
        plan.push((slot, idx, outcomes));
    }
    // The scheduler treats an empty batch as a caller error; a batch
    // that happens to need no bucket is not one.
    let sweep: Option<Sweep> = if requests.is_empty() {
        None
    } else {
        Some(with_retry(retry, || {
            Ok(IoScheduler::read_batch_traced(vol, &requests, ctx)?)
        })?)
    };
    // Requests were pushed in (slot, value) order and the sweep lends
    // them in submission order, so they are taken in the order the
    // plan is walked. A request past the sweep lends no bytes, which
    // `decode_bucket_in` reports as a corrupt bucket.
    let lend = |i: usize| sweep.as_ref().map(|s| s.get(i)).unwrap_or_default();
    let firsts = firsts(values);
    let mut next = 0;
    // The arena grows as it is filled. A bucket's `count` bounds its
    // answer before the range and the overlay cut it, so reserving by
    // it over-allocates wherever the range is narrow.
    let mut batch = Batch {
        arena: Vec::new(),
        spans: Vec::new(),
        slots: Vec::with_capacity(plan.len()),
    };
    for (slot, idx, outcomes) in plan {
        batch.slots.push(slot);
        let pairs = outcomes.into_iter().zip(values).zip(&firsts);
        for (vi, ((outcome, value), &first)) in pairs.enumerate() {
            let request = next;
            if matches!(outcome, ProbeOutcome::Bucket(_)) {
                next += 1;
            }
            if first != vi {
                continue;
            }
            let start = batch.arena.len();
            finish(
                idx,
                value,
                outcome,
                range,
                |_| Ok(lend(request)),
                &mut batch.arena,
            )?;
            if batch.arena.len() > start {
                batch.spans.push(Span {
                    slot,
                    value: vi,
                    entries: start..batch.arena.len(),
                });
            }
        }
    }
    Ok(batch)
}
