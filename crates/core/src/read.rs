//! The one read path of a wave index.
//!
//! The paper defines two queries over a wave (Section 2.2),
//! `TimedIndexProbe` and `TimedSegmentScan`, by one rule: visit every
//! constituent whose time-set intersects `[T1, T2]`, ascending, and
//! concatenate. Every reader in this crate — [`WaveIndex`], the
//! per-slot timings of [`crate::parallel`], [`SharedWave`] and the
//! server's arm workers — goes through the three functions here:
//!
//! 1. [`select`] picks the slots;
//! 2. [`read_slot`] reads one constituent (a probe or a scan);
//! 3. [`read_batch`] reads many values from the selected slots in one
//!    device sweep.
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
//!   repeat gets a clone of that answer.
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

use std::collections::{BTreeMap, BTreeSet};

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

/// The tail of the sequence for one pruned `(slot, value)`: covered
/// entries are already logical and only lose what lies outside the
/// range; a bucket is fetched and decoded as far as the range and the
/// ingest overlay keep it ([`ConstituentIndex::decode_bucket_in`]).
/// `fetch` is the only step that differs — a cached read of the one
/// bucket, or the next buffer of a sweep.
fn finish<B: AsRef<[u8]>>(
    idx: &ConstituentIndex,
    value: &SearchValue,
    outcome: ProbeOutcome,
    range: TimeRange,
    fetch: impl FnOnce(&BucketRef) -> IndexResult<B>,
) -> IndexResult<Vec<Entry>> {
    match outcome {
        ProbeOutcome::Skipped | ProbeOutcome::Absent => Ok(Vec::new()),
        ProbeOutcome::Covered(mut entries) => {
            entries.retain(|e| range.contains(e.day));
            Ok(entries)
        }
        ProbeOutcome::Bucket(bucket) => {
            let fetched = fetch(&bucket)?;
            let mut entries = Vec::with_capacity(bucket.count as usize);
            idx.decode_bucket_in(
                value,
                fetched.as_ref(),
                bucket.count as usize,
                range,
                &mut entries,
            )?;
            Ok(entries)
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
            finish(idx, value, outcome, range, |bucket| {
                with_retry(retry, || {
                    Ok(vol.read_at(bucket.extent, bucket.offset, bucket_bytes(bucket))?)
                })
            })
        }
    }
}

/// For each of `values`: the index of its first occurrence, and
/// whether it occurs again later in the batch.
fn repeats(values: &[SearchValue]) -> Vec<(usize, bool)> {
    let mut first: BTreeMap<&SearchValue, usize> = BTreeMap::new();
    let mut out: Vec<(usize, bool)> = values
        .iter()
        .enumerate()
        .map(|(vi, value)| (*first.entry(value).or_insert(vi), false))
        .collect();
    let mut seen: BTreeSet<&SearchValue> = BTreeSet::new();
    for (value, (_, again)) in values.iter().zip(&mut out).rev() {
        *again = !seen.insert(value);
    }
    out
}

/// Probes every value of `values` in every selected constituent with
/// at most one scheduled device sweep: every `(slot, value)` is pruned
/// in memory first, then *all* the buckets left to fetch go to the
/// [`IoScheduler`] as one batch under `ctx` — sorted by block address,
/// adjacent buckets merged into single transfers, shared blocks read
/// once. Buckets decode straight from the slices the [`Sweep`] lends,
/// and a value repeated in `values` decodes once per slot: its repeats
/// are pruned and requested like any pair, then answered with a clone
/// of the first occurrence's entries. Every `(slot, value)` answer is
/// handed to `emit(slot, value index, entries)` in slot-then-value
/// order as soon as it is decoded, so a caller that folds answers
/// into per-value results holds no entry twice; returns the number of
/// selected slots.
pub(crate) fn read_batch<'a>(
    selected: impl Iterator<Item = (usize, &'a ConstituentIndex)>,
    vol: &mut Volume,
    values: &[SearchValue],
    range: TimeRange,
    ctx: TraceCtx,
    retry: Retry<'_>,
    mut emit: impl FnMut(usize, usize, Vec<Entry>),
) -> IndexResult<usize> {
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
    let repeats = repeats(values);
    let mut next = 0;
    // A first occurrence's answer, kept for the repeats that follow it
    // in the same slot; the last repeat takes it.
    let mut kept: Vec<Vec<Entry>> = vec![Vec::new(); values.len()];
    let accessed = plan.len();
    for (slot, idx, outcomes) in plan {
        let pairs = outcomes.into_iter().zip(values).zip(&repeats);
        for (vi, ((outcome, value), &(first, again))) in pairs.enumerate() {
            let request = next;
            if matches!(outcome, ProbeOutcome::Bucket(_)) {
                next += 1;
            }
            let entries = if first == vi {
                let entries = finish(idx, value, outcome, range, |_| Ok(lend(request)))?;
                if again {
                    if let Some(keep) = kept.get_mut(vi) {
                        keep.clone_from(&entries);
                    }
                }
                entries
            } else {
                match kept.get_mut(first) {
                    Some(keep) if again => keep.clone(),
                    Some(keep) => std::mem::take(keep),
                    None => Vec::new(),
                }
            };
            emit(slot, vi, entries);
        }
    }
    Ok(accessed)
}
