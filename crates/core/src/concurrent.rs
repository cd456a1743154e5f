//! Concurrent access to a wave index via shadow swapping.
//!
//! The paper argues (Sections 1 and 2.1) that shadow-based schemes
//! need no bucket-level concurrency control: maintenance builds the
//! replacement index privately and only the *swap* must be excluded
//! against queries. [`SharedWave`] realises that: readers hold a read
//! lock for the duration of one query; maintenance does all its I/O
//! outside any lock and takes the write lock only for the O(1) slot
//! swap.

use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::entry::Entry;
use crate::error::{IndexError, IndexResult};
use crate::index::ConstituentIndex;
use crate::query::TimeRange;
use crate::read::{self, Read};
use crate::record::SearchValue;
use crate::wave::{QueryResult, WaveIndex};
use wave_obs::{Counter, Obs, Span};
use wave_storage::{RetryPolicy, Volume};

/// A wave index shareable across threads.
///
/// The volume is a single simulated device, so individual bucket
/// accesses serialise on it (as they would on one disk arm) — but
/// only bucket accesses, never whole queries: the volume mutex is
/// released between constituents so concurrent readers interleave.
/// The point demonstrated here is *correctness* under concurrent
/// swaps; for true parallel I/O across independent arms see
/// [`crate::server::WaveServer`].
#[derive(Clone)]
pub struct SharedWave {
    wave: Arc<RwLock<WaveIndex>>,
    vol: Arc<Mutex<Volume>>,
    /// The volume's observability handle, cloned out at construction
    /// so query entry points can open request-scoped root spans
    /// without taking the volume mutex first.
    obs: Obs,
    /// Bounded retry applied to the transient-error class on the
    /// serving read paths (probe, scan, batched queries).
    retry: RetryPolicy,
    /// `shared.read_retries` — transient read errors absorbed by retry.
    retries: Counter,
}

impl SharedWave {
    /// Wraps a wave index and its volume for shared use.
    pub fn new(wave: WaveIndex, vol: Volume) -> Self {
        let obs = vol.obs().clone();
        let retries = obs.counter("shared.read_retries");
        SharedWave {
            wave: Arc::new(RwLock::new(wave)),
            vol: Arc::new(Mutex::new(vol)),
            obs,
            retry: RetryPolicy::no_backoff(4),
            retries,
        }
    }

    /// Replaces the retry policy applied to transient read errors on
    /// the serving paths. `RetryPolicy::no_backoff(1)` disables
    /// retrying entirely (every transient error surfaces).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Root-span epilogue shared by the query entry points: stamps the
    /// flight-recorder retention signals (`latency_us` on success,
    /// `error` on failure) and records the SLO observation. `busy` is
    /// the simulated time accrued inside this query's own volume
    /// critical sections, so attribution stays honest when concurrent
    /// readers interleave on the shared device.
    fn finish<T>(&self, span: &mut Span, op: &str, busy_seconds: f64, result: &IndexResult<T>) {
        match result {
            Ok(_) => {
                let us = (busy_seconds * 1e6).round().max(0.0) as u64;
                span.set_end_field("latency_us", us);
                self.obs.slo().record(op, None, us, span.ctx().trace_id);
            }
            Err(e) => span.set_end_field("error", e.to_string()),
        }
    }

    /// Takes the wave structure read lock, surfacing poisoning (a
    /// reader or swapper panicked mid-update) as a typed error
    /// instead of propagating the panic onto the serving path.
    fn wave_read(&self) -> IndexResult<RwLockReadGuard<'_, WaveIndex>> {
        self.wave
            .read()
            .map_err(|_| IndexError::LockPoisoned("shared wave structure"))
    }

    fn wave_write(&self) -> IndexResult<RwLockWriteGuard<'_, WaveIndex>> {
        self.wave
            .write()
            .map_err(|_| IndexError::LockPoisoned("shared wave structure"))
    }

    fn vol_lock(&self) -> IndexResult<MutexGuard<'_, Volume>> {
        self.vol
            .lock()
            .map_err(|_| IndexError::LockPoisoned("shared volume"))
    }

    /// `TimedIndexProbe` under a read lock: sees one consistent
    /// generation of every constituent.
    ///
    /// The wave read lock spans the query (that is what makes the
    /// generation consistent), but the volume mutex is taken per
    /// constituent access, so concurrent readers interleave their
    /// disk requests instead of serialising whole queries.
    pub fn probe(&self, value: &SearchValue, range: TimeRange) -> IndexResult<Vec<Entry>> {
        self.read_paced(Read::Probe(value), range, || {})
    }

    /// `TimedSegmentScan` under a read lock, with the same narrow
    /// per-constituent volume critical section as [`Self::probe`].
    pub fn scan(&self, range: TimeRange) -> IndexResult<Vec<Entry>> {
        self.read_paced(Read::Scan, range, || {})
    }

    /// The per-constituent loop behind [`Self::probe`] and
    /// [`Self::scan`]. `between` is called between two volume critical
    /// sections, while no volume lock is held; it exists so tests can
    /// prove another reader's entire query fits inside the gap.
    fn read_paced(
        &self,
        what: Read<'_>,
        range: TimeRange,
        mut between: impl FnMut(),
    ) -> IndexResult<Vec<Entry>> {
        let (op, mut span) = match what {
            Read::Probe(_) => ("shared.probe", self.obs.root_span("shared.probe", &[])),
            Read::Scan => ("shared.scan", self.obs.root_span("shared.scan", &[])),
        };
        let mut busy = 0.0f64;
        let result = (|| -> IndexResult<Vec<Entry>> {
            let wave = self.wave_read()?;
            let mut entries = Vec::new();
            for (i, (_, idx)) in read::select(wave.iter(), range).enumerate() {
                if i > 0 {
                    between();
                }
                let mut vol = self.vol_lock()?;
                let before = vol.stats();
                // Transient failures are retried inside the same volume
                // critical section, so retries never widen the window in
                // which swaps can interleave.
                let retry = Some((&self.retry, &self.retries));
                read::append(
                    &mut entries,
                    read::read_slot(idx, &mut vol, what, range, retry)?,
                );
                busy += vol.stats().since(&before).sim_seconds;
            }
            Ok(entries)
        })();
        self.finish(&mut span, op, busy, &result);
        result
    }

    /// [`WaveIndex::query_batch`] under a read lock: the whole value
    /// batch sees one consistent generation, and the volume mutex is
    /// held once for the batch's single scheduled I/O pass — the
    /// batched path trades the per-constituent interleaving of
    /// [`Self::probe`] for one elevator-ordered sweep.
    pub fn query_batch(
        &self,
        values: &[SearchValue],
        range: TimeRange,
    ) -> IndexResult<Vec<QueryResult>> {
        let mut span = self.obs.root_span(
            "shared.query_batch",
            wave_obs::fields![("values", values.len() as u64)],
        );
        let ctx = span.ctx();
        let mut busy = 0.0f64;
        let result = (|| -> IndexResult<Vec<QueryResult>> {
            let wave = self.wave_read()?;
            let mut vol = self.vol_lock()?;
            let before = vol.stats();
            let retry = Some((&self.retry, &self.retries));
            let result = wave.query_batch_under(&mut vol, values, range, ctx, retry);
            busy = vol.stats().since(&before).sim_seconds;
            result
        })();
        self.finish(&mut span, "shared.query_batch", busy, &result);
        result
    }

    /// Runs maintenance I/O against the volume without excluding
    /// readers of the wave structure (they only contend on the disk,
    /// exactly as shadow updating promises).
    pub fn with_volume<R>(&self, f: impl FnOnce(&mut Volume) -> R) -> IndexResult<R> {
        let mut vol = self.vol_lock()?;
        Ok(f(&mut vol))
    }

    /// The O(1) swap: installs `idx` in slot `j` under a brief write
    /// lock and returns the displaced index for the caller to release.
    pub fn swap_slot(
        &self,
        j: usize,
        idx: ConstituentIndex,
    ) -> IndexResult<Option<ConstituentIndex>> {
        Ok(self.wave_write()?.install(j, idx))
    }

    /// Total days covered (read-locked snapshot).
    pub fn length(&self) -> IndexResult<usize> {
        Ok(self.wave_read()?.length())
    }

    /// Tears down, releasing every constituent's storage.
    pub fn release(self) -> IndexResult<()> {
        let mut wave = self.wave_write()?;
        let mut vol = self.vol_lock()?;
        wave.release_all(&mut vol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
    use crate::record::{Day, DayBatch, Record, RecordId};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn batch(day: u32, count: u64) -> DayBatch {
        DayBatch::new(
            Day(day),
            (0..count)
                .map(|i| {
                    Record::with_values(RecordId(day as u64 * 1000 + i), [SearchValue::from("k")])
                })
                .collect(),
        )
    }

    /// Regression test for the over-wide critical section: `probe`
    /// used to hold the volume mutex for the *entire* query, so a
    /// second reader could not start until the first finished. Now
    /// the mutex covers one constituent access at a time — reader
    /// B's whole probe completes while reader A sits between two of
    /// its own volume critical sections.
    #[test]
    fn two_readers_interleave_on_the_volume() {
        let mut vol = Volume::default();
        let mut wave = WaveIndex::with_slots(2);
        for j in 0..2u32 {
            let idx = ConstituentIndex::build_packed(
                format!("I{j}"),
                IndexConfig::default(),
                &mut vol,
                &[&batch(j + 1, 5)],
            )
            .unwrap();
            wave.install(j as usize, idx);
        }
        let shared = SharedWave::new(wave, vol);

        let (go_tx, go_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let reader_b = {
            let s = shared.clone();
            std::thread::spawn(move || {
                go_rx.recv().unwrap();
                let hits = s.probe(&SearchValue::from("k"), TimeRange::all()).unwrap();
                done_tx.send(hits.len()).unwrap();
            })
        };

        let mut gaps = 0;
        let hits = shared
            .read_paced(
                Read::Probe(&SearchValue::from("k")),
                TimeRange::all(),
                || {
                    gaps += 1;
                    go_tx.send(()).unwrap();
                    // If the volume lock still spanned the whole query, B
                    // would block behind A here and this recv would time
                    // out instead of observing B's completed probe.
                    let b_hits = done_rx
                        .recv_timeout(std::time::Duration::from_secs(10))
                        .expect("reader B must finish while A is mid-query");
                    assert_eq!(b_hits, 10, "B sees both constituents");
                },
            )
            .unwrap();
        assert_eq!(gaps, 1, "two constituents probed, one gap between");
        assert_eq!(hits.len(), 10);
        reader_b.join().unwrap();
        shared.release().unwrap();
    }

    /// The batched passthrough answers exactly like per-value probes
    /// through the same shared handle.
    #[test]
    fn shared_query_batch_matches_per_value_probes() {
        let mut vol = Volume::default();
        let mut wave = WaveIndex::with_slots(2);
        for j in 0..2u32 {
            let idx = ConstituentIndex::build_packed(
                format!("I{j}"),
                IndexConfig::default(),
                &mut vol,
                &[&batch(j + 1, 5)],
            )
            .unwrap();
            wave.install(j as usize, idx);
        }
        let shared = SharedWave::new(wave, vol);
        let values = [
            SearchValue::from("k"),
            SearchValue::from("absent"),
            SearchValue::from("k"),
        ];
        let results = shared.query_batch(&values, TimeRange::all()).unwrap();
        assert_eq!(results.len(), values.len());
        for (vi, value) in values.iter().enumerate() {
            let want = shared.probe(value, TimeRange::all()).unwrap();
            assert_eq!(results[vi].entries, want, "value {vi}");
        }
        shared.release().unwrap();
    }

    /// Transient read bursts shorter than the retry budget are
    /// absorbed on every shared serving path; a policy with no retry
    /// budget surfaces the same fault as a typed transient error.
    #[test]
    fn shared_reads_retry_transient_faults() {
        let mut vol = Volume::default();
        let mut wave = WaveIndex::with_slots(2);
        for j in 0..2u32 {
            let idx = ConstituentIndex::build_packed(
                format!("I{j}"),
                IndexConfig::default(),
                &mut vol,
                &[&batch(j + 1, 5)],
            )
            .unwrap();
            wave.install(j as usize, idx);
        }
        let shared = SharedWave::new(wave, vol);
        let want = shared
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();

        shared
            .with_volume(|v| v.inject_transient_after(0, 2))
            .unwrap();
        let got = shared
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        assert_eq!(got, want, "probe retries the burst away");

        shared
            .with_volume(|v| v.inject_transient_after(0, 2))
            .unwrap();
        let got = shared.scan(TimeRange::all()).unwrap();
        assert_eq!(got.len(), want.len(), "scan retries the burst away");

        shared
            .with_volume(|v| v.inject_transient_after(0, 2))
            .unwrap();
        let results = shared
            .query_batch(&[SearchValue::from("k")], TimeRange::all())
            .unwrap();
        assert_eq!(results[0].entries, want, "batch retries the burst away");

        // With the retry budget removed, the same burst surfaces.
        let strict = shared.clone().with_retry(RetryPolicy::no_backoff(1));
        strict
            .with_volume(|v| v.inject_transient_after(0, 2))
            .unwrap();
        let err = strict
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap_err();
        assert!(err.is_transient(), "{err}");
        strict.with_volume(|v| v.clear_fault()).unwrap();
        shared.release().unwrap();
    }

    #[test]
    fn readers_see_whole_generations_during_swaps() {
        let mut vol = Volume::default();
        let mut wave = WaveIndex::with_slots(1);
        // Generation sizes are distinct so a reader can tell exactly
        // which generation it saw: 10 or 20 entries, never in between.
        let gen1 = ConstituentIndex::build_packed(
            "I1",
            IndexConfig::default(),
            &mut vol,
            &[&batch(1, 10)],
        )
        .unwrap();
        wave.install(0, gen1);
        let shared = SharedWave::new(wave, vol);

        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let s = shared.clone();
            let stop = stop.clone();
            readers.push(std::thread::spawn(move || {
                let mut observations = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let hits = s.probe(&SearchValue::from("k"), TimeRange::all()).unwrap();
                    observations.push(hits.len());
                }
                observations
            }));
        }

        // Writer: repeatedly build a new generation off-lock, swap it
        // in, release the old one.
        for round in 0..20 {
            let size = if round % 2 == 0 { 20 } else { 10 };
            let fresh = shared
                .with_volume(|vol| {
                    ConstituentIndex::build_packed(
                        "I1",
                        IndexConfig::default(),
                        vol,
                        &[&batch(round + 2, size)],
                    )
                    .unwrap()
                })
                .unwrap();
            if let Some(old) = shared.swap_slot(0, fresh).unwrap() {
                shared.with_volume(|vol| old.release(vol)).unwrap().unwrap();
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            for count in r.join().unwrap() {
                assert!(
                    count == 10 || count == 20,
                    "reader observed a torn generation of {count} entries"
                );
            }
        }
        shared.release().unwrap();
    }
}
