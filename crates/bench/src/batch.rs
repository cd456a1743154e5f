//! Batched-I/O sweep: bulk-build and batched-probe gains over the
//! one-request-at-a-time baselines.
//!
//! For each scheme the sweep partitions a seeded article workload
//! with the scheme's own `Start` (as [`crate::parallel`] does) and
//! measures two simulated-time ratios on the resulting constituents:
//!
//! 1. **bulk build vs entry-at-a-time** — every slot built once with
//!    [`ConstituentIndex::build_packed`] (bottom-up directory, one
//!    elevator-ordered [`WriteBuffer`](wave_storage::WriteBuffer)
//!    pass) and once by feeding the same days one
//!    [`ConstituentIndex::add_batches_in_place`] call at a time into
//!    an empty index — the REINDEX-family fast path against its
//!    incremental baseline;
//! 2. **batched probes vs per-value probes** — one seeded value batch
//!    answered by [`WaveIndex::query_batch`] (one
//!    [`IoScheduler`](wave_storage::IoScheduler) pass) and by summing
//!    [`WaveIndex::timed_index_probe`] per value on a twin volume.
//!
//! Byte-identical answers are asserted inside the sweep; the
//! "batched is never slower" and "bulk build is ≥ the configured
//! multiple faster for REINDEX" bounds are validated by [`check`].
//! `wavectl bench batch` drives this and writes the results as
//! `BENCH_batch.json` (columns documented in EXPERIMENTS.md).

use wave_index::prelude::*;
use wave_index::schemes::SchemeKind;
use wave_index::{ConstituentIndex, Entry};
use wave_obs::SplitMix64;
use wave_workloads::ArticleGenerator;

use crate::parallel::scheme_partition;
use crate::suite::Show::{Json, Table};
use crate::suite::{Report, Row};

/// Configuration of one batched-I/O sweep.
#[derive(Debug, Clone)]
pub struct BatchSweep {
    /// Window size `W` in days (the acceptance bound is stated at
    /// `W = 30`).
    pub window: u32,
    /// Constituent count `n` handed to every scheme.
    pub fan: usize,
    /// Schemes whose day-partitioning is swept.
    pub schemes: Vec<SchemeKind>,
    /// Articles generated per day.
    pub articles_per_day: usize,
    /// Words indexed per article.
    pub words_per_article: usize,
    /// Vocabulary size behind the Zipfian text model.
    pub vocab: usize,
    /// Values per probe batch.
    pub batch_values: usize,
    /// Workload + query seed (the whole sweep is deterministic).
    pub seed: u64,
    /// Minimum bulk-build speedup the REINDEX row must reach.
    pub min_build_speedup: f64,
}

impl BatchSweep {
    /// The full sweep: all six schemes at the paper's monthly window
    /// (`W = 30`), where the acceptance bound — bulk-build REINDEX at
    /// least twice as fast as entry-at-a-time — is asserted.
    pub fn full() -> Self {
        BatchSweep {
            window: 30,
            fan: 8,
            schemes: SchemeKind::ALL.to_vec(),
            articles_per_day: 200,
            words_per_article: 8,
            vocab: 150,
            batch_values: 32,
            seed: 0xBA7C4,
            min_build_speedup: 2.0,
        }
    }

    /// A CI-sized smoke sweep: two schemes, a small window, a handful
    /// of probes. Exercises every code path in well under a second.
    pub fn smoke() -> Self {
        BatchSweep {
            window: 8,
            fan: 4,
            schemes: vec![SchemeKind::Reindex, SchemeKind::WataStar],
            articles_per_day: 60,
            words_per_article: 6,
            vocab: 120,
            batch_values: 8,
            seed: 0x5EED5,
            min_build_speedup: 1.2,
        }
    }
}

/// One row of the sweep: both comparisons for one scheme's partition.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Scheme name, paper spelling.
    pub scheme: &'static str,
    /// Entries indexed across all constituents.
    pub entries: u64,
    /// Simulated seconds to build every slot with the bulk path.
    pub build_bulk_seconds: f64,
    /// Simulated seconds to build the same slots one day at a time.
    pub build_incremental_seconds: f64,
    /// Values in the probe batch.
    pub batch_values: usize,
    /// Entries the batch returned (identical on both sides by
    /// assertion).
    pub batch_entries: u64,
    /// Simulated seconds for the per-value probe replay.
    pub query_solo_seconds: f64,
    /// Simulated seconds for the one batched query.
    pub query_batch_seconds: f64,
    /// Scheduler requests merged away during the batched query.
    pub requests_merged: u64,
    /// Seeks the elevator order saved during the batched query.
    pub seeks_saved: u64,
    /// Pages the bulk build wrote through the write buffer.
    pub bulk_pages: u64,
}

impl BatchResult {
    /// Entry-at-a-time over bulk build time.
    pub fn build_speedup(&self) -> f64 {
        if self.build_bulk_seconds > 0.0 {
            self.build_incremental_seconds / self.build_bulk_seconds
        } else {
            1.0
        }
    }

    /// Per-value over batched probe time.
    pub fn query_speedup(&self) -> f64 {
        if self.query_batch_seconds > 0.0 {
            self.query_solo_seconds / self.query_batch_seconds
        } else {
            1.0
        }
    }
}

/// Builds every slot of `partition` with the packed bulk path onto a
/// fresh volume, returning the wave, the volume, and the build's
/// simulated seconds.
fn build_bulk(partition: &[Vec<DayBatch>]) -> (WaveIndex, Volume, f64) {
    let mut vol = Volume::default();
    let before = vol.stats();
    let mut wave = WaveIndex::with_slots(partition.len());
    for (j, batches) in partition.iter().enumerate() {
        let refs: Vec<&DayBatch> = batches.iter().collect();
        let idx = ConstituentIndex::build_packed(
            format!("slot{j}.e0"),
            IndexConfig::default(),
            &mut vol,
            &refs,
        )
        .expect("bulk build succeeds");
        wave.install(j, idx);
    }
    let seconds = vol.stats().since(&before).sim_seconds;
    (wave, vol, seconds)
}

/// Builds the same slots one day-batch at a time into empty indexes —
/// the entry-at-a-time REINDEX baseline — and returns its simulated
/// seconds and entry count (everything is released before returning).
fn build_incremental(partition: &[Vec<DayBatch>]) -> (f64, u64) {
    let mut vol = Volume::default();
    let before = vol.stats();
    let mut entries = 0u64;
    let mut wave = WaveIndex::with_slots(partition.len());
    for (j, batches) in partition.iter().enumerate() {
        let mut idx = ConstituentIndex::new_empty(format!("slot{j}.e0"), IndexConfig::default());
        for batch in batches {
            idx.add_batches_in_place(&mut vol, &[batch])
                .expect("incremental build succeeds");
        }
        entries += idx.entry_count();
        wave.install(j, idx);
    }
    let seconds = vol.stats().since(&before).sim_seconds;
    wave.release_all(&mut vol)
        .expect("incremental wave releases cleanly");
    assert_eq!(vol.live_blocks(), 0, "incremental build leaked blocks");
    (seconds, entries)
}

/// A seeded Zipfian value batch (duplicates are possible and welcome:
/// the scheduler deduplicates their reads).
fn batch_values(sweep: &BatchSweep) -> Vec<SearchValue> {
    let mut rng = SplitMix64::new(sweep.seed ^ 0xBA7C4);
    let articles = ArticleGenerator::new(
        sweep.vocab,
        sweep.articles_per_day,
        sweep.words_per_article,
        sweep.seed,
    );
    (0..sweep.batch_values)
        .map(|_| articles.query_word(&mut rng))
        .collect()
}

/// Runs the full sweep. Panics if the batched answers differ from the
/// per-value answers anywhere — byte-identical results are an
/// acceptance criterion, not a statistic.
pub fn run_sweep(sweep: &BatchSweep) -> Vec<BatchResult> {
    let mut results = Vec::new();
    let values = batch_values(sweep);
    for &kind in &sweep.schemes {
        let partition = scheme_partition(
            kind,
            sweep.window,
            sweep.fan,
            sweep.articles_per_day,
            sweep.words_per_article,
            sweep.vocab,
            sweep.seed,
        );
        // Build comparison: the same partition, bulk vs incremental.
        let (inc_seconds, inc_entries) = build_incremental(&partition);
        // Twin bulk builds so the per-value and batched probe replays
        // start from identical head positions and cache states.
        let (wave_solo, mut vol_solo, bulk_seconds) = build_bulk(&partition);
        let (wave_batch, mut vol_batch, bulk_twin) = build_bulk(&partition);
        assert_eq!(
            bulk_seconds,
            bulk_twin,
            "{}: bulk build is deterministic",
            kind.name()
        );
        let entries: u64 = wave_solo.iter().map(|(_, idx)| idx.entry_count()).sum();
        assert_eq!(
            entries,
            inc_entries,
            "{}: both build paths index the same entries",
            kind.name()
        );
        let bulk_pages = vol_batch.obs().counter("sched.bulk_pages").get();

        // Query comparison: per-value replay vs one batched query.
        let solo_before = vol_solo.stats();
        let mut solo_answers: Vec<(Vec<Entry>, usize)> = Vec::with_capacity(values.len());
        for value in &values {
            let q = wave_solo
                .timed_index_probe(&mut vol_solo, value, TimeRange::all())
                .expect("per-value probe succeeds");
            solo_answers.push((q.entries, q.indexes_accessed));
        }
        let solo_seconds = vol_solo.stats().since(&solo_before).sim_seconds;

        let merged_before = vol_batch.obs().counter("sched.merged").get();
        let saved_before = vol_batch.obs().counter("sched.seeks_saved").get();
        let batch_before = vol_batch.stats();
        let batched = wave_batch
            .query_batch(&mut vol_batch, &values, TimeRange::all())
            .expect("batched probe succeeds");
        let batch_seconds = vol_batch.stats().since(&batch_before).sim_seconds;
        let requests_merged = vol_batch.obs().counter("sched.merged").get() - merged_before;
        let seeks_saved = vol_batch.obs().counter("sched.seeks_saved").get() - saved_before;

        assert_eq!(batched.len(), solo_answers.len());
        let mut batch_entries = 0u64;
        for (vi, (got, (want, want_accessed))) in batched.iter().zip(&solo_answers).enumerate() {
            assert_eq!(
                &got.entries,
                want,
                "{} value {vi}: batched answer diverged from per-value probe",
                kind.name()
            );
            assert_eq!(got.indexes_accessed, *want_accessed);
            batch_entries += got.entries.len() as u64;
        }

        release(wave_solo, vol_solo);
        release(wave_batch, vol_batch);
        results.push(BatchResult {
            scheme: kind.name(),
            entries,
            build_bulk_seconds: bulk_seconds,
            build_incremental_seconds: inc_seconds,
            batch_values: values.len(),
            batch_entries,
            query_solo_seconds: solo_seconds,
            query_batch_seconds: batch_seconds,
            requests_merged,
            seeks_saved,
            bulk_pages,
        });
    }
    results
}

fn release(mut wave: WaveIndex, mut vol: Volume) {
    wave.release_all(&mut vol).expect("wave releases cleanly");
    assert_eq!(vol.live_blocks(), 0, "sweep leaked blocks");
}

/// Verifies the acceptance bounds: the batched probe is never slower
/// than the per-value replay (any scheme), and the REINDEX bulk build
/// reaches the sweep's minimum speedup over entry-at-a-time. Returns
/// the offending rows.
pub fn check(results: &[BatchResult], min_build_speedup: f64) -> Vec<String> {
    let mut bad = Vec::new();
    for r in results {
        if r.query_batch_seconds > r.query_solo_seconds + 1e-9 {
            bad.push(format!(
                "{}: batched probe slower than per-value ({:.6}s > {:.6}s)",
                r.scheme, r.query_batch_seconds, r.query_solo_seconds
            ));
        }
        if r.scheme == SchemeKind::Reindex.name() && r.build_speedup() < min_build_speedup {
            bad.push(format!(
                "{}: bulk build only {:.2}x faster than entry-at-a-time (need {:.1}x)",
                r.scheme,
                r.build_speedup(),
                min_build_speedup
            ));
        }
    }
    bad
}

/// Runs the smoke or full sweep and reports it: the sweep parameters,
/// one row per scheme, and the [`check`] verdict (`BENCH_batch.json`,
/// columns documented in EXPERIMENTS.md).
pub fn report(smoke: bool) -> Report {
    let sweep = if smoke {
        BatchSweep::smoke()
    } else {
        BatchSweep::full()
    };
    let results = run_sweep(&sweep);
    let head = Row::new()
        .str(Json, "schema", "wave-bench/batch/v1")
        .u64(Json, "window", sweep.window as u64)
        .u64(Json, "fan", sweep.fan as u64)
        .u64(Json, "articles_per_day", sweep.articles_per_day as u64)
        .u64(Json, "words_per_article", sweep.words_per_article as u64)
        .u64(Json, "vocab", sweep.vocab as u64)
        .u64(Json, "batch_values", sweep.batch_values as u64)
        .u64(Json, "seed", sweep.seed)
        .f64(Json, "min_build_speedup", sweep.min_build_speedup);
    let case = |r: &BatchResult| {
        Row::new()
            .str(Table, "scheme", r.scheme)
            .u64(Json, "entries", r.entries)
            .f64(Json, "build_bulk_seconds", r.build_bulk_seconds)
            .f64(
                Json,
                "build_incremental_seconds",
                r.build_incremental_seconds,
            )
            .f64(Table, "build_speedup", r.build_speedup())
            .u64(Json, "batch_values", r.batch_values as u64)
            .u64(Json, "batch_entries", r.batch_entries)
            .f64(Json, "query_solo_seconds", r.query_solo_seconds)
            .f64(Json, "query_batch_seconds", r.query_batch_seconds)
            .f64(Table, "query_speedup", r.query_speedup())
            .u64(Table, "requests_merged", r.requests_merged)
            .u64(Table, "seeks_saved", r.seeks_saved)
            .u64(Table, "bulk_pages", r.bulk_pages)
    };
    Report {
        head,
        cases: Some(results.iter().map(case).collect()),
        violations: check(&results, sweep.min_build_speedup),
        pass: format!(
            "batched probes never slower; REINDEX bulk build ≥ {:.1}x entry-at-a-time",
            sweep.min_build_speedup
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_meets_the_batching_bounds() {
        let sweep = BatchSweep::smoke();
        let results = run_sweep(&sweep);
        assert_eq!(results.len(), sweep.schemes.len());
        assert_eq!(
            check(&results, sweep.min_build_speedup),
            Vec::<String>::new()
        );
        for r in &results {
            assert!(r.entries > 0, "{r:?}");
            assert!(r.build_bulk_seconds > 0.0, "{r:?}");
            // The elevator pass merges at least some adjacent bucket
            // reads on a packed layout.
            assert!(r.requests_merged > 0, "{r:?}");
            assert!(r.bulk_pages > 0, "{r:?}");
        }
    }

    #[test]
    fn check_flags_regressions() {
        let good = BatchResult {
            scheme: "REINDEX",
            entries: 100,
            build_bulk_seconds: 1.0,
            build_incremental_seconds: 4.0,
            batch_values: 8,
            batch_entries: 50,
            query_solo_seconds: 2.0,
            query_batch_seconds: 1.0,
            requests_merged: 3,
            seeks_saved: 2,
            bulk_pages: 10,
        };
        assert!(check(std::slice::from_ref(&good), 2.0).is_empty());

        let mut slow_query = good.clone();
        slow_query.query_batch_seconds = 3.0;
        let mut slow_build = good.clone();
        slow_build.build_incremental_seconds = 1.5;
        let err = check(&[slow_query, slow_build], 2.0);
        assert_eq!(err.len(), 2, "{err:?}");
        assert!(err[0].contains("slower than per-value"), "{}", err[0]);
        assert!(err[1].contains("bulk build"), "{}", err[1]);
    }
}
