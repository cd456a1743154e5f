//! Probe-pruning sweep: seeks-per-query with membership filters and
//! covering buckets on versus the unfiltered baseline.
//!
//! For each scheme the sweep partitions a seeded article workload
//! with the scheme's own `Start` (exactly as [`crate::parallel`] and
//! [`crate::batch`] do), builds the resulting constituents twice —
//! once with the probe-pruning layer configured (membership filter +
//! covering entries for the hottest values), once with
//! [`FilterConfig::disabled`] — and replays the same Zipf-skewed
//! probe mix against both waves:
//!
//! * **hot probes** follow the vocabulary's Zipf distribution, so the
//!   covering set answers the most popular values from memory and
//!   skips the bucket seek entirely;
//! * **ghost probes** ask for values that were never indexed — the
//!   case the membership filter prunes before any directory walk.
//!
//! Byte-identical answers (same entries, same order, same
//! `indexes_accessed`) are asserted inside the sweep for every probe
//! on both the per-value and the batched path; the "filtered is
//! measurably cheaper in seeks, and the filter's false-positive rate
//! stays bounded" acceptance criteria live in [`check`]. `wavectl
//! bench filter` drives this and writes the results as
//! `BENCH_filter.json` (schema `wave-bench/filter/v1`, documented in
//! EXPERIMENTS.md).

use wave_index::prelude::*;
use wave_index::schemes::SchemeKind;
use wave_index::ConstituentIndex;
use wave_obs::SplitMix64;
use wave_workloads::{ArticleGenerator, Zipf};

use crate::parallel::scheme_partition;
use crate::suite::Show::{Json, Table};
use crate::suite::{Report, Row};

/// Configuration of one probe-pruning sweep.
#[derive(Debug, Clone)]
pub struct FilterSweep {
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
    /// Probes replayed against both waves.
    pub probes: usize,
    /// Zipf exponent of the hot-probe rank distribution.
    pub zipf_s: f64,
    /// Ghost (never-indexed value) probes per 100 probes.
    pub ghost_percent: u64,
    /// Covering entries per constituent on the filtered side.
    pub covering_hot: usize,
    /// Filter bits budgeted per indexed value.
    pub bits_per_value: u32,
    /// Workload + probe seed (the whole sweep is deterministic).
    pub seed: u64,
    /// Minimum fractional seeks-per-query reduction every scheme row
    /// must reach (0.15 = filtered does at least 15% fewer seeks).
    pub min_seek_reduction: f64,
    /// Maximum tolerated false-positive rate among ghost consults.
    pub max_fp_rate: f64,
}

impl FilterSweep {
    /// The full sweep: all six schemes at the paper's monthly window
    /// (`W = 30`), where the acceptance bound — a measurable
    /// seeks-per-query drop on the Zipf mix — is asserted.
    pub fn full() -> Self {
        FilterSweep {
            window: 30,
            fan: 8,
            schemes: SchemeKind::ALL.to_vec(),
            articles_per_day: 200,
            words_per_article: 8,
            vocab: 150,
            probes: 600,
            zipf_s: 1.0,
            ghost_percent: 25,
            covering_hot: 8,
            bits_per_value: 12,
            seed: 0xF117_BE4C,
            min_seek_reduction: 0.15,
            max_fp_rate: 0.10,
        }
    }

    /// A CI-sized smoke sweep: two schemes, a small window, a handful
    /// of probes. Exercises every code path in well under a second.
    pub fn smoke() -> Self {
        FilterSweep {
            window: 8,
            fan: 4,
            schemes: vec![SchemeKind::Reindex, SchemeKind::WataStar],
            articles_per_day: 60,
            words_per_article: 6,
            vocab: 120,
            probes: 120,
            zipf_s: 1.0,
            ghost_percent: 25,
            covering_hot: 6,
            bits_per_value: 12,
            seed: 0xF117_5EED,
            min_seek_reduction: 0.05,
            max_fp_rate: 0.20,
        }
    }

    /// Index configuration of the filtered side.
    fn filtered_cfg(&self) -> IndexConfig {
        IndexConfig {
            filter: FilterConfig {
                enabled: true,
                bits_per_value: self.bits_per_value,
                covering_hot: self.covering_hot,
                ..FilterConfig::default()
            },
            ..IndexConfig::default()
        }
    }
}

/// One row of the sweep: the filtered/unfiltered replay for one
/// scheme's partition.
#[derive(Debug, Clone)]
pub struct FilterResult {
    /// Scheme name, paper spelling.
    pub scheme: &'static str,
    /// Entries indexed across all constituents.
    pub entries: u64,
    /// Probes replayed (hot + ghost).
    pub probes: usize,
    /// Ghost probes within the mix.
    pub ghost_probes: usize,
    /// Device seeks the unfiltered replay cost.
    pub seeks_unfiltered: u64,
    /// Device seeks the filtered replay cost.
    pub seeks_filtered: u64,
    /// Simulated seconds of the unfiltered replay.
    pub unfiltered_seconds: f64,
    /// Simulated seconds of the filtered replay.
    pub filtered_seconds: f64,
    /// `filter.checks` the filtered replay recorded.
    pub filter_checks: u64,
    /// `filter.skips` the filtered replay recorded.
    pub filter_skips: u64,
    /// `filter.false_positives` the filtered replay recorded.
    pub filter_false_positives: u64,
    /// `filter.covering_hits` the filtered replay recorded.
    pub covering_hits: u64,
}

impl FilterResult {
    /// Seeks per query on the unfiltered side.
    pub fn seeks_per_query_unfiltered(&self) -> f64 {
        self.seeks_unfiltered as f64 / self.probes.max(1) as f64
    }

    /// Seeks per query on the filtered side.
    pub fn seeks_per_query_filtered(&self) -> f64 {
        self.seeks_filtered as f64 / self.probes.max(1) as f64
    }

    /// Fraction of the unfiltered seeks the pruning layer saved.
    pub fn seek_reduction(&self) -> f64 {
        if self.seeks_unfiltered == 0 {
            0.0
        } else {
            1.0 - self.seeks_filtered as f64 / self.seeks_unfiltered as f64
        }
    }

    /// False positives over ghost consults (a ghost consult either
    /// skips or false-positives; present values do neither).
    pub fn fp_rate(&self) -> f64 {
        let ghosts = self.filter_skips + self.filter_false_positives;
        if ghosts == 0 {
            0.0
        } else {
            self.filter_false_positives as f64 / ghosts as f64
        }
    }
}

/// The seeded Zipf probe mix: `probes` values, `ghost_percent` of
/// them never-indexed ghosts, the rest vocabulary words drawn by
/// Zipf rank. Deterministic per seed — the filtered and unfiltered
/// replays (and any rerun) see the identical sequence.
pub fn probe_mix(sweep: &FilterSweep) -> Vec<SearchValue> {
    let mut rng = SplitMix64::new(sweep.seed ^ 0x21BF);
    let zipf = Zipf::new(sweep.vocab, sweep.zipf_s);
    (0..sweep.probes)
        .map(|_| {
            if rng.next_u64() % 100 < sweep.ghost_percent {
                // Ranks beyond the vocabulary are never generated by
                // the article model, so these words are guaranteed
                // absent from every constituent.
                let ghost = sweep.vocab + 1 + (rng.next_u64() as usize % sweep.vocab);
                ArticleGenerator::word(ghost)
            } else {
                ArticleGenerator::word(zipf.sample(&mut rng))
            }
        })
        .collect()
}

/// Builds every slot of `partition` onto a fresh volume with `cfg`.
fn build_wave(partition: &[Vec<DayBatch>], cfg: IndexConfig) -> (WaveIndex, Volume) {
    let mut vol = Volume::default();
    let mut wave = WaveIndex::with_slots(partition.len());
    for (j, batches) in partition.iter().enumerate() {
        let refs: Vec<&DayBatch> = batches.iter().collect();
        let idx = ConstituentIndex::build_packed(format!("slot{j}.e0"), cfg, &mut vol, &refs)
            .expect("bulk build succeeds");
        wave.install(j, idx);
    }
    (wave, vol)
}

/// Runs the sweep. Panics if the filtered answers differ from the
/// unfiltered answers anywhere — byte-identical results are an
/// acceptance criterion, not a statistic.
pub fn run_sweep(sweep: &FilterSweep) -> Vec<FilterResult> {
    let mut results = Vec::new();
    let values = probe_mix(sweep);
    let ghost_probes = {
        // Count by re-deriving: ghosts are exactly the words whose
        // rank exceeds the vocabulary (encoded in the word id).
        let vocab_max = ArticleGenerator::word(sweep.vocab);
        values.iter().filter(|v| **v > vocab_max).count()
    };
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
        let (wave_off, mut vol_off) = build_wave(
            &partition,
            IndexConfig {
                filter: FilterConfig::disabled(),
                ..IndexConfig::default()
            },
        );
        let (wave_on, mut vol_on) = build_wave(&partition, sweep.filtered_cfg());
        let entries: u64 = wave_on.iter().map(|(_, idx)| idx.entry_count()).sum();

        let checks0 = vol_on.obs().counter("filter.checks").get();
        let skips0 = vol_on.obs().counter("filter.skips").get();
        let fp0 = vol_on.obs().counter("filter.false_positives").get();
        let cov0 = vol_on.obs().counter("filter.covering_hits").get();
        let off_before = vol_off.stats();
        let on_before = vol_on.stats();
        for (vi, value) in values.iter().enumerate() {
            let a = wave_on
                .timed_index_probe(&mut vol_on, value, TimeRange::all())
                .expect("filtered probe succeeds");
            let b = wave_off
                .timed_index_probe(&mut vol_off, value, TimeRange::all())
                .expect("unfiltered probe succeeds");
            assert_eq!(
                a.entries,
                b.entries,
                "{} probe {vi}: filtered answer diverged",
                kind.name()
            );
            assert_eq!(
                a.indexes_accessed,
                b.indexes_accessed,
                "{} probe {vi}: filtered access count diverged",
                kind.name()
            );
        }
        let off_stats = vol_off.stats().since(&off_before);
        let on_stats = vol_on.stats().since(&on_before);

        // The batched path must agree too (it shares the pruning
        // decision but schedules I/O differently).
        let batched_on = wave_on
            .query_batch(&mut vol_on, &values, TimeRange::all())
            .expect("filtered batch succeeds");
        let batched_off = wave_off
            .query_batch(&mut vol_off, &values, TimeRange::all())
            .expect("unfiltered batch succeeds");
        for (vi, (a, b)) in batched_on.iter().zip(&batched_off).enumerate() {
            assert_eq!(
                a.entries,
                b.entries,
                "{} batch value {vi}: filtered answer diverged",
                kind.name()
            );
            assert_eq!(a.indexes_accessed, b.indexes_accessed);
        }

        let result = FilterResult {
            scheme: kind.name(),
            entries,
            probes: values.len(),
            ghost_probes,
            seeks_unfiltered: off_stats.seeks,
            seeks_filtered: on_stats.seeks,
            unfiltered_seconds: off_stats.sim_seconds,
            filtered_seconds: on_stats.sim_seconds,
            filter_checks: vol_on.obs().counter("filter.checks").get() - checks0,
            filter_skips: vol_on.obs().counter("filter.skips").get() - skips0,
            filter_false_positives: vol_on.obs().counter("filter.false_positives").get() - fp0,
            covering_hits: vol_on.obs().counter("filter.covering_hits").get() - cov0,
        };
        release(wave_on, vol_on);
        release(wave_off, vol_off);
        results.push(result);
    }
    results
}

fn release(mut wave: WaveIndex, mut vol: Volume) {
    wave.release_all(&mut vol).expect("wave releases cleanly");
    assert_eq!(vol.live_blocks(), 0, "sweep leaked blocks");
}

/// Verifies the acceptance bounds: every scheme row must reach the
/// sweep's minimum seeks-per-query reduction, the filter must have
/// actually pruned (non-zero skips on a ghost-bearing mix), and the
/// false-positive rate among ghost consults must stay within bound.
/// Returns the offending rows.
pub fn check(results: &[FilterResult], sweep: &FilterSweep) -> Vec<String> {
    let mut bad = Vec::new();
    for r in results {
        if r.seek_reduction() < sweep.min_seek_reduction {
            bad.push(format!(
                "{}: filtered seeks/query only {:.3} vs {:.3} unfiltered ({:.1}% saved, need {:.1}%)",
                r.scheme,
                r.seeks_per_query_filtered(),
                r.seeks_per_query_unfiltered(),
                r.seek_reduction() * 100.0,
                sweep.min_seek_reduction * 100.0
            ));
        }
        if r.ghost_probes > 0 && r.filter_skips == 0 {
            bad.push(format!(
                "{}: ghost probes in the mix but the filter never skipped",
                r.scheme
            ));
        }
        if r.fp_rate() > sweep.max_fp_rate {
            bad.push(format!(
                "{}: filter false-positive rate {:.3} exceeds {:.3}",
                r.scheme,
                r.fp_rate(),
                sweep.max_fp_rate
            ));
        }
    }
    bad
}

/// Runs the smoke or full sweep and reports it: the sweep parameters,
/// one row per scheme, and the [`check`] verdict (`BENCH_filter.json`,
/// columns documented in EXPERIMENTS.md).
pub fn report(smoke: bool) -> Report {
    let sweep = if smoke {
        FilterSweep::smoke()
    } else {
        FilterSweep::full()
    };
    let results = run_sweep(&sweep);
    let head = Row::new()
        .str(Json, "schema", "wave-bench/filter/v1")
        .u64(Json, "window", sweep.window as u64)
        .u64(Json, "fan", sweep.fan as u64)
        .u64(Json, "articles_per_day", sweep.articles_per_day as u64)
        .u64(Json, "words_per_article", sweep.words_per_article as u64)
        .u64(Json, "vocab", sweep.vocab as u64)
        .u64(Json, "probes", sweep.probes as u64)
        .f64(Json, "zipf_s", sweep.zipf_s)
        .u64(Json, "ghost_percent", sweep.ghost_percent)
        .u64(Json, "covering_hot", sweep.covering_hot as u64)
        .u64(Json, "bits_per_value", sweep.bits_per_value as u64)
        .u64(Json, "seed", sweep.seed)
        .f64(Json, "min_seek_reduction", sweep.min_seek_reduction)
        .f64(Json, "max_fp_rate", sweep.max_fp_rate);
    let case = |r: &FilterResult| {
        Row::new()
            .str(Table, "scheme", r.scheme)
            .u64(Json, "entries", r.entries)
            .u64(Json, "probes", r.probes as u64)
            .u64(Json, "ghost_probes", r.ghost_probes as u64)
            .u64(Json, "seeks_unfiltered", r.seeks_unfiltered)
            .u64(Json, "seeks_filtered", r.seeks_filtered)
            .f64(
                Table,
                "seeks_per_query_unfiltered",
                r.seeks_per_query_unfiltered(),
            )
            .f64(
                Table,
                "seeks_per_query_filtered",
                r.seeks_per_query_filtered(),
            )
            .f64(Table, "seek_reduction", r.seek_reduction())
            .f64(Json, "unfiltered_seconds", r.unfiltered_seconds)
            .f64(Json, "filtered_seconds", r.filtered_seconds)
            .u64(Json, "filter_checks", r.filter_checks)
            .u64(Table, "filter_skips", r.filter_skips)
            .u64(Table, "filter_false_positives", r.filter_false_positives)
            .f64(Table, "fp_rate", r.fp_rate())
            .u64(Table, "covering_hits", r.covering_hits)
    };
    Report {
        head,
        cases: Some(results.iter().map(case).collect()),
        violations: check(&results, &sweep),
        pass: format!(
            "answers byte-identical; every scheme saves ≥ {:.0}% of seeks on the Zipf mix",
            sweep.min_seek_reduction * 100.0
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_mix_is_deterministic_per_seed() {
        let sweep = FilterSweep::smoke();
        assert_eq!(probe_mix(&sweep), probe_mix(&sweep));
        let mut other = sweep.clone();
        other.seed ^= 1;
        assert_ne!(probe_mix(&sweep), probe_mix(&other));
        let ghost_floor = ArticleGenerator::word(sweep.vocab);
        let ghosts = probe_mix(&sweep)
            .iter()
            .filter(|v| **v > ghost_floor)
            .count();
        assert!(ghosts > 0, "mix contains ghosts");
        assert!(ghosts < sweep.probes, "mix contains hot values");
    }

    #[test]
    fn smoke_sweep_meets_the_pruning_bounds() {
        let sweep = FilterSweep::smoke();
        let results = run_sweep(&sweep);
        assert_eq!(results.len(), sweep.schemes.len());
        assert_eq!(check(&results, &sweep), Vec::<String>::new());
        for r in &results {
            assert!(r.entries > 0, "{r:?}");
            assert!(r.filter_checks > 0, "{r:?}");
            assert!(r.covering_hits > 0, "{r:?}");
            assert!(r.seeks_filtered < r.seeks_unfiltered, "{r:?}");
        }
    }

    #[test]
    fn check_flags_regressions() {
        let sweep = FilterSweep::smoke();
        let good = FilterResult {
            scheme: "REINDEX",
            entries: 100,
            probes: 100,
            ghost_probes: 25,
            seeks_unfiltered: 400,
            seeks_filtered: 200,
            unfiltered_seconds: 2.0,
            filtered_seconds: 1.0,
            filter_checks: 800,
            filter_skips: 190,
            filter_false_positives: 10,
            covering_hits: 120,
        };
        assert!(check(std::slice::from_ref(&good), &sweep).is_empty());

        let mut no_gain = good.clone();
        no_gain.seeks_filtered = 395;
        let mut never_skipped = good.clone();
        never_skipped.filter_skips = 0;
        never_skipped.filter_false_positives = 0;
        let mut leaky = good.clone();
        leaky.filter_false_positives = 100;
        let err = check(&[no_gain, never_skipped, leaky], &sweep);
        assert_eq!(err.len(), 3, "{err:?}");
        assert!(err[0].contains("seeks/query"), "{}", err[0]);
        assert!(err[1].contains("never skipped"), "{}", err[1]);
        assert!(err[2].contains("false-positive"), "{}", err[2]);
    }
}
