//! Amortized-write-path sweep: buffered ingest against direct daily
//! application.
//!
//! For every scheme × update technique the sweep runs twin schemes
//! over one seeded article workload — one with the ingest tier off
//! (every add/delete lands on disk the day it arrives) and one with
//! it on (mutations buffer in the memtable and spill in batches when
//! the day-span threshold trips) — and measures the simulated elapsed
//! time of the daily transitions alone. Start-up (`Start`) is
//! excluded: it is identical on both sides and buffering never
//! touches it.
//!
//! Byte-identity is asserted inside the sweep, both mid-run and at
//! the end (where the buffered twin typically still holds a dirty
//! buffer): every probe of the seeded value set and the full-window
//! segment scan must return entry-for-entry identical answers on the
//! two volumes. The DEL speedup bound — daily-add elapsed dropping by
//! at least the configured multiple under buffering, on the in-place,
//! simple-shadow, and packed-shadow paths — is validated by [`check`].
//! `wavectl bench ingest` drives this and writes the results as
//! `BENCH_ingest.json` (schema documented in EXPERIMENTS.md).

use wave_index::prelude::*;
use wave_index::schemes::SchemeKind;
use wave_obs::SplitMix64;
use wave_workloads::ArticleGenerator;

use crate::suite::Show::{Json, Table};
use crate::suite::{Report, Row};

/// Configuration of one amortized-write sweep.
#[derive(Debug, Clone)]
pub struct IngestSweep {
    /// Window size `W` in days (the acceptance bound is stated at
    /// `W = 30`).
    pub window: u32,
    /// Constituent count handed to every scheme (raised to the
    /// scheme's minimum fan where needed).
    pub fan: usize,
    /// Transition days measured past the start-up window.
    pub days: u32,
    /// Schemes swept (each under every update technique).
    pub schemes: Vec<SchemeKind>,
    /// Articles generated per day.
    pub articles_per_day: usize,
    /// Words indexed per article.
    pub words_per_article: usize,
    /// Vocabulary size behind the Zipfian text model.
    pub vocab: usize,
    /// Spill when the buffer holds this many pending entries.
    pub spill_entries: usize,
    /// Spill when the buffer spans this many day boundaries — the
    /// trigger that sets the amortization cadence at bench scale.
    pub spill_days: u32,
    /// Values probed for the byte-identity checks.
    pub probe_values: usize,
    /// Workload + probe seed (the whole sweep is deterministic).
    pub seed: u64,
    /// Minimum daily-transition speedup the DEL rows must reach.
    pub min_del_speedup: f64,
}

impl IngestSweep {
    /// The full sweep: all six schemes × all three techniques at the
    /// paper's monthly window (`W = 30`), where the acceptance bound —
    /// buffered DEL transitions at least twice as fast as unbuffered —
    /// is asserted.
    pub fn full() -> Self {
        IngestSweep {
            window: 30,
            fan: 4,
            days: 12,
            schemes: SchemeKind::ALL.to_vec(),
            articles_per_day: 100,
            words_per_article: 6,
            vocab: 120,
            spill_entries: 100_000,
            spill_days: 4,
            probe_values: 24,
            seed: 0x1265_7BE7,
            min_del_speedup: 2.0,
        }
    }

    /// A CI-sized smoke sweep: two schemes, a small window. Exercises
    /// dirty-buffer reads, spills, and both twins in under a second.
    pub fn smoke() -> Self {
        IngestSweep {
            window: 8,
            fan: 3,
            days: 5,
            schemes: vec![SchemeKind::Del, SchemeKind::WataStar],
            articles_per_day: 40,
            words_per_article: 5,
            vocab: 80,
            spill_entries: 100_000,
            spill_days: 3,
            probe_values: 10,
            seed: 0x5EED_1265,
            min_del_speedup: 1.2,
        }
    }

    fn techniques(&self) -> [UpdateTechnique; 3] {
        [
            UpdateTechnique::InPlace,
            UpdateTechnique::SimpleShadow,
            UpdateTechnique::PackedShadow,
        ]
    }
}

/// One row of the sweep: the twin comparison for one scheme ×
/// technique.
#[derive(Debug, Clone)]
pub struct IngestResult {
    /// Scheme name, paper spelling.
    pub scheme: &'static str,
    /// Update technique name.
    pub technique: &'static str,
    /// Entries the final wave holds (identical on both sides by
    /// assertion).
    pub entries: u64,
    /// Simulated seconds the unbuffered twin spent in daily
    /// transitions.
    pub unbuffered_seconds: f64,
    /// Simulated seconds the buffered twin spent in the same
    /// transitions, spills included.
    pub buffered_seconds: f64,
    /// Spills the buffered twin performed.
    pub spills: u64,
    /// Entries those spills drained in batches.
    pub spilled_entries: u64,
    /// Adds that landed in the memtable instead of on disk.
    pub buffered_adds: u64,
    /// Entries still pending in dirty buffers when the sweep ended —
    /// deferred work the amortization legitimately pushed past the
    /// horizon.
    pub pending_at_end: u64,
    /// Entries the byte-identity probes returned (identical on both
    /// sides by assertion).
    pub probe_entries: u64,
}

impl IngestResult {
    /// Unbuffered over buffered daily-transition time.
    pub fn speedup(&self) -> f64 {
        if self.buffered_seconds > 0.0 {
            self.unbuffered_seconds / self.buffered_seconds
        } else {
            1.0
        }
    }
}

/// One twin of the sweep and the counters its obs handle accumulates.
struct Twin {
    scheme: Box<dyn WaveScheme>,
    vol: Volume,
    transition_seconds: f64,
}

impl Twin {
    fn new(
        kind: SchemeKind,
        tech: UpdateTechnique,
        fan: usize,
        sweep: &IngestSweep,
        buffered: bool,
    ) -> Twin {
        let index = IndexConfig {
            ingest: IngestConfig {
                enabled: buffered,
                max_entries: sweep.spill_entries,
                max_days: sweep.spill_days,
            },
            ..Default::default()
        };
        let cfg = SchemeConfig::new(sweep.window, fan)
            .with_technique(tech)
            .with_index(index);
        Twin {
            scheme: kind.build(cfg).expect("scheme config validated"),
            vol: Volume::default(),
            transition_seconds: 0.0,
        }
    }

    fn transition(&mut self, archive: &DayArchive, day: Day) {
        let before = self.vol.stats();
        self.scheme
            .transition(&mut self.vol, archive, day)
            .expect("transition succeeds");
        self.transition_seconds += self.vol.stats().since(&before).sim_seconds;
    }
}

/// Asserts entry-for-entry identical answers on both twins and
/// returns the probed entry count.
fn assert_identical(a: &mut Twin, b: &mut Twin, values: &[SearchValue], ctx: &str) -> u64 {
    let mut probed = 0u64;
    for value in values {
        let pa = a
            .scheme
            .wave()
            .index_probe(&mut a.vol, value)
            .expect("probe succeeds");
        let pb = b
            .scheme
            .wave()
            .index_probe(&mut b.vol, value)
            .expect("probe succeeds");
        assert_eq!(
            pa.entries, pb.entries,
            "{ctx}: buffered probe for {value} diverged from unbuffered"
        );
        probed += pa.entries.len() as u64;
    }
    let sa = a
        .scheme
        .wave()
        .segment_scan(&mut a.vol)
        .expect("scan succeeds");
    let sb = b
        .scheme
        .wave()
        .segment_scan(&mut b.vol)
        .expect("scan succeeds");
    assert_eq!(
        sa.entries, sb.entries,
        "{ctx}: buffered segment scan diverged from unbuffered"
    );
    probed
}

/// Runs the full sweep. Panics if the buffered twin's answers differ
/// from the unbuffered twin's anywhere — byte-identical results are
/// an acceptance criterion, not a statistic.
pub fn run_sweep(sweep: &IngestSweep) -> Vec<IngestResult> {
    let mut results = Vec::new();
    let mut rng = SplitMix64::new(sweep.seed ^ 0x9E37_79B9);
    let generator = ArticleGenerator::new(
        sweep.vocab,
        sweep.articles_per_day,
        sweep.words_per_article,
        sweep.seed,
    );
    let values: Vec<SearchValue> = (0..sweep.probe_values)
        .map(|_| generator.query_word(&mut rng))
        .collect();
    // One archive for everything: the workload is shared, only the
    // ingest tier differs between twins.
    let mut articles = ArticleGenerator::new(
        sweep.vocab,
        sweep.articles_per_day,
        sweep.words_per_article,
        sweep.seed,
    );
    let mut archive = DayArchive::new();
    let last_day = sweep.window + sweep.days;
    for d in 1..=last_day {
        archive.insert(articles.day_batch(Day(d)));
    }

    for &kind in &sweep.schemes {
        let fan = kind.min_fan().max(sweep.fan).min(sweep.window as usize);
        for tech in sweep.techniques() {
            let ctx = format!("{} {}", kind.name(), tech.name());
            let mut plain = Twin::new(kind, tech, fan, sweep, false);
            let mut buffered = Twin::new(kind, tech, fan, sweep, true);
            plain
                .scheme
                .start(&mut plain.vol, &archive)
                .expect("start succeeds");
            buffered
                .scheme
                .start(&mut buffered.vol, &archive)
                .expect("start succeeds");
            let midpoint = sweep.window + sweep.days / 2;
            for d in (sweep.window + 1)..=last_day {
                plain.transition(&archive, Day(d));
                buffered.transition(&archive, Day(d));
                // One mid-run identity check (buffers typically
                // dirty) besides the final one, without letting query
                // I/O dominate the sweep.
                if d == midpoint {
                    assert_identical(&mut plain, &mut buffered, &values, &ctx);
                }
            }
            let probe_entries = assert_identical(&mut plain, &mut buffered, &values, &ctx);

            let entries = plain.scheme.wave().entry_count();
            assert_eq!(
                entries,
                buffered.scheme.wave().entry_count(),
                "{ctx}: logical entry counts diverged"
            );
            let pending_at_end: u64 = buffered
                .scheme
                .wave()
                .iter()
                .map(|(_, idx)| idx.ingest().pending_entries())
                .sum();
            let obs = buffered.vol.obs().clone();
            results.push(IngestResult {
                scheme: kind.name(),
                technique: tech.name(),
                entries,
                unbuffered_seconds: plain.transition_seconds,
                buffered_seconds: buffered.transition_seconds,
                spills: obs.counter("ingest.spills").get(),
                spilled_entries: obs.counter("ingest.spilled_entries").get(),
                buffered_adds: obs.counter("ingest.buffered_adds").get(),
                pending_at_end,
                probe_entries,
            });
            release(plain, &ctx);
            release(buffered, &ctx);
        }
    }
    results
}

fn release(mut twin: Twin, ctx: &str) {
    twin.scheme
        .release(&mut twin.vol)
        .expect("scheme releases cleanly");
    assert_eq!(twin.vol.live_blocks(), 0, "{ctx}: sweep leaked blocks");
}

/// Verifies the acceptance bounds: every DEL row's daily transitions
/// reach the sweep's minimum speedup under buffering (DEL applies the
/// add/delete path every day, so it isolates the amortized write
/// path), and no row regresses below parity beyond timing noise.
/// Returns the offending rows.
pub fn check(results: &[IngestResult], min_del_speedup: f64) -> Vec<String> {
    let mut bad = Vec::new();
    for r in results {
        if r.scheme == SchemeKind::Del.name() && r.speedup() < min_del_speedup {
            bad.push(format!(
                "{} {}: buffering only {:.2}x faster than direct application (need {:.1}x)",
                r.scheme,
                r.technique,
                r.speedup(),
                min_del_speedup
            ));
        }
        if r.speedup() < 0.9 {
            bad.push(format!(
                "{} {}: buffering regressed daily transitions ({:.2}x)",
                r.scheme,
                r.technique,
                r.speedup()
            ));
        }
    }
    bad
}

/// Runs the smoke or full sweep and reports it: the sweep parameters,
/// one row per scheme × technique, and the [`check`] verdict
/// (`BENCH_ingest.json`, columns documented in EXPERIMENTS.md).
pub fn report(smoke: bool) -> Report {
    let sweep = if smoke {
        IngestSweep::smoke()
    } else {
        IngestSweep::full()
    };
    let results = run_sweep(&sweep);
    let head = Row::new()
        .str(Json, "schema", "wave-bench/ingest/v1")
        .u64(Json, "window", sweep.window as u64)
        .u64(Json, "fan", sweep.fan as u64)
        .u64(Json, "days", sweep.days as u64)
        .u64(Json, "articles_per_day", sweep.articles_per_day as u64)
        .u64(Json, "words_per_article", sweep.words_per_article as u64)
        .u64(Json, "vocab", sweep.vocab as u64)
        .u64(Json, "spill_entries", sweep.spill_entries as u64)
        .u64(Json, "spill_days", sweep.spill_days as u64)
        .u64(Json, "probe_values", sweep.probe_values as u64)
        .u64(Json, "seed", sweep.seed)
        .f64(Json, "min_del_speedup", sweep.min_del_speedup);
    let case = |r: &IngestResult| {
        Row::new()
            .str(Table, "scheme", r.scheme)
            .str(Table, "technique", r.technique)
            .u64(Json, "entries", r.entries)
            .f64(Json, "unbuffered_seconds", r.unbuffered_seconds)
            .f64(Json, "buffered_seconds", r.buffered_seconds)
            .f64(Table, "speedup", r.speedup())
            .u64(Table, "spills", r.spills)
            .u64(Json, "spilled_entries", r.spilled_entries)
            .u64(Table, "buffered_adds", r.buffered_adds)
            .u64(Table, "pending_at_end", r.pending_at_end)
            .u64(Json, "probe_entries", r.probe_entries)
    };
    Report {
        head,
        cases: Some(results.iter().map(case).collect()),
        violations: check(&results, sweep.min_del_speedup),
        pass: format!(
            "buffered never slower; DEL daily transitions ≥ {:.1}x faster under buffering",
            sweep.min_del_speedup
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_meets_the_amortization_bounds() {
        let sweep = IngestSweep::smoke();
        let results = run_sweep(&sweep);
        assert_eq!(results.len(), sweep.schemes.len() * 3);
        assert_eq!(check(&results, sweep.min_del_speedup), Vec::<String>::new());
        for r in &results {
            assert!(r.entries > 0, "{r:?}");
            assert!(r.unbuffered_seconds > 0.0, "{r:?}");
            assert!(r.buffered_adds > 0, "{}: nothing was buffered", r.scheme);
        }
        // The day-span threshold fires at this scale: at least one
        // row actually spilled, so the batched path was exercised.
        assert!(
            results.iter().any(|r| r.spills > 0),
            "no row spilled; thresholds too loose for the smoke scale"
        );
    }

    #[test]
    fn check_flags_regressions() {
        let good = IngestResult {
            scheme: "DEL",
            technique: "in-place",
            entries: 100,
            unbuffered_seconds: 4.0,
            buffered_seconds: 1.0,
            spills: 3,
            spilled_entries: 80,
            buffered_adds: 100,
            pending_at_end: 20,
            probe_entries: 40,
        };
        assert!(check(std::slice::from_ref(&good), 2.0).is_empty());

        let mut slow_del = good.clone();
        slow_del.buffered_seconds = 3.0;
        let mut regressed = good.clone();
        regressed.scheme = "REINDEX";
        regressed.buffered_seconds = 8.0;
        let err = check(&[slow_del, regressed], 2.0);
        assert_eq!(err.len(), 2, "{err:?}");
        assert!(err[0].contains("need 2.0x"), "{}", err[0]);
        assert!(err[1].contains("regressed"), "{}", err[1]);
    }
}
