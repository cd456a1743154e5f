//! Parallel throughput sweep: measured `WaveServer` speedups vs the
//! analytic [`Placement`](wave_index::parallel::Placement) model.
//!
//! For each (scheme × arm-count × query-mix) cell the sweep:
//!
//! 1. partitions a seeded article workload into constituents by
//!    running the scheme's own `Start` (so every scheme contributes
//!    its real day-partitioning),
//! 2. replays a seeded query mix against a single-volume
//!    [`WaveIndex`] oracle with per-slot
//!    timing ([`probe_detailed`]/[`scan_detailed`]) — the *analytic*
//!    side, evaluated under the slot→arm table the server will use,
//! 3. replays the identical mix against a live multi-threaded
//!    [`WaveServer`] on a `k`-arm
//!    [`DiskArray`] — the *measured* side,
//! 4. checks the answers are byte-identical and the measured speedup
//!    tracks the analytic prediction within tolerance.
//!
//! `wavectl bench parallel` drives this and writes the results as
//! `BENCH_parallel.json` (schema documented in EXPERIMENTS.md).

use wave_index::parallel::{probe_detailed, scan_detailed, ArmMap, PlacementStrategy};
use wave_index::prelude::*;
use wave_index::schemes::SchemeKind;
use wave_index::server::{ServerConfig, WaveServer};
use wave_index::{ConstituentIndex, Entry};
use wave_obs::{Obs, SplitMix64};
use wave_storage::DiskArray;
use wave_workloads::ArticleGenerator;

use crate::suite::Show::{Json, Table};
use crate::suite::{Report, Row};

/// Configuration of one parallel sweep.
#[derive(Debug, Clone)]
pub struct ParallelSweep {
    /// Window size `W` in days.
    pub window: u32,
    /// Constituent count `n` handed to every scheme.
    pub fan: usize,
    /// Arm counts to sweep (the paper's `k`).
    pub arms: Vec<usize>,
    /// Schemes whose day-partitioning is swept.
    pub schemes: Vec<SchemeKind>,
    /// Articles generated per day.
    pub articles_per_day: usize,
    /// Words indexed per article.
    pub words_per_article: usize,
    /// Vocabulary size behind the Zipfian text model.
    pub vocab: usize,
    /// Probes per mix.
    pub probes: usize,
    /// Scans per mix.
    pub scans: usize,
    /// Workload + query seed (the whole sweep is deterministic).
    pub seed: u64,
    /// Maximum allowed relative deviation of the measured speedup
    /// from the analytic prediction (uniform probe mix, `k ≥ 2`).
    pub tolerance: f64,
}

impl ParallelSweep {
    /// The full sweep: `k ∈ {1,2,4,8}` × all six schemes × three
    /// mixes. Sized to run in seconds while still giving every arm
    /// real work.
    pub fn full() -> Self {
        ParallelSweep {
            window: 16,
            fan: 8,
            arms: vec![1, 2, 4, 8],
            schemes: SchemeKind::ALL.to_vec(),
            articles_per_day: 400,
            words_per_article: 8,
            vocab: 150,
            probes: 48,
            scans: 4,
            seed: 0x57A7E,
            tolerance: 0.15,
        }
    }

    /// A CI-sized smoke sweep: two schemes, `k ∈ {1,2}`, a handful of
    /// queries. Exercises every code path in well under a second.
    pub fn smoke() -> Self {
        ParallelSweep {
            window: 8,
            fan: 4,
            arms: vec![1, 2],
            schemes: vec![SchemeKind::Reindex, SchemeKind::WataStar],
            articles_per_day: 60,
            words_per_article: 6,
            vocab: 120,
            probes: 8,
            scans: 2,
            seed: 0x5EED,
            tolerance: 0.15,
        }
    }
}

/// One cell of the sweep: a (scheme, mix, arm-count) measurement.
#[derive(Debug, Clone)]
pub struct MixResult {
    /// Scheme name, paper spelling.
    pub scheme: &'static str,
    /// Mix name: `uniform-probe`, `zipf-probe`, or `scan`.
    pub mix: &'static str,
    /// Arms `k` in the array.
    pub arms: usize,
    /// Queries replayed.
    pub queries: usize,
    /// Total entries returned (identical on both sides by assertion).
    pub entries: u64,
    /// Measured: summed per-arm busy seconds (one-disk view).
    pub measured_serial: f64,
    /// Measured: summed max-over-arms elapsed seconds.
    pub measured_elapsed: f64,
    /// Analytic: summed single-disk seconds from the oracle.
    pub analytic_serial: f64,
    /// Analytic: summed busiest-arm seconds under the same table.
    pub analytic_parallel: f64,
}

impl MixResult {
    /// Measured speedup: serial busy time over parallel elapsed.
    pub fn measured_speedup(&self) -> f64 {
        if self.measured_elapsed > 0.0 {
            self.measured_serial / self.measured_elapsed
        } else {
            1.0
        }
    }

    /// Predicted speedup from the analytic placement model.
    pub fn analytic_speedup(&self) -> f64 {
        if self.analytic_parallel > 0.0 {
            self.analytic_serial / self.analytic_parallel
        } else {
            1.0
        }
    }

    /// Relative deviation of measured from predicted speedup.
    pub fn deviation(&self) -> f64 {
        let predicted = self.analytic_speedup();
        (self.measured_speedup() - predicted).abs() / predicted
    }
}

/// The per-slot day batches a scheme's `Start` produced, densified to
/// slots `0..m` in ascending original-slot order. Shared with the
/// [batched-I/O sweep](crate::batch), which partitions the same way.
pub(crate) fn scheme_partition(
    kind: SchemeKind,
    window: u32,
    fan: usize,
    articles_per_day: usize,
    words_per_article: usize,
    vocab: usize,
    seed: u64,
) -> Vec<Vec<DayBatch>> {
    let mut articles = ArticleGenerator::new(vocab, articles_per_day, words_per_article, seed);
    let mut archive = DayArchive::new();
    for d in 1..=window {
        archive.insert(articles.day_batch(Day(d)));
    }
    let mut scratch = Volume::default();
    let mut scheme = kind
        .build(SchemeConfig::new(window, fan.max(kind.min_fan())))
        .expect("sweep scheme config is valid");
    scheme
        .start(&mut scratch, &archive)
        .expect("scheme start succeeds");
    let partition: Vec<Vec<DayBatch>> = scheme
        .wave()
        .iter()
        .map(|(_, idx)| {
            idx.days()
                .iter()
                .map(|&d| archive.get(d).expect("archived day").clone())
                .collect()
        })
        .collect();
    scheme
        .release(&mut scratch)
        .expect("scratch volume releases cleanly");
    partition
}

/// A query of either flavour, pre-generated so both sides replay the
/// exact same sequence.
enum Query {
    Probe(SearchValue),
    Scan(TimeRange),
}

fn mix_queries(mix: &'static str, sweep: &ParallelSweep) -> Vec<Query> {
    let mut rng = SplitMix64::new(sweep.seed ^ 0xF00D);
    let articles = ArticleGenerator::new(
        sweep.vocab,
        sweep.articles_per_day,
        sweep.words_per_article,
        sweep.seed,
    );
    match mix {
        // Uniformly distributed probes over the frequent third of the
        // vocabulary: these words occur in every constituent, so each
        // probe genuinely fans out across all arms (the balanced load
        // the paper's placement model is about). The tail of the
        // vocabulary is exercised by the zipf mix instead.
        "uniform-probe" => (0..sweep.probes)
            .map(|_| {
                let rank = rng.range_u64(1, (sweep.vocab / 3).max(1) as u64) as usize;
                Query::Probe(ArticleGenerator::word(rank))
            })
            .collect(),
        "zipf-probe" => (0..sweep.probes)
            .map(|_| Query::Probe(articles.query_word(&mut rng)))
            .collect(),
        "scan" => (0..sweep.scans)
            .map(|_| {
                let lo = rng.range_u64(1, sweep.window as u64) as u32;
                let hi = rng.range_u64(lo as u64, sweep.window as u64) as u32;
                Query::Scan(TimeRange::between(Day(lo), Day(hi)))
            })
            .collect(),
        other => panic!("unknown mix {other}"),
    }
}

/// Per-query timing and answer from the single-volume oracle.
struct OracleRun {
    entries: Vec<Vec<Entry>>,
    per_slot: Vec<Vec<(usize, f64)>>,
    weights: Vec<u64>,
}

fn run_oracle(partition: &[Vec<DayBatch>], queries: &[Query]) -> OracleRun {
    let mut vol = Volume::default();
    let mut wave = WaveIndex::with_slots(partition.len());
    for (j, batches) in partition.iter().enumerate() {
        let refs: Vec<&DayBatch> = batches.iter().collect();
        let idx = ConstituentIndex::build_packed(
            format!("slot{j}.e0"),
            IndexConfig::default(),
            &mut vol,
            &refs,
        )
        .expect("oracle build succeeds");
        wave.install(j, idx);
    }
    let weights = wave.iter().map(|(_, idx)| idx.entry_count()).collect();
    let mut entries = Vec::with_capacity(queries.len());
    let mut per_slot = Vec::with_capacity(queries.len());
    for q in queries {
        let detailed = match q {
            Query::Probe(v) => probe_detailed(&wave, &mut vol, v, TimeRange::all()),
            Query::Scan(r) => scan_detailed(&wave, &mut vol, *r),
        }
        .expect("oracle query succeeds");
        entries.push(detailed.entries);
        per_slot.push(detailed.per_slot);
    }
    wave.release_all(&mut vol).expect("oracle releases cleanly");
    assert_eq!(vol.live_blocks(), 0, "oracle leaked blocks");
    OracleRun {
        entries,
        per_slot,
        weights,
    }
}

/// Runs the full sweep. Panics if any server answer differs from the
/// oracle's — byte-identical results are an acceptance criterion, not
/// a statistic.
pub fn run_sweep(sweep: &ParallelSweep) -> Vec<MixResult> {
    let mut results = Vec::new();
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
        for mix in ["uniform-probe", "zipf-probe", "scan"] {
            let queries = mix_queries(mix, sweep);
            if queries.is_empty() {
                continue;
            }
            let oracle = run_oracle(&partition, &queries);
            for &k in &sweep.arms {
                results.push(run_cell(kind, mix, k, &partition, &queries, &oracle));
            }
        }
    }
    results
}

fn run_cell(
    kind: SchemeKind,
    mix: &'static str,
    k: usize,
    partition: &[Vec<DayBatch>],
    queries: &[Query],
    oracle: &OracleRun,
) -> MixResult {
    // Analytic side: the oracle's per-slot seconds under the same
    // slot→arm table the server builds (round-robin over k arms).
    let map = ArmMap::build(PlacementStrategy::RoundRobin, &oracle.weights, k);
    let mut analytic_serial = 0.0;
    let mut analytic_parallel = 0.0;
    for per_slot in &oracle.per_slot {
        let q = wave_index::parallel::DetailedQuery {
            entries: Vec::new(),
            per_slot: per_slot.clone(),
        };
        analytic_serial += q.serial_seconds();
        analytic_parallel += q.parallel_seconds_on(&map);
    }

    // Measured side: a live k-arm server replaying the same queries.
    let server = WaveServer::launch(
        DiskArray::new(DiskConfig::default(), k),
        ServerConfig::default(),
        Obs::noop(),
    )
    .expect("server launches");
    server
        .install_wave(partition.to_vec())
        .expect("server install succeeds");
    let mut measured_serial = 0.0;
    let mut measured_elapsed = 0.0;
    let mut entries = 0u64;
    for (q, want) in queries.iter().zip(&oracle.entries) {
        let got = match q {
            Query::Probe(v) => server.probe(v, TimeRange::all()),
            Query::Scan(r) => server.scan(*r),
        }
        .expect("server query succeeds");
        assert_eq!(
            &got.entries,
            want,
            "{} {mix} k={k}: server answer diverged from the oracle",
            kind.name()
        );
        measured_serial += got.serial_seconds;
        measured_elapsed += got.elapsed_seconds;
        entries += got.entries.len() as u64;
    }
    server.shutdown().expect("server shuts down cleanly");
    MixResult {
        scheme: kind.name(),
        mix,
        arms: k,
        queries: queries.len(),
        entries,
        measured_serial,
        measured_elapsed,
        analytic_serial,
        analytic_parallel,
    }
}

/// Verifies the acceptance bound: for the uniform probe mix and every
/// `k ≥ 2`, the measured speedup is within `tolerance` of the
/// analytic prediction. Returns the offending cells.
pub fn check(results: &[MixResult], tolerance: f64) -> Vec<String> {
    results
        .iter()
        .filter(|r| r.mix == "uniform-probe" && r.arms >= 2 && r.deviation() > tolerance)
        .map(|r| {
            format!(
                "{} k={}: measured {:.2}x vs predicted {:.2}x (deviation {:.1}% > {:.0}%)",
                r.scheme,
                r.arms,
                r.measured_speedup(),
                r.analytic_speedup(),
                r.deviation() * 100.0,
                tolerance * 100.0
            )
        })
        .collect()
}

/// Runs the smoke or full sweep and reports it: the sweep parameters,
/// one row per scheme × mix × arm-count cell, and the [`check`]
/// verdict (`BENCH_parallel.json`, columns documented in
/// EXPERIMENTS.md).
pub fn report(smoke: bool) -> Report {
    let sweep = if smoke {
        ParallelSweep::smoke()
    } else {
        ParallelSweep::full()
    };
    let results = run_sweep(&sweep);
    let head = Row::new()
        .str(Json, "schema", "wave-bench/parallel/v1")
        .u64(Json, "window", sweep.window as u64)
        .u64(Json, "fan", sweep.fan as u64)
        .u64(Json, "articles_per_day", sweep.articles_per_day as u64)
        .u64(Json, "words_per_article", sweep.words_per_article as u64)
        .u64(Json, "vocab", sweep.vocab as u64)
        .u64(Json, "probes", sweep.probes as u64)
        .u64(Json, "scans", sweep.scans as u64)
        .u64(Json, "seed", sweep.seed)
        .f64(Json, "tolerance", sweep.tolerance);
    let case = |r: &MixResult| {
        Row::new()
            .str(Table, "scheme", r.scheme)
            .str(Table, "mix", r.mix)
            .u64(Table, "arms", r.arms as u64)
            .u64(Json, "queries", r.queries as u64)
            .u64(Json, "entries", r.entries)
            .f64(Json, "measured_serial_seconds", r.measured_serial)
            .f64(Json, "measured_elapsed_seconds", r.measured_elapsed)
            .f64(Table, "measured_speedup", r.measured_speedup())
            .f64(Json, "analytic_serial_seconds", r.analytic_serial)
            .f64(Json, "analytic_parallel_seconds", r.analytic_parallel)
            .f64(Table, "analytic_speedup", r.analytic_speedup())
            .f64(Table, "deviation", r.deviation())
    };
    Report {
        head,
        cases: Some(results.iter().map(case).collect()),
        violations: check(&results, sweep.tolerance),
        pass: format!(
            "uniform-probe speedups within {:.0}% of the analytic predictions",
            sweep.tolerance * 100.0
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_tracks_predictions() {
        let sweep = ParallelSweep::smoke();
        let results = run_sweep(&sweep);
        // 2 schemes × 3 mixes × 2 arm counts.
        assert_eq!(results.len(), 12);
        assert_eq!(check(&results, sweep.tolerance), Vec::<String>::new());
        // k=1 always degenerates to no speedup, measured and
        // predicted alike.
        for r in results.iter().filter(|r| r.arms == 1) {
            assert!((r.measured_speedup() - 1.0).abs() < 1e-9, "{r:?}");
            assert!((r.analytic_speedup() - 1.0).abs() < 1e-9, "{r:?}");
        }
        // k=2 on the uniform mix gains real parallelism.
        let r = results
            .iter()
            .find(|r| r.arms == 2 && r.mix == "uniform-probe")
            .unwrap();
        assert!(r.measured_speedup() > 1.2, "{}", r.measured_speedup());
    }

    #[test]
    fn check_flags_out_of_tolerance_cells() {
        let good = MixResult {
            scheme: "REINDEX",
            mix: "uniform-probe",
            arms: 2,
            queries: 4,
            entries: 10,
            measured_serial: 2.0,
            measured_elapsed: 1.0,
            analytic_serial: 2.0,
            analytic_parallel: 1.0,
        };
        let mut bad = good.clone();
        bad.measured_elapsed = 2.0; // measured 1x vs predicted 2x
        assert!(check(std::slice::from_ref(&good), 0.15).is_empty());
        let err = check(&[good, bad], 0.15);
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("k=2"), "{}", err[0]);
    }
}
