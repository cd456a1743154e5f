//! Observability overhead benchmark: tracing + flight recorder + SLOs
//! against the same engine run with tracing disabled.
//!
//! The sweep replays the same seeded Zipfian day-by-day workload (the
//! one `wavectl trace` uses) twice per repetition:
//!
//! 1. **baseline** — [`Obs::noop`]: tracing off, no sink, no ring.
//!    Metrics and SLO recording still run (they are always on), so
//!    the delta isolates exactly what the tracing layer adds;
//! 2. **traced** — a seeded [`Obs`] whose sink is a live
//!    [`FlightRecorder`]: every root/child span is serialized to
//!    JSONL, grouped per trace in the ring, and retired through the
//!    tail-based retention path.
//!
//! Both runs must produce bit-identical simulated-time reports —
//! observability is not allowed to perturb the engine — and the
//! median traced/baseline **wall-clock** ratio over the repetitions
//! may exceed 1 by at most [`ObsSweep::max_overhead`]. `wavectl bench obs` drives this
//! and writes `BENCH_obs.json` (fields in EXPERIMENTS.md).

use std::sync::Arc;
use std::time::Instant;

use wave_index::prelude::*;
use wave_index::schemes::SchemeKind;
use wave_obs::{FlightConfig, FlightRecorder, Obs};
use wave_workloads::{ArticleGenerator, QueryMix};

use crate::suite::Show::{Json, Table};
use crate::suite::{Report, Row};

/// Configuration of one observability-overhead sweep.
#[derive(Debug, Clone)]
pub struct ObsSweep {
    /// Window size `W` in days.
    pub window: u32,
    /// Constituent count `n`.
    pub fan: usize,
    /// Days stepped past the initial window.
    pub days: u32,
    /// Articles generated per day.
    pub articles_per_day: usize,
    /// Words indexed per article.
    pub words_per_article: usize,
    /// Vocabulary size behind the Zipfian text model.
    pub vocab: usize,
    /// Timed baseline/traced pairs; the pair with the median ratio is
    /// reported.
    pub repetitions: usize,
    /// Workload + trace seed (the whole sweep is deterministic).
    pub seed: u64,
    /// Maximum traced/baseline wall-clock overhead ([`check`] bound).
    pub max_overhead: f64,
}

impl ObsSweep {
    /// The full sweep: a month of REINDEX days at the paper's weekly
    /// window, where the acceptance bound — tracing + recorder + SLOs
    /// within 5% of the untraced run — is asserted.
    pub fn full() -> Self {
        ObsSweep {
            window: 7,
            fan: 3,
            days: 30,
            articles_per_day: 200,
            words_per_article: 8,
            vocab: 150,
            repetitions: 5,
            seed: 0x0B5E_BE2C,
            max_overhead: 0.05,
        }
    }

    /// A CI-sized smoke sweep. The run is so short that scheduler
    /// noise dominates the wall clock, so the overhead bound is
    /// deliberately loose — the smoke gate proves the machinery works
    /// and is not wildly slow, the full sweep pins the 5% number.
    pub fn smoke() -> Self {
        ObsSweep {
            window: 4,
            fan: 2,
            days: 6,
            articles_per_day: 60,
            words_per_article: 6,
            vocab: 120,
            repetitions: 5,
            seed: 0x0B5E_BE2C,
            max_overhead: 0.50,
        }
    }
}

/// The sweep's outcome: the wall clock of the median pair plus
/// evidence that the traced run really traced.
#[derive(Debug, Clone)]
pub struct ObsResult {
    /// Wall-clock microseconds of the median pair's run, tracing off.
    pub baseline_us: u64,
    /// Wall-clock microseconds of the median pair's run, tracing +
    /// flight recorder on.
    pub traced_us: u64,
    /// Simulated seconds of engine work per repetition (identical in
    /// both modes by assertion).
    pub sim_seconds: f64,
    /// Traces the recorder completed in one traced repetition.
    pub traces_completed: u64,
    /// Traces the recorder promoted (none at the default threshold).
    pub traces_promoted: u64,
    /// Un-promoted traces dropped at ring eviction.
    pub traces_evicted: u64,
}

impl ObsResult {
    /// Fractional wall-clock overhead of the traced run: `0.03` means
    /// tracing cost 3%.
    pub fn overhead(&self) -> f64 {
        if self.baseline_us == 0 {
            0.0
        } else {
            self.traced_us as f64 / self.baseline_us as f64 - 1.0
        }
    }
}

/// One replay of the seeded workload under `obs`; returns the total
/// simulated seconds the engine reported.
fn replay(obs: &Obs, sweep: &ObsSweep) -> f64 {
    let mut vol = Volume::default();
    vol.attach_obs(obs.clone());
    let scheme = SchemeKind::Reindex
        .build(SchemeConfig::new(sweep.window, sweep.fan))
        .expect("sweep config is valid");
    let mut driver = Driver::new(scheme, vol, DriverConfig::default());
    let mut articles = ArticleGenerator::new(
        sweep.vocab,
        sweep.articles_per_day,
        sweep.words_per_article,
        sweep.seed,
    );
    let mix = QueryMix::new(sweep.vocab, 8, 1, sweep.window, sweep.seed);
    let mut sim = 0.0;
    let start = driver
        .start(
            (1..=sweep.window)
                .map(|d| articles.day_batch(Day(d)))
                .collect(),
        )
        .expect("start succeeds");
    sim += start.total_work_seconds();
    for d in (sweep.window + 1)..=(sweep.window + sweep.days) {
        let load = mix.load_for(Day(d));
        let report = driver
            .step(articles.day_batch(Day(d)), &load)
            .expect("step succeeds");
        sim += report.total_work_seconds();
    }
    driver.finish().expect("finish releases cleanly");
    sim
}

/// Runs the sweep: `repetitions` baseline/traced pairs, each run back
/// to back, and reports the pair whose traced/baseline ratio is the
/// median. A stall that lands on one run (a sibling test or process
/// taking the core) moves only its own pair's ratio, where per-mode
/// medians would pair a slow run of one mode with a fast run of the
/// other. Panics if the two modes disagree on simulated time — the
/// observability layer must never change what the engine does.
pub fn run_sweep(sweep: &ObsSweep) -> ObsResult {
    let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(sweep.repetitions);
    let mut sim_seconds = 0.0;
    let mut completed = 0u64;
    let mut promoted = 0u64;
    let mut evicted = 0u64;
    for rep in 0..sweep.repetitions {
        let t = Instant::now();
        let base_sim = replay(&Obs::noop(), sweep);
        let baseline_us = t.elapsed().as_micros() as u64;

        let recorder = Arc::new(FlightRecorder::new(FlightConfig::default()));
        let obs = Obs::with_seed(recorder.clone(), sweep.seed);
        let t = Instant::now();
        let traced_sim = replay(&obs, sweep);
        pairs.push((baseline_us, t.elapsed().as_micros() as u64));

        assert_eq!(
            base_sim.to_bits(),
            traced_sim.to_bits(),
            "rep {rep}: tracing perturbed the simulated engine work"
        );
        sim_seconds = traced_sim;
        let stats = recorder.stats();
        completed = stats.completed;
        promoted = stats.promoted;
        evicted = stats.evicted;
    }
    let ratio = |&(base, traced): &(u64, u64)| traced as f64 / base.max(1) as f64;
    pairs.sort_by(|a, b| ratio(a).total_cmp(&ratio(b)));
    let (baseline_us, traced_us) = pairs[pairs.len() / 2];
    ObsResult {
        baseline_us,
        traced_us,
        sim_seconds,
        traces_completed: completed,
        traces_promoted: promoted,
        traces_evicted: evicted,
    }
}

/// Verifies the acceptance bounds: the traced run stayed within
/// `max_overhead` of the baseline, and it demonstrably traced (a
/// recorder that saw no traces would make the bound vacuous).
pub fn check(result: &ObsResult, max_overhead: f64) -> Vec<String> {
    let mut bad = Vec::new();
    if result.overhead() > max_overhead {
        bad.push(format!(
            "tracing overhead {:.1}% exceeds the {:.1}% bound ({}us traced vs {}us baseline)",
            result.overhead() * 100.0,
            max_overhead * 100.0,
            result.traced_us,
            result.baseline_us
        ));
    }
    if result.traces_completed == 0 {
        bad.push("the flight recorder completed no traces — the bound is vacuous".to_string());
    }
    bad
}

/// Runs the smoke or full sweep and reports it. The document is one
/// flat object — the sweep parameters followed by the result — so the
/// head carries both and the table is its single line
/// (`BENCH_obs.json`, fields documented in EXPERIMENTS.md).
pub fn report(smoke: bool) -> Report {
    let sweep = if smoke {
        ObsSweep::smoke()
    } else {
        ObsSweep::full()
    };
    let result = run_sweep(&sweep);
    let head = Row::new()
        .str(Json, "schema", "wave-bench/obs/v1")
        .u64(Json, "window", sweep.window as u64)
        .u64(Json, "fan", sweep.fan as u64)
        .u64(Json, "days", sweep.days as u64)
        .u64(Json, "articles_per_day", sweep.articles_per_day as u64)
        .u64(Json, "words_per_article", sweep.words_per_article as u64)
        .u64(Json, "vocab", sweep.vocab as u64)
        .u64(Json, "repetitions", sweep.repetitions as u64)
        .u64(Json, "seed", sweep.seed)
        .f64(Json, "max_overhead", sweep.max_overhead)
        .u64(Table, "baseline_us", result.baseline_us)
        .u64(Table, "traced_us", result.traced_us)
        .f64(Table, "overhead", result.overhead())
        .f64(Json, "sim_seconds", result.sim_seconds)
        .u64(Table, "traces_completed", result.traces_completed)
        .u64(Json, "traces_promoted", result.traces_promoted)
        .u64(Json, "traces_evicted", result.traces_evicted);
    Report {
        head,
        cases: None,
        violations: check(&result, sweep.max_overhead),
        pass: format!(
            "tracing + flight recorder + SLOs within {:.0}% of the untraced run",
            sweep.max_overhead * 100.0
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_traces_without_perturbing_the_engine() {
        let sweep = ObsSweep::smoke();
        let result = run_sweep(&sweep);
        assert!(result.sim_seconds > 0.0, "{result:?}");
        assert!(result.traces_completed > 0, "{result:?}");
        assert!(result.baseline_us > 0 && result.traced_us > 0, "{result:?}");
    }

    #[test]
    fn check_flags_overhead_and_vacuous_runs() {
        let good = ObsResult {
            baseline_us: 1000,
            traced_us: 1030,
            sim_seconds: 1.0,
            traces_completed: 5,
            traces_promoted: 0,
            traces_evicted: 0,
        };
        assert!((good.overhead() - 0.03).abs() < 1e-9);
        assert!(check(&good, 0.05).is_empty());

        let mut slow = good.clone();
        slow.traced_us = 1200;
        let err = check(&slow, 0.05);
        assert!(err[0].contains("overhead"), "{err:?}");

        let mut vacuous = good.clone();
        vacuous.traces_completed = 0;
        let err = check(&vacuous, 0.05);
        assert!(err[0].contains("vacuous"), "{err:?}");
    }
}
