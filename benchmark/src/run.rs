//! One workload run: set-up, day-rounds, commit, reopen, recover
//! drill, and the end-to-end metrics computed from them.
//!
//! Load shape: closed loop, one client thread, fixed operation counts
//! per round. The `--seconds` budget only decides how many rounds run
//! (`--rounds` fixes it, for exact repeats); a round's content depends
//! on the seed and the round number alone. Every timing is taken per
//! round and reported as the median over rounds; probe latencies are
//! pooled over all rounds.
//!
//! Correctness: the answer of every scan, every batch and every 8th
//! probe is kept from the timed call and compared entry for entry with
//! `wave_index::verify::Oracle` outside the timed region. An operation
//! fails if it returns `Err`, a `PartialAnswer`, or differs from the
//! oracle.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use wave_index::recovery::recover;
use wave_index::verify::Oracle;
use wave_index::{Day, DayArchive, Entry, SearchValue, TimeRange};
use wave_obs::Obs;
use wave_storage::{FileStore, Volume};

use crate::engine::{self, Engine, OpResult};
use crate::layers::Layers;
use crate::spans::Recorder;
use crate::stats::{highest_supported_percentile, median, percentile, percentile_sorted};
use crate::store::{CountingStore, StoreCounts};
use crate::workload::{Inputs, ScanShape, Spec, BATCH_SIZE};

/// Times the set-up is repeated; `setup_s` is the median of the quiet
/// ones.
pub const SETUP_REPEATS: usize = 3;
/// Times the reopen is repeated; `reopen_s` is the median of the quiet
/// ones.
pub const REOPEN_REPEATS: usize = 9;
/// Rounds a time-budgeted run makes at least.
pub const MIN_ROUNDS: usize = 20;
/// Leading measured rounds the exact metrics (simulated work, space,
/// store size) are taken from; every workload's commit cadence divides
/// it.
pub const EXACT_ROUNDS: usize = 20;
/// Every this-many-th probe answer is checked against the oracle.
pub const PROBE_CHECK_STRIDE: usize = 8;

/// How a run is sized and what it records.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Wall-clock budget of the day-round loop.
    pub seconds: f64,
    /// Fixed round count (overrides the budget).
    pub rounds: Option<usize>,
    /// Record spans and compute the per-layer metrics.
    pub trace: bool,
    /// Run the 1/20-size shape with a fixed, small round count.
    pub smoke: bool,
    /// Directory for stores and trace files.
    pub scratch: PathBuf,
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (error, partial answer, oracle mismatch).
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Day-rounds run.
    pub rounds: usize,
    /// Per [`Phase`]: the rounds its timings are medians over, and how
    /// many of those were disturbed and divided by their slowdown.
    pub chosen_rounds: [(usize, usize); 3],
    /// Order-sensitive digest of every answer's length and every
    /// checked answer's entries: equal for equal seeds and rounds.
    pub digest: u64,
    /// `(name, value)` of every end-to-end metric (untraced runs).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// `(name, value)` of every per-layer metric (traced runs).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Probe latency samples pooled (for the sample-count statement).
    pub probe_samples: usize,
    /// The highest percentile of the pooled probe latencies that still
    /// has ten samples beyond it, and its value in us.
    pub probe_tail: Option<(f64, f64)>,
}

impl Outcome {
    fn note(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    fn mix(&mut self, word: u64) {
        self.digest = (self.digest.rotate_left(5) ^ word).wrapping_mul(0x0100_0000_01B3);
    }

    fn mix_entries(&mut self, entries: &[Entry]) {
        self.mix(entries.len() as u64);
        for e in entries {
            self.mix(e.record.0 ^ e.aux.rotate_left(21) ^ (u64::from(e.day.0) << 40));
        }
    }

    /// Sorts `got`, compares it with the oracle's answer and records
    /// the verdict; `what` names the operation on a mismatch.
    fn check(&mut self, mut got: Vec<Entry>, want: &[Entry], what: impl FnOnce() -> String) {
        got.sort_unstable();
        self.mix_entries(&got);
        if got != want {
            self.note(format!(
                "{}: {} entries, oracle says {}",
                what(),
                got.len(),
                want.len()
            ));
        }
    }
}

/// One wall time and the quiet-box samples taken right before and after
/// it (see [`Calibrator`]).
pub type Bracketed = (f64, [u64; 2]);

/// The measurements the end-to-end metrics are medians of. Every vector
/// but `setups`, `commits` and `reopens` has one element per round, in
/// round order.
#[derive(Debug, Default)]
pub struct RoundSeries {
    /// Transition wall time, ms.
    pub transition_ms: Vec<f64>,
    /// New-day entries per transition wall second.
    pub ingest_per_s: Vec<f64>,
    /// Probes per wall second.
    pub probe_per_s: Vec<f64>,
    /// Mean per-probe wall time of the round, us (traced runs split
    /// it by whether the round recorded spans).
    pub probe_mean_us: Vec<(bool, f64)>,
    /// Batch values resolved per wall second.
    pub batch_per_s: Vec<f64>,
    /// Scan entries returned per wall second.
    pub scan_per_s: Vec<f64>,
    /// Simulated seconds of transition + query work.
    pub sim_work_s: Vec<f64>,
    /// Peak bytes allocated per live entry.
    pub space_per_entry: Vec<f64>,
    /// Per-probe wall latencies of the round, us.
    pub probe_us: Vec<Vec<f64>>,
    /// The round's quiet-box samples (see [`Calibrator`]): the ones
    /// right before and after each [`Phase`], in phase order.
    pub calibration: Vec<[[u64; 2]; 3]>,
    /// Each set-up, wall s.
    pub setups: Vec<Bracketed>,
    /// Each commit, wall ms.
    pub commits: Vec<Bracketed>,
    /// Each reopen, wall s.
    pub reopens: Vec<Bracketed>,
    /// The run's fastest calibration sample, ns.
    pub fastest_sample: u64,
}

/// The timed phases of a round, in order; each is judged quiet or
/// disturbed on its own, by the samples right before and after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The transition.
    Transition,
    /// The probes.
    Probes,
    /// The batches and the scans.
    BatchesAndScans,
}

/// How much slower than the run's fastest sample a calibration sample
/// may be before the box counts as disturbed.
const QUIET_SLACK: f64 = 1.10;

/// A fixed piece of work (64 passes over 256 KiB, 1.2 ms) timed right
/// before and after every timed phase of a round and every set-up,
/// commit and reopen. The sandbox's two cores are shared, and the box
/// has two speeds: for spells of 20 ms to several seconds the same work
/// takes 1.4 to 1.5 times as long (1.7 ms), the engine's calls slow
/// down with it (a 13.2 ms transition takes 18 ms), and the share of
/// time spent in the slow state drifts from nothing to two thirds over
/// minutes. A busy thread on the other core of this machine does not
/// cause it; a neighbour outside does. A median over all rounds follows
/// that drift (17.2 ms in one run, 13.1 ms in the next). So:
///
/// * before a timed phase the harness [`settle`](Self::settle)s: it
///   samples until one sample is within [`QUIET_SLACK`] of the fastest
///   this run has seen, for at most [`SETTLE_CAP`];
/// * a phase counts as *quiet* when the samples before and after it
///   are both within that slack, and timings are medians over the quiet
///   phases, as measured;
/// * when fewer than a third were quiet (the box stays slow for a
///   minute or more at a time), the median is over the third whose
///   slower sample was lowest, and the disturbed ones among them are
///   divided by their slowdown (see [`choose`]): the run then reports
///   what the timing would have been at the box's quiet speed. On one
///   run with 26 of 58 rounds fully slow, that put the median
///   transition at 13.3 ms (17.2 ms unscaled, 13.1 ms on a quiet box)
///   and probes at 51.0k/s (40.8k/s unscaled, 50k/s quiet).
///
/// The sample is long so that a timer tick (11 us here) cannot make a
/// phase look disturbed. Every round still runs and is checked for
/// correctness; counts and simulated work never depend on which phases
/// were chosen.
struct Calibrator {
    buf: Vec<u64>,
    /// The fastest sample so far, ns.
    fastest: u64,
}

/// How long [`Calibrator::settle`] waits for the box to turn quiet.
const SETTLE_CAP: Duration = Duration::from_millis(50);

impl Calibrator {
    fn new() -> Self {
        Calibrator {
            buf: (0..32 * 1024).collect(),
            fastest: u64::MAX,
        }
    }

    fn pass(&mut self) -> u64 {
        let mut acc = 0u64;
        for x in self.buf.iter_mut() {
            *x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            acc ^= *x;
        }
        acc
    }

    /// Nanoseconds the fixed work took just now. An untimed pass first
    /// brings the buffer back into cache, so the sample does not depend
    /// on what the engine touched before it.
    fn sample(&mut self) -> u64 {
        let mut acc = self.pass();
        let t = Instant::now();
        for _ in 0..64 {
            acc ^= self.pass();
        }
        let ns = t.elapsed().as_nanos() as u64;
        std::hint::black_box(acc);
        self.fastest = self.fastest.min(ns);
        ns
    }

    /// Samples until the box is quiet or [`SETTLE_CAP`] has passed;
    /// returns the last sample.
    fn settle(&mut self) -> u64 {
        let start = Instant::now();
        loop {
            let ns = self.sample();
            if ns as f64 <= self.fastest as f64 * QUIET_SLACK || start.elapsed() >= SETTLE_CAP {
                return ns;
            }
        }
    }
}

/// One measurement chosen for a median: its index in its series and
/// the slowdown to divide its time by (1 for a quiet one).
pub type Chosen = (usize, f64);

/// Chooses among measurements taken between the sample pairs
/// `brackets`. `fastest` is the run's fastest sample. The quiet ones
/// (both samples within [`QUIET_SLACK`] of `fastest`) are chosen as
/// measured. When they are fewer than a third, the third whose slower
/// sample was lowest is chosen instead, and each disturbed one of them
/// carries its slowdown: the mean of its two samples over the run's
/// usual quiet sample.
fn choose(brackets: &[[u64; 2]], fastest: u64) -> Vec<Chosen> {
    let limit = fastest as f64 * QUIET_SLACK;
    let quiet_samples: Vec<f64> = brackets
        .iter()
        .flatten()
        .map(|s| *s as f64)
        .filter(|s| *s <= limit)
        .collect();
    let usual = median(&quiet_samples).unwrap_or(fastest as f64);
    let worse = |b: &[u64; 2]| b[0].max(b[1]);
    let mut order: Vec<usize> = (0..brackets.len()).collect();
    order.sort_by_key(|i| worse(&brackets[*i]));
    let quiet = order
        .iter()
        .take_while(|i| worse(&brackets[**i]) as f64 <= limit)
        .count();
    order.truncate(quiet.max(brackets.len().div_ceil(3)));
    order.sort_unstable();
    order
        .into_iter()
        .map(|i| {
            let [before, after] = brackets[i];
            let slowdown = if worse(&brackets[i]) as f64 <= limit {
                1.0
            } else {
                ((before + after) as f64 / 2.0 / usual).max(1.0)
            };
            (i, slowdown)
        })
        .collect()
}

/// The chosen elements of `times`, each divided by its slowdown.
fn chosen_times(times: &[f64], chosen: &[Chosen]) -> Vec<f64> {
    chosen.iter().map(|(i, slow)| times[*i] / slow).collect()
}

/// The chosen elements of `rates`, each multiplied by its slowdown.
fn chosen_rates(rates: &[f64], chosen: &[Chosen]) -> Vec<f64> {
    chosen.iter().map(|(i, slow)| rates[*i] * slow).collect()
}

impl RoundSeries {
    /// The rounds whose `phase` the medians are taken over.
    pub fn chosen_rounds(&self, phase: Phase) -> Vec<Chosen> {
        let brackets: Vec<[u64; 2]> = self.calibration.iter().map(|c| c[phase as usize]).collect();
        choose(&brackets, self.fastest_sample)
    }

    /// Per-probe latencies of the rounds chosen for the probe phase,
    /// pooled.
    pub fn pooled_probe_us(&self) -> Vec<f64> {
        self.chosen_rounds(Phase::Probes)
            .into_iter()
            .flat_map(|(i, slow)| self.probe_us[i].iter().map(move |us| us / slow))
            .collect()
    }

    /// The chosen times of `measured` (one of this series' bracketed
    /// vectors).
    fn chosen_of(&self, measured: &[Bracketed]) -> Vec<f64> {
        let (times, brackets): (Vec<f64>, Vec<[u64; 2]>) = measured.iter().copied().unzip();
        chosen_times(&times, &choose(&brackets, self.fastest_sample))
    }
}

fn elapsed_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `VmHWM` of this process in MiB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of every file in the store directory.
fn store_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

/// Generates the first `W` days.
fn first_window(spec: &Spec, inputs: &mut Inputs) -> DayArchive {
    let mut archive = DayArchive::new();
    for d in 1..=spec.window {
        archive.insert(inputs.day_batch(Day(d)));
    }
    archive
}

/// Runs `spec` once under `opts`.
pub fn run_workload(spec: &Spec, opts: &Options) -> OpResult<Outcome> {
    let spec = if opts.smoke { spec.smoke() } else { *spec };
    let mut out = Outcome::default();
    let rec = Recorder::new(false);
    let obs = Obs::noop();
    let store_dir = opts.scratch.join("store");
    // A previous run's store would make the first commit an epoch bump
    // instead of a first commit.
    let _ = std::fs::remove_dir_all(&store_dir);

    // Set-up, several times over: input generation plus indexing the
    // first W days. The last repeat's engine is the one the run uses.
    let mut series = RoundSeries::default();
    let mut calibrator = Calibrator::new();
    let mut kept: Option<(Box<dyn Engine>, Inputs, DayArchive)> = None;
    let repeats = if opts.smoke { 1 } else { SETUP_REPEATS };
    for _ in 0..repeats {
        if let Some((mut engine, _, _)) = kept.take() {
            Engine::shutdown(engine.as_mut())?;
        }
        let before = calibrator.settle();
        let t = Instant::now();
        let mut inputs = Inputs::new(&spec, opts.seed);
        let archive = first_window(&spec, &mut inputs);
        let engine = engine::start(&spec, &archive, &obs)?;
        let s = t.elapsed().as_secs_f64();
        series.setups.push((s, [before, calibrator.sample()]));
        kept = Some((engine, inputs, archive));
    }
    let (mut engine, mut inputs, mut archive) = kept.ok_or("no set-up ran")?;
    out.attempted += 1;

    let mut oracle = Oracle::new();
    for batch in archive.iter() {
        oracle.insert(batch);
    }
    let mut layers = if opts.trace {
        Some(Layers::new(&spec, &archive, &obs, rec.clone())?)
    } else {
        None
    };
    let mut store = CountingStore::new(
        FileStore::open(&store_dir).map_err(|e| format!("open store: {e}"))?,
        rec.clone(),
    );

    let budget = Duration::from_secs_f64(opts.seconds);
    let fixed_rounds = opts.rounds.or(opts.smoke.then_some(8));

    // Warm-up: one full turnover of the window, transitions only. A
    // freshly built wave is packed; only after every constituent has
    // been through its maintenance path do space, simulated work and
    // transition time settle (on `wse_ingest` simulated work per day
    // is 16 s before round 35 and 95-230 s after). Nothing is timed
    // and nothing is queried before that.
    let warmup = spec.window;
    for w in 1..=warmup {
        let day = Day(spec.window + w);
        let batch = inputs.day_batch(day);
        oracle.insert(&batch);
        archive.insert(batch);
        engine.prepare(&archive, day)?;
        out.attempted += 1;
        engine.transition(&archive, day)?;
        archive.prune_before(engine.oldest_needed(Day(day.0 + 1)));
        oracle.prune_before(Day(day.0 - spec.window + 1));
    }
    engine.space_sample()?;

    let loop_start = Instant::now();
    let mut round = 0usize;
    let mut stored_per_entry = None;
    let mut entries_since_commit = 0u64;
    // Ends with the probe values and range of the last round.
    let (last_probe_values, last_probe_range) = loop {
        let day = Day(spec.window + warmup + 1 + round as u32);
        let window = (Day(day.0 - spec.window + 1), day);
        // Traced runs record spans on two rounds in three, so one
        // process measures what recording costs. No workload's spill
        // or commit cadence (4, 5, 10 rounds) shares a factor with 3,
        // so both kinds of round see every kind of day.
        let traced_round = opts.trace && !round.is_multiple_of(3);
        rec.set_enabled(traced_round);

        // The day's inputs.
        let t = Instant::now();
        let batch = inputs.day_batch(day);
        let gen_s = t.elapsed().as_secs_f64();
        let new_entries = batch.entry_count() as u64;
        oracle.insert(&batch);
        archive.insert(batch);
        engine.prepare(&archive, day)?;
        if let Some(l) = layers.as_mut() {
            l.begin_round(new_entries, gen_s);
        }

        // Transition: until the new day is queryable.
        let mut calibration = [[calibrator.settle(), 0]; 3];
        let mut round_probe_us = Vec::with_capacity(spec.probes);
        let sim_before = engine.sim_seconds();
        out.attempted += 1;
        let span = rec.begin("op.transition");
        let t = Instant::now();
        let moved = engine.transition(&archive, day);
        let ms = elapsed_ms(t);
        rec.end(span);
        // A failed transition leaves no defined state to go on from.
        moved?;
        calibration[Phase::Transition as usize][1] = calibrator.sample();
        series.transition_ms.push(ms);
        series.ingest_per_s.push(new_entries as f64 / (ms / 1e3));
        entries_since_commit += new_entries;
        archive.prune_before(engine.oldest_needed(Day(day.0 + 1)));
        oracle.prune_before(window.0);
        if let Some(l) = layers.as_mut() {
            l.after_transition(&obs);
        }

        // Probes.
        let probe_range = match spec.probe_newest_days {
            Some(d) => TimeRange::between(Day(day.0 + 1 - d), day),
            None => TimeRange::between(window.0, window.1),
        };
        let values = inputs.query_values(day, 0, spec.probes);
        let mut kept_answers: Vec<(usize, Vec<Entry>)> =
            Vec::with_capacity(values.len() / PROBE_CHECK_STRIDE + 1);
        calibration[Phase::Probes as usize][0] = calibrator.settle();
        let mut probe_ns = 0u64;
        for (i, value) in values.iter().enumerate() {
            out.attempted += 1;
            let span = rec.begin("op.probe");
            let t = Instant::now();
            let answer = engine.probe(value, probe_range);
            let ns = t.elapsed().as_nanos() as u64;
            rec.end(span);
            probe_ns += ns;
            round_probe_us.push(ns as f64 / 1e3);
            match answer {
                Ok(entries) => {
                    out.mix(entries.len() as u64);
                    if i % PROBE_CHECK_STRIDE == 0 {
                        kept_answers.push((i, entries));
                    }
                }
                Err(e) => out.note(e),
            }
        }
        series
            .probe_per_s
            .push(values.len() as f64 / (probe_ns as f64 / 1e9));
        series
            .probe_mean_us
            .push((traced_round, probe_ns as f64 / 1e3 / values.len() as f64));
        series.probe_us.push(round_probe_us);
        calibration[Phase::Probes as usize][1] = calibrator.sample();
        for (i, got) in kept_answers {
            let want = oracle.probe(&values[i], probe_range, window);
            out.check(got, &want, || format!("probe {} on {day}", values[i]));
        }
        if let Some(l) = layers.as_mut() {
            l.after_probes(&obs, values.len() as u64);
        }

        // Batches.
        calibration[Phase::BatchesAndScans as usize][0] = calibrator.settle();
        let mut batch_ns = 0u64;
        let mut batch_values = 0usize;
        for b in 0..spec.batches {
            let bvals = inputs.query_values(day, 1 + b as u64, BATCH_SIZE);
            out.attempted += 1;
            let span = rec.begin("op.batch");
            let t = Instant::now();
            let answer = engine.batch(&bvals, probe_range);
            batch_ns += t.elapsed().as_nanos() as u64;
            rec.end(span);
            batch_values += bvals.len();
            match answer {
                Ok(per_value) if per_value.len() == bvals.len() => {
                    let before = out.failed;
                    for (value, got) in bvals.iter().zip(per_value) {
                        let want = oracle.probe(value, probe_range, window);
                        let mut got = got;
                        got.sort_unstable();
                        out.mix_entries(&got);
                        if got != want && out.failed == before {
                            out.note(format!("batch value {value} on {day} differs from oracle"));
                        }
                    }
                }
                Ok(per_value) => out.note(format!(
                    "batch on {day}: {} answers for {} values",
                    per_value.len(),
                    bvals.len()
                )),
                Err(e) => out.note(e),
            }
        }
        series
            .batch_per_s
            .push(batch_values as f64 / (batch_ns as f64 / 1e9));
        if let Some(l) = layers.as_mut() {
            l.after_batches(spec.batches as u64, batch_values as u64, batch_ns);
        }

        // Scans.
        let scan_range = match spec.scan_shape {
            ScanShape::NewestDay => TimeRange::between(day, day),
            ScanShape::Window => TimeRange::between(window.0, window.1),
        };
        let want_scan = oracle.scan(scan_range, window);
        let mut scan_ns = 0u64;
        let mut scan_entries = 0usize;
        for _ in 0..spec.scans {
            out.attempted += 1;
            let span = rec.begin("op.scan");
            let t = Instant::now();
            let answer = engine.scan(scan_range);
            scan_ns += t.elapsed().as_nanos() as u64;
            rec.end(span);
            match answer {
                Ok(entries) => {
                    scan_entries += entries.len();
                    out.check(entries, &want_scan, || format!("scan on {day}"));
                }
                Err(e) => out.note(e),
            }
        }
        series
            .scan_per_s
            .push(scan_entries as f64 / (scan_ns as f64 / 1e9));
        series.sim_work_s.push(engine.sim_seconds() - sim_before);
        calibration[Phase::BatchesAndScans as usize][1] = calibrator.sample();
        series.calibration.push(calibration);

        // Layer replay: the same values sent through each layer's
        // public calls, outside every timed region above.
        if let Some(l) = layers.as_mut() {
            if traced_round {
                l.replay(engine.as_mut(), &values, probe_range, scan_range)?;
            }
        }

        // Commit: on the workload's cadence, and after the last round,
        // so that the store describes it before it is reopened.
        let last = match fixed_rounds {
            Some(n) => round + 1 >= n,
            None => round + 1 >= MIN_ROUNDS && loop_start.elapsed() >= budget,
        };
        if last {
            rec.set_enabled(opts.trace);
        }
        let commit = last || (round + 1).is_multiple_of(spec.commit_every);
        if commit {
            out.attempted += 1;
            let before = calibrator.settle();
            let span = rec.begin("op.commit");
            let t = Instant::now();
            let done = engine.commit(&archive, &mut store);
            let ms = elapsed_ms(t);
            rec.end(span);
            if let Err(e) = done {
                out.note(e);
            }
            series.commits.push((ms, [before, calibrator.sample()]));
            if let Some(l) = layers.as_mut() {
                l.after_commit(&mut store, ms, entries_since_commit);
            }
            entries_since_commit = 0;
        }
        let (peak_bytes, live_entries) = engine.space_sample()?;
        series
            .space_per_entry
            .push(peak_bytes as f64 / live_entries.max(1) as f64);
        // The store is sized after the commit that ends the exact
        // prefix; a run shorter than that (a smoke run) sizes it after
        // its last commit.
        if commit && (round + 1 == EXACT_ROUNDS || (last && round + 1 < EXACT_ROUNDS)) {
            let stored = store_bytes(&store_dir).map_err(|e| format!("size of store: {e}"))?;
            stored_per_entry = Some(stored as f64 / live_entries.max(1) as f64);
        }
        if let Some(l) = layers.as_mut() {
            l.end_round(&obs, engine.as_mut());
        }
        round += 1;
        if last {
            break (values, probe_range);
        }
    };
    out.rounds = round;
    let last_day = Day(spec.window + warmup + round as u32);
    let window = (Day(last_day.0 - spec.window + 1), last_day);
    let stored_per_entry = stored_per_entry.ok_or("no commit sized the store")?;
    drop(store);

    // Reopen: a fresh store handle, a fresh volume, every checksum
    // verified, fsck clean, until the first oracle-correct probe.
    let reopen_repeats = if opts.smoke { 1 } else { REOPEN_REPEATS };
    let mut reopen_counts = StoreCounts::default();
    for _ in 0..reopen_repeats {
        out.attempted += 1;
        let before = calibrator.settle();
        let span = rec.begin("op.reopen");
        let t = Instant::now();
        let reopened = FileStore::open(&store_dir)
            .map_err(|e| format!("reopen store: {e}"))
            .and_then(|fs| {
                let mut store = CountingStore::new(fs, rec.clone());
                let re = engine.reopen(&archive, &mut store);
                reopen_counts = store.counts();
                re
            })
            .and_then(|mut re| {
                let first = match last_probe_values.first() {
                    Some(v) => re.probe(v, last_probe_range).map(Some),
                    None => Ok(None),
                };
                first.map(|f| (re, f))
            });
        let s = t.elapsed().as_secs_f64();
        rec.end(span);
        match reopened {
            Ok((mut re, first)) => {
                series.reopens.push((s, [before, calibrator.sample()]));
                if let (Some(got), Some(v)) = (first, last_probe_values.first()) {
                    let want = oracle.probe(v, last_probe_range, window);
                    out.check(got, &want, || format!("first probe after reopen ({v})"));
                }
                // After the first reopen, every probe value of the
                // last round is compared.
                if series.reopens.len() == 1 {
                    for v in &last_probe_values {
                        out.attempted += 1;
                        match re.probe(v, last_probe_range) {
                            Ok(got) => {
                                let want = oracle.probe(v, last_probe_range, window);
                                out.check(got, &want, || format!("probe {v} after reopen"));
                            }
                            Err(e) => out.note(e),
                        }
                    }
                }
                re.close()?;
            }
            Err(e) => out.note(e),
        }
    }
    if let Some(l) = layers.as_mut() {
        l.after_reopen(reopen_counts);
    }

    // Recover drill: one filter sidecar deleted, one image truncated,
    // archive supplied.
    out.attempted += 1;
    let drill = recover_drill(
        &spec,
        &store_dir,
        &archive,
        &oracle,
        window,
        &last_probe_values,
        last_probe_range,
        &obs,
        &rec,
        layers.as_mut(),
    );
    if let Err(e) = drill {
        out.note(e);
    }
    engine.shutdown()?;

    series.fastest_sample = calibrator.fastest;
    let mut pooled = series.pooled_probe_us();
    pooled.sort_by(f64::total_cmp);
    if let Some(layers) = layers {
        out.per_layer = layers.finish(&obs, &series, &opts.scratch, spec.name)?;
    } else {
        out.end_to_end = end_to_end(&series, &pooled, stored_per_entry)?;
    }
    out.chosen_rounds = [Phase::Transition, Phase::Probes, Phase::BatchesAndScans].map(|phase| {
        let chosen = series.chosen_rounds(phase);
        let scaled = chosen.iter().filter(|(_, slow)| *slow > 1.0).count();
        (chosen.len(), scaled)
    });
    out.probe_samples = pooled.len();
    out.probe_tail = highest_supported_percentile(out.probe_samples, 10)
        .and_then(|p| percentile_sorted(&pooled, p).map(|us| (p, us)));
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(out)
}

/// Damages the committed store (one `.filt` deleted, one image
/// truncated), runs `recover` with the archive and checks the repaired
/// wave against the oracle.
#[allow(clippy::too_many_arguments)]
fn recover_drill(
    spec: &Spec,
    store_dir: &Path,
    archive: &DayArchive,
    oracle: &Oracle,
    window: (Day, Day),
    values: &[SearchValue],
    range: TimeRange,
    obs: &Obs,
    rec: &Recorder,
    layers: Option<&mut Layers>,
) -> OpResult<()> {
    let io = |e: std::io::Error| format!("recover drill: {e}");
    let mut names: Vec<String> = std::fs::read_dir(store_dir)
        .map_err(io)?
        .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
        .collect();
    names.sort_unstable();
    let filt = names
        .iter()
        .find(|n| n.ends_with(".filt"))
        .ok_or("recover drill: store holds no filter sidecar")?;
    std::fs::remove_file(store_dir.join(filt)).map_err(io)?;
    // Damage a different slot's image than the one that lost its
    // filter, so both repair paths run.
    let image = names
        .iter()
        .rev()
        .find(|n| n.starts_with("slot") && !n.contains(".filt") && !n.contains(".ing"))
        .ok_or("recover drill: store holds no image")?;
    let path = store_dir.join(image);
    let len = std::fs::metadata(&path).map_err(io)?.len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .map_err(io)?;
    file.set_len(len / 2).map_err(io)?;
    drop(file);

    let mut store = CountingStore::new(
        FileStore::open(store_dir).map_err(|e| format!("recover drill: {e}"))?,
        rec.clone(),
    );
    let mut vol = Volume::with_disks_obs(Default::default(), 1, obs.clone());
    let span = rec.begin("op.recover");
    let t = Instant::now();
    let recovered = recover(spec.index_config(), &mut vol, &mut store, Some(archive));
    let recover_ms = elapsed_ms(t);
    rec.end(span);
    let (loaded, report) = recovered.map_err(|e| format!("recover: {e}"))?;
    let mut loaded = loaded.ok_or("recover: no wave survived")?;
    if report.rebuilt.is_empty() || report.rebuilt_filters.is_empty() {
        return Err(format!(
            "recover repaired {} images and {} filters, expected at least one of each",
            report.rebuilt.len(),
            report.rebuilt_filters.len()
        ));
    }
    let t = Instant::now();
    let check = wave_index::fsck(&mut store, obs).map_err(|e| format!("fsck: {e}"))?;
    let fsck_ms = elapsed_ms(t);
    if !check.is_clean() {
        return Err(format!("store not clean after recover: {check:?}"));
    }
    for v in values.iter().step_by(PROBE_CHECK_STRIDE) {
        let mut got = loaded
            .wave
            .timed_index_probe(&mut vol, v, range)
            .map_err(|e| format!("probe after recover: {e}"))?
            .entries;
        got.sort_unstable();
        if got != oracle.probe(v, range, window) {
            return Err(format!("probe {v} after recover differs from oracle"));
        }
    }
    loaded
        .wave
        .release_all(&mut vol)
        .map_err(|e| format!("release after recover: {e}"))?;
    if let Some(l) = layers {
        l.after_recover(recover_ms, fsck_ms, &report);
    }
    Ok(())
}

/// The end-to-end metrics, in `catalog::END_TO_END` order.
fn end_to_end(
    s: &RoundSeries,
    sorted_probe_us: &[f64],
    stored_per_entry: f64,
) -> OpResult<Vec<(&'static str, f64)>> {
    // Counts and simulated work come from the first rounds only, which
    // every run makes: they repeat exactly for a seed however many
    // rounds the time budget allowed.
    fn exact(v: &[f64]) -> &[f64] {
        &v[..v.len().min(EXACT_ROUNDS)]
    }
    let med =
        |name: &'static str, v: &[f64]| median(v).ok_or_else(|| format!("{name}: no samples"));
    // Timings: medians over the rounds chosen for the phase.
    let rate = |name: &'static str, phase: Phase, v: &[f64]| {
        med(name, &chosen_rates(v, &s.chosen_rounds(phase)))
    };
    let transitions = chosen_times(&s.transition_ms, &s.chosen_rounds(Phase::Transition));
    let pct = |p: f64| percentile_sorted(sorted_probe_us, p).ok_or("probe latencies: no samples");
    Ok(vec![
        ("setup_s", med("setup_s", &s.chosen_of(&s.setups))?),
        (
            "probe_ops_per_s",
            rate("probe_ops_per_s", Phase::Probes, &s.probe_per_s)?,
        ),
        ("probe_p50_us", pct(50.0)?),
        ("probe_p99_us", pct(99.0)?),
        (
            "batch_values_per_s",
            rate("batch_values_per_s", Phase::BatchesAndScans, &s.batch_per_s)?,
        ),
        (
            "scan_entries_per_s",
            rate("scan_entries_per_s", Phase::BatchesAndScans, &s.scan_per_s)?,
        ),
        ("transition_p50_ms", med("transition_p50_ms", &transitions)?),
        (
            "transition_p90_ms",
            percentile(&transitions, 90.0).ok_or("transition_p90_ms: no samples")?,
        ),
        (
            "ingest_entries_per_s",
            rate("ingest_entries_per_s", Phase::Transition, &s.ingest_per_s)?,
        ),
        (
            "commit_p50_ms",
            med("commit_p50_ms", &s.chosen_of(&s.commits))?,
        ),
        ("reopen_s", med("reopen_s", &s.chosen_of(&s.reopens))?),
        (
            "sim_work_s_per_day",
            med("sim_work_s_per_day", exact(&s.sim_work_s))?,
        ),
        (
            "peak_space_bytes_per_entry",
            exact(&s.space_per_entry)
                .iter()
                .copied()
                .max_by(f64::total_cmp)
                .ok_or("peak_space_bytes_per_entry: no samples")?,
        ),
        ("store_bytes_per_entry", stored_per_entry),
        ("peak_rss_mb", peak_rss_mb()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUIET: u64 = 1_200_000;
    const SLOW: u64 = 1_740_000;

    #[test]
    fn quiet_measurements_are_chosen_as_measured() {
        // Four of six quiet: the quiet ones only, in order, unscaled.
        let brackets = [
            [QUIET, QUIET],
            [QUIET, SLOW],
            [QUIET + 50_000, QUIET],
            [SLOW, SLOW],
            [QUIET, QUIET + 90_000],
            [QUIET, QUIET],
        ];
        let chosen = choose(&brackets, QUIET);
        assert_eq!(chosen, vec![(0, 1.0), (2, 1.0), (4, 1.0), (5, 1.0)]);
        assert_eq!(chosen_times(&[6.0; 6], &chosen), vec![6.0; 4]);
    }

    #[test]
    fn a_slow_run_falls_back_to_the_quietest_third_scaled() {
        // One of nine quiet: the three with the lowest slower sample,
        // the disturbed ones divided by mean(before, after) / usual.
        let mut brackets = [[SLOW, SLOW]; 9];
        brackets[4] = [QUIET, QUIET];
        brackets[7] = [QUIET, SLOW - 10_000];
        brackets[2] = [SLOW - 5_000, SLOW - 5_000];
        let chosen = choose(&brackets, QUIET);
        assert_eq!(
            chosen.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![2, 4, 7]
        );
        assert_eq!(chosen[1].1, 1.0);
        let full = (SLOW - 5_000) as f64 / QUIET as f64;
        assert!((chosen[0].1 - full).abs() < 1e-9);
        let half = (QUIET + SLOW - 10_000) as f64 / 2.0 / QUIET as f64;
        assert!((chosen[2].1 - half).abs() < 1e-9);
        // A time shrinks by its slowdown, a rate grows by it.
        let times = chosen_times(&[14.5; 9], &chosen);
        assert!((times[0] - 14.5 / full).abs() < 1e-9 && times[1] == 14.5);
        let rates = chosen_rates(&[100.0; 9], &chosen);
        assert!((rates[0] - 100.0 * full).abs() < 1e-9 && rates[1] == 100.0);
    }

    #[test]
    fn a_run_that_never_saw_the_quiet_box_is_reported_as_measured() {
        // Every sample slow: the fastest one is the reference, nothing
        // is scaled.
        let chosen = choose(&[[SLOW, SLOW + 20_000]; 6], SLOW);
        assert_eq!(chosen.len(), 6);
        assert!(chosen.iter().all(|(_, slow)| *slow == 1.0));
        assert!(choose(&[], QUIET).is_empty());
    }
}
