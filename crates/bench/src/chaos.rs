//! Deterministic chaos soak for the fault-tolerant serving path.
//!
//! For each scheme, the soak launches a live multi-threaded
//! [`WaveServer`] (with a reserved maintenance arm) on the scheme's
//! own day-partitioning and races three thread groups against it:
//!
//! * **readers** replaying a seeded probe/scan/batch mix,
//! * a **maintenance** thread committing epoch after epoch, rebuilding
//!   slots back and forth between two content generations (`A` built
//!   at install, `B` from an independently seeded workload),
//! * a **chaos** thread driving a seeded schedule of worker kills,
//!   transient read bursts, persistent fault windows, and arm
//!   quarantines through the server's fault-injection hooks.
//!
//! The invariant checked on *every* completed answer: decomposed by
//! slot (an entry's day identifies its slot), each covered slot is
//! byte-identical to generation `A` or generation `B` of that slot as
//! computed by a single-threaded oracle, and a [`PartialAnswer`]'s
//! `missing_slots` are exactly the slots with no entries. Requests
//! never hang: every one resolves to a whole answer, a typed partial,
//! or a typed error. After the chaos schedule drains and faults are
//! cleared, the server must heal — whole answers return within a
//! bounded number of probes — and shut down with zero leaked blocks.
//!
//! The event *schedule* is seeded and deterministic; thread
//! interleaving is not, so the invariants are written to hold under
//! every interleaving (the counts in the report are descriptive, not
//! golden). `wavectl bench chaos [--smoke]` drives this and prints the
//! per-scheme report.
//!
//! The soak runs the server with its default [`IndexConfig`], so the
//! probe-pruning layer (DESIGN.md §14) is live: membership filters
//! may elide whole arms from a query's fan-out while workers are
//! being killed and arms quarantined around them. The oracle check
//! makes no allowance for this — an elided arm must be
//! indistinguishable from a probed-and-empty one — so the soak also
//! serves as the adversarial test that filter skips stay proofs of
//! absence under every fault interleaving.
//!
//! Reading the report: `ok`/`partial`/`errors` partition the reader
//! requests (`partial` only ever names quarantined slots), the
//! `maintains_ok/maintains_err` pair shows maintenance surviving the
//! same chaos, and `kills`/`bursts`/`quarantines` echo the injected
//! schedule while `worker_restarts`/`breaker_trips`/`read_retries`
//! count the server's measured responses to it. Reads never use a
//! worker, so a kill is felt only when maintenance next reaches the
//! arm: `worker_restarts` counts the workers a later build, drop or
//! status re-raised (shutdown, after the report, re-raises the rest,
//! and killing a worker that is already dead is a no-op), so it may
//! read below `kills`. A healthy soak shows retries absorbing the
//! short bursts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use wave_index::prelude::*;
use wave_index::schemes::SchemeKind;
use wave_index::server::{PartialAnswer, ServerConfig, WaveServer};
use wave_index::{ConstituentIndex, Entry, IndexResult};
use wave_obs::{MemorySink, Obs, SplitMix64};
use wave_storage::DiskArray;
use wave_workloads::ArticleGenerator;

use crate::parallel::scheme_partition;
use crate::suite::Show::{Json, Table};
use crate::suite::{Report, Row};

/// Configuration of one chaos soak.
#[derive(Debug, Clone)]
pub struct ChaosSoak {
    /// Window size `W` in days.
    pub window: u32,
    /// Constituent count handed to every scheme.
    pub fan: usize,
    /// Arms in the array (one is reserved for maintenance).
    pub arms: usize,
    /// Schemes soaked.
    pub schemes: Vec<SchemeKind>,
    /// Articles generated per day.
    pub articles_per_day: usize,
    /// Words indexed per article.
    pub words_per_article: usize,
    /// Vocabulary size behind the Zipfian text model.
    pub vocab: usize,
    /// Concurrent reader threads.
    pub readers: usize,
    /// Queries each reader replays.
    pub queries_per_reader: usize,
    /// Maintenance epochs committed (round-robin over slots).
    pub maintain_rounds: usize,
    /// Chaos events injected from the seeded schedule.
    pub chaos_events: usize,
    /// Seed for workload, query mix, and chaos schedule.
    pub seed: u64,
}

impl ChaosSoak {
    /// The full soak: every scheme, four arms, three readers.
    pub fn full() -> Self {
        ChaosSoak {
            window: 12,
            fan: 6,
            arms: 4,
            schemes: SchemeKind::ALL.to_vec(),
            articles_per_day: 100,
            words_per_article: 6,
            vocab: 120,
            readers: 3,
            queries_per_reader: 60,
            maintain_rounds: 12,
            chaos_events: 30,
            seed: 0xC4A05,
        }
    }

    /// CI-sized smoke soak: two schemes, three arms, seconds of work.
    pub fn smoke() -> Self {
        ChaosSoak {
            window: 8,
            fan: 4,
            arms: 3,
            schemes: vec![SchemeKind::Reindex, SchemeKind::WataStar],
            articles_per_day: 40,
            words_per_article: 6,
            vocab: 100,
            readers: 2,
            queries_per_reader: 25,
            maintain_rounds: 6,
            chaos_events: 12,
            seed: 0x5EED,
        }
    }
}

/// What one scheme's soak survived. Counts are descriptive (they
/// depend on thread interleaving); the correctness invariants are
/// enforced by panicking during the run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Scheme name, paper spelling.
    pub scheme: &'static str,
    /// Slots served.
    pub slots: usize,
    /// Completed queries that were whole and oracle-identical.
    pub ok: u64,
    /// Completed queries degraded to a typed, oracle-checked partial.
    pub partial: u64,
    /// Queries resolved as typed errors.
    pub errors: u64,
    /// Maintenance epochs committed / rejected with a typed error.
    pub maintains_ok: u64,
    /// Maintenance attempts that failed (worker killed mid-build,
    /// fault window on the build arm).
    pub maintains_err: u64,
    /// Chaos events injected: worker kills.
    pub kills: u64,
    /// Chaos events injected: transient read bursts.
    pub bursts: u64,
    /// Chaos events injected: arm quarantines.
    pub quarantines: u64,
    /// Workers restarted by supervision.
    pub worker_restarts: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Transient read errors absorbed by retry.
    pub read_retries: u64,
}

/// Per-generation oracle: for every query, the answer each slot
/// contributes, computed single-threaded on one volume.
struct GenOracle {
    /// `[query][slot]` → entries that slot contributes.
    per_query_slot: Vec<Vec<Vec<Entry>>>,
}

/// A pre-generated query, replayed identically by every checker.
#[derive(Clone)]
enum ChaosQuery {
    Probe(SearchValue),
    Scan(TimeRange),
    Batch(Vec<SearchValue>),
}

fn soak_queries(soak: &ChaosSoak) -> Vec<ChaosQuery> {
    let mut rng = SplitMix64::new(soak.seed ^ 0xC0FFEE);
    let articles = ArticleGenerator::new(
        soak.vocab,
        soak.articles_per_day,
        soak.words_per_article,
        soak.seed,
    );
    let mut queries = Vec::new();
    for i in 0..12usize {
        match i % 4 {
            0 | 1 => queries.push(ChaosQuery::Probe(articles.query_word(&mut rng))),
            2 => {
                let lo = rng.range_u64(1, soak.window as u64) as u32;
                let hi = rng.range_u64(lo as u64, soak.window as u64) as u32;
                queries.push(ChaosQuery::Scan(TimeRange::between(Day(lo), Day(hi))));
            }
            _ => queries.push(ChaosQuery::Batch(
                (0..3).map(|_| articles.query_word(&mut rng)).collect(),
            )),
        }
    }
    queries
}

/// Builds one generation's oracle: a single-threaded wave over the
/// partition, answering every query per slot.
fn gen_oracle(partition: &[Vec<DayBatch>], queries: &[ChaosQuery]) -> GenOracle {
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
    let slots = partition.len();
    let mut per_query_slot = Vec::with_capacity(queries.len());
    for q in queries {
        let mut per_slot = vec![Vec::new(); slots];
        for (j, idx) in wave.iter() {
            let Some((lo, hi)) = idx.day_span() else {
                continue;
            };
            let range = match q {
                ChaosQuery::Scan(r) => *r,
                _ => TimeRange::all(),
            };
            if !range.intersects_span(lo, hi) {
                continue;
            }
            per_slot[j] = match q {
                ChaosQuery::Probe(v) => idx.probe_in(&mut vol, v, range),
                ChaosQuery::Scan(r) => idx.scan_in(&mut vol, *r),
                // Batches are checked per value; slot answers for the
                // batch case are stored per first value and the rest
                // are appended flat (see `check_answer`).
                ChaosQuery::Batch(vs) => vs
                    .iter()
                    .map(|v| idx.probe_in(&mut vol, v, range))
                    .collect::<IndexResult<Vec<_>>>()
                    .map(|per_value| per_value.into_iter().flatten().collect()),
            }
            .expect("oracle query succeeds");
        }
        per_query_slot.push(per_slot);
    }
    wave.release_all(&mut vol).expect("oracle releases cleanly");
    assert_eq!(vol.live_blocks(), 0, "oracle leaked blocks");
    GenOracle { per_query_slot }
}

/// Groups an answer's entries by the slot that must have produced
/// them (slot contents are disjoint by day).
fn split_by_slot(
    entries: &[Entry],
    day_slot: &BTreeMap<u32, usize>,
    slots: usize,
) -> Vec<Vec<Entry>> {
    let mut per_slot = vec![Vec::new(); slots];
    for e in entries {
        let slot = *day_slot
            .get(&e.day.0)
            .unwrap_or_else(|| panic!("entry for unknown day {}", e.day.0));
        per_slot[slot].push(*e);
    }
    per_slot
}

/// The soak's core invariant: decomposed by slot, every covered slot
/// of `got` is byte-identical to generation A or generation B of that
/// slot, and the partial answer's `missing_slots` are exactly the
/// slots that contributed nothing they should have.
fn check_answer(
    got: &[Entry],
    partial: Option<&PartialAnswer>,
    want_a: &[Vec<Entry>],
    want_b: &[Vec<Entry>],
    day_slot: &BTreeMap<u32, usize>,
    ctx: &str,
) {
    let slots = want_a.len();
    let per_slot = split_by_slot(got, day_slot, slots);
    let missing: &[usize] = partial.map(|p| p.missing_slots.as_slice()).unwrap_or(&[]);
    for j in 0..slots {
        if missing.contains(&j) {
            assert!(
                per_slot[j].is_empty(),
                "{ctx}: slot {j} is declared missing but contributed entries"
            );
            continue;
        }
        assert!(
            per_slot[j] == want_a[j] || per_slot[j] == want_b[j],
            "{ctx}: slot {j} matches neither generation \
             (got {}, gen A {}, gen B {})",
            per_slot[j].len(),
            want_a[j].len(),
            want_b[j].len()
        );
    }
}

/// Second-generation content: the same day-partition shape re-filled
/// from an independently seeded workload, so every slot has two
/// distinguishable correct answers.
fn regenerate(partition: &[Vec<DayBatch>], soak: &ChaosSoak) -> Vec<Vec<DayBatch>> {
    let mut articles = ArticleGenerator::new(
        soak.vocab,
        soak.articles_per_day,
        soak.words_per_article,
        soak.seed ^ 0xB,
    );
    let mut archive = DayArchive::new();
    for d in 1..=soak.window {
        archive.insert(articles.day_batch(Day(d)));
    }
    partition
        .iter()
        .map(|batches| {
            batches
                .iter()
                .map(|b| archive.get(b.day).expect("same day set").clone())
                .collect()
        })
        .collect()
}

/// Runs the soak for every scheme. Panics on any invariant violation
/// — a wrong answer, a declared-covered slot that diverges, a hang,
/// or a storage leak at shutdown.
pub fn run_soak(soak: &ChaosSoak) -> Vec<ChaosReport> {
    assert!(soak.arms >= 2, "chaos soak needs a maintenance arm");
    soak.schemes
        .iter()
        .map(|&kind| run_scheme(kind, soak))
        .collect()
}

fn run_scheme(kind: SchemeKind, soak: &ChaosSoak) -> ChaosReport {
    let gen_a = scheme_partition(
        kind,
        soak.window,
        soak.fan,
        soak.articles_per_day,
        soak.words_per_article,
        soak.vocab,
        soak.seed,
    );
    let gen_b = regenerate(&gen_a, soak);
    let slots = gen_a.len();
    let day_slot: BTreeMap<u32, usize> = gen_a
        .iter()
        .enumerate()
        .flat_map(|(j, batches)| batches.iter().map(move |b| (b.day.0, j)))
        .collect();

    let queries = soak_queries(soak);
    let oracle_a = Arc::new(gen_oracle(&gen_a, &queries));
    let oracle_b = Arc::new(gen_oracle(&gen_b, &queries));
    let day_slot = Arc::new(day_slot);
    let queries = Arc::new(queries);

    let obs = Obs::new(Arc::new(MemorySink::new()));
    let server = Arc::new(
        WaveServer::launch(
            DiskArray::new(DiskConfig::default(), soak.arms),
            ServerConfig {
                reserve_maintenance_arm: true,
                ..ServerConfig::default()
            },
            obs.clone(),
        )
        .expect("chaos server launches"),
    );
    server
        .install_wave(gen_a.clone())
        .expect("chaos install succeeds");

    let ok = Arc::new(AtomicU64::new(0));
    let partial = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    // Readers: replay the query list, checking every completed answer.
    let readers: Vec<_> = (0..soak.readers)
        .map(|r| {
            let server = Arc::clone(&server);
            let queries = Arc::clone(&queries);
            let oracle_a = Arc::clone(&oracle_a);
            let oracle_b = Arc::clone(&oracle_b);
            let day_slot = Arc::clone(&day_slot);
            let (ok, partial, errors) =
                (Arc::clone(&ok), Arc::clone(&partial), Arc::clone(&errors));
            let n = soak.queries_per_reader;
            let scheme = kind.name();
            std::thread::spawn(move || {
                for i in 0..n {
                    let qi = (r + i) % queries.len();
                    let ctx = format!("{scheme} reader {r} query {i} (mix {qi})");
                    let outcome = match &queries[qi] {
                        ChaosQuery::Probe(v) => server
                            .probe(v, TimeRange::all())
                            .map(|q| (q.entries, q.partial)),
                        ChaosQuery::Scan(range) => {
                            server.scan(*range).map(|q| (q.entries, q.partial))
                        }
                        ChaosQuery::Batch(vs) => {
                            server.query_batch(vs, TimeRange::all()).map(|q| {
                                // The batch oracle stores, per slot,
                                // the concatenation of every value's
                                // answer; re-flatten the server's
                                // per-value answers the same way.
                                let mut merged: Vec<Entry> = Vec::new();
                                let per_slot: Vec<Vec<Entry>> = (0..q.per_value.len())
                                    .flat_map(|vi| {
                                        split_by_slot(
                                            &q.per_value[vi],
                                            &day_slot,
                                            oracle_a.per_query_slot[qi].len(),
                                        )
                                    })
                                    .collect();
                                // Re-flatten in slot-major order to
                                // match the oracle's per-slot layout.
                                let slots = oracle_a.per_query_slot[qi].len();
                                for j in 0..slots {
                                    for vi in 0..q.per_value.len() {
                                        merged.extend(per_slot[vi * slots + j].iter().cloned());
                                    }
                                }
                                (merged, q.partial)
                            })
                        }
                    };
                    match outcome {
                        Ok((entries, p)) => {
                            check_answer(
                                &entries,
                                p.as_ref(),
                                &oracle_a.per_query_slot[qi],
                                &oracle_b.per_query_slot[qi],
                                &day_slot,
                                &ctx,
                            );
                            if p.is_some() {
                                partial.fetch_add(1, Ordering::Relaxed);
                            } else {
                                ok.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        // Typed errors are an allowed resolution; the
                        // request did not hang and did not lie.
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();

    // Maintenance: commit epochs, alternating each slot's content
    // between the two generations.
    let maintenance = {
        let server = Arc::clone(&server);
        let gen_a = gen_a.clone();
        let gen_b = gen_b.clone();
        let rounds = soak.maintain_rounds;
        std::thread::spawn(move || {
            let mut flipped = vec![false; gen_a.len()];
            let mut ok = 0u64;
            let mut err = 0u64;
            for round in 0..rounds {
                let slot = round % gen_a.len();
                let next = if flipped[slot] { &gen_a } else { &gen_b };
                match server.maintain(slot, next[slot].clone()) {
                    Ok(_) => {
                        flipped[slot] = !flipped[slot];
                        ok += 1;
                    }
                    Err(_) => err += 1,
                }
                std::thread::yield_now();
            }
            (ok, err)
        })
    };

    // Chaos: a seeded schedule of kills, bursts, and quarantines.
    let chaos = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let events = soak.chaos_events;
        let arms = soak.arms;
        let seed = soak.seed ^ (kind as u64) << 8;
        std::thread::spawn(move || {
            let mut rng = SplitMix64::new(seed ^ 0xBADCAB);
            let mut kills = 0u64;
            let mut bursts = 0u64;
            let mut quarantines = 0u64;
            for _ in 0..events {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let arm = rng.range_u64(0, arms as u64 - 1) as usize;
                match rng.range_u64(0, 4) {
                    0 => {
                        let _ = server.kill_worker(arm);
                        kills += 1;
                    }
                    1 => {
                        // A blip shorter than the retry budget.
                        let count = rng.range_u64(1, 3);
                        let _ = server.inject_transient_reads(arm, 0, count);
                        bursts += 1;
                    }
                    2 => {
                        // A persistent window: fails past every retry
                        // until cleared below.
                        let _ = server.inject_transient_reads(arm, 0, 10_000);
                        bursts += 1;
                    }
                    3 => {
                        let _ = server.quarantine_arm(arm);
                        quarantines += 1;
                    }
                    _ => {
                        let _ = server.clear_arm_faults(arm);
                    }
                }
                for _ in 0..rng.range_u64(1, 8) {
                    std::thread::yield_now();
                }
            }
            (kills, bursts, quarantines)
        })
    };

    for r in readers {
        r.join().expect("reader panicked: invariant violated");
    }
    let (maintains_ok, maintains_err) = maintenance.join().expect("maintenance panicked");
    stop.store(true, Ordering::Relaxed);
    let (kills, bursts, quarantines) = chaos.join().expect("chaos thread panicked");

    // Heal: clear every fault, then whole answers must return within
    // a bounded number of probes (breaker cooldowns count down per
    // query). A server that cannot heal here hangs the soak — that is
    // the no-hang acceptance criterion, enforced by the bound.
    for arm in 0..soak.arms {
        server.clear_arm_faults(arm).expect("fault plans clear");
    }
    let heal_value = match &queries[0] {
        ChaosQuery::Probe(v) => v.clone(),
        _ => SearchValue::from("k"),
    };
    let mut healed = false;
    for _ in 0..10_000 {
        match server.probe(&heal_value, TimeRange::all()) {
            Ok(q) if q.partial.is_none() => {
                healed = true;
                break;
            }
            _ => std::thread::yield_now(),
        }
    }
    assert!(
        healed,
        "{}: server failed to heal after faults cleared",
        kind.name()
    );

    // Final sweep: every query answers whole and oracle-identical.
    for (qi, q) in queries.iter().enumerate() {
        let ctx = format!("{} final sweep query {qi}", kind.name());
        match q {
            ChaosQuery::Probe(v) => {
                let got = server.probe(v, TimeRange::all()).expect("healed probe");
                assert!(got.partial.is_none(), "{ctx}: still partial");
                check_answer(
                    &got.entries,
                    None,
                    &oracle_a.per_query_slot[qi],
                    &oracle_b.per_query_slot[qi],
                    &day_slot,
                    &ctx,
                );
            }
            ChaosQuery::Scan(range) => {
                let got = server.scan(*range).expect("healed scan");
                assert!(got.partial.is_none(), "{ctx}: still partial");
                check_answer(
                    &got.entries,
                    None,
                    &oracle_a.per_query_slot[qi],
                    &oracle_b.per_query_slot[qi],
                    &day_slot,
                    &ctx,
                );
            }
            ChaosQuery::Batch(_) => {}
        }
    }

    let report = ChaosReport {
        scheme: kind.name(),
        slots,
        ok: ok.load(Ordering::Relaxed),
        partial: partial.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        maintains_ok,
        maintains_err,
        kills,
        bursts,
        quarantines,
        worker_restarts: obs.counter("server.worker_restarts").get(),
        breaker_trips: obs.counter("server.breaker_trips").get(),
        read_retries: obs.counter("server.read_retries").get(),
    };
    // Shutdown last: its internal leak check is the storage-safety
    // gate (restarted and killed workers must not strand blocks).
    Arc::try_unwrap(server)
        .unwrap_or_else(|_| panic!("all soak threads joined"))
        .shutdown()
        .expect("chaos server shuts down leak-free");
    report
}

/// Runs the smoke or full soak and reports it: the soak parameters
/// and one row per scheme (`BENCH_chaos.json`). The soak itself panics
/// on any invariant violation (a wrong or silently-partial answer, a
/// failure to heal, a storage leak), so a report that exists has no
/// violations: reaching it means every completed answer matched the
/// single-threaded oracle.
pub fn report(smoke: bool) -> Report {
    let soak = if smoke {
        ChaosSoak::smoke()
    } else {
        ChaosSoak::full()
    };
    let reports = run_soak(&soak);
    let head = Row::new()
        .str(Json, "schema", "wave-bench/chaos/v1")
        .u64(Json, "window", soak.window as u64)
        .u64(Json, "fan", soak.fan as u64)
        .u64(Json, "arms", soak.arms as u64)
        .u64(Json, "readers", soak.readers as u64)
        .u64(Json, "queries_per_reader", soak.queries_per_reader as u64)
        .u64(Json, "maintain_rounds", soak.maintain_rounds as u64)
        .u64(Json, "chaos_events", soak.chaos_events as u64)
        .u64(Json, "seed", soak.seed);
    let case = |r: &ChaosReport| {
        Row::new()
            .str(Table, "scheme", r.scheme)
            .u64(Table, "slots", r.slots as u64)
            .u64(Table, "ok", r.ok)
            .u64(Table, "partial", r.partial)
            .u64(Table, "errors", r.errors)
            .u64(Table, "maintains_ok", r.maintains_ok)
            .u64(Table, "maintains_err", r.maintains_err)
            .u64(Table, "kills", r.kills)
            .u64(Table, "bursts", r.bursts)
            .u64(Table, "quarantines", r.quarantines)
            .u64(Table, "worker_restarts", r.worker_restarts)
            .u64(Table, "breaker_trips", r.breaker_trips)
            .u64(Table, "read_retries", r.read_retries)
    };
    Report {
        head,
        cases: Some(reports.iter().map(case).collect()),
        violations: Vec::new(),
        pass: "every completed answer matched the single-threaded oracle; \
               all arms healed and shut down leak-free"
            .to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_soak_survives_and_heals() {
        let soak = ChaosSoak::smoke();
        let reports = run_soak(&soak);
        assert_eq!(reports.len(), soak.schemes.len());
        for r in &reports {
            // Every request resolved; readers made real progress.
            let resolved = r.ok + r.partial + r.errors;
            assert_eq!(
                resolved,
                (soak.readers * soak.queries_per_reader) as u64,
                "{}: every request resolves exactly once",
                r.scheme
            );
            assert!(r.ok > 0, "{}: some answers must be whole", r.scheme);
            // The schedule actually injected chaos.
            assert!(
                r.kills + r.bursts + r.quarantines + r.maintains_ok + r.maintains_err > 0,
                "{}: chaos and maintenance ran",
                r.scheme
            );
        }
    }
}
