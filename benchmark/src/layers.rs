//! Per-layer attribution, measured from outside the engine.
//!
//! Three sources, all in the traced run:
//!
//! * **counters** — deltas of the engine's public
//!   `Obs::registry()` counters and the counting store, taken around
//!   the phases of each round (transition, probes, batches, commit);
//! * **timed calls** — a per-round *layer replay* that sends every
//!   16th probe value of the round through each layer's public
//!   functions on the workload's live state (filter -> directory ->
//!   disk -> constituent -> wave -> shared wave / server), plus fixed
//!   micro-runs of the calls no workload makes in isolation (bulk
//!   build, in-place add/delete, shadow copy, the three update
//!   techniques, the six schemes, CRC, encode/decode);
//! * **formulas** — differences of the above where one public call
//!   contains another (`index.probe_self_us`, `wave.probe_self_us`,
//!   `persist.commit_self_ms`, the `*.overhead_us` pairs).
//!
//! Calls that take nanoseconds are timed as one loop over all the
//! round's (constituent, value) pairs, under one span, and divided by
//! the call count: a span per call would mostly time the clock.
//!
//! The shared wave, the server and the plain wave they are compared
//! with hold identical data: the workload's first `W` days, built once
//! (the *side bench*). They report into an `Obs` of their own, so the
//! engine's counters stay the engine's.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use wave_index::concurrent::SharedWave;
use wave_index::directory::{BucketRef, Directory};
use wave_index::entry::decode_entries;
use wave_index::persist::{index_from_bytes, index_to_bytes, read_manifest};
use wave_index::schemes::{SchemeConfig, SchemeKind};
use wave_index::server::ServerConfig;
use wave_index::{
    ConstituentIndex, Day, DayArchive, DayBatch, Entry, IndexConfig, IngestConfig,
    MembershipFilter, RecoverReport, SearchValue, TimeRange, UpdateTechnique, Updater, WaveIndex,
    WaveServer, ENTRY_BYTES,
};
use wave_obs::{Counter, Obs};
use wave_storage::{
    crc64, DiskArray, DiskConfig, Extent, FileStore, IoScheduler, ReadRequest, Volume, WriteBuffer,
};
use wave_workloads::ArticleGenerator;

use crate::engine::{fail as err, fetch_owned, split_days, Engine, OpResult};
use crate::run::RoundSeries;
use crate::spans::{fold_self_times, op_closure, Recorder};
use crate::stats::{mean, median, ratio};
use crate::store::{CountingStore, StoreCounts};
use crate::workload::{Path as EnginePath, Spec};

/// Every this-many-th probe value of a round is replayed.
pub const REPLAY_STRIDE: usize = 16;

/// Engine counters sampled around each phase.
const COUNTERS: [&str; 17] = [
    "disk.seeks",
    "disk.blocks_read",
    "disk.blocks_written",
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "alloc.allocs",
    "alloc.frees",
    "sched.requests",
    "sched.merged",
    "sched.seeks_saved",
    "filter.checks",
    "filter.skips",
    "filter.false_positives",
    "ingest.spills",
    "ingest.spilled_entries",
    "store.retry_attempts",
];

/// Sum of counter deltas over one kind of phase.
#[derive(Debug, Clone, Default)]
struct PhaseSum(BTreeMap<&'static str, u64>);

impl PhaseSum {
    fn add(&mut self, before: &[u64], after: &[u64]) {
        for ((name, b), a) in COUNTERS.iter().zip(before).zip(after) {
            *self.0.entry(name).or_default() += a - b;
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0) as f64
    }
}

/// `(nanoseconds, calls)` accumulated per timed call.
#[derive(Debug, Default)]
struct Timed(BTreeMap<&'static str, (u64, u64)>);

impl Timed {
    fn add(&mut self, name: &'static str, ns: u64, calls: u64) {
        let e = self.0.entry(name).or_default();
        e.0 += ns;
        e.1 += calls;
    }

    /// Mean nanoseconds per call.
    fn ns(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .map_or(0.0, |(ns, n)| ratio(*ns as f64, *n as f64))
    }

    fn us(&self, name: &str) -> f64 {
        self.ns(name) / 1e3
    }

    fn total_ns(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |(ns, _)| *ns as f64)
    }

    fn calls(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |(_, n)| *n as f64)
    }
}

/// The shared wave, the server and the plain wave they are compared
/// with, all holding the workload's first `W` days.
struct SideBench {
    obs: Obs,
    twin: WaveIndex,
    twin_vol: Volume,
    shared: SharedWave,
    server: Option<WaveServer>,
    install_ms: f64,
    /// Owned batches of slot 0, for the `maintain` micro-run.
    slot0: Vec<DayBatch>,
    speedups: Vec<f64>,
}

impl SideBench {
    fn build(spec: &Spec, archive: &DayArchive) -> OpResult<Self> {
        let obs = Obs::noop();
        let index = spec.index_config();
        let disk = DiskConfig::default().with_cache(spec.cache_blocks);
        let clusters = split_days(1, spec.window, spec.fan);
        let build_wave = |vol: &mut Volume| -> OpResult<WaveIndex> {
            let mut wave = WaveIndex::with_slots(clusters.len());
            for (j, days) in clusters.iter().enumerate() {
                let batches: Vec<&DayBatch> = days.iter().filter_map(|d| archive.get(*d)).collect();
                let idx =
                    ConstituentIndex::build_packed(format!("I{}", j + 1), index, vol, &batches)
                        .map_err(err("side bench build"))?;
                wave.install(j, idx);
            }
            Ok(wave)
        };
        let mut twin_vol = Volume::with_disks_obs(disk, 1, obs.clone());
        let twin = build_wave(&mut twin_vol)?;
        let mut shared_vol = Volume::with_disks_obs(disk, 1, obs.clone());
        let shared = SharedWave::new(build_wave(&mut shared_vol)?, shared_vol);
        let arms = match spec.path {
            EnginePath::Server { arms } => arms,
            EnginePath::Scheme { .. } => 3,
        };
        let cfg = ServerConfig {
            index,
            reserve_maintenance_arm: true,
            ..ServerConfig::default()
        };
        let server = WaveServer::launch(DiskArray::new(disk, arms), cfg, obs.clone())
            .map_err(err("side server launch"))?;
        let slot_batches = clusters
            .iter()
            .map(|days| fetch_owned(archive, days))
            .collect::<OpResult<Vec<_>>>()?;
        let slot0 = slot_batches[0].clone();
        let t = Instant::now();
        server
            .install_wave(slot_batches)
            .map_err(err("side server install"))?;
        let install_ms = t.elapsed().as_secs_f64() * 1e3;
        Ok(SideBench {
            obs,
            twin,
            twin_vol,
            shared,
            server: Some(server),
            install_ms,
            slot0,
            speedups: Vec::new(),
        })
    }

    fn close(mut self) -> OpResult<()> {
        self.twin
            .release_all(&mut self.twin_vol)
            .map_err(err("release twin"))?;
        self.shared.release().map_err(err("release shared wave"))?;
        match self.server.take() {
            Some(s) => s.shutdown().map_err(err("side server shutdown")),
            None => Ok(()),
        }
    }
}

/// Everything the traced run accumulates.
pub struct Layers {
    rec: Recorder,
    index: IndexConfig,
    handles: Vec<Counter>,
    mark: Vec<u64>,
    transition: PhaseSum,
    probes: PhaseSum,
    batches: PhaseSum,
    depth_mark: (u64, u64),
    depth: (u64, u64),
    timed: Timed,
    side: Option<SideBench>,
    rounds: u64,
    probes_done: u64,
    batch_ops: u64,
    batch_values: u64,
    batch_ns: u64,
    new_entries: u64,
    gen_s: f64,
    commits: u64,
    commit_ms: Vec<f64>,
    commit_self_ms: Vec<f64>,
    commit_counts: StoreCounts,
    changed_entries: u64,
    manifest_us: Vec<f64>,
    reopen_counts: StoreCounts,
    pending_entries: Vec<f64>,
    free_fragments: f64,
    filter_bytes_per_value: f64,
    accessed_per_probe: f64,
    recover_ms: f64,
    fsck_ms: f64,
    rebuilds: f64,
    filter_rebuilds: f64,
    /// Distinct values of the first cluster, for directory and filter
    /// micro-runs.
    cluster_values: Vec<SearchValue>,
    /// The first cluster's batches, for build/update micro-runs.
    cluster: Vec<DayBatch>,
    seed_days: Vec<DayBatch>,
}

impl Layers {
    /// Prepares the traced run: counter handles, the side bench and
    /// the micro-run inputs, all from the first `W` days.
    pub fn new(spec: &Spec, archive: &DayArchive, obs: &Obs, rec: Recorder) -> OpResult<Self> {
        let clusters = split_days(1, spec.window, spec.fan);
        let cluster = fetch_owned(archive, &clusters[0])?;
        let cluster_values: BTreeSet<SearchValue> = cluster
            .iter()
            .flat_map(|b| b.records.iter())
            .flat_map(|r| r.values.iter().map(|(v, _)| v.clone()))
            .collect();
        // The six schemes and the three techniques run on one fixed
        // article stream of their own, whatever the workload indexes.
        let mut gen = ArticleGenerator::new(5000, MICRO_ARTICLES, 20, 0x5EED_1A7E);
        let seed_days = (1..=MICRO_DAYS).map(|d| gen.day_batch(Day(d))).collect();
        let handles: Vec<Counter> = COUNTERS.iter().map(|n| obs.counter(n)).collect();
        let mark = handles.iter().map(Counter::get).collect();
        Ok(Layers {
            rec,
            index: spec.index_config(),
            handles,
            mark,
            transition: PhaseSum::default(),
            probes: PhaseSum::default(),
            batches: PhaseSum::default(),
            depth_mark: (0, 0),
            depth: (0, 0),
            timed: Timed::default(),
            side: Some(SideBench::build(spec, archive)?),
            rounds: 0,
            probes_done: 0,
            batch_ops: 0,
            batch_values: 0,
            batch_ns: 0,
            new_entries: 0,
            gen_s: 0.0,
            commits: 0,
            commit_ms: Vec::new(),
            commit_self_ms: Vec::new(),
            commit_counts: StoreCounts::default(),
            changed_entries: 0,
            manifest_us: Vec::new(),
            reopen_counts: StoreCounts::default(),
            pending_entries: Vec::new(),
            free_fragments: 0.0,
            filter_bytes_per_value: 0.0,
            accessed_per_probe: 0.0,
            recover_ms: 0.0,
            fsck_ms: 0.0,
            rebuilds: 0.0,
            filter_rebuilds: 0.0,
            cluster_values: cluster_values.into_iter().collect(),
            cluster,
            seed_days,
        })
    }

    fn snapshot(&self) -> Vec<u64> {
        self.handles.iter().map(Counter::get).collect()
    }

    fn depth_now(obs: &Obs) -> (u64, u64) {
        let h = obs.histogram("dir.probe_depth");
        (h.count(), h.sum())
    }

    /// Marks the start of a round's transition phase.
    pub fn begin_round(&mut self, new_entries: u64, gen_s: f64) {
        self.new_entries += new_entries;
        self.gen_s += gen_s;
        self.mark = self.snapshot();
    }

    /// Closes the transition phase, opens the probe phase.
    pub fn after_transition(&mut self, obs: &Obs) {
        let now = self.snapshot();
        self.transition.add(&self.mark, &now);
        self.mark = now;
        self.depth_mark = Self::depth_now(obs);
    }

    /// Closes the probe phase, opens the batch phase.
    pub fn after_probes(&mut self, obs: &Obs, probes: u64) {
        let now = self.snapshot();
        self.probes.add(&self.mark, &now);
        self.mark = now;
        let (c, s) = Self::depth_now(obs);
        self.depth.0 += c - self.depth_mark.0;
        self.depth.1 += s - self.depth_mark.1;
        self.probes_done += probes;
    }

    /// Closes the batch phase.
    pub fn after_batches(&mut self, ops: u64, values: u64, ns: u64) {
        let now = self.snapshot();
        self.batches.add(&self.mark, &now);
        self.mark = now;
        self.batch_ops += ops;
        self.batch_values += values;
        self.batch_ns += ns;
    }

    /// Accounts one commit: the store's share of it, the bytes it
    /// wrote and the entries that changed since the previous one.
    /// Commits are the only traffic the run's store sees, so its
    /// counters are the commits' own; the manifest is read back past
    /// the counting wrapper.
    pub fn after_commit(
        &mut self,
        store: &mut CountingStore<FileStore>,
        commit_ms: f64,
        changed_entries: u64,
    ) {
        let counts = store.counts();
        let busy_ms = counts.since(&self.commit_counts).busy_ns() as f64 / 1e6;
        self.commit_counts = counts;
        self.commits += 1;
        self.commit_ms.push(commit_ms);
        self.commit_self_ms.push(commit_ms - busy_ms);
        self.changed_entries += changed_entries;
        let t = Instant::now();
        let manifest = self
            .rec
            .time("persist.read_manifest", || read_manifest(store.inner_mut()));
        if matches!(manifest, Ok(Some(_))) {
            self.manifest_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }

    /// Samples end-of-round state: pending ingest entries, allocator
    /// fragmentation, filter size.
    pub fn end_round(&mut self, obs: &Obs, engine: &mut dyn Engine) {
        self.rounds += 1;
        self.accessed_per_probe = engine.accessed_per_probe();
        self.free_fragments = obs.gauge("alloc.free_fragments").get();
        if let Some((wave, _)) = engine.live() {
            let pending: u64 = wave
                .iter()
                .map(|(_, idx)| idx.ingest().pending_entries())
                .sum();
            self.pending_entries.push(pending as f64);
            self.filter_bytes_per_value = filter_bytes_per_value(wave);
        } else {
            self.pending_entries.push(0.0);
        }
    }

    /// Store traffic of the last reopen.
    pub fn after_reopen(&mut self, counts: StoreCounts) {
        self.reopen_counts = counts;
    }

    /// Outcome of the recover drill.
    pub fn after_recover(&mut self, recover_ms: f64, fsck_ms: f64, report: &RecoverReport) {
        self.recover_ms = recover_ms;
        self.fsck_ms = fsck_ms;
        self.rebuilds = report.rebuilt.len() as f64;
        self.filter_rebuilds = report.rebuilt_filters.len() as f64;
    }

    /// Times `f` under a span and accounts it as `calls` calls of
    /// `name`.
    fn timed<T>(&mut self, name: &'static str, calls: u64, f: impl FnOnce() -> T) -> T {
        let (out, ns) = self.clocked(name, f);
        self.timed.add(name, ns as u64, calls);
        out
    }

    /// The per-round layer replay.
    pub fn replay(
        &mut self,
        engine: &mut dyn Engine,
        values: &[SearchValue],
        range: TimeRange,
        scan_range: TimeRange,
    ) -> OpResult<()> {
        let values: Vec<&SearchValue> = values.iter().step_by(REPLAY_STRIDE).collect();
        let root = self.rec.begin("replay");
        let mut side = self.side.take().ok_or("side bench already closed")?;
        let live = match engine.live() {
            Some((wave, vol)) => self.replay_wave(wave, vol, &values, range, scan_range),
            // A server keeps its constituents to itself: its replay
            // runs on the side bench's plain wave over the same days.
            None => {
                let all = TimeRange::all();
                let newest =
                    TimeRange::since(side.twin.covered_days().last().copied().unwrap_or(Day(1)));
                self.replay_wave(&side.twin, &mut side.twin_vol, &values, all, newest)
            }
        };
        let sided = live.and_then(|()| self.replay_side(&mut side, &values));
        self.side = Some(side);
        self.rec.end(root);
        sided
    }

    fn replay_wave(
        &mut self,
        wave: &WaveIndex,
        vol: &mut Volume,
        values: &[&SearchValue],
        range: TimeRange,
        scan_range: TimeRange,
    ) -> OpResult<()> {
        let in_range = |idx: &ConstituentIndex, r: TimeRange| {
            idx.day_span()
                .is_some_and(|(lo, hi)| r.intersects_span(lo, hi))
        };
        let slots: Vec<&ConstituentIndex> = wave
            .iter()
            .map(|(_, idx)| idx)
            .filter(|idx| in_range(idx, range))
            .collect();
        // Classify every (constituent, value) pair once, untimed.
        let mut present: Vec<(&ConstituentIndex, &SearchValue, BucketRef)> = Vec::new();
        let mut absent: Vec<(&ConstituentIndex, &SearchValue)> = Vec::new();
        for idx in &slots {
            for value in values {
                match idx.bucket_for(vol, value) {
                    Some(b) if b.count > 0 => present.push((idx, value, b)),
                    _ => absent.push((idx, value)),
                }
            }
        }
        let pairs = (present.len() + absent.len()) as u64;

        self.timed("filter.may_contain", pairs, || {
            for (idx, value) in present
                .iter()
                .map(|(i, v, _)| (i, v))
                .chain(absent.iter().map(|(i, v)| (i, v)))
            {
                black_box(idx.membership_filter().map(|f| f.may_contain(value)));
            }
        });
        self.timed("directory.bucket_for", present.len() as u64, || {
            for (idx, value, _) in &present {
                black_box(idx.bucket_for(vol, value));
            }
        });
        self.timed("directory.bucket_for_miss", absent.len() as u64, || {
            for (idx, value) in &absent {
                black_box(idx.bucket_for(vol, value));
            }
        });
        self.timed("index.prune_probe", pairs, || {
            for (idx, value) in present
                .iter()
                .map(|(i, v, _)| (i, v))
                .chain(absent.iter().map(|(i, v)| (i, v)))
            {
                black_box(idx.prune_probe(vol, value));
            }
        });
        let raw = self.timed("disk.read_at", present.len() as u64, || {
            present
                .iter()
                .map(|(_, _, b)| vol.read_at(b.extent, b.offset, b.count as usize * ENTRY_BYTES))
                .collect::<Result<Vec<_>, _>>()
        });
        let raw = raw.map_err(err("replay read_at"))?;
        let decoded: Vec<Vec<Entry>> = raw
            .iter()
            .zip(&present)
            .map(|(bytes, (_, _, b))| decode_entries(bytes, b.count as usize))
            .collect();
        self.timed("ingest.overlay_pending", present.len() as u64, || {
            for ((idx, value, _), entries) in present.iter().zip(decoded) {
                black_box(idx.overlay_pending(value, entries));
            }
        });
        let mut returned = 0u64;
        let probed = self.timed("index.probe", present.len() as u64, || {
            for (idx, value, _) in &present {
                returned += idx.probe(vol, value)?.len() as u64;
            }
            Ok::<(), wave_index::IndexError>(())
        });
        probed.map_err(err("replay constituent probe"))?;
        self.timed.add("index.probe_entries", 0, returned);

        // One wave probe against the constituent probes it contains.
        // The contained calls run before and after the containing one,
        // so a cache warmed by whichever pass ran first does not bias
        // the difference.
        for pass in 0..3 {
            let timed = if pass == 1 {
                self.timed("wave.timed_index_probe", values.len() as u64, || {
                    for value in values {
                        black_box(wave.timed_index_probe(vol, value, range)?);
                    }
                    Ok::<(), wave_index::IndexError>(())
                })
            } else {
                self.timed("index.probe_in", values.len() as u64, || {
                    for idx in &slots {
                        for value in values {
                            black_box(idx.probe_in(vol, value, range)?);
                        }
                    }
                    Ok::<(), wave_index::IndexError>(())
                })
            };
            timed.map_err(err("replay wave probe"))?;
        }

        // The same buckets as one scheduled sweep.
        let requests: Vec<ReadRequest> = present
            .iter()
            .map(|(_, _, b)| ReadRequest::new(b.extent, b.offset, b.count as usize * ENTRY_BYTES))
            .collect();
        if !requests.is_empty() {
            let swept = self.timed("sched.read_batch", requests.len() as u64, || {
                IoScheduler::read_batch(vol, &requests).map(black_box)
            });
            swept.map_err(err("replay read_batch"))?;
        }

        // One wave scan against the constituent scans it contains.
        let scan_slots: Vec<&ConstituentIndex> = wave
            .iter()
            .map(|(_, idx)| idx)
            .filter(|idx| in_range(idx, scan_range))
            .collect();
        let scanned: u64 = scan_slots.iter().map(|idx| idx.entry_count()).sum();
        let mut out = 0u64;
        for pass in 0..3 {
            let timed = if pass == 1 {
                self.timed("wave.timed_segment_scan", 1, || {
                    out = wave.timed_segment_scan(vol, scan_range)?.entries.len() as u64;
                    Ok::<(), wave_index::IndexError>(())
                })
            } else {
                self.timed("index.scan_in", scanned, || {
                    for idx in &scan_slots {
                        black_box(idx.scan_in(vol, scan_range)?);
                    }
                    Ok::<(), wave_index::IndexError>(())
                })
            };
            timed.map_err(err("replay wave scan"))?;
        }
        self.timed.add("wave.scan_entries", 0, out);
        Ok(())
    }

    fn replay_side(&mut self, side: &mut SideBench, values: &[&SearchValue]) -> OpResult<()> {
        let all = TimeRange::all();
        let n = values.len() as u64;
        let twin = self.timed("wave.twin_probe", n, || {
            for value in values {
                black_box(
                    side.twin
                        .timed_index_probe(&mut side.twin_vol, value, all)?,
                );
            }
            Ok::<(), wave_index::IndexError>(())
        });
        twin.map_err(err("replay twin probe"))?;
        let shared = self.timed("concurrent.probe", n, || {
            for value in values {
                black_box(side.shared.probe(value, all)?);
            }
            Ok::<(), wave_index::IndexError>(())
        });
        shared.map_err(err("replay shared probe"))?;
        let server = side.server.as_ref().ok_or("side server already closed")?;
        let mut speedups = Vec::with_capacity(values.len());
        let served = self.timed("server.probe", n, || {
            for value in values {
                let q = server.probe(value, all)?;
                if q.serial_seconds > 0.0 {
                    speedups.push(q.speedup());
                }
            }
            Ok::<(), wave_index::IndexError>(())
        });
        served.map_err(err("replay server probe"))?;
        side.speedups.extend(speedups);
        let owned: Vec<SearchValue> = values.iter().map(|v| (*v).clone()).collect();
        let batched = self.timed("server.query_batch", n, || {
            server.query_batch(&owned, all).map(black_box)
        });
        batched.map_err(err("replay server batch"))?;
        Ok(())
    }

    /// Runs the fixed micro-runs, folds the spans, writes the trace
    /// file and returns every per-layer metric in catalog order.
    pub fn finish(
        mut self,
        obs: &Obs,
        series: &RoundSeries,
        scratch: &Path,
        workload: &str,
    ) -> OpResult<Vec<(&'static str, f64)>> {
        self.rec.set_enabled(true);
        let micro = self.rec.begin("micro");
        let m = self.micro_runs()?;
        self.rec.end(micro);
        let side = self.side.take().ok_or("side bench already closed")?;
        let maintain_ms = {
            let server = side.server.as_ref().ok_or("side server already closed")?;
            let mut ms = Vec::new();
            for _ in 0..3 {
                let batches = side.slot0.clone();
                let t = Instant::now();
                self.rec
                    .time("server.maintain", || server.maintain(0, batches))
                    .map_err(err("side server maintain"))?;
                ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            median(&ms).unwrap_or(0.0)
        };
        let side_queries = side.obs.counter("server.queries").get() as f64;
        let side_elisions = side.obs.counter("filter.arm_elisions").get() as f64;
        let fault = |name: &str| (obs.counter(name).get() + side.obs.counter(name).get()) as f64;
        let worker_restarts = fault("server.worker_restarts");
        let read_retries = fault("server.read_retries");
        let degraded = fault("server.degraded_queries");
        let speedup = mean(&side.speedups);
        let install_ms = side.install_ms;
        if self.filter_bytes_per_value == 0.0 {
            self.filter_bytes_per_value = filter_bytes_per_value(&side.twin);
        }
        side.close()?;

        // Spans: per op kind, children plus self must add up to the op.
        let spans = self.rec.snapshot();
        for (name, (total, parts)) in op_closure(&spans) {
            let off = (total as f64 - parts as f64).abs();
            if off > 0.01 * total as f64 {
                return Err(format!(
                    "{name}: self times add up to {parts} ns, spans to {total} ns"
                ));
            }
        }
        let mut folded: Vec<_> = fold_self_times(&spans).into_iter().collect();
        folded.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
        println!("  self time by span name (span minus its children), top 12:");
        for (name, t) in folded.iter().take(12) {
            println!(
                "    {:<28} {:>8} spans {:>12.3} ms total {:>12.3} ms self",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        std::fs::create_dir_all(scratch).map_err(err("trace dir"))?;
        self.rec
            .write_jsonl(&scratch.join(format!("trace-{workload}.jsonl")))
            .map_err(err("write trace"))?;

        let t = &self.timed;
        let (traced, untraced): (Vec<_>, Vec<_>) =
            series.probe_mean_us.iter().partition(|(traced, _)| *traced);
        let side_of =
            |v: Vec<&(bool, f64)>| median(&v.iter().map(|(_, us)| *us).collect::<Vec<_>>());
        let overhead = match (side_of(traced), side_of(untraced)) {
            (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
            _ => 0.0,
        };
        let probes = self.probes_done as f64;
        let rounds = self.rounds as f64;
        let commits = self.commits as f64;
        let cc = self.commit_counts;
        let rc = self.reopen_counts;
        let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
        let filter_checks = self.probes.get("filter.checks") + self.batches.get("filter.checks");
        let probe_hit_us = t.us("index.probe");
        let wave_probe_us = t.us("wave.timed_index_probe");
        let twin_us = t.us("wave.twin_probe");
        let scan_out = t.calls("wave.scan_entries");
        Ok(vec![
            (
                "disk.seeks_per_probe",
                ratio(self.probes.get("disk.seeks"), probes),
            ),
            (
                "disk.blocks_read_per_probe",
                ratio(self.probes.get("disk.blocks_read"), probes),
            ),
            (
                "disk.blocks_written_per_entry",
                ratio(
                    self.transition.get("disk.blocks_written"),
                    self.new_entries as f64,
                ),
            ),
            ("disk.read_us", t.us("disk.read_at")),
            ("disk.write_mb_per_s", m.write_mb_per_s),
            (
                "cache.hit_ratio",
                ratio(
                    self.probes.get("cache.hits"),
                    self.probes.get("cache.hits") + self.probes.get("cache.misses"),
                ),
            ),
            (
                "cache.evictions_per_probe",
                ratio(self.probes.get("cache.evictions"), probes),
            ),
            (
                "alloc.ops_per_day",
                ratio(
                    self.transition.get("alloc.allocs") + self.transition.get("alloc.frees"),
                    rounds,
                ),
            ),
            ("alloc.free_fragments_end", self.free_fragments),
            ("alloc.alloc_us", m.alloc_us),
            ("sched.read_batch_us_per_request", t.us("sched.read_batch")),
            (
                "sched.merge_ratio",
                ratio(
                    self.batches.get("sched.merged"),
                    self.batches.get("sched.requests"),
                ),
            ),
            (
                "sched.seeks_saved_per_batch",
                ratio(self.batches.get("sched.seeks_saved"), self.batch_ops as f64),
            ),
            ("sched.flush_mb_per_s", m.flush_mb_per_s),
            ("file.puts_per_commit", ratio(cc.puts as f64, commits)),
            ("file.bytes_per_commit", ratio(cc.put_bytes as f64, commits)),
            (
                "file.put_ms_per_mb",
                ratio(cc.put_ns as f64 / 1e6, mb(cc.put_bytes)),
            ),
            (
                "file.get_ms_per_mb",
                ratio(rc.get_ns as f64 / 1e6, mb(rc.get_bytes)),
            ),
            (
                "file.busy_share_of_commit",
                ratio(
                    cc.busy_ns() as f64 / 1e6,
                    self.commit_ms.iter().sum::<f64>(),
                ),
            ),
            ("checksum.crc64_mb_per_s", m.crc_mb_per_s),
            ("directory.get_ns", t.ns("directory.bucket_for")),
            ("directory.get_miss_ns", t.ns("directory.bucket_for_miss")),
            (
                "directory.probe_depth_mean",
                ratio(self.depth.1 as f64, self.depth.0 as f64),
            ),
            ("directory.insert_ns", m.dir_insert_ns),
            ("directory.from_sorted_ns_per_key", m.dir_from_sorted_ns),
            ("filter.may_contain_ns", t.ns("filter.may_contain")),
            (
                "filter.skip_ratio",
                ratio(
                    self.probes.get("filter.skips") + self.batches.get("filter.skips"),
                    filter_checks,
                ),
            ),
            (
                "filter.false_positive_ratio",
                ratio(
                    self.probes.get("filter.false_positives")
                        + self.batches.get("filter.false_positives"),
                    filter_checks,
                ),
            ),
            ("filter.build_ns_per_value", m.filter_build_ns),
            ("filter.bytes_per_value", self.filter_bytes_per_value),
            ("ingest.buffer_update_ns_per_entry", m.buffer_update_ns),
            (
                "ingest.overlay_ns_per_probe",
                t.ns("ingest.overlay_pending"),
            ),
            ("ingest.spill_ms", m.spill_ms),
            (
                "ingest.spills_per_day",
                ratio(self.transition.get("ingest.spills"), rounds),
            ),
            (
                "ingest.entries_per_spill",
                ratio(
                    self.transition.get("ingest.spilled_entries"),
                    self.transition.get("ingest.spills"),
                ),
            ),
            ("ingest.pending_entries_mean", mean(&self.pending_entries)),
            (
                "ingest.log_bytes_per_commit",
                ratio(cc.ingest_log_bytes as f64, commits),
            ),
            ("index.build_packed_ns_per_entry", m.build_packed_ns),
            ("index.add_in_place_ns_per_entry", m.add_in_place_ns),
            ("index.delete_in_place_ns_per_entry", m.delete_in_place_ns),
            ("index.clone_shadow_ms", m.clone_shadow_ms),
            ("index.prune_probe_ns", t.ns("index.prune_probe")),
            ("index.probe_hit_us", probe_hit_us),
            (
                "index.probe_ns_per_entry",
                ratio(t.total_ns("index.probe"), t.calls("index.probe_entries")),
            ),
            ("index.scan_ns_per_entry", t.ns("index.scan_in")),
            (
                "index.probe_self_us",
                probe_hit_us
                    - (t.ns("filter.may_contain") + t.ns("directory.bucket_for")) / 1e3
                    - t.us("disk.read_at"),
            ),
            ("update.in_place_ms_per_day", m.update_ms[0]),
            ("update.simple_shadow_ms_per_day", m.update_ms[1]),
            ("update.packed_shadow_ms_per_day", m.update_ms[2]),
            ("schemes.transition_ms.del", m.scheme_ms[0]),
            ("schemes.transition_ms.reindex", m.scheme_ms[1]),
            ("schemes.transition_ms.reindex_plus", m.scheme_ms[2]),
            ("schemes.transition_ms.reindex_plus_plus", m.scheme_ms[3]),
            ("schemes.transition_ms.wata", m.scheme_ms[4]),
            ("schemes.transition_ms.rata", m.scheme_ms[5]),
            ("wave.probe_self_us", wave_probe_us - t.us("index.probe_in")),
            (
                "wave.query_batch_us_per_value",
                ratio(self.batch_ns as f64 / 1e3, self.batch_values as f64),
            ),
            ("wave.indexes_accessed_per_probe", self.accessed_per_probe),
            (
                "wave.scan_self_ns_per_entry",
                // The contained scans ran twice per containing scan.
                ratio(
                    t.total_ns("wave.timed_segment_scan") - t.total_ns("index.scan_in") / 2.0,
                    scan_out,
                ),
            ),
            ("concurrent.probe_us", t.us("concurrent.probe")),
            ("concurrent.overhead_us", t.us("concurrent.probe") - twin_us),
            ("server.probe_us", t.us("server.probe")),
            ("server.overhead_us", t.us("server.probe") - twin_us),
            (
                "server.query_batch_us_per_value",
                t.us("server.query_batch"),
            ),
            ("server.install_ms", install_ms),
            ("server.maintain_ms", maintain_ms),
            (
                "server.arm_elision_ratio",
                ratio(side_elisions, side_queries),
            ),
            ("server.sim_speedup_mean", speedup),
            ("server.worker_restarts", worker_restarts),
            ("server.read_retries", read_retries),
            ("server.degraded_queries", degraded),
            ("persist.encode_ns_per_entry", m.encode_ns),
            ("persist.decode_ns_per_entry", m.decode_ns),
            (
                "persist.commit_self_ms",
                median(&self.commit_self_ms).unwrap_or(0.0),
            ),
            (
                "persist.commit_bytes_per_changed_entry",
                ratio(cc.put_bytes as f64, self.changed_entries as f64),
            ),
            (
                "persist.manifest_us",
                median(&self.manifest_us).unwrap_or(0.0),
            ),
            (
                "persist.retry_attempts",
                obs.counter("store.retry_attempts").get() as f64,
            ),
            ("recovery.fsck_ms", self.fsck_ms),
            ("recovery.recover_ms", self.recover_ms),
            ("recovery.rebuilds", self.rebuilds),
            ("recovery.filter_rebuilds", self.filter_rebuilds),
            (
                "workloads.gen_entries_per_s",
                ratio(self.new_entries as f64, self.gen_s),
            ),
            ("obs.trace_overhead_share", overhead),
            ("trace.rounds", rounds),
            ("trace.spans", spans.len() as f64),
        ])
    }
}

/// Filter bytes per distinct indexed value, over a wave's constituents.
fn filter_bytes_per_value(wave: &WaveIndex) -> f64 {
    let (bytes, values) = wave.iter().fold((0usize, 0usize), |(b, v), (_, idx)| {
        (
            b + idx
                .membership_filter()
                .map_or(0, |f| f.block_count() * std::mem::size_of::<u64>()),
            v + idx.distinct_values(),
        )
    });
    ratio(bytes as f64, values as f64)
}

/// Articles per day of the fixed stream the scheme and technique
/// micro-runs index (20 words each).
const MICRO_ARTICLES: usize = 125;
/// Window and fan-out of the scheme micro-runs.
const MICRO_WINDOW: u32 = 14;
const MICRO_FAN: usize = 4;
/// Days of the fixed stream: one window to start plus 28 transitions.
const MICRO_DAYS: u32 = MICRO_WINDOW + 28;
/// Bytes the disk, flush and CRC micro-runs move.
const MICRO_BYTES: usize = 4 << 20;

/// Results of the fixed micro-runs.
struct Micro {
    write_mb_per_s: f64,
    alloc_us: f64,
    flush_mb_per_s: f64,
    crc_mb_per_s: f64,
    dir_insert_ns: f64,
    dir_from_sorted_ns: f64,
    filter_build_ns: f64,
    buffer_update_ns: f64,
    spill_ms: f64,
    build_packed_ns: f64,
    add_in_place_ns: f64,
    delete_in_place_ns: f64,
    clone_shadow_ms: f64,
    update_ms: [f64; 3],
    scheme_ms: [f64; 6],
    encode_ns: f64,
    decode_ns: f64,
}

impl Layers {
    /// Times `f` under a span named `name`, returning its result and
    /// the nanoseconds it took.
    fn clocked<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.rec.begin(name);
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as f64;
        self.rec.end(span);
        (out, ns)
    }

    fn micro_runs(&self) -> OpResult<Micro> {
        let mb = MICRO_BYTES as f64 / (1024.0 * 1024.0);
        let payload: Vec<u8> = (0..MICRO_BYTES).map(|i| (i * 31 % 251) as u8).collect();
        let mut vol = Volume::default();

        // disk, alloc, sched, checksum: raw storage calls.
        let extent = vol.alloc_bytes(MICRO_BYTES).map_err(err("micro alloc"))?;
        let (wrote, ns) = self.clocked("disk.write_at", || vol.write_at(extent, 0, &payload));
        wrote.map_err(err("micro write_at"))?;
        let write_mb_per_s = mb / (ns / 1e9);
        let (flushed, ns) = self.clocked("sched.flush", || {
            let mut wb = WriteBuffer::new();
            for (i, chunk) in payload.chunks(16 * 1024).enumerate() {
                wb.buffer_write(extent, i * 16 * 1024, chunk)?;
            }
            wb.flush(&mut vol)
        });
        flushed.map_err(err("micro flush"))?;
        let flush_mb_per_s = mb / (ns / 1e9);
        vol.free(extent).map_err(err("micro free"))?;
        let (alloced, ns) = self.clocked("alloc.alloc_free", || {
            for _ in 0..1000 {
                let e: Extent = vol.alloc_blocks(8)?;
                vol.free(e)?;
            }
            Ok::<(), wave_storage::StorageError>(())
        });
        alloced.map_err(err("micro alloc/free"))?;
        let alloc_us = ns / 1e3 / 1000.0;
        let (_, ns) = self.clocked("checksum.crc64", || black_box(crc64(&payload)));
        let crc_mb_per_s = mb / (ns / 1e9);

        // directory and filter: the first cluster's distinct values.
        let keys = self.cluster_values.len().max(1) as f64;
        let bucket = BucketRef {
            extent: Extent::new(0, 1),
            offset: 0,
            count: 1,
            capacity: 1,
            owned: false,
        };
        let kind = self.index.directory;
        let (_, ns) = self.clocked("directory.insert", || {
            let mut d = Directory::new(kind);
            for v in &self.cluster_values {
                d.insert(v.clone(), bucket);
            }
            black_box(d.len())
        });
        let dir_insert_ns = ns / keys;
        let pairs: Vec<(SearchValue, BucketRef)> = self
            .cluster_values
            .iter()
            .map(|v| (v.clone(), bucket))
            .collect();
        let (_, ns) = self.clocked("directory.from_sorted", || {
            black_box(Directory::from_sorted(kind, pairs).len())
        });
        let dir_from_sorted_ns = ns / keys;
        let (_, ns) = self.clocked("filter.build", || {
            black_box(MembershipFilter::build(
                self.index.filter,
                self.cluster_values.len(),
                &self.cluster_values,
            ))
        });
        let filter_build_ns = ns / keys;

        // index: bulk build, in-place add and delete, shadow copy —
        // on the workload's own first cluster.
        let entries_of = |b: &[&DayBatch]| b.iter().map(|d| d.entry_count()).sum::<usize>() as f64;
        let all: Vec<&DayBatch> = self.cluster.iter().collect();
        let (head, last) = all.split_at(all.len() - 1);
        let first_day: BTreeSet<Day> = [all[0].day].into();
        let plain = IndexConfig {
            ingest: IngestConfig::default(),
            ..self.index
        };
        let (built, ns) = self.clocked("index.build_packed", || {
            ConstituentIndex::build_packed("micro", plain, &mut vol, &all)
        });
        let built = built.map_err(err("micro build_packed"))?;
        let build_packed_ns = ns / entries_of(&all).max(1.0);

        // persist: encode and decode that same constituent.
        let (image, ns) = self.clocked("persist.index_to_bytes", || {
            index_to_bytes(&built, &mut vol)
        });
        let image = image.map_err(err("micro encode"))?;
        let encode_ns = ns / built.entry_count().max(1) as f64;
        let (decoded, ns) = self.clocked("persist.index_from_bytes", || {
            index_from_bytes(plain, &mut vol, &image)
        });
        let decoded = decoded.map_err(err("micro decode"))?;
        let decode_ns = ns / decoded.entry_count().max(1) as f64;
        decoded.release(&mut vol).map_err(err("micro release"))?;
        built.release(&mut vol).map_err(err("micro release"))?;

        let mut idx = ConstituentIndex::build_packed("micro", plain, &mut vol, head)
            .map_err(err("micro build"))?;
        let (cloned, ns) = self.clocked("index.clone_shadow", || {
            idx.clone_shadow(&mut vol, "shadow")
        });
        cloned
            .map_err(err("micro clone_shadow"))?
            .release(&mut vol)
            .map_err(err("micro release"))?;
        let clone_shadow_ms = ns / 1e6;
        let (added, ns) = self.clocked("index.add_in_place", || {
            idx.add_batches_in_place(&mut vol, last)
        });
        added.map_err(err("micro add_in_place"))?;
        let add_in_place_ns = ns / entries_of(last).max(1.0);
        let (deleted, ns) = self.clocked("index.delete_in_place", || {
            idx.delete_days_in_place(&mut vol, &first_day)
        });
        deleted.map_err(err("micro delete_in_place"))?;
        let delete_in_place_ns = ns / entries_of(&all[..1]).max(1.0);
        idx.release(&mut vol).map_err(err("micro release"))?;

        // ingest: buffer one day, then spill it.
        let buffered = IndexConfig {
            ingest: IngestConfig {
                enabled: true,
                max_entries: usize::MAX,
                max_days: u32::MAX,
            },
            ..self.index
        };
        let mut idx = ConstituentIndex::build_packed("micro", buffered, &mut vol, head)
            .map_err(err("micro build"))?;
        let (_, ns) = self.clocked("ingest.buffer_update", || {
            idx.buffer_update(&vol, &first_day, last);
        });
        let buffer_update_ns = ns / (entries_of(last) + entries_of(&all[..1])).max(1.0);
        let (spilled, ns) = self.clocked("ingest.spill", || {
            Updater::new(UpdateTechnique::InPlace).spill(&mut vol, &mut idx)
        });
        spilled.map_err(err("micro spill"))?;
        let spill_ms = ns / 1e6;
        idx.release(&mut vol).map_err(err("micro release"))?;

        // update: one day expired and one added under each technique,
        // on the fixed stream.
        let seed: Vec<&DayBatch> = self.seed_days.iter().collect();
        let (base, incoming) = (&seed[..4], &seed[4..5]);
        let expired: BTreeSet<Day> = [base[0].day].into();
        let mut update_ms = [0.0; 3];
        for (slot, technique) in [
            UpdateTechnique::InPlace,
            UpdateTechnique::SimpleShadow,
            UpdateTechnique::PackedShadow,
        ]
        .into_iter()
        .enumerate()
        {
            let mut idx = ConstituentIndex::build_packed("micro", plain, &mut vol, base)
                .map_err(err("micro build"))?;
            let (updated, ns) = self.clocked("update.update", || {
                Updater::new(technique).update(&mut vol, &mut idx, &expired, incoming)
            });
            updated.map_err(err("micro update"))?;
            update_ms[slot] = ns / 1e6;
            idx.release(&mut vol).map_err(err("micro release"))?;
        }
        if vol.live_blocks() != 0 {
            return Err(format!("micro-runs leaked {} blocks", vol.live_blocks()));
        }

        // schemes: all six on the fixed stream.
        let mut scheme_ms = [0.0; 6];
        for (slot, kind) in SchemeKind::ALL.into_iter().enumerate() {
            let mut vol = Volume::default();
            let cfg = SchemeConfig::new(MICRO_WINDOW, MICRO_FAN).with_index(plain);
            let mut scheme = kind.build(cfg).map_err(err("micro scheme"))?;
            let mut archive = DayArchive::new();
            for b in &self.seed_days[..MICRO_WINDOW as usize] {
                archive.insert(b.clone());
            }
            scheme
                .start(&mut vol, &archive)
                .map_err(err("micro scheme start"))?;
            let mut ms = Vec::new();
            for b in &self.seed_days[MICRO_WINDOW as usize..] {
                archive.insert(b.clone());
                let (moved, ns) = self.clocked("schemes.transition", || {
                    scheme.transition(&mut vol, &archive, b.day)
                });
                moved.map_err(err("micro scheme transition"))?;
                ms.push(ns / 1e6);
            }
            scheme
                .release(&mut vol)
                .map_err(err("micro scheme release"))?;
            scheme_ms[slot] = median(&ms).unwrap_or(0.0);
        }

        Ok(Micro {
            write_mb_per_s,
            alloc_us,
            flush_mb_per_s,
            crc_mb_per_s,
            dir_insert_ns,
            dir_from_sorted_ns,
            filter_build_ns,
            buffer_update_ns,
            spill_ms,
            build_packed_ns,
            add_in_place_ns,
            delete_in_place_ns,
            clone_shadow_ms,
            update_ms,
            scheme_ms,
            encode_ns,
            decode_ns,
        })
    }
}
