//! The two engine paths a workload can drive, behind one trait.
//!
//! [`SchemeEngine`] drives `WaveScheme::start/transition` directly (as
//! the `wave-index` crate example does), so `wave()` and the `Volume`
//! borrow side by side. [`ServerEngine`] drives a `WaveServer`.
//!
//! `WaveServer` has no store path of its own: it neither commits nor
//! reloads. Its lifecycle's durable half is therefore the only one the
//! public API allows today — a *checkpoint* (the served slots rebuilt
//! as a `WaveIndex` on a private volume and `commit_wave`d) and a
//! *restart* (the checkpoint verified, then a fresh server launched and
//! `install_wave`d from the archive). The numbers price what a
//! deployment of the server pays now; ROADMAP item 2 asks whether it
//! should.

use wave_index::schemes::{SchemeConfig, WaveScheme};
use wave_index::server::ServerConfig;
use wave_index::{
    commit_wave, fsck, load_committed, ConstituentIndex, Day, DayArchive, DayBatch, Entry,
    IndexConfig, SearchValue, TimeRange, WaveIndex, WaveServer,
};
use wave_obs::Obs;
use wave_storage::{DiskArray, DiskConfig, IndexStore, RetryPolicy, Volume, BLOCK_SIZE};

use crate::workload::{Path, Spec};

/// An operation's outcome: `Err` carries why it counts as failed.
pub type OpResult<T> = Result<T, String>;

/// Maps an error to `"<what>: <error>"`.
pub fn fail<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// What every workload's day-round loop needs from an engine.
pub trait Engine {
    /// Untimed preparation of the next transition (owned copies of
    /// batches an API insists on taking by value).
    fn prepare(&mut self, archive: &DayArchive, day: Day) -> OpResult<()>;
    /// Absorbs `day`: returns once the new day is queryable.
    fn transition(&mut self, archive: &DayArchive, day: Day) -> OpResult<()>;
    /// `TimedIndexProbe`.
    fn probe(&mut self, value: &SearchValue, range: TimeRange) -> OpResult<Vec<Entry>>;
    /// Batched `TimedIndexProbe`, one answer per value.
    fn batch(&mut self, values: &[SearchValue], range: TimeRange) -> OpResult<Vec<Vec<Entry>>>;
    /// `TimedSegmentScan`.
    fn scan(&mut self, range: TimeRange) -> OpResult<Vec<Entry>>;
    /// Makes the current wave durable in `store`.
    fn commit(&mut self, archive: &DayArchive, store: &mut dyn IndexStore) -> OpResult<()>;
    /// Brings a fresh engine up from `store` (and, for the server, the
    /// archive) until it can answer queries.
    fn reopen(&mut self, archive: &DayArchive, store: &mut dyn IndexStore) -> OpResult<Reopened>;
    /// Simulated seconds of device work charged so far (the paper's
    /// cost-model clock).
    fn sim_seconds(&self) -> f64;
    /// `(peak bytes allocated since the last call, live entries)`.
    fn space_sample(&mut self) -> OpResult<(u64, u64)>;
    /// Days the engine may still need batches for; the archive is
    /// pruned below the first of them.
    fn oldest_needed(&self, next: Day) -> Day;
    /// The live wave and its volume, where the engine owns them in
    /// this process (the traced run's layer replay calls into them).
    fn live(&mut self) -> Option<(&WaveIndex, &mut Volume)>;
    /// Mean constituents accessed per probe so far.
    fn accessed_per_probe(&self) -> f64;
    /// Releases everything and reports leaked blocks as an error.
    fn shutdown(&mut self) -> OpResult<()>;
}

/// A freshly reopened engine, able to answer the first probe.
pub enum Reopened {
    /// A loaded wave on a fresh volume.
    Wave(Box<(WaveIndex, Volume)>),
    /// A relaunched server, plus the verified checkpoint it did not
    /// need.
    Server(Box<(WaveServer, WaveIndex, Volume)>),
}

impl Reopened {
    /// Probes the reopened engine.
    pub fn probe(&mut self, value: &SearchValue, range: TimeRange) -> OpResult<Vec<Entry>> {
        match self {
            Reopened::Wave(b) => {
                let (wave, vol) = &mut **b;
                wave.timed_index_probe(vol, value, range)
                    .map(|q| q.entries)
                    .map_err(fail("probe after reopen"))
            }
            Reopened::Server(b) => server_probe(&b.0, value, range).map(|(e, _, _)| e),
        }
    }

    /// Releases the reopened engine's storage.
    pub fn close(self) -> OpResult<()> {
        match self {
            Reopened::Wave(b) => {
                let (mut wave, mut vol) = *b;
                wave.release_all(&mut vol)
                    .map_err(fail("release after reopen"))
            }
            Reopened::Server(b) => {
                let (server, mut wave, mut vol) = *b;
                wave.release_all(&mut vol)
                    .map_err(fail("release checkpoint"))?;
                server.shutdown().map_err(fail("shutdown after reopen"))
            }
        }
    }
}

/// Builds the engine `spec` names and indexes the first `W` days.
pub fn start(spec: &Spec, archive: &DayArchive, obs: &Obs) -> OpResult<Box<dyn Engine>> {
    match spec.path {
        Path::Scheme { .. } => Ok(Box::new(SchemeEngine::start(spec, archive, obs)?)),
        Path::Server { arms } => Ok(Box::new(ServerEngine::start(spec, arms, archive, obs)?)),
    }
}

/// Loads the committed wave into a fresh volume and checks the store
/// is clean — the reopen path both engines share.
fn load_clean(
    index: IndexConfig,
    disk: DiskConfig,
    store: &mut dyn IndexStore,
    obs: &Obs,
) -> OpResult<(WaveIndex, Volume)> {
    let mut vol = Volume::with_disks_obs(disk, 1, obs.clone());
    let loaded = load_committed(index, &mut vol, store)
        .map_err(fail("load_committed"))?
        .ok_or("load_committed: store holds no manifest")?;
    let report = fsck(store, obs).map_err(fail("fsck"))?;
    if !report.is_clean() {
        return Err(format!("fsck after reopen: store not clean: {report:?}"));
    }
    Ok((loaded.wave, vol))
}

/// `WaveScheme` + `Volume`, committed with `commit_wave`.
pub struct SchemeEngine {
    scheme: Box<dyn WaveScheme>,
    vol: Volume,
    index: IndexConfig,
    disk: DiskConfig,
    obs: Obs,
    retry: RetryPolicy,
    probes: u64,
    accessed: u64,
}

impl SchemeEngine {
    fn start(spec: &Spec, archive: &DayArchive, obs: &Obs) -> OpResult<Self> {
        let Path::Scheme { kind, technique } = spec.path else {
            return Err("scheme engine asked to run a server spec".into());
        };
        let index = spec.index_config();
        let disk = DiskConfig::default().with_cache(spec.cache_blocks);
        let cfg = SchemeConfig::new(spec.window, spec.fan)
            .with_technique(technique)
            .with_index(index);
        let mut scheme = kind.build(cfg).map_err(fail("scheme config"))?;
        let mut vol = Volume::with_disks_obs(disk, 1, obs.clone());
        scheme.start(&mut vol, archive).map_err(fail("start"))?;
        vol.reset_peak();
        Ok(SchemeEngine {
            scheme,
            vol,
            index,
            disk,
            obs: obs.clone(),
            retry: RetryPolicy::no_backoff(4),
            probes: 0,
            accessed: 0,
        })
    }
}

impl Engine for SchemeEngine {
    fn prepare(&mut self, _archive: &DayArchive, _day: Day) -> OpResult<()> {
        Ok(())
    }

    fn transition(&mut self, archive: &DayArchive, day: Day) -> OpResult<()> {
        self.scheme
            .transition(&mut self.vol, archive, day)
            .map(|_| ())
            .map_err(fail("transition"))
    }

    fn probe(&mut self, value: &SearchValue, range: TimeRange) -> OpResult<Vec<Entry>> {
        let q = self
            .scheme
            .wave()
            .timed_index_probe(&mut self.vol, value, range)
            .map_err(fail("probe"))?;
        self.probes += 1;
        self.accessed += q.indexes_accessed as u64;
        Ok(q.entries)
    }

    fn batch(&mut self, values: &[SearchValue], range: TimeRange) -> OpResult<Vec<Vec<Entry>>> {
        let results = self
            .scheme
            .wave()
            .query_batch(&mut self.vol, values, range)
            .map_err(fail("query_batch"))?;
        Ok(results.into_iter().map(|q| q.entries).collect())
    }

    fn scan(&mut self, range: TimeRange) -> OpResult<Vec<Entry>> {
        self.scheme
            .wave()
            .timed_segment_scan(&mut self.vol, range)
            .map(|q| q.entries)
            .map_err(fail("scan"))
    }

    fn commit(&mut self, _archive: &DayArchive, store: &mut dyn IndexStore) -> OpResult<()> {
        commit_wave(self.scheme.wave(), &mut self.vol, store, &self.retry)
            .map(|_| ())
            .map_err(fail("commit_wave"))
    }

    fn reopen(&mut self, _archive: &DayArchive, store: &mut dyn IndexStore) -> OpResult<Reopened> {
        load_clean(self.index, self.disk, store, &self.obs).map(|b| Reopened::Wave(Box::new(b)))
    }

    fn sim_seconds(&self) -> f64 {
        self.vol.stats().sim_seconds
    }

    fn space_sample(&mut self) -> OpResult<(u64, u64)> {
        let peak = self.vol.peak_blocks() * BLOCK_SIZE as u64;
        self.vol.reset_peak();
        Ok((peak, self.scheme.wave().entry_count()))
    }

    fn oldest_needed(&self, next: Day) -> Day {
        let covered = self.scheme.wave().covered_days();
        let oldest_held = covered.first().copied().unwrap_or(next);
        self.scheme.oldest_needed_day(next).min(oldest_held)
    }

    fn live(&mut self) -> Option<(&WaveIndex, &mut Volume)> {
        Some((self.scheme.wave(), &mut self.vol))
    }

    fn accessed_per_probe(&self) -> f64 {
        crate::stats::ratio(self.accessed as f64, self.probes as f64)
    }

    fn shutdown(&mut self) -> OpResult<()> {
        self.scheme
            .release(&mut self.vol)
            .map_err(fail("release"))?;
        match self.vol.live_blocks() {
            0 => Ok(()),
            n => Err(format!("scheme leaked {n} blocks")),
        }
    }
}

/// Splits days `first..first+count` into `k` consecutive clusters, the
/// leading ones one day larger when `k` does not divide `count`.
pub fn split_days(first: u32, count: u32, k: usize) -> Vec<Vec<Day>> {
    let k32 = k as u32;
    let mut next = first;
    (0..k32)
        .map(|i| {
            let size = count / k32 + u32::from(i < count % k32);
            let cluster = (next..next + size).map(Day).collect();
            next += size;
            cluster
        })
        .collect()
}

/// Owned copies of the archive's batches for `days`.
pub fn fetch_owned<'a>(
    archive: &DayArchive,
    days: impl IntoIterator<Item = &'a Day>,
) -> OpResult<Vec<DayBatch>> {
    days.into_iter()
        .map(|d| {
            archive
                .get(*d)
                .cloned()
                .ok_or_else(|| format!("archive lacks {d}"))
        })
        .collect()
}

fn server_probe(
    server: &WaveServer,
    value: &SearchValue,
    range: TimeRange,
) -> OpResult<(Vec<Entry>, f64, usize)> {
    let q = server.probe(value, range).map_err(fail("server probe"))?;
    match q.partial {
        Some(p) => Err(format!("server probe: partial answer, missing {p:?}")),
        None => Ok((q.entries, q.elapsed_seconds, q.indexes_accessed)),
    }
}

/// A `WaveServer` on a `DiskArray` with one reserved maintenance arm.
pub struct ServerEngine {
    server: Option<WaveServer>,
    /// Days held by each slot; the new day replaces the expired one
    /// in whichever slot held it.
    slot_days: Vec<Vec<Day>>,
    window: u32,
    arms: usize,
    cfg: ServerConfig,
    disk: DiskConfig,
    obs: Obs,
    /// The next `maintain` call, prepared outside the timed region.
    pending: Option<(usize, Vec<DayBatch>)>,
    sim: f64,
    probes: u64,
    accessed: u64,
    live_entries: u64,
}

impl ServerEngine {
    fn launch(
        arms: usize,
        cfg: ServerConfig,
        disk: DiskConfig,
        obs: &Obs,
        slot_days: &[Vec<Day>],
        archive: &DayArchive,
    ) -> OpResult<(WaveServer, f64)> {
        let server = WaveServer::launch(DiskArray::new(disk, arms), cfg, obs.clone())
            .map_err(fail("server launch"))?;
        let batches = slot_days
            .iter()
            .map(|days| fetch_owned(archive, days))
            .collect::<OpResult<Vec<_>>>()?;
        let build = server.install_wave(batches).map_err(fail("install_wave"))?;
        Ok((server, build))
    }

    fn start(spec: &Spec, arms: usize, archive: &DayArchive, obs: &Obs) -> OpResult<Self> {
        let cfg = ServerConfig {
            index: spec.index_config(),
            reserve_maintenance_arm: true,
            ..ServerConfig::default()
        };
        let disk = DiskConfig::default().with_cache(spec.cache_blocks);
        let slot_days = split_days(1, spec.window, spec.fan);
        let (server, build) = Self::launch(arms, cfg, disk, obs, &slot_days, archive)?;
        let live_entries = archive.iter().map(|b| b.entry_count() as u64).sum();
        Ok(ServerEngine {
            server: Some(server),
            slot_days,
            window: spec.window,
            arms,
            cfg,
            disk,
            obs: obs.clone(),
            pending: None,
            sim: build,
            probes: 0,
            accessed: 0,
            live_entries,
        })
    }

    fn server(&self) -> OpResult<&WaveServer> {
        self.server
            .as_ref()
            .ok_or_else(|| "server already shut down".into())
    }
}

impl Engine for ServerEngine {
    fn prepare(&mut self, archive: &DayArchive, day: Day) -> OpResult<()> {
        let expired = Day(day.0 - self.window);
        let slot = self
            .slot_days
            .iter()
            .position(|days| days.contains(&expired))
            .ok_or_else(|| format!("no slot holds {expired}"))?;
        let mut days = self.slot_days[slot].clone();
        days.retain(|d| *d != expired);
        days.push(day);
        let batches = fetch_owned(archive, &days)?;
        let gone = archive.get(expired).map_or(0, |b| b.entry_count() as u64);
        let came = archive.get(day).map_or(0, |b| b.entry_count() as u64);
        self.live_entries = self.live_entries + came - gone;
        self.slot_days[slot] = days;
        self.pending = Some((slot, batches));
        Ok(())
    }

    fn transition(&mut self, _archive: &DayArchive, _day: Day) -> OpResult<()> {
        let (slot, batches) = self.pending.take().ok_or("transition without prepare")?;
        let report = self
            .server()?
            .maintain(slot, batches)
            .map_err(fail("maintain"))?;
        self.sim += report.build_seconds;
        Ok(())
    }

    fn probe(&mut self, value: &SearchValue, range: TimeRange) -> OpResult<Vec<Entry>> {
        let (entries, elapsed, accessed) = server_probe(self.server()?, value, range)?;
        self.sim += elapsed;
        self.probes += 1;
        self.accessed += accessed as u64;
        Ok(entries)
    }

    fn batch(&mut self, values: &[SearchValue], range: TimeRange) -> OpResult<Vec<Vec<Entry>>> {
        let q = self
            .server()?
            .query_batch(values, range)
            .map_err(fail("server query_batch"))?;
        if let Some(p) = q.partial {
            return Err(format!("server query_batch: partial answer, missing {p:?}"));
        }
        self.sim += q.elapsed_seconds;
        Ok(q.per_value)
    }

    fn scan(&mut self, range: TimeRange) -> OpResult<Vec<Entry>> {
        let q = self.server()?.scan(range).map_err(fail("server scan"))?;
        if let Some(p) = q.partial {
            return Err(format!("server scan: partial answer, missing {p:?}"));
        }
        self.sim += q.elapsed_seconds;
        Ok(q.entries)
    }

    fn commit(&mut self, archive: &DayArchive, store: &mut dyn IndexStore) -> OpResult<()> {
        // The server never lends its constituents, so the checkpoint
        // rebuilds the served slots on a private volume.
        let mut vol = Volume::with_disks_obs(DiskConfig::default(), 1, self.obs.clone());
        let mut wave = WaveIndex::with_slots(self.slot_days.len());
        for (j, days) in self.slot_days.iter().enumerate() {
            let batches = days
                .iter()
                .map(|d| archive.get(*d).ok_or_else(|| format!("archive lacks {d}")))
                .collect::<OpResult<Vec<&DayBatch>>>()?;
            let idx = ConstituentIndex::build_packed(
                format!("slot{j}"),
                self.cfg.index,
                &mut vol,
                &batches,
            )
            .map_err(fail("checkpoint build"))?;
            wave.install(j, idx);
        }
        let committed = commit_wave(&wave, &mut vol, store, &RetryPolicy::no_backoff(4));
        wave.release_all(&mut vol)
            .map_err(fail("checkpoint release"))?;
        committed.map(|_| ()).map_err(fail("commit_wave"))
    }

    fn reopen(&mut self, archive: &DayArchive, store: &mut dyn IndexStore) -> OpResult<Reopened> {
        let (wave, vol) = load_clean(self.cfg.index, DiskConfig::default(), store, &self.obs)?;
        let (server, _) = Self::launch(
            self.arms,
            self.cfg,
            self.disk,
            &self.obs,
            &self.slot_days,
            archive,
        )?;
        Ok(Reopened::Server(Box::new((server, wave, vol))))
    }

    fn sim_seconds(&self) -> f64 {
        self.sim
    }

    fn space_sample(&mut self) -> OpResult<(u64, u64)> {
        // The server exposes live blocks per arm, not a high-water
        // mark: the sample is taken after the round's maintain, when
        // the displaced generation is already released.
        let status = self.server()?.status().map_err(fail("status"))?;
        let blocks: u64 = status.iter().map(|a| a.live_blocks).sum();
        Ok((blocks * BLOCK_SIZE as u64, self.live_entries))
    }

    fn oldest_needed(&self, next: Day) -> Day {
        Day(next.0.saturating_sub(self.window))
    }

    fn live(&mut self) -> Option<(&WaveIndex, &mut Volume)> {
        None
    }

    fn accessed_per_probe(&self) -> f64 {
        crate::stats::ratio(self.accessed as f64, self.probes as f64)
    }

    fn shutdown(&mut self) -> OpResult<()> {
        match self.server.take() {
            Some(server) => server.shutdown().map_err(fail("server shutdown")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_days_covers_the_range_in_order() {
        let clusters = split_days(1, 30, 4);
        assert_eq!(
            clusters.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![8, 8, 7, 7]
        );
        let flat: Vec<u32> = clusters.into_iter().flatten().map(|d| d.0).collect();
        assert_eq!(flat, (1..=30).collect::<Vec<_>>());
        assert_eq!(
            split_days(1, 30, 6)[5],
            (26..=30).map(Day).collect::<Vec<_>>()
        );
    }
}
