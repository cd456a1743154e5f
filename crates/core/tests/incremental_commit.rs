//! Incremental commit: a commit persists only the constituents that
//! changed, and the manifest's per-file checksum identifies content.
//!
//! Two properties carry the whole feature. **Equivalence**: whatever
//! mix of carried-over and freshly written files an incremental commit
//! publishes, a from-scratch commit of the same wave into an empty
//! store publishes the same lengths, checksums, labels, days and
//! sidecars — so a mutator that forgot to drop its constituent's
//! durable marker shows up as a checksum that differs. **Identity**:
//! two files of different content never share a manifest checksum, so
//! a swapped or stale file of the right name, length and label fails
//! `load_committed` and `fsck` instead of loading.

use std::collections::{BTreeMap, BTreeSet};

use wave_index::persist::{
    commit_wave, load_committed, read_manifest, LoadedWave, Manifest, MANIFEST_NAME,
};
use wave_index::prelude::*;
use wave_index::recovery::{fsck, recover};
use wave_index::verify::Oracle;
use wave_index::{ConstituentIndex, IndexError};
use wave_obs::SplitMix64;
use wave_storage::{IndexStore, Obs, RetryPolicy, StorageError, StorageResult};

/// The whole-file CRC-64/XZ of any file that ends in its own CRC
/// trailer: what every `wave-manifest 1` checksum was.
const CRC_RESIDUE: u64 = 0xb66a_7365_4282_cac0;

const VALUES: u64 = 7;

/// An in-memory [`IndexStore`] that logs the name of every `put`:
/// these tests are about which files a commit writes and what they
/// hold, not about fsync.
#[derive(Default)]
struct MemStore {
    files: BTreeMap<String, Vec<u8>>,
    puts: Vec<String>,
}

impl IndexStore for MemStore {
    fn put(&mut self, name: &str, contents: &[u8]) -> StorageResult<()> {
        self.puts.push(name.to_string());
        self.files.insert(name.to_string(), contents.to_vec());
        Ok(())
    }
    fn get(&mut self, name: &str) -> StorageResult<Option<Vec<u8>>> {
        Ok(self.files.get(name).cloned())
    }
    fn remove(&mut self, name: &str) -> StorageResult<()> {
        self.files.remove(name);
        Ok(())
    }
    fn rename(&mut self, from: &str, to: &str) -> StorageResult<()> {
        let bytes = self
            .files
            .remove(from)
            .ok_or_else(|| StorageError::FileNotFound(from.to_string()))?;
        self.files.insert(to.to_string(), bytes);
        Ok(())
    }
    fn list(&mut self) -> StorageResult<Vec<String>> {
        Ok(self.files.keys().cloned().collect())
    }
}

fn retry() -> RetryPolicy {
    RetryPolicy::no_backoff(1)
}

/// Random daily batch over a small shared value space (the shape of
/// `scheme_properties.rs`, so coverage matches).
fn random_batch(day: u32, rng: &mut SplitMix64) -> DayBatch {
    let records = (0..rng.range_usize(0, 5))
        .map(|i| {
            let mut r = Record::with_values(
                RecordId(day as u64 * 1_000 + i as u64),
                [SearchValue::from_u64(rng.next_u64() % VALUES)],
            );
            for (_, aux) in &mut r.values {
                *aux = rng.next_u64() % 256;
            }
            r
        })
        .collect();
    DayBatch::new(Day(day), records)
}

fn techniques() -> [UpdateTechnique; 3] {
    [
        UpdateTechnique::InPlace,
        UpdateTechnique::SimpleShadow,
        UpdateTechnique::PackedShadow,
    ]
}

/// Scan and every probe of a loaded wave against the oracle over the
/// manifest's window.
fn assert_matches_oracle(loaded: &mut LoadedWave, oracle: &Oracle, vol: &mut Volume, ctx: &str) {
    let window = loaded
        .manifest
        .window
        .unwrap_or_else(|| panic!("{ctx}: manifest has an empty window"));
    let mut got = loaded.wave.segment_scan(vol).unwrap().entries;
    got.sort_unstable();
    assert_eq!(
        got,
        oracle.scan(TimeRange::all(), window),
        "{ctx}: scan diverges from oracle"
    );
    for v in 0..VALUES {
        let value = SearchValue::from_u64(v);
        let mut got = loaded.wave.index_probe(vol, &value).unwrap().entries;
        got.sort_unstable();
        assert_eq!(
            got,
            oracle.probe(&value, TimeRange::all(), window),
            "{ctx}: probe {v} diverges from oracle"
        );
    }
}

/// A manifest with every file name blanked: what two commits of one
/// wave must agree on however their files are named.
fn modulo_names(m: &Manifest) -> Manifest {
    let mut m = m.clone();
    m.epoch = 0;
    for e in &mut m.entries {
        e.file.clear();
        for sidecar in [&mut e.filter, &mut e.ingest].into_iter().flatten() {
            sidecar.file.clear();
        }
    }
    m
}

/// Strict-loads `store`, checks the wave against the oracle, checks
/// `fsck` is clean and returns the manifest.
fn load_and_check(cfg: IndexConfig, store: &mut MemStore, oracle: &Oracle, ctx: &str) -> Manifest {
    let mut vol = Volume::default();
    let mut loaded = load_committed(cfg, &mut vol, store)
        .unwrap_or_else(|e| panic!("{ctx}: strict load failed: {e}"))
        .unwrap_or_else(|| panic!("{ctx}: store holds no manifest"));
    assert_matches_oracle(&mut loaded, oracle, &mut vol, ctx);
    loaded.wave.release_all(&mut vol).unwrap();
    assert_eq!(vol.live_blocks(), 0, "{ctx}: load leaked blocks");
    let report = fsck(store, &Obs::noop()).unwrap();
    assert!(report.is_clean(), "{ctx}: {report:?}");
    loaded.manifest
}

/// The equivalence check: commits `wave` from scratch into a fresh
/// empty store and requires the result to equal `store`'s incremental
/// manifest modulo file names, with both stores loading oracle-equal.
fn assert_equals_scratch_commit(
    cfg: IndexConfig,
    wave: &WaveIndex,
    vol: &mut Volume,
    store: &mut MemStore,
    oracle: &Oracle,
    ctx: &str,
) {
    let incremental = load_and_check(cfg, store, oracle, ctx);
    let mut scratch = MemStore::default();
    let report = commit_wave(wave, vol, &mut scratch, &retry()).unwrap();
    assert_eq!(report.files_reused, 0, "{ctx}: an empty store lent a file");
    let from_scratch = load_and_check(cfg, &mut scratch, oracle, &format!("{ctx} scratch"));
    assert_eq!(
        modulo_names(&incremental),
        modulo_names(&from_scratch),
        "{ctx}: incremental commit differs from a from-scratch commit"
    );
}

/// Every scheme x technique x ingest on/off, sixty-odd days, a commit
/// at a random cadence: after every commit the store must equal a
/// from-scratch commit of the same wave. This is what catches a
/// mutator that leaves a stale durable marker behind.
#[test]
fn incremental_commit_equals_from_scratch_commit() {
    let mut rng = SplitMix64::new(0x1AC2_E3E7);
    let mut total_dirty_commits = 0;
    for kind in SchemeKind::ALL {
        for technique in techniques() {
            for buffered in [false, true] {
                let window = rng.range_u32(4, 9);
                // At least two constituents, or nothing is ever unchanged.
                let min_fan = kind.min_fan().max(2);
                let fan = min_fan + rng.range_usize(0, window as usize - min_fan);
                let days = window + rng.range_u32(60, 70);
                let index = IndexConfig {
                    ingest: IngestConfig {
                        enabled: buffered,
                        max_entries: rng.range_usize(3, 14),
                        max_days: rng.range_u32(2, 5),
                    },
                    ..Default::default()
                };
                let ctx = format!("{kind}/{technique:?}/buffered={buffered} W={window} n={fan}");
                let mut scheme = kind
                    .build(
                        SchemeConfig::new(window, fan)
                            .with_technique(technique)
                            .with_index(index),
                    )
                    .unwrap();
                let mut vol = Volume::default();
                let mut archive = DayArchive::new();
                let mut oracle = Oracle::new();
                let mut store = MemStore::default();
                let (mut written, mut reused, mut dirty_commits) = (0, 0, 0);
                for day in 1..=days {
                    let batch = random_batch(day, &mut rng);
                    oracle.insert(&batch);
                    archive.insert(batch);
                    if day < window {
                        continue;
                    }
                    if day == window {
                        scheme.start(&mut vol, &archive).unwrap();
                    } else {
                        scheme.transition(&mut vol, &archive, Day(day)).unwrap();
                    }
                    if rng.range_usize(0, 3) == 0 {
                        continue;
                    }
                    let wave = scheme.wave();
                    dirty_commits += usize::from(wave.iter().any(|(_, i)| !i.ingest().is_empty()));
                    let report = commit_wave(wave, &mut vol, &mut store, &retry()).unwrap();
                    written += report.files_written;
                    reused += report.files_reused;
                    let ctx = format!("{ctx} day {day}");
                    assert_equals_scratch_commit(index, wave, &mut vol, &mut store, &oracle, &ctx);
                }
                assert!(
                    written > 0 && reused > 0,
                    "{ctx}: {written} written, {reused} reused"
                );
                assert!(
                    buffered || dirty_commits == 0,
                    "{ctx}: dirty without buffering"
                );
                total_dirty_commits += dirty_commits;
                scheme.release(&mut vol).unwrap();
                assert_eq!(vol.live_blocks(), 0, "{ctx}: scheme leaked blocks");
            }
        }
    }
    assert!(total_dirty_commits > 0, "no commit ever carried a `.ing`");
}

/// A DEL wave of three two-day constituents over days 1..=6, its
/// archive and its oracle.
fn three_constituents(vol: &mut Volume, seed: u64) -> (WaveIndex, DayArchive, Oracle) {
    let mut rng = SplitMix64::new(seed);
    let mut archive = DayArchive::new();
    let mut oracle = Oracle::new();
    for day in 1..=6 {
        let batch = random_batch(day, &mut rng);
        oracle.insert(&batch);
        archive.insert(batch);
    }
    let mut wave = WaveIndex::with_slots(3);
    for j in 0..3u32 {
        let days = [2 * j + 1, 2 * j + 2].map(|d| archive.get(Day(d)).unwrap());
        let idx = ConstituentIndex::build_packed(
            format!("I{}", j + 1),
            IndexConfig::default(),
            vol,
            &days,
        );
        wave.install(j as usize, idx.unwrap());
    }
    (wave, archive, oracle)
}

/// Cold start: `load_committed` vouches for every file it decoded, so
/// after one transition the next commit puts exactly the touched
/// constituent, its sidecar and the manifest.
#[test]
fn load_transition_commit_writes_only_the_touched_constituent() {
    let cfg = IndexConfig::default();
    let mut vol = Volume::default();
    let (mut wave, mut archive, mut oracle) = three_constituents(&mut vol, 0x10AD);
    let mut store = MemStore::default();
    commit_wave(&wave, &mut vol, &mut store, &retry()).unwrap();
    wave.release_all(&mut vol).unwrap();

    let mut loaded = load_committed(cfg, &mut vol, &mut store).unwrap().unwrap();
    // One REINDEX-style transition: slot 0's cluster is rebuilt over
    // days 7..=8 and the old constituent is dropped.
    let mut rng = SplitMix64::new(0x7EA5);
    for day in 7..=8 {
        let batch = random_batch(day, &mut rng);
        oracle.insert(&batch);
        archive.insert(batch);
    }
    let days = [7, 8].map(|d| archive.get(Day(d)).unwrap());
    let fresh = ConstituentIndex::build_packed("I1", cfg, &mut vol, &days).unwrap();
    let old = loaded.wave.install(0, fresh).unwrap();
    old.release(&mut vol).unwrap();

    store.puts.clear();
    let report = commit_wave(&loaded.wave, &mut vol, &mut store, &retry()).unwrap();
    assert_eq!(
        (report.epoch, report.files_written, report.files_reused),
        (2, 1, 2)
    );
    assert_eq!(store.puts, ["slot0.e2", "slot0.e2.filt", MANIFEST_NAME]);
    assert_eq!(report.orphans_removed, 2, "slot0.e1 and its sidecar");
    assert_equals_scratch_commit(cfg, &loaded.wave, &mut vol, &mut store, &oracle, "reload");
    loaded.wave.release_all(&mut vol).unwrap();
    assert_eq!(vol.live_blocks(), 0);
}

/// One wave committed alternately to two stores: a store only ever
/// references files it holds itself, whichever store a constituent's
/// marker was minted against.
#[test]
fn alternating_stores_never_share_files() {
    let mut rng = SplitMix64::new(0xA17E_57A7);
    let window = 6;
    let mut scheme = SchemeKind::Del.build(SchemeConfig::new(window, 3)).unwrap();
    let mut vol = Volume::default();
    let mut archive = DayArchive::new();
    let mut oracle = Oracle::new();
    let mut stores = [MemStore::default(), MemStore::default()];
    let mut commits = [0u64; 2];
    for day in 1..=(window + 24) {
        let batch = random_batch(day, &mut rng);
        oracle.insert(&batch);
        archive.insert(batch);
        if day < window {
            continue;
        }
        if day == window {
            scheme.start(&mut vol, &archive).unwrap();
        } else {
            scheme.transition(&mut vol, &archive, Day(day)).unwrap();
        }
        // Store 0 commits every day, store 1 every third day, so their
        // epochs — and hence their file names — drift apart.
        for (s, store) in stores.iter_mut().enumerate() {
            if s == 1 && day % 3 != 0 {
                continue;
            }
            let report = commit_wave(scheme.wave(), &mut vol, store, &retry()).unwrap();
            commits[s] += 1;
            assert_eq!(report.epoch, commits[s]);
            if commits[s] == 1 {
                assert_eq!(
                    report.files_reused, 0,
                    "store {s}: first commit reused a file"
                );
            }
            let ctx = format!("store {s} day {day}");
            let manifest = load_and_check(IndexConfig::default(), store, &oracle, &ctx);
            for file in manifest.entries.iter().flat_map(|e| e.files()) {
                assert!(
                    store.files.contains_key(file),
                    "{ctx}: {file} is not in this store"
                );
            }
        }
    }
    scheme.release(&mut vol).unwrap();
}

/// `recover` rebuilds a damaged image and a damaged sidecar and
/// rewrites the manifest; the markers it leaves on the recovered wave
/// match that manifest, so the next commit writes nothing — and the
/// store still equals a from-scratch commit.
#[test]
fn recover_leaves_markers_matching_its_manifest() {
    let cfg = IndexConfig::default();
    let mut vol = Volume::default();
    let (mut wave, archive, oracle) = three_constituents(&mut vol, 0x5EC0);
    let mut store = MemStore::default();
    commit_wave(&wave, &mut vol, &mut store, &retry()).unwrap();
    wave.release_all(&mut vol).unwrap();

    let mut image = store.get("slot1.e1").unwrap().unwrap();
    image.truncate(image.len() / 2);
    store.put("slot1.e1", &image).unwrap();
    store.remove("slot2.e1.filt").unwrap();
    let (loaded, report) = recover(cfg, &mut vol, &mut store, Some(&archive)).unwrap();
    let mut loaded = loaded.unwrap();
    assert_eq!(report.rebuilt, ["slot1.e1"]);
    assert_eq!(report.rebuilt_filters, ["slot2.e1.filt"]);

    let commit = commit_wave(&loaded.wave, &mut vol, &mut store, &retry()).unwrap();
    assert_eq!(
        (
            commit.files_written,
            commit.files_reused,
            commit.bytes_written
        ),
        (0, 3, 0)
    );
    assert_equals_scratch_commit(
        cfg,
        &loaded.wave,
        &mut vol,
        &mut store,
        &oracle,
        "recovered",
    );
    loaded.wave.release_all(&mut vol).unwrap();
    assert_eq!(vol.live_blocks(), 0);
}

/// Two constituents with one label, one image length and different
/// contents — the case the old whole-file checksum could not tell
/// apart — plus a same-length older epoch of one of them.
struct Lookalikes {
    store: MemStore,
    /// Epoch 1's image of slot 0, superseded by epoch 2.
    stale_slot0: Vec<u8>,
}

fn lookalikes(cfg: IndexConfig) -> Lookalikes {
    // Slot j indexes the one value `v{j}`, so the two filters hold
    // different bits in the same number of blocks.
    let batch = |day: u32, slot: usize, id: u64| {
        let value = SearchValue::from(format!("v{slot}").as_str());
        DayBatch::new(Day(day), vec![Record::with_values(RecordId(id), [value])])
    };
    let mut vol = Volume::default();
    let mut wave = WaveIndex::with_slots(2);
    for (j, id) in [(0, 10), (1, 20)] {
        let idx = ConstituentIndex::build_packed("I", cfg, &mut vol, &[&batch(1, j, id)]).unwrap();
        wave.install(j, idx);
    }
    let mut store = MemStore::default();
    commit_wave(&wave, &mut vol, &mut store, &retry()).unwrap();
    let stale_slot0 = store.get("slot0.e1").unwrap().unwrap();
    // Epoch 2: slot 0 keeps its label and length, changes its record.
    let idx = ConstituentIndex::build_packed("I", cfg, &mut vol, &[&batch(1, 0, 11)]).unwrap();
    wave.install(0, idx).unwrap().release(&mut vol).unwrap();
    if cfg.ingest.enabled {
        // Same-length dirty buffers with different contents.
        for (j, id) in [(0, 30), (1, 40)] {
            let idx = wave.slot_mut(j).unwrap();
            idx.buffer_update(&vol, &BTreeSet::new(), &[&batch(2, j, id)]);
        }
    }
    commit_wave(&wave, &mut vol, &mut store, &retry()).unwrap();
    wave.release_all(&mut vol).unwrap();
    Lookalikes { store, stale_slot0 }
}

fn swap_files(store: &mut MemStore, a: &str, b: &str) {
    let (x, y) = (
        store.get(a).unwrap().unwrap(),
        store.get(b).unwrap().unwrap(),
    );
    assert_eq!(x.len(), y.len(), "{a} and {b} must be the same length");
    assert_ne!(x, y, "{a} and {b} must differ");
    store.put(a, &y).unwrap();
    store.put(b, &x).unwrap();
}

fn assert_checksum_mismatch(cfg: IndexConfig, store: &mut MemStore, ctx: &str) {
    let mut vol = Volume::default();
    let err = load_committed(cfg, &mut vol, store).expect_err(ctx);
    assert!(
        matches!(err, IndexError::ChecksumMismatch { .. }),
        "{ctx}: {err}"
    );
    assert_eq!(vol.live_blocks(), 0, "{ctx}: failed load leaked blocks");
}

/// The regression the manifest-v2 checksum fixes: a swapped or stale
/// file with the right name, length and label used to pass every
/// check, because every file's whole-file CRC is the same constant.
#[test]
fn swapped_or_stale_files_fail_the_manifest_checksum() {
    let buffered = IndexConfig {
        ingest: IngestConfig {
            enabled: true,
            max_entries: usize::MAX,
            max_days: u32::MAX,
        },
        ..Default::default()
    };

    let mut l = lookalikes(IndexConfig::default());
    swap_files(&mut l.store, "slot0.e2", "slot1.e1");
    assert_checksum_mismatch(IndexConfig::default(), &mut l.store, "swapped images");
    let report = fsck(&mut l.store, &Obs::noop()).unwrap();
    assert_eq!(report.corrupt, ["slot0.e2", "slot1.e1"]);

    let mut l = lookalikes(IndexConfig::default());
    assert_eq!(
        l.stale_slot0.len(),
        l.store.get("slot0.e2").unwrap().unwrap().len()
    );
    l.store.put("slot0.e2", &l.stale_slot0).unwrap();
    assert_checksum_mismatch(IndexConfig::default(), &mut l.store, "stale epoch");
    let report = fsck(&mut l.store, &Obs::noop()).unwrap();
    assert_eq!(report.corrupt, ["slot0.e2"]);

    let mut l = lookalikes(IndexConfig::default());
    swap_files(&mut l.store, "slot0.e2.filt", "slot1.e1.filt");
    assert_checksum_mismatch(IndexConfig::default(), &mut l.store, "swapped filters");
    let report = fsck(&mut l.store, &Obs::noop()).unwrap();
    assert_eq!(report.filter_corrupt, ["slot0.e2.filt", "slot1.e1.filt"]);
    assert!(report.corrupt.is_empty(), "{report:?}");

    let mut l = lookalikes(buffered);
    swap_files(&mut l.store, "slot0.e2.ing", "slot1.e2.ing");
    assert_checksum_mismatch(buffered, &mut l.store, "swapped ingest logs");
    let report = fsck(&mut l.store, &Obs::noop()).unwrap();
    assert_eq!(report.ingest_corrupt, ["slot0.e2.ing", "slot1.e2.ing"]);
    assert!(report.corrupt.is_empty(), "{report:?}");
}

/// In a freshly written manifest no two files of different content
/// share a checksum, and none carries the old constant.
#[test]
fn manifest_checksums_identify_content() {
    let mut l = lookalikes(IndexConfig::default());
    let manifest = read_manifest(&mut l.store).unwrap().unwrap();
    let mut by_checksum = std::collections::BTreeMap::new();
    for e in &manifest.entries {
        let refs = [Some(e.image()), e.filter.clone(), e.ingest.clone()];
        for r in refs.into_iter().flatten() {
            assert_ne!(r.crc64, CRC_RESIDUE, "{} carries the CRC residue", r.file);
            let bytes = l.store.get(&r.file).unwrap().unwrap();
            if let Some((other, _)) = by_checksum.insert(r.crc64, (r.file.clone(), bytes.clone())) {
                let other_bytes = l.store.get(&other).unwrap().unwrap();
                assert_eq!(
                    bytes, other_bytes,
                    "{} and {other} share a checksum",
                    r.file
                );
            }
        }
    }
    assert!(by_checksum.len() >= 4, "two images and two filters");
}
