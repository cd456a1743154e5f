//! Deterministic crash-point exploration of the two-phase commit.
//!
//! For every scheme × update technique, the explorer commits a wave
//! transition to a real on-disk store while a [`FaultyStore`] kills
//! the process at operation `k` — for every `k` until the commit runs
//! fault-free, and for every [`CrashMode`] (died before the op, torn
//! temp write, unrenamed temp). After each simulated death the store
//! directory is reopened cold, [`recover`] repairs it, and the
//! recovered wave is checked entry-for-entry against the [`Oracle`]:
//! every crash point must yield exactly the pre- or the
//! post-transition wave, with zero leaked orphan files.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use wave_index::persist::{commit_wave, load_committed, LoadedWave, MANIFEST_NAME};
use wave_index::prelude::*;
use wave_index::recovery::recover;
use wave_index::verify::Oracle;
use wave_storage::{CrashMode, FaultyStore, FileStore, IndexStore, RetryPolicy};

const W: u32 = 6;
const VOCAB: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

/// Deterministic day batch: three records, values cycling through the
/// vocabulary so every value appears on most days.
fn day_batch(day: u32) -> DayBatch {
    let records = (0..3u64)
        .map(|i| {
            let v = VOCAB[((day as u64 + i) % VOCAB.len() as u64) as usize];
            Record::with_values(RecordId(day as u64 * 100 + i), [SearchValue::from(v)])
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

/// Copies every regular file of `src` into a fresh directory.
fn clone_dir(src: &Path, dst: &Path) {
    if dst.exists() {
        fs::remove_dir_all(dst).unwrap();
    }
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("wave-crash-{}-{tag}-{n}", std::process::id()))
}

/// Checks a recovered wave against the oracle over the manifest's
/// window: the scan and every vocabulary probe must match exactly.
fn assert_matches_oracle(loaded: &mut LoadedWave, oracle: &Oracle, vol: &mut Volume, ctx: &str) {
    let window = loaded
        .manifest
        .window
        .unwrap_or_else(|| panic!("{ctx}: recovered manifest has empty window"));
    let mut expect = oracle.scan(TimeRange::all(), window);
    let mut got = loaded.wave.segment_scan(vol).unwrap().entries;
    expect.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, expect, "{ctx}: segment scan diverges from oracle");
    for word in VOCAB {
        let value = SearchValue::from(word);
        let mut expect = oracle.probe(&value, TimeRange::all(), window);
        let mut got = loaded.wave.index_probe(vol, &value).unwrap().entries;
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expect, "{ctx}: probe {word:?} diverges from oracle");
    }
}

/// After recovery the store must hold exactly the manifest plus its
/// referenced files — no crash residue, and (crashes never corrupt
/// in this model) no quarantined evidence either.
fn assert_no_orphans(store: &mut FileStore, loaded: &LoadedWave, ctx: &str) {
    let mut expect: BTreeSet<String> = loaded
        .manifest
        .entries
        .iter()
        .flat_map(|e| {
            std::iter::once(e.file.clone())
                .chain(e.filter.as_ref().map(|f| f.file.clone()))
                .chain(e.ingest.as_ref().map(|l| l.file.clone()))
        })
        .collect();
    expect.insert(MANIFEST_NAME.to_string());
    let got: BTreeSet<String> = store.list().unwrap().into_iter().collect();
    assert_eq!(got, expect, "{ctx}: store holds residue after recovery");
}

/// Explores every crash point of one commit. `baseline` is the store
/// directory to start each experiment from (may be empty = first
/// commit). Returns the number of crash points explored.
#[allow(clippy::too_many_arguments)] // a test driver, not an API surface
fn explore_commit(
    cfg: IndexConfig,
    scheme: &dyn WaveScheme,
    vol: &mut Volume,
    oracle: &Oracle,
    archive: &DayArchive,
    baseline: &Path,
    first_commit: bool,
    ctx: &str,
) -> usize {
    let mut explored = 0;
    for mode in CrashMode::ALL {
        let mut k = 0u64;
        loop {
            let work = scratch_dir("work");
            clone_dir(baseline, &work);
            let mut faulty = FaultyStore::new(FileStore::open(&work).unwrap());
            faulty.arm_crash(k, mode);
            let outcome = commit_wave(scheme.wave(), vol, &mut faulty, &RetryPolicy::no_backoff(1));
            let crashed = faulty.crashed();
            let cctx = format!("{ctx} mode={mode:?} k={k}");
            match outcome {
                Ok(report) => {
                    assert!(!crashed, "{cctx}: commit returned Ok after dying");
                    // Commit outran the fault: exploration of this mode
                    // is complete. Sanity-check the final state once.
                    let mut store = faulty.into_inner();
                    let mut vol2 = Volume::default();
                    let mut loaded = load_committed(cfg, &mut vol2, &mut store)
                        .unwrap()
                        .unwrap_or_else(|| panic!("{cctx}: committed store is empty"));
                    assert_eq!(loaded.manifest.epoch, report.epoch);
                    assert_matches_oracle(&mut loaded, oracle, &mut vol2, &cctx);
                    assert_no_orphans(&mut store, &loaded, &cctx);
                    loaded.wave.release_all(&mut vol2).unwrap();
                    fs::remove_dir_all(&work).unwrap();
                    break;
                }
                Err(_) => {
                    assert!(crashed, "{cctx}: commit failed without an armed crash");
                    explored += 1;
                    // Reopen cold, as a restarted process would.
                    let mut store = FileStore::open(&work).unwrap();
                    let mut vol2 = Volume::default();
                    let (loaded, report) = recover(cfg, &mut vol2, &mut store, Some(archive))
                        .unwrap_or_else(|e| panic!("{cctx}: recovery failed: {e}"));
                    assert!(
                        report.quarantined.is_empty() && !report.manifest_quarantined,
                        "{cctx}: crash-only faults must never quarantine: {report:?}"
                    );
                    assert!(
                        report.rebuilt.is_empty() && report.dropped_slots.is_empty(),
                        "{cctx}: crash-only faults never damage committed files: {report:?}"
                    );
                    assert!(
                        report.rebuilt_filters.is_empty(),
                        "{cctx}: the manifest flip is atomic, so a crash can never \
                         leave a referenced sidecar damaged: {report:?}"
                    );
                    match loaded {
                        None => {
                            assert!(
                                first_commit,
                                "{cctx}: an already-committed store recovered to nothing"
                            );
                            assert!(
                                store.list().unwrap().is_empty(),
                                "{cctx}: rollback-to-empty left residue"
                            );
                        }
                        // A wave after a first-commit crash is fine —
                        // it means the manifest flip beat the crash
                        // (post-state); it must still verify in full.
                        Some(mut loaded) => {
                            assert_matches_oracle(&mut loaded, oracle, &mut vol2, &cctx);
                            assert_no_orphans(&mut store, &loaded, &cctx);
                            loaded.wave.release_all(&mut vol2).unwrap();
                        }
                    }
                    fs::remove_dir_all(&work).unwrap();
                }
            }
            k += 1;
            assert!(k < 200, "{ctx}: commit never completed; runaway op count");
        }
    }
    explored
}

/// The explorer proper: every scheme × technique, crashes at every
/// operation of (a) the very first commit and (b) the second and third
/// commits, each after a further transition, in all three crash modes.
#[test]
fn every_crash_point_recovers_to_pre_or_post_state() {
    let mut carried_files = 0;
    for kind in SchemeKind::ALL {
        for technique in techniques() {
            let n = kind.min_fan().max(3);
            let mut vol = Volume::default();
            let mut scheme = kind
                .build(SchemeConfig::new(W, n).with_technique(technique))
                .unwrap();
            let mut archive = DayArchive::new();
            let mut oracle = Oracle::new();
            for d in 1..=W {
                let b = day_batch(d);
                oracle.insert(&b);
                archive.insert(b);
            }
            scheme.start(&mut vol, &archive).unwrap();
            for d in (W + 1)..=(W + 2) {
                let b = day_batch(d);
                oracle.insert(&b);
                archive.insert(b);
                scheme.transition(&mut vol, &archive, Day(d)).unwrap();
            }
            let ctx = format!("{kind}/{technique:?}");

            // Phase A: crash during the very first commit. Recovery
            // must roll back to the empty store.
            let empty = scratch_dir("empty");
            if empty.exists() {
                fs::remove_dir_all(&empty).unwrap();
            }
            fs::create_dir_all(&empty).unwrap();
            let a = explore_commit(
                IndexConfig::default(),
                scheme.as_ref(),
                &mut vol,
                &oracle,
                &archive,
                &empty,
                true,
                &format!("{ctx} first-commit"),
            );
            assert!(a > 0, "{ctx}: phase A explored no crash points");
            fs::remove_dir_all(&empty).unwrap();

            // Establish epoch 1 on disk, then twice: advance the
            // in-memory wave one more day, crash the next commit
            // everywhere, and commit it for real. The second and third
            // commits carry unchanged constituents' files over from
            // earlier epochs, so every crash point must also leave each
            // carried file in place — referenced by whichever manifest
            // survives, never swept as an orphan.
            let base = scratch_dir("base");
            if base.exists() {
                fs::remove_dir_all(&base).unwrap();
            }
            let mut base_store = FileStore::open(&base).unwrap();
            let retry = RetryPolicy::no_backoff(1);
            commit_wave(scheme.wave(), &mut vol, &mut base_store, &retry).unwrap();
            for (d, which) in [(W + 3, "second-commit"), (W + 4, "third-commit")] {
                let b = day_batch(d);
                oracle.insert(&b);
                archive.insert(b);
                scheme.transition(&mut vol, &archive, Day(d)).unwrap();
                let b = explore_commit(
                    IndexConfig::default(),
                    scheme.as_ref(),
                    &mut vol,
                    &oracle,
                    &archive,
                    &base,
                    false,
                    &format!("{ctx} {which}"),
                );
                assert!(b > 0, "{ctx}: {which} explored no crash points");
                let report = commit_wave(scheme.wave(), &mut vol, &mut base_store, &retry).unwrap();
                carried_files += report.files_reused;
            }
            fs::remove_dir_all(&base).unwrap();

            scheme.release(&mut vol).unwrap();
            assert_eq!(vol.live_blocks(), 0, "{ctx}: scheme leaked blocks");
        }
    }
    assert!(
        carried_files > 0,
        "no explored commit carried a file across epochs"
    );
}

/// The same explorer with the buffered ingest tier on: thresholds are
/// tuned so transitions leave buffers dirty at some commits and spill
/// at others, which drives the commit through every `.ing`-sidecar
/// crash point — clean, torn log temp write, spill completed but the
/// manifest flip lost. Every crash must still recover to exactly the
/// pre- or post-transition wave with zero residue; a torn unreferenced
/// log is crash residue, never quarantine-worthy.
#[test]
fn dirty_buffer_crash_points_recover_to_pre_or_post_state() {
    let index = IndexConfig {
        ingest: IngestConfig {
            enabled: true,
            max_entries: 7,
            max_days: 3,
        },
        ..Default::default()
    };
    let mut any_dirty_commit = false;
    for kind in SchemeKind::ALL {
        for technique in techniques() {
            let n = kind.min_fan().max(3);
            let mut vol = Volume::default();
            let mut scheme = kind
                .build(
                    SchemeConfig::new(W, n)
                        .with_technique(technique)
                        .with_index(index),
                )
                .unwrap();
            let mut archive = DayArchive::new();
            let mut oracle = Oracle::new();
            for d in 1..=W {
                let b = day_batch(d);
                oracle.insert(&b);
                archive.insert(b);
            }
            scheme.start(&mut vol, &archive).unwrap();
            for d in (W + 1)..=(W + 2) {
                let b = day_batch(d);
                oracle.insert(&b);
                archive.insert(b);
                scheme.transition(&mut vol, &archive, Day(d)).unwrap();
            }
            let ctx = format!("{kind}/{technique:?} buffered");

            // Establish epoch 1 (possibly with `.ing` sidecars on
            // disk), advance one more day so some buffers are dirty,
            // then crash the epoch-2 commit everywhere.
            let base = scratch_dir("ing-base");
            if base.exists() {
                fs::remove_dir_all(&base).unwrap();
            }
            let mut base_store = FileStore::open(&base).unwrap();
            commit_wave(
                scheme.wave(),
                &mut vol,
                &mut base_store,
                &RetryPolicy::no_backoff(1),
            )
            .unwrap();
            let d = W + 3;
            let b = day_batch(d);
            oracle.insert(&b);
            archive.insert(b);
            scheme.transition(&mut vol, &archive, Day(d)).unwrap();
            any_dirty_commit |= scheme
                .wave()
                .iter()
                .any(|(_, idx)| !idx.ingest().is_empty());
            let explored = explore_commit(
                index,
                scheme.as_ref(),
                &mut vol,
                &oracle,
                &archive,
                &base,
                false,
                &ctx,
            );
            assert!(explored > 0, "{ctx}: explored no crash points");
            fs::remove_dir_all(&base).unwrap();

            scheme.release(&mut vol).unwrap();
            assert_eq!(vol.live_blocks(), 0, "{ctx}: scheme leaked blocks");
        }
    }
    assert!(
        any_dirty_commit,
        "thresholds never left a buffer dirty at commit time; \
         the sweep exercised no `.ing` crash points"
    );
}

/// Tears every filter sidecar of a committed store in turn (and once
/// all at once, deleted outright): [`fsck`] must flag the damage,
/// [`recover`] must rebuild the sidecar from the constituent image
/// without quarantining or dropping anything, and the repaired store
/// must pass fsck and the strict loader while still matching the
/// oracle.
#[test]
fn torn_filter_sidecars_are_rebuilt_by_recover() {
    use wave_index::recovery::fsck;
    use wave_obs::Obs;

    let mut vol = Volume::default();
    let mut scheme = SchemeKind::WataStar.build(SchemeConfig::new(W, 3)).unwrap();
    let mut archive = DayArchive::new();
    let mut oracle = Oracle::new();
    for d in 1..=W {
        let b = day_batch(d);
        oracle.insert(&b);
        archive.insert(b);
    }
    scheme.start(&mut vol, &archive).unwrap();
    let base = scratch_dir("sidecar-base");
    let mut base_store = FileStore::open(&base).unwrap();
    commit_wave(
        scheme.wave(),
        &mut vol,
        &mut base_store,
        &RetryPolicy::no_backoff(1),
    )
    .unwrap();
    let sidecars: Vec<String> = base_store
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| n.ends_with(".filt"))
        .collect();
    assert!(!sidecars.is_empty(), "commit wrote no sidecars");

    // One experiment per sidecar (torn), plus one with every sidecar
    // deleted at once.
    let mut experiments: Vec<Vec<(String, bool)>> =
        sidecars.iter().map(|s| vec![(s.clone(), false)]).collect();
    experiments.push(sidecars.iter().map(|s| (s.clone(), true)).collect());
    for damage in experiments {
        let work = scratch_dir("sidecar-work");
        clone_dir(&base, &work);
        let mut store = FileStore::open(&work).unwrap();
        for (name, delete) in &damage {
            if *delete {
                store.remove(name).unwrap();
            } else {
                let mut bytes = store.get(name).unwrap().unwrap();
                bytes.truncate(bytes.len() / 2);
                store.put(name, &bytes).unwrap();
            }
        }
        let ctx = format!("damage={damage:?}");
        let pre = fsck(&mut store, &Obs::noop()).unwrap();
        assert!(!pre.is_clean(), "{ctx}: fsck missed the damage");
        assert_eq!(
            pre.filter_corrupt.len() + pre.filter_missing.len(),
            damage.len(),
            "{ctx}: fsck misclassified: {pre:?}"
        );
        assert!(pre.corrupt.is_empty() && pre.missing.is_empty(), "{ctx}");

        let mut vol2 = Volume::default();
        let (loaded, report) = recover(IndexConfig::default(), &mut vol2, &mut store, None)
            .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
        let mut loaded = loaded.unwrap_or_else(|| panic!("{ctx}: wave lost to sidecar damage"));
        let mut rebuilt = report.rebuilt_filters.clone();
        rebuilt.sort_unstable();
        let mut expected: Vec<String> = damage.iter().map(|(n, _)| n.clone()).collect();
        expected.sort_unstable();
        assert_eq!(rebuilt, expected, "{ctx}");
        assert!(
            report.quarantined.is_empty()
                && report.rebuilt.is_empty()
                && report.dropped_slots.is_empty(),
            "{ctx}: sidecar repair must not touch constituents: {report:?}"
        );
        assert_matches_oracle(&mut loaded, &oracle, &mut vol2, &ctx);
        assert_no_orphans(&mut store, &loaded, &ctx);
        loaded.wave.release_all(&mut vol2).unwrap();

        let post = fsck(&mut store, &Obs::noop()).unwrap();
        assert!(
            post.is_clean(),
            "{ctx}: store unclean after repair: {post:?}"
        );
        let mut vol3 = Volume::default();
        let mut reloaded = load_committed(IndexConfig::default(), &mut vol3, &mut store)
            .unwrap()
            .unwrap_or_else(|| panic!("{ctx}: strict load refused the repaired store"));
        reloaded.wave.release_all(&mut vol3).unwrap();
        fs::remove_dir_all(&work).unwrap();
    }
    fs::remove_dir_all(&base).unwrap();
    scheme.release(&mut vol).unwrap();
    assert_eq!(vol.live_blocks(), 0);
}

/// A transient-error burst shorter than the retry budget must not
/// surface at all: the commit succeeds and the retry counter records
/// the attempts.
#[test]
fn transient_errors_are_retried_through_commit() {
    let mut vol = Volume::default();
    let sink = std::sync::Arc::new(wave_obs::MemorySink::new());
    let obs = wave_obs::Obs::new(sink);
    vol.attach_obs(obs.clone());
    let mut scheme = SchemeKind::Reindex.build(SchemeConfig::new(W, 3)).unwrap();
    let mut archive = DayArchive::new();
    for d in 1..=W {
        archive.insert(day_batch(d));
    }
    scheme.start(&mut vol, &archive).unwrap();

    let mut faulty = FaultyStore::new(FileStore::open_temp().unwrap());
    faulty.arm_transient(2, 2);
    let report = commit_wave(
        scheme.wave(),
        &mut vol,
        &mut faulty,
        &RetryPolicy::no_backoff(4),
    )
    .unwrap();
    assert_eq!(report.epoch, 1);
    assert_eq!(obs.counter("store.retry_attempts").get(), 2);
    assert!(!faulty.crashed());

    // The committed store is intact despite the turbulence.
    let mut store = faulty.into_inner();
    let mut vol2 = Volume::default();
    let mut loaded = load_committed(IndexConfig::default(), &mut vol2, &mut store)
        .unwrap()
        .unwrap();
    assert_eq!(loaded.wave.entry_count(), scheme.wave().entry_count());
    loaded.wave.release_all(&mut vol2).unwrap();
    scheme.release(&mut vol).unwrap();
    store.destroy().unwrap();
}

/// A burst longer than the retry budget surfaces as the transient
/// error itself — never a panic, never a silent partial commit.
#[test]
fn transient_burst_exceeding_retry_budget_fails_cleanly() {
    let mut vol = Volume::default();
    let mut scheme = SchemeKind::Del.build(SchemeConfig::new(W, 3)).unwrap();
    let mut archive = DayArchive::new();
    for d in 1..=W {
        archive.insert(day_batch(d));
    }
    scheme.start(&mut vol, &archive).unwrap();

    let mut faulty = FaultyStore::new(FileStore::open_temp().unwrap());
    faulty.arm_transient(1, 10);
    let err = commit_wave(
        scheme.wave(),
        &mut vol,
        &mut faulty,
        &RetryPolicy::no_backoff(3),
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("transient"),
        "expected the transient error to surface: {err}"
    );

    // The store was mid-phase-1: recovery rolls it back to empty.
    let mut store = faulty.into_inner();
    let mut vol2 = Volume::default();
    let (loaded, _report) = recover(
        IndexConfig::default(),
        &mut vol2,
        &mut store,
        Some(&archive),
    )
    .unwrap();
    assert!(loaded.is_none());
    assert!(store.list().unwrap().is_empty());
    scheme.release(&mut vol).unwrap();
    store.destroy().unwrap();
}
