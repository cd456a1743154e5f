//! Recovery and consistency checking for committed wave stores.
//!
//! [`fsck`] is the read-only half: it scans a store, verifies the
//! manifest and every referenced file against its recorded length and
//! CRC64, and reports what it found without changing anything.
//!
//! [`recover`] is the repairing half, run after a crash (or whenever
//! [`crate::persist::load_committed`] refuses a store). It restores
//! the invariant that the store holds exactly one verifiable
//! committed wave plus (possibly) quarantined evidence:
//!
//! * **No manifest** — the store never completed a first commit; any
//!   files present are phase-1 residue of a crashed commit. They are
//!   deleted, rolling back to the empty pre-commit state.
//! * **Corrupt manifest** — the commit pointer itself cannot be
//!   trusted: it fails its checksum or does not parse, which includes
//!   naming a version other than `wave-manifest 2`. The manifest is
//!   quarantined (renamed `MANIFEST.quar`) and *nothing* is
//!   garbage-collected: the constituent files are the only remaining
//!   evidence and a later forensic pass (or an operator) may still
//!   reconstruct from them.
//! * **Valid manifest, damaged constituents** — each missing or
//!   corrupt constituent is quarantined and, when the day archive
//!   still holds its days, rebuilt from first principles
//!   (`BuildIndex` over the archived batches). A constituent that
//!   cannot be rebuilt is dropped from the manifest — a degraded but
//!   honest result: queries lose those days rather than returning
//!   bytes nobody can vouch for.
//! * **Orphans** — files no manifest references (phase-1 residue of
//!   the crashed next epoch, `.tmp` torn-write leftovers) are
//!   removed, except quarantined `.quar` evidence.
//! * **Damaged filter sidecars** — a missing or corrupt `.filt`
//!   sidecar never degrades the wave: the membership filter is
//!   derived data, so [`recover`] rebuilds the sidecar from the
//!   (verified) constituent image and re-references it in the
//!   manifest. No quarantine, no slot drop.
//! * **Damaged ingest logs** — a missing or corrupt `.ing` sidecar is
//!   the opposite of a filter: buffered updates live *nowhere else*
//!   on disk, so the slot's logical contents cannot be reconstructed
//!   from the (healthy) image alone. The log and image are
//!   quarantined and the constituent is rebuilt from the day archive
//!   (the manifest's day list is logical, so it covers the buffered
//!   days) or the slot is dropped — exactly the damaged-constituent
//!   policy.
//!
//! Every action is counted on the volume's [`wave_obs::Obs`] handle:
//! `fsck.files_scanned`, `fsck.checksum_failures`,
//! `recover.rollbacks`, `recover.rebuilds`,
//! `recover.filter_rebuilds`, `recover.quarantines`,
//! `recover.orphans_removed`.

use wave_storage::{IndexStore, Obs, Volume};

use crate::error::IndexResult;
use crate::index::{ConstituentIndex, IndexConfig};
use crate::persist::{
    index_to_bytes, load_filter_sidecar, FileRef, LoadedWave, Manifest, ManifestEntry,
    MANIFEST_NAME, QUARANTINE_SUFFIX,
};
use crate::record::{DayArchive, DayBatch};
use crate::wave::WaveIndex;

/// Read-only scan result of [`fsck`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Whether a `MANIFEST` file exists.
    pub manifest_present: bool,
    /// Whether the manifest parsed and passed its own checksum.
    pub manifest_ok: bool,
    /// Epoch of the valid manifest, if any.
    pub epoch: Option<u64>,
    /// Files examined (manifest included).
    pub files_scanned: usize,
    /// Referenced constituents that verified clean.
    pub ok_files: Vec<String>,
    /// Referenced constituents whose length or checksum disagrees
    /// with the manifest.
    pub corrupt: Vec<String>,
    /// Referenced constituents absent from the store.
    pub missing: Vec<String>,
    /// Files no manifest references (crash residue).
    pub orphans: Vec<String>,
    /// Quarantined `.quar` evidence files present.
    pub quarantined: Vec<String>,
    /// Referenced filter sidecars that verified clean.
    pub filter_ok: Vec<String>,
    /// Referenced filter sidecars whose length or checksum disagrees
    /// with the manifest.
    pub filter_corrupt: Vec<String>,
    /// Referenced filter sidecars absent from the store.
    pub filter_missing: Vec<String>,
    /// Referenced ingest-log sidecars that verified clean.
    pub ingest_ok: Vec<String>,
    /// Referenced ingest-log sidecars whose length or checksum
    /// disagrees with the manifest.
    pub ingest_corrupt: Vec<String>,
    /// Referenced ingest-log sidecars absent from the store.
    pub ingest_missing: Vec<String>,
}

impl FsckReport {
    /// Whether the store is exactly one verifiable committed wave
    /// with no residue (quarantined evidence is tolerated). Damaged
    /// filter sidecars make a store unclean — they are repairable
    /// (see [`recover`]) but the store is not byte-for-byte the one
    /// that was committed.
    pub fn is_clean(&self) -> bool {
        self.manifest_ok
            && self.corrupt.is_empty()
            && self.missing.is_empty()
            && self.orphans.is_empty()
            && self.filter_corrupt.is_empty()
            && self.filter_missing.is_empty()
            && self.ingest_corrupt.is_empty()
            && self.ingest_missing.is_empty()
    }
}

/// Checks a committed store without modifying it.
///
/// An empty store (no manifest, no files) is vacuously clean except
/// that `manifest_ok` is false; callers distinguish it via
/// `manifest_present`.
pub fn fsck(store: &mut dyn IndexStore, obs: &Obs) -> IndexResult<FsckReport> {
    let scanned = obs.counter("fsck.files_scanned");
    let failures = obs.counter("fsck.checksum_failures");
    let mut report = FsckReport::default();

    let manifest = match store.get(MANIFEST_NAME)? {
        None => None,
        Some(bytes) => {
            report.manifest_present = true;
            report.files_scanned += 1;
            scanned.inc();
            match Manifest::from_bytes(&bytes) {
                Ok(m) => {
                    report.manifest_ok = true;
                    report.epoch = Some(m.epoch);
                    Some(m)
                }
                Err(_) => {
                    failures.inc();
                    None
                }
            }
        }
    };

    let mut referenced: Vec<&str> = Vec::new();
    if let Some(m) = &manifest {
        // One CRC pass per file: `verify` proves the length, the
        // file's own trailer and the manifest's checksum together.
        let mut check =
            |r: &FileRef, [ok, corrupt, missing]: [&mut Vec<String>; 3]| -> IndexResult<()> {
                scanned.inc();
                match store.get(&r.file)? {
                    None => missing.push(r.file.clone()),
                    Some(bytes) if r.verify(&bytes).is_ok() => ok.push(r.file.clone()),
                    Some(_) => {
                        failures.inc();
                        corrupt.push(r.file.clone());
                    }
                }
                Ok(())
            };
        for e in &m.entries {
            let r = &mut report;
            check(
                &e.image(),
                [&mut r.ok_files, &mut r.corrupt, &mut r.missing],
            )?;
            if let Some(f) = &e.filter {
                let lists = [
                    &mut r.filter_ok,
                    &mut r.filter_corrupt,
                    &mut r.filter_missing,
                ];
                check(f, lists)?;
            }
            if let Some(l) = &e.ingest {
                let lists = [
                    &mut r.ingest_ok,
                    &mut r.ingest_corrupt,
                    &mut r.ingest_missing,
                ];
                check(l, lists)?;
            }
        }
        referenced = m.entries.iter().flat_map(ManifestEntry::files).collect();
        report.files_scanned += referenced.len();
    }

    for name in store.list()? {
        if name == MANIFEST_NAME || referenced.contains(&name.as_str()) {
            continue;
        }
        if name.ends_with(QUARANTINE_SUFFIX) {
            report.quarantined.push(name);
        } else {
            report.orphans.push(name);
        }
    }
    Ok(report)
}

/// What one [`recover`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoverReport {
    /// Epoch of the wave the store holds after recovery, if any.
    pub epoch: Option<u64>,
    /// A manifest-less store was rolled back to empty (files listed).
    pub rolled_back: Vec<String>,
    /// The manifest itself was corrupt and quarantined.
    pub manifest_quarantined: bool,
    /// Constituents rebuilt from the day archive.
    pub rebuilt: Vec<String>,
    /// Filter sidecars rebuilt from their (healthy) constituent
    /// images. Cheap, lossless repairs: the filter is derived data.
    pub rebuilt_filters: Vec<String>,
    /// Slots dropped because their days left the archive.
    pub dropped_slots: Vec<usize>,
    /// Files quarantined as `.quar` evidence.
    pub quarantined: Vec<String>,
    /// Unreferenced crash residue removed.
    pub orphans_removed: usize,
}

/// Repairs a committed store and loads the best wave it can vouch
/// for, per the module-level policy. Returns the loaded wave (if any
/// committed state survives) and a report of every action taken.
pub fn recover(
    cfg: IndexConfig,
    vol: &mut Volume,
    store: &mut dyn IndexStore,
    archive: Option<&DayArchive>,
) -> IndexResult<(Option<LoadedWave>, RecoverReport)> {
    let obs = vol.obs().clone();
    let mut span = obs.root_span("recover", &[]);
    let ctx = span.ctx();
    vol.set_trace_ctx(ctx);
    let before = vol.stats();
    let result = recover_inner(cfg, vol, store, archive, &obs);
    vol.set_trace_ctx(wave_obs::TraceCtx::NONE);
    match &result {
        Ok((loaded, report)) => {
            let us = (vol.stats().since(&before).sim_seconds * 1e6)
                .round()
                .max(0.0) as u64;
            let outcome = if report.manifest_quarantined {
                "manifest_quarantined"
            } else if loaded.is_some() {
                "loaded"
            } else {
                "rolled_back_to_empty"
            };
            span.set_end_field("outcome", outcome);
            span.set_end_field("latency_us", us);
            obs.slo().record("recover", None, us, ctx.trace_id);
        }
        Err(e) => span.set_end_field("error", e.to_string()),
    }
    result
}

fn recover_inner(
    cfg: IndexConfig,
    vol: &mut Volume,
    store: &mut dyn IndexStore,
    archive: Option<&DayArchive>,
    obs: &wave_obs::Obs,
) -> IndexResult<(Option<LoadedWave>, RecoverReport)> {
    let rollbacks = obs.counter("recover.rollbacks");
    let rebuilds = obs.counter("recover.rebuilds");
    let filter_rebuilds = obs.counter("recover.filter_rebuilds");
    let quarantines = obs.counter("recover.quarantines");
    let orphan_counter = obs.counter("recover.orphans_removed");
    let mut report = RecoverReport::default();

    let manifest_bytes = store.get(MANIFEST_NAME)?;
    let Some(manifest_bytes) = manifest_bytes else {
        // Never committed: everything on disk is phase-1 residue of a
        // crashed first commit. Roll back to empty.
        for name in store.list()? {
            if name.ends_with(QUARANTINE_SUFFIX) {
                continue;
            }
            store.remove(&name)?;
            report.rolled_back.push(name);
        }
        if !report.rolled_back.is_empty() {
            rollbacks.inc();
        }
        obs.event(
            "recover",
            wave_obs::fields![("outcome", "rolled_back_to_empty")],
        );
        return Ok((None, report));
    };

    let mut manifest = match Manifest::from_bytes(&manifest_bytes) {
        Ok(m) => m,
        Err(_) => {
            // The commit pointer is untrustworthy. Preserve everything
            // for forensics: quarantine the manifest, GC nothing.
            store.rename(
                MANIFEST_NAME,
                &format!("{MANIFEST_NAME}{QUARANTINE_SUFFIX}"),
            )?;
            quarantines.inc();
            report.manifest_quarantined = true;
            report
                .quarantined
                .push(format!("{MANIFEST_NAME}{QUARANTINE_SUFFIX}"));
            obs.event(
                "recover",
                wave_obs::fields![("outcome", "manifest_quarantined")],
            );
            return Ok((None, report));
        }
    };

    // Validate each constituent; quarantine + rebuild (or drop) the
    // damaged ones.
    let mut wave = WaveIndex::with_slots(manifest.slots);
    let mut kept = Vec::new();
    let mut manifest_dirty = false;
    let mut result: IndexResult<()> = Ok(());
    for mut entry in std::mem::take(&mut manifest.entries) {
        if result.is_err() {
            break;
        }
        // Every healthy path `continue`s (or `break`s on a hard
        // error), so the match yields the damage kind directly — no
        // placeholder `Option` to unwrap on the recovery path.
        let damage: String = match store.get(&entry.file) {
            Err(e) => {
                result = Err(e.into());
                break;
            }
            Ok(None) => "missing".into(),
            // Length, checksum (one CRC pass), decode, label.
            Ok(Some(bytes)) => match entry.decode_image(cfg, vol, &bytes) {
                Err(e) => e.to_string(),
                Ok(mut idx) => {
                    // Replay the ingest log before anything
                    // else (mirroring the strict loader). A
                    // damaged log is the opposite of a filter
                    // sidecar: the buffered updates it holds
                    // exist nowhere else on disk, so damage
                    // here is constituent damage — quarantine
                    // the log and fall through to the
                    // rebuild-or-drop path below.
                    let mut torn_log = None;
                    if let Some(iref) = &entry.ingest {
                        match crate::persist::load_ingest_log(store, iref) {
                            Ok((deletes, pending, adds)) => {
                                idx.replay_ingest(vol, &deletes, &pending, adds);
                                obs.counter("ingest.log_replays").inc();
                            }
                            Err(_) => torn_log = Some(iref.clone()),
                        }
                    }
                    if let Some(iref) = torn_log {
                        if let Err(e) = idx.release(vol) {
                            result = Err(e);
                            break;
                        }
                        entry.ingest = None;
                        let quar = format!("{}{}", iref.file, QUARANTINE_SUFFIX);
                        match store.rename(&iref.file, &quar) {
                            Ok(()) => {
                                quarantines.inc();
                                report.quarantined.push(quar);
                            }
                            Err(wave_storage::StorageError::FileNotFound(_)) => {}
                            Err(e) => {
                                result = Err(e.into());
                                break;
                            }
                        }
                        "ingest log torn".into()
                    } else {
                        // The constituent is healthy; its filter
                        // sidecar may not be. Repair is cheap and
                        // lossless (the filter is derived data),
                        // so it never quarantines or drops.
                        match repair_sidecar(cfg, store, &mut entry, &mut idx) {
                            Ok(SidecarFix::Intact) => {}
                            Ok(SidecarFix::Rebuilt(name)) => {
                                manifest_dirty = true;
                                filter_rebuilds.inc();
                                obs.event(
                                    "recover.filter_rebuild",
                                    wave_obs::fields![("file", name.as_str())],
                                );
                                report.rebuilt_filters.push(name);
                            }
                            Ok(SidecarFix::Dropped) => manifest_dirty = true,
                            Err(e) => {
                                if let Err(e2) = idx.release(vol) {
                                    result = Err(e2);
                                } else {
                                    result = Err(e);
                                }
                                break;
                            }
                        }
                        entry.mark_durable(&idx);
                        wave.install(entry.slot, idx);
                        kept.push(entry);
                        continue;
                    }
                }
            },
        };

        // Quarantine whatever bytes exist before touching the slot.
        let quar = format!("{}{}", entry.file, QUARANTINE_SUFFIX);
        match store.rename(&entry.file, &quar) {
            Ok(()) => {
                quarantines.inc();
                report.quarantined.push(quar);
            }
            Err(wave_storage::StorageError::FileNotFound(_)) => {}
            Err(e) => {
                result = Err(e.into());
                break;
            }
        }

        // Rebuild from the archive when every covered day is still
        // there; otherwise drop the slot (degraded recovery).
        let batches: Option<Vec<&DayBatch>> = archive.and_then(|a| {
            entry
                .days
                .iter()
                .map(|d| a.get(*d))
                .collect::<Option<Vec<_>>>()
        });
        manifest_dirty = true;
        match batches {
            Some(batches) if !batches.is_empty() => {
                let rebuilt = (|| -> IndexResult<ConstituentIndex> {
                    let idx =
                        ConstituentIndex::build_packed(entry.label.clone(), cfg, vol, &batches)?;
                    let image = index_to_bytes(&idx, vol)?;
                    store.put(&entry.file, &image)?;
                    let image = FileRef::of(entry.file.clone(), &image)?;
                    (entry.len, entry.crc64) = (image.len, image.crc64);
                    // The rebuilt constituent gets a rebuilt sidecar:
                    // the old one (if any) described the old image.
                    entry.filter = match idx.membership_filter() {
                        Some(f) => {
                            let sidecar = f.to_bytes();
                            let name = format!("{}.filt", entry.file);
                            store.put(&name, &sidecar)?;
                            Some(FileRef::of(name, &sidecar)?)
                        }
                        None => None,
                    };
                    // A rebuild covers every logical day physically,
                    // so any surviving log reference is stale; the
                    // unreferenced `.ing` file is swept below.
                    entry.ingest = None;
                    Ok(idx)
                })();
                match rebuilt {
                    Ok(idx) => {
                        rebuilds.inc();
                        obs.event(
                            "recover.rebuild",
                            wave_obs::fields![
                                ("file", entry.file.as_str()),
                                ("damage", damage.as_str())
                            ],
                        );
                        report.rebuilt.push(entry.file.clone());
                        entry.mark_durable(&idx);
                        wave.install(entry.slot, idx);
                        kept.push(entry);
                    }
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            _ => {
                obs.event(
                    "recover.drop_slot",
                    wave_obs::fields![("slot", entry.slot as u64), ("damage", damage.as_str())],
                );
                report.dropped_slots.push(entry.slot);
            }
        }
    }
    if let Err(e) = result {
        wave.release_all(vol)?;
        return Err(e);
    }
    manifest.entries = kept;

    // Rewrite the manifest if repair changed it (atomic flip again).
    if manifest_dirty {
        let mut days = std::collections::BTreeSet::new();
        for e in &manifest.entries {
            days.extend(e.days.iter().copied());
        }
        manifest.window = match (days.first(), days.last()) {
            (Some(&lo), Some(&hi)) => Some((lo, hi)),
            _ => None,
        };
        store.put(MANIFEST_NAME, &manifest.to_bytes())?;
    }

    // Sweep crash residue the manifest does not reference. Sidecars
    // of dropped slots (and stale refs dropped by repair) land here.
    for name in store.list()? {
        if name == MANIFEST_NAME
            || name.ends_with(QUARANTINE_SUFFIX)
            || manifest
                .entries
                .iter()
                .any(|e| e.files().any(|f| f == name))
        {
            continue;
        }
        store.remove(&name)?;
        orphan_counter.inc();
        report.orphans_removed += 1;
    }

    report.epoch = Some(manifest.epoch);
    obs.event(
        "recover",
        wave_obs::fields![
            ("outcome", "loaded"),
            ("epoch", manifest.epoch),
            ("rebuilt", report.rebuilt.len() as u64),
            ("dropped", report.dropped_slots.len() as u64),
            ("orphans_removed", report.orphans_removed as u64)
        ],
    );
    Ok((Some(LoadedWave { wave, manifest }), report))
}

/// What [`repair_sidecar`] did to a healthy constituent's sidecar.
enum SidecarFix {
    /// The sidecar verified clean (or the entry never had one).
    Intact,
    /// The sidecar was damaged and rewritten from the constituent.
    Rebuilt(String),
    /// The sidecar was damaged and this config runs no filters, so
    /// the stale reference was dropped (the file, if present, becomes
    /// an orphan for the sweep).
    Dropped,
}

/// Verifies `entry`'s filter sidecar and repairs it from the decoded
/// constituent when damaged. A valid sidecar is installed into `idx`
/// (mirroring [`crate::persist::load_committed`]); a damaged one is
/// rewritten from the filter the image decode just rebuilt.
fn repair_sidecar(
    cfg: IndexConfig,
    store: &mut dyn IndexStore,
    entry: &mut ManifestEntry,
    idx: &mut ConstituentIndex,
) -> IndexResult<SidecarFix> {
    let Some(fref) = entry.filter.clone() else {
        return Ok(SidecarFix::Intact);
    };
    if let Ok(f) = load_filter_sidecar(store, &fref) {
        if cfg.filter.enabled {
            idx.install_filter(f);
        }
        return Ok(SidecarFix::Intact);
    }
    match idx.membership_filter() {
        Some(f) => {
            let sidecar = f.to_bytes();
            store.put(&fref.file, &sidecar)?;
            entry.filter = Some(FileRef::of(fref.file.clone(), &sidecar)?);
            Ok(SidecarFix::Rebuilt(fref.file))
        }
        None => {
            entry.filter = None;
            Ok(SidecarFix::Dropped)
        }
    }
}

/// Convenience: quarantined-evidence count currently in a store.
pub fn quarantined_files(store: &mut dyn IndexStore) -> IndexResult<Vec<String>> {
    Ok(store
        .list()?
        .into_iter()
        .filter(|n| n.ends_with(QUARANTINE_SUFFIX))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{commit_wave, load_committed};
    use crate::record::{Day, DayBatch, Record, RecordId, SearchValue};
    use wave_storage::{FileStore, RetryPolicy};

    fn day_batch(day: u32, ids: &[u64]) -> DayBatch {
        DayBatch::new(
            Day(day),
            ids.iter()
                .map(|id| Record::with_values(RecordId(*id), [SearchValue::from("w")]))
                .collect(),
        )
    }

    /// Builds a 2-slot wave over days 1-2 / 3-4 plus the matching
    /// archive.
    fn committed_store() -> (FileStore, Volume, WaveIndex, DayArchive) {
        let mut vol = Volume::default();
        let mut archive = DayArchive::new();
        let mut wave = WaveIndex::with_slots(2);
        let cfg = IndexConfig::default();
        let batches: Vec<DayBatch> = (1..=4).map(|d| day_batch(d, &[d as u64])).collect();
        for b in &batches {
            archive.insert(b.clone());
        }
        wave.install(
            0,
            ConstituentIndex::build_packed("I1", cfg, &mut vol, &[&batches[0], &batches[1]])
                .unwrap(),
        );
        wave.install(
            1,
            ConstituentIndex::build_packed("I2", cfg, &mut vol, &[&batches[2], &batches[3]])
                .unwrap(),
        );
        let mut store = FileStore::open_temp().unwrap();
        commit_wave(&wave, &mut vol, &mut store, &RetryPolicy::no_backoff(1)).unwrap();
        (store, vol, wave, archive)
    }

    fn teardown(store: FileStore, mut vol: Volume, mut wave: WaveIndex) {
        wave.release_all(&mut vol).unwrap();
        store.destroy().unwrap();
    }

    #[test]
    fn fsck_reports_clean_committed_store() {
        let (mut store, _vol, wave, _archive) = committed_store();
        let report = fsck(&mut store, &Obs::noop()).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.epoch, Some(1));
        assert_eq!(report.ok_files.len(), 2);
        assert_eq!(report.filter_ok.len(), 2, "sidecars verified too");
        assert_eq!(report.files_scanned, 5, "manifest + 2 images + 2 sidecars");
        teardown(store, _vol, wave);
    }

    #[test]
    fn fsck_flags_damaged_filter_sidecars() {
        let (mut store, _vol, wave, _archive) = committed_store();
        let mut bytes = store.get("slot0.e1.filt").unwrap().unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        store.put("slot0.e1.filt", &bytes).unwrap();
        store.remove("slot1.e1.filt").unwrap();
        let report = fsck(&mut store, &Obs::noop()).unwrap();
        assert!(!report.is_clean(), "{report:?}");
        assert_eq!(report.filter_corrupt, vec!["slot0.e1.filt".to_string()]);
        assert_eq!(report.filter_missing, vec!["slot1.e1.filt".to_string()]);
        assert!(report.corrupt.is_empty(), "images themselves are fine");
        assert!(report.orphans.is_empty(), "sidecars are referenced files");
        teardown(store, _vol, wave);
    }

    #[test]
    fn fsck_detects_corruption_missing_and_orphans() {
        let (mut store, _vol, wave, _archive) = committed_store();
        // Corrupt one constituent, delete the other, add an orphan.
        let mut bytes = store.get("slot0.e1").unwrap().unwrap();
        bytes[10] ^= 0xFF;
        // Bypass put's name discipline deliberately: same name, bad bytes.
        store.put("slot0.e1", &bytes).unwrap();
        store.remove("slot1.e1").unwrap();
        store.put("slot9.e9", b"junk").unwrap();
        let report = fsck(&mut store, &Obs::noop()).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.corrupt, vec!["slot0.e1".to_string()]);
        assert_eq!(report.missing, vec!["slot1.e1".to_string()]);
        assert_eq!(report.orphans, vec!["slot9.e9".to_string()]);
        teardown(store, _vol, wave);
    }

    #[test]
    fn recover_rolls_back_a_never_committed_store() {
        let mut store = FileStore::open_temp().unwrap();
        store.put("slot0.e1", b"phase-1 residue").unwrap();
        store.put("slot1.e1", b"more residue").unwrap();
        let mut vol = Volume::default();
        let (loaded, report) = recover(IndexConfig::default(), &mut vol, &mut store, None).unwrap();
        assert!(loaded.is_none());
        assert_eq!(report.rolled_back.len(), 2);
        assert!(store.list().unwrap().is_empty());
        store.destroy().unwrap();
    }

    #[test]
    fn recover_quarantines_a_corrupt_manifest_and_keeps_evidence() {
        let (mut store, _vol, wave, _archive) = committed_store();
        let mut bytes = store.get(MANIFEST_NAME).unwrap().unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        store.put(MANIFEST_NAME, &bytes).unwrap();
        let mut vol2 = Volume::default();
        let (loaded, report) =
            recover(IndexConfig::default(), &mut vol2, &mut store, None).unwrap();
        assert!(loaded.is_none());
        assert!(report.manifest_quarantined);
        let names = store.list().unwrap();
        assert!(names.contains(&"MANIFEST.quar".to_string()));
        // Evidence preserved: constituent files untouched.
        assert!(names.contains(&"slot0.e1".to_string()));
        assert!(names.contains(&"slot1.e1".to_string()));
        teardown(store, _vol, wave);
    }

    #[test]
    fn recover_rebuilds_a_corrupt_constituent_from_the_archive() {
        let (mut store, _vol, wave, archive) = committed_store();
        let mut bytes = store.get("slot0.e1").unwrap().unwrap();
        bytes[12] ^= 0x80;
        store.put("slot0.e1", &bytes).unwrap();
        let mut vol2 = Volume::default();
        let (loaded, report) = recover(
            IndexConfig::default(),
            &mut vol2,
            &mut store,
            Some(&archive),
        )
        .unwrap();
        let mut loaded = loaded.expect("wave recovered");
        assert_eq!(report.rebuilt, vec!["slot0.e1".to_string()]);
        assert_eq!(report.quarantined, vec!["slot0.e1.quar".to_string()]);
        assert!(report.dropped_slots.is_empty());
        assert_eq!(loaded.wave.entry_count(), wave.entry_count());
        // The repaired store now loads cleanly through the strict path.
        let mut vol3 = Volume::default();
        let reloaded = load_committed(IndexConfig::default(), &mut vol3, &mut store)
            .unwrap()
            .expect("strict load succeeds after repair");
        let mut reloaded = reloaded;
        reloaded.wave.release_all(&mut vol3).unwrap();
        loaded.wave.release_all(&mut vol2).unwrap();
        teardown(store, _vol, wave);
    }

    #[test]
    fn recover_rebuilds_torn_and_deleted_filter_sidecars() {
        let (mut store, _vol, wave, _archive) = committed_store();
        // Tear one sidecar mid-file, delete the other outright.
        let mut bytes = store.get("slot0.e1.filt").unwrap().unwrap();
        bytes.truncate(bytes.len() / 2);
        store.put("slot0.e1.filt", &bytes).unwrap();
        store.remove("slot1.e1.filt").unwrap();
        let mut vol2 = Volume::default();
        // No archive needed: the filter rebuilds from the image.
        let (loaded, report) =
            recover(IndexConfig::default(), &mut vol2, &mut store, None).unwrap();
        let mut loaded = loaded.expect("wave loads — sidecar damage never degrades it");
        assert_eq!(
            report.rebuilt_filters,
            vec!["slot0.e1.filt".to_string(), "slot1.e1.filt".to_string()]
        );
        assert!(report.rebuilt.is_empty(), "no constituent rebuilds");
        assert!(
            report.quarantined.is_empty(),
            "no quarantine for derived data"
        );
        assert!(report.dropped_slots.is_empty());
        assert!(
            loaded
                .wave
                .iter()
                .all(|(_, idx)| idx.membership_filter().is_some()),
            "loaded constituents carry their rebuilt filters"
        );
        // The repaired store is clean again and strict-loads.
        let post = fsck(&mut store, &Obs::noop()).unwrap();
        assert!(post.is_clean(), "{post:?}");
        let mut vol3 = Volume::default();
        let mut reloaded = load_committed(IndexConfig::default(), &mut vol3, &mut store)
            .unwrap()
            .expect("strict load succeeds after sidecar repair");
        reloaded.wave.release_all(&mut vol3).unwrap();
        loaded.wave.release_all(&mut vol2).unwrap();
        teardown(store, _vol, wave);
    }

    #[test]
    fn recover_counts_filter_rebuilds_on_obs() {
        let (mut store, _vol, wave, _archive) = committed_store();
        store.remove("slot0.e1.filt").unwrap();
        let sink = std::sync::Arc::new(wave_obs::MemorySink::new());
        let obs = Obs::new(sink);
        let mut vol2 = Volume::default();
        vol2.attach_obs(obs.clone());
        let (loaded, report) =
            recover(IndexConfig::default(), &mut vol2, &mut store, None).unwrap();
        let mut loaded = loaded.unwrap();
        assert_eq!(report.rebuilt_filters, vec!["slot0.e1.filt".to_string()]);
        assert_eq!(obs.counter("recover.filter_rebuilds").get(), 1);
        assert_eq!(obs.counter("recover.rebuilds").get(), 0);
        loaded.wave.release_all(&mut vol2).unwrap();
        teardown(store, _vol, wave);
    }

    #[test]
    fn recover_drops_slot_when_archive_cannot_rebuild() {
        let (mut store, _vol, wave, _archive) = committed_store();
        store.remove("slot1.e1").unwrap();
        let mut vol2 = Volume::default();
        // No archive at all: slot 1 is honestly dropped.
        let (loaded, report) =
            recover(IndexConfig::default(), &mut vol2, &mut store, None).unwrap();
        let mut loaded = loaded.expect("degraded wave still loads");
        assert_eq!(report.dropped_slots, vec![1]);
        assert!(loaded.wave.slot(0).is_some());
        assert!(loaded.wave.slot(1).is_none());
        assert_eq!(
            loaded.manifest.window,
            Some((Day(1), Day(2))),
            "window shrinks to surviving coverage"
        );
        loaded.wave.release_all(&mut vol2).unwrap();
        teardown(store, _vol, wave);
    }

    #[test]
    fn recover_sweeps_orphans_but_not_quarantine() {
        let (mut store, _vol, wave, _archive) = committed_store();
        store.put("slot0.e2", b"crashed next epoch").unwrap();
        store.put("old.quar", b"evidence").unwrap();
        let mut vol2 = Volume::default();
        let (loaded, report) =
            recover(IndexConfig::default(), &mut vol2, &mut store, None).unwrap();
        let mut loaded = loaded.expect("intact wave loads");
        assert_eq!(report.orphans_removed, 1);
        let names = store.list().unwrap();
        assert!(!names.contains(&"slot0.e2".to_string()));
        assert!(names.contains(&"old.quar".to_string()));
        assert_eq!(quarantined_files(&mut store).unwrap(), vec!["old.quar"]);
        loaded.wave.release_all(&mut vol2).unwrap();
        teardown(store, _vol, wave);
    }

    #[test]
    fn recover_counts_actions_on_obs() {
        let (mut store, _vol, wave, archive) = committed_store();
        store.remove("slot0.e1").unwrap();
        let sink = std::sync::Arc::new(wave_obs::MemorySink::new());
        let obs = Obs::new(sink);
        let mut vol2 = Volume::default();
        vol2.attach_obs(obs.clone());
        let (loaded, _report) = recover(
            IndexConfig::default(),
            &mut vol2,
            &mut store,
            Some(&archive),
        )
        .unwrap();
        let mut loaded = loaded.unwrap();
        assert_eq!(obs.counter("recover.rebuilds").get(), 1);
        loaded.wave.release_all(&mut vol2).unwrap();
        teardown(store, _vol, wave);
    }
}
