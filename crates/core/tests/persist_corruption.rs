//! Randomized corruption sweep over persisted images and manifests,
//! plus the refusal of every version but the current one.
//!
//! Every mutation a disk can plausibly inflict — truncation at any
//! length, a bit flip at any offset — must surface as a typed
//! [`IndexError`], never a panic and never a silently wrong index.
//! The sweep is seeded ([`SplitMix64`]) so failures replay exactly.

use wave_index::persist::{
    commit_wave, index_from_bytes, index_to_bytes, load_committed, FilterRef, IngestRef, Manifest,
    ManifestEntry, MANIFEST_NAME,
};
use wave_index::prelude::*;
use wave_index::recovery::{fsck, recover};
use wave_index::IndexError;
use wave_obs::SplitMix64;
use wave_storage::{crc64, FileStore, IndexStore, Obs, RetryPolicy};

/// The deterministic sample behind every sweep.
fn fixture_index(vol: &mut Volume) -> ConstituentIndexHandle {
    let b1 = DayBatch::new(
        Day(1),
        vec![
            Record::with_values(
                RecordId(1),
                [SearchValue::from("war"), SearchValue::from("peace")],
            ),
            Record::with_values(RecordId(2), [SearchValue::from("war")]),
        ],
    );
    let b2 = DayBatch::new(
        Day(2),
        vec![Record::with_values(RecordId(3), [SearchValue::from("tea")])],
    );
    let idx = wave_index::ConstituentIndex::build_packed(
        "FIXED",
        IndexConfig::default(),
        vol,
        &[&b1, &b2],
    )
    .unwrap();
    ConstituentIndexHandle(Some(idx))
}

/// Tiny RAII-ish helper so early test failures still release storage.
struct ConstituentIndexHandle(Option<wave_index::ConstituentIndex>);

impl ConstituentIndexHandle {
    fn get(&self) -> &wave_index::ConstituentIndex {
        self.0.as_ref().unwrap()
    }
    fn release(mut self, vol: &mut Volume) {
        self.0.take().unwrap().release(vol).unwrap();
    }
}

/// Truncating a v2 image at every plausible length yields a typed
/// error — short reads can never produce a half-index.
#[test]
fn truncation_sweep_yields_typed_errors() {
    let mut vol = Volume::default();
    let idx = fixture_index(&mut vol);
    let image = index_to_bytes(idx.get(), &mut vol).unwrap();
    let mut rng = SplitMix64::new(0xC0FFEE);
    let mut lengths: Vec<usize> = (0..64)
        .map(|_| (rng.next_u64() as usize) % image.len())
        .collect();
    lengths.extend([0, 1, 5, 6, 13, image.len() - 1]);
    for len in lengths {
        match index_from_bytes(IndexConfig::default(), &mut vol, &image[..len]) {
            Err(IndexError::Corrupt(_)) | Err(IndexError::ChecksumMismatch { .. }) => {}
            Err(other) => panic!("truncation to {len}: unexpected error class {other}"),
            Ok(_) => panic!("truncation to {len} accepted"),
        }
    }
    idx.release(&mut vol);
    assert_eq!(vol.live_blocks(), 0, "rejected decodes must not leak");
}

/// Flipping any single bit of a v2 image yields a typed error: the
/// CRC64 trailer covers every byte, so no flip is silent.
#[test]
fn bit_flip_sweep_yields_typed_errors() {
    let mut vol = Volume::default();
    let idx = fixture_index(&mut vol);
    let image = index_to_bytes(idx.get(), &mut vol).unwrap();
    let mut rng = SplitMix64::new(0xDECADE);
    for _ in 0..256 {
        let pos = (rng.next_u64() as usize) % image.len();
        let bit = 1u8 << (rng.next_u64() % 8);
        let mut bad = image.clone();
        bad[pos] ^= bit;
        match index_from_bytes(IndexConfig::default(), &mut vol, &bad) {
            Err(IndexError::Corrupt(_)) | Err(IndexError::ChecksumMismatch { .. }) => {}
            Err(other) => panic!("flip at {pos}: unexpected error class {other}"),
            Ok(_) => panic!("flip at byte {pos} bit {bit:#04x} accepted silently"),
        }
    }
    idx.release(&mut vol);
    assert_eq!(vol.live_blocks(), 0);
}

/// The same sweep over a manifest: its self-checksum line catches
/// every flip and truncation.
#[test]
fn manifest_corruption_sweep() {
    let manifest = Manifest {
        epoch: 42,
        window: Some((Day(17), Day(23))),
        slots: 3,
        entries: vec![
            ManifestEntry {
                slot: 0,
                file: "slot0.e42".into(),
                len: 4096,
                crc64: 0x0123_4567_89AB_CDEF,
                label: "I1".into(),
                days: vec![Day(17), Day(18), Day(19)],
                filter: None,
                ingest: None,
            },
            ManifestEntry {
                slot: 2,
                file: "slot2.e42".into(),
                len: 512,
                crc64: 0xFEDC_BA98_7654_3210,
                label: "T3'".into(),
                days: vec![Day(20), Day(21), Day(22), Day(23)],
                // A sidecar line so the sweep also flips filter refs.
                filter: Some(FilterRef {
                    file: "slot2.e42.filt".into(),
                    len: 96,
                    crc64: 0x1357_9BDF_0246_8ACE,
                }),
                // An ingest line so the sweep also flips log refs.
                ingest: Some(IngestRef {
                    file: "slot2.e42.ing".into(),
                    len: 128,
                    crc64: 0x8ACE_0246_9BDF_1357,
                }),
            },
        ],
    };
    let bytes = manifest.to_bytes();
    assert_eq!(Manifest::from_bytes(&bytes).unwrap(), manifest);

    let mut rng = SplitMix64::new(0xBADC_AB1E);
    for _ in 0..256 {
        let pos = (rng.next_u64() as usize) % bytes.len();
        let bit = 1u8 << (rng.next_u64() % 8);
        let mut bad = bytes.clone();
        bad[pos] ^= bit;
        assert!(
            Manifest::from_bytes(&bad).is_err(),
            "manifest flip at {pos} accepted"
        );
    }
    for _ in 0..64 {
        let len = (rng.next_u64() as usize) % bytes.len();
        assert!(
            Manifest::from_bytes(&bytes[..len]).is_err(),
            "manifest truncation to {len} accepted"
        );
    }
}

/// Every image version but the current one is refused outright
/// rather than misparsed: the retired checksum-less version 1 as much
/// as an unknown future one.
#[test]
fn future_versions_are_refused() {
    let mut vol = Volume::default();
    let idx = fixture_index(&mut vol);
    let image = index_to_bytes(idx.get(), &mut vol).unwrap();
    for version in [1u16, 7] {
        let mut image = image.clone();
        image[4..6].copy_from_slice(&version.to_le_bytes());
        let err = index_from_bytes(IndexConfig::default(), &mut vol, &image).unwrap_err();
        assert!(
            matches!(&err, IndexError::Corrupt(msg) if msg.contains(&format!("version {version}"))),
            "{err}"
        );
    }
    idx.release(&mut vol);
    assert_eq!(vol.live_blocks(), 0);
}

/// A `wave-manifest 1` store (whole-file checksums, retired) is refused
/// even when its own `crc` line is valid: the parser names the
/// version, the strict loader fails, `fsck` reports the manifest not
/// ok, and neither `fsck` nor `recover` deletes a file.
#[test]
fn version_1_manifest_is_refused_and_every_file_kept() {
    let mut vol = Volume::default();
    let mut wave = WaveIndex::with_slots(2);
    wave.install(0, fixture_index(&mut vol).0.take().unwrap());
    let mut store = FileStore::open_temp().unwrap();
    commit_wave(&wave, &mut vol, &mut store, &RetryPolicy::no_backoff(1)).unwrap();
    wave.release_all(&mut vol).unwrap();

    // Same body under a version-1 header, re-sealed with a valid crc.
    let current = store.get(MANIFEST_NAME).unwrap().unwrap();
    let text = std::str::from_utf8(&current[..current.len() - 21]).unwrap();
    let body = text.replacen("wave-manifest 2\n", "wave-manifest 1\n", 1);
    assert_ne!(body, text);
    let mut v1 = body.into_bytes();
    let crc = crc64(&v1);
    v1.extend_from_slice(format!("crc {crc:016x}\n").as_bytes());
    store.put(MANIFEST_NAME, &v1).unwrap();

    let err = Manifest::from_bytes(&v1).unwrap_err();
    assert!(
        matches!(&err, IndexError::Corrupt(msg) if msg.contains("version 1")),
        "{err}"
    );
    assert!(load_committed(IndexConfig::default(), &mut vol, &mut store).is_err());
    let files = store.list().unwrap();
    assert_eq!(files, [MANIFEST_NAME, "slot0.e1", "slot0.e1.filt"]);

    let report = fsck(&mut store, &Obs::noop()).unwrap();
    assert!(report.manifest_present);
    assert!(!report.manifest_ok, "{report:?}");
    assert_eq!(store.list().unwrap(), files, "fsck changes nothing");

    let (loaded, report) = recover(IndexConfig::default(), &mut vol, &mut store, None).unwrap();
    assert!(loaded.is_none());
    assert!(report.manifest_quarantined);
    assert_eq!(report.orphans_removed, 0);
    assert_eq!(
        store.list().unwrap(),
        ["MANIFEST.quar", "slot0.e1", "slot0.e1.filt"],
        "recover quarantines the manifest and deletes nothing"
    );
    assert_eq!(vol.live_blocks(), 0);
    store.destroy().unwrap();
}
