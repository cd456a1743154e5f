//! Randomized corruption sweep over persisted images and manifests,
//! plus the committed v1 fixture.
//!
//! Every mutation a disk can plausibly inflict — truncation at any
//! length, a bit flip at any offset — must surface as a typed
//! [`IndexError`], never a panic and never a silently wrong index.
//! The sweep is seeded ([`SplitMix64`]) so failures replay exactly.

use std::path::PathBuf;

use wave_index::persist::{
    decode_index, index_to_bytes, FilterRef, IngestRef, Manifest, ManifestEntry, MANIFEST_VERSION,
};
use wave_index::prelude::*;
use wave_index::IndexError;
use wave_obs::SplitMix64;

/// The deterministic sample behind both the sweep and the v1 fixture.
/// Do not change it: the committed fixture bytes encode exactly this.
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
        "V1FIX",
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

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("wvix_v1.bin")
}

/// Converts a current (v2) image into the checksum-less v1 layout:
/// same body, version field 1, no trailer.
fn v2_to_v1(image: &[u8]) -> Vec<u8> {
    let mut v1 = image[..image.len() - 8].to_vec();
    v1[4..6].copy_from_slice(&1u16.to_le_bytes());
    v1
}

/// Regenerates the committed fixture. Run explicitly when the sample
/// or the body format changes:
/// `cargo test -p wave-index --test persist_corruption -- --ignored`
#[test]
#[ignore = "writes the committed fixture; run manually on format changes"]
fn regenerate_v1_fixture() {
    let mut vol = Volume::default();
    let idx = fixture_index(&mut vol);
    let image = index_to_bytes(idx.get(), &mut vol).unwrap();
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, v2_to_v1(&image)).unwrap();
    idx.release(&mut vol);
}

/// The committed v1 fixture (written by a pre-checksum build of the
/// format) still loads under the v2 reader — with `verified: false`
/// provenance, because nothing vouches for its bytes.
#[test]
fn committed_v1_fixture_loads_unverified() {
    let bytes = std::fs::read(fixture_path())
        .expect("fixture missing: run the ignored regenerate_v1_fixture test");
    let mut vol = Volume::default();
    let (loaded, info) = decode_index(IndexConfig::default(), &mut vol, &bytes).unwrap();
    assert_eq!(info.version, 1);
    assert!(!info.verified, "v1 images carry no checksum to verify");
    assert_eq!(loaded.label(), "V1FIX");
    assert_eq!(loaded.entry_count(), 4);

    // Contents equal a freshly built copy of the same sample.
    let fresh = fixture_index(&mut vol);
    let mut a = loaded.scan(&mut vol).unwrap();
    let mut b = fresh.get().scan(&mut vol).unwrap();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
    loaded.release(&mut vol).unwrap();
    fresh.release(&mut vol);
    assert_eq!(vol.live_blocks(), 0);
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
        match decode_index(IndexConfig::default(), &mut vol, &image[..len]) {
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
        match decode_index(IndexConfig::default(), &mut vol, &bad) {
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
        version: MANIFEST_VERSION,
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

/// Unknown future versions are refused outright rather than
/// misparsed.
#[test]
fn future_versions_are_refused() {
    let mut vol = Volume::default();
    let idx = fixture_index(&mut vol);
    let mut image = index_to_bytes(idx.get(), &mut vol).unwrap();
    image[4..6].copy_from_slice(&7u16.to_le_bytes());
    let err = decode_index(IndexConfig::default(), &mut vol, &image).unwrap_err();
    assert!(err.to_string().contains("version"), "{err}");
    idx.release(&mut vol);
}
