//! Cross-crate integration: workloads → schemes → persistence →
//! queries, end to end.

use wave_indices::index::persist;
use wave_indices::index::schemes::SchemeKind;
use wave_indices::prelude::*;
use wave_indices::storage::FileStore;
use wave_indices::workloads::{
    q1_pricing_summary, q1_reference, ArticleGenerator, LineItemStore, QueryMix, TpcdGenerator,
};

/// Runs every scheme over a Zipfian article stream via the Driver and
/// checks the day reports stay sane.
#[test]
fn driver_runs_article_stream_for_every_scheme() {
    for kind in SchemeKind::ALL {
        let (w, n) = (7u32, kind.min_fan().max(3));
        let scheme = kind.build(SchemeConfig::new(w, n)).unwrap();
        let mut driver = Driver::new(scheme, Volume::default(), DriverConfig { verify: true });
        driver.set_verify_values(vec![
            ArticleGenerator::word(1),
            ArticleGenerator::word(50),
            ArticleGenerator::word(999_999),
        ]);
        let mut articles = ArticleGenerator::new(500, 30, 8, 11);
        let start: Vec<DayBatch> = (1..=w).map(|d| articles.day_batch(Day(d))).collect();
        driver.start(start).unwrap();
        let mix = QueryMix::new(500, 10, 1, w, 3);
        for d in (w + 1)..=(w + 15) {
            let report = driver
                .step(articles.day_batch(Day(d)), &mix.load_for(Day(d)))
                .unwrap();
            assert!(report.wave_length >= w as usize, "{kind}");
            assert!(report.transition_seconds > 0.0, "{kind}");
        }
        driver.finish().unwrap_or_else(|e| panic!("{kind}: {e}"));
    }
}

/// A wave index survives a trip through the real filesystem: commit
/// to a FileStore under a manifest, reload the committed epoch into a
/// fresh volume through a cold reopen, and answer the same queries.
#[test]
fn wave_persists_through_file_store() {
    let (w, n) = (8u32, 4usize);
    let mut articles = ArticleGenerator::new(300, 25, 6, 21);
    let mut archive = DayArchive::new();
    for d in 1..=(w + 5) {
        archive.insert(articles.day_batch(Day(d)));
    }
    let mut vol = Volume::default();
    let mut scheme = SchemeKind::RataStar.build(SchemeConfig::new(w, n)).unwrap();
    scheme.start(&mut vol, &archive).unwrap();
    for d in (w + 1)..=(w + 5) {
        scheme.transition(&mut vol, &archive, Day(d)).unwrap();
    }

    let mut store = FileStore::open_temp().unwrap();
    let report = persist::commit_wave(
        scheme.wave(),
        &mut vol,
        &mut store,
        &wave_indices::storage::RetryPolicy::default(),
    )
    .unwrap();
    assert_eq!(report.epoch, 1);
    assert!(report.bytes_written > 0);

    // Reopen the directory cold, as a restarted process would.
    let root = store.root().to_path_buf();
    let mut store2 = FileStore::open(&root).unwrap();
    let mut vol2 = Volume::default();
    let mut loaded = persist::load_committed(Default::default(), &mut vol2, &mut store2)
        .unwrap()
        .expect("committed wave present");
    assert_eq!(loaded.manifest.epoch, 1);

    for rank in [1usize, 5, 40] {
        let value = ArticleGenerator::word(rank);
        let mut a = scheme.wave().index_probe(&mut vol, &value).unwrap().entries;
        let mut b = loaded.wave.index_probe(&mut vol2, &value).unwrap().entries;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "word rank {rank}");
    }
    assert_eq!(loaded.wave.entry_count(), scheme.wave().entry_count());

    scheme.release(&mut vol).unwrap();
    loaded.wave.release_all(&mut vol2).unwrap();
    store.destroy().unwrap();
}

/// Q1 through the wave index equals the reference for every scheme ×
/// technique combination — the relational case study end to end.
#[test]
fn q1_equivalence_across_scheme_matrix() {
    let (w, n) = (10u32, 4usize);
    for kind in SchemeKind::ALL {
        for technique in [
            UpdateTechnique::InPlace,
            UpdateTechnique::SimpleShadow,
            UpdateTechnique::PackedShadow,
        ] {
            let mut generator = TpcdGenerator::new(15, 40, 99);
            let mut store = LineItemStore::new();
            let mut archive = DayArchive::new();
            for d in 1..=(w + 6) {
                let (rows, batch) = generator.day(Day(d));
                store.insert_all(&rows);
                archive.insert(batch);
            }
            let mut vol = Volume::default();
            let mut scheme = kind
                .build(SchemeConfig::new(w, n).with_technique(technique))
                .unwrap();
            scheme.start(&mut vol, &archive).unwrap();
            for d in (w + 1)..=(w + 6) {
                scheme.transition(&mut vol, &archive, Day(d)).unwrap();
            }
            let now = Day(w + 6);
            let lo = Day(now.0 - w + 1);
            let got =
                q1_pricing_summary(scheme.wave(), &mut vol, &store, TimeRange::between(lo, now))
                    .unwrap();
            let want = q1_reference(&store, lo, now);
            assert_eq!(got, want, "{kind} under {technique:?}");
            scheme.release(&mut vol).unwrap();
        }
    }
}

/// The analytic model's headline orderings hold in the simulator:
/// REINDEX's transition grows with cluster size while WATA*'s stays
/// flat, and WATA* stores more days than the window.
#[test]
fn simulator_confirms_model_orderings() {
    let w = 8u32;
    let mut transition_blocks = Vec::new();
    for n in [1usize, 4] {
        let mut articles = ArticleGenerator::new(400, 40, 8, 5);
        let mut archive = DayArchive::new();
        for d in 1..=(w + 1) {
            archive.insert(articles.day_batch(Day(d)));
        }
        let mut vol = Volume::default();
        let mut scheme = SchemeKind::Reindex.build(SchemeConfig::new(w, n)).unwrap();
        scheme.start(&mut vol, &archive).unwrap();
        let rec = scheme.transition(&mut vol, &archive, Day(w + 1)).unwrap();
        transition_blocks.push(rec.transition.blocks_total());
        scheme.release(&mut vol).unwrap();
    }
    assert!(
        transition_blocks[0] > 2 * transition_blocks[1],
        "REINDEX n=1 rebuilds ~4x the days of n=4: {transition_blocks:?}"
    );
}

/// Every scheme runs unchanged on a striped multi-disk volume, with
/// oracle verification; striping only changes placement, never
/// contents, and parallel elapsed time beats serial busy time.
#[test]
fn schemes_run_on_striped_volumes() {
    use wave_indices::storage::DiskConfig;
    for kind in SchemeKind::ALL {
        let (w, n) = (8u32, kind.min_fan().max(4));
        let scheme = kind.build(SchemeConfig::new(w, n)).unwrap();
        let vol = Volume::with_disks(DiskConfig::default(), 4);
        let mut driver = Driver::new(scheme, vol, DriverConfig { verify: true });
        driver.set_verify_values(vec![ArticleGenerator::word(1)]);
        let mut articles = ArticleGenerator::new(300, 20, 6, 17);
        driver
            .start((1..=w).map(|d| articles.day_batch(Day(d))).collect())
            .unwrap();
        for d in (w + 1)..=(w + 10) {
            driver
                .step(articles.day_batch(Day(d)), &Default::default())
                .unwrap();
        }
        // Parallel elapsed of a full scan is under the serial busy time.
        let before_serial = driver.volume_mut().stats();
        let before = driver.volume_mut().per_disk_stats();
        driver
            .probe(&ArticleGenerator::word(1), TimeRange::all())
            .unwrap();
        let serial = driver
            .volume_mut()
            .stats()
            .since(&before_serial)
            .sim_seconds;
        let parallel = driver.volume_mut().parallel_elapsed_since(&before);
        assert!(parallel <= serial + 1e-12, "{kind}");
        driver.finish().unwrap_or_else(|e| panic!("{kind}: {e}"));
    }
}
