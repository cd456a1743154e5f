//! Degraded serving racing recovery.
//!
//! A [`WaveServer`] with a persistently failing arm keeps answering:
//! every reply is either whole (byte-identical to the healthy answer)
//! or a typed [`PartialAnswer`] whose covered slots are byte-identical
//! and whose `missing_slots` name exactly the quarantined arm's slots.
//! While readers hammer the degraded server, [`recover`] repairs and
//! reloads a committed image of the same wave on a separate volume —
//! the operator's recovery path and the degraded serving path run
//! concurrently without interfering. After the arm's fault clears, the
//! breaker's half-open probe re-admits it and answers become whole
//! again; the recovered wave vouches for the same entries throughout.
//!
//! The main thread is paced by the readers' progress, not by the OS
//! scheduler: it injects the fault only after the readers have
//! completed answers, clears it only after a reader has seen a
//! degraded answer, and stops the readers only after they have
//! completed more answers past the heal.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wave_index::recovery::recover;
use wave_index::{
    commit_wave, ConstituentIndex, Entry, IndexConfig, SearchValue, ServerConfig, TimeRange,
    WaveIndex, WaveServer,
};
use wave_index::{Day, DayBatch, Record, RecordId};
use wave_storage::{DiskArray, DiskConfig, FileStore, Obs, RetryPolicy, Volume};

const SLOTS: usize = 4;
const ARMS: usize = 2;

fn day_batch(day: u32, records: u64) -> DayBatch {
    DayBatch::new(
        Day(day),
        (0..records)
            .map(|i| {
                Record::with_values(
                    RecordId(day as u64 * 1_000 + i),
                    [SearchValue::from("k"), SearchValue::from_u64(i % 5)],
                )
            })
            .collect(),
    )
}

/// One batch per slot; slot `j` holds day `j + 1`, so an entry's day
/// identifies the slot (and therefore the arm) that produced it.
fn slot_batches(records: u64) -> Vec<Vec<DayBatch>> {
    (0..SLOTS)
        .map(|j| vec![day_batch(j as u32 + 1, records)])
        .collect()
}

fn scratch_store() -> (FileStore, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("wave-degraded-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    (FileStore::open(&dir).unwrap(), dir)
}

/// Answers the readers must complete before each phase change.
const PACE: u64 = 8;

/// Waits until `done` holds, failing loudly if a reader stopped (it
/// panicked: readers run until told to stop) or if a generous
/// deadline passes: a wait that never ends is a hung server.
fn wait_until(what: &str, readers: &[JoinHandle<u64>], done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !done() {
        assert!(
            readers.iter().all(|r| !r.is_finished()),
            "a reader stopped while waiting until {what}"
        );
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The subset of `want` that survives when `missing_slots` are gone.
fn covered(want: &[Entry], missing_slots: &[usize]) -> Vec<Entry> {
    want.iter()
        .filter(|e| !missing_slots.contains(&(e.day.0 as usize - 1)))
        .cloned()
        .collect()
}

#[test]
fn recovery_races_degraded_serving_and_heals() {
    // A committed image of the same wave, for recover() to race on.
    let mut vol = Volume::new(DiskConfig::default());
    let mut wave = WaveIndex::with_slots(SLOTS);
    for (j, batches) in slot_batches(25).into_iter().enumerate() {
        let refs: Vec<&DayBatch> = batches.iter().collect();
        let idx = ConstituentIndex::build_packed(
            format!("slot{j}.e0"),
            IndexConfig::default(),
            &mut vol,
            &refs,
        )
        .unwrap();
        wave.install(j, idx);
    }
    let (mut store, dir) = scratch_store();
    commit_wave(&wave, &mut vol, &mut store, &RetryPolicy::default()).unwrap();

    let server = Arc::new(
        WaveServer::launch(
            DiskArray::new(DiskConfig::default(), ARMS),
            ServerConfig::default(),
            Obs::noop(),
        )
        .unwrap(),
    );
    server.install_wave(slot_batches(25)).unwrap();
    let value = SearchValue::from("k");
    let want = server.probe(&value, TimeRange::all()).unwrap().entries;
    let arm0_slots: Vec<usize> = (0..SLOTS)
        .filter(|s| server.arm_of(*s) == Some(0))
        .collect();

    // Readers: every answer must be whole or an honest partial.
    let stop = Arc::new(AtomicBool::new(false));
    let saw_degraded = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..3)
        .map(|r| {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            let saw_degraded = Arc::clone(&saw_degraded);
            let completed = Arc::clone(&completed);
            let want = want.clone();
            std::thread::spawn(move || {
                let value = SearchValue::from("k");
                let mut answers = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let q = server.probe(&value, TimeRange::all()).unwrap();
                    match &q.partial {
                        None => assert_eq!(q.entries, want, "reader {r}: whole answer diverged"),
                        Some(p) => {
                            saw_degraded.store(true, Ordering::SeqCst);
                            assert_eq!(
                                q.entries,
                                covered(&want, &p.missing_slots),
                                "reader {r}: covered slots must stay byte-identical"
                            );
                        }
                    }
                    answers += 1;
                    completed.fetch_add(1, Ordering::SeqCst);
                }
                answers
            })
        })
        .collect();

    // Degrade arm 0 persistently (burst far beyond any retry budget),
    // then run recovery on the committed image while readers serve
    // degraded. recover() touches only its own volume and store; the
    // race proves the two paths share nothing.
    let answers_done = || completed.load(Ordering::SeqCst);
    wait_until("readers answered before the fault", &readers, || {
        answers_done() >= PACE
    });
    server.inject_transient_reads(0, 0, u64::MAX / 2).unwrap();
    let (loaded, report) = recover(IndexConfig::default(), &mut vol, &mut store, None).unwrap();
    let loaded = loaded.expect("committed image survives recovery");
    assert!(!report.manifest_quarantined && report.rebuilt.is_empty());
    let mut vouched = loaded.wave.index_probe(&mut vol, &value).unwrap().entries;
    let mut expect = want.clone();
    vouched.sort_unstable();
    expect.sort_unstable();
    assert_eq!(vouched, expect, "recovered image vouches for the wave");

    // Wait until at least one reader actually observed a degraded
    // answer with arm 0's slots missing.
    let mut observed = false;
    for _ in 0..2_000 {
        let q = server.probe(&value, TimeRange::all()).unwrap();
        if let Some(p) = &q.partial {
            assert_eq!(p.missing_slots, arm0_slots);
            observed = true;
            break;
        }
        std::thread::yield_now();
    }
    assert!(observed, "persistent arm failure must surface as partial");
    wait_until("a reader saw a degraded answer", &readers, || {
        saw_degraded.load(Ordering::SeqCst)
    });

    // Heal: clear the fault, then keep probing until the breaker's
    // half-open probe re-admits the arm and answers are whole again.
    server.clear_arm_faults(0).unwrap();
    let mut healed = false;
    for _ in 0..2_000 {
        let q = server.probe(&value, TimeRange::all()).unwrap();
        if q.partial.is_none() {
            assert_eq!(q.entries, want);
            healed = true;
            break;
        }
    }
    assert!(healed, "arm must be re-admitted after its fault clears");
    let healed_at = answers_done();
    wait_until("readers answered after the heal", &readers, || {
        answers_done() >= healed_at + PACE
    });

    stop.store(true, Ordering::Relaxed);
    let mut total = 0;
    for r in readers {
        total += r.join().unwrap();
    }
    assert!(total > 0, "readers made progress throughout");
    assert!(saw_degraded.load(Ordering::Relaxed) || total > 0);

    Arc::try_unwrap(server)
        .unwrap_or_else(|_| panic!("all readers joined"))
        .shutdown()
        .unwrap();
    wave.release_all(&mut vol).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
