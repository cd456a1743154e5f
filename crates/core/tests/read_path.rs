//! The read path, checked once at plan level: every way of reading a
//! wave — `WaveIndex` probes, batches and scans, the per-slot timings
//! of `parallel`, `SharedWave`, and `WaveServer` on one arm and on
//! three arms plus a maintenance arm — must return the entries and the
//! `indexes_accessed` of a model that knows nothing about indexes, on
//! random waves with an empty slot, a slot whose buckets are not in
//! day order, filters on and off, covering entries, and dirty ingest
//! buffers.
//!
//! The model is deliberately independent of `read.rs`: dropping the
//! pending-delete check, the range check or the pending adds from the
//! bucket decode, or the empty-constituent skip from the selection,
//! makes this test fail.

use std::collections::{BTreeMap, BTreeSet};

use wave_index::concurrent::SharedWave;
use wave_index::parallel::{probe_detailed, scan_detailed};
use wave_index::server::{ServerConfig, WaveServer};
use wave_index::{
    ConstituentIndex, Day, DayBatch, Entry, FilterConfig, IndexConfig, Record, RecordId,
    SearchValue, TimeRange, WaveIndex,
};
use wave_obs::{Obs, SplitMix64};
use wave_storage::{DiskArray, DiskConfig, Volume};

/// One slot of a random wave: `None` is a vacant slot; a spec with no
/// base, no adds (or whose only day is pending deletion) is a live but
/// empty constituent.
#[derive(Clone, Default)]
struct SlotSpec {
    /// Days built packed, in build order: ascending, except in one
    /// slot per case (bucket entries then run newest day first).
    base: Vec<DayBatch>,
    /// Base days whose deletion sits in the ingest buffer.
    del: BTreeSet<Day>,
    /// Days whose adds sit in the ingest buffer, ascending.
    add: Vec<DayBatch>,
}

impl SlotSpec {
    /// The slot's logical content, in insertion order.
    fn logical(&self) -> Vec<DayBatch> {
        self.base
            .iter()
            .filter(|b| !self.del.contains(&b.day))
            .chain(&self.add)
            .cloned()
            .collect()
    }
}

struct Case {
    cfg: IndexConfig,
    slots: Vec<Option<SlotSpec>>,
}

/// Values 0..=11 live in base days, 100..=103 only ever in buffers.
fn random_day(rng: &mut SplitMix64, day: u32, buffer_only: bool) -> DayBatch {
    let records = (0..rng.range_usize(0, 6))
        .map(|i| {
            let values = (0..rng.range_usize(1, 3)).map(|_| {
                if buffer_only && rng.range_usize(0, 2) == 0 {
                    SearchValue::from_u64(rng.range_u64(100, 103))
                } else {
                    SearchValue::from_u64(rng.range_u64(0, 11))
                }
            });
            Record::with_values(RecordId(day as u64 * 1_000 + i as u64), values)
        })
        .collect();
    DayBatch::new(Day(day), records)
}

fn random_case(rng: &mut SplitMix64, seed: u64) -> Case {
    let n = rng.range_usize(1, 6);
    let empty_slot = rng.range_usize(0, n - 1);
    let mut slots: Vec<Option<SlotSpec>> = (0..n)
        .map(|j| {
            if n > 1 && j == empty_slot {
                return Some(SlotSpec::default());
            }
            if rng.range_usize(0, 7) == 0 {
                return None;
            }
            let first = 10 * j as u32 + 1;
            let base_days = rng.range_u32(0, 3);
            let base: Vec<DayBatch> = (first..first + base_days)
                .map(|d| random_day(rng, d, false))
                .collect();
            let del = base
                .iter()
                .filter(|_| rng.range_usize(0, 2) == 0)
                .map(|b| b.day)
                .collect();
            let add = (first + base_days..first + base_days + rng.range_u32(0, 2))
                .map(|d| random_day(rng, d, true))
                .collect();
            Some(SlotSpec { base, del, add })
        })
        .collect();
    // `build_packed` keeps its batches' order, so this slot's buckets
    // are not in day order.
    if let Some(spec) = slots.iter_mut().flatten().rfind(|s| s.base.len() > 1) {
        spec.base.reverse();
    }
    Case {
        cfg: IndexConfig {
            filter: FilterConfig {
                enabled: seed.is_multiple_of(2),
                covering_hot: 2,
                ..Default::default()
            },
            ..Default::default()
        },
        slots,
    }
}

/// Builds the case's wave on `vol`, buffers left dirty. Deterministic,
/// so twin waves on twin volumes stay in lockstep.
fn build(case: &Case, vol: &mut Volume) -> WaveIndex {
    let mut wave = WaveIndex::with_slots(case.slots.len());
    for (j, spec) in case.slots.iter().enumerate() {
        let Some(spec) = spec else { continue };
        let base: Vec<&DayBatch> = spec.base.iter().collect();
        let mut idx = if base.is_empty() {
            ConstituentIndex::new_empty(format!("I{j}"), case.cfg)
        } else {
            ConstituentIndex::build_packed(format!("I{j}"), case.cfg, vol, &base).unwrap()
        };
        let add: Vec<&DayBatch> = spec.add.iter().collect();
        idx.buffer_update(vol, &spec.del, &add);
        wave.install(j, idx);
    }
    wave
}

/// One non-empty slot of the reference: its day span and its entries
/// per value in insertion order.
struct SlotModel {
    slot: usize,
    lo: Day,
    hi: Day,
    by_value: BTreeMap<SearchValue, Vec<Entry>>,
}

/// The index-free reference.
struct Model {
    slots: Vec<SlotModel>,
}

impl Model {
    fn new(case: &Case) -> Self {
        let mut slots = Vec::new();
        for (j, spec) in case.slots.iter().enumerate() {
            let Some(spec) = spec else { continue };
            let logical = spec.logical();
            let (Some(lo), Some(hi)) = (
                logical.iter().map(|b| b.day).min(),
                logical.iter().map(|b| b.day).max(),
            ) else {
                continue;
            };
            let mut by_value: BTreeMap<SearchValue, Vec<Entry>> = BTreeMap::new();
            for batch in &logical {
                for record in &batch.records {
                    for (value, aux) in &record.values {
                        by_value
                            .entry(value.clone())
                            .or_default()
                            .push(Entry::new(record.id, *aux, batch.day));
                    }
                }
            }
            slots.push(SlotModel {
                slot: j,
                lo,
                hi,
                by_value,
            });
        }
        Model { slots }
    }

    /// Slots a query over `range` must access, ascending.
    fn selected(&self, range: TimeRange) -> Vec<usize> {
        self.slots
            .iter()
            .filter(|s| (s.lo.0..=s.hi.0).any(|d| range.contains(Day(d))))
            .map(|s| s.slot)
            .collect()
    }

    fn probe(&self, value: &SearchValue, range: TimeRange) -> Vec<Entry> {
        self.slots
            .iter()
            .flat_map(|s| s.by_value.get(value).into_iter().flatten())
            .filter(|e| range.contains(e.day))
            .copied()
            .collect()
    }

    fn scan(&self, range: TimeRange) -> Vec<Entry> {
        self.slots
            .iter()
            .flat_map(|s| s.by_value.values().flatten())
            .filter(|e| range.contains(e.day))
            .copied()
            .collect()
    }
}

fn random_ranges(rng: &mut SplitMix64, model: &Model) -> Vec<TimeRange> {
    let mut ranges = vec![
        TimeRange::all(),
        TimeRange::between(Day(10_000), Day(10_001)), // outside every slot
    ];
    if !model.slots.is_empty() {
        let i = rng.range_usize(0, model.slots.len() - 1);
        let SlotModel { lo, hi, .. } = model.slots[i];
        ranges.push(TimeRange::between(lo, lo)); // inside one slot
        let next_lo = model.slots.get(i + 1).map_or(Day(hi.0 + 3), |s| s.lo);
        ranges.push(TimeRange::between(hi, next_lo)); // straddling two
        let wide: Vec<&SlotModel> = model
            .slots
            .iter()
            .filter(|s| s.hi.0 >= s.lo.0 + 2)
            .collect();
        if !wide.is_empty() {
            let SlotModel { lo, hi, .. } = *wide[rng.range_usize(0, wide.len() - 1)];
            ranges.push(TimeRange::between(Day(lo.0 + 1), Day(hi.0 - 1))); // strictly inside one
        }
    }
    ranges
}

/// Present, absent, duplicate and buffer-only values.
fn random_values(rng: &mut SplitMix64) -> Vec<SearchValue> {
    let mut values: Vec<SearchValue> = (0..rng.range_usize(1, 5))
        .map(|_| SearchValue::from_u64(rng.range_u64(0, 11)))
        .collect();
    values.push(SearchValue::from_u64(999));
    values.push(SearchValue::from_u64(rng.range_u64(100, 103)));
    values.push(values[0].clone());
    values
}

fn launch(case: &Case, arms: usize, reserve_maintenance_arm: bool) -> WaveServer {
    let server = WaveServer::launch(
        DiskArray::new(DiskConfig::default(), arms),
        ServerConfig {
            index: case.cfg,
            reserve_maintenance_arm,
            ..Default::default()
        },
        Obs::noop(),
    )
    .unwrap();
    let slot_batches = case
        .slots
        .iter()
        .map(|spec| spec.as_ref().map(SlotSpec::logical).unwrap_or_default())
        .collect();
    server.install_wave(slot_batches).unwrap();
    server
}

#[test]
fn every_reader_matches_the_model() {
    for seed in 0..96u64 {
        let mut rng = SplitMix64::new(0x5EAD_0000 + seed);
        let case = random_case(&mut rng, seed);
        let model = Model::new(&case);

        let mut vol = Volume::default();
        let wave = build(&case, &mut vol);
        // Twins for the schedule pin: a cache small enough to evict.
        let mut vol_a = Volume::new(DiskConfig::default().with_cache(4));
        let mut vol_b = Volume::new(DiskConfig::default().with_cache(4));
        let wave_a = build(&case, &mut vol_a);
        let wave_b = build(&case, &mut vol_b);
        let mut shared_vol = Volume::default();
        let shared = SharedWave::new(build(&case, &mut shared_vol), shared_vol);
        let servers = [launch(&case, 1, false), launch(&case, 4, true)];

        let values = random_values(&mut rng);
        for range in random_ranges(&mut rng, &model) {
            let at = format!("seed {seed} range {range:?}");
            let selected = model.selected(range);
            let accessed = selected.len();

            // Probes, value by value.
            let want: Vec<Vec<Entry>> = values.iter().map(|v| model.probe(v, range)).collect();
            for (v, want) in values.iter().zip(&want) {
                let plain = wave.timed_index_probe(&mut vol, v, range).unwrap();
                assert_eq!(&plain.entries, want, "timed_index_probe {at}");
                assert_eq!(plain.indexes_accessed, accessed, "{at}");

                let detailed = probe_detailed(&wave, &mut vol, v, range).unwrap();
                assert_eq!(&detailed.entries, want, "probe_detailed {at}");
                let timed: Vec<usize> = detailed.per_slot.iter().map(|(j, _)| *j).collect();
                assert_eq!(timed, selected, "{at}");

                assert_eq!(&shared.probe(v, range).unwrap(), want, "shared {at}");
                for server in &servers {
                    let q = server.probe(v, range).unwrap();
                    assert_eq!(&q.entries, want, "server probe {at}");
                    assert_eq!(q.indexes_accessed, accessed, "{at}");
                    assert_eq!(q.partial, None);
                }

                // The schedule pin: the plain path costs exactly the
                // selected constituents' own probes, in slot order.
                let before = vol_a.stats();
                wave_a.timed_index_probe(&mut vol_a, v, range).unwrap();
                let whole = vol_a.stats().since(&before);
                let before = vol_b.stats();
                for &j in &selected {
                    let idx = wave_b.slot(j).unwrap();
                    idx.probe_in(&mut vol_b, v, range).unwrap();
                }
                assert_eq!(whole, vol_b.stats().since(&before), "probe schedule {at}");
            }

            // The same values as one batch.
            let batch = wave.query_batch(&mut vol, &values, range).unwrap();
            let shared_batch = shared.query_batch(&values, range).unwrap();
            for (vi, want) in want.iter().enumerate() {
                assert_eq!(&batch[vi].entries, want, "query_batch {at}");
                assert_eq!(batch[vi].indexes_accessed, accessed, "{at}");
                assert_eq!(&shared_batch[vi].entries, want, "shared batch {at}");
                assert_eq!(shared_batch[vi].indexes_accessed, accessed, "{at}");
            }
            for server in &servers {
                let q = server.query_batch(&values, range).unwrap();
                assert_eq!(q.per_value, want, "server batch {at}");
                assert_eq!(q.indexes_accessed, accessed, "{at}");
                assert_eq!(q.partial, None);
            }

            // Scans.
            let want = model.scan(range);
            let plain = wave.timed_segment_scan(&mut vol, range).unwrap();
            assert_eq!(plain.entries, want, "timed_segment_scan {at}");
            assert_eq!(plain.indexes_accessed, accessed, "{at}");
            let detailed = scan_detailed(&wave, &mut vol, range).unwrap();
            assert_eq!(detailed.entries, want, "scan_detailed {at}");
            assert_eq!(detailed.per_slot.len(), accessed, "{at}");
            assert_eq!(shared.scan(range).unwrap(), want, "shared scan {at}");
            for server in &servers {
                let q = server.scan(range).unwrap();
                assert_eq!(q.entries, want, "server scan {at}");
                assert_eq!(q.indexes_accessed, accessed, "{at}");
            }
            let before = vol_a.stats();
            wave_a.timed_segment_scan(&mut vol_a, range).unwrap();
            let whole = vol_a.stats().since(&before);
            let before = vol_b.stats();
            for &j in &selected {
                wave_b.slot(j).unwrap().scan_in(&mut vol_b, range).unwrap();
            }
            assert_eq!(whole, vol_b.stats().since(&before), "scan schedule {at}");
        }

        for server in servers {
            server.shutdown().unwrap();
        }
        shared.release().unwrap();
        for (mut wave, mut vol) in [(wave, vol), (wave_a, vol_a), (wave_b, vol_b)] {
            wave.release_all(&mut vol).unwrap();
            assert_eq!(vol.live_blocks(), 0, "seed {seed} leaked blocks");
        }
    }
}

/// A transient read burst is ridden out around the device read alone:
/// pruning runs once per `(slot, value)`, so the `filter.*` counters of
/// a faulted query equal its fault-free twin's, and `*.read_retries`
/// rises by exactly the burst length. (Retrying the whole constituent
/// probe used to re-run `prune_probe` and count the pair again.)
#[test]
fn pruning_counters_count_once_under_retry() {
    const SLOTS: usize = 2;
    const BURST: u64 = 2;
    let key = SearchValue::from("k");
    let values = [key.clone(), SearchValue::from("absent"), key.clone()];
    let slot_batches = || -> Vec<Vec<DayBatch>> {
        (0..SLOTS as u32)
            .map(|j| {
                let records = (0..20)
                    .map(|i| Record::with_values(RecordId(j as u64 * 100 + i), [key.clone()]))
                    .collect();
                vec![DayBatch::new(Day(j + 1), records)]
            })
            .collect()
    };

    // SharedWave: twin [clean, faulted].
    let mut checks = Vec::new();
    for faulted in [false, true] {
        let mut vol = Volume::default();
        let mut wave = WaveIndex::with_slots(SLOTS);
        for (j, batches) in slot_batches().iter().enumerate() {
            let refs: Vec<&DayBatch> = batches.iter().collect();
            let idx = ConstituentIndex::build_packed("I", IndexConfig::default(), &mut vol, &refs);
            wave.install(j, idx.unwrap());
        }
        let obs = vol.obs().clone();
        let shared = SharedWave::new(wave, vol);
        let burst = || {
            if faulted {
                shared
                    .with_volume(|v| v.inject_transient_after(0, BURST))
                    .unwrap();
            }
        };
        burst();
        assert_eq!(shared.probe(&key, TimeRange::all()).unwrap().len(), 40);
        let after_probe = obs.counter("filter.checks").get();
        assert_eq!(after_probe, SLOTS as u64, "one check per (slot, value)");
        burst();
        shared.query_batch(&values, TimeRange::all()).unwrap();
        let after_batch = obs.counter("filter.checks").get() - after_probe;
        assert_eq!(after_batch, (SLOTS * values.len()) as u64);
        let retried = obs.counter("shared.read_retries").get();
        assert_eq!(retried, if faulted { 2 * BURST } else { 0 });
        checks.push((after_probe, after_batch));
        shared.release().unwrap();
    }
    assert_eq!(
        checks[0], checks[1],
        "faulted twin counts like the clean one"
    );

    // WaveServer, one slot per arm: twin [clean, faulted].
    let mut checks = Vec::new();
    for faulted in [false, true] {
        let obs = Obs::noop();
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), SLOTS),
            ServerConfig::default(),
            obs.clone(),
        )
        .unwrap();
        server.install_wave(slot_batches()).unwrap();
        let burst = || {
            if faulted {
                server.inject_transient_reads(0, 0, BURST).unwrap();
            }
        };
        burst();
        let q = server.probe(&key, TimeRange::all()).unwrap();
        assert_eq!((q.entries.len(), q.partial), (40, None));
        let after_probe = obs.counter("filter.checks").get();
        assert_eq!(after_probe, SLOTS as u64, "one check per (slot, value)");
        burst();
        let q = server.query_batch(&values, TimeRange::all()).unwrap();
        assert_eq!(q.partial, None);
        let after_batch = obs.counter("filter.checks").get() - after_probe;
        assert_eq!(after_batch, (SLOTS * values.len()) as u64);
        let retried = obs.counter("server.read_retries").get();
        assert_eq!(retried, if faulted { 2 * BURST } else { 0 });
        checks.push((after_probe, after_batch));
        server.shutdown().unwrap();
    }
    assert_eq!(
        checks[0], checks[1],
        "faulted twin counts like the clean one"
    );
}
