//! Multi-disk parallelism (the paper's Section 8 future work).
//!
//! "If `n` matches the number of disks, indexing can be parallelized
//! easily. Also building new constituent indices on separate disks
//! avoids contention. Hence wave indices will have several advantages
//! over monolithic indices when we use multiple disks."
//!
//! The wave index's queries decompose per constituent, so the elapsed
//! time on a `k`-disk array is the *maximum over disks* of the summed
//! constituent times placed on each disk, instead of the single-disk
//! sum. This module measures per-constituent access times on the
//! simulated disk and evaluates placements.

use wave_storage::Volume;

use crate::entry::Entry;
use crate::error::IndexResult;
use crate::query::TimeRange;
use crate::read::{self, Read};
use crate::record::SearchValue;
use crate::wave::WaveIndex;

/// How constituent slots map onto disks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Slot `j` lives on disk `j mod k`.
    RoundRobin {
        /// Number of disks in the array.
        disks: usize,
    },
}

impl Placement {
    /// Disk for slot `j`.
    pub fn disk_of(&self, slot: usize) -> usize {
        match *self {
            Placement::RoundRobin { disks } => slot % disks,
        }
    }

    /// Number of disks.
    pub fn disks(&self) -> usize {
        match *self {
            Placement::RoundRobin { disks } => disks,
        }
    }
}

/// Strategy for realising a slot→arm table ([`ArmMap`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementStrategy {
    /// Slot `j` on arm `j mod k` — the paper's "n matches the number
    /// of disks" suggestion generalised.
    #[default]
    RoundRobin,
    /// Longest-processing-time greedy: place heavy slots first, each
    /// on the currently least-loaded arm. With skewed constituent
    /// sizes this flattens the busiest-arm bound that governs the
    /// parallel elapsed time.
    Greedy,
}

/// A realised slot→arm assignment for a `k`-arm disk array.
///
/// This is the concrete table the [`Placement`] model abstracts: the
/// analytic `RoundRobin` placement maps onto
/// [`ArmMap::round_robin`], and [`ArmMap::greedy`] adds the
/// load-balancing variant used when constituent sizes are skewed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArmMap {
    arm_of: Vec<usize>,
    arms: usize,
}

impl ArmMap {
    /// Round-robin table: slot `j` → arm `j mod arms`.
    ///
    /// # Panics
    /// Panics if `arms == 0`.
    pub fn round_robin(slots: usize, arms: usize) -> Self {
        assert!(arms >= 1, "an arm map needs at least one arm");
        ArmMap {
            arm_of: (0..slots).map(|j| j % arms).collect(),
            arms,
        }
    }

    /// Greedy (longest-processing-time) table: slots sorted by
    /// descending `weight` are each assigned to the least-loaded arm.
    /// Weights are any additive per-slot cost proxy — blocks,
    /// entries, or measured seconds. Ties break on the lowest arm
    /// index so the table is deterministic.
    ///
    /// # Panics
    /// Panics if `arms == 0`.
    pub fn greedy(weights: &[u64], arms: usize) -> Self {
        assert!(arms >= 1, "an arm map needs at least one arm");
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by_key(|&j| (std::cmp::Reverse(weights[j]), j));
        let mut load = vec![0u64; arms];
        let mut arm_of = vec![0usize; weights.len()];
        for j in order {
            let arm = (0..arms).min_by_key(|&a| (load[a], a)).expect("arms >= 1");
            arm_of[j] = arm;
            load[arm] += weights[j];
        }
        ArmMap { arm_of, arms }
    }

    /// Builds the table a strategy prescribes for `slots` slots of
    /// the given `weights` (round-robin ignores the weights).
    pub fn build(strategy: PlacementStrategy, weights: &[u64], arms: usize) -> Self {
        match strategy {
            PlacementStrategy::RoundRobin => Self::round_robin(weights.len(), arms),
            PlacementStrategy::Greedy => Self::greedy(weights, arms),
        }
    }

    /// Number of arms the table spreads over.
    pub fn arms(&self) -> usize {
        self.arms
    }

    /// Number of slots mapped.
    pub fn slots(&self) -> usize {
        self.arm_of.len()
    }

    /// Arm owning `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn arm_of(&self, slot: usize) -> usize {
        self.arm_of[slot]
    }

    /// The slots placed on `arm`, ascending.
    pub fn slots_on(&self, arm: usize) -> Vec<usize> {
        self.arm_of
            .iter()
            .enumerate()
            .filter_map(|(j, &a)| (a == arm).then_some(j))
            .collect()
    }
}

impl From<Placement> for ArmMap {
    /// Realises an analytic placement over as many slots as it has
    /// disks (the paper's `n = k` configuration). For other slot
    /// counts use [`ArmMap::round_robin`] directly.
    fn from(p: Placement) -> Self {
        ArmMap::round_robin(p.disks(), p.disks())
    }
}

/// A query's cost broken down per constituent slot.
#[derive(Debug)]
pub struct DetailedQuery {
    /// Matching entries (same as the plain query).
    pub entries: Vec<Entry>,
    /// `(slot, simulated seconds)` for each accessed constituent.
    pub per_slot: Vec<(usize, f64)>,
}

impl DetailedQuery {
    /// Elapsed seconds on one disk: the plain sum.
    pub fn serial_seconds(&self) -> f64 {
        self.per_slot.iter().map(|(_, s)| s).sum()
    }

    /// Elapsed seconds when constituents are spread per `placement`
    /// and disks work in parallel: the busiest disk bounds the query.
    pub fn parallel_seconds(&self, placement: Placement) -> f64 {
        let mut per_disk = vec![0.0f64; placement.disks()];
        for &(slot, secs) in &self.per_slot {
            per_disk[placement.disk_of(slot)] += secs;
        }
        per_disk.into_iter().fold(0.0, f64::max)
    }

    /// Elapsed seconds under a realised slot→arm table: the busiest
    /// arm bounds the query. This is the analytic prediction the
    /// measured `WaveServer` elapsed times are checked against.
    pub fn parallel_seconds_on(&self, map: &ArmMap) -> f64 {
        let mut per_arm = vec![0.0f64; map.arms()];
        for &(slot, secs) in &self.per_slot {
            per_arm[map.arm_of(slot)] += secs;
        }
        per_arm.into_iter().fold(0.0, f64::max)
    }
}

/// Reads the selected constituents one by one, timing each on the
/// simulated device.
fn read_detailed(
    wave: &WaveIndex,
    vol: &mut Volume,
    what: Read<'_>,
    range: TimeRange,
) -> IndexResult<DetailedQuery> {
    let mut entries = Vec::new();
    let mut per_slot = Vec::new();
    for (slot, idx) in read::select(wave.iter(), range) {
        let before = vol.stats();
        entries.extend(read::read_slot(idx, vol, what, range, None)?);
        per_slot.push((slot, vol.stats().since(&before).sim_seconds));
    }
    Ok(DetailedQuery { entries, per_slot })
}

/// `TimedIndexProbe` with per-constituent timing.
pub fn probe_detailed(
    wave: &WaveIndex,
    vol: &mut Volume,
    value: &SearchValue,
    range: TimeRange,
) -> IndexResult<DetailedQuery> {
    read_detailed(wave, vol, Read::Probe(value), range)
}

/// `TimedSegmentScan` with per-constituent timing.
pub fn scan_detailed(
    wave: &WaveIndex,
    vol: &mut Volume,
    range: TimeRange,
) -> IndexResult<DetailedQuery> {
    read_detailed(wave, vol, Read::Scan, range)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{ConstituentIndex, IndexConfig};
    use crate::record::{Day, DayBatch, Record, RecordId};

    fn wave_with_n(vol: &mut Volume, n: usize, records_per_day: u64) -> WaveIndex {
        let mut wave = WaveIndex::with_slots(n);
        for j in 0..n {
            let day = Day(j as u32 + 1);
            let records = (0..records_per_day)
                .map(|i| {
                    Record::with_values(RecordId(day.0 as u64 * 1000 + i), [SearchValue::from("k")])
                })
                .collect();
            let batch = DayBatch::new(day, records);
            let idx = ConstituentIndex::build_packed(
                format!("I{}", j + 1),
                IndexConfig::default(),
                vol,
                &[&batch],
            )
            .unwrap();
            wave.install(j, idx);
        }
        wave
    }

    #[test]
    fn detailed_probe_matches_plain_results() {
        let mut vol = Volume::default();
        let wave = wave_with_n(&mut vol, 4, 10);
        let detailed =
            probe_detailed(&wave, &mut vol, &SearchValue::from("k"), TimeRange::all()).unwrap();
        let plain = wave.index_probe(&mut vol, &SearchValue::from("k")).unwrap();
        assert_eq!(detailed.entries.len(), plain.entries.len());
        assert_eq!(detailed.per_slot.len(), 4);
        assert!(detailed.serial_seconds() > 0.0);
    }

    #[test]
    fn parallelism_divides_query_time() {
        let mut vol = Volume::default();
        let wave = wave_with_n(&mut vol, 4, 200);
        let q = scan_detailed(&wave, &mut vol, TimeRange::all()).unwrap();
        let serial = q.serial_seconds();
        let two = q.parallel_seconds(Placement::RoundRobin { disks: 2 });
        let four = q.parallel_seconds(Placement::RoundRobin { disks: 4 });
        assert!(two < serial, "two disks beat one: {two} vs {serial}");
        assert!(four < two, "four disks beat two: {four} vs {two}");
        // With n == disks, elapsed equals the slowest single
        // constituent.
        let slowest = q.per_slot.iter().map(|(_, s)| *s).fold(0.0f64, f64::max);
        assert!((four - slowest).abs() < 1e-12);
        wave_cleanup(wave, &mut vol);
    }

    #[test]
    fn uneven_placement_bounds_by_busiest_disk() {
        let q = DetailedQuery {
            entries: Vec::new(),
            per_slot: vec![(0, 3.0), (1, 1.0), (2, 1.0)],
        };
        // Slots 0 and 2 share disk 0: 3 + 1 = 4 > disk 1's 1.
        let t = q.parallel_seconds(Placement::RoundRobin { disks: 2 });
        assert_eq!(t, 4.0);
        assert_eq!(q.serial_seconds(), 5.0);
    }

    fn wave_cleanup(mut wave: WaveIndex, vol: &mut Volume) {
        wave.release_all(vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn arm_map_round_robin_matches_placement() {
        let map = ArmMap::round_robin(6, 3);
        let p = Placement::RoundRobin { disks: 3 };
        for j in 0..6 {
            assert_eq!(map.arm_of(j), p.disk_of(j));
        }
        assert_eq!(map.slots_on(1), vec![1, 4]);
        let q = DetailedQuery {
            entries: Vec::new(),
            per_slot: vec![(0, 1.0), (1, 2.0), (2, 3.0), (3, 1.0), (4, 2.0), (5, 3.0)],
        };
        assert_eq!(q.parallel_seconds_on(&map), q.parallel_seconds(p));
    }

    #[test]
    fn greedy_beats_round_robin_on_skew() {
        // One huge slot and three small ones on two arms: round-robin
        // pairs the huge slot with a small one (bound 10 + 1), greedy
        // isolates it (bound max(10, 3)).
        let weights = [10u64, 1, 1, 1];
        let rr = ArmMap::round_robin(4, 2);
        let greedy = ArmMap::greedy(&weights, 2);
        let q = DetailedQuery {
            entries: Vec::new(),
            per_slot: weights
                .iter()
                .enumerate()
                .map(|(j, &w)| (j, w as f64))
                .collect(),
        };
        assert_eq!(q.parallel_seconds_on(&rr), 11.0);
        assert_eq!(q.parallel_seconds_on(&greedy), 10.0);
        // Every slot is still placed exactly once.
        let mut seen = [false; 4];
        for arm in 0..2 {
            for j in greedy.slots_on(arm) {
                assert!(!seen[j]);
                seen[j] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn build_dispatches_on_strategy() {
        let weights = [5u64, 5, 5, 5];
        assert_eq!(
            ArmMap::build(PlacementStrategy::RoundRobin, &weights, 2),
            ArmMap::round_robin(4, 2)
        );
        let g = ArmMap::build(PlacementStrategy::Greedy, &weights, 2);
        // Equal weights: greedy balances two slots per arm.
        assert_eq!(g.slots_on(0).len(), 2);
        assert_eq!(g.slots_on(1).len(), 2);
        let from: ArmMap = Placement::RoundRobin { disks: 4 }.into();
        assert_eq!(from, ArmMap::round_robin(4, 4));
    }
}
