//! The four workloads: their fixed shapes and their seeded inputs.
//!
//! A workload is a sequence of *day-rounds*: one transition, then the
//! day's probes, batches and scans, then maybe a commit. Window,
//! fan-out, scheme, technique and mix ratios are fixed here; only the
//! per-day operation counts were scaled (from the issue's sizes) so a
//! run fits the benchmark's time cap. Everything random is derived
//! from the `--seed` argument in this file; the engine only ever sees
//! the generated batches and query values.

use wave_index::schemes::SchemeKind;
use wave_index::{
    Day, DayBatch, FilterConfig, IndexConfig, IngestConfig, SearchValue, UpdateTechnique,
};
use wave_obs::SplitMix64;
use wave_workloads::{ArticleGenerator, TpcdGenerator, Zipf};

/// Values per `query_batch` call, fixed by the issue.
pub const BATCH_SIZE: usize = 256;

/// Share of probe values that are absent from the data.
pub const ABSENT_SHARE: f64 = 0.10;

/// Which generator feeds the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Zipfian Netnews articles (`ArticleGenerator`).
    Articles {
        /// Vocabulary size.
        vocab: usize,
        /// Articles per day.
        per_day: usize,
        /// Words indexed per article.
        words: usize,
    },
    /// TPC-D `LINEITEM` rows keyed by uniform `SUPPKEY`.
    Tpcd {
        /// Supplier-key domain.
        suppliers: u64,
        /// Rows per day.
        per_day: usize,
    },
}

/// Which engine path serves the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// A `WaveScheme` over one `Volume`, committed to a `FileStore`.
    Scheme {
        /// Maintenance algorithm.
        kind: SchemeKind,
        /// Update technique.
        technique: UpdateTechnique,
    },
    /// A `WaveServer` over a `DiskArray` (query arms + one
    /// maintenance arm).
    Server {
        /// Arms in the array, maintenance arm included.
        arms: usize,
    },
}

/// Which part of the window a scan covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanShape {
    /// The newest day only (SCAM's registration scan).
    NewestDay,
    /// The whole window (TPC-D Q1).
    Window,
}

/// One workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Input generator.
    pub source: Source,
    /// Window `W` in days.
    pub window: u32,
    /// Constituent indexes `n` (server: slots).
    pub fan: usize,
    /// Engine path.
    pub path: Path,
    /// Buffer-cache blocks (server: per arm).
    pub cache_blocks: usize,
    /// Buffered-ingest tier.
    pub ingest: IngestConfig,
    /// Probes per round.
    pub probes: usize,
    /// `Some(d)`: probes cover only the newest `d` days.
    pub probe_newest_days: Option<u32>,
    /// `query_batch` calls per round.
    pub batches: usize,
    /// Scans per round.
    pub scans: usize,
    /// What a scan covers.
    pub scan_shape: ScanShape,
    /// Commit after every this many rounds.
    pub commit_every: usize,
}

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["scam_probe", "wse_ingest", "tpcd_rebuild", "server_mixed"];

const INGEST_OFF: IngestConfig = IngestConfig {
    enabled: false,
    max_entries: 4096,
    max_days: 4,
};

/// The spec named `name`, or `None`.
pub fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        // Read-dominated SCAM shape: a 1 MiB cache against a ~6 MiB
        // wave does not fit.
        "scam_probe" => Spec {
            name: "scam_probe",
            source: Source::Articles {
                vocab: 5000,
                per_day: 500,
                words: 20,
            },
            window: 30,
            fan: 4,
            path: Path::Scheme {
                kind: SchemeKind::WataStar,
                technique: UpdateTechnique::SimpleShadow,
            },
            cache_blocks: 256,
            ingest: INGEST_OFF,
            probes: 1000,
            probe_newest_days: None,
            batches: 2,
            scans: 2,
            scan_shape: ScanShape::NewestDay,
            commit_every: 10,
        },
        // Write-dominated WSE shape: reads go over dirty buffers.
        "wse_ingest" => Spec {
            name: "wse_ingest",
            source: Source::Articles {
                vocab: 20_000,
                per_day: 1000,
                words: 30,
            },
            window: 35,
            fan: 5,
            path: Path::Scheme {
                kind: SchemeKind::Del,
                technique: UpdateTechnique::InPlace,
            },
            cache_blocks: 0,
            // `IngestBuffer::day_span` counts pending-add days *and*
            // pending-delete days, and DEL buffers one of each per day:
            // the issue's `max_days 4` would spill every second day and
            // put the median transition exactly between two modes. 8
            // gives the spill every fourth day it meant (the entry
            // threshold trips on the same day: 4 x 30k >= 100k).
            ingest: IngestConfig {
                enabled: true,
                max_entries: 100_000,
                max_days: 8,
            },
            probes: 500,
            probe_newest_days: Some(3),
            batches: 1,
            scans: 1,
            scan_shape: ScanShape::NewestDay,
            commit_every: 5,
        },
        // Bulk build, scans and durability: commit every round.
        "tpcd_rebuild" => Spec {
            name: "tpcd_rebuild",
            source: Source::Tpcd {
                suppliers: 1000,
                per_day: 3000,
            },
            window: 100,
            fan: 10,
            path: Path::Scheme {
                kind: SchemeKind::Reindex,
                technique: UpdateTechnique::PackedShadow,
            },
            cache_blocks: 0,
            ingest: INGEST_OFF,
            probes: 100,
            probe_newest_days: None,
            batches: 1,
            scans: 2,
            scan_shape: ScanShape::Window,
            commit_every: 1,
        },
        // scam_probe's data and mix through the server, cache fits.
        "server_mixed" => Spec {
            name: "server_mixed",
            source: Source::Articles {
                vocab: 5000,
                per_day: 500,
                words: 20,
            },
            window: 30,
            fan: 6,
            path: Path::Server { arms: 3 },
            cache_blocks: 4096,
            ingest: INGEST_OFF,
            probes: 1000,
            probe_newest_days: None,
            batches: 2,
            scans: 1,
            scan_shape: ScanShape::NewestDay,
            // The checkpoint is this benchmark's addition (the server
            // has no store path), so its cadence is free: often enough
            // that a run holds eight or more of them.
            commit_every: 5,
        },
        _ => return None,
    })
}

impl Spec {
    /// The same shape at about 1/20 of the data and a tenth of the
    /// queries, for `--smoke`.
    pub fn smoke(mut self) -> Spec {
        self.source = match self.source {
            Source::Articles {
                vocab,
                per_day,
                words,
            } => Source::Articles {
                vocab,
                per_day: (per_day / 20).max(5),
                words,
            },
            Source::Tpcd { suppliers, per_day } => Source::Tpcd {
                suppliers,
                per_day: (per_day / 20).max(5),
            },
        };
        self.probes = (self.probes / 10).max(16);
        self.ingest.max_entries = (self.ingest.max_entries / 20).max(1);
        self
    }

    /// Constituent-index configuration: filters on at their default,
    /// covering off, the spec's ingest tier.
    pub fn index_config(&self) -> IndexConfig {
        IndexConfig {
            filter: FilterConfig::default(),
            ingest: self.ingest,
            ..IndexConfig::default()
        }
    }
}

/// Seeded input generator of one run: day batches and query values.
#[derive(Debug)]
pub struct Inputs {
    source: Generator,
    query_seed: u64,
}

#[derive(Debug)]
enum Generator {
    Articles {
        articles: ArticleGenerator,
        /// Query-word skew: the same Zipfian profile the data has.
        skew: Zipf,
        vocab: usize,
    },
    Tpcd {
        rows: TpcdGenerator,
        suppliers: u64,
    },
}

/// The day size a run of `seed` generates: the spec's, moved by up to
/// 1% either way. Both generators make a fixed number of entries per
/// day, so without this the space and store metrics would read the same
/// on every seed, and nobody could tell a measured constant from a
/// number that was never measured.
fn day_size(per_day: usize, seed: u64) -> usize {
    let swing = per_day / 100;
    per_day - swing + SplitMix64::new(seed ^ 0x4441_595F_5349_5A45).range_usize(0, 2 * swing)
}

impl Inputs {
    /// Creates the generators for `spec` from the run's seed.
    pub fn new(spec: &Spec, seed: u64) -> Self {
        let source = match spec.source {
            Source::Articles {
                vocab,
                per_day,
                words,
            } => Generator::Articles {
                articles: ArticleGenerator::new(vocab, day_size(per_day, seed), words, seed),
                skew: Zipf::new(vocab, 1.0),
                vocab,
            },
            Source::Tpcd { suppliers, per_day } => Generator::Tpcd {
                rows: TpcdGenerator::new(suppliers, day_size(per_day, seed), seed),
                suppliers,
            },
        };
        Inputs {
            source,
            query_seed: seed ^ 0x5155_4552_595F_5345,
        }
    }

    /// The batch arriving on `day`. Days must be requested in
    /// ascending order (record ids are assigned as batches are made).
    pub fn day_batch(&mut self, day: Day) -> DayBatch {
        match &mut self.source {
            Generator::Articles { articles, .. } => articles.day_batch(day),
            Generator::Tpcd { rows, .. } => rows.day(day).1,
        }
    }

    /// `count` query values for `day`: drawn with the data's own skew,
    /// about [`ABSENT_SHARE`] of them values no batch ever holds.
    pub fn query_values(&self, day: Day, stream: u64, count: usize) -> Vec<SearchValue> {
        let mut rng = SplitMix64::new(
            self.query_seed ^ (u64::from(day.0) << 20) ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        (0..count)
            .map(|_| {
                let absent = rng.gen_bool(ABSENT_SHARE);
                match &self.source {
                    // Vocabulary words are "w<rank>"; "x…" never occurs.
                    Generator::Articles { vocab, .. } if absent => {
                        let k = rng.range_usize(1, *vocab);
                        SearchValue::from_bytes(format!("x{k:06}").into_bytes())
                    }
                    Generator::Articles { skew, .. } => {
                        ArticleGenerator::word(skew.sample(&mut rng))
                    }
                    Generator::Tpcd { suppliers, .. } => {
                        let key = rng.range_u64(1, *suppliers);
                        SearchValue::from_u64(if absent { suppliers + key } else { key })
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_has_a_spec() {
        for name in NAMES {
            let s = spec(name).unwrap();
            assert_eq!(s.name, name);
            assert!(s.fan as u32 <= s.window);
            assert!(s.probes > 0 && s.batches > 0 && s.scans > 0 && s.commit_every > 0);
        }
        assert!(spec("nope").is_none());
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for name in NAMES {
            let s = spec(name).unwrap().smoke();
            let make = |seed| {
                let mut i = Inputs::new(&s, seed);
                (
                    i.day_batch(Day(1)),
                    i.day_batch(Day(2)),
                    i.query_values(Day(2), 0, 64),
                )
            };
            assert_eq!(make(7), make(7), "{name}");
            let (a, b) = (make(7), make(8));
            assert_ne!(a.0, b.0, "{name}: batches must differ across seeds");
            assert_ne!(a.2, b.2, "{name}: queries must differ across seeds");
        }
    }

    #[test]
    fn day_size_stays_within_one_percent_and_moves_with_the_seed() {
        let sizes: Vec<usize> = (0..64).map(|seed| day_size(3000, seed)).collect();
        assert!(sizes.iter().all(|s| (2970..=3030).contains(s)), "{sizes:?}");
        assert!(sizes.iter().any(|s| *s != sizes[0]));
        assert_eq!(day_size(3000, 9), day_size(3000, 9));
        assert_eq!(day_size(25, 9), 25);
    }

    #[test]
    fn query_streams_differ_and_hold_absent_values() {
        let s = spec("scam_probe").unwrap();
        let i = Inputs::new(&s, 1);
        let a = i.query_values(Day(40), 0, 2000);
        assert_ne!(a[..100], i.query_values(Day(40), 1, 100)[..]);
        let absent = a.iter().filter(|v| v.as_bytes()[0] == b'x').count();
        assert!((100..300).contains(&absent), "{absent} absent of 2000");
    }

    #[test]
    fn smoke_keeps_the_shape_and_shrinks_the_data() {
        let full = spec("wse_ingest").unwrap();
        let small = full.smoke();
        assert_eq!((small.window, small.fan), (full.window, full.fan));
        let per_day = |s: &Spec| match s.source {
            Source::Articles { per_day, .. } | Source::Tpcd { per_day, .. } => per_day,
        };
        assert!(per_day(&small) * 15 < per_day(&full));
        assert!(small.ingest.enabled);
    }
}
