//! `wavectl`: a command-line wave-index manager.
//!
//! State lives in a plain directory:
//!
//! ```text
//! <dir>/config.txt        scheme, window, fan
//! <dir>/days/day_N.txt    one record per line: "<id> <word> <word> …"
//! ```
//!
//! Commands replay the retained day files through the chosen scheme
//! (day batches are the durable state; the index is reconstructed on
//! demand — the honest choice for a demo-scale tool, and exactly what
//! the paper's `BuildIndex` is for). Day files older than the soft
//! window are pruned on `add`.
//!
//! ```text
//! wavectl init  DIR --scheme wata --window 7 --fan 3
//! wavectl add   DIR [FILE]      # new day from FILE or stdin
//! wavectl query DIR WORD [--from D] [--to D]
//! wavectl scan  DIR [--from D] [--to D]
//! wavectl status DIR
//! wavectl fsck  DIR             # verify the committed index store
//! wavectl recover DIR           # repair it after a crash
//! wavectl trace SCHEME [--days N] [--window W] [--fan N] [--cache BLOCKS] [--out FILE]
//! wavectl report FILE
//! wavectl trace-tree FILE
//! wavectl flight dump [--threshold-us N] [--out FILE]
//! wavectl slo [--json]
//! wavectl bench <parallel|batch|filter|obs|ingest|chaos|all> [--smoke] [--out-dir DIR]
//! ```
//!
//! Besides the replayable day files, `add` also *commits* the rebuilt
//! wave into `<dir>/index/` under a checksummed manifest (see
//! DESIGN.md "Crash consistency"). `fsck` verifies that store without
//! touching it; `recover` repairs it — rolling back half-committed
//! epochs, quarantining corrupt files, and rebuilding constituents
//! from the retained day files.
//!
//! `trace` replays a synthetic Zipfian workload through a scheme with
//! tracing on and emits the JSONL event stream (see DESIGN.md
//! "Observability"); `report` folds such a stream back into a
//! per-phase summary table.
//!
//! `trace-tree` reconstructs a JSONL trace (from `wavectl trace
//! --out` or a flight dump) into causal trees: every span carries its
//! request's `trace_id`/`parent_id`, so each engine entry point's
//! fan-out renders as one rooted tree (see DESIGN.md §12).
//!
//! `flight dump` replays a deterministic [`WaveServer`] workload with
//! the flight recorder as the trace sink and prints the promoted
//! traces verbatim as JSONL: a full-window scan crosses the latency
//! threshold and a deliberately failing maintenance call ends in
//! error, so both tail-retention paths appear in the dump while the
//! fast probes are dropped at ring eviction.
//!
//! `slo` replays a day-by-day scheme workload plus the same server
//! fan-out and renders the sliding-window SLO table — p50/p95/p99
//! latency bounds per operation and per arm, each row's max bucket
//! carrying an exemplar trace id. `--json` emits the machine-readable
//! `wave-obs/slo/v1` document.
//!
//! `bench` runs one of the six evaluation suites of `wave-bench` (or
//! `all` of them) at its full preset, or its CI-sized `--smoke`
//! preset, prints the suite's table, and writes the full document to
//! `DIR/BENCH_<suite>.json` (default `.`). Every suite states a bound;
//! a violated one fails the command — exit status non-zero — after
//! the document is written and the table printed. What each suite
//! measures is documented once, on its module: `parallel` (measured
//! multi-arm speedups vs the analytic placement model), `batch` (bulk
//! build and batched probes vs one request at a time), `filter`
//! (seeks saved by membership filters and covering buckets), `obs`
//! (wall-clock overhead of tracing), `ingest` (buffered vs direct
//! daily transitions) and `chaos` (the fault-injection soak against a
//! single-threaded oracle). Expected numbers are in EXPERIMENTS.md
//! "Running a sweep".

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use wave_index::persist::{commit_wave, read_manifest};
use wave_index::prelude::*;
use wave_index::recovery::{fsck, recover};
use wave_index::schemes::SchemeKind;
use wave_index::server::{ServerConfig, WaveServer};
use wave_obs::context::span_records_from_jsonl;
use wave_obs::json::{parse_flat, JsonValue};
use wave_obs::{build_forest, render_forest, FlightConfig, FlightRecorder, MemorySink, Obs};
use wave_storage::{DiskArray, FileStore, RetryPolicy};
use wave_workloads::{ArticleGenerator, QueryMix};

/// CLI errors, all user-presentable.
#[derive(Debug)]
pub enum CliError {
    /// Malformed invocation; the string explains usage.
    Usage(String),
    /// State directory problems or malformed state files.
    State(String),
    /// Propagated index failure.
    Index(wave_index::IndexError),
    /// Propagated I/O failure.
    Io(std::io::Error),
    /// A gate (`lint`, `bench`) ran to completion and failed: the
    /// string is its full report, which still belongs on stdout; the
    /// name says which gate.
    Failed(&'static str, String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::State(msg) => write!(f, "state error: {msg}"),
            CliError::Index(e) => write!(f, "index error: {e}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Failed(what, report) => write!(f, "{what} failed\n{report}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<wave_index::IndexError> for CliError {
    fn from(e: wave_index::IndexError) -> Self {
        CliError::Index(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<wave_storage::StorageError> for CliError {
    fn from(e: wave_storage::StorageError) -> Self {
        CliError::Index(wave_index::IndexError::Storage(e))
    }
}

/// Parses a scheme name as the CLI spells it.
pub fn parse_scheme(name: &str) -> Result<SchemeKind, CliError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "del" => SchemeKind::Del,
        "reindex" => SchemeKind::Reindex,
        "reindex+" | "reindexplus" => SchemeKind::ReindexPlus,
        "reindex++" | "reindexplusplus" => SchemeKind::ReindexPlusPlus,
        "wata" | "wata*" | "wata-star" => SchemeKind::WataStar,
        "rata" | "rata*" | "rata-star" => SchemeKind::RataStar,
        other => {
            return Err(CliError::Usage(format!(
                "unknown scheme {other:?} (expected del|reindex|reindex+|reindex++|wata|rata)"
            )))
        }
    })
}

#[derive(Debug, Clone)]
struct Config {
    scheme: SchemeKind,
    window: u32,
    fan: usize,
    /// Buffered-ingest knobs (DESIGN.md "Buffered ingest"). Stores
    /// initialised before this tier existed have no `ingest*` keys in
    /// their config.txt and load as disabled — the old behavior.
    ingest: IngestConfig,
}

impl Config {
    fn save(&self, dir: &Path) -> Result<(), CliError> {
        let text = format!(
            "scheme={}\nwindow={}\nfan={}\ningest={}\ningest_max_entries={}\ningest_max_days={}\n",
            self.scheme.name(),
            self.window,
            self.fan,
            if self.ingest.enabled { "on" } else { "off" },
            self.ingest.max_entries,
            self.ingest.max_days
        );
        fs::write(dir.join("config.txt"), text)?;
        Ok(())
    }

    fn load(dir: &Path) -> Result<Config, CliError> {
        let text = fs::read_to_string(dir.join("config.txt")).map_err(|_| {
            CliError::State(format!(
                "{} is not a wavectl directory (missing config.txt); run `wavectl init` first",
                dir.display()
            ))
        })?;
        let mut scheme = None;
        let mut window = None;
        let mut fan = None;
        let mut ingest = IngestConfig::default();
        for line in text.lines() {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            match key.trim() {
                "scheme" => scheme = Some(parse_scheme(value.trim())?),
                "ingest" => {
                    ingest.enabled = match value.trim() {
                        "on" => true,
                        "off" => false,
                        other => {
                            return Err(CliError::State(format!("bad ingest value {other:?}")))
                        }
                    }
                }
                "ingest_max_entries" => {
                    ingest.max_entries = value.trim().parse::<usize>().map_err(|_| {
                        CliError::State(format!("bad ingest_max_entries value {value:?}"))
                    })?
                }
                "ingest_max_days" => {
                    ingest.max_days = value.trim().parse::<u32>().map_err(|_| {
                        CliError::State(format!("bad ingest_max_days value {value:?}"))
                    })?
                }
                "window" => {
                    window = Some(
                        value
                            .trim()
                            .parse::<u32>()
                            .map_err(|_| CliError::State(format!("bad window value {value:?}")))?,
                    )
                }
                "fan" => {
                    fan = Some(
                        value
                            .trim()
                            .parse::<usize>()
                            .map_err(|_| CliError::State(format!("bad fan value {value:?}")))?,
                    )
                }
                _ => {}
            }
        }
        match (scheme, window, fan) {
            (Some(scheme), Some(window), Some(fan)) => Ok(Config {
                scheme,
                window,
                fan,
                ingest,
            }),
            _ => Err(CliError::State("config.txt is incomplete".into())),
        }
    }
}

fn days_dir(dir: &Path) -> PathBuf {
    dir.join("days")
}

/// Where the committed (manifest + constituent images) store lives.
fn index_dir(dir: &Path) -> PathBuf {
    dir.join("index")
}

fn day_path(dir: &Path, day: u32) -> PathBuf {
    days_dir(dir).join(format!("day_{day}.txt"))
}

/// Lists the retained day numbers, ascending.
fn stored_days(dir: &Path) -> Result<Vec<u32>, CliError> {
    let mut days = Vec::new();
    for entry in fs::read_dir(days_dir(dir))? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(num) = name
            .strip_prefix("day_")
            .and_then(|s| s.strip_suffix(".txt"))
        {
            days.push(
                num.parse::<u32>()
                    .map_err(|_| CliError::State(format!("unparseable day file {name:?}")))?,
            );
        }
    }
    days.sort_unstable();
    Ok(days)
}

/// Parses a day file: `<id> <word> <word> …` per line; lines starting
/// with `#` and blank lines are skipped. Records with no words are
/// rejected.
fn parse_day(day: u32, text: &str) -> Result<DayBatch, CliError> {
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let id: u64 = parts
            .next()
            .expect("non-empty line has a token")
            .parse()
            .map_err(|_| {
                CliError::State(format!(
                    "day {day} line {}: first token must be a numeric record id",
                    lineno + 1
                ))
            })?;
        let words: Vec<SearchValue> = parts.map(SearchValue::from).collect();
        if words.is_empty() {
            return Err(CliError::State(format!(
                "day {day} line {}: record {id} has no words",
                lineno + 1
            )));
        }
        records.push(Record::with_values(RecordId(id), words));
    }
    Ok(DayBatch::new(Day(day), records))
}

/// A replayed store: the scheme (started if enough days are stored),
/// its volume, and the last transition report.
type Replayed = (Box<dyn WaveScheme>, Volume, Option<TransitionRecord>);

/// Replays the stored days through the configured scheme.
fn replay(dir: &Path, cfg: &Config) -> Result<Replayed, CliError> {
    let days = stored_days(dir)?;
    let mut archive = DayArchive::new();
    for &d in &days {
        let text = fs::read_to_string(day_path(dir, d))?;
        archive.insert(parse_day(d, &text)?);
    }
    let mut scheme = cfg.scheme.build(scheme_config(cfg))?;
    let mut vol = Volume::default();
    let mut last = None;
    let max_day = days.last().copied().unwrap_or(0);
    if max_day >= cfg.window {
        // Pruned early days are replayed as empty batches: the
        // schemes' cluster decisions depend only on day *counts*, so
        // the final state is identical, and the lost records had
        // expired out of even the soft window anyway.
        let contiguous = days.windows(2).all(|w| w[1] == w[0] + 1);
        if !contiguous {
            return Err(CliError::State(
                "day files are not contiguous; the store is corrupt".into(),
            ));
        }
        // Synthesis is only sound for days already expired out of any
        // possible soft window; a missing *recent* day means someone
        // deleted live data.
        if days[0] > 1 && days[0] > (max_day + 1).saturating_sub(2 * cfg.window) {
            return Err(CliError::State(format!(
                "day files before day {} are missing but still inside the \
                 retention horizon; the store is corrupt",
                days[0]
            )));
        }
        for d in 1..days[0] {
            archive.insert(DayBatch::empty(Day(d)));
        }
        last = Some(scheme.start(&mut vol, &archive)?);
        for d in (cfg.window + 1)..=max_day {
            last = Some(scheme.transition(&mut vol, &archive, Day(d))?);
        }
    }
    Ok((scheme, vol, last))
}

/// The scheme configuration a stored Config describes, ingest knobs
/// included.
fn scheme_config(cfg: &Config) -> SchemeConfig {
    SchemeConfig::new(cfg.window, cfg.fan).with_index(IndexConfig {
        ingest: cfg.ingest,
        ..Default::default()
    })
}

fn parse_range(args: &[String]) -> Result<TimeRange, CliError> {
    let mut lo = None;
    let mut hi = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--from" => {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::Usage("--from needs a day number".into()))?;
                lo = Some(Day(v.parse().map_err(|_| {
                    CliError::Usage(format!("bad --from value {v:?}"))
                })?));
                i += 2;
            }
            "--to" => {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::Usage("--to needs a day number".into()))?;
                hi = Some(Day(v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --to value {v:?}")))?));
                i += 2;
            }
            other => {
                return Err(CliError::Usage(format!("unknown flag {other:?}")));
            }
        }
    }
    Ok(TimeRange { lo, hi })
}

/// Runs one CLI invocation; returns the text to print.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let usage =
        "usage: wavectl <init|add|query|scan|status|fsck|recover|trace|report|trace-tree|flight|slo|bench|lint> …";
    let command = args.first().ok_or_else(|| CliError::Usage(usage.into()))?;
    match command.as_str() {
        "trace" => return cmd_trace(&args[1..]),
        "report" => return cmd_report(&args[1..]),
        "trace-tree" => return cmd_trace_tree(&args[1..]),
        "flight" => return cmd_flight(&args[1..]),
        "slo" => return cmd_slo(&args[1..]),
        "bench" => return cmd_bench(&args[1..]),
        "lint" => return cmd_lint(&args[1..]),
        _ => {}
    }
    let dir = PathBuf::from(args.get(1).ok_or_else(|| CliError::Usage(usage.into()))?);
    match command.as_str() {
        "init" => cmd_init(&dir, &args[2..]),
        "add" => cmd_add(&dir, &args[2..]),
        "query" => cmd_query(&dir, &args[2..]),
        "scan" => cmd_scan(&dir, &args[2..]),
        "status" => cmd_status(&dir),
        "fsck" => cmd_fsck(&dir),
        "recover" => cmd_recover(&dir),
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}; {usage}"
        ))),
    }
}

fn cmd_init(dir: &Path, args: &[String]) -> Result<String, CliError> {
    let mut scheme = SchemeKind::WataStar;
    let mut window = 7u32;
    let mut fan = 3usize;
    let mut ingest = IngestConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--buffered" => {
                ingest.enabled = true;
                i += 1;
            }
            "--spill-entries" => {
                ingest.max_entries = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::Usage("--spill-entries needs a value".into()))?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --spill-entries value".into()))?;
                i += 2;
            }
            "--spill-days" => {
                ingest.max_days = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::Usage("--spill-days needs a value".into()))?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --spill-days value".into()))?;
                i += 2;
            }
            "--scheme" => {
                scheme = parse_scheme(
                    args.get(i + 1)
                        .ok_or_else(|| CliError::Usage("--scheme needs a value".into()))?,
                )?;
                i += 2;
            }
            "--window" => {
                window = args[i + 1..]
                    .first()
                    .ok_or_else(|| CliError::Usage("--window needs a value".into()))?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --window value".into()))?;
                i += 2;
            }
            "--fan" => {
                fan = args[i + 1..]
                    .first()
                    .ok_or_else(|| CliError::Usage("--fan needs a value".into()))?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --fan value".into()))?;
                i += 2;
            }
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    let cfg = Config {
        scheme,
        window,
        fan,
        ingest,
    };
    // Validate the combination before writing anything.
    scheme.build(scheme_config(&cfg))?;
    fs::create_dir_all(days_dir(dir))?;
    cfg.save(dir)?;
    Ok(format!(
        "initialised {} with {} (W = {window}, n = {fan}{})\nfeed days with: wavectl add {} FILE\n",
        dir.display(),
        scheme.name(),
        if ingest.enabled {
            format!(
                ", buffered ingest: spill at {} entries or {} days",
                ingest.max_entries, ingest.max_days
            )
        } else {
            String::new()
        },
        dir.display()
    ))
}

fn cmd_add(dir: &Path, args: &[String]) -> Result<String, CliError> {
    let cfg = Config::load(dir)?;
    let text = match args.first() {
        Some(path) => fs::read_to_string(path)?,
        None => {
            use std::io::Read;
            let mut buf = String::new();
            std::io::stdin().read_to_string(&mut buf)?;
            buf
        }
    };
    // Validate the existing store and the new day before persisting
    // anything, so a failed add leaves the store exactly as it was.
    let days = stored_days(dir)?;
    if !days.windows(2).all(|w| w[1] == w[0] + 1) {
        return Err(CliError::State(
            "day files are not contiguous; repair the store before adding".into(),
        ));
    }
    let next = days.last().map_or(1, |d| d + 1);
    let batch = parse_day(next, &text)?;
    fs::write(day_path(dir, next), &text)?;

    let (scheme, mut vol, last) = replay(dir, &cfg)?;
    // Prune day files no scheme could still need (twice the window
    // comfortably covers every soft tail and temp ladder).
    if let Some(horizon) = next.checked_sub(2 * cfg.window) {
        for d in stored_days(dir)? {
            if d <= horizon {
                fs::remove_file(day_path(dir, d))?;
            }
        }
    }
    let mut out = format!("day {next}: {} records stored\n", batch.records.len());
    match last {
        Some(rec) => {
            let ops: Vec<String> = rec.ops.iter().map(|op| op.to_string()).collect();
            out.push_str(&format!(
                "index ops: {}\nwindow: {} days across {} constituents\n",
                ops.join("; "),
                scheme.wave().length(),
                scheme.wave().iter().count()
            ));
            // Durably commit the new wave state: after a crash,
            // `wavectl recover` restores exactly this epoch.
            let mut store = FileStore::open(index_dir(dir))?;
            let report = commit_wave(scheme.wave(), &mut vol, &mut store, &RetryPolicy::default())?;
            out.push_str(&format!(
                "committed epoch {} (wrote {} of {} constituents, {} bytes)\n",
                report.epoch,
                report.files_written,
                report.files_written + report.files_reused,
                report.bytes_written
            ));
        }
        None => {
            out.push_str(&format!(
                "collecting start-up days: {next}/{} stored\n",
                cfg.window
            ));
        }
    }
    Ok(out)
}

fn cmd_query(dir: &Path, args: &[String]) -> Result<String, CliError> {
    let cfg = Config::load(dir)?;
    let word = args
        .first()
        .ok_or_else(|| CliError::Usage("query needs a WORD".into()))?;
    let range = parse_range(&args[1..])?;
    let (scheme, mut vol, _) = replay(dir, &cfg)?;
    if scheme.current_day().is_none() {
        return Err(CliError::State(format!(
            "not enough days yet (need {})",
            cfg.window
        )));
    }
    let result =
        scheme
            .wave()
            .timed_index_probe(&mut vol, &SearchValue::from(word.as_str()), range)?;
    let n = result.entries.len();
    let mut out = format!(
        "{n} hit{} for {word:?} ({} constituent indexes probed)\n",
        if n == 1 { "" } else { "s" },
        result.indexes_accessed
    );
    for e in &result.entries {
        out.push_str(&format!("  record {} (day {})\n", e.record.0, e.day.0));
    }
    Ok(out)
}

fn cmd_scan(dir: &Path, args: &[String]) -> Result<String, CliError> {
    let cfg = Config::load(dir)?;
    let range = parse_range(args)?;
    let (scheme, mut vol, _) = replay(dir, &cfg)?;
    if scheme.current_day().is_none() {
        return Err(CliError::State(format!(
            "not enough days yet (need {})",
            cfg.window
        )));
    }
    let result = scheme.wave().timed_segment_scan(&mut vol, range)?;
    Ok(format!(
        "{} entries in range ({} constituent indexes scanned)\n",
        result.entries.len(),
        result.indexes_accessed
    ))
}

fn cmd_status(dir: &Path) -> Result<String, CliError> {
    let cfg = Config::load(dir)?;
    let days = stored_days(dir)?;
    let mut out = format!(
        "scheme {} | W = {} | n = {} | {} day files | ingest {}\n",
        cfg.scheme.name(),
        cfg.window,
        cfg.fan,
        days.len(),
        if cfg.ingest.enabled {
            "buffered"
        } else {
            "direct"
        }
    );
    let (scheme, vol, _) = replay(dir, &cfg)?;
    match scheme.current_day() {
        Some(day) => {
            out.push_str(&format!(
                "current day {} | window {} days | {} entries | {} blocks\n",
                day.0,
                scheme.wave().length(),
                scheme.wave().entry_count(),
                scheme.wave().blocks(),
            ));
            for (_, idx) in scheme.wave().iter() {
                let days: Vec<String> = idx.days().iter().map(|d| d.0.to_string()).collect();
                let buffered = idx.ingest().pending_entries();
                out.push_str(&format!(
                    "  {}: days [{}]{}{}\n",
                    idx.label(),
                    days.join(","),
                    if idx.is_packed() { " (packed)" } else { "" },
                    if cfg.ingest.enabled {
                        format!(
                            " | {buffered} buffered entries, {} bytes pending spill",
                            idx.pending_ingest_bytes()
                        )
                    } else {
                        String::new()
                    }
                ));
            }
            out.push_str(&format!(
                "replay cost: {:.3} simulated disk seconds\n",
                vol.stats().sim_seconds
            ));
        }
        None => out.push_str(&format!(
            "collecting start-up days ({}/{})\n",
            days.len(),
            cfg.window
        )),
    }
    if index_dir(dir).is_dir() {
        let mut store = FileStore::open(index_dir(dir))?;
        match read_manifest(&mut store) {
            Ok(Some(m)) => out.push_str(&format!(
                "committed index: epoch {} ({} files, {} carried over from earlier epochs)\n",
                m.epoch,
                m.entries.len(),
                m.images_carried()
            )),
            Ok(None) => out.push_str("committed index: none\n"),
            Err(_) => out.push_str("committed index: MANIFEST corrupt — run `wavectl recover`\n"),
        }
    }
    Ok(out)
}

/// Resolves the store directory `fsck`/`recover` operate on: the
/// `index/` subdirectory of a wavectl state dir, or the directory
/// itself when pointed straight at a bare store.
fn store_dir(dir: &Path) -> Result<PathBuf, CliError> {
    let candidate = if dir.join("config.txt").is_file() {
        index_dir(dir)
    } else {
        dir.to_path_buf()
    };
    if candidate.is_dir() {
        Ok(candidate)
    } else {
        Err(CliError::State(format!(
            "{} has no committed index store",
            dir.display()
        )))
    }
}

fn cmd_fsck(dir: &Path) -> Result<String, CliError> {
    let mut store = FileStore::open(store_dir(dir)?)?;
    let report = fsck(&mut store, &Obs::noop())?;
    let mut out = String::new();
    if !report.manifest_present {
        out.push_str("no MANIFEST: nothing is committed\n");
    } else if report.manifest_ok {
        out.push_str(&format!(
            "MANIFEST ok, epoch {}\n",
            report.epoch.expect("valid manifest has an epoch")
        ));
    } else {
        out.push_str("MANIFEST CORRUPT\n");
    }
    out.push_str(&format!(
        "{} files scanned, {} verified\n",
        report.files_scanned,
        report.ok_files.len()
    ));
    if !report.filter_ok.is_empty() {
        out.push_str(&format!(
            "{} filter sidecar(s) verified\n",
            report.filter_ok.len()
        ));
    }
    if !report.ingest_ok.is_empty() {
        out.push_str(&format!(
            "{} ingest log(s) verified\n",
            report.ingest_ok.len()
        ));
    }
    for f in &report.corrupt {
        out.push_str(&format!("  corrupt: {f}\n"));
    }
    for f in &report.missing {
        out.push_str(&format!("  missing: {f}\n"));
    }
    for f in &report.filter_corrupt {
        out.push_str(&format!("  filter corrupt: {f}\n"));
    }
    for f in &report.filter_missing {
        out.push_str(&format!("  filter missing: {f}\n"));
    }
    for f in &report.ingest_corrupt {
        out.push_str(&format!("  ingest log corrupt: {f}\n"));
    }
    for f in &report.ingest_missing {
        out.push_str(&format!("  ingest log missing: {f}\n"));
    }
    for f in &report.orphans {
        out.push_str(&format!("  orphan: {f}\n"));
    }
    for f in &report.quarantined {
        out.push_str(&format!("  quarantined: {f}\n"));
    }
    if report.is_clean() {
        out.push_str("store is clean\n");
    } else {
        out.push_str("store needs `wavectl recover`\n");
    }
    Ok(out)
}

fn cmd_recover(dir: &Path) -> Result<String, CliError> {
    let store_path = store_dir(dir)?;
    // A wavectl state dir can rebuild constituents from its retained
    // day files; a bare store recovers without an archive.
    let mut archive = None;
    if dir.join("config.txt").is_file() {
        let mut a = DayArchive::new();
        for d in stored_days(dir)? {
            let text = fs::read_to_string(day_path(dir, d))?;
            a.insert(parse_day(d, &text)?);
        }
        archive = Some(a);
    }
    let mut store = FileStore::open(store_path)?;
    let mut vol = Volume::default();
    let (loaded, report) = recover(
        IndexConfig::default(),
        &mut vol,
        &mut store,
        archive.as_ref(),
    )?;
    let mut out = String::new();
    if !report.rolled_back.is_empty() {
        out.push_str(&format!(
            "rolled back {} uncommitted file(s) to the empty state\n",
            report.rolled_back.len()
        ));
    }
    if report.manifest_quarantined {
        out.push_str("MANIFEST was corrupt: quarantined as MANIFEST.quar; files preserved\n");
    }
    for f in &report.rebuilt {
        out.push_str(&format!("  rebuilt from day files: {f}\n"));
    }
    for f in &report.rebuilt_filters {
        out.push_str(&format!("  rebuilt filter sidecar: {f}\n"));
    }
    for s in &report.dropped_slots {
        out.push_str(&format!(
            "  dropped slot {s} (days no longer in the archive)\n"
        ));
    }
    for f in &report.quarantined {
        out.push_str(&format!("  quarantined: {f}\n"));
    }
    if report.orphans_removed > 0 {
        out.push_str(&format!(
            "  swept {} orphaned file(s)\n",
            report.orphans_removed
        ));
    }
    match loaded {
        Some(mut loaded) => {
            out.push_str(&format!(
                "recovered epoch {}: {} entries across {} constituents\n",
                loaded.manifest.epoch,
                loaded.wave.entry_count(),
                loaded.manifest.entries.len()
            ));
            loaded.wave.release_all(&mut vol)?;
        }
        None => out.push_str("no committed wave remains\n"),
    }
    Ok(out)
}

/// `wavectl lint [DIR] [FLAGS]`: runs the in-repo static analyzer
/// (see `wave-lint`) over the workspace rooted at `DIR` (default: the
/// current directory) and checks the result against the committed
/// `lint-baseline.toml`. A failing check — new violations, or a stale
/// baseline that must be ratcheted down — is a hard error, so the
/// process exits non-zero and CI fails.
///
/// Flags:
/// * `--fix-baseline` regenerates the baseline file instead; it is
///   the only sanctioned way to change it.
/// * `--json` emits the stable `wave-lint/v2` machine format
///   (documented in EXPERIMENTS.md) instead of text.
/// * `--graph <fn>` dumps a function's resolved callers, callees, and
///   effect facts from the call-graph layer (`<fn>` is a bare name or
///   `Owner::name`).
/// * `--write-registry` regenerates `crates/obs/src/names.rs` from
///   the tree's literal metric/span names; `--check-registry`
///   verifies it is up to date (the CI step).
fn cmd_lint(args: &[String]) -> Result<String, CliError> {
    const USAGE: &str = "(expected [DIR] [--fix-baseline] [--json] [--graph <fn>] \
                         [--write-registry] [--check-registry])";
    let mut root = PathBuf::from(".");
    let mut fix = false;
    let mut json = false;
    let mut graph: Option<String> = None;
    let mut write_registry = false;
    let mut check_registry = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fix-baseline" => fix = true,
            "--json" => json = true,
            "--graph" => {
                graph = Some(
                    it.next()
                        .ok_or_else(|| {
                            CliError::Usage("--graph needs a function name".to_string())
                        })?
                        .clone(),
                );
            }
            "--write-registry" => write_registry = true,
            "--check-registry" => check_registry = true,
            other if !other.starts_with('-') => root = PathBuf::from(other),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown lint flag {other:?} {USAGE}"
                )))
            }
        }
    }
    if let Some(query) = graph {
        return wave_lint::graph_dump(&root, &query).map_err(CliError::State);
    }
    if write_registry {
        return wave_lint::write_registry(&root).map_err(CliError::State);
    }
    if check_registry {
        let (ok, msg) = wave_lint::check_registry(&root).map_err(CliError::State)?;
        return if ok {
            Ok(msg)
        } else {
            Err(CliError::Failed("lint", msg))
        };
    }
    if json {
        let gate = wave_lint::run_gate(&root).map_err(CliError::State)?;
        let doc = wave_lint::render_json(&gate);
        return if gate.ok {
            Ok(doc)
        } else {
            Err(CliError::Failed("lint", doc))
        };
    }
    let outcome = wave_lint::run_lint(&root, fix).map_err(CliError::State)?;
    if outcome.ok {
        Ok(outcome.report)
    } else {
        Err(CliError::Failed("lint", outcome.report))
    }
}

/// Runs `days` traced days of a synthetic Zipfian workload through
/// `kind` and returns the JSONL event stream plus every `DayReport`
/// (start report first). The trace's per-phase `sim_seconds` agree
/// with the reports exactly: both are derived from the same
/// `IoStats` deltas and f64s round-trip through the JSONL encoding.
pub fn run_trace(
    kind: SchemeKind,
    days: u32,
    window: u32,
    fan: usize,
    cache: usize,
) -> Result<(String, Vec<DayReport>), CliError> {
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::new(sink.clone());
    let mut vol = Volume::new(DiskConfig::default().with_cache(cache));
    vol.attach_obs(obs.clone());
    let scheme = kind.build(SchemeConfig::new(window, fan))?;
    let mut driver = Driver::new(scheme, vol, DriverConfig::default());

    let seed = 0x0B5E_7ACE;
    let mut articles = ArticleGenerator::new(400, 30, 6, seed);
    let mix = QueryMix::new(400, 8, 1, window, seed);
    let mut reports = Vec::with_capacity(days as usize + 1);
    reports.push(driver.start((1..=window).map(|d| articles.day_batch(Day(d))).collect())?);
    for d in (window + 1)..=(window + days) {
        let load = mix.load_for(Day(d));
        reports.push(driver.step(articles.day_batch(Day(d)), &load)?);
    }
    obs.dump_metrics();
    driver.finish()?;
    obs.flush();
    Ok((sink.to_jsonl(), reports))
}

fn cmd_trace(args: &[String]) -> Result<String, CliError> {
    let usage = "usage: wavectl trace SCHEME [--days N] [--window W] [--fan N] [--cache BLOCKS] [--out FILE]";
    let scheme = parse_scheme(args.first().ok_or_else(|| CliError::Usage(usage.into()))?)?;
    let mut days = 30u32;
    let mut window = 7u32;
    let mut fan = 3usize;
    let mut cache = 256usize;
    let mut out: Option<PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        let value = |flag: &str| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match args[i].as_str() {
            "--days" => {
                days = value("--days")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --days value".into()))?
            }
            "--window" => {
                window = value("--window")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --window value".into()))?
            }
            "--fan" => {
                fan = value("--fan")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --fan value".into()))?
            }
            "--cache" => {
                cache = value("--cache")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --cache value".into()))?
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            other => return Err(CliError::Usage(format!("unknown flag {other:?}; {usage}"))),
        }
        i += 2;
    }
    let (jsonl, reports) = run_trace(scheme, days, window, fan, cache)?;
    match out {
        Some(path) => {
            fs::write(&path, &jsonl)?;
            Ok(format!(
                "traced {} days of {} to {} ({} events)\nsummarise with: wavectl report {}\n",
                reports.len(),
                scheme.name(),
                path.display(),
                jsonl.lines().count(),
                path.display()
            ))
        }
        None => Ok(jsonl),
    }
}

/// Per-phase accumulator for `summarize_trace`.
#[derive(Default)]
struct PhaseTotals {
    events: u64,
    sim_seconds: f64,
    seeks: u64,
    blocks_read: u64,
    blocks_written: u64,
}

/// The I/O-scheduler counters (DESIGN.md §11) that get their own
/// grouping in the report: every registered counter under the
/// `sched.` prefix, in registry order. Derived from the generated
/// registry (`wave_obs::names`, maintained by
/// `wavectl lint --write-registry`) rather than a hand list, so a new
/// or renamed counter appears here in the same commit that emits it.
/// Absent counters render as 0 — `sched.seeks_saved` only registers
/// on batched *reads*, and a report that silently drops it misreads
/// as "the elevator saved nothing".
fn sched_counters() -> Vec<&'static str> {
    registry_counters("sched.")
}

/// The probe-pruning counters (DESIGN.md §14), grouped like the I/O
/// scheduler's and likewise derived from the registry. Rendered with
/// zeros when absent — a fresh store or an unfiltered run
/// legitimately records nothing, and an omitted row would be
/// indistinguishable from a wiring bug.
fn filter_counters() -> Vec<&'static str> {
    registry_counters("filter.")
}

/// The buffered-ingest counters (DESIGN.md "Buffered ingest"),
/// grouped like the I/O scheduler's and likewise derived from the
/// registry. Rendered with zeros when absent — a store running with
/// the buffer disabled legitimately records nothing.
fn ingest_counters() -> Vec<&'static str> {
    registry_counters("ingest.")
}

fn registry_counters(prefix: &str) -> Vec<&'static str> {
    wave_obs::names::COUNTERS
        .iter()
        .copied()
        .filter(|n| n.starts_with(prefix))
        .collect()
}

/// Folds a JSONL trace back into a human-readable summary: one row
/// per paper measure (precomp/transition/post/query), the I/O
/// scheduler counters, failure attribution (erroring spans grouped by
/// span name and arm), then the metric dump, echoing the trace's own
/// `metric` events.
pub fn summarize_trace(jsonl: &str) -> Result<String, CliError> {
    const PHASES: [&str; 4] = ["precomp", "transition", "post", "query"];
    let mut totals: Vec<PhaseTotals> = (0..4).map(|_| PhaseTotals::default()).collect();
    let mut days = 0u64;
    let mut scheme = String::new();
    let sched_names = sched_counters();
    let filter_names = filter_counters();
    let ingest_names = ingest_counters();
    let mut sched = vec![0u64; sched_names.len()];
    let mut filters = vec![0u64; filter_names.len()];
    let mut ingests = vec![0u64; ingest_names.len()];
    let mut metrics: Vec<String> = Vec::new();
    // (span name, arm) → (count, an example error message). Spans
    // without an arm field (whole-request roots, degraded-read
    // markers) group under "-".
    let mut failures: std::collections::BTreeMap<(String, String), (u64, String)> =
        std::collections::BTreeMap::new();
    for (lineno, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = parse_flat(line).ok_or_else(|| {
            CliError::State(format!("line {}: not a flat JSON object", lineno + 1))
        })?;
        let ev = obj.get("ev").and_then(JsonValue::as_str).unwrap_or("");
        let field_f64 = |k: &str| obj.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
        let field_u64 = |k: &str| obj.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
        if obj.get("kind").and_then(JsonValue::as_str) == Some("span_end") {
            if let Some(err) = obj.get("error").and_then(JsonValue::as_str) {
                let arm = obj
                    .get("arm")
                    .and_then(JsonValue::as_u64)
                    .map(|a| a.to_string())
                    .unwrap_or_else(|| "-".into());
                let slot = failures
                    .entry((ev.to_string(), arm))
                    .or_insert((0, String::new()));
                slot.0 += 1;
                slot.1 = err.to_string();
            }
        }
        match ev {
            "phase" => {
                let phase = obj.get("phase").and_then(JsonValue::as_str).unwrap_or("");
                let Some(slot) = PHASES.iter().position(|p| *p == phase) else {
                    continue;
                };
                let t = &mut totals[slot];
                t.events += 1;
                t.sim_seconds += field_f64("sim_seconds");
                t.seeks += field_u64("seeks");
                t.blocks_read += field_u64("blocks_read");
                t.blocks_written += field_u64("blocks_written");
            }
            "day_report" => days += 1,
            "metric" => {
                let name = obj.get("metric").and_then(JsonValue::as_str).unwrap_or("?");
                if let Some(slot) = sched_names.iter().position(|c| *c == name) {
                    sched[slot] = field_u64("value");
                    continue;
                }
                if let Some(slot) = filter_names.iter().position(|c| *c == name) {
                    filters[slot] = field_u64("value");
                    continue;
                }
                if let Some(slot) = ingest_names.iter().position(|c| *c == name) {
                    ingests[slot] = field_u64("value");
                    continue;
                }
                let line = match obj.get("type").and_then(JsonValue::as_str).unwrap_or("") {
                    "histogram" => format!(
                        "  {name}: count {} sum {} mean {:.2} max {} p50<={} p99<={}",
                        field_u64("count"),
                        field_u64("sum"),
                        field_f64("mean"),
                        field_u64("max"),
                        field_u64("p50"),
                        field_u64("p99"),
                    ),
                    "gauge" => format!("  {name}: {}", field_f64("value")),
                    _ => format!("  {name}: {}", field_u64("value")),
                };
                metrics.push(line);
            }
            _ => {
                if scheme.is_empty() {
                    if let Some(s) = obj.get("scheme").and_then(JsonValue::as_str) {
                        scheme = s.to_string();
                    }
                }
            }
        }
    }
    let mut out = String::new();
    if !scheme.is_empty() {
        out.push_str(&format!("scheme {scheme} | {days} day reports\n"));
    } else {
        out.push_str(&format!("{days} day reports\n"));
    }
    out.push_str(&format!(
        "{:<12} {:>7} {:>14} {:>9} {:>12} {:>14}\n",
        "phase", "events", "sim_seconds", "seeks", "blocks_read", "blocks_written"
    ));
    for (name, t) in PHASES.iter().zip(&totals) {
        out.push_str(&format!(
            "{:<12} {:>7} {:>14.6} {:>9} {:>12} {:>14}\n",
            name, t.events, t.sim_seconds, t.seeks, t.blocks_read, t.blocks_written
        ));
    }
    out.push_str("io scheduler:\n");
    for (name, v) in sched_names.iter().zip(&sched) {
        out.push_str(&format!("  {name:<18} {v}\n"));
    }
    out.push_str("filters:\n");
    for (name, v) in filter_names.iter().zip(&filters) {
        out.push_str(&format!("  {name:<22} {v}\n"));
    }
    out.push_str("ingest:\n");
    for (name, v) in ingest_names.iter().zip(&ingests) {
        out.push_str(&format!("  {name:<22} {v}\n"));
    }
    if !failures.is_empty() {
        out.push_str("failures:\n");
        for ((name, arm), (count, example)) in &failures {
            out.push_str(&format!(
                "  {name:<22} arm {arm:<3} {count:>4} × {example}\n"
            ));
        }
    }
    if !metrics.is_empty() {
        out.push_str("metrics:\n");
        for m in &metrics {
            out.push_str(m);
            out.push('\n');
        }
    }
    Ok(out)
}

fn cmd_report(args: &[String]) -> Result<String, CliError> {
    let path = args
        .first()
        .ok_or_else(|| CliError::Usage("usage: wavectl report FILE".into()))?;
    let jsonl = fs::read_to_string(path)?;
    summarize_trace(&jsonl)
}

fn cmd_trace_tree(args: &[String]) -> Result<String, CliError> {
    let path = args
        .first()
        .ok_or_else(|| CliError::Usage("usage: wavectl trace-tree FILE".into()))?;
    let jsonl = fs::read_to_string(path)?;
    let records = span_records_from_jsonl(&jsonl);
    if records.is_empty() {
        return Ok(
            "no trace-context spans found (was the file produced with tracing on?)\n".into(),
        );
    }
    let forest = build_forest(&records);
    let rooted = forest.iter().filter(|t| t.is_single_rooted()).count();
    let spans: usize = forest.iter().map(wave_obs::TraceTree::span_count).sum();
    let mut out = render_forest(&forest);
    out.push_str(&format!(
        "{} traces ({} single-rooted), {} spans\n",
        forest.len(),
        rooted,
        spans
    ));
    Ok(out)
}

/// Trace seed for the deterministic `flight` / `slo` workloads: runs
/// are reproducible down to the trace ids.
const OBS_CLI_SEED: u64 = 0x00B5_EC11;

/// Default `flight dump` promotion threshold. Under the simulated
/// cost model (14 ms seek, 10 MB/s transfer) a point probe over the
/// workload below costs one seek plus one bucket — ≈14.5 ms — while
/// the full-window scan transfers every arm's whole segment —
/// ≈45 ms — so the scan is promoted and the probes are dropped at
/// ring eviction.
const FLIGHT_THRESHOLD_US: u64 = 35_000;

/// Records per slot of the deterministic server workload: large
/// enough that a full scan's transfer time dwarfs a probe's seek.
const WORKLOAD_RECORDS: u64 = 16_000;

/// One day of the deterministic server workload: `records` records
/// spread over a 97-value space, so probe buckets stay block-sized
/// while the segment as a whole is scan-expensive.
fn workload_day(day: u32, records: u64) -> DayBatch {
    DayBatch::new(
        Day(day),
        (0..records)
            .map(|i| {
                Record::with_values(
                    RecordId(day as u64 * 1_000_000 + i),
                    [SearchValue::from_u64(i % 97)],
                )
            })
            .collect(),
    )
}

/// The deterministic [`WaveServer`] workload behind `flight dump` and
/// `slo`: fast point probes, one batched probe, one deliberately slow
/// full-window scan, and one maintenance call that fails (no arm was
/// reserved) to inject an erroring trace.
fn run_server_workload(obs: &Obs) -> Result<(), CliError> {
    let server = WaveServer::launch(
        DiskArray::new(DiskConfig::default(), 3),
        ServerConfig::default(),
        obs.clone(),
    )?;
    server.install_wave(
        (0..3)
            .map(|j| vec![workload_day(j + 1, WORKLOAD_RECORDS)])
            .collect(),
    )?;
    for i in 0..8u64 {
        server.probe(
            &SearchValue::from_u64(i % 7),
            TimeRange::between(Day(1), Day(1 + (i as u32 % 3))),
        )?;
    }
    server.query_batch(
        &[
            SearchValue::from_u64(2),
            SearchValue::from_u64(55),
            SearchValue::from_u64(100_000),
        ],
        TimeRange::all(),
    )?;
    server.scan(TimeRange::all())?;
    // No maintenance arm is reserved, so this errors by design; the
    // failure lands in the trace, not on the CLI user.
    let _ = server.maintain(0, vec![workload_day(9, 10)]);
    server.shutdown()?;
    Ok(())
}

/// Runs the flight-recorder workload and returns the promoted-trace
/// JSONL dump plus a one-line stats summary.
pub fn run_flight(threshold_us: u64) -> Result<(String, String), CliError> {
    let recorder = Arc::new(FlightRecorder::new(FlightConfig {
        promote_latency_us: threshold_us,
        ..FlightConfig::default()
    }));
    let obs = Obs::with_seed(recorder.clone(), OBS_CLI_SEED);
    run_server_workload(&obs)?;
    obs.flush();
    let stats = recorder.stats();
    let summary = format!(
        "{} traces completed, {} promoted (>= {} us or error), {} parked in the recent ring\n",
        stats.completed, stats.promoted, threshold_us, stats.ring_len
    );
    Ok((recorder.dump_promoted(), summary))
}

fn cmd_flight(args: &[String]) -> Result<String, CliError> {
    let usage = "usage: wavectl flight dump [--threshold-us N] [--out FILE]";
    if args.first().map(String::as_str) != Some("dump") {
        return Err(CliError::Usage(usage.into()));
    }
    let mut threshold_us = FLIGHT_THRESHOLD_US;
    let mut out: Option<PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        let value = |flag: &str| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match args[i].as_str() {
            "--threshold-us" => {
                threshold_us = value("--threshold-us")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --threshold-us value".into()))?
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            other => return Err(CliError::Usage(format!("unknown flag {other:?}; {usage}"))),
        }
        i += 2;
    }
    let (dump, summary) = run_flight(threshold_us)?;
    match out {
        Some(path) => {
            fs::write(&path, &dump)?;
            Ok(format!(
                "{summary}wrote {} promoted-trace events to {}\n",
                dump.lines().count(),
                path.display()
            ))
        }
        None => Ok(dump),
    }
}

/// Day-by-day replay feeding the SLO windows: populates the
/// `driver.*` / `query.*` rows and rotates the per-wave-day windows.
fn replay_slo_days(obs: &Obs) -> Result<(), CliError> {
    let (window, fan) = (3u32, 2usize);
    let mut vol = Volume::new(DiskConfig::default().with_cache(128));
    vol.attach_obs(obs.clone());
    let scheme = SchemeKind::Reindex.build(SchemeConfig::new(window, fan))?;
    let mut driver = Driver::new(scheme, vol, DriverConfig::default());
    let mut articles = ArticleGenerator::new(200, 20, 6, OBS_CLI_SEED);
    let mix = QueryMix::new(200, 6, 1, window, OBS_CLI_SEED);
    driver.start((1..=window).map(|d| articles.day_batch(Day(d))).collect())?;
    for d in (window + 1)..=(window + 6) {
        let load = mix.load_for(Day(d));
        driver.step(articles.day_batch(Day(d)), &load)?;
    }
    driver.finish()?;
    Ok(())
}

/// Runs both deterministic workloads and renders the SLO windows —
/// the table, or the `wave-obs/slo/v1` JSON document.
pub fn run_slo(json: bool) -> Result<String, CliError> {
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::with_seed(sink, OBS_CLI_SEED);
    replay_slo_days(&obs)?;
    run_server_workload(&obs)?;
    Ok(if json {
        obs.slo().to_json()
    } else {
        obs.slo().render_table()
    })
}

fn cmd_slo(args: &[String]) -> Result<String, CliError> {
    let usage = "usage: wavectl slo [--json]";
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other => return Err(CliError::Usage(format!("unknown flag {other:?}; {usage}"))),
        }
    }
    run_slo(json)
}

/// `wavectl bench <suite|all> [--smoke] [--out-dir DIR]`: runs one
/// evaluation suite (or all six, in `wave_bench::SUITES` order) at its
/// full or `--smoke` preset and writes `DIR/BENCH_<suite>.json`
/// (default `.`). A violated bound fails the command *after* every
/// document is written and every table rendered, naming each suite
/// that violated.
fn cmd_bench(args: &[String]) -> Result<String, CliError> {
    let names = wave_bench::SUITES.map(|(name, _)| name);
    let usage = format!(
        "usage: wavectl bench <{}|all> [--smoke] [--out-dir DIR]",
        names.join("|")
    );
    let mut which = None;
    let mut smoke = false;
    let mut out_dir = PathBuf::from(".");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out-dir" => {
                out_dir = PathBuf::from(
                    it.next()
                        .ok_or_else(|| CliError::Usage("--out-dir needs a value".into()))?,
                );
            }
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown flag {flag:?}; {usage}")))
            }
            name => which = Some(name),
        }
    }
    let which = which.ok_or_else(|| CliError::Usage(usage.clone()))?;
    let chosen: Vec<_> = wave_bench::SUITES
        .iter()
        .filter(|(name, _)| which == "all" || which == *name)
        .collect();
    if chosen.is_empty() {
        return Err(CliError::Usage(format!("unknown suite {which:?}; {usage}")));
    }
    fs::create_dir_all(&out_dir)?;
    let mut out = String::new();
    let mut violated = Vec::new();
    for &(name, run) in chosen {
        match emit_bench(name, &run(smoke), &out_dir) {
            Ok(block) => out.push_str(&block),
            Err(CliError::Failed(_, block)) => {
                out.push_str(&block);
                violated.push(name);
            }
            Err(e) => return Err(e),
        }
    }
    if violated.is_empty() {
        Ok(out)
    } else {
        out.push_str(&format!("violated: {}\n", violated.join(", ")));
        Err(CliError::Failed("bench", out))
    }
}

/// Writes one suite's document to `out_dir/BENCH_<suite>.json` and
/// renders its console block — table, `wrote …`, verdict. A report
/// with violations comes back as [`CliError::Failed`] carrying the
/// same block, so the table a bound failed on is never dropped.
fn emit_bench(
    suite: &str,
    report: &wave_bench::Report,
    out_dir: &Path,
) -> Result<String, CliError> {
    let path = out_dir.join(format!("BENCH_{suite}.json"));
    fs::write(&path, report.to_json())?;
    let block = format!(
        "{}wrote {}\n{}",
        report.to_table(),
        path.display(),
        report.verdict()
    );
    if report.violations.is_empty() {
        Ok(block)
    } else {
        Err(CliError::Failed("bench", block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir() -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "wavectl-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn add_day(dir: &Path, lines: &str) -> String {
        let f = dir.join("incoming.txt");
        fs::write(&f, lines).unwrap();
        run(&s(&["add", dir.to_str().unwrap(), f.to_str().unwrap()])).unwrap()
    }

    #[test]
    fn full_cli_lifecycle() {
        let dir = temp_dir();
        let d = dir.to_str().unwrap();
        let out = run(&s(&[
            "init", d, "--scheme", "wata", "--window", "3", "--fan", "2",
        ]))
        .unwrap();
        assert!(out.contains("WATA*"));

        // Not enough days yet.
        add_day(&dir, "1 hello world\n");
        add_day(&dir, "2 hello rust\n# comment\n\n");
        let err = run(&s(&["query", d, "hello"])).unwrap_err();
        assert!(matches!(err, CliError::State(_)));

        let out = add_day(&dir, "3 world again\n");
        assert!(out.contains("window: 3 days"), "{out}");

        let out = run(&s(&["query", d, "hello"])).unwrap();
        assert!(out.starts_with("2 hits"), "{out}");
        let out = run(&s(&["query", d, "hello", "--from", "2", "--to", "3"])).unwrap();
        assert!(out.starts_with("1 hit "), "{out}");

        // Slide: day 1's records expire from the window.
        add_day(&dir, "4 fresh words\n");
        let out = run(&s(&["query", d, "world", "--from", "2", "--to", "4"])).unwrap();
        assert!(out.starts_with("1 hit "), "{out}");

        let out = run(&s(&["scan", d])).unwrap();
        assert!(out.contains("entries in range"), "{out}");

        let out = run(&s(&["status", d])).unwrap();
        assert!(out.contains("WATA*"), "{out}");
        assert!(out.contains("current day 4"), "{out}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn init_rejects_bad_configs() {
        let dir = temp_dir();
        let d = dir.to_str().unwrap();
        let err = run(&s(&[
            "init", d, "--scheme", "wata", "--window", "5", "--fan", "1",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Index(_)));
        let err = run(&s(&["init", d, "--scheme", "nope"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn add_rejects_malformed_lines_without_storing() {
        let dir = temp_dir();
        let d = dir.to_str().unwrap();
        run(&s(&[
            "init", d, "--scheme", "del", "--window", "2", "--fan", "1",
        ]))
        .unwrap();
        let f = dir.join("bad.txt");
        fs::write(&f, "notanumber hello\n").unwrap();
        let err = run(&s(&["add", d, f.to_str().unwrap()])).unwrap_err();
        assert!(matches!(err, CliError::State(_)));
        assert!(stored_days(&dir).unwrap().is_empty(), "nothing persisted");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_scheme_name_parses() {
        for (name, kind) in [
            ("del", SchemeKind::Del),
            ("REINDEX", SchemeKind::Reindex),
            ("reindex+", SchemeKind::ReindexPlus),
            ("reindex++", SchemeKind::ReindexPlusPlus),
            ("wata*", SchemeKind::WataStar),
            ("rata", SchemeKind::RataStar),
        ] {
            assert_eq!(parse_scheme(name).unwrap(), kind);
        }
    }

    #[test]
    fn old_day_files_are_pruned_and_replay_survives() {
        let dir = temp_dir();
        let d = dir.to_str().unwrap();
        run(&s(&[
            "init", d, "--scheme", "wata", "--window", "2", "--fan", "2",
        ]))
        .unwrap();
        for day in 1..=9u32 {
            add_day(&dir, &format!("{day} word{day} shared\n"));
        }
        let kept = stored_days(&dir).unwrap();
        assert!(kept[0] > 1, "old day files pruned: {kept:?}");
        // Queries over the live window still work after pruning.
        let out = run(&s(&["query", d, "shared"])).unwrap();
        assert!(!out.starts_with("0 hits"), "{out}");
        let out = run(&s(&["status", d])).unwrap();
        assert!(out.contains("current day 9"), "{out}");
        fs::remove_dir_all(&dir).ok();
    }

    /// The ISSUE acceptance check: a 30-day WATA* trace is valid
    /// JSONL whose per-phase `sim_seconds` totals agree with the
    /// `DayReport` figures to 1e-9, with a warm cache showing hits.
    #[test]
    fn trace_jsonl_agrees_with_day_reports() {
        let (jsonl, reports) = run_trace(SchemeKind::WataStar, 30, 7, 3, 256).unwrap();
        let mut sums = [0.0f64; 4]; // precomp, transition, post, query
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;
        for line in jsonl.lines() {
            let obj = parse_flat(line).unwrap_or_else(|| panic!("invalid JSONL line: {line}"));
            match obj.get("ev").and_then(JsonValue::as_str) {
                Some("phase") => {
                    let phase = obj.get("phase").and_then(JsonValue::as_str).unwrap();
                    let slot = ["precomp", "transition", "post", "query"]
                        .iter()
                        .position(|p| *p == phase)
                        .unwrap();
                    sums[slot] += obj.get("sim_seconds").and_then(JsonValue::as_f64).unwrap();
                }
                Some("metric") => {
                    let v = obj.get("value").and_then(JsonValue::as_u64).unwrap_or(0);
                    match obj.get("metric").and_then(JsonValue::as_str) {
                        Some("cache.hits") => cache_hits = v,
                        Some("cache.misses") => cache_misses = v,
                        _ => {}
                    }
                }
                _ => {}
            }
        }
        assert_eq!(reports.len(), 31, "start + 30 stepped days");
        let expect = [
            reports.iter().map(|r| r.precomp_seconds).sum::<f64>(),
            reports.iter().map(|r| r.transition_seconds).sum::<f64>(),
            reports.iter().map(|r| r.post_seconds).sum::<f64>(),
            reports.iter().map(|r| r.query_seconds).sum::<f64>(),
        ];
        for (i, (got, want)) in sums.iter().zip(&expect).enumerate() {
            assert!(
                (got - want).abs() < 1e-9,
                "phase {i}: trace total {got} vs reports {want}"
            );
        }
        assert!(expect.iter().sum::<f64>() > 0.0, "workload did real I/O");
        assert!(cache_hits > 0, "cached run must record hits");
        assert!(cache_misses > 0, "cold blocks must record misses");
    }

    #[test]
    fn trace_report_pipeline_roundtrips() {
        let dir = temp_dir();
        let d = dir.to_str().unwrap();
        let trace_file = dir.join("trace.jsonl");
        let tf = trace_file.to_str().unwrap();
        let out = run(&s(&[
            "trace",
            "wata-star",
            "--days",
            "5",
            "--window",
            "4",
            "--fan",
            "2",
            "--cache",
            "64",
            "--out",
            tf,
        ]))
        .unwrap();
        assert!(out.contains("traced 6 days of WATA*"), "{out}");
        let report = run(&s(&["report", tf])).unwrap();
        assert!(report.contains("scheme WATA*"), "{report}");
        assert!(report.contains("6 day reports"), "{report}");
        for phase in ["precomp", "transition", "post", "query"] {
            assert!(report.contains(phase), "{report}");
        }
        assert!(report.contains("cache.hits"), "{report}");
        assert!(report.contains("dir.probe_depth"), "{report}");
        // The DESIGN.md §11 scheduler counters get their own group,
        // with absent counters rendered as 0 rather than omitted. The
        // group is derived from the generated registry, so it must
        // not be empty (that would mean names.rs is stale).
        assert!(report.contains("io scheduler:"), "{report}");
        assert!(
            !sched_counters().is_empty(),
            "registry has no sched.* counters"
        );
        for counter in sched_counters() {
            assert!(report.contains(counter), "{counter} missing: {report}");
        }
        // Likewise the probe-pruning group (DESIGN.md §14): present
        // even when a counter never fired, rendered as 0.
        assert!(report.contains("filters:"), "{report}");
        assert!(
            !filter_counters().is_empty(),
            "registry has no filter.* counters"
        );
        for counter in filter_counters() {
            assert!(report.contains(counter), "{counter} missing: {report}");
        }
        // Likewise the buffered-ingest group (DESIGN.md "Buffered
        // ingest"): present even with the buffer disabled, rendered
        // as 0.
        assert!(report.contains("ingest:"), "{report}");
        assert!(
            !ingest_counters().is_empty(),
            "registry has no ingest.* counters"
        );
        for counter in ingest_counters() {
            assert!(report.contains(counter), "{counter} missing: {report}");
        }
        // No server in this workload, so arm elisions must render 0
        // rather than vanish.
        assert!(report.contains("filter.arm_elisions    0"), "{report}");
        // Without --out the JSONL itself is the output.
        let jsonl = run(&s(&[
            "trace", "del", "--days", "2", "--window", "3", "--fan", "1",
        ]))
        .unwrap();
        assert!(jsonl.lines().all(|l| parse_flat(l).is_some()));
        let _ = d;
        fs::remove_dir_all(&dir).ok();
    }

    /// `add` commits the wave under a manifest once the window fills,
    /// and `fsck` → corrupt a file → `recover` → `fsck` comes back
    /// clean with the constituent rebuilt from the retained day files.
    #[test]
    fn add_commits_and_recover_repairs_corruption() {
        let dir = temp_dir();
        let d = dir.to_str().unwrap();
        run(&s(&[
            "init", d, "--scheme", "wata", "--window", "3", "--fan", "2",
        ]))
        .unwrap();
        add_day(&dir, "1 hello world\n");
        add_day(&dir, "2 hello rust\n");
        let out = add_day(&dir, "3 world again\n");
        assert!(out.contains("committed epoch 1"), "{out}");
        let out = add_day(&dir, "4 fresh words\n");
        // `add` replays the day files into a fresh wave, which carries
        // no durable markers: every constituent is written.
        assert!(
            out.contains("committed epoch 2 (wrote 2 of 2 constituents"),
            "{out}"
        );

        let out = run(&s(&["status", d])).unwrap();
        assert!(
            out.contains("committed index: epoch 2 (2 files, 0 carried over"),
            "{out}"
        );
        let out = run(&s(&["fsck", d])).unwrap();
        assert!(out.contains("store is clean"), "{out}");

        // Flip a byte in the middle of a committed constituent image
        // (not a filter sidecar — that repair path is checked below).
        let victim = fs::read_dir(index_dir(&dir))
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                name != "MANIFEST" && !name.ends_with(".filt")
            })
            .expect("committed store has constituent files");
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&victim, &bytes).unwrap();

        let out = run(&s(&["fsck", d])).unwrap();
        assert!(out.contains("corrupt:"), "{out}");
        assert!(out.contains("needs `wavectl recover`"), "{out}");

        let out = run(&s(&["recover", d])).unwrap();
        assert!(out.contains("rebuilt from day files"), "{out}");
        assert!(out.contains("recovered epoch 2"), "{out}");

        let out = run(&s(&["fsck", d])).unwrap();
        assert!(out.contains("store is clean"), "{out}");
        assert!(out.contains("filter sidecar(s) verified"), "{out}");
        // The repaired store answers queries as before.
        let out = run(&s(&["query", d, "fresh"])).unwrap();
        assert!(out.starts_with("1 hit "), "{out}");

        // Now tear a filter sidecar: fsck flags it and recover
        // rebuilds it from the constituent, no archive needed.
        let sidecar = fs::read_dir(index_dir(&dir))
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.to_string_lossy().ends_with(".filt"))
            .expect("committed store has filter sidecars");
        let bytes = fs::read(&sidecar).unwrap();
        fs::write(&sidecar, &bytes[..bytes.len() / 2]).unwrap();

        let out = run(&s(&["fsck", d])).unwrap();
        assert!(out.contains("filter corrupt:"), "{out}");
        assert!(out.contains("needs `wavectl recover`"), "{out}");

        let out = run(&s(&["recover", d])).unwrap();
        assert!(out.contains("rebuilt filter sidecar:"), "{out}");
        assert!(!out.contains("rebuilt from day files"), "{out}");

        let out = run(&s(&["fsck", d])).unwrap();
        assert!(out.contains("store is clean"), "{out}");
        let out = run(&s(&["query", d, "fresh"])).unwrap();
        assert!(out.starts_with("1 hit "), "{out}");
        fs::remove_dir_all(&dir).ok();
    }

    /// A corrupt MANIFEST is surfaced by status/fsck and quarantined
    /// by recover, which preserves the constituents as evidence.
    #[test]
    fn recover_quarantines_corrupt_manifest() {
        let dir = temp_dir();
        let d = dir.to_str().unwrap();
        run(&s(&[
            "init", d, "--scheme", "del", "--window", "2", "--fan", "1",
        ]))
        .unwrap();
        add_day(&dir, "1 alpha\n");
        add_day(&dir, "2 beta\n");
        let manifest = index_dir(&dir).join("MANIFEST");
        let mut bytes = fs::read(&manifest).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&manifest, &bytes).unwrap();

        let out = run(&s(&["status", d])).unwrap();
        assert!(out.contains("MANIFEST corrupt"), "{out}");
        let out = run(&s(&["fsck", d])).unwrap();
        assert!(out.contains("MANIFEST CORRUPT"), "{out}");
        let out = run(&s(&["recover", d])).unwrap();
        assert!(out.contains("quarantined as MANIFEST.quar"), "{out}");
        assert!(out.contains("no committed wave remains"), "{out}");
        // The next add re-commits a fresh epoch over the wreckage.
        let out = add_day(&dir, "3 gamma\n");
        assert!(out.contains("committed epoch 1"), "{out}");
        let out = run(&s(&["fsck", d])).unwrap();
        assert!(out.contains("store is clean"), "{out}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsck_handles_bare_and_missing_stores() {
        let dir = temp_dir();
        // An existing directory is treated as a bare (empty) store.
        let out = run(&s(&["fsck", dir.to_str().unwrap()])).unwrap();
        assert!(out.contains("nothing is committed"), "{out}");
        // A missing path is a state error, not a silent mkdir.
        let missing = dir.join("nope");
        let err = run(&s(&["fsck", missing.to_str().unwrap()])).unwrap_err();
        assert!(matches!(err, CliError::State(_)), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    /// `report` attributes erroring spans to their arm: `span_end`
    /// lines with an `error` field group by (span, arm).
    #[test]
    fn report_attributes_failures_per_arm() {
        let jsonl = "\
{\"seq\":0,\"kind\":\"span_end\",\"ev\":\"arm.probe\",\"span\":2,\"arm\":1,\"error\":\"storage: injected transient disk failure\"}\n\
{\"seq\":1,\"kind\":\"span_end\",\"ev\":\"arm.probe\",\"span\":4,\"arm\":1,\"error\":\"storage: injected transient disk failure\"}\n\
{\"seq\":2,\"kind\":\"span_end\",\"ev\":\"server.degraded_query\",\"span\":6,\"error\":\"degraded answer: 2 slot(s) uncovered\"}\n\
{\"seq\":3,\"kind\":\"span_end\",\"ev\":\"arm.probe\",\"span\":8,\"arm\":0,\"latency_us\":12}\n";
        let out = summarize_trace(jsonl).unwrap();
        assert!(out.contains("failures:"), "{out}");
        assert!(out.contains("arm.probe") && out.contains("arm 1"), "{out}");
        assert!(out.contains("2 ×"), "{out}");
        assert!(out.contains("server.degraded_query"), "{out}");
        assert!(out.contains("arm -"), "{out}");
        // Healthy span ends are not failures.
        assert!(!out.contains("arm 0"), "{out}");
    }

    /// A store initialised with `--buffered` buffers daily adds,
    /// answers queries identically to a direct twin, survives a
    /// replay from disk, and reports the pending buffer in `status`.
    #[test]
    fn buffered_store_lifecycle() {
        let buffered = temp_dir();
        let direct = temp_dir();
        let b = buffered.to_str().unwrap();
        let d = direct.to_str().unwrap();
        let out = run(&s(&[
            "init",
            b,
            "--scheme",
            "del",
            "--window",
            "3",
            "--fan",
            "2",
            "--buffered",
            "--spill-entries",
            "64",
            "--spill-days",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("buffered ingest"), "{out}");
        run(&s(&[
            "init", d, "--scheme", "del", "--window", "3", "--fan", "2",
        ]))
        .unwrap();
        for day in 1..=5u32 {
            let lines = format!("{day} word{day} shared\n{day}1 extra{day}\n");
            add_day(&buffered, &lines);
            add_day(&direct, &lines);
        }
        // Same answers with the buffer on and off.
        for word in ["shared", "word4", "extra5", "ghost"] {
            let qb = run(&s(&["query", b, word])).unwrap();
            let qd = run(&s(&["query", d, word])).unwrap();
            assert_eq!(qb, qd, "buffered answer diverged for {word:?}");
        }
        assert_eq!(
            run(&s(&["scan", b])).unwrap(),
            run(&s(&["scan", d])).unwrap()
        );
        let status = run(&s(&["status", b])).unwrap();
        assert!(status.contains("ingest buffered"), "{status}");
        assert!(status.contains("buffered entries"), "{status}");
        assert!(status.contains("bytes pending spill"), "{status}");
        let status = run(&s(&["status", d])).unwrap();
        assert!(status.contains("ingest direct"), "{status}");
        assert!(!status.contains("buffered entries"), "{status}");
        // The committed store fscks clean with dirty buffers.
        let out = run(&s(&["fsck", b])).unwrap();
        assert!(out.contains("clean"), "{out}");
        fs::remove_dir_all(&buffered).ok();
        fs::remove_dir_all(&direct).ok();
    }

    /// The tentpole acceptance check: `flight dump` promotes exactly
    /// the injected slow scan and the erroring maintenance call, the
    /// dump is replayable verbatim, and `trace-tree` reconstructs one
    /// single-rooted causal tree per promoted request.
    #[test]
    fn flight_dump_promotes_slow_and_erroring_traces_and_trees_are_rooted() {
        let dir = temp_dir();
        let dump_path = dir.join("flight.jsonl");
        let out = run(&s(&[
            "flight",
            "dump",
            "--out",
            dump_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("2 promoted"), "{out}");
        assert!(out.contains("parked in the recent ring"), "{out}");

        let dump = fs::read_to_string(&dump_path).unwrap();
        // The slow full-window scan is recoverable verbatim: its root
        // span_end carries the over-threshold latency.
        let mut slow_roots = 0;
        let mut error_roots = 0;
        for line in dump.lines() {
            let obj = parse_flat(line).unwrap_or_else(|| panic!("invalid JSONL line: {line}"));
            // Root span ends: no parent to hang off.
            if obj.get("kind").and_then(JsonValue::as_str) != Some("span_end")
                || obj.contains_key("parent_id")
            {
                continue;
            }
            if let Some(us) = obj.get("latency_us").and_then(JsonValue::as_u64) {
                if us >= FLIGHT_THRESHOLD_US {
                    slow_roots += 1;
                    assert_eq!(
                        obj.get("ev").and_then(JsonValue::as_str),
                        Some("server.query"),
                        "{line}"
                    );
                }
            }
            if let Some(err) = obj.get("error").and_then(JsonValue::as_str) {
                error_roots += 1;
                assert!(err.contains("maintenance arm"), "{line}");
            }
        }
        assert_eq!(slow_roots, 1, "exactly the scan crossed the threshold");
        assert_eq!(error_roots, 1, "exactly the maintain call errored");
        // The slow root really is the injected scan, not a probe.
        assert!(dump.contains("\"op\":\"scan\""), "{dump}");

        // Each promoted request reconstructs into one rooted tree.
        let tree = run(&s(&["trace-tree", dump_path.to_str().unwrap()])).unwrap();
        assert!(tree.contains("2 traces (2 single-rooted)"), "{tree}");
        assert!(tree.contains("server.query"), "{tree}");
        assert!(tree.contains("arm.scan"), "{tree}");
        assert!(tree.contains("server.maintain"), "{tree}");

        // At a sky-high threshold only the error trace promotes.
        let (dump, summary) = run_flight(u64::MAX).unwrap();
        assert!(summary.contains("1 promoted"), "{summary}");
        assert!(dump.contains("server.maintain"), "{dump}");
        assert!(!dump.contains("\"op\":\"scan\""), "{dump}");

        let err = run(&s(&["flight", "bogus"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    /// `trace-tree` also reconstructs the day-by-day driver capture:
    /// every trace in a `wavectl trace` JSONL is single-rooted.
    #[test]
    fn trace_tree_reconstructs_driver_traces() {
        let dir = temp_dir();
        let trace_file = dir.join("trace.jsonl");
        let tf = trace_file.to_str().unwrap();
        run(&s(&[
            "trace", "reindex", "--days", "3", "--window", "3", "--fan", "2", "--out", tf,
        ]))
        .unwrap();
        let out = run(&s(&["trace-tree", tf])).unwrap();
        let footer = out.lines().last().unwrap();
        let (traces, rest) = footer.split_once(" traces (").unwrap();
        let (rooted, _) = rest.split_once(" single-rooted").unwrap();
        assert!(traces.parse::<usize>().unwrap() > 0, "{footer}");
        assert_eq!(traces, rooted, "every request is single-rooted: {footer}");

        // A file with no trace-context spans is reported, not a panic.
        let plain = dir.join("plain.jsonl");
        fs::write(&plain, "{\"ev\":\"metric\",\"metric\":\"x\",\"value\":1}\n").unwrap();
        let out = run(&s(&["trace-tree", plain.to_str().unwrap()])).unwrap();
        assert!(out.contains("no trace-context spans found"), "{out}");
        fs::remove_dir_all(&dir).ok();
    }

    /// `slo` renders per-op and per-arm quantile rows with exemplar
    /// trace ids; `--json` emits the `wave-obs/slo/v1` document.
    #[test]
    fn slo_reports_per_op_and_per_arm_quantiles() {
        let table = run(&s(&["slo"])).unwrap();
        for op in [
            "driver.day",
            "server.query",
            "server.query_batch",
            "query.probe",
        ] {
            assert!(table.contains(op), "{op} missing:\n{table}");
        }
        // Per-arm rows: the 3-arm server workload populates arm 0..=2.
        let server_rows: Vec<&str> = table
            .lines()
            .filter(|l| l.starts_with("server.query "))
            .collect();
        assert!(server_rows.len() >= 3, "per-arm + aggregate rows:\n{table}");
        for col in ["p50<=", "p95<=", "p99<=", "exemplar"] {
            assert!(table.contains(col), "{col} missing:\n{table}");
        }

        let json = run(&s(&["slo", "--json"])).unwrap();
        assert!(json.contains("\"schema\":\"wave-obs/slo/v1\""), "{json}");
        assert!(json.contains("\"op\":\"server.query\""), "{json}");
        let rows = json
            .split_once("\"rows\":[")
            .expect("document has a rows array")
            .1
            .trim_end_matches(['}', ']']);
        for row in rows.split("},{") {
            let row = format!("{{{}}}", row.trim_matches(['{', '}']));
            assert!(parse_flat(&row).is_some(), "unparseable row: {row}");
        }

        let err = run(&s(&["slo", "--bogus"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    /// Every case object of a `BENCH_<suite>.json` document, parsed
    /// (none for a flat document).
    fn bench_cases(doc: &str) -> Vec<std::collections::BTreeMap<String, JsonValue>> {
        let Some((_, cases)) = doc.split_once("\"cases\":[") else {
            return Vec::new();
        };
        cases
            .trim_end_matches(['}', ']'])
            .split("},{")
            .map(|case| {
                let case = format!("{{{}}}", case.trim_matches(['{', '}']));
                parse_flat(&case).unwrap_or_else(|| panic!("unparseable case: {case}"))
            })
            .collect()
    }

    /// `bench <suite> --smoke`, for every suite: the table names a
    /// row, the verdict reports the suite's bound as met, and the
    /// document written to `--out-dir` carries the suite's schema and
    /// its cases (or, for `obs`, its flat result fields).
    #[test]
    fn bench_smoke_writes_json_for_every_suite() {
        // (suite, a word of its table, its pass phrase, its case count).
        let expect = [
            (
                "parallel",
                "scheme",
                "uniform-probe speedups within",
                12..=usize::MAX,
            ),
            ("batch", "REINDEX", "batched probes never slower", 2..=2),
            ("filter", "REINDEX", "answers byte-identical", 2..=2),
            (
                "obs",
                "baseline",
                "tracing + flight recorder + SLOs within",
                0..=0,
            ),
            ("ingest", "DEL", "buffered never slower", 6..=6),
            (
                "chaos",
                "REINDEX",
                "matched the single-threaded oracle",
                2..=2,
            ),
        ];
        assert_eq!(
            expect.clone().map(|e| e.0),
            wave_bench::SUITES.map(|(name, _)| name),
            "one expectation per suite"
        );
        let dir = temp_dir();
        let d = dir.to_str().unwrap();
        for (suite, word, verdict, cases) in expect {
            let out = run(&s(&["bench", suite, "--smoke", "--out-dir", d])).unwrap();
            assert!(out.contains(word), "{suite}: {out}");
            assert!(out.contains(verdict), "{suite}: {out}");
            let path = dir.join(format!("BENCH_{suite}.json"));
            assert!(out.contains(&format!("wrote {}", path.display())), "{out}");
            let doc = fs::read_to_string(&path).unwrap();
            let schema = format!("\"schema\":\"wave-bench/{suite}/v1\"");
            assert!(doc.contains(&schema), "{suite}: {doc}");
            let found = bench_cases(&doc).len();
            assert!(cases.contains(&found), "{suite}: {found} cases");
            if suite == "obs" {
                let map = parse_flat(&doc).expect("BENCH_obs.json is flat JSON");
                for key in ["baseline_us", "traced_us", "overhead", "traces_completed"] {
                    assert!(map.contains_key(key), "{key} missing: {doc}");
                }
            }
            let err = run(&s(&["bench", suite, "--bogus"])).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{suite}: {err}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// One front end: `all` writes every suite's document, an unknown
    /// suite or a missing one is a usage error naming the six, and the
    /// old per-suite commands are gone, not aliased.
    #[test]
    fn bench_all_runs_every_suite_and_old_spellings_are_gone() {
        let dir = temp_dir().join("nested");
        let out = run(&s(&[
            "bench",
            "all",
            "--smoke",
            "--out-dir",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let written: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(written.len(), 6, "{written:?}");
        for (suite, _) in wave_bench::SUITES {
            let file = format!("BENCH_{suite}.json");
            assert!(written.contains(&file), "{file} missing: {written:?}");
            assert!(out.contains(&file), "{out}");
        }

        for args in [&["bench", "warp"][..], &["bench"], &["bench", "--smoke"]] {
            let err = run(&s(args)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err}");
            for (suite, _) in wave_bench::SUITES {
                assert!(err.to_string().contains(suite), "{args:?}: {err}");
            }
        }
        let err = run(&s(&["bench", "batch", "--out-dir"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        for old in ["bench-batch", "bench-parallel", "chaos"] {
            let err = run(&s(&[old, "--smoke"])).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{old}: {err}");
            assert!(err.to_string().contains("unknown command"), "{old}: {err}");
        }
        fs::remove_dir_all(dir.parent().unwrap()).ok();
    }

    /// A failed bound keeps the table it failed on: the failure
    /// variant carries every row, the `wrote` line and the violation,
    /// and the document is on disk before the error is returned.
    #[test]
    fn failed_bench_bound_still_reports_its_table() {
        use wave_bench::suite::{Report, Row, Show};
        let row = |scheme, speedup| {
            Row::new()
                .str(Show::Table, "scheme", scheme)
                .f64(Show::Table, "speedup", speedup)
        };
        let mut report = Report {
            head: Row::new().str(Show::Json, "schema", "wave-bench/demo/v1"),
            cases: Some(vec![row("REINDEX", 2.5), row("WATA*", 0.5)]),
            violations: Vec::new(),
            pass: "every scheme at least 1.0x".to_string(),
        };
        let dir = temp_dir();
        let passed = emit_bench("demo", &report, &dir).unwrap();
        assert!(passed.contains("every scheme at least 1.0x"), "{passed}");

        report.violations.push("WATA*: only 0.50x".to_string());
        let err = emit_bench("demo", &report, &dir).unwrap_err();
        let CliError::Failed("bench", block) = err else {
            panic!("expected the report-carrying failure, got {err}");
        };
        for needle in ["REINDEX", "WATA*", "2.500", "wrote ", "WATA*: only 0.50x"] {
            assert!(block.contains(needle), "{needle} missing:\n{block}");
        }
        assert!(!block.contains("every scheme at least 1.0x"), "{block}");
        let doc = fs::read_to_string(dir.join("BENCH_demo.json")).unwrap();
        assert_eq!(bench_cases(&doc).len(), 2, "{doc}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn status_before_window_reports_progress() {
        let dir = temp_dir();
        let d = dir.to_str().unwrap();
        run(&s(&[
            "init", d, "--scheme", "reindex", "--window", "4", "--fan", "2",
        ]))
        .unwrap();
        add_day(&dir, "1 word\n");
        let out = run(&s(&["status", d])).unwrap();
        assert!(out.contains("collecting start-up days (1/4)"), "{out}");
        fs::remove_dir_all(&dir).ok();
    }
}
