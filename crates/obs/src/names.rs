//! Machine-written registry of every literal metric and span name
//! the engine emits. Regenerate with `wavectl lint --write-registry`;
//! CI fails when this file is out of date (`--check-registry`).
//!
//! `wavectl report` derives its counter groups from these lists, and
//! the `counter-registry` lint rule rejects any instrument call site
//! whose literal name is missing here — so a rename must touch the
//! emitting code and this file in the same commit. Names built at
//! runtime (`format!("server.arm{i}.…")`) are intentionally absent.

/// Every literal counter name.
#[rustfmt::skip]
pub const COUNTERS: &[&str] = &[
    "alloc.allocs",
    "alloc.frees",
    "cache.evictions",
    "cache.hits",
    "cache.misses",
    "disk.blocks_read",
    "disk.blocks_written",
    "disk.seeks",
    "driver.days",
    "filter.arm_elisions",
    "filter.checks",
    "filter.covering_hits",
    "filter.false_positives",
    "filter.skips",
    "fsck.checksum_failures",
    "fsck.files_scanned",
    "ingest.buffered_adds",
    "ingest.buffered_deletes",
    "ingest.log_replays",
    "ingest.log_writes",
    "ingest.spilled_entries",
    "ingest.spills",
    "persist.bytes_written",
    "persist.commits",
    "persist.files_reused",
    "recover.filter_rebuilds",
    "recover.orphans_removed",
    "recover.quarantines",
    "recover.rebuilds",
    "recover.rollbacks",
    "sched.bulk_pages",
    "sched.merged",
    "sched.requests",
    "sched.seeks_saved",
    "server.breaker_trips",
    "server.degraded_queries",
    "server.queries",
    "server.read_retries",
    "server.worker_restarts",
    "shared.read_retries",
    "store.retry_attempts",
];

/// Every literal gauge name.
#[rustfmt::skip]
pub const GAUGES: &[&str] = &[
    "alloc.free_fragments",
    "alloc.live_blocks",
];

/// Every literal histogram name.
#[rustfmt::skip]
pub const HISTOGRAMS: &[&str] = &[
    "alloc.extent_blocks",
    "dir.probe_depth",
    "disk.seek_distance",
    "query.sim_micros",
];

/// Every literal span name.
#[rustfmt::skip]
pub const SPANS: &[&str] = &[
    "commit_wave",
    "day",
    "ingest.spill",
    "recover",
    "sched.read_batch",
    "server.degraded_query",
    "server.install",
    "server.maintain",
    "server.query",
    "server.query_batch",
    "server.restart_worker",
    "shared.probe",
    "shared.query_batch",
    "shared.scan",
    "start",
];
