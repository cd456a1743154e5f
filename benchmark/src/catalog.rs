//! Names, units and directions of every metric, in output order.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a
//! test below keeps the two from drifting apart.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric's fixed description.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before `compare` calls it worse (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics: what a user of the system sees.
pub const END_TO_END: [Metric; 15] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("probe_ops_per_s", "1/s", Higher, 0.25),
    e2e("probe_p50_us", "us", Lower, 0.25),
    e2e("probe_p99_us", "us", Lower, 0.25),
    e2e("batch_values_per_s", "1/s", Higher, 0.25),
    e2e("scan_entries_per_s", "1/s", Higher, 0.25),
    e2e("transition_p50_ms", "ms", Lower, 0.25),
    e2e("transition_p90_ms", "ms", Lower, 0.25),
    e2e("ingest_entries_per_s", "1/s", Higher, 0.25),
    e2e("commit_p50_ms", "ms", Lower, 0.25),
    e2e("reopen_s", "s", Lower, 0.25),
    e2e("sim_work_s_per_day", "sim-s", Lower, 0.10),
    e2e("peak_space_bytes_per_entry", "B", Lower, 0.05),
    e2e("store_bytes_per_entry", "B", Lower, 0.05),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
];

/// The per-layer metrics: one layer's work, time or waste each.
pub const PER_LAYER: [Metric; 85] = [
    layer("disk.seeks_per_probe", "count", Lower),
    layer("disk.blocks_read_per_probe", "count", Lower),
    layer("disk.blocks_written_per_entry", "count", Lower),
    layer("disk.read_us", "us", Lower),
    layer("disk.write_mb_per_s", "MiB/s", Higher),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("cache.evictions_per_probe", "count", Lower),
    layer("alloc.ops_per_day", "count", Lower),
    layer("alloc.free_fragments_end", "count", Lower),
    layer("alloc.alloc_us", "us", Lower),
    layer("sched.read_batch_us_per_request", "us", Lower),
    layer("sched.merge_ratio", "ratio", Higher),
    layer("sched.seeks_saved_per_batch", "count", Higher),
    layer("sched.flush_mb_per_s", "MiB/s", Higher),
    layer("file.puts_per_commit", "count", Lower),
    layer("file.bytes_per_commit", "B", Lower),
    layer("file.put_ms_per_mb", "ms/MiB", Lower),
    layer("file.get_ms_per_mb", "ms/MiB", Lower),
    layer("file.busy_share_of_commit", "ratio", Lower),
    layer("checksum.crc64_mb_per_s", "MiB/s", Higher),
    layer("directory.get_ns", "ns", Lower),
    layer("directory.get_miss_ns", "ns", Lower),
    layer("directory.probe_depth_mean", "count", Lower),
    layer("directory.insert_ns", "ns", Lower),
    layer("directory.from_sorted_ns_per_key", "ns", Lower),
    layer("filter.may_contain_ns", "ns", Lower),
    layer("filter.skip_ratio", "ratio", Higher),
    layer("filter.false_positive_ratio", "ratio", Lower),
    layer("filter.build_ns_per_value", "ns", Lower),
    layer("filter.bytes_per_value", "B", Lower),
    layer("ingest.buffer_update_ns_per_entry", "ns", Lower),
    layer("ingest.overlay_ns_per_probe", "ns", Lower),
    layer("ingest.spill_ms", "ms", Lower),
    layer("ingest.spills_per_day", "count", Lower),
    layer("ingest.entries_per_spill", "count", Higher),
    layer("ingest.pending_entries_mean", "count", Lower),
    layer("ingest.log_bytes_per_commit", "B", Lower),
    layer("index.build_packed_ns_per_entry", "ns", Lower),
    layer("index.add_in_place_ns_per_entry", "ns", Lower),
    layer("index.delete_in_place_ns_per_entry", "ns", Lower),
    layer("index.clone_shadow_ms", "ms", Lower),
    layer("index.prune_probe_ns", "ns", Lower),
    layer("index.probe_hit_us", "us", Lower),
    layer("index.probe_ns_per_entry", "ns", Lower),
    layer("index.scan_ns_per_entry", "ns", Lower),
    layer("index.probe_self_us", "us", Lower),
    layer("update.in_place_ms_per_day", "ms", Lower),
    layer("update.simple_shadow_ms_per_day", "ms", Lower),
    layer("update.packed_shadow_ms_per_day", "ms", Lower),
    layer("schemes.transition_ms.del", "ms", Lower),
    layer("schemes.transition_ms.reindex", "ms", Lower),
    layer("schemes.transition_ms.reindex_plus", "ms", Lower),
    layer("schemes.transition_ms.reindex_plus_plus", "ms", Lower),
    layer("schemes.transition_ms.wata", "ms", Lower),
    layer("schemes.transition_ms.rata", "ms", Lower),
    layer("wave.probe_self_us", "us", Lower),
    layer("wave.query_batch_us_per_value", "us", Lower),
    layer("wave.indexes_accessed_per_probe", "count", Lower),
    layer("wave.scan_self_ns_per_entry", "ns", Lower),
    layer("concurrent.probe_us", "us", Lower),
    layer("concurrent.overhead_us", "us", Lower),
    layer("server.probe_us", "us", Lower),
    layer("server.overhead_us", "us", Lower),
    layer("server.query_batch_us_per_value", "us", Lower),
    layer("server.install_ms", "ms", Lower),
    layer("server.maintain_ms", "ms", Lower),
    layer("server.arm_elision_ratio", "ratio", Higher),
    layer("server.sim_speedup_mean", "ratio", Higher),
    layer("server.worker_restarts", "count", Lower),
    layer("server.read_retries", "count", Lower),
    layer("server.degraded_queries", "count", Lower),
    layer("persist.encode_ns_per_entry", "ns", Lower),
    layer("persist.decode_ns_per_entry", "ns", Lower),
    layer("persist.commit_self_ms", "ms", Lower),
    layer("persist.commit_bytes_per_changed_entry", "B", Lower),
    layer("persist.manifest_us", "us", Lower),
    layer("persist.retry_attempts", "count", Lower),
    layer("recovery.fsck_ms", "ms", Lower),
    layer("recovery.recover_ms", "ms", Lower),
    layer("recovery.rebuilds", "count", Lower),
    layer("recovery.filter_rebuilds", "count", Lower),
    layer("workloads.gen_entries_per_s", "1/s", Higher),
    layer("obs.trace_overhead_share", "ratio", Lower),
    layer("trace.rounds", "count", Higher),
    layer("trace.spans", "count", Lower),
];

/// The metric named `name`, from either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Pairs measured `values` with their catalog entries, failing when
/// the names or their order differ from `table` — a run that drops or
/// renames a metric must not pass silently.
pub fn bind(
    table: &'static [Metric],
    values: &[(&'static str, f64)],
) -> Result<Vec<(&'static Metric, f64)>, String> {
    if table.len() != values.len() {
        return Err(format!(
            "run produced {} metrics, catalog lists {}",
            values.len(),
            table.len()
        ));
    }
    table
        .iter()
        .zip(values)
        .map(|(m, (name, v))| {
            if m.name == *name {
                Ok((m, *v))
            } else {
                Err(format!(
                    "run produced {name} where catalog lists {}",
                    m.name
                ))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(find("setup_s").is_some() && find("nope").is_none());
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repo root");
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name,
                m.unit,
                match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                }
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
            if let Some(b) = m.bound {
                assert!(
                    text.contains(&format!("{entry}, \"bound\": {b}}}")),
                    "BENCHMARK.json has another bound for {}",
                    m.name
                );
            }
        }
        let listed = text.matches("{\"name\": ").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + 4);
    }

    #[test]
    fn bind_rejects_missing_and_misnamed_metrics() {
        let values: Vec<(&'static str, f64)> = END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
        assert_eq!(bind(&END_TO_END, &values).unwrap().len(), 15);
        assert!(bind(&END_TO_END, &values[1..]).is_err());
        let mut renamed = values.clone();
        renamed[3].0 = "probe_p95_us";
        assert!(bind(&END_TO_END, &renamed).is_err());
    }
}
