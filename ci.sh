#!/usr/bin/env bash
# Offline CI gate: format, lint, test. The workspace has zero external
# dependencies, so --offline must always succeed; a build that needs the
# network is itself a CI failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# The in-repo static analyzer: panic-free serving paths, deterministic
# core, derived lock order, audited unsafe, span coverage, and the
# call-graph dataflow rules (flush-before-commit, settle-exactly-once,
# counter-registry, waiver-hygiene) — all ratcheted against the
# committed lint-baseline.toml. Fails on any growth (new debt) or
# shrinkage (stale baseline: run `wavectl lint --fix-baseline` to lock
# the improvement in). `--json` emits the stable wave-lint/v2 report
# with per-rule pass/fail so CI logs show exactly which rule moved.
echo "==> wavectl lint"
cargo run -q --release --offline -p wavectl -- lint
cargo run -q --release --offline -p wavectl -- lint --json \
  > target/LINT_report.json

# The generated metric/span registry (crates/obs/src/names.rs) must
# match the instrument call sites: a rename that skips
# `wavectl lint --write-registry` fails here.
echo "==> wavectl lint --check-registry"
cargo run -q --release --offline -p wavectl -- lint --check-registry

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo test"
cargo test -q --workspace --offline

# The crash-consistency acceptance gate, run explicitly so a filter or
# partial run can never silently skip it: every scheme x technique x
# crash mode, crashing a commit at every operation, must recover to an
# oracle-exact wave with zero orphans.
echo "==> crash-point explorer"
cargo test -q -p wave-index --test crash_recovery --offline

# The incremental-commit gates, named for the same reason: after every
# commit of every scheme x technique x ingest on/off, the store must
# equal a from-scratch commit of the same wave (this is what catches a
# mutator that forgot to drop its constituent's durable marker), and a
# swapped or stale file of the right name, length and label must fail
# the manifest's per-file checksum in `load_committed` and `fsck`.
echo "==> incremental commit == from-scratch commit"
cargo test -q -p wave-index --test incremental_commit --offline \
  incremental_commit_equals_from_scratch_commit
echo "==> swapped and stale files fail the manifest checksum"
cargo test -q -p wave-index --test incremental_commit --offline \
  swapped_or_stale_files_fail_the_manifest_checksum

# The parallel-engine gates, also named explicitly: readers racing
# epoch-committing maintenance must always see a committed epoch, and
# the measured multi-arm speedups must track the analytic predictions
# (--smoke keeps the sweep CI-sized; the full sweep is
# `wavectl bench-parallel`).
echo "==> concurrency stress"
cargo test -q -p wave-index --test concurrent_stress --offline

echo "==> bench-parallel --smoke"
cargo run -q --release --offline -p wavectl -- bench-parallel --smoke \
  --out target/BENCH_parallel_smoke.json >/dev/null

# The batched-I/O gates: the elevator scheduler must stay byte-exact
# and never cost more than naive request order, batched probes must
# match per-value probes everywhere (index and server), and the
# bulk-build/query-batch sweep must hold its speedup bounds (--smoke
# keeps it CI-sized; the full sweep is `wavectl bench-batch`).
echo "==> I/O scheduler property tests"
cargo test -q -p wave-storage --offline sched::
echo "==> batched query equivalence"
cargo test -q -p wave-index --offline query_batch
# Every reader (WaveIndex, parallel, SharedWave, WaveServer on 1 and
# 3+1 arms) against an index-free model on random dirty waves, plus
# the pruning-counts-once-under-retry regression; named so a filter
# can never skip it.
echo "==> read path: every reader matches the model"
cargo test -q -p wave-index --test read_path --offline

echo "==> bench-batch --smoke"
cargo run -q --release --offline -p wavectl -- bench-batch --smoke \
  --out target/BENCH_batch_smoke.json >/dev/null

# The probe-pruning gates (DESIGN.md §14): filters and covering
# buckets must stay byte-identical to the unfiltered paths on every
# scheme, a torn or deleted filter sidecar must be rebuilt by
# `recover` from the constituent alone, and the Zipf sweep must hold
# its seek-reduction and false-positive bounds (--smoke keeps it
# CI-sized; the full sweep is `wavectl bench-filter`).
echo "==> filter byte-identity sweep"
cargo test -q -p wave-index --test filter_pruning --offline
echo "==> filter sidecar rebuild"
cargo test -q -p wave-index --test crash_recovery --offline \
  torn_filter_sidecars_are_rebuilt_by_recover

echo "==> bench-filter --smoke"
cargo run -q --release --offline -p wavectl -- bench-filter --smoke \
  --out target/BENCH_filter_smoke.json >/dev/null

# The observability gates (DESIGN.md §12): every request reconstructs
# into a single-rooted causal tree, the flight recorder promotes
# exactly the injected slow scan and erroring maintenance call, and
# the always-on tracing layer stays within its wall-clock overhead
# bound (--smoke proves the machinery; the committed BENCH_obs.json
# pins the 5% number from the full `wavectl bench-obs` run).
echo "==> trace-tree reconstruction"
cargo test -q -p wavectl --offline trace_tree_reconstructs_driver_traces
echo "==> flight-recorder promotion"
cargo test -q -p wavectl --offline \
  flight_dump_promotes_slow_and_erroring_traces_and_trees_are_rooted

echo "==> bench-obs --smoke"
cargo run -q --release --offline -p wavectl -- bench-obs --smoke \
  --out target/BENCH_obs_smoke.json >/dev/null

# The buffered-ingest gates (DESIGN.md "Buffered ingest"): reads over
# dirty buffers must stay byte-identical to the unbuffered twin on
# every scheme x technique, dirty-buffer commits must survive the
# crash-point explorer, and the amortized-write sweep must hold its
# DEL speedup bound (--smoke keeps it CI-sized; the full sweep is
# `wavectl bench-ingest`).
echo "==> buffered-ingest byte-identity"
cargo test -q -p wave-index --test ingest_buffering --offline
echo "==> dirty-buffer crash points"
cargo test -q -p wave-index --test crash_recovery --offline \
  dirty_buffer_crash_points_recover_to_pre_or_post_state

echo "==> bench-ingest --smoke"
cargo run -q --release --offline -p wavectl -- bench-ingest --smoke \
  --out target/BENCH_ingest_smoke.json >/dev/null

# The fault-tolerance gates (DESIGN.md §13): recovery racing a
# degraded server must heal, and the chaos soak — killed workers,
# transient-read bursts, quarantines, racing maintenance — must keep
# every completed answer byte-identical to the single-threaded oracle
# and shut down leak-free (--smoke keeps it CI-sized; the full soak
# is `wavectl chaos`).
echo "==> degraded serving under recovery"
cargo test -q -p wave-index --test degraded_serving --offline

echo "==> chaos --smoke"
cargo run -q --release --offline -p wavectl -- chaos --smoke \
  --out target/BENCH_chaos_smoke.json >/dev/null

# Optional sanitizer pass: Miri catches UB the tests cannot. It needs
# a nightly toolchain with the miri component, which the offline CI
# image may not have — skip cleanly when absent rather than failing.
if rustup toolchain list 2>/dev/null | grep -q nightly \
  && rustup component list --toolchain nightly 2>/dev/null \
    | grep -q "miri.*(installed)"; then
  echo "==> cargo miri (wave-lint unit tests)"
  cargo +nightly miri test -q -p wave-lint --offline
else
  echo "==> cargo miri: skipped (no nightly+miri toolchain installed)"
fi

echo "CI OK"
