#!/usr/bin/env bash
# Offline CI gate: format, lint, test. The workspace has zero external
# dependencies, so --offline must always succeed; a build that needs the
# network is itself a CI failure.
set -euo pipefail
cd "$(dirname "$0")"

# Builds one test binary and runs it alone, back to back, failing on
# the first failed run with that run's output. A test whose harness is
# paced or median-of-pairs must pass every time, so a failure here is a
# bug, not bad luck.
#   repeat_test_binary TIMES STEM CARGO_TEST_ARGS...
# STEM is the binary's file name before cargo's `-<hash>` suffix.
repeat_test_binary() {
  local times=$1 stem=$2
  shift 2
  local bin
  bin=$(cargo test -q --offline "$@" --no-run --message-format=json 2>/dev/null \
    | sed -n "s/.*\"executable\":\"\([^\"]*\/$stem-[^\"]*\)\".*/\1/p" | tail -n 1)
  if [ -z "$bin" ]; then
    echo "$stem: test binary not found" >&2
    exit 1
  fi
  for run in $(seq 1 "$times"); do
    "$bin" -q > "target/$stem.repeat.out" 2>&1 || {
      cat "target/$stem.repeat.out" >&2
      echo "$stem failed on repeat $run of $times" >&2
      exit 1
    }
  done
}

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

# `benchmark/` is a package of its own (the wall-clock benchmark) that
# calls the engine's public API; an engine change must keep it
# compiling without editing it.
echo "==> benchmark/ compiles against the engine"
cargo build --release --offline --manifest-path benchmark/Cargo.toml

# Its smoke run (~1.5 s) checks every answer of the four workloads —
# probes, batches and scans — against the benchmark's own oracle. Each
# workload ends with one JSON line; all four must say `"correct": true`
# with no failed op.
echo "==> benchmark/ smoke run matches its oracle"
cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
  run --smoke > target/BENCH_smoke.out || {
  cat target/BENCH_smoke.out >&2
  exit 1
}
reported=$(grep -c '^{"correct": ' target/BENCH_smoke.out || true)
passed=$(grep -c '^{"correct": true, "attempted": [0-9]*, "failed": 0,' \
  target/BENCH_smoke.out || true)
if [ "$reported" -ne 4 ] || [ "$passed" -ne 4 ]; then
  grep '^{"correct": ' target/BENCH_smoke.out >&2 || true
  echo "benchmark smoke: $passed of $reported workloads correct with" \
    "no failed op; want 4 of 4" >&2
  exit 1
fi

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

# The parallel-engine gate, also named explicitly: readers racing
# epoch-committing maintenance must always see a committed epoch (the
# measured multi-arm speedups are the `parallel` suite below).
echo "==> concurrency stress"
cargo test -q -p wave-index --test concurrent_stress --offline

# The batched-I/O gates: the elevator scheduler must stay byte-exact
# and never cost more than naive request order, and batched probes
# must match per-value probes everywhere (index and server); the
# bulk-build/query-batch speedup bounds are the `batch` suite below.
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

# The probe-pruning gates (DESIGN.md §14): filters and covering
# buckets must stay byte-identical to the unfiltered paths on every
# scheme, and a torn or deleted filter sidecar must be rebuilt by
# `recover` from the constituent alone; the seek-reduction and
# false-positive bounds are the `filter` suite below.
echo "==> filter byte-identity sweep"
cargo test -q -p wave-index --test filter_pruning --offline
echo "==> filter sidecar rebuild"
cargo test -q -p wave-index --test crash_recovery --offline \
  torn_filter_sidecars_are_rebuilt_by_recover

# The observability gates (DESIGN.md §12): every request reconstructs
# into a single-rooted causal tree, and the flight recorder promotes
# exactly the injected slow scan and erroring maintenance call; the
# wall-clock overhead bound is the `obs` suite below (--smoke proves
# the machinery; the committed BENCH_obs.json pins the 5% number from
# the full run).
echo "==> trace-tree reconstruction"
cargo test -q -p wavectl --offline trace_tree_reconstructs_driver_traces
echo "==> flight-recorder promotion"
cargo test -q -p wavectl --offline \
  flight_dump_promotes_slow_and_erroring_traces_and_trees_are_rooted

# The buffered-ingest gates (DESIGN.md "Buffered ingest"): reads over
# dirty buffers must stay byte-identical to the unbuffered twin on
# every scheme x technique, and dirty-buffer commits must survive the
# crash-point explorer; the DEL speedup bound is the `ingest` suite
# below.
echo "==> buffered-ingest byte-identity"
cargo test -q -p wave-index --test ingest_buffering --offline
echo "==> dirty-buffer crash points"
cargo test -q -p wave-index --test crash_recovery --offline \
  dirty_buffer_crash_points_recover_to_pre_or_post_state

# The fault-tolerance gate (DESIGN.md §13): recovery racing a degraded
# server must heal; the soak — bursts that fail maintenance builds,
# transient-read bursts, quarantines, racing maintenance, every
# completed answer checked against the single-threaded oracle,
# leak-free shutdown — is the `chaos` suite below.
echo "==> degraded serving under recovery"
cargo test -q -p wave-index --test degraded_serving --offline
# Its harness is paced by reader progress, so it must pass every time.
echo "==> degraded serving, 50 repeats"
repeat_test_binary 50 degraded_serving -p wave-index --test degraded_serving
# The server's own unit tests — failed builds that change no route,
# the breaker state machine, retry and quarantine, settle balance —
# named so a filter can never skip them.
echo "==> server unit tests"
cargo test -q -p wave-index --lib --offline server::tests
# The wave-bench lib tests hold the chaos soak, whose injector and
# maintenance are paced by reader progress, and the `obs` smoke suite,
# whose overhead bound reads the median-ratio pair; both must pass
# every time.
echo "==> wave-bench lib tests, 20 repeats"
repeat_test_binary 20 wave_bench -p wave-bench --lib
# The wavectl lib tests run every suite's smoke preset, `obs`
# included, through the CLI.
echo "==> wavectl lib tests, 20 repeats"
repeat_test_binary 20 wavectl -p wavectl --lib

# Every evaluation suite at its CI-sized preset. Each states a bound
# and a violated one fails the run after printing its table, so a red
# build shows the row that moved.
echo "==> wavectl bench all --smoke"
cargo run -q --release --offline -p wavectl -- bench all --smoke \
  --out-dir target/bench_smoke

# The committed baselines cannot go stale: the four deterministic
# suites run in full (~3 s) and must reproduce BENCH_<suite>.json byte
# for byte. BENCH_obs.json is wall-clock, and BENCH_commit.json and
# BENCH_readpath.json record benchmark/ pair runs, so none is compared.
echo "==> committed BENCH_*.json are current"
for suite in parallel batch filter ingest; do
  cargo run -q --release --offline -p wavectl -- bench "$suite" \
    --out-dir target/bench_full
  cmp "target/bench_full/BENCH_$suite.json" "BENCH_$suite.json" || {
    echo "BENCH_$suite.json is stale: regenerate with" \
      "\`wavectl bench $suite\` and commit" >&2
    exit 1
  }
done

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
