#!/usr/bin/env bash
# Checks the benchmark package itself: formatting, lints, the harness
# unit tests and a smoke run of every workload. The repository's ci.sh
# covers the root workspace; this package is outside it on purpose.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
cargo run --release --offline --quiet -- run --smoke --trace
