//! # wave-bench
//!
//! The paper's evaluation (Section 6), regenerated and extended.
//!
//! * **Tables and figures** — each `src/bin/*.rs` binary prints one
//!   artefact. The model figures (3-10, one `figures` binary) come from
//!   the analytic cost model with the paper's Table 12 constants, like
//!   the paper itself; the simulation figures (2, 11, and the
//!   `model_vs_sim` check) are measured by running the real schemes on
//!   generated workloads over the simulated disk.
//! * **Suites** — [`suite::SUITES`] lists the six sweeps behind
//!   `wavectl bench <suite|all>`. Each suite module owns its presets,
//!   its sweep and its bound; [`suite::Report`] is the one place the
//!   `BENCH_<suite>.json` envelope and the console table are spelled.
//!
//! Wall-clock cost per layer on real workloads is `benchmark/`'s job
//! (see `benchmark/README.md`), not this crate's.

pub mod batch;
pub mod chaos;
pub mod filter;
pub mod ingest;
pub mod obs;
pub mod parallel;
pub mod render;
pub mod sim;
pub mod suite;

pub use batch::{BatchResult, BatchSweep};
pub use chaos::{run_soak, ChaosReport, ChaosSoak};
pub use filter::{FilterResult, FilterSweep};
pub use ingest::{IngestResult, IngestSweep};
pub use obs::{ObsResult, ObsSweep};
pub use parallel::{run_sweep, MixResult, ParallelSweep};
pub use render::{render_figure, write_figure_csv};
pub use sim::{simulate_case, SimCase, SimOutcome};
pub use suite::{Report, Suite, SUITES};
