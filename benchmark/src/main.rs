//! `wave-benchmark` — the repository's wall-clock lifecycle benchmark.
//!
//! ```text
//! wave-benchmark run [--workload NAME] [--seed N] [--seconds S]
//!                    [--trace [0|1]] [--smoke] [--rounds N] [--out FILE]
//! wave-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! `run --workload NAME` runs one workload in this process and prints
//! every metric by name with its unit; its last line of standard
//! output is the one JSON object `BENCHMARK.json`'s contract asks for.
//! Without `--workload` it runs every workload, each in a fresh child
//! process (so `peak_rss_mb` is that workload's own). See `README.md`.

mod catalog;
mod compare;
mod engine;
mod layers;
mod run;
mod spans;
mod stats;
mod store;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use wave_obs::json::{escape_into, push_f64, JsonObject};

use crate::catalog::Metric;
use crate::run::{Options, Outcome};

/// Seconds a run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Share of the `--seconds` budget a traced run spends in day-rounds;
/// the rest pays for the side bench and the micro-runs, so traced and
/// untraced runs take about as long.
const TRACED_ROUND_SHARE: f64 = 0.6;

/// The benchmark's own directory: where `cargo run` says the manifest
/// is, else where it was when this binary was built.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// Scratch directory of one run, under `benchmark/target/`.
fn scratch_dir(tag: &str) -> PathBuf {
    package_dir()
        .join("target")
        .join("runs")
        .join(format!("{tag}-{}", std::process::id()))
}

#[derive(Debug, Default)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    rounds: Option<usize>,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        ..RunArgs::default()
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--rounds" => {
                parsed.rounds = Some(
                    value("--rounds")?
                        .parse()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or("--rounds takes a positive whole number")?,
                );
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => parsed.smoke = true,
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// The contract's result line: `correct`, `attempted`, `failed` and
/// `metrics` (name -> value and unit).
fn result_line(out: &Outcome, metrics: &[(&'static Metric, f64)]) -> String {
    let mut s = String::from("{\"correct\": ");
    s.push_str(if out.failed == 0 { "true" } else { "false" });
    s.push_str(&format!(
        ", \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    ));
    for (i, (m, v)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        escape_into(&mut s, m.name);
        s.push_str(": {\"value\": ");
        push_f64(&mut s, *v);
        s.push_str(", \"unit\": ");
        escape_into(&mut s, m.unit);
        s.push('}');
    }
    s.push_str("}}");
    s
}

/// One flat JSON row per metric, for `--out` and `compare`.
fn rows(
    workload: &str,
    args: &RunArgs,
    out: &Outcome,
    kind: &str,
    metrics: &[(&'static Metric, f64)],
) -> Vec<String> {
    let mut lines: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            let mut o = JsonObject::new();
            o.str("workload", workload)
                .str("kind", kind)
                .str("metric", m.name)
                .f64("value", *v)
                .str("unit", m.unit)
                .u64("seed", args.seed)
                .u64("rounds", out.rounds as u64);
            o.finish()
        })
        .collect();
    // Exact facts of the run: equal for equal seed and round count.
    for (name, value) in [
        ("ops_attempted", out.attempted.to_string()),
        ("ops_failed", out.failed.to_string()),
        ("answer_digest", format!("{:016x}", out.digest)),
    ] {
        let mut o = JsonObject::new();
        o.str("workload", workload)
            .str("kind", &format!("{kind}.exact"))
            .str("metric", name)
            .str("text", &value)
            .u64("seed", args.seed)
            .u64("rounds", out.rounds as u64);
        lines.push(o.finish());
    }
    lines
}

fn run_one(name: &str, args: &RunArgs) -> Result<bool, String> {
    let spec = workload::spec(name).ok_or_else(|| {
        format!(
            "unknown workload {name}; the workloads are {}",
            workload::NAMES.join(", ")
        )
    })?;
    let core = pin_to_one_core();
    let scratch = scratch_dir(name);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let opts = Options {
        seed: args.seed,
        seconds: if args.trace {
            args.seconds * TRACED_ROUND_SHARE
        } else {
            args.seconds
        },
        rounds: args.rounds,
        trace: args.trace,
        smoke: args.smoke,
        scratch: scratch.clone(),
    };
    let outcome = run::run_workload(&spec, &opts);
    // Traces stay for reading; everything else of the run goes.
    if !args.trace {
        let _ = std::fs::remove_dir_all(&scratch);
    }
    let out = outcome?;
    let (kind, metrics) = if args.trace {
        (
            "per_layer",
            catalog::bind(&catalog::PER_LAYER, &out.per_layer)?,
        )
    } else {
        (
            "end_to_end",
            catalog::bind(&catalog::END_TO_END, &out.end_to_end)?,
        )
    };

    println!(
        "workload {name}  seed {}  rounds {}  {}  {}",
        args.seed,
        out.rounds,
        if args.trace { "traced" } else { "untraced" },
        core.map_or("not pinned".to_string(), |c| format!("on core {c}"))
    );
    for (m, v) in &metrics {
        println!("  {:<44} {:>16.4} {}", m.name, v, m.unit);
    }
    println!(
        "  ops_attempted {}  ops_failed {}  probe_samples {}  answer_digest {:016x}",
        out.attempted, out.failed, out.probe_samples, out.digest
    );
    for (phase, (chosen, scaled)) in ["transitions", "probe phases", "batch and scan phases"]
        .iter()
        .zip(out.chosen_rounds)
    {
        println!(
            "  {phase}: medians over {chosen} of {} rounds, {scaled} of them scaled to the quiet box",
            out.rounds
        );
    }
    if let Some((p, us)) = out.probe_tail {
        println!("  probe tail: p{p} = {us:.3} us is the highest percentile with >= 10 samples beyond it");
    }
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    if args.trace {
        println!(
            "  trace: {}",
            scratch.join(format!("trace-{name}.jsonl")).display()
        );
    }
    if let Some(path) = &args.out {
        let mut text = rows(name, args, &out, kind, &metrics).join("\n");
        text.push('\n');
        use std::io::Write;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(text.as_bytes()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result_line(&out, &metrics));
    Ok(out.failed == 0)
}

/// Marks a process as a workload's own child: it runs the workload
/// instead of spawning again.
const CHILD_ENV: &str = "WAVE_BENCHMARK_CHILD";

/// glibc malloc policy every workload process runs under. Left alone,
/// malloc moves its mmap threshold with the allocation history, and a
/// run lands in one of two regimes (big answer vectors mapped and
/// unmapped on every query, or reused from the heap): on `tpcd_rebuild`
/// `scan_entries_per_s` swung 60% between seeds. Fixing the threshold
/// and never trimming the heap makes page-fault cost the same on every
/// run and on both sides of a comparison.
const ALLOCATOR_ENV: [(&str, &str); 3] = [
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
    ("MALLOC_TRIM_THRESHOLD_", "17179869184"),
    ("MALLOC_TOP_PAD_", "67108864"),
];

#[cfg(target_os = "linux")]
extern "C" {
    /// `sched_setaffinity(2)` of the C library every Rust program on
    /// Linux links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins this process, and every thread it starts from here on, to the
/// last core it may run on. The sandbox's two cores are not two
/// independent processors. With a busy loop on the other core the
/// share of slow calibration samples (see `run::Calibrator`) rose from
/// 0.13 to 0.68; and `server_mixed`, whose client and workers the
/// kernel spreads over both, has two modes that each last for minutes:
/// `probe_p50_us` read 43.9 us in one run and 92 to 130 us in the next
/// nine. On one core it read 46.0 to 51.1 us in six runs in a row. So
/// one workload gets one core: its threads take turns there, and what
/// a wake-up across cores costs this hour stays out of the numbers.
/// Returns the core, or `None` where the process could not be pinned
/// (it then runs wherever the kernel puts it).
fn pin_to_one_core() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let allowed = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
        let core: usize = allowed.trim().rsplit([',', '-']).next()?.parse().ok()?;
        let mut mask = [0u64; 16];
        *mask.get_mut(core / 64)? |= 1 << (core % 64);
        // SAFETY: `mask` is a live, aligned buffer of the size passed
        // with it, which the call only reads; pid 0 names the caller.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        (rc == 0).then_some(core)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Runs `run <args>` in a fresh child process under [`ALLOCATOR_ENV`],
/// so `peak_rss_mb` is the workload's own; the child inherits standard
/// output, so its result line stays the last line.
fn run_in_child(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::process::Command::new(exe)
        .arg("run")
        .args(args)
        .env(CHILD_ENV, "1")
        .envs(ALLOCATOR_ENV)
        .status()
        .map(|status| status.success())
        .map_err(|e| format!("spawn workload process: {e}"))
}

/// Runs every workload, each in a child process of its own, untraced
/// and (with `--trace`) traced.
fn run_all(args: &RunArgs, raw: &[String]) -> Result<bool, String> {
    let mut all_ok = true;
    for name in workload::NAMES {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            // A later flag overrides an earlier one, so the caller's
            // own `--trace` needs no stripping.
            let mut child = raw.to_vec();
            child.extend(
                ["--workload", name, "--trace", if trace { "1" } else { "0" }].map(String::from),
            );
            all_ok &= run_in_child(&child)?;
        }
    }
    Ok(all_ok)
}

fn usage() -> String {
    "usage: wave-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
     [--smoke] [--rounds N] [--out FILE]\n       wave-benchmark compare A.jsonl B.jsonl"
        .to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verdict = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            parse_run_args(rest).and_then(|parsed| match parsed.workload.clone() {
                Some(name) if std::env::var_os(CHILD_ENV).is_some() => run_one(&name, &parsed),
                Some(_) => run_in_child(rest),
                None => run_all(&parsed, rest),
            })
        }
        Some((cmd, [a, b])) if cmd == "compare" => compare::compare_files(a.as_ref(), b.as_ref()),
        _ => Err(usage()),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("wave-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_obs::json::parse_flat;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_style_and_flag_style_arguments_parse() {
        let a = parse_run_args(&args(&[
            "--workload",
            "scam_probe",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("scam_probe"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, false));
        let b = parse_run_args(&args(&["--trace", "--smoke", "--rounds", "4"])).unwrap();
        assert!(b.trace && b.smoke && b.rounds == Some(4));
        assert!(parse_run_args(&args(&["--trace", "1"])).unwrap().trace);
        assert!(parse_run_args(&args(&["--seed"])).is_err());
        assert!(parse_run_args(&args(&["--seconds", "0"])).is_err());
        assert!(parse_run_args(&args(&["--bogus"])).is_err());
    }

    #[test]
    fn rows_round_trip_through_wave_obs_json() {
        let out = Outcome {
            attempted: 12,
            failed: 0,
            rounds: 3,
            digest: 0xDEAD_BEEF,
            ..Outcome::default()
        };
        let metrics = vec![
            (&catalog::END_TO_END[0], 0.812_734_5),
            (&catalog::END_TO_END[1], 10_234.5),
        ];
        let a = RunArgs {
            seed: 9,
            ..RunArgs::default()
        };
        let lines = rows("scam_probe", &a, &out, "end_to_end", &metrics);
        assert_eq!(lines.len(), 5);
        let first = parse_flat(&lines[0]).unwrap();
        assert_eq!(first["workload"].as_str(), Some("scam_probe"));
        assert_eq!(first["metric"].as_str(), Some("setup_s"));
        assert_eq!(first["value"].as_f64(), Some(0.812_734_5));
        assert_eq!(first["unit"].as_str(), Some("s"));
        assert_eq!(first["seed"].as_u64(), Some(9));
        let digest = parse_flat(&lines[4]).unwrap();
        assert_eq!(digest["text"].as_str(), Some("00000000deadbeef"));
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let out = Outcome {
            attempted: 1000,
            failed: 0,
            ..Outcome::default()
        };
        let line = result_line(&out, &[(&catalog::END_TO_END[0], 0.8127)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
