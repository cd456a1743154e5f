//! `deterministic-core`: sim/core crates replay bit-identically.
//!
//! Every simulation, crash-point exploration, and randomized sweep in
//! this workspace is seeded: rerunning a test or a trace must
//! reproduce the same bytes. Ambient entropy breaks that silently, so
//! outside the wall-clock benchmark harness nothing may read
//! `Instant::now()`, `SystemTime::now()`, or environment variables
//! (`std::env::var`) — randomness comes from `wave_obs::SplitMix64`
//! seeds threaded through explicitly.
//!
//! Scope: non-test library code of every crate except `crates/bench`
//! (whose entire point is wall-clock measurement).

use crate::rules::{Rule, Violation};
use crate::scan::FileScan;

/// Path prefixes exempt from the rule.
const ALLOWED_PREFIXES: &[&str] = &["crates/bench/"];

/// `A::b` token paths that read ambient time or entropy.
const BANNED_PATHS: &[(&str, &str)] = &[
    ("Instant", "now"),
    ("SystemTime", "now"),
    ("env", "var"),
    ("env", "var_os"),
];

/// See the [module docs](self).
pub struct DeterministicCore;

impl Rule for DeterministicCore {
    fn name(&self) -> &'static str {
        "deterministic-core"
    }

    fn description(&self) -> &'static str {
        "no wall-clock time or ambient entropy outside crates/bench"
    }

    fn check(&self, rel_path: &str, scan: &FileScan, out: &mut Vec<Violation>) {
        if ALLOWED_PREFIXES.iter().any(|p| rel_path.starts_with(p)) || scan.whole_file_test {
            return;
        }
        let toks = &scan.tokens;
        for (i, t) in toks.iter().enumerate() {
            if scan.is_test_line(t.line) {
                continue;
            }
            for (ty, method) in BANNED_PATHS {
                if t.is_ident(ty)
                    && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|n| n.is_ident(method))
                {
                    out.push(Violation {
                        rule: self.name(),
                        file: rel_path.to_string(),
                        line: t.line,
                        message: format!(
                            "`{ty}::{method}` reads ambient {}; thread a seed or counter through instead",
                            if *ty == "env" { "environment" } else { "time" }
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_file;

    fn run(path: &str, src: &str) -> Vec<Violation> {
        let scan = scan_file(path, src);
        let mut out = Vec::new();
        DeterministicCore.check(path, &scan, &mut out);
        out
    }

    #[test]
    fn flags_clock_reads_in_core_but_not_bench() {
        let src =
            "fn f() {\n    let t = Instant::now();\n    let s = std::time::SystemTime::now();\n}\n";
        let got = run("crates/core/src/wave.rs", src);
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(run("crates/bench/src/obs.rs", src).is_empty());
    }

    #[test]
    fn flags_env_entropy_but_not_env_paths() {
        let bad = "fn f() { let seed = std::env::var(\"SEED\"); }\n";
        assert_eq!(run("crates/storage/src/file.rs", bad).len(), 1);
        // temp_dir / args are inputs, not entropy.
        let ok = "fn f() { let d = std::env::temp_dir(); let a = std::env::args(); }\n";
        assert!(run("crates/storage/src/file.rs", ok).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trip_the_rule() {
        let ok = "// Instant::now() would break replay\nfn f() { let s = \"Instant::now\"; }\n";
        assert!(run("crates/core/src/wave.rs", ok).is_empty());
    }
}
