//! `obs-span-coverage`: public engine entry points mint a trace root.
//!
//! The wave-obs layer only earns its keep if the operations operators
//! actually wait on — driver days, server queries, maintenance swaps,
//! commits, recovery — are traced; a silent entry point is a blind
//! spot in every `wavectl trace` capture and in the flight recorder.
//! This rule pins the invariant: each entry point in
//! [`REQUIRED_SPANS`] must call `.root_span(` somewhere in its body,
//! minting the request's `TraceCtx` that child spans hang off.
//! A plain `.span(` no longer satisfies the rule — a span without a
//! trace id cannot anchor a causal tree. Adding a new public entry
//! point to the engine should come with a root span *and* a row in
//! this table.

use crate::rules::{Rule, Violation};
use crate::scan::FileScan;

/// `(file, function)` pairs that must mint a `wave_obs` root span.
pub const REQUIRED_SPANS: &[(&str, &str)] = &[
    ("crates/core/src/driver.rs", "start"),
    ("crates/core/src/driver.rs", "step"),
    ("crates/core/src/server.rs", "install_wave"),
    ("crates/core/src/server.rs", "gather"),
    ("crates/core/src/server.rs", "maintain"),
    ("crates/core/src/server.rs", "degraded_query"),
    ("crates/core/src/persist.rs", "commit_wave"),
    ("crates/core/src/recovery.rs", "recover"),
];

/// See the [module docs](self).
pub struct ObsSpanCoverage;

impl Rule for ObsSpanCoverage {
    fn name(&self) -> &'static str {
        "obs-span-coverage"
    }

    fn description(&self) -> &'static str {
        "listed engine entry points must mint a wave-obs root span (trace context)"
    }

    fn check(&self, rel_path: &str, scan: &FileScan, out: &mut Vec<Violation>) {
        for (file, fn_name) in REQUIRED_SPANS {
            if rel_path != *file {
                continue;
            }
            let Some(f) = scan.fns.iter().find(|f| f.name == *fn_name) else {
                out.push(Violation {
                    rule: self.name(),
                    file: rel_path.to_string(),
                    line: 1,
                    message: format!(
                        "entry point `{fn_name}` not found; update the obs-span-coverage table \
                         if it was renamed"
                    ),
                });
                continue;
            };
            let body = &scan.tokens[f.body.clone()];
            let mints_root = body.iter().enumerate().any(|(k, t)| {
                t.is_ident("root_span")
                    && k > 0
                    && body[k - 1].is_punct('.')
                    && body.get(k + 1).is_some_and(|n| n.is_punct('('))
            });
            if !mints_root {
                out.push(Violation {
                    rule: self.name(),
                    file: rel_path.to_string(),
                    line: f.line,
                    message: format!(
                        "entry point `{fn_name}` never mints a wave-obs root span \
                         (trace context)"
                    ),
                });
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
        ObsSpanCoverage.check(path, &scan, &mut out);
        out
    }

    #[test]
    fn spanned_entry_point_is_clean_unspanned_is_flagged() {
        let good = "impl D {\n    pub fn start(&mut self) {\n        let span = self.obs.root_span(\"start\", &[]);\n    }\n    pub fn step(&mut self) {\n        let span = self.obs.root_span(\"step\", &[]);\n    }\n}\n";
        assert!(run("crates/core/src/driver.rs", good).is_empty());

        let bad = "impl D {\n    pub fn start(&mut self) {}\n    pub fn step(&mut self) {\n        let span = self.obs.root_span(\"step\", &[]);\n    }\n}\n";
        let got = run("crates/core/src/driver.rs", bad);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("`start`"));
    }

    #[test]
    fn plain_span_without_trace_context_no_longer_satisfies_the_rule() {
        let src = "impl D {\n    pub fn start(&mut self) {\n        let span = self.obs.span(\"start\", &[]);\n    }\n    pub fn step(&mut self) {\n        let span = self.obs.root_span(\"step\", &[]);\n    }\n}\n";
        let got = run("crates/core/src/driver.rs", src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("`start`"));
        assert!(got[0].message.contains("root span"));
    }

    #[test]
    fn missing_entry_point_is_reported_so_the_table_stays_synced() {
        let src = "pub fn unrelated() {}\n";
        let got = run("crates/core/src/driver.rs", src);
        assert_eq!(got.len(), 2, "{got:?}");
    }
}
