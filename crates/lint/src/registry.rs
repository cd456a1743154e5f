//! The generated counter/span name registry.
//!
//! Every metric and span name the engine emits is a string literal at
//! an `Obs` call site (`obs.counter("disk.seeks")`,
//! `obs.root_span("commit_wave", …)`). This module extracts those
//! literals from the production tree and renders them into
//! `crates/obs/src/names.rs` — a machine-written, committed file that
//! (1) the [`crate::rules::counter_registry`] rule checks call sites
//! against, and (2) `wavectl report` builds its counter groups from.
//! A rename that touches only one side therefore fails CI instead of
//! silently orphaning a metric.
//!
//! Call sites whose name argument is not a string literal (per-arm
//! names built with `format!`) are out of scope on both sides: the
//! collector skips them and the rule ignores them.

use crate::callgraph::Workspace;
use crate::lexer::TokenKind;
use crate::scan::{matching, FileScan};
use std::collections::BTreeSet;

/// Path of the generated file, relative to the workspace root.
pub const REGISTRY_FILE: &str = "crates/obs/src/names.rs";

/// What kind of instrument a call site names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// `.counter("…")`
    Counter,
    /// `.gauge("…")`
    Gauge,
    /// `.histogram("…")`
    Histogram,
    /// `.span("…")`, `.root_span("…")`, `.child_span(ctx, "…")`
    Span,
}

/// One instrument call site with a literal name.
#[derive(Debug)]
pub struct MetricSite {
    /// Which instrument family.
    pub kind: MetricKind,
    /// The unquoted name.
    pub name: String,
    /// 1-indexed line of the call.
    pub line: u32,
}

/// Extracts every literal-name instrument call site from one file's
/// production code. Dynamic names (no string literal among the call's
/// arguments) are skipped.
pub fn metric_sites(scan: &FileScan) -> Vec<MetricSite> {
    let mut out = Vec::new();
    if scan.whole_file_test {
        return out;
    }
    let toks = &scan.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !matches!(t.kind, TokenKind::Ident) {
            continue;
        }
        let kind = match t.text.as_str() {
            "counter" => MetricKind::Counter,
            "gauge" => MetricKind::Gauge,
            "histogram" => MetricKind::Histogram,
            "span" | "root_span" | "child_span" => MetricKind::Span,
            _ => continue,
        };
        // Method-call shape only: `recv.counter(` — skips the `Obs`
        // API's own `fn counter(` definitions.
        if i == 0 || !toks[i - 1].is_punct('.') {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        if scan.is_test_line(t.line) {
            continue;
        }
        let Some(close) = matching(toks, i + 1, '(', ')') else {
            continue;
        };
        // First string literal among the call's own arguments is the
        // name (`child_span` takes the context first, so "first
        // literal" rather than "first argument"). Literals inside
        // nested groups — `&format!("server.arm{i}…")` — belong to
        // that inner call, not to this one: those names are dynamic.
        let mut depth = 0usize;
        let mut name_tok = None;
        for a in &toks[i + 2..close] {
            if let TokenKind::Punct(p) = a.kind {
                match p {
                    '(' | '[' | '{' => depth += 1,
                    ')' | ']' | '}' => depth = depth.saturating_sub(1),
                    _ => {}
                }
            } else if depth == 0 && a.kind == TokenKind::Str {
                name_tok = Some(a);
                break;
            }
        }
        let Some(name_tok) = name_tok else {
            continue; // dynamic name
        };
        out.push(MetricSite {
            kind,
            name: name_tok.text.trim_matches('"').to_string(),
            line: t.line,
        });
    }
    out
}

/// The four sorted, deduplicated name lists.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct NameSets {
    /// Counter names.
    pub counters: BTreeSet<String>,
    /// Gauge names.
    pub gauges: BTreeSet<String>,
    /// Histogram names.
    pub histograms: BTreeSet<String>,
    /// Span names.
    pub spans: BTreeSet<String>,
}

/// Collects the registry from every production file in the workspace.
/// `crates/obs` itself is excluded: it defines the instruments, it
/// does not emit engine metrics, and its doctests/examples would
/// otherwise pollute the registry.
pub fn collect(ws: &Workspace) -> NameSets {
    let mut sets = NameSets::default();
    for file in &ws.files {
        if file.rel.starts_with("crates/obs/") {
            continue;
        }
        for site in metric_sites(&file.scan) {
            let set = match site.kind {
                MetricKind::Counter => &mut sets.counters,
                MetricKind::Gauge => &mut sets.gauges,
                MetricKind::Histogram => &mut sets.histograms,
                MetricKind::Span => &mut sets.spans,
            };
            set.insert(site.name);
        }
    }
    sets
}

/// Renders the generated `names.rs` source.
pub fn render(sets: &NameSets) -> String {
    let mut out = String::from(
        "//! Machine-written registry of every literal metric and span name\n\
         //! the engine emits. Regenerate with `wavectl lint --write-registry`;\n\
         //! CI fails when this file is out of date (`--check-registry`).\n\
         //!\n\
         //! `wavectl report` derives its counter groups from these lists, and\n\
         //! the `counter-registry` lint rule rejects any instrument call site\n\
         //! whose literal name is missing here — so a rename must touch the\n\
         //! emitting code and this file in the same commit. Names built at\n\
         //! runtime (`format!(\"server.arm{i}.…\")`) are intentionally absent.\n\n",
    );
    for (doc, ident, set) in [
        ("Every literal counter name.", "COUNTERS", &sets.counters),
        ("Every literal gauge name.", "GAUGES", &sets.gauges),
        (
            "Every literal histogram name.",
            "HISTOGRAMS",
            &sets.histograms,
        ),
        ("Every literal span name.", "SPANS", &sets.spans),
    ] {
        // `#[rustfmt::skip]`: rustfmt would collapse short arrays
        // onto one line, and `--check-registry` compares byte-exact
        // against this rendering — the two gates must agree.
        out.push_str(&format!(
            "/// {doc}\n#[rustfmt::skip]\npub const {ident}: &[&str] = &[\n"
        ));
        for name in set.iter() {
            out.push_str(&format!("    \"{name}\",\n"));
        }
        out.push_str("];\n\n");
    }
    out.truncate(out.trim_end().len());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::SourceFile;
    use crate::scan::scan_file;

    #[test]
    fn literal_sites_are_collected_and_dynamic_ones_skipped() {
        let src = "fn f(obs: &Obs, ctx: TraceCtx, i: usize) {\n\
            obs.counter(\"disk.seeks\").add(1);\n\
            obs.gauge(\"alloc.live_blocks\").set(2);\n\
            obs.histogram(\"disk.seek_distance\").record(3);\n\
            let s = obs.root_span(\"commit_wave\", &[]);\n\
            let c = obs.child_span(ctx, \"arm.probe\", &[]);\n\
            obs.counter(&format!(\"server.arm{i}.requests\")).add(1);\n\
        }\n\
        #[cfg(test)]\nmod tests { fn t(obs: &Obs) { obs.counter(\"test.only\").add(1); } }\n";
        let scan = scan_file("crates/core/src/x.rs", src);
        let sites = metric_sites(&scan);
        let names: Vec<&str> = sites.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "disk.seeks",
                "alloc.live_blocks",
                "disk.seek_distance",
                "commit_wave",
                "arm.probe"
            ],
            "{names:?}"
        );
        assert_eq!(sites[4].kind, MetricKind::Span, "child_span literal found");
    }

    #[test]
    fn collect_excludes_obs_and_render_is_stable() {
        let mk = |rel: &str, src: &str| SourceFile {
            rel: rel.to_string(),
            scan: scan_file(rel, src),
        };
        let ws = Workspace {
            files: vec![
                mk(
                    "crates/core/src/a.rs",
                    "fn f(o: &Obs) { o.counter(\"b.two\").add(1); o.counter(\"a.one\").add(1); }\n",
                ),
                mk(
                    "crates/obs/src/lib.rs",
                    "fn f(o: &Obs) { o.counter(\"obs.internal\").add(1); }\n",
                ),
            ],
        };
        let sets = collect(&ws);
        assert_eq!(
            sets.counters.iter().collect::<Vec<_>>(),
            ["a.one", "b.two"],
            "sorted, obs excluded"
        );
        let text = render(&sets);
        assert!(text.contains("pub const COUNTERS"), "{text}");
        assert!(text.contains("\"a.one\",\n    \"b.two\""), "{text}");
        assert!(text.contains("pub const SPANS: &[&str] = &[\n];"), "{text}");
    }
}
