//! `settle-exactly-once`: every arm request entered into flight is
//! settled.
//!
//! The server's per-arm accounting rests on one invariant: every
//! request entered into flight (`ArmLink::enter` bumps `requests` and
//! the pending gauge — a read on the caller's thread, a build on a
//! scoped build thread, or a status, drop or shutdown run inline) is
//! settled exactly once (`ArmLink::settle` / `settle_err` decrement
//! it). This rule checks the statically checkable projection of that
//! in `crates/core/src/server.rs`: any function that directly calls
//! `enter(` must reach a settle, itself or through a callee
//! ([`Effects::settles`]). `enter` itself is exempt.
//!
//! Exactly-once on all *dynamic* paths is not token-decidable; the
//! server tests and the chaos soak check the queue-depth gauges at
//! runtime. What this rule buys is that a new request path cannot
//! forget the settle discipline entirely and still pass CI.

use crate::callgraph::{CallGraph, Workspace};
use crate::effects::Effects;
use crate::rules::{GraphRule, Violation};

/// The file the protocol lives in.
const FILE: &str = "crates/core/src/server.rs";
/// The entry primitive, exempt from the check itself.
const ENTER: &str = "enter";

/// See the [module docs](self).
pub struct SettleExactlyOnce;

impl GraphRule for SettleExactlyOnce {
    fn name(&self) -> &'static str {
        "settle-exactly-once"
    }

    fn description(&self) -> &'static str {
        "every arm request entered into flight settles"
    }

    fn check(&self, ws: &Workspace, graph: &CallGraph, fx: &Effects, out: &mut Vec<Violation>) {
        let Some(fi) = ws.files.iter().position(|f| f.rel == FILE) else {
            return;
        };
        let toks = &ws.files[fi].scan.tokens;
        for (id, f) in graph.fns.iter().enumerate() {
            if f.file != fi || f.name == ENTER {
                continue;
            }
            let enters = f.body.clone().any(|i| {
                toks[i].is_ident(ENTER)
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                    && !(i > 0 && toks[i - 1].is_ident("fn"))
            });
            if enters && !fx.settles[id] {
                out.push(Violation {
                    rule: self.name(),
                    file: FILE.to_string(),
                    line: f.line,
                    message: format!(
                        "`{}` enters a request into flight but never reaches a settle",
                        graph.label(id)
                    ),
                });
            }
        }
        out.sort_by(|a, b| (a.line, &a.message).cmp(&(b.line, &b.message)));
        out.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::SourceFile;
    use crate::scan::scan_file;

    fn run(src: &str) -> Vec<Violation> {
        let ws = Workspace {
            files: vec![SourceFile {
                rel: FILE.to_string(),
                scan: scan_file(FILE, src),
            }],
        };
        let graph = CallGraph::build(&ws);
        let fx = Effects::compute(&ws, &graph);
        let mut out = Vec::new();
        SettleExactlyOnce.check(&ws, &graph, &fx, &mut out);
        out
    }

    #[test]
    fn entering_a_read_without_settling_is_flagged() {
        let body = "impl ArmLink {\n\
            fn enter(&self) { self.pending.fetch_add(1, Relaxed); }\n\
        }\n\
        impl WaveServer {\n\
            fn forgetful(&self, link: &ArmLink) { link.enter(); read(link); }\n\
            fn diligent(&self, link: &ArmLink) { link.enter(); link.settle(&io); }\n\
        }\n";
        let got = run(body);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("::forgetful`"), "{got:?}");
    }

    #[test]
    fn a_settle_reached_through_a_callee_discharges_the_entry() {
        let body = "impl ArmLink {\n\
            fn enter(&self) { self.pending.fetch_add(1, Relaxed); }\n\
            fn book(&self, io: &StatsDelta) { self.settle_err(); }\n\
        }\n\
        impl WaveServer {\n\
            fn build(&self, link: &ArmLink) { link.enter(); link.book(&io); }\n\
        }\n";
        assert!(run(body).is_empty(), "{:?}", run(body));
    }
}
