//! `settle-exactly-once`: every arm request is settled, and every
//! reply-carrying request variant replies exactly once.
//!
//! The fault-tolerant server's supervision (PR 7) rests on one
//! invariant: every request accepted into flight (`ArmLink::enter`
//! bumps the pending gauge, for a worker request via `send_to` and for
//! a read on the caller's thread directly) is settled exactly once (`ArmLink::settle` /
//! `settle_err` decrement it), and the worker sends exactly one reply
//! per reply-carrying request — a lost reply must always mean an
//! *unprocessed* request, or supervised re-issue duplicates work.
//! This rule checks the statically checkable projection of that, in
//! `crates/core/src/server.rs`:
//!
//! * **Worker side** — in every `match` arm destructuring a
//!   reply-carrying `ArmRequest` variant, exactly one `.send(` call
//!   must appear: zero leaves the client waiting on a reply that
//!   never comes (and looks like a worker death), two can double-send.
//!   Variants without a `reply` field (`Kill`) are exempt.
//! * **Constructor side** — a function that builds a reply-carrying
//!   `ArmRequest` value must itself reach a settle (`.settle(` /
//!   `.settle_err(` / a `reply.send(`), or have a direct caller that
//!   does (the factory pattern: `build_request` returns a closure and
//!   its *callers* own the obligation).
//! * **Machinery side** — any function that directly calls `enter(`,
//!   `send_to(` or `dispatch(` enters requests into flight and must
//!   reach a settle. The primitives themselves are exempt — and, in the
//!   effect propagation, a callee's settles are *not* inherited
//!   through them ([`Effects::settles`]), so `send_to`'s internal
//!   error-path settles can never discharge a caller's obligation.
//!
//! Exactly-once on all *dynamic* paths is not token-decidable; the
//! chaos soak's pending-gauge drift checks cover the remainder at
//! runtime. What this rule buys is that a new fan-out path cannot
//! forget the settle discipline entirely and still pass CI.

use crate::callgraph::{CallGraph, Workspace};
use crate::effects::Effects;
use crate::lexer::TokenKind;
use crate::rules::{GraphRule, Violation};
use crate::scan::matching;

/// The file the protocol lives in.
const FILE: &str = "crates/core/src/server.rs";
/// The request enum.
const ENUM: &str = "ArmRequest";
/// Entry and dispatch primitives: exempt from the machinery check,
/// and settles do not launder through the dispatch pair.
const PRIMITIVES: &[&str] = &["enter", "send_to", "dispatch"];

/// See the [module docs](self).
pub struct SettleExactlyOnce;

impl GraphRule for SettleExactlyOnce {
    fn name(&self) -> &'static str {
        "settle-exactly-once"
    }

    fn description(&self) -> &'static str {
        "every arm request settles; reply-carrying variants reply exactly once"
    }

    fn check(&self, ws: &Workspace, graph: &CallGraph, fx: &Effects, out: &mut Vec<Violation>) {
        let Some(fi) = ws.files.iter().position(|f| f.rel == FILE) else {
            return;
        };
        let scan = &ws.files[fi].scan;
        let toks = &scan.tokens;
        let variants = enum_variants(toks);
        if variants.is_empty() {
            return;
        }

        // Worker + constructor sides: every `ArmRequest::V` token.
        for i in 0..toks.len() {
            if !toks[i].is_ident(ENUM) {
                continue;
            }
            if !(toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':')))
            {
                continue;
            }
            let Some(v) = toks.get(i + 3) else { continue };
            let Some(&has_reply) = variants.iter().find(|(n, _)| *n == v.text).map(|(_, r)| r)
            else {
                continue;
            };
            if scan.is_test_line(v.line) {
                continue;
            }
            // Fields group, when destructured/constructed with one.
            let mut after = i + 4;
            if toks.get(after).is_some_and(|t| t.is_punct('{')) {
                let Some(close) = matching(toks, after, '{', '}') else {
                    continue;
                };
                after = close + 1;
            } else if toks.get(after).is_some_and(|t| t.is_punct('(')) {
                let Some(close) = matching(toks, after, '(', ')') else {
                    continue;
                };
                after = close + 1;
            }
            let is_pattern = toks.get(after).is_some_and(|t| t.is_punct('='))
                && toks.get(after + 1).is_some_and(|t| t.is_punct('>'));

            if is_pattern {
                if !has_reply {
                    continue;
                }
                let sends = count_sends(toks, arm_body(toks, after + 2));
                if sends != 1 {
                    out.push(Violation {
                        rule: self.name(),
                        file: FILE.to_string(),
                        line: v.line,
                        message: format!(
                            "match arm for `{ENUM}::{}` sends {sends} replies; a reply-carrying \
                             request must be answered exactly once",
                            v.text
                        ),
                    });
                }
            } else if has_reply {
                // Constructor: the enclosing fn (or a direct caller,
                // for factories) must own the settle obligation.
                let Some(id) = enclosing_fn(graph, fi, i) else {
                    continue;
                };
                let discharged = fx.settles[id] || graph.callers[id].iter().any(|&c| fx.settles[c]);
                if !discharged {
                    out.push(Violation {
                        rule: self.name(),
                        file: FILE.to_string(),
                        line: v.line,
                        message: format!(
                            "`{ENUM}::{}` is constructed in `{}`, but neither it nor any direct \
                             caller reaches a settle for the in-flight request",
                            v.text,
                            graph.label(id)
                        ),
                    });
                }
            }
        }

        // Machinery side.
        for id in 0..graph.fns.len() {
            let f = &graph.fns[id];
            if f.file != fi || PRIMITIVES.contains(&f.name.as_str()) {
                continue;
            }
            let calls_machinery = f.body.clone().any(|i| {
                PRIMITIVES.iter().any(|p| toks[i].is_ident(p))
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                    && !(i > 0 && toks[i - 1].is_ident("fn"))
            });
            if calls_machinery && !fx.settles[id] {
                out.push(Violation {
                    rule: self.name(),
                    file: FILE.to_string(),
                    line: f.line,
                    message: format!(
                        "`{}` enters requests into flight (enter/send_to/dispatch) but never \
                         reaches a settle",
                        graph.label(id)
                    ),
                });
            }
        }
        out.sort_by(|a, b| (a.line, &a.message).cmp(&(b.line, &b.message)));
        out.dedup();
    }
}

/// `(variant name, has reply field)` for every variant of the request
/// enum.
fn enum_variants(toks: &[crate::lexer::Token]) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].is_ident("enum") && toks.get(i + 1).is_some_and(|t| t.is_ident(ENUM))) {
            continue;
        }
        let Some(open) = toks[i..]
            .iter()
            .position(|t| t.is_punct('{'))
            .map(|o| i + o)
        else {
            continue;
        };
        let Some(close) = matching(toks, open, '{', '}') else {
            continue;
        };
        let mut k = open + 1;
        while k < close {
            let t = &toks[k];
            // Skip variant attributes.
            if t.is_punct('#') && toks.get(k + 1).is_some_and(|n| n.is_punct('[')) {
                if let Some(c) = matching(toks, k + 1, '[', ']') {
                    k = c + 1;
                    continue;
                }
            }
            if matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent) {
                let mut has_reply = false;
                let mut next = k + 1;
                if toks
                    .get(next)
                    .is_some_and(|n| n.is_punct('{') || n.is_punct('('))
                {
                    let (o, c) = if toks[next].is_punct('{') {
                        ('{', '}')
                    } else {
                        ('(', ')')
                    };
                    if let Some(gc) = matching(toks, next, o, c) {
                        has_reply = toks[next..gc].iter().any(|t| t.is_ident("reply"));
                        next = gc + 1;
                    }
                }
                out.push((t.text.clone(), has_reply));
                k = next;
                continue;
            }
            k += 1;
        }
        break;
    }
    out
}

/// Token range of a match arm's body starting at `start` (just after
/// `=>`): a braced block, or everything up to the `,` that separates
/// it from the next arm.
fn arm_body(toks: &[crate::lexer::Token], start: usize) -> std::ops::Range<usize> {
    if toks.get(start).is_some_and(|t| t.is_punct('{')) {
        if let Some(close) = matching(toks, start, '{', '}') {
            return start..close + 1;
        }
    }
    let mut depth = 0i32;
    let mut k = start;
    while k < toks.len() {
        let t = &toks[k];
        match t.kind {
            TokenKind::Punct('{' | '(' | '[') => depth += 1,
            TokenKind::Punct('}' | ')' | ']') => {
                if depth == 0 {
                    return start..k; // enclosing match ends
                }
                depth -= 1;
            }
            TokenKind::Punct(',') if depth == 0 => return start..k,
            _ => {}
        }
        k += 1;
    }
    start..toks.len()
}

/// Number of `.send(` calls in `range`.
fn count_sends(toks: &[crate::lexer::Token], range: std::ops::Range<usize>) -> usize {
    range
        .filter(|&i| {
            toks[i].is_ident("send")
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        })
        .count()
}

/// Innermost production fn in file `fi` whose body contains token `i`.
fn enclosing_fn(graph: &CallGraph, fi: usize, i: usize) -> Option<usize> {
    graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.file == fi && f.body.contains(&i))
        .min_by_key(|(_, f)| f.body.end - f.body.start)
        .map(|(id, _)| id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::SourceFile;
    use crate::scan::scan_file;

    const ENUM_SRC: &str = "enum ArmRequest {\n\
        Probe { value: u64, reply: Sender<u64> },\n\
        Kill,\n\
    }\n";

    fn run(body: &str) -> Vec<Violation> {
        let src = format!("{ENUM_SRC}{body}");
        let ws = Workspace {
            files: vec![SourceFile {
                rel: FILE.to_string(),
                scan: scan_file(FILE, &src),
            }],
        };
        let graph = CallGraph::build(&ws);
        let fx = Effects::compute(&ws, &graph);
        let mut out = Vec::new();
        SettleExactlyOnce.check(&ws, &graph, &fx, &mut out);
        out
    }

    #[test]
    fn enum_variants_parse_reply_fields() {
        let scan = scan_file(FILE, ENUM_SRC);
        let vars = enum_variants(&scan.tokens);
        assert_eq!(
            vars,
            vec![("Probe".to_string(), true), ("Kill".to_string(), false)]
        );
    }

    #[test]
    fn well_behaved_worker_and_caller_are_clean() {
        let body = "impl ArmState {\n\
            fn handle(&mut self, req: ArmRequest) -> bool {\n\
                match req {\n\
                    ArmRequest::Probe { value, reply } => {\n\
                        let _ = reply.send(value);\n\
                        true\n\
                    }\n\
                    ArmRequest::Kill => false,\n\
                }\n\
            }\n\
        }\n\
        impl WaveServer {\n\
            fn send_to(&self, link: &ArmLink, req: ArmRequest) { link.settle_err(); }\n\
            fn query(&self, link: &ArmLink) {\n\
                self.send_to(link, ArmRequest::Probe { value: 1, reply: tx });\n\
                link.settle(&io);\n\
            }\n\
        }\n";
        assert!(run(body).is_empty(), "{:?}", run(body));
    }

    #[test]
    fn silent_match_arm_is_flagged() {
        let body = "impl ArmState {\n\
            fn handle(&mut self, req: ArmRequest) -> bool {\n\
                match req {\n\
                    ArmRequest::Probe { value, reply } => true,\n\
                    ArmRequest::Kill => false,\n\
                }\n\
            }\n\
        }\n";
        let got = run(body);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("sends 0 replies"), "{got:?}");
    }

    #[test]
    fn constructing_without_settling_is_flagged() {
        let body = "impl WaveServer {\n\
            fn send_to(&self, link: &ArmLink, req: ArmRequest) { link.settle_err(); }\n\
            fn forgetful(&self, link: &ArmLink) {\n\
                self.send_to(link, ArmRequest::Probe { value: 1, reply: tx });\n\
            }\n\
        }\n";
        let got = run(body);
        // Both the constructor-side and machinery-side checks fire:
        // the request is built here and nothing settles it.
        assert!(
            got.iter().any(|v| v.message.contains("constructed in")),
            "{got:?}"
        );
        assert!(
            got.iter()
                .any(|v| v.message.contains("never reaches a settle")),
            "{got:?}"
        );
    }

    #[test]
    fn factory_obligation_moves_to_the_caller() {
        let body = "fn build_request(slot: usize) -> impl Fn(Sender<u64>) -> ArmRequest {\n\
            move |reply| ArmRequest::Probe { value: slot as u64, reply }\n\
        }\n\
        impl WaveServer {\n\
            fn install(&self, link: &ArmLink) {\n\
                let make = build_request(0);\n\
                link.settle(&io);\n\
            }\n\
        }\n";
        assert!(run(body).is_empty(), "{:?}", run(body));
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
    fn kill_needs_no_reply() {
        let body = "impl WaveServer {\n\
            fn kill_worker(&self, worker: &Worker) {\n\
                let _ = worker.tx.send(ArmRequest::Kill);\n\
            }\n\
        }\n";
        assert!(run(body).is_empty(), "{:?}", run(body));
    }
}
