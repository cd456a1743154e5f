//! Per-function effect facts, propagated along [`crate::callgraph`]
//! edges to a fixpoint.
//!
//! Leaf facts are read straight off the token stream (which locks a
//! body acquires, whether it flushes or dirties a `WriteBuffer`,
//! whether it settles an arm request); the worklist then joins facts
//! over callees until nothing changes. All joins are monotone
//! (set-union / may-booleans), so the fixpoint exists and the loop
//! terminates.
//!
//! The propagation is deliberately *may*-analysis: "this function may
//! acquire `vol` somewhere beneath it", not "does on every path".
//! Rules that need must-style reasoning (flush-before-commit's dirty
//! tracking) keep that part local to one body and only consume the
//! may-facts for calls.

use crate::callgraph::{CallGraph, Workspace};
use crate::lexer::{Token, TokenKind};
use crate::rules::LOCK_ORDER;

/// What a callee does to a `&mut WriteBuffer` parameter, judged by a
/// linear walk of its body (last relevant operation wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferOutcome {
    /// No `WriteBuffer` parameter, or the parameter is never touched.
    Untouched,
    /// Ends with the buffer flushed (`flush` is the last operation).
    Flushed,
    /// Ends with buffered, unflushed writes.
    Dirty,
}

/// The fixpoint facts, indexed by fn id.
#[derive(Debug)]
pub struct Effects {
    /// Locks acquired directly in the body (bitmask over
    /// [`LOCK_ORDER`] ranks).
    pub direct_locks: Vec<u8>,
    /// Locks acquired directly or by any transitive callee.
    pub locks: Vec<u8>,
    /// `Some(rank)` when the fn is a guard-returning helper for that
    /// lock: its signature returns a `*Guard` type and its body
    /// acquires exactly one [`LOCK_ORDER`] lock (directly, or by
    /// delegating to exactly one other guard helper).
    pub guard_helper: Vec<Option<usize>>,
    /// May reach `commit_wave` (directly or transitively).
    pub commits: Vec<bool>,
    /// May settle an arm request: calls `.settle(`/`.settle_err(`,
    /// directly or via callees.
    pub settles: Vec<bool>,
    /// What the fn does to its `&mut WriteBuffer` parameter, if any.
    pub buffer_outcome: Vec<BufferOutcome>,
}

impl Effects {
    /// Computes all facts for `graph` over `ws`.
    pub fn compute(ws: &Workspace, graph: &CallGraph) -> Effects {
        let n = graph.fns.len();
        let mut fx = Effects {
            direct_locks: vec![0; n],
            locks: vec![0; n],
            guard_helper: vec![None; n],
            commits: vec![false; n],
            settles: vec![false; n],
            buffer_outcome: vec![BufferOutcome::Untouched; n],
        };

        // Pass 1: leaf facts per body.
        for id in 0..n {
            let f = &graph.fns[id];
            let toks = &ws.files[f.file].scan.tokens;
            fx.direct_locks[id] = direct_lock_mask(toks, f.body.clone());
            fx.commits[id] = body_calls_name(toks, f.body.clone(), "commit_wave");
            fx.settles[id] = direct_settles(toks, f.body.clone());
        }

        // Pass 2: guard helpers to fixpoint (a helper may delegate to
        // another helper, e.g. a retry wrapper around `vol_lock`).
        loop {
            let mut changed = false;
            for id in 0..n {
                if fx.guard_helper[id].is_some() {
                    continue;
                }
                let f = &graph.fns[id];
                let toks = &ws.files[f.file].scan.tokens;
                if !sig_returns_guard(toks, f.sig.clone()) {
                    continue;
                }
                let direct = fx.direct_locks[id];
                let derived = if direct.count_ones() == 1 {
                    Some(direct.trailing_zeros() as usize)
                } else if direct == 0 {
                    // Delegation: exactly one distinct helper callee.
                    let mut ranks: Vec<usize> = graph.callees[id]
                        .iter()
                        .filter_map(|&c| fx.guard_helper[c])
                        .collect();
                    ranks.sort_unstable();
                    ranks.dedup();
                    if ranks.len() == 1 {
                        Some(ranks[0])
                    } else {
                        None
                    }
                } else {
                    None
                };
                if derived.is_some() {
                    fx.guard_helper[id] = derived;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Pass 3: buffer outcomes (depend on callees' outcomes, so
        // iterate; the lattice Untouched < {Flushed, Dirty} with
        // last-writer-wins per walk converges because bodies do not
        // change between rounds).
        loop {
            let mut changed = false;
            for id in 0..n {
                let f = &graph.fns[id];
                let toks = &ws.files[f.file].scan.tokens;
                let Some(param) = write_buffer_param(toks, f.sig.clone()) else {
                    continue;
                };
                let got = walk_buffer_ops(toks, f.body.clone(), &param, graph, &fx, id);
                if got != fx.buffer_outcome[id] {
                    fx.buffer_outcome[id] = got;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Pass 4: transitive may-facts over call edges.
        //
        // Lock and commit facts flow only along *unambiguous* edges —
        // sites whose name+receiver resolution produced exactly one
        // candidate. Fan-out edges (a method name matching several
        // impls) are too coarse here: one commonly-named method
        // (`get`, `len`, `stats`) that transitively reaches a lock
        // would poison every caller of anything by that name and
        // drown the signal. `settles` keeps the full edge set: it
        // *discharges* obligations (more reach means fewer findings),
        // so the union errs in the quiet direction there.
        let mut precise: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (id, edges) in precise.iter_mut().enumerate() {
            let mut by_tok: std::collections::HashMap<usize, Vec<usize>> =
                std::collections::HashMap::new();
            for &(tok, callee) in &graph.sites[id] {
                by_tok.entry(tok).or_default().push(callee);
            }
            for (_, mut cands) in by_tok {
                cands.sort_unstable();
                cands.dedup();
                if let [only] = cands[..] {
                    edges.push(only);
                }
            }
            edges.sort_unstable();
            edges.dedup();
        }
        fx.locks.copy_from_slice(&fx.direct_locks);
        for (id, rank) in fx.guard_helper.iter().enumerate() {
            // A helper's acquisition escapes to its caller as a live
            // guard; count it in the helper's own mask too so `locks`
            // means "any lock this subtree can take".
            if let Some(r) = rank {
                fx.locks[id] |= 1 << r;
            }
        }
        loop {
            let mut changed = false;
            for (id, edges) in precise.iter().enumerate() {
                for &c in edges {
                    let add = fx.locks[c] & !fx.locks[id];
                    if add != 0 {
                        fx.locks[id] |= add;
                        changed = true;
                    }
                    if fx.commits[c] && !fx.commits[id] {
                        fx.commits[id] = true;
                        changed = true;
                    }
                }
                for &c in &graph.callees[id] {
                    if fx.settles[c] && !fx.settles[id] {
                        fx.settles[id] = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        fx
    }

    /// Renders one fn's facts for `wavectl lint --graph`.
    pub fn describe(&self, id: usize) -> String {
        let mut parts = Vec::new();
        let mask = self.locks[id];
        if mask != 0 {
            let names: Vec<&str> = LOCK_ORDER
                .iter()
                .enumerate()
                .filter(|(r, _)| mask & (1 << r) != 0)
                .map(|(_, n)| *n)
                .collect();
            parts.push(format!("acquires {{{}}}", names.join(", ")));
        }
        if let Some(r) = self.guard_helper[id] {
            parts.push(format!("guard-helper for `{}`", LOCK_ORDER[r]));
        }
        if self.commits[id] {
            parts.push("reaches commit_wave".to_string());
        }
        if self.settles[id] {
            parts.push("settles".to_string());
        }
        match self.buffer_outcome[id] {
            BufferOutcome::Untouched => {}
            BufferOutcome::Flushed => parts.push("leaves WriteBuffer flushed".to_string()),
            BufferOutcome::Dirty => parts.push("leaves WriteBuffer dirty".to_string()),
        }
        if parts.is_empty() {
            "no tracked effects".to_string()
        } else {
            parts.join(", ")
        }
    }
}

/// Direct acquisitions: `<name>.lock()` / `.read()` / `.write()` with
/// an empty argument list and `<name>` in [`LOCK_ORDER`]. Same shape
/// the leaf lock rule matches.
fn direct_lock_mask(toks: &[Token], body: std::ops::Range<usize>) -> u8 {
    let mut mask = 0u8;
    for i in body.clone() {
        let t = &toks[i];
        if matches!(t.text.as_str(), "lock" | "read" | "write")
            && i >= body.start + 2
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(')'))
        {
            let recv = &toks[i - 2];
            if let Some(r) = LOCK_ORDER.iter().position(|n| recv.text == *n) {
                mask |= 1 << r;
            }
        }
    }
    mask
}

fn body_calls_name(toks: &[Token], body: std::ops::Range<usize>, name: &str) -> bool {
    for i in body {
        if toks[i].is_ident(name) && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            return true;
        }
    }
    false
}

/// `.settle(` / `.settle_err(`.
fn direct_settles(toks: &[Token], body: std::ops::Range<usize>) -> bool {
    body.clone().any(|i| {
        matches!(toks[i].text.as_str(), "settle" | "settle_err")
            && i > body.start
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
    })
}

/// Whether a signature's return type mentions a `*Guard` type.
fn sig_returns_guard(toks: &[Token], sig: std::ops::Range<usize>) -> bool {
    toks[sig]
        .iter()
        .any(|t| matches!(t.kind, TokenKind::Ident) && t.text.contains("Guard"))
}

/// Name of the first `&mut WriteBuffer` parameter, if any: scans the
/// signature for the `WriteBuffer` type and walks back over `&`,
/// `mut`, and `:` to the parameter identifier.
pub(crate) fn write_buffer_param(toks: &[Token], sig: std::ops::Range<usize>) -> Option<String> {
    for i in sig.clone() {
        if !toks[i].is_ident("WriteBuffer") {
            continue;
        }
        let mut k = i;
        while k > sig.start {
            k -= 1;
            if toks[k].is_punct(':') {
                if k > sig.start
                    && matches!(toks[k - 1].kind, TokenKind::Ident | TokenKind::RawIdent)
                {
                    return Some(toks[k - 1].text.clone());
                }
                return None;
            }
            // `->` means the mention is in the return type, not a
            // parameter.
            if toks[k].is_punct('>') {
                return None;
            }
        }
    }
    None
}

/// Linear walk of `body` tracking what happens to the buffer variable
/// `param`; the final state is the fn's [`BufferOutcome`].
fn walk_buffer_ops(
    toks: &[Token],
    body: std::ops::Range<usize>,
    param: &str,
    graph: &CallGraph,
    fx: &Effects,
    _id: usize,
) -> BufferOutcome {
    let mut state = BufferOutcome::Untouched;
    for i in body.clone() {
        let t = &toks[i];
        if !matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent) {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        // `param.buffer_write(` / `param.flush(`
        if i >= body.start + 2 && toks[i - 1].is_punct('.') && toks[i - 2].is_ident(param) {
            match t.text.as_str() {
                "buffer_write" => state = BufferOutcome::Dirty,
                "flush" => state = BufferOutcome::Flushed,
                _ => {}
            }
            continue;
        }
        // `helper(…, param, …)` inherits the helper's outcome.
        if let Some(close) = crate::scan::matching(toks, i + 1, '(', ')') {
            if toks[i + 1..close].iter().any(|a| a.is_ident(param)) {
                for &c in graph.ids_named(&t.text) {
                    match fx.buffer_outcome[c] {
                        BufferOutcome::Untouched => {}
                        other => state = other,
                    }
                }
            }
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{SourceFile, Workspace};
    use crate::scan::scan_file;

    fn setup(src: &str) -> (Workspace, CallGraph, Effects) {
        let ws = Workspace {
            files: vec![SourceFile {
                rel: "crates/core/src/x.rs".to_string(),
                scan: scan_file("crates/core/src/x.rs", src),
            }],
        };
        let graph = CallGraph::build(&ws);
        let fx = Effects::compute(&ws, &graph);
        (ws, graph, fx)
    }

    fn id(graph: &CallGraph, name: &str) -> usize {
        graph.ids_named(name)[0]
    }

    #[test]
    fn guard_helpers_are_derived_from_signature_and_body() {
        let src = "impl S {\n\
            fn vol_lock(&self) -> IndexResult<MutexGuard<'_, Volume>> {\n\
                self.vol.lock().map_err(|_| E)\n\
            }\n\
            fn not_a_helper(&self) -> usize { self.vol.lock().unwrap().len() }\n\
            fn wrapped(&self) -> IndexResult<MutexGuard<'_, Volume>> { self.vol_lock() }\n\
        }\n";
        let (_, g, fx) = setup(src);
        assert_eq!(fx.guard_helper[id(&g, "vol_lock")], Some(2), "vol rank");
        assert_eq!(fx.guard_helper[id(&g, "not_a_helper")], None);
        assert_eq!(fx.guard_helper[id(&g, "wrapped")], Some(2), "delegation");
    }

    #[test]
    fn lock_masks_propagate_transitively() {
        let src = "impl S {\n\
            fn leaf(&self) { let g = self.wave.read().unwrap(); }\n\
            fn mid(&self) { self.leaf(); }\n\
            fn top(&self) { self.mid(); }\n\
        }\n";
        let (_, g, fx) = setup(src);
        assert_eq!(fx.direct_locks[id(&g, "leaf")], 1 << 0);
        assert_eq!(fx.direct_locks[id(&g, "top")], 0);
        assert_eq!(fx.locks[id(&g, "top")], 1 << 0, "transitive wave");
    }

    #[test]
    fn commit_and_settle_facts_propagate() {
        let src = "fn commit_wave() {}\n\
            fn inner() { commit_wave(); }\n\
            fn outer() { inner(); }\n\
            impl S { fn finishes(&self, link: &ArmLink) { link.settle(1); }\n\
                     fn caller(&self) { self.finishes(&l); } }\n";
        let (_, g, fx) = setup(src);
        assert!(fx.commits[id(&g, "outer")]);
        assert!(fx.settles[id(&g, "caller")]);
    }

    #[test]
    fn buffer_outcomes_follow_the_last_operation() {
        let src = "fn clean(wb: &mut WriteBuffer, vol: &mut V) { wb.buffer_write(0, 0, d); wb.flush(vol); }\n\
            fn dirty(wb: &mut WriteBuffer) { wb.buffer_write(0, 0, d); }\n\
            fn delegates(wb: &mut WriteBuffer) { dirty(wb); }\n\
            fn unrelated(x: usize) {}\n";
        let (_, g, fx) = setup(src);
        assert_eq!(fx.buffer_outcome[id(&g, "clean")], BufferOutcome::Flushed);
        assert_eq!(fx.buffer_outcome[id(&g, "dirty")], BufferOutcome::Dirty);
        assert_eq!(fx.buffer_outcome[id(&g, "delegates")], BufferOutcome::Dirty);
        assert_eq!(
            fx.buffer_outcome[id(&g, "unrelated")],
            BufferOutcome::Untouched
        );
    }
}
