//! `no-panic-path`: the serving path must not panic.
//!
//! A wave index that panics mid-query takes every arm's worker down
//! with it; a maintenance panic poisons the route lock and turns into
//! a typed [`LockPoisoned`] error at best. So inside the serving and
//! persistence modules, recoverable failures must travel as
//! `Result`s: no `unwrap`/`expect`, no `panic!`-family macros, and no
//! bare slice indexing (`x[i]` panics on out-of-bounds — use `get`).
//!
//! Scope: non-test code of `wave-index`'s `server`, `concurrent`,
//! `read`, `recovery`, and `persist` modules, and all of
//! `wave-storage`'s library code. Pre-existing violations are frozen in
//! `lint-baseline.toml` and ratcheted down over time.
//!
//! [`LockPoisoned`]: https://doc.rust-lang.org/std/sync/struct.PoisonError.html

use crate::lexer::TokenKind;
use crate::rules::{Rule, Violation};
use crate::scan::FileScan;

/// Path prefixes the rule applies to.
const SCOPE: &[&str] = &[
    "crates/core/src/server.rs",
    "crates/core/src/concurrent.rs",
    "crates/core/src/read.rs",
    "crates/core/src/recovery.rs",
    "crates/core/src/persist.rs",
    "crates/storage/src/",
];

/// Identifiers that read as keywords in expression position: an `[`
/// after one of these is an array/pattern, not an indexing operation.
const NON_INDEXING_IDENTS: &[&str] = &[
    "let", "if", "else", "match", "return", "in", "mut", "ref", "as", "move", "loop", "while",
    "for", "where", "impl", "dyn", "break", "continue", "unsafe", "async", "await", "use", "pub",
    "crate", "super", "fn", "static", "const", "type", "enum", "struct", "trait", "mod", "extern",
    "box", "yield",
];

/// See the [module docs](self).
pub struct NoPanicPath;

impl Rule for NoPanicPath {
    fn name(&self) -> &'static str {
        "no-panic-path"
    }

    fn description(&self) -> &'static str {
        "serving/persistence modules must not unwrap, panic, or slice-index"
    }

    fn check(&self, rel_path: &str, scan: &FileScan, out: &mut Vec<Violation>) {
        if !SCOPE.iter().any(|p| rel_path.starts_with(p)) || scan.whole_file_test {
            return;
        }
        let toks = &scan.tokens;
        for (i, t) in toks.iter().enumerate() {
            if scan.is_test_line(t.line) {
                continue;
            }
            // `.unwrap()` / `.expect(`
            if (t.is_ident("unwrap") || t.is_ident("expect"))
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            {
                out.push(Violation {
                    rule: self.name(),
                    file: rel_path.to_string(),
                    line: t.line,
                    message: format!("`.{}()` on the serving path; return a typed error", t.text),
                });
                continue;
            }
            // panic-family macros
            if matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            ) && t.kind == TokenKind::Ident
                && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            {
                out.push(Violation {
                    rule: self.name(),
                    file: rel_path.to_string(),
                    line: t.line,
                    message: format!("`{}!` on the serving path; return a typed error", t.text),
                });
                continue;
            }
            // slice/array indexing: `[` directly after an indexable
            // expression tail (identifier, `)`, or `]`).
            if t.is_punct('[') && i > 0 {
                let prev = &toks[i - 1];
                let indexable = match prev.kind {
                    TokenKind::Punct(')') | TokenKind::Punct(']') => true,
                    TokenKind::Ident | TokenKind::RawIdent => {
                        !NON_INDEXING_IDENTS.contains(&prev.text.as_str())
                    }
                    _ => false,
                };
                if indexable {
                    out.push(Violation {
                        rule: self.name(),
                        file: rel_path.to_string(),
                        line: t.line,
                        message: format!(
                            "indexing `{}[…]` may panic; use `.get(…)` and handle `None`",
                            prev.text
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
        NoPanicPath.check(path, &scan, &mut out);
        out
    }

    #[test]
    fn flags_unwrap_expect_panic_and_indexing() {
        let src = "fn f(v: Vec<u8>) {\n    let a = v.first().unwrap();\n    let b = v.get(0).expect(\"x\");\n    panic!(\"boom\");\n    let c = v[0];\n}\n";
        let got = run("crates/core/src/server.rs", src);
        assert_eq!(got.len(), 4, "{got:?}");
        assert_eq!(got[0].line, 2);
        assert_eq!(got[3].line, 5);
    }

    #[test]
    fn ignores_out_of_scope_files_test_code_and_lookalikes() {
        let src = "fn f(v: Vec<u8>) { let a = v.first().unwrap(); }\n";
        assert!(run("crates/analytic/src/model.rs", src).is_empty());

        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn f(v: Vec<u8>) { v[0]; v.last().unwrap(); }\n}\n";
        assert!(run("crates/core/src/server.rs", test_src).is_empty());

        // unwrap_or is fine; `let [a, b] = …` is a pattern, not indexing;
        // attributes and array types are not indexing either.
        let ok = "#[derive(Debug)]\nstruct S;\nfn f(v: Vec<u8>, w: [u8; 2]) -> u8 {\n    let [a, b] = w;\n    v.first().copied().unwrap_or(a + b)\n}\n";
        assert!(
            run("crates/core/src/server.rs", ok).is_empty(),
            "{:?}",
            run("crates/core/src/server.rs", ok)
        );
    }
}
