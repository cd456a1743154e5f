//! The one evaluation front end: a table of the six suites and the
//! [`Report`] each returns.
//!
//! Section 6 of the paper is one method applied to several case
//! studies — fix the parameters, run the schemes, tabulate, compare
//! against a bound. Each suite module ([`crate::parallel`],
//! [`crate::batch`], [`crate::filter`], [`crate::obs`],
//! [`crate::ingest`], [`crate::chaos`]) owns what differs — its
//! parameter presets, its sweep, its derived ratios, its bound — and
//! declares its fields once in a `report(smoke)` function. This module
//! owns what does not differ: the `BENCH_<suite>.json` envelope
//! ([`Report::to_json`]), the console table ([`Report::to_table`]) and
//! the verdict ([`Report::verdict`]). `wavectl bench <suite|all>` is a
//! loop over [`SUITES`].

use wave_obs::json::JsonObject;

use crate::{batch, chaos, filter, ingest, obs, parallel};

/// One evaluation suite: its name (the `<suite>` in `wavectl bench
/// <suite>`, `BENCH_<suite>.json` and `wave-bench/<suite>/v1`) and the
/// function that runs its smoke (`true`) or full preset.
pub type Suite = (&'static str, fn(smoke: bool) -> Report);

/// Every suite, in the order `wavectl bench all` runs them.
pub const SUITES: [Suite; 6] = [
    ("parallel", parallel::report),
    ("batch", batch::report),
    ("filter", filter::report),
    ("obs", obs::report),
    ("ingest", ingest::report),
    ("chaos", chaos::report),
];

#[derive(Debug, Clone)]
enum Value {
    Str(&'static str),
    U64(u64),
    F64(f64),
}

/// Where a field appears: every field is in the JSON document, the
/// `Table` ones are also a column of the console table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Show {
    /// JSON document and console table.
    Table,
    /// JSON document only.
    Json,
}

#[derive(Debug, Clone)]
struct Field {
    show: Show,
    key: &'static str,
    value: Value,
}

impl Field {
    fn cell(&self) -> String {
        match self.value {
            Value::Str(v) => v.to_string(),
            Value::U64(v) => v.to_string(),
            Value::F64(v) => format!("{v:.3}"),
        }
    }
}

/// An ordered list of named scalar fields: one flat JSON object, and
/// one table row over the fields declared [`Show::Table`].
#[derive(Debug, Clone, Default)]
pub struct Row(Vec<Field>);

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Row::default()
    }

    fn push(mut self, show: Show, key: &'static str, value: Value) -> Self {
        self.0.push(Field { show, key, value });
        self
    }

    /// Appends a string field.
    pub fn str(self, show: Show, key: &'static str, v: &'static str) -> Self {
        self.push(show, key, Value::Str(v))
    }

    /// Appends an integer field.
    pub fn u64(self, show: Show, key: &'static str, v: u64) -> Self {
        self.push(show, key, Value::U64(v))
    }

    /// Appends a float field.
    pub fn f64(self, show: Show, key: &'static str, v: f64) -> Self {
        self.push(show, key, Value::F64(v))
    }

    fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        for f in &self.0 {
            match f.value {
                Value::Str(v) => o.str(f.key, v),
                Value::U64(v) => o.u64(f.key, v),
                Value::F64(v) => o.f64(f.key, v),
            };
        }
        o.finish()
    }

    fn columns(&self) -> impl Iterator<Item = &Field> {
        self.0.iter().filter(|f| f.show == Show::Table)
    }
}

/// What one suite run produced: the document, the table and the
/// verdict are all views of this.
#[derive(Debug, Clone)]
pub struct Report {
    /// `schema` first, then the sweep parameters — and, for a suite
    /// whose document is a single flat object (`cases: None`), the
    /// result fields too.
    pub head: Row,
    /// One row per case, or `None` for a flat document.
    pub cases: Option<Vec<Row>>,
    /// Bounds the run violated; empty means it passed.
    pub violations: Vec<String>,
    /// The line printed when no bound was violated.
    pub pass: String,
}

impl Report {
    /// The `BENCH_<suite>.json` document: the head object, with the
    /// cases (if any) as a trailing `cases` array of flat objects.
    pub fn to_json(&self) -> String {
        let head = self.head.to_json();
        match &self.cases {
            None => head,
            Some(cases) => {
                let cases: Vec<String> = cases.iter().map(Row::to_json).collect();
                // Reopen the head object to append the array.
                format!(
                    "{},\"cases\":[{}]}}",
                    &head[..head.len() - 1],
                    cases.join(",")
                )
            }
        }
    }

    /// The console table: one column per `Table` field (headed by its
    /// JSON key, floats to three places), one line per case — or the
    /// head's shown fields as the single line of a flat document.
    pub fn to_table(&self) -> String {
        let rows = self.cases.as_deref();
        let rows = rows.unwrap_or(std::slice::from_ref(&self.head));
        let Some(first) = rows.first() else {
            return String::new();
        };
        let header = first.columns().map(|f| f.key.to_string()).collect();
        let lines: Vec<Vec<String>> = std::iter::once(header)
            .chain(rows.iter().map(|r| r.columns().map(Field::cell).collect()))
            .collect();
        let widths: Vec<usize> = (0..lines[0].len())
            .map(|c| {
                lines
                    .iter()
                    .map(|l| l[c].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = String::new();
        for line in &lines {
            let cells: Vec<String> = line
                .iter()
                .zip(&widths)
                .zip(first.columns())
                .map(|((cell, &w), f)| match f.value {
                    Value::Str(_) => format!("{cell:<w$}"),
                    _ => format!("{cell:>w$}"),
                })
                .collect();
            out.push_str(cells.join("  ").trim_end());
            out.push('\n');
        }
        out
    }

    /// The pass line, or one line per violated bound.
    pub fn verdict(&self) -> String {
        if self.violations.is_empty() {
            format!("{}\n", self.pass)
        } else {
            format!("bounds violated:\n  {}\n", self.violations.join("\n  "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_obs::json::parse_flat;

    /// The envelope, once for every suite: the document leads with the
    /// suite's schema string, every object in it is flat JSON, every
    /// table column is a JSON field, and a violation reaches the
    /// verdict.
    #[test]
    fn every_suite_reports_through_one_envelope() {
        for (suite, run) in SUITES {
            let mut report = run(true);
            assert_eq!(report.violations, Vec::<String>::new(), "{suite}");
            let doc = report.to_json();
            let schema = format!("{{\"schema\":\"wave-bench/{suite}/v1\"");
            assert!(doc.starts_with(&schema), "{suite}: {doc}");
            let rows = report.cases.as_deref();
            let rows = rows.unwrap_or(std::slice::from_ref(&report.head));
            assert!(!rows.is_empty(), "{suite}: no rows");
            if report.cases.is_some() {
                let framed = doc.contains(",\"cases\":[{") && doc.ends_with("}]}");
                assert!(framed, "{suite}: {doc}");
            }
            let table = report.to_table();
            assert_eq!(table.lines().count(), rows.len() + 1, "{table}");
            for row in rows {
                let json = row.to_json();
                let map = parse_flat(&json).unwrap_or_else(|| panic!("not flat: {json}"));
                assert_eq!(map.len(), row.0.len(), "duplicate key in {json}");
                assert!(doc.contains(&json), "{suite}: row missing from document");
                assert!(row.columns().count() >= 2, "{suite}: {table}");
                for column in row.columns() {
                    assert!(map.contains_key(column.key), "{}", column.key);
                    assert!(table.contains(column.key), "{table}");
                }
            }
            assert!(report.verdict().contains(&report.pass), "{suite}");
            report.violations.push("row 3 moved".to_string());
            let verdict = report.verdict();
            assert!(verdict.contains("row 3 moved") && !verdict.contains(&report.pass));
        }
    }

    #[test]
    fn table_aligns_text_left_and_numbers_right() {
        let row = |scheme, n, x| {
            Row::new()
                .str(Show::Table, "scheme", scheme)
                .u64(Show::Json, "hidden", 7)
                .u64(Show::Table, "n", n)
                .f64(Show::Table, "speedup", x)
        };
        let report = Report {
            head: Row::new()
                .str(Show::Json, "schema", "wave-bench/demo/v1")
                .u64(Show::Json, "window", 4),
            cases: Some(vec![row("DEL", 5, 1.0), row("REINDEX++", 12345, 10.25)]),
            violations: Vec::new(),
            pass: "fine".to_string(),
        };
        assert_eq!(
            report.to_table(),
            "scheme         n  speedup\n\
             DEL            5    1.000\n\
             REINDEX++  12345   10.250\n"
        );
        assert_eq!(
            report.to_json(),
            "{\"schema\":\"wave-bench/demo/v1\",\"window\":4,\"cases\":[\
             {\"scheme\":\"DEL\",\"hidden\":7,\"n\":5,\"speedup\":1},\
             {\"scheme\":\"REINDEX++\",\"hidden\":7,\"n\":12345,\"speedup\":10.25}]}"
        );
        let flat = Report {
            cases: None,
            ..report
        };
        assert_eq!(
            flat.to_json(),
            "{\"schema\":\"wave-bench/demo/v1\",\"window\":4}"
        );
    }
}
