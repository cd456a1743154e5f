//! `compare A.jsonl B.jsonl`: two sets of runs, metric by metric.
//!
//! Each file holds the rows `run --out` appends, from one run or many.
//! Per workload and metric the command prints both medians, the ratio
//! `B/A` (base A), the bound and a verdict:
//!
//! * `ok` — B's median is no worse than A's by more than the bound;
//! * `worse` — it is;
//! * `unresolved` — either side's own run-to-run spread (distance
//!   between its quartiles, as a share of its median) is wider than
//!   the bound, so the two cannot be told apart — unless every run of
//!   B reads better than every run of A, which is `ok`.
//!
//! Per-layer metrics have no bound and get no verdict. Rows of exact
//! facts (operation counts, answer digests) are compared as text where
//! both files hold the same workload, seed and round count. The
//! command exits non-zero when any verdict is `worse`.

use std::collections::BTreeMap;
use std::path::Path;

use wave_obs::json::parse_flat;

use crate::catalog::{self, Better};
use crate::stats::median;

/// `(workload, metric)` -> values, in file order.
type Values = BTreeMap<(String, String), Vec<f64>>;
/// `(workload, metric, seed, rounds)` -> text.
type Exact = BTreeMap<(String, String, u64, u64), String>;

/// Rows of one file, split into measured values and exact facts.
#[derive(Debug, Default, PartialEq)]
pub struct RunSet {
    values: Values,
    exact: Exact,
}

/// Parses the rows of a `--out` file.
pub fn parse_rows(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::default();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row = parse_flat(line).ok_or_else(|| format!("line {}: not a flat JSON row", n + 1))?;
        let field = |k: &str| {
            row.get(k)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("line {}: no {k}", n + 1))
        };
        let (workload, metric) = (field("workload")?, field("metric")?);
        match row.get("value").and_then(|v| v.as_f64()) {
            Some(v) => set.values.entry((workload, metric)).or_default().push(v),
            None => {
                let num = |k: &str| row.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
                set.exact.insert(
                    (workload, metric, num("seed"), num("rounds")),
                    field("text")?,
                );
            }
        }
    }
    Ok(set)
}

/// The three quartile cut points of `values`, as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method).
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in cuts.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Distance between the first and third quartile as a share of the
/// median; 0 when there are too few runs to tell.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some([q1, _, q3]), Some(m)) if m != 0.0 => ((q3 - q1) / m).abs(),
        _ => 0.0,
    }
}

/// The verdict on one bounded metric.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> &'static str {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return "unresolved";
    };
    let b_better = |x: f64, y: f64| match better {
        Better::Lower => y < x,
        Better::Higher => y > x,
    };
    if spread(a) > bound || spread(b) > bound {
        let clean_win = a.iter().all(|x| b.iter().all(|y| b_better(*x, *y)));
        return if clean_win { "ok" } else { "unresolved" };
    }
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > bound {
        "worse"
    } else {
        "ok"
    }
}

/// Compares two run sets, returning the report and whether nothing
/// was `worse`.
pub fn compare_sets(a: &RunSet, b: &RunSet) -> (String, bool) {
    let mut report = String::new();
    let mut clean = true;
    report.push_str(&format!(
        "{:<14} {:<40} {:>14} {:>14} {:>9} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "B/A", "bound"
    ));
    for ((workload, metric), va) in &a.values {
        let Some(vb) = b.values.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (ma, mb) = (median(va).unwrap_or(0.0), median(vb).unwrap_or(0.0));
        let ratio = if ma == 0.0 { f64::NAN } else { mb / ma };
        let (bound, word) = match catalog::find(metric).and_then(|m| m.bound.map(|b| (m, b))) {
            Some((m, bound)) => (format!("{bound}"), verdict(va, vb, m.better, bound)),
            None => ("-".to_string(), "-"),
        };
        clean &= word != "worse";
        report.push_str(&format!(
            "{workload:<14} {metric:<40} {ma:>14.4} {mb:>14.4} {ratio:>9.4} {bound:>6}  {word}\n"
        ));
    }
    for (key, ta) in &a.exact {
        if let Some(tb) = b.exact.get(key) {
            let same = ta == tb;
            clean &= same;
            report.push_str(&format!(
                "{:<14} {:<40} {:>14} {:>14} {:>9} {:>6}  {}\n",
                key.0,
                format!("{} (seed {}, {} rounds)", key.1, key.2, key.3),
                ta,
                tb,
                "-",
                "exact",
                if same { "ok" } else { "worse" }
            ));
        }
    }
    (report, clean)
}

/// `compare A B` on files: prints the report, `Ok(false)` on `worse`.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| parse_rows(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let (report, clean) = compare_sets(&load(a)?, &load(b)?);
    print!("{report}");
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = |c: f64| vec![c * 0.99, c, c * 1.01, c, c];
        // 5% slower against a 10% bound is ok; 20% slower is worse.
        assert_eq!(
            verdict(&steady(100.0), &steady(105.0), Better::Lower, 0.1),
            "ok"
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(120.0), Better::Lower, 0.1),
            "worse"
        );
        // Throughput: lower is the bad direction.
        assert_eq!(
            verdict(&steady(100.0), &steady(80.0), Better::Higher, 0.1),
            "worse"
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(130.0), Better::Higher, 0.1),
            "ok"
        );
        // A noisy side cannot be resolved ...
        let noisy = vec![60.0, 100.0, 140.0, 90.0, 120.0];
        assert_eq!(
            verdict(&noisy, &steady(101.0), Better::Lower, 0.1),
            "unresolved"
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(verdict(&noisy, &steady(50.0), Better::Lower, 0.1), "ok");
        assert_eq!(verdict(&[], &steady(1.0), Better::Lower, 0.1), "unresolved");
    }

    #[test]
    fn rows_are_grouped_and_exact_facts_compared() {
        let file = |latency: f64, digest: &str| {
            format!(
                "{{\"workload\":\"w\",\"kind\":\"end_to_end\",\"metric\":\"probe_p50_us\",\
                 \"value\":{latency},\"unit\":\"us\",\"seed\":1,\"rounds\":8}}\n\
                 {{\"workload\":\"w\",\"kind\":\"per_layer\",\"metric\":\"disk.read_us\",\
                 \"value\":2.5,\"unit\":\"us\",\"seed\":1,\"rounds\":8}}\n\
                 {{\"workload\":\"w\",\"kind\":\"end_to_end.exact\",\"metric\":\"answer_digest\",\
                 \"text\":\"{digest}\",\"seed\":1,\"rounds\":8}}\n"
            )
        };
        let a = parse_rows(&file(100.0, "abc")).unwrap();
        assert_eq!(a.values[&("w".into(), "probe_p50_us".into())], vec![100.0]);
        let (report, clean) = compare_sets(&a, &parse_rows(&file(104.0, "abc")).unwrap());
        assert!(clean, "{report}");
        assert!(report.contains("probe_p50_us") && report.contains("1.0400"));
        assert!(report
            .lines()
            .any(|l| l.contains("disk.read_us") && l.ends_with('-')));
        let (report, clean) = compare_sets(&a, &parse_rows(&file(150.0, "abd")).unwrap());
        assert!(!clean);
        assert_eq!(report.matches("worse").count(), 2, "{report}");
        assert!(parse_rows("not json\n").is_err());
    }
}
